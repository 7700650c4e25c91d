/**
 * @file
 * Unit tests for the Bitmap used by the PVT.
 */

#include <gtest/gtest.h>

#include <vector>

#include "util/bitmap.hh"

namespace leaftl
{
namespace
{

TEST(Bitmap, StartsEmpty)
{
    Bitmap bm(100);
    EXPECT_EQ(bm.size(), 100u);
    EXPECT_EQ(bm.popcount(), 0u);
    EXPECT_TRUE(bm.none());
}

TEST(Bitmap, SetTestClear)
{
    Bitmap bm(256);
    bm.set(0);
    bm.set(63);
    bm.set(64);
    bm.set(255);
    EXPECT_TRUE(bm.test(0));
    EXPECT_TRUE(bm.test(63));
    EXPECT_TRUE(bm.test(64));
    EXPECT_TRUE(bm.test(255));
    EXPECT_FALSE(bm.test(1));
    EXPECT_EQ(bm.popcount(), 4u);

    bm.clear(63);
    EXPECT_FALSE(bm.test(63));
    EXPECT_EQ(bm.popcount(), 3u);
}

TEST(Bitmap, ResizeClears)
{
    Bitmap bm(16);
    bm.set(3);
    bm.resize(16);
    EXPECT_EQ(bm.popcount(), 0u);
}

TEST(Bitmap, SetRangeCountsNewBitsAcrossWords)
{
    Bitmap bm(200);
    bm.set(70);
    // [60, 140) spans three words; bit 70 was already set.
    EXPECT_EQ(bm.setRange(60, 80), 79u);
    EXPECT_EQ(bm.popcount(), 80u);
    EXPECT_FALSE(bm.test(59));
    EXPECT_TRUE(bm.test(60));
    EXPECT_TRUE(bm.test(139));
    EXPECT_FALSE(bm.test(140));
    EXPECT_EQ(bm.setRange(0, 64), 60u); // A whole word.
    EXPECT_EQ(bm.setRange(199, 1), 1u);
    EXPECT_EQ(bm.popcount(), 141u);
}

TEST(Bitmap, ForEachSetVisitsAscendingAndClearAllKeepsSize)
{
    Bitmap bm(130);
    for (uint32_t i : {129u, 0u, 64u, 63u, 5u})
        bm.set(i);
    std::vector<uint32_t> seen;
    bm.forEachSet([&](uint32_t i) { seen.push_back(i); });
    EXPECT_EQ(seen, (std::vector<uint32_t>{0, 5, 63, 64, 129}));
    bm.clearAll();
    EXPECT_TRUE(bm.none());
    EXPECT_EQ(bm.size(), 130u);
    seen.clear();
    bm.forEachSet([&](uint32_t i) { seen.push_back(i); });
    EXPECT_TRUE(seen.empty());
}

TEST(BitmapDeath, OutOfRangeAborts)
{
    Bitmap bm(8);
    EXPECT_DEATH(bm.set(8), "out of range");
    EXPECT_DEATH(bm.test(100), "out of range");
    EXPECT_DEATH(bm.setRange(4, 5), "out of range");
}

} // namespace
} // namespace leaftl
