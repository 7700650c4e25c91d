/**
 * @file
 * Unit tests for the Bitmap used by the PVT.
 */

#include <gtest/gtest.h>

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

TEST(BitmapDeath, OutOfRangeAborts)
{
    Bitmap bm(8);
    EXPECT_DEATH(bm.set(8), "out of range");
    EXPECT_DEATH(bm.test(100), "out of range");
}

} // namespace
} // namespace leaftl
