/**
 * @file
 * Unit tests for the sparse chunked flat group directory: indexed
 * access vs. creation, ascending iteration order, chunk sparsity, and
 * pointer stability across growth (the table's lookup cache relies on
 * it).
 */

#include <gtest/gtest.h>

#include "learned/group_directory.hh"
#include "learned/plr.hh"

namespace leaftl
{
namespace
{

FittedSegment
singlePoint(uint8_t off, Ppa ppa)
{
    FittedSegment fs;
    fs.seg = Segment::makeSinglePoint(off, ppa);
    fs.offs.set(off);
    fs.count = 1;
    return fs;
}

TEST(GroupDirectory, FindVsCreate)
{
    GroupDirectory dir;
    EXPECT_EQ(dir.size(), 0u);
    EXPECT_EQ(dir.find(0), nullptr);
    EXPECT_EQ(dir.find(123456), nullptr);

    Group &g = dir.getOrCreate(5);
    EXPECT_EQ(dir.size(), 1u);
    EXPECT_EQ(dir.find(5), &g);
    // Same-chunk neighbors are not live until created themselves.
    EXPECT_EQ(dir.find(4), nullptr);
    EXPECT_EQ(dir.find(6), nullptr);

    // getOrCreate is idempotent.
    EXPECT_EQ(&dir.getOrCreate(5), &g);
    EXPECT_EQ(dir.size(), 1u);
}

TEST(GroupDirectory, IterationIsAscendingAndLiveOnly)
{
    GroupDirectory dir;
    // Deliberately created out of order, across distant chunks.
    for (uint32_t idx : {900u, 3u, 64u, 65u, 2000000u, 0u})
        dir.getOrCreate(idx);
    ASSERT_EQ(dir.size(), 6u);

    std::vector<uint32_t> seen;
    dir.forEach([&](uint32_t idx, const Group &) { seen.push_back(idx); });
    EXPECT_EQ(seen,
              (std::vector<uint32_t>{0, 3, 64, 65, 900, 2000000}));
}

TEST(GroupDirectory, PointersStableAcrossGrowth)
{
    GroupDirectory dir;
    Group &early = dir.getOrCreate(7);
    early.update(singlePoint(9, 1234));

    // Force directory growth far beyond the first chunk.
    for (uint32_t idx = 100; idx < 5000; idx += 63)
        dir.getOrCreate(idx);

    // The early pointer still addresses the same live group.
    EXPECT_EQ(dir.find(7), &early);
    auto r = early.lookup(9);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->ppa, 1234u);
}

TEST(GroupDirectory, ResidentBytesTrackTouchedChunks)
{
    GroupDirectory dir;
    const size_t empty = dir.residentBytes();

    // 64 groups in one chunk: one chunk materialized.
    for (uint32_t idx = 0; idx < 64; idx++)
        dir.getOrCreate(idx);
    const size_t dense = dir.residentBytes();
    EXPECT_GT(dense, empty);

    // The same number of groups scattered one per chunk costs ~64
    // chunks -- the documented sparse-access trade-off, made visible.
    GroupDirectory sparse;
    for (uint32_t i = 0; i < 64; i++)
        sparse.getOrCreate(i * 64);
    EXPECT_GE(sparse.residentBytes(), 32 * dense);
    EXPECT_EQ(sparse.size(), dir.size());
}

TEST(GroupDirectory, MutationsThroughFindPersist)
{
    GroupDirectory dir;
    dir.getOrCreate(42).update(singlePoint(1, 77));
    Group *g = dir.find(42);
    ASSERT_NE(g, nullptr);
    g->update(singlePoint(2, 78));
    EXPECT_EQ(dir.find(42)->numSegments(), 2u);

    size_t total = 0;
    dir.forEach([&](uint32_t, Group &grp) { total += grp.numSegments(); });
    EXPECT_EQ(total, 2u);
}

} // namespace
} // namespace leaftl
