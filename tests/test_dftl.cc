/**
 * @file
 * Tests for the DFTL baseline: demand caching, translation-page
 * charging, dirty write-back batching, the dirty-slot index, and GC
 * update paths.
 */

#include <gtest/gtest.h>

#include "ftl/dftl.hh"

namespace leaftl
{
namespace
{

/** Counts translation charges. */
class MockOps : public FtlOps
{
  public:
    void chargeTransRead() override { reads++; }
    void chargeTransWrite() override { writes++; }
    uint64_t reads = 0;
    uint64_t writes = 0;
};

constexpr uint32_t kPageSize = 4096; // 512 entries per t-page.

TEST(Dftl, UnmappedLookupCostsNothing)
{
    MockOps ops;
    Dftl ftl(ops, kPageSize, 1 << 20);
    const auto r = ftl.translate(1234);
    EXPECT_FALSE(r.found);
    EXPECT_EQ(ops.reads, 0u);
    EXPECT_EQ(ops.writes, 0u);
}

TEST(Dftl, FreshMappingHitsCmt)
{
    MockOps ops;
    Dftl ftl(ops, kPageSize, 1 << 20);
    ftl.recordMappings({{10, 100}, {11, 101}});
    const auto r = ftl.translate(10);
    ASSERT_TRUE(r.found);
    EXPECT_EQ(r.ppa, 100u);
    EXPECT_FALSE(r.approximate);
    EXPECT_EQ(ops.reads, 0u); // Still cached, no flash involved.
    EXPECT_EQ(ftl.cmtHits(), 1u);
}

TEST(Dftl, EvictionWritesBackDirtyAndMissReloads)
{
    MockOps ops;
    // Budget of exactly 2 entries.
    Dftl ftl(ops, kPageSize, 2 * kMapEntryBytes);
    ftl.recordMappings({{1, 100}});
    ftl.recordMappings({{2, 200}});
    EXPECT_EQ(ops.writes, 0u);
    // Third insert evicts LRU (lpa 1, dirty): one t-page write. No
    // read: the page did not exist yet.
    ftl.recordMappings({{3, 300}});
    EXPECT_EQ(ops.writes, 1u);

    // Re-reading lpa 1 misses the CMT: one t-page read.
    const uint64_t reads_before = ops.reads;
    const auto r = ftl.translate(1);
    ASSERT_TRUE(r.found);
    EXPECT_EQ(r.ppa, 100u);
    EXPECT_EQ(ops.reads, reads_before + 1);
}

TEST(Dftl, WritebackBatchesDirtyEntriesOfSamePage)
{
    MockOps ops;
    Dftl ftl(ops, kPageSize, 3 * kMapEntryBytes);
    // Three dirty entries in the same translation page (lpa < 512).
    ftl.recordMappings({{1, 100}, {2, 200}, {3, 300}});
    // Insert a fourth: evicts lpa 1 and flushes ALL dirty entries of
    // t-page 0 in one write.
    ftl.recordMappings({{4, 400}});
    EXPECT_EQ(ops.writes, 1u);
    // Evicting lpa 2 and 3 later: clean now, no further writes.
    ftl.recordMappings({{5, 500}});
    ftl.recordMappings({{6, 600}});
    EXPECT_EQ(ops.writes, 1u);
}

TEST(Dftl, RmwChargesReadOnExistingPage)
{
    MockOps ops;
    Dftl ftl(ops, kPageSize, 1 * kMapEntryBytes);
    ftl.recordMappings({{1, 100}});
    // Evicting lpa 1 (dirty) writes t-page 0 for the first time; the
    // batched write-back also cleans the just-inserted lpa 2.
    ftl.recordMappings({{2, 200}});
    EXPECT_EQ(ops.reads, 0u);
    EXPECT_EQ(ops.writes, 1u);
    // Evicting the now-clean lpa 2 costs nothing.
    ftl.recordMappings({{3, 300}});
    EXPECT_EQ(ops.reads, 0u);
    EXPECT_EQ(ops.writes, 1u);
    // Evicting dirty lpa 3 with t-page 0 already materialized is a
    // read-modify-write: one read plus one write.
    ftl.recordMappings({{4, 400}});
    EXPECT_EQ(ops.reads, 1u);
    EXPECT_EQ(ops.writes, 2u);
}

TEST(Dftl, GcUpdatesChargePerTranslationPage)
{
    MockOps ops;
    Dftl ftl(ops, kPageSize, 1 << 20);
    // Mappings across two translation pages (entry 512 boundary).
    ftl.recordMappingsGc({{1, 10}, {2, 11}, {600, 12}});
    // Two t-pages touched, both new: 2 writes, 0 reads.
    EXPECT_EQ(ops.writes, 2u);
    EXPECT_EQ(ops.reads, 0u);
    const auto r = ftl.translate(600);
    ASSERT_TRUE(r.found);
    EXPECT_EQ(r.ppa, 12u);
}

TEST(Dftl, GcRefreshesCachedCopies)
{
    MockOps ops;
    Dftl ftl(ops, kPageSize, 1 << 20);
    ftl.recordMappings({{7, 70}});
    ftl.recordMappingsGc({{7, 700}});
    const auto r = ftl.translate(7);
    ASSERT_TRUE(r.found);
    EXPECT_EQ(r.ppa, 700u);
}

TEST(Dftl, MemoryAccounting)
{
    MockOps ops;
    Dftl ftl(ops, kPageSize, 1 << 20);
    ftl.recordMappings({{1, 10}, {2, 20}, {3, 30}});
    EXPECT_EQ(ftl.residentMappingBytes(), 3 * kMapEntryBytes);
    EXPECT_EQ(ftl.fullMappingBytes(), 3 * kMapEntryBytes);
    // Shrinking the budget evicts but the full size is unchanged.
    ftl.setMappingBudget(1 * kMapEntryBytes);
    EXPECT_EQ(ftl.residentMappingBytes(), 1 * kMapEntryBytes);
    EXPECT_EQ(ftl.fullMappingBytes(), 3 * kMapEntryBytes);
}

TEST(Dftl, OverwriteKeepsSingleEntry)
{
    MockOps ops;
    Dftl ftl(ops, kPageSize, 1 << 20);
    ftl.recordMappings({{5, 50}});
    ftl.recordMappings({{5, 51}});
    EXPECT_EQ(ftl.fullMappingBytes(), 1 * kMapEntryBytes);
    EXPECT_EQ(ftl.translate(5).ppa, 51u);
}

TEST(DftlDirtyIndex, WritebackWritesExactlyTheDirtySlotsOfItsPage)
{
    MockOps ops;
    Dftl ftl(ops, kPageSize, 1 << 20);
    // T-page 0 on flash with slot 0 mapped; slot 0 cached clean.
    ftl.recordMappingsGc({{0, 10}});
    ASSERT_TRUE(ftl.translate(0).found);
    // Dirty slots 1 and 3 of t-page 0, and slot 600 of t-page 1.
    ftl.recordMappings({{1, 100}, {3, 300}, {600, 6000}});
    const uint64_t writes = ops.writes;

    // Evict down to one entry (the MRU, lpa 600): the LRU dirty
    // entry's write-back is one RMW of t-page 0 that cleans slots 1
    // and 3; evicting clean slot 0 costs nothing.
    ftl.setMappingBudget(1 * kMapEntryBytes);
    EXPECT_EQ(ops.writes, writes + 1);
    // T-page 1's dirty slot is untouched: evicting it writes it back.
    ftl.setMappingBudget(0);
    EXPECT_EQ(ops.writes, writes + 2);

    // Flash now holds exactly the write-back: slots 1 and 3 carry
    // their PPAs, slot 0 its GC mapping, slot 2 was never written.
    EXPECT_EQ(ftl.translate(0).ppa, 10u);
    EXPECT_EQ(ftl.translate(1).ppa, 100u);
    EXPECT_FALSE(ftl.translate(2).found);
    EXPECT_EQ(ftl.translate(3).ppa, 300u);
    EXPECT_EQ(ftl.translate(600).ppa, 6000u);
}

TEST(DftlDirtyIndex, GcRefreshCleansADirtyCachedEntry)
{
    MockOps ops;
    Dftl ftl(ops, kPageSize, 1 << 20);
    ftl.recordMappings({{7, 70}}); // Dirty in the CMT.
    ftl.recordMappingsGc({{7, 700}});
    EXPECT_EQ(ops.writes, 1u); // The GC RMW of t-page 0.
    // The refreshed entry matches flash: evicting it writes nothing.
    ftl.setMappingBudget(0);
    EXPECT_EQ(ops.writes, 1u);
    const uint64_t reads = ops.reads;
    EXPECT_EQ(ftl.translate(7).ppa, 700u);
    EXPECT_EQ(ops.reads, reads + 1); // Reloaded from the t-page.
}

TEST(DftlDirtyIndex, TrimTombstoneSurvivesWriteback)
{
    MockOps ops;
    Dftl ftl(ops, kPageSize, 1 << 20);
    ftl.recordMappingsGc({{5, 50}, {6, 60}});
    ftl.trim(5); // Dirty tombstone in the CMT.
    EXPECT_FALSE(ftl.translate(5).found);
    const uint64_t writes = ops.writes;
    ftl.setMappingBudget(0); // Write-back persists the tombstone.
    EXPECT_EQ(ops.writes, writes + 1);
    const uint64_t reads = ops.reads;
    EXPECT_FALSE(ftl.translate(5).found);
    EXPECT_EQ(ops.reads, reads + 1); // Read from flash, still trimmed.
    EXPECT_EQ(ftl.translate(6).ppa, 60u);
    EXPECT_EQ(ftl.fullMappingBytes(), 2 * kMapEntryBytes);
}

} // namespace
} // namespace leaftl
