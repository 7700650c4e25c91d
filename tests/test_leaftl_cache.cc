/**
 * @file
 * Tests for LeaFTL's §3.8 demand caching of segment groups: lookups
 * in non-resident groups charge a translation read, dirty evictions
 * charge a write, and a tight budget bounds residency.
 */

#include <gtest/gtest.h>

#include "ftl/leaftl.hh"

namespace leaftl
{
namespace
{

class MockOps : public FtlOps
{
  public:
    void chargeTransRead() override { reads++; }
    void chargeTransWrite() override { writes++; }
    uint64_t reads = 0;
    uint64_t writes = 0;
};

std::vector<std::pair<Lpa, Ppa>>
seqRun(Lpa first, uint32_t n, Ppa p0)
{
    std::vector<std::pair<Lpa, Ppa>> run;
    for (uint32_t i = 0; i < n; i++)
        run.emplace_back(first + i, p0 + i);
    return run;
}

TEST(LeaFtlCache, FreshGroupsBornResidentWithoutFetch)
{
    MockOps ops;
    LeaFtl ftl(ops, 0);
    ftl.recordMappings(seqRun(0, 256, 1000));
    EXPECT_EQ(ops.reads, 0u);
    EXPECT_EQ(ftl.groupFetches(), 0u);
    // Lookup in a resident group: no charge.
    EXPECT_TRUE(ftl.translate(10).found);
    EXPECT_EQ(ops.reads, 0u);
}

TEST(LeaFtlCache, EvictionAndRefetchCharged)
{
    MockOps ops;
    LeaFtl ftl(ops, 0);
    // Two groups, 8 bytes each; budget for one.
    ftl.recordMappings(seqRun(0, 256, 1000));
    ftl.recordMappings(seqRun(256, 256, 2000));
    ftl.setMappingBudget(8);
    EXPECT_LE(ftl.residentMappingBytes(), 8u);
    // The evicted group was dirty: one write-back.
    EXPECT_EQ(ops.writes, 1u);

    // Lookup in the evicted group: one fetch.
    const uint64_t reads0 = ops.reads;
    EXPECT_TRUE(ftl.translate(10).found);
    EXPECT_EQ(ops.reads, reads0 + 1);
    EXPECT_EQ(ftl.groupFetches(), 1u);
    // Clean re-eviction (just fetched, not modified): no write.
    const uint64_t writes0 = ops.writes;
    EXPECT_TRUE(ftl.translate(300).found); // Evicts the clean group.
    EXPECT_EQ(ops.writes, writes0);
}

TEST(LeaFtlCache, FullTableUnaffectedByResidency)
{
    MockOps ops;
    LeaFtl ftl(ops, 0);
    ftl.recordMappings(seqRun(0, 512, 0));
    const size_t full = ftl.fullMappingBytes();
    ftl.setMappingBudget(8);
    EXPECT_EQ(ftl.fullMappingBytes(), full);
    EXPECT_LT(ftl.residentMappingBytes(), full);
}

TEST(LeaFtlCache, CompactionRefreshesResidentAccounting)
{
    MockOps ops;
    LeaFtl ftl(ops, 0);
    // Layered overwrites in one group grow it; compaction shrinks it.
    for (int layer = 0; layer < 6; layer++)
        ftl.recordMappings(seqRun(0, 200, 1000 * (layer + 1)));
    const size_t before = ftl.residentMappingBytes();
    ftl.periodicMaintenance();
    EXPECT_LE(ftl.residentMappingBytes(), before);
    EXPECT_EQ(ftl.residentMappingBytes(), ftl.fullMappingBytes());
}

TEST(LeaFtlCache, GenerousBudgetKeepsAllResident)
{
    MockOps ops;
    LeaFtl ftl(ops, 0);
    ftl.setMappingBudget(1 << 20);
    for (int g = 0; g < 20; g++)
        ftl.recordMappings(seqRun(g * 256, 256, g * 1000));
    EXPECT_EQ(ftl.residentMappingBytes(), ftl.fullMappingBytes());
    EXPECT_EQ(ops.reads, 0u);
}

} // namespace
} // namespace leaftl
