/**
 * @file
 * Heap-allocation counts on the learned write path. This binary
 * replaces the global operator new with one that counts calls while a
 * test has counting switched on, so it can check what the learned
 * layer's comments promise: once warmed up, learning GC-shaped
 * batches, trimming and compacting allocate nothing, and GC-heavy
 * LeaFTL and DFTL replays allocate only for flash-side structures.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <utility>
#include <vector>

#include "cli/sim_cli.hh"
#include "ftl/leaftl.hh"
#include "learned/learned_table.hh"
#include "sim/runner.hh"
#include "ssd/ssd.hh"
#include "util/rng.hh"

namespace
{

std::atomic<bool> g_counting{false};
std::atomic<uint64_t> g_allocs{0};

void *
countedAlloc(std::size_t n)
{
    if (g_counting.load(std::memory_order_relaxed))
        g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n == 0 ? 1 : n))
        return p;
    throw std::bad_alloc();
}

/** Counts the allocations made between construction and count(). */
class AllocCounter
{
  public:
    AllocCounter()
    {
        g_allocs = 0;
        g_counting = true;
    }
    ~AllocCounter() { g_counting = false; }

    uint64_t
    count()
    {
        g_counting = false;
        return g_allocs;
    }
};

} // namespace

void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

namespace leaftl
{
namespace
{

using Batch = std::vector<std::pair<Lpa, Ppa>>;

/** A GC-shaped batch: @a n random distinct LPAs, sorted, fresh PPAs. */
Batch
gcBatch(Rng &rng, uint32_t n, uint32_t lpa_space, Ppa &next_ppa)
{
    std::vector<Lpa> lpas;
    while (lpas.size() < n) {
        lpas.push_back(static_cast<Lpa>(rng.nextBounded(lpa_space)));
        if (lpas.size() == n) {
            std::sort(lpas.begin(), lpas.end());
            lpas.erase(std::unique(lpas.begin(), lpas.end()), lpas.end());
        }
    }
    Batch run;
    for (Lpa lpa : lpas)
        run.emplace_back(lpa, next_ppa++);
    return run;
}

class AllocFreeTable : public ::testing::TestWithParam<uint32_t>
{
};

/**
 * Warm-up has to take every group's arrays past the sizes steady
 * state ever needs: capacities only grow, but a group whose segment
 * count hovers near a power of two still reallocates whenever it sets
 * a new record, which at gamma 1 goes on for thousands of batches.
 * So the warm-up first learns without compacting, which stacks every
 * group deeper than periodic compaction ever lets it get, and then
 * settles into the periodic-compaction steady state.
 */
TEST_P(AllocFreeTable, LearnTrimAndCompactAllocateNothingOnceWarm)
{
    const uint32_t gamma = GetParam();
    constexpr uint32_t kLpas = 1u << 16;
    constexpr int kDeepBatches = 200, kSettleBatches = 100;
    constexpr int kBatches = 200, kCompactEvery = 25;
    constexpr int kTotal = kDeepBatches + kSettleBatches + kBatches;

    // Every input is built before counting starts.
    Rng rng(gamma + 1);
    Ppa ppa = 0;
    std::vector<Batch> batches;
    std::vector<Batch> trims;
    for (int b = 0; b < kTotal; b++) {
        batches.push_back(gcBatch(rng, 2048, kLpas, ppa));
        trims.push_back({{static_cast<Lpa>(rng.nextBounded(kLpas)),
                          kTombstonePpa}});
    }

    LearnedTable table(gamma);
    auto step = [&](int b) {
        table.learn(batches[b]);
        table.learn(trims[b]);
        if ((b + 1) % kCompactEvery == 0 && b + 1 >= kDeepBatches)
            table.compact();
    };
    for (int b = 0; b < kDeepBatches + kSettleBatches; b++)
        step(b);

    uint64_t allocs = 0;
    {
        AllocCounter counter;
        for (int b = kDeepBatches + kSettleBatches; b < kTotal; b++)
            step(b);
        allocs = counter.count();
    }
    EXPECT_EQ(allocs, 0u) << "gamma " << gamma;
    table.checkInvariants();
}

INSTANTIATE_TEST_SUITE_P(Gammas, AllocFreeTable,
                         ::testing::Values(0u, 1u, 4u, 16u));

/** A gamma-4 table over @a lpas LPAs after @a batches GC batches. */
void
learnBatches(LearnedTable &table, Rng &rng, uint32_t lpas, int batches,
             Ppa &ppa)
{
    for (int b = 0; b < batches; b++)
        table.learn(gcBatch(rng, 2048, lpas, ppa));
}

TEST(AllocFreeSnapshot, SerializeAndSerializeDirtyAllocateOnce)
{
    LearnedTable table(4);
    Rng rng(3);
    Ppa ppa = 0;
    learnBatches(table, rng, 1u << 16, 50, ppa);
    table.compact();
    ASSERT_GT(table.numApproximate(), 0u);
    table.clearDirty();
    learnBatches(table, rng, 1u << 15, 2, ppa);

    uint64_t full_allocs = 0, dirty_allocs = 0;
    std::vector<uint8_t> full, dirty;
    {
        AllocCounter counter;
        full = table.serialize();
        full_allocs = counter.count();
    }
    {
        AllocCounter counter;
        dirty = table.serializeDirty();
        dirty_allocs = counter.count();
    }
    EXPECT_EQ(full_allocs, 1u);
    EXPECT_EQ(dirty_allocs, 1u);
    // Presized exactly: the blobs carry no slack capacity.
    EXPECT_EQ(full.capacity(), full.size());
    EXPECT_EQ(dirty.capacity(), dirty.size());
    EXPECT_LT(dirty.size(), full.size());
    EXPECT_EQ(LearnedTable::deserialize(full)->serialize(), full);
}

class MockOps : public FtlOps
{
  public:
    void chargeTransRead() override {}
    void chargeTransWrite() override {}
};

/**
 * A crash restores a warmed LeaFTL's table in place from a snapshot
 * and two deltas, over a table that has moved on since. The groups,
 * CRBs and directory chunks keep their storage, so what the restore
 * allocates (the statistics it resets) is a constant, the same at 256
 * and at 4096 groups.
 */
uint64_t
restoreChainAllocs(uint32_t lpas)
{
    MockOps ops;
    LeaFtl ftl(ops, 4);
    LearnedTable &table = *ftl.learnedTable();
    Rng rng(lpas);
    Ppa ppa = 0;
    auto learn = [&](int batches) {
        for (int b = 0; b < batches; b++)
            ftl.recordMappings(gcBatch(rng, 2048, lpas, ppa));
    };
    learn(200);
    ftl.periodicMaintenance();
    const std::vector<uint8_t> base = table.serialize();
    table.clearDirty();
    std::vector<std::vector<uint8_t>> deltas;
    for (int d = 0; d < 2; d++) {
        learn(20);
        deltas.push_back(table.serializeDirty());
        table.clearDirty();
    }
    learn(20);
    ftl.periodicMaintenance();
    const size_t groups = table.numGroups();

    uint64_t allocs = 0;
    {
        AllocCounter counter;
        ftl.restoreChain(base, deltas);
        allocs = counter.count();
    }
    EXPECT_EQ(table.numGroups(), groups);
    auto fresh = LearnedTable::deserialize(base);
    for (const auto &delta : deltas)
        EXPECT_TRUE(fresh->applyDelta(delta));
    EXPECT_EQ(table.serialize(), fresh->serialize());
    table.checkInvariants();
    return allocs;
}

TEST(AllocFreeSnapshot, RestoreChainAllocatesAConstantInPlace)
{
    const uint64_t small = restoreChainAllocs(1u << 16);
    const uint64_t large = restoreChainAllocs(1u << 20);
    EXPECT_EQ(small, large);
    EXPECT_LE(large, 2u);
}

/**
 * A GC-heavy run shaped like the rand-gc benchmark workloads (uniform
 * random, 80% writes, a working set of 64Ki pages prefilled to 85%),
 * on LeaFTL at gamma 4 and on DFTL. After warm-up, learning, GC,
 * compaction and DFTL's CMT write-back add nothing: what allocates is
 * the flash model materializing the page maps of each block it
 * programs (freed again at erase), a few times per block, plus one
 * drain buffer per write-buffer flush.
 */
class AllocFreeReplay : public ::testing::TestWithParam<FtlKind>
{
};

TEST_P(AllocFreeReplay, RandGcReplayAllocatesOnlyPerFlashBlock)
{
    const FtlKind ftl = GetParam();
    constexpr uint64_t kWs = 65536;
    constexpr int kWarm = 300'000, kMeasured = 100'000;
    config::ExperimentSpec spec;
    spec.working_set_pages = kWs;
    spec.read_ratio = 0.2;
    Ssd ssd(cli::makeConfig(ftl, 4, spec));
    Runner::prefillMixed(ssd, kWs * 85 / 100, 1);

    Rng rng(11);
    std::vector<std::pair<bool, Lpa>> reqs;
    for (int i = 0; i < kWarm + kMeasured; i++)
        reqs.emplace_back(rng.nextDouble() < 0.2,
                          static_cast<Lpa>(rng.nextBounded(kWs)));
    Tick now = 0;
    auto replay = [&](int first, int last) {
        for (int i = first; i < last; i++) {
            const auto [is_read, lpa] = reqs[i];
            now += is_read ? ssd.read(lpa, now) : ssd.write(lpa, now);
        }
    };
    replay(0, kWarm);
    const SsdStats before = ssd.stats();

    uint64_t allocs = 0;
    {
        AllocCounter counter;
        replay(kWarm, kWarm + kMeasured);
        allocs = counter.count();
    }
    const SsdStats &after = ssd.stats();
    // The window must exercise what it claims to.
    ASSERT_GT(after.gc_runs - before.gc_runs, 100u);
    if (ftl == FtlKind::LeaFTL)
        ASSERT_GT(after.compactions - before.compactions, 0u);
    else
        ASSERT_GT(after.trans_writes - before.trans_writes, 100u);
    const uint64_t blocks =
        (after.data_writes + after.gc_writes - before.data_writes -
         before.gc_writes) /
        ssd.config().geometry.pages_per_block;
    EXPECT_LE(allocs, 4 * blocks)
        << "over " << kMeasured << " requests and " << blocks
        << " programmed blocks";
}

INSTANTIATE_TEST_SUITE_P(Ftls, AllocFreeReplay,
                         ::testing::Values(FtlKind::LeaFTL, FtlKind::DFTL),
                         [](const auto &info) {
                             return ftlKindName(info.param);
                         });

} // namespace
} // namespace leaftl
