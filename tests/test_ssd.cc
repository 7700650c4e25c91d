/**
 * @file
 * End-to-end device tests: read-your-writes across buffer flushes and
 * GC, write amplification accounting, DRAM budget splitting, and
 * misprediction handling with approximate segments (gamma > 0).
 *
 * The internal assertions of Ssd::read are themselves a correctness
 * harness: any translation that lands on a page carrying a different
 * LPA (beyond what the OOB scheme can resolve) aborts the test.
 */

#include <gtest/gtest.h>

#include <set>

#include "learned/learned_table.hh"
#include "ssd/ssd.hh"
#include "util/rng.hh"

namespace leaftl
{
namespace
{

SsdConfig
smallConfig(FtlKind ftl, uint32_t gamma = 0)
{
    SsdConfig cfg;
    cfg.geometry.num_channels = 4;
    cfg.geometry.blocks_per_channel = 32;
    cfg.geometry.pages_per_block = 32;
    cfg.geometry.page_size = 4096;
    cfg.geometry.oob_size = 128;
    cfg.ftl = ftl;
    cfg.gamma = gamma;
    cfg.dram_bytes = 2ull << 20;
    cfg.write_buffer_bytes = 32ull * 4096; // One block.
    cfg.compaction_interval = 2000;
    return cfg;
}

/** Write a set of LPAs and verify each is readable afterwards. */
void
writeReadCycle(Ssd &ssd, const std::vector<Lpa> &lpas)
{
    Tick now = 0;
    for (Lpa lpa : lpas)
        now += ssd.write(lpa, now);
    ssd.drainBuffer(now);
    for (Lpa lpa : lpas) {
        const auto oracle = ssd.oraclePpa(lpa);
        ASSERT_TRUE(oracle.has_value()) << "lost mapping for " << lpa;
        EXPECT_EQ(ssd.flash().peekLpa(*oracle), lpa);
        now += ssd.read(lpa, now);
    }
}

class SsdAllFtls : public ::testing::TestWithParam<FtlKind>
{
};

TEST_P(SsdAllFtls, SequentialWriteReadBack)
{
    Ssd ssd(smallConfig(GetParam()));
    std::vector<Lpa> lpas;
    for (Lpa l = 0; l < 500; l++)
        lpas.push_back(l);
    writeReadCycle(ssd, lpas);
    EXPECT_EQ(ssd.stats().host_writes, 500u);
    EXPECT_GE(ssd.stats().data_writes, 500u);
}

TEST_P(SsdAllFtls, OverwriteReturnsNewestVersion)
{
    Ssd ssd(smallConfig(GetParam()));
    Tick now = 0;
    // Write twice with a drain between (two physical versions).
    for (int round = 0; round < 2; round++) {
        for (Lpa l = 0; l < 100; l++)
            now += ssd.write(l, now);
        ssd.drainBuffer(now);
    }
    for (Lpa l = 0; l < 100; l++) {
        const auto oracle = ssd.oraclePpa(l);
        ASSERT_TRUE(oracle.has_value());
        EXPECT_TRUE(ssd.blocks().isValid(*oracle));
        now += ssd.read(l, now);
    }
}

TEST_P(SsdAllFtls, RandomWorkloadSurvivesGc)
{
    Ssd ssd(smallConfig(GetParam()));
    const uint64_t host_pages = ssd.config().hostPages();
    // Use 60% of the host space, write 5x its size to force GC.
    const uint64_t ws = host_pages * 6 / 10;
    Rng rng(42);
    std::set<Lpa> written;
    Tick now = 0;
    for (int i = 0; i < static_cast<int>(ws) * 5; i++) {
        const Lpa lpa = static_cast<Lpa>(rng.nextBounded(ws));
        written.insert(lpa);
        now += ssd.write(lpa, now);
        if (i % 97 == 0 && !written.empty()) {
            // Interleave reads of previously written pages.
            now += ssd.read(*written.begin(), now);
        }
    }
    ssd.drainBuffer(now);
    EXPECT_GT(ssd.stats().gc_runs, 0u) << "GC never triggered";

    for (Lpa lpa : written) {
        const auto oracle = ssd.oraclePpa(lpa);
        ASSERT_TRUE(oracle.has_value()) << "GC lost LPA " << lpa;
        EXPECT_EQ(ssd.flash().peekLpa(*oracle), lpa);
    }
    // Every read still resolves (internal asserts verify content).
    for (Lpa lpa : written)
        now += ssd.read(lpa, now);
}

/**
 * Everything a run can observe of the device: SsdStats, the data
 * cache, every channel's busy-until and the learned table's stats.
 */
std::vector<double>
observableState(const Ssd &ssd)
{
    const SsdStats &s = ssd.stats();
    std::vector<double> v = {
        double(s.host_reads),        double(s.host_writes),
        double(s.buffer_read_hits),  double(s.unmapped_reads),
        double(s.unresolved_reads),  double(s.data_reads),
        double(s.data_writes),       double(s.gc_runs),
        double(s.gc_reads),          double(s.gc_writes),
        double(s.gc_erases),         double(s.wear_migrations),
        double(s.wear_writes),       double(s.wear_reads),
        double(s.trans_reads),       double(s.trans_writes),
        double(s.mispredictions),    double(s.mispredict_extra_reads),
        double(s.translations),      double(s.compactions),
        double(s.read_latency.count()), s.read_latency.mean(),
        double(s.write_latency.count()), s.write_latency.mean(),
        double(ssd.dataCacheHits()), double(ssd.dataCacheMisses()),
    };
    for (uint32_t c = 0; c < ssd.channels().numChannels(); c++)
        v.push_back(double(ssd.channels().busyUntil(c)));
    if (const LearnedTable *table = ssd.ftl().learnedTable()) {
        const LearnedTableStats &t = table->stats();
        v.push_back(double(t.lookups));
        v.push_back(double(t.lookup_levels_total));
        v.push_back(double(t.lookup_cache_hits));
        v.push_back(double(t.segments_created));
    }
    return v;
}

TEST_P(SsdAllFtls, OracleLeavesNoTrace)
{
    // A small DRAM budget keeps DFTL's CMT, SFTL's resident pages and
    // LeaFTL's resident groups churning, so any cache or charge the
    // oracle touched would move the timeline.
    SsdConfig cfg = smallConfig(GetParam(), /*gamma=*/4);
    cfg.geometry.blocks_per_channel = 256;
    cfg.dram_bytes = 64ull << 10;
    auto run = [&](bool call_oracle) {
        Ssd ssd(cfg);
        Rng rng(11);
        Tick now = 0;
        for (int i = 0; i < 30000; i++) {
            const Lpa lpa = static_cast<Lpa>(rng.nextBounded(20000));
            now += rng.nextDouble() < 0.6 ? ssd.write(lpa, now)
                                          : ssd.read(lpa, now);
            if (call_oracle && i % 7 == 0)
                (void)ssd.oraclePpa(lpa);
        }
        return observableState(ssd);
    };
    EXPECT_EQ(run(false), run(true));
}

INSTANTIATE_TEST_SUITE_P(Ftls, SsdAllFtls,
                         ::testing::Values(FtlKind::DFTL, FtlKind::SFTL,
                                           FtlKind::LeaFTL),
                         [](const auto &info) {
                             return ftlKindName(info.param);
                         });

TEST(Ssd, BufferHitsServeAtDramSpeed)
{
    Ssd ssd(smallConfig(FtlKind::LeaFTL));
    Tick now = 0;
    now += ssd.write(5, now);
    // Still buffered: read hits the buffer.
    const Tick lat = ssd.read(5, now);
    EXPECT_EQ(lat, ssd.config().latency.dram_access);
    EXPECT_EQ(ssd.stats().buffer_read_hits, 1u);
}

TEST(Ssd, DataCacheHitAvoidsFlash)
{
    Ssd ssd(smallConfig(FtlKind::LeaFTL));
    Tick now = 0;
    for (Lpa l = 0; l < 64; l++)
        now += ssd.write(l, now);
    ssd.drainBuffer(now);
    const uint64_t reads0 = ssd.stats().data_reads;
    now += ssd.read(7, now); // Miss: flash read.
    EXPECT_EQ(ssd.stats().data_reads, reads0 + 1);
    now += ssd.read(7, now); // Hit: cached.
    EXPECT_EQ(ssd.stats().data_reads, reads0 + 1);
    EXPECT_GE(ssd.dataCacheHits(), 1u);
}

TEST(Ssd, UnmappedReadServesZeros)
{
    Ssd ssd(smallConfig(FtlKind::LeaFTL));
    const Tick lat = ssd.read(1000, 0);
    EXPECT_EQ(lat, ssd.config().latency.dram_access);
    EXPECT_EQ(ssd.stats().unmapped_reads, 1u);
}

TEST(Ssd, CoalescedWritesReduceWaf)
{
    Ssd ssd(smallConfig(FtlKind::LeaFTL));
    Tick now = 0;
    // Hammer the same 8 LPAs; the buffer coalesces them.
    for (int i = 0; i < 512; i++)
        now += ssd.write(i % 8, now);
    ssd.drainBuffer(now);
    EXPECT_LT(ssd.stats().data_writes, 64u);
    EXPECT_LT(ssd.stats().waf(), 0.2);
}

TEST(Ssd, MispredictionsResolvedWithGamma)
{
    Ssd ssd(smallConfig(FtlKind::LeaFTL, /*gamma=*/4));
    Rng rng(9);
    // Scattered writes produce irregular runs -> approximate segments.
    std::set<Lpa> written;
    Tick now = 0;
    Lpa lpa = 0;
    for (int i = 0; i < 800; i++) {
        lpa = (lpa + 1 + rng.nextBounded(6)) % 2500;
        written.insert(lpa);
        now += ssd.write(lpa, now);
    }
    ssd.drainBuffer(now);
    for (Lpa l : written)
        now += ssd.read(l, now); // Internal asserts verify content.
    // Approximate segments must exist and at least some predictions
    // miss (they are then resolved by exactly one extra read each,
    // when in-block).
    ASSERT_NE(ssd.ftl().learnedTable(), nullptr);
    EXPECT_GT(ssd.ftl().learnedTable()->numApproximate(), 0u);
    if (ssd.stats().mispredictions > 0) {
        EXPECT_GE(ssd.stats().mispredict_extra_reads,
                  ssd.stats().mispredictions / 4);
    }
}

TEST(Ssd, GammaBeyondOobCapacityStillResolves)
{
    // Regression: when 2*gamma + 1 reverse mappings do not fit in the
    // OOB, the resolution path must still scan the uncovered
    // candidates instead of assuming the window was complete.
    SsdConfig cfg = smallConfig(FtlKind::LeaFTL, /*gamma=*/16);
    cfg.geometry.oob_size = 24; // 6 entries -> window of +-2 only.
    Ssd ssd(cfg);
    Rng rng(31);
    std::set<Lpa> written;
    Tick now = 0;
    Lpa lpa = 0;
    for (int i = 0; i < 1500; i++) {
        lpa = (lpa + 1 + rng.nextBounded(7)) % 3000;
        written.insert(lpa);
        now += ssd.write(lpa, now);
    }
    ssd.drainBuffer(now);
    for (Lpa l : written)
        now += ssd.read(l, now); // Panics on unresolved mispredicts.
}

TEST(Ssd, LeaFtlMappingSmallerOnSequential)
{
    // Pure sequential: everything compresses; LeaFTL's advantage over
    // DFTL is large, SFTL also compresses well here (its sweet spot).
    std::vector<uint64_t> sizes;
    for (FtlKind kind :
         {FtlKind::DFTL, FtlKind::SFTL, FtlKind::LeaFTL}) {
        Ssd ssd(smallConfig(kind));
        Tick now = 0;
        for (Lpa l = 0; l < 2000; l++)
            now += ssd.write(l, now);
        ssd.drainBuffer(now);
        sizes.push_back(ssd.ftl().fullMappingBytes());
    }
    EXPECT_LT(sizes[2] * 10, sizes[0]); // LeaFTL << DFTL.
    EXPECT_LT(sizes[1] * 10, sizes[0]); // SFTL << DFTL.
}

TEST(Ssd, LeaFtlBeatsSftlOnStridedPattern)
{
    // Fig. 1 pattern B: regular strides defeat SFTL's strictly-
    // sequential compression but are one accurate learned segment.
    std::vector<uint64_t> sizes;
    for (FtlKind kind :
         {FtlKind::DFTL, FtlKind::SFTL, FtlKind::LeaFTL}) {
        Ssd ssd(smallConfig(kind));
        Tick now = 0;
        for (Lpa l = 0; l < 3000; l += 2)
            now += ssd.write(l, now);
        ssd.drainBuffer(now);
        sizes.push_back(ssd.ftl().fullMappingBytes());
    }
    EXPECT_LT(sizes[2] * 4, sizes[1]); // LeaFTL well below SFTL.
    // SFTL degenerates to roughly DFTL's footprint (one descriptor
    // per entry plus its per-page bitmaps).
    EXPECT_LE(sizes[1], sizes[0] * 11 / 10);
}

TEST(Ssd, DramSplitGivesLeaFtlMoreCache)
{
    Ssd lea(smallConfig(FtlKind::LeaFTL));
    Ssd dftl(smallConfig(FtlKind::DFTL));
    Tick now = 0;
    for (Lpa l = 0; l < 2000; l++) {
        now += lea.write(l, now);
        dftl.write(l, now);
    }
    lea.drainBuffer(now);
    dftl.drainBuffer(now);
    EXPECT_GE(lea.dataCachePages(), dftl.dataCachePages());
}

TEST(Ssd, CompactionTriggersOnInterval)
{
    SsdConfig cfg = smallConfig(FtlKind::LeaFTL);
    cfg.compaction_interval = 100;
    Ssd ssd(cfg);
    Tick now = 0;
    for (Lpa l = 0; l < 500; l++)
        now += ssd.write(l % 200, now);
    ssd.drainBuffer(now);
    EXPECT_GT(ssd.stats().compactions, 0u);
}

TEST(Ssd, WearLevelingBoundsEraseSpread)
{
    SsdConfig cfg = smallConfig(FtlKind::LeaFTL);
    cfg.wear_delta_threshold = 8;
    Ssd ssd(cfg);
    const uint64_t ws = ssd.config().hostPages() / 4;
    Rng rng(5);
    Tick now = 0;
    // Skewed updates age a few blocks much faster.
    for (int i = 0; i < static_cast<int>(ws) * 20; i++) {
        const Lpa lpa = static_cast<Lpa>(rng.nextBounded(ws / 4));
        now += ssd.write(lpa, now);
    }
    ssd.drainBuffer(now);
    // The spread can exceed the threshold transiently; it must not be
    // unbounded.
    EXPECT_LT(ssd.blocks().eraseSpread(), 64u);
}

/**
 * A skewed stream for a small device that levels wear at spread 8:
 * the whole host space written once (cold data that fills blocks and
 * stays), then uniform updates over a hot quarter of it, so the
 * blocks that cycle hot data age much faster than the cold ones and
 * GC victims still hold survivors.
 */
std::vector<Lpa>
skewedWearStream(const Ssd &ssd)
{
    const uint64_t host = ssd.config().hostPages();
    std::vector<Lpa> lpas;
    for (uint64_t lpa = 0; lpa < host; lpa++)
        lpas.push_back(static_cast<Lpa>(lpa));
    Rng rng(9);
    for (uint64_t i = 0; i < host * 8; i++)
        lpas.push_back(static_cast<Lpa>(rng.nextBounded(host / 4)));
    return lpas;
}

SsdConfig
wearConfig(FtlKind ftl)
{
    SsdConfig cfg = smallConfig(ftl);
    cfg.wear_delta_threshold = 8;
    return cfg;
}

/**
 * Wear leveling shares GC's migration routine. Pin its counters, the
 * erase spread and every channel's busy-until on a fixed stream, with
 * values taken from the implementation that had a separate per-page
 * wear-migration routine: one routine for both must charge the same.
 */
TEST(Ssd, WearLevelingPinnedOnSkewedStream)
{
    struct Expected
    {
        FtlKind ftl;
        uint64_t wear_migrations, wear_reads, wear_writes, gc_erases;
        uint32_t erase_spread;
        std::vector<Tick> busy_until;
    };
    const Expected cases[] = {
        {FtlKind::LeaFTL, 11, 352, 352, 2422, 50,
         {5847616000, 5664412000, 3658204000, 5162312000}},
        {FtlKind::DFTL, 11, 352, 352, 2422, 50,
         {6706172000, 6727552000, 6663592000, 6685092000}},
    };
    for (const Expected &want : cases) {
        SCOPED_TRACE(static_cast<int>(want.ftl));
        Ssd ssd(wearConfig(want.ftl));
        Tick now = 0;
        for (const Lpa lpa : skewedWearStream(ssd))
            now += ssd.write(lpa, now);
        ssd.drainBuffer(now);
        const SsdStats &st = ssd.stats();
        EXPECT_EQ(st.wear_migrations, want.wear_migrations);
        EXPECT_EQ(st.wear_reads, want.wear_reads);
        EXPECT_EQ(st.wear_writes, want.wear_writes);
        EXPECT_EQ(st.gc_erases, want.gc_erases);
        EXPECT_EQ(ssd.blocks().eraseSpread(), want.erase_spread);
        ASSERT_EQ(ssd.channels().numChannels(), want.busy_until.size());
        for (uint32_t ch = 0; ch < want.busy_until.size(); ch++)
            EXPECT_EQ(ssd.channels().busyUntil(ch), want.busy_until[ch])
                << "channel " << ch;
    }
}

/**
 * GcAfterProgram is a GC crash site only. Take the first write whose
 * flush runs a wear migration that moves data, and arm the site with
 * countdown c = 1, 2, ... before it: each crash that fires must come
 * from a GC pass (maybeGc runs before maybeWearLevel, so the wear
 * count is still unchanged), and once c passes the GC hits the write
 * completes, migration done, with the crash still armed.
 */
TEST(Ssd, GcCrashSiteNeverFiresInWearMigration)
{
    const SsdConfig cfg = wearConfig(FtlKind::LeaFTL);
    std::vector<Lpa> lpas;
    size_t k = 0;
    {
        Ssd ssd(cfg);
        lpas = skewedWearStream(ssd);
        Tick now = 0;
        for (; k < lpas.size(); k++) {
            const uint64_t moved = ssd.stats().wear_writes;
            now += ssd.write(lpas[k], now);
            if (ssd.stats().wear_writes > moved)
                break;
        }
        ASSERT_LT(k, lpas.size()) << "no wear migration moved data";
    }
    for (uint64_t c = 1;; c++) {
        ASSERT_LE(c, 64u) << "the site keeps firing";
        Ssd ssd(cfg);
        Tick now = 0;
        for (size_t i = 0; i < k; i++)
            now += ssd.write(lpas[i], now);
        const SsdStats before = ssd.stats();
        ssd.armCrash(CrashSite::GcAfterProgram, c);
        try {
            ssd.write(lpas[k], now);
        } catch (const CrashException &e) {
            EXPECT_EQ(e.site, CrashSite::GcAfterProgram);
            EXPECT_EQ(ssd.stats().wear_migrations, before.wear_migrations);
            EXPECT_GT(ssd.stats().gc_runs, before.gc_runs);
            continue;
        }
        EXPECT_TRUE(ssd.crashArmed());
        EXPECT_GT(ssd.stats().wear_writes, before.wear_writes);
        break;
    }
}

TEST(Ssd, UnsortedFlushAblationStaysCorrect)
{
    // Fig. 7 ablation: disabling flush sorting must inflate the
    // learned table but never lose data.
    SsdConfig sorted_cfg = smallConfig(FtlKind::LeaFTL);
    SsdConfig fifo_cfg = sorted_cfg;
    fifo_cfg.sort_flush = false;
    Ssd sorted(sorted_cfg);
    Ssd fifo(fifo_cfg);

    Rng rng(77);
    std::set<Lpa> written;
    Tick now = 0;
    // Locally-shuffled sequential stream (Fig. 7's scenario).
    for (int base = 0; base < 2000; base += 8) {
        for (int j = 0; j < 8; j++) {
            const Lpa lpa =
                static_cast<Lpa>(base + (j * 5 + 3) % 8);
            written.insert(lpa);
            now += sorted.write(lpa, now);
            fifo.write(lpa, now);
        }
    }
    sorted.drainBuffer(now);
    fifo.drainBuffer(now);

    EXPECT_LT(sorted.ftl().fullMappingBytes(),
              fifo.ftl().fullMappingBytes());
    for (Lpa lpa : written) {
        ASSERT_TRUE(sorted.oraclePpa(lpa).has_value()) << lpa;
        ASSERT_TRUE(fifo.oraclePpa(lpa).has_value()) << lpa;
        now += fifo.read(lpa, now);
    }
}

TEST(SsdDeath, ReadBeyondCapacityAborts)
{
    Ssd ssd(smallConfig(FtlKind::LeaFTL));
    EXPECT_DEATH(ssd.read(ssd.config().hostPages(), 0), "capacity");
}

} // namespace
} // namespace leaftl
