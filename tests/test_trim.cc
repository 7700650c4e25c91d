/**
 * @file
 * TRIM/deallocate tests across all three FTLs: trimmed LPAs read as
 * unmapped, their flash pages become GC-reclaimable without
 * migration, rewrites after trim work, and LeaFTL's tombstone
 * segments survive persistence and merging.
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

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
    cfg.ftl = ftl;
    cfg.gamma = gamma;
    cfg.dram_bytes = 2ull << 20;
    cfg.write_buffer_bytes = 32ull * 4096;
    return cfg;
}

class TrimAllFtls : public ::testing::TestWithParam<FtlKind>
{
};

TEST_P(TrimAllFtls, TrimmedReadIsUnmapped)
{
    Ssd ssd(smallConfig(GetParam()));
    Tick now = 0;
    for (Lpa l = 0; l < 100; l++)
        now += ssd.write(l, now);
    ssd.drainBuffer(now);

    now += ssd.trim(50, now);
    EXPECT_EQ(ssd.stats().host_trims, 1u);
    EXPECT_FALSE(ssd.oraclePpa(50).has_value());

    const uint64_t unmapped0 = ssd.stats().unmapped_reads;
    now += ssd.read(50, now);
    EXPECT_EQ(ssd.stats().unmapped_reads, unmapped0 + 1);
    // Neighbors unaffected.
    ASSERT_TRUE(ssd.oraclePpa(49).has_value());
    ASSERT_TRUE(ssd.oraclePpa(51).has_value());
}

TEST_P(TrimAllFtls, TrimInvalidatesFlashPage)
{
    Ssd ssd(smallConfig(GetParam()));
    Tick now = 0;
    for (Lpa l = 0; l < 64; l++)
        now += ssd.write(l, now);
    ssd.drainBuffer(now);

    const auto ppa = ssd.oraclePpa(7);
    ASSERT_TRUE(ppa.has_value());
    EXPECT_TRUE(ssd.blocks().isValid(*ppa));
    now += ssd.trim(7, now);
    EXPECT_FALSE(ssd.blocks().isValid(*ppa));
}

TEST_P(TrimAllFtls, RewriteAfterTrim)
{
    Ssd ssd(smallConfig(GetParam()));
    Tick now = 0;
    for (Lpa l = 0; l < 64; l++)
        now += ssd.write(l, now);
    ssd.drainBuffer(now);
    now += ssd.trim(10, now);
    now += ssd.write(10, now);
    ssd.drainBuffer(now);
    const auto ppa = ssd.oraclePpa(10);
    ASSERT_TRUE(ppa.has_value());
    EXPECT_EQ(ssd.flash().peekLpa(*ppa), 10u);
    now += ssd.read(10, now);
    EXPECT_EQ(ssd.stats().unresolved_reads, 0u);
}

TEST_P(TrimAllFtls, TrimOfBufferedWriteDropsIt)
{
    Ssd ssd(smallConfig(GetParam()));
    Tick now = 0;
    now += ssd.write(5, now); // Stays in the buffer.
    now += ssd.trim(5, now);
    ssd.drainBuffer(now);
    EXPECT_FALSE(ssd.oraclePpa(5).has_value());
    EXPECT_EQ(ssd.stats().data_writes, 0u); // Never hit flash.
}

TEST_P(TrimAllFtls, TrimOfUnmappedIsNoop)
{
    Ssd ssd(smallConfig(GetParam()));
    const Tick lat = ssd.trim(1000, 0);
    EXPECT_EQ(lat, ssd.config().latency.dram_access);
    EXPECT_EQ(ssd.stats().host_trims, 1u);
}

INSTANTIATE_TEST_SUITE_P(Ftls, TrimAllFtls,
                         ::testing::Values(FtlKind::DFTL, FtlKind::SFTL,
                                           FtlKind::LeaFTL),
                         [](const auto &info) {
                             return ftlKindName(info.param);
                         });

TEST(Trim, LeaFtlTombstoneSurvivesMerges)
{
    Ssd ssd(smallConfig(FtlKind::LeaFTL));
    Tick now = 0;
    for (Lpa l = 0; l < 256; l++)
        now += ssd.write(l, now);
    ssd.drainBuffer(now);
    now += ssd.trim(100, now);

    // Overwrite everything around the tombstone; it must keep
    // shadowing the old mapping until LPA 100 is rewritten.
    for (Lpa l = 0; l < 100; l++)
        now += ssd.write(l, now);
    for (Lpa l = 101; l < 256; l++)
        now += ssd.write(l, now);
    ssd.drainBuffer(now);
    EXPECT_FALSE(ssd.oraclePpa(100).has_value());
    for (Lpa l = 98; l < 103; l++) {
        if (l != 100) {
            ASSERT_TRUE(ssd.oraclePpa(l).has_value()) << l;
        }
    }
}

TEST(Trim, LeaFtlTombstoneSurvivesPersistAndRecovery)
{
    Ssd ssd(smallConfig(FtlKind::LeaFTL, /*gamma=*/4));
    Tick now = 0;
    for (Lpa l = 0; l < 200; l++)
        now += ssd.write(l, now);
    ssd.drainBuffer(now);
    now += ssd.trim(42, now);
    ssd.persistMapping(now);
    ssd.crashAndRecover(now);
    EXPECT_FALSE(ssd.oraclePpa(42).has_value());
    now += ssd.read(42, now); // Unmapped, not a crash.
    ASSERT_TRUE(ssd.oraclePpa(43).has_value());
}

TEST(Trim, StaleMappingAfterCrashServedAsUnresolved)
{
    // Trim AFTER the snapshot, then crash: recovery restores the
    // pre-trim mapping, but the PVT (persisted) knows the page is
    // invalid, so the read is served as zeros and counted.
    Ssd ssd(smallConfig(FtlKind::LeaFTL));
    Tick now = 0;
    for (Lpa l = 0; l < 100; l++)
        now += ssd.write(l, now);
    ssd.drainBuffer(now);
    ssd.persistMapping(now);
    now += ssd.trim(10, now);
    ssd.crashAndRecover(now);

    const uint64_t unresolved0 = ssd.stats().unresolved_reads;
    now += ssd.read(10, now);
    EXPECT_EQ(ssd.stats().unresolved_reads, unresolved0 + 1);
}

TEST(Trim, JournaledTrimSurvivesCrashWithoutSnapshot)
{
    // The journaled counterpart of StaleMappingAfterCrashServedAs-
    // Unresolved: a trim in the journal window replays as a tombstone,
    // so the post-recovery read is UNMAPPED — no stale mapping is ever
    // restored, even though no snapshot ran after the trim.
    SsdConfig cfg = smallConfig(FtlKind::LeaFTL);
    cfg.journal_threshold_bytes = 1ull << 20; // No auto-snapshot here.
    Ssd ssd(cfg);
    Tick now = 0;
    for (Lpa l = 0; l < 100; l++)
        now += ssd.write(l, now);
    ssd.drainBuffer(now);
    ssd.persistMapping(now);
    now += ssd.trim(10, now);
    EXPECT_GT(ssd.journalRecords(), 0u);
    ssd.crashAndRecover(now);

    EXPECT_FALSE(ssd.oraclePpa(10).has_value());
    const uint64_t unmapped0 = ssd.stats().unmapped_reads;
    const uint64_t unresolved0 = ssd.stats().unresolved_reads;
    now += ssd.read(10, now);
    EXPECT_EQ(ssd.stats().unmapped_reads, unmapped0 + 1);
    EXPECT_EQ(ssd.stats().unresolved_reads, unresolved0);
    ASSERT_TRUE(ssd.oraclePpa(11).has_value());
}

TEST(Trim, TrimThenRewriteInJournalWindowSurvivesCrash)
{
    // trim -> rewrite -> crash, all inside one journal window: replay
    // applies the tombstone then the relearn, in order, and the
    // rewrite wins.
    SsdConfig cfg = smallConfig(FtlKind::LeaFTL, /*gamma=*/4);
    cfg.journal_threshold_bytes = 1ull << 20;
    Ssd ssd(cfg);
    Tick now = 0;
    for (Lpa l = 0; l < 200; l++)
        now += ssd.write(l, now);
    ssd.drainBuffer(now);
    ssd.persistMapping(now);
    now += ssd.trim(42, now);
    now += ssd.write(42, now);
    ssd.drainBuffer(now);
    ssd.crashAndRecover(now);

    const auto ppa = ssd.oraclePpa(42);
    ASSERT_TRUE(ppa.has_value());
    EXPECT_EQ(ssd.flash().peekLpa(*ppa), 42u);
    now += ssd.read(42, now);
}

TEST(Trim, TrimStormTriggersAutoSnapshot)
{
    // A trim-only window must not grow the journal without bound: the
    // threshold check runs on the trim path too.
    SsdConfig cfg = smallConfig(FtlKind::LeaFTL);
    cfg.journal_threshold_bytes = 256;
    Ssd ssd(cfg);
    Tick now = 0;
    for (Lpa l = 0; l < 256; l++)
        now += ssd.write(l, now);
    ssd.drainBuffer(now);
    ssd.persistMapping(now);
    for (Lpa l = 0; l < 200; l++)
        now += ssd.trim(l, now);
    EXPECT_LT(ssd.journalBytes(),
              cfg.journal_threshold_bytes + 64);
    ssd.crashAndRecover(now);
    for (Lpa l = 0; l < 200; l++)
        EXPECT_FALSE(ssd.oraclePpa(l).has_value()) << l;
    ASSERT_TRUE(ssd.oraclePpa(250).has_value());
}

/**
 * A trim that resolves an approximate mapping through the OOB check
 * counts its translation, like the read and overwrite paths, so the
 * mispredictions it charges never outnumber the translations behind
 * them. LeaFTL at gamma 4: 1,500 LPAs written in 4 rounds with every
 * third skipped (gaps make approximate segments), then every other
 * LPA trimmed. The counters and busy-until times are pinned from the
 * build before trims counted translations: the fix moves no charge.
 */
TEST(Trim, ApproximateTrimCountsItsTranslation)
{
    Ssd ssd(smallConfig(FtlKind::LeaFTL, /*gamma=*/4));
    Tick now = 0;
    for (int round = 0; round < 4; round++) {
        for (Lpa l = 0; l < 1500; l++) {
            if (l % 3 != 2)
                now += ssd.write(l, now);
        }
    }
    ssd.drainBuffer(now);
    const SsdStats before = ssd.stats();
    for (Lpa l = 0; l < 1500; l += 2)
        now += ssd.trim(l, now);

    const SsdStats &st = ssd.stats();
    const uint64_t trim_mispredictions =
        st.mispredictions - before.mispredictions;
    EXPECT_GT(trim_mispredictions, 0u);
    EXPECT_LE(trim_mispredictions, st.translations - before.translations);
    EXPECT_LE(st.mispredictRatio(), 1.0);

    EXPECT_EQ(st.mispredictions, 526u);
    EXPECT_EQ(st.mispredict_extra_reads, 526u);
    EXPECT_EQ(st.data_reads, 526u);
    const std::vector<Tick> busy_until = {340176000, 336816000, 326756000,
                                          328536000};
    ASSERT_EQ(ssd.channels().numChannels(), busy_until.size());
    for (uint32_t ch = 0; ch < busy_until.size(); ch++)
        EXPECT_EQ(ssd.channels().busyUntil(ch), busy_until[ch])
            << "channel " << ch;
}

TEST(Trim, GcReclaimsTrimmedSpaceWithoutMigration)
{
    Ssd ssd(smallConfig(FtlKind::LeaFTL));
    const uint64_t ws = ssd.config().hostPages() / 2;
    Tick now = 0;
    // Fill, then trim half the pages; GC of trimmed blocks should
    // move almost nothing.
    for (uint64_t l = 0; l < ws; l++)
        now += ssd.write(static_cast<Lpa>(l), now);
    ssd.drainBuffer(now);
    for (uint64_t l = 0; l < ws; l += 2)
        now += ssd.trim(static_cast<Lpa>(l), now);

    const uint64_t gc_writes0 = ssd.stats().gc_writes;
    // Write fresh data to force GC over the half-invalid blocks.
    Rng rng(3);
    for (uint64_t i = 0; i < ws * 3; i++) {
        const Lpa lpa = static_cast<Lpa>(1 + 2 * rng.nextBounded(ws / 2));
        now += ssd.write(lpa, now);
    }
    ssd.drainBuffer(now);
    EXPECT_GT(ssd.stats().gc_runs, 0u);
    // GC moved only live pages: migrated writes are bounded well
    // below the trimmed volume.
    EXPECT_LT(ssd.stats().gc_writes - gc_writes0, ws * 4);
    EXPECT_EQ(ssd.stats().unresolved_reads, 0u);
}

} // namespace
} // namespace leaftl
