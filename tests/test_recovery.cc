/**
 * @file
 * Crash-consistency tests (§3.8): persist the mapping table, crash,
 * recover from the snapshot plus an OOB scan of since-allocated
 * blocks, and verify every mapping survives. Also checks that
 * drainBuffer is a full buffer flush: compaction counting, crash
 * points and the journal-threshold snapshot all apply to it.
 */

#include <gtest/gtest.h>

#include <set>

#include "ssd/ssd.hh"
#include "util/rng.hh"

namespace leaftl
{
namespace
{

SsdConfig
smallConfig(uint32_t gamma = 0)
{
    SsdConfig cfg;
    cfg.geometry.num_channels = 4;
    cfg.geometry.blocks_per_channel = 32;
    cfg.geometry.pages_per_block = 32;
    cfg.ftl = FtlKind::LeaFTL;
    cfg.gamma = gamma;
    cfg.dram_bytes = 2ull << 20;
    cfg.write_buffer_bytes = 32ull * 4096;
    return cfg;
}

void
verifyAll(Ssd &ssd, const std::set<Lpa> &written)
{
    Tick now = 0;
    for (Lpa lpa : written) {
        const auto oracle = ssd.oraclePpa(lpa);
        ASSERT_TRUE(oracle.has_value()) << "recovery lost LPA " << lpa;
        EXPECT_EQ(ssd.flash().peekLpa(*oracle), lpa);
        now += ssd.read(lpa, now); // Internal asserts check content.
    }
}

TEST(Recovery, SnapshotOnlyRecovery)
{
    Ssd ssd(smallConfig());
    std::set<Lpa> written;
    Tick now = 0;
    for (Lpa l = 0; l < 300; l++) {
        written.insert(l);
        now += ssd.write(l, now);
    }
    ssd.drainBuffer(now);
    ssd.persistMapping(now);
    EXPECT_GT(ssd.stats().trans_writes, 0u);

    const auto rec = ssd.crashAndRecover(now);
    EXPECT_EQ(rec.scanned_blocks, 0u); // Nothing allocated since.
    verifyAll(ssd, written);
}

TEST(Recovery, OobScanRelearnsRecentBlocks)
{
    Ssd ssd(smallConfig());
    std::set<Lpa> written;
    Tick now = 0;
    for (Lpa l = 0; l < 200; l++) {
        written.insert(l);
        now += ssd.write(l, now);
    }
    ssd.drainBuffer(now);
    ssd.persistMapping(now);

    // More writes after the snapshot, including overwrites.
    for (Lpa l = 150; l < 400; l++) {
        written.insert(l);
        now += ssd.write(l, now);
    }
    ssd.drainBuffer(now);

    const auto rec = ssd.crashAndRecover(now);
    EXPECT_GT(rec.scanned_blocks, 0u);
    EXPECT_GT(rec.relearned_mappings, 0u);
    EXPECT_GT(rec.recovery_time, 0u);
    verifyAll(ssd, written);
}

TEST(Recovery, UnsnapshottedDeviceRecoversFromScanAlone)
{
    Ssd ssd(smallConfig());
    std::set<Lpa> written;
    Tick now = 0;
    for (Lpa l = 0; l < 250; l++) {
        written.insert(l);
        now += ssd.write(l, now);
    }
    ssd.drainBuffer(now);

    const auto rec = ssd.crashAndRecover(now);
    EXPECT_GT(rec.scanned_blocks, 0u);
    verifyAll(ssd, written);
}

TEST(Recovery, SurvivesGcBetweenSnapshotAndCrash)
{
    Ssd ssd(smallConfig());
    const uint64_t ws = ssd.config().hostPages() / 2;
    Rng rng(3);
    std::set<Lpa> written;
    Tick now = 0;
    for (int i = 0; i < static_cast<int>(ws) * 2; i++) {
        const Lpa lpa = static_cast<Lpa>(rng.nextBounded(ws));
        written.insert(lpa);
        now += ssd.write(lpa, now);
    }
    ssd.drainBuffer(now);
    ssd.persistMapping(now);

    for (int i = 0; i < static_cast<int>(ws) * 3; i++) {
        const Lpa lpa = static_cast<Lpa>(rng.nextBounded(ws));
        written.insert(lpa);
        now += ssd.write(lpa, now);
    }
    ssd.drainBuffer(now);
    EXPECT_GT(ssd.stats().gc_runs, 0u);

    ssd.crashAndRecover(now);
    verifyAll(ssd, written);
}

TEST(Recovery, ApproximateSegmentsSurviveRecovery)
{
    Ssd ssd(smallConfig(/*gamma=*/4));
    Rng rng(17);
    std::set<Lpa> written;
    Tick now = 0;
    Lpa lpa = 0;
    for (int i = 0; i < 600; i++) {
        lpa = (lpa + 1 + rng.nextBounded(5)) % 2000;
        written.insert(lpa);
        now += ssd.write(lpa, now);
    }
    ssd.drainBuffer(now);
    ssd.persistMapping(now);
    ssd.crashAndRecover(now);
    verifyAll(ssd, written);
}

TEST(Recovery, DoubleCrashStaysConsistent)
{
    Ssd ssd(smallConfig());
    std::set<Lpa> written;
    Tick now = 0;
    for (Lpa l = 0; l < 150; l++) {
        written.insert(l);
        now += ssd.write(l, now);
    }
    ssd.drainBuffer(now);
    ssd.persistMapping(now);
    ssd.crashAndRecover(now);
    // More writes, crash again WITHOUT an explicit snapshot: recovery
    // must rebuild from the first recovery's checkpoint plus a scan
    // of the blocks written since.
    for (Lpa l = 100; l < 250; l++) {
        written.insert(l);
        now += ssd.write(l, now);
    }
    ssd.drainBuffer(now);
    ssd.crashAndRecover(now);
    verifyAll(ssd, written);
}

TEST(Recovery, JournalOffRecoveryChargesLoadAndCheckpoints)
{
    // With no journal the recovery runs the same body: the snapshot
    // load is charged and the recovered state is checkpointed, so an
    // immediate second crash has nothing left to scan.
    Ssd ssd(smallConfig());
    std::set<Lpa> written;
    Tick now = 0;
    for (Lpa l = 0; l < 300; l++) {
        written.insert(l);
        now += ssd.write(l, now);
    }
    ssd.drainBuffer(now);
    ssd.persistMapping(now);
    const auto loaded = ssd.crashAndRecover(now);
    EXPECT_EQ(loaded.scanned_blocks, 0u);
    EXPECT_GT(loaded.recovery_time, 0u); // Snapshot-area reads.

    for (Lpa l = 100; l < 400; l++) {
        written.insert(l);
        now += ssd.write(l, now);
    }
    ssd.drainBuffer(now);
    const auto scanned = ssd.crashAndRecover(now);
    EXPECT_GT(scanned.scanned_blocks, 0u);

    const auto again = ssd.crashAndRecover(now);
    EXPECT_EQ(again.scanned_blocks, 0u); // Checkpointed.
    verifyAll(ssd, written);
}

TEST(Recovery, PersistAfterRecoveryShrinksNextScan)
{
    Ssd ssd(smallConfig());
    Tick now = 0;
    for (Lpa l = 0; l < 200; l++)
        now += ssd.write(l, now);
    ssd.drainBuffer(now);
    ssd.crashAndRecover(now); // Full scan (never persisted).
    ssd.persistMapping(now);
    const auto rec = ssd.crashAndRecover(now); // Fresh snapshot.
    EXPECT_EQ(rec.scanned_blocks, 0u);
    ASSERT_TRUE(ssd.oraclePpa(100).has_value());
}

TEST(Recovery, JournalReplayBoundsTheScan)
{
    // The journaled pipeline's recovery contract: replay covers every
    // journaled flush, so the OOB scan touches only the unjournaled
    // tail — never O(device fullness).
    SsdConfig cfg = smallConfig();
    cfg.journal_threshold_bytes = 4096;
    Ssd ssd(cfg);
    std::set<Lpa> written;
    Tick now = 0;
    for (Lpa l = 0; l < 400; l++) {
        written.insert(l);
        now += ssd.write(l, now);
    }
    ssd.drainBuffer(now);

    const auto rec = ssd.crashAndRecover(now);
    EXPECT_GT(rec.replayed_journal_records, 0u);
    EXPECT_LE(rec.scanned_blocks, ssd.recoveryScanBoundBlocks());
    verifyAll(ssd, written);
}

TEST(Recovery, ScanBoundIndependentOfDeviceFullness)
{
    // The SLO: the same scan bound holds on a quarter-full and a
    // three-quarters-full device — recovery work tracks the journal
    // threshold, not capacity.
    uint64_t scanned[2] = {0, 0};
    const double fills[2] = {0.25, 0.75};
    for (int i = 0; i < 2; i++) {
        // A device large enough that the scan bound is far below the
        // block count — otherwise the SLO would hold vacuously.
        SsdConfig cfg = smallConfig();
        cfg.geometry.num_channels = 8;
        cfg.geometry.blocks_per_channel = 64;
        cfg.journal_threshold_bytes = 4096;
        Ssd ssd(cfg);
        ASSERT_LT(ssd.recoveryScanBoundBlocks(),
                  cfg.geometry.totalBlocks() / 2);
        const auto fill =
            static_cast<Lpa>(static_cast<double>(ssd.config().hostPages()) *
                             fills[i]);
        std::set<Lpa> written;
        Tick now = 0;
        for (Lpa l = 0; l < fill; l++) {
            written.insert(l);
            now += ssd.write(l, now);
        }
        ssd.drainBuffer(now);
        const auto rec = ssd.crashAndRecover(now);
        scanned[i] = rec.scanned_blocks;
        EXPECT_LE(rec.scanned_blocks, ssd.recoveryScanBoundBlocks());
        verifyAll(ssd, written);
    }
    // Three times the data must not mean three times the scan.
    EXPECT_LE(scanned[1], scanned[0] + 8);
}

TEST(Recovery, DeltaChainRecoversAcrossSnapshots)
{
    // Incremental persistence: the second snapshot emits a delta
    // chained to the first, and recovery replays base + delta.
    SsdConfig cfg = smallConfig();
    cfg.journal_threshold_bytes = 1ull << 20; // Persist only on demand.
    Ssd ssd(cfg);
    std::set<Lpa> written;
    Tick now = 0;
    for (Lpa l = 0; l < 300; l++) {
        written.insert(l);
        now += ssd.write(l, now);
    }
    ssd.drainBuffer(now);
    ssd.persistMapping(now); // Full base snapshot.
    for (Lpa l = 300; l < 380; l++) {
        written.insert(l);
        now += ssd.write(l, now);
    }
    ssd.drainBuffer(now);
    ssd.persistMapping(now); // Dirty groups only.
    EXPECT_GE(ssd.deltaChainLength(), 1u);

    const auto rec = ssd.crashAndRecover(now);
    EXPECT_GT(rec.applied_deltas, 0u);
    EXPECT_EQ(rec.replayed_journal_records, 0u); // Persist clears it.
    EXPECT_EQ(rec.scanned_blocks, 0u);
    verifyAll(ssd, written);
}

TEST(Recovery, BaselineFtlsNoOp)
{
    SsdConfig cfg = smallConfig();
    cfg.ftl = FtlKind::DFTL;
    Ssd ssd(cfg);
    Tick now = 0;
    for (Lpa l = 0; l < 100; l++)
        now += ssd.write(l, now);
    ssd.drainBuffer(now);
    ssd.persistMapping(now);
    const auto rec = ssd.crashAndRecover(now);
    EXPECT_EQ(rec.scanned_blocks, 0u);
    // DFTL's translation pages persist by construction: still readable.
    now += ssd.read(50, now);
}

/** Write-buffer capacity of @a cfg in pages. */
Lpa
bufferPages(const SsdConfig &cfg)
{
    return static_cast<Lpa>(cfg.write_buffer_bytes / cfg.geometry.page_size);
}

TEST(DrainBuffer, DrainedPagesCountTowardCompaction)
{
    // An interval of 1.5 buffers: the one full-buffer flush stays
    // under it, and only the drained half buffer crosses it (§3.7).
    SsdConfig cfg = smallConfig();
    cfg.compaction_interval = bufferPages(cfg) * 3 / 2;
    Ssd ssd(cfg);
    Tick now = 0;
    for (Lpa l = 0; l < cfg.compaction_interval; l++)
        now += ssd.write(l, now);
    EXPECT_EQ(ssd.stats().compactions, 0u);
    ssd.drainBuffer(now);
    EXPECT_EQ(ssd.stats().compactions, 1u);
}

TEST(DrainBuffer, FlushCrashPointFiresInsideTheDrain)
{
    Ssd ssd(smallConfig());
    std::set<Lpa> written;
    Tick now = 0;
    for (Lpa l = 0; l < 10; l++) {
        written.insert(l);
        now += ssd.write(l, now);
    }
    ssd.armCrash(CrashSite::FlushAfterProgram, 1);
    try {
        ssd.drainBuffer(now);
        ADD_FAILURE() << "the drain passed an armed flush crash point";
    } catch (const CrashException &e) {
        EXPECT_EQ(e.site, CrashSite::FlushAfterProgram);
    }
    ssd.crashAndRecover(now); // The scan relearns the drained block.
    verifyAll(ssd, written);
}

TEST(DrainBuffer, DrainPastTheJournalThresholdSnapshots)
{
    // Measure one full-buffer flush's journal record on a device whose
    // threshold is never reached, then set the threshold one byte above
    // it: the flush stays under, and the drain's record crosses it.
    SsdConfig cfg = smallConfig();
    cfg.journal_threshold_bytes = 1ull << 30;
    uint64_t flush_record = 0;
    {
        Ssd probe(cfg);
        Tick now = 0;
        for (Lpa l = 0; l < bufferPages(cfg); l++)
            now += probe.write(l, now);
        flush_record = probe.journalBytes();
    }
    ASSERT_GT(flush_record, 0u);
    cfg.journal_threshold_bytes = flush_record + 1;

    Ssd ssd(cfg);
    std::set<Lpa> written;
    Tick now = 0;
    for (Lpa l = 0; l < bufferPages(cfg) + 8; l++) {
        written.insert(l);
        now += ssd.write(l, now);
    }
    EXPECT_EQ(ssd.journalBytes(), flush_record);
    ssd.drainBuffer(now);
    EXPECT_EQ(ssd.journalBytes(), 0u);
    EXPECT_GT(ssd.snapshotBytes(), 0u);

    const auto rec = ssd.crashAndRecover(now);
    EXPECT_EQ(rec.replayed_journal_records, 0u);
    EXPECT_EQ(rec.scanned_blocks, 0u); // The snapshot covers the drain.
    verifyAll(ssd, written);
}

} // namespace
} // namespace leaftl
