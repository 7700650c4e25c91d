/**
 * @file
 * Recovery-time study (§5 "Recovery of Learned Index Segments"): the
 * paper reboots its prototype after 0.5-3 h of TPCC and measures
 * ~15.8 min average recovery, dominated by the channel-parallel flash
 * scan (~70 MB/s per channel); reconstructing the recently learned
 * segments takes only ~101 ms. All curves run the one durability
 * pipeline (charged snapshot load, journal replay, OOB scan of the
 * unjournaled blocks, checkpoint); "journal off" is journal threshold
 * 0, so recovery scans every block written since the last snapshot.
 * This bench reports three curves:
 *
 *   1. journal-off recovery cost vs snapshot age (how much work ran
 *      after the last mapping-table snapshot),
 *   2. recovery cost vs device fullness with the journal off against
 *      a 64 KiB journal (whose scan is bounded by the journal
 *      threshold, not capacity), and
 *   3. recovery cost vs snapshot cadence (the journal threshold),
 *      including the flash writes the durability pipeline itself
 *      costs.
 */

#include "bench_common.hh"

using namespace leaftl;

namespace
{

/** Writes @a post_writes TPCC write pages after the warm-up. */
uint64_t
runPostSnapshotPhase(Ssd &ssd, const bench::BenchScale &scale,
                     uint64_t post_writes, Tick &now)
{
    auto wl = bench::makeNamedWorkload("TPCC", scale);
    IoRequest req;
    uint64_t writes = 0;
    while (writes < post_writes && wl->next(req)) {
        if (req.op != Op::Write)
            continue;
        for (uint32_t i = 0; i < req.npages; i++) {
            now += ssd.write(
                (req.lpa + i) %
                    static_cast<Lpa>(scale.working_set_pages),
                now);
            writes++;
        }
    }
    ssd.drainBuffer(now);
    return writes;
}

} // namespace

int
main(int argc, char **argv)
{
    const auto scale = bench::parseScale(argc, argv);
    bench::banner("Recovery", "crash-recovery cost vs snapshot age, "
                              "fullness, and cadence");

    std::printf("\n-- Journal off: recovery vs snapshot age --\n");
    TextTable age({"Writes since snapshot", "Scanned blocks",
                   "Scanned pages", "Relearned mappings",
                   "Recovery time (ms)"});
    for (double frac : {0.05, 0.25, 0.5, 1.0}) {
        SsdConfig cfg = bench::benchConfig(FtlKind::LeaFTL, scale);
        Ssd ssd(cfg);

        // Warm up, snapshot, then run the post-snapshot phase.
        Runner::prefillMixed(ssd, scale.working_set_pages);
        Tick now = 0;
        ssd.persistMapping(now);
        const uint64_t writes = runPostSnapshotPhase(
            ssd, scale,
            static_cast<uint64_t>(scale.requests * frac), now);

        const RecoveryStats rec = ssd.crashAndRecover(now);
        age.addRow({std::to_string(writes),
                    std::to_string(rec.scanned_blocks),
                    std::to_string(rec.scanned_pages),
                    std::to_string(rec.relearned_mappings),
                    TextTable::fmt(rec.recovery_time / 1.0e6, 1)});
    }
    age.print();

    std::printf("\n-- Recovery vs device fullness (journal off vs "
                "64 KiB journal) --\n");
    TextTable fullness({"Fullness", "Mode", "Scanned blocks",
                        "Journal records", "Recovery time (ms)"});
    for (double fill : {0.25, 0.5, 0.75}) {
        for (const bool journaled : {false, true}) {
            SsdConfig cfg = bench::benchConfig(FtlKind::LeaFTL, scale);
            if (journaled)
                cfg.journal_threshold_bytes = 64ull << 10;
            Ssd ssd(cfg);
            const auto pages = static_cast<uint64_t>(
                static_cast<double>(scale.working_set_pages) * fill);
            Runner::prefillMixed(ssd, pages);
            Tick now = 0;
            // Neither run gets a parting snapshot: journal off must
            // scan the whole device, the journaled run replays its
            // bounded journal and scans only the unjournaled tail.
            const RecoveryStats rec = ssd.crashAndRecover(now);
            fullness.addRow(
                {TextTable::fmt(fill, 2),
                 journaled ? "journal" : "journal off",
                 std::to_string(rec.scanned_blocks),
                 std::to_string(rec.replayed_journal_records),
                 TextTable::fmt(rec.recovery_time / 1.0e6, 1)});
        }
    }
    fullness.print();

    std::printf("\n-- Recovery vs snapshot cadence (journal "
                "threshold, KiB) --\n");
    TextTable cadence({"Threshold (KiB)", "Delta chain",
                       "Scanned blocks", "Journal records",
                       "Trans writes", "Recovery time (ms)"});
    for (const uint64_t threshold_kib : {16, 64, 256, 1024}) {
        SsdConfig cfg = bench::benchConfig(FtlKind::LeaFTL, scale);
        cfg.journal_threshold_bytes = threshold_kib << 10;
        Ssd ssd(cfg);
        Runner::prefillMixed(ssd, scale.working_set_pages);
        Tick now = 0;
        runPostSnapshotPhase(ssd, scale, scale.requests / 2, now);

        const uint64_t chain = ssd.deltaChainLength();
        const RecoveryStats rec = ssd.crashAndRecover(now);
        cadence.addRow({std::to_string(threshold_kib),
                        std::to_string(chain),
                        std::to_string(rec.scanned_blocks),
                        std::to_string(rec.replayed_journal_records),
                        std::to_string(ssd.stats().trans_writes),
                        TextTable::fmt(rec.recovery_time / 1.0e6, 1)});
    }
    cadence.print();

    std::printf("\nPaper: recovery is dominated by the channel-parallel "
                "scan of blocks written since the snapshot; segment "
                "reconstruction itself is ~100 ms. A learn journal "
                "bounds that scan by the journal threshold "
                "instead of the device fullness, trading a small, "
                "tunable flash-write overhead for an O(1) restart.\n");
    return 0;
}
