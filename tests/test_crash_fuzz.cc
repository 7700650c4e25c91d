/**
 * @file
 * The crash-point fuzzer: kill the device at randomized points in its
 * background machinery (mid-flush, mid-GC, mid-snapshot, torn journal
 * appends), recover, and assert every lookup matches a shadow map --
 * with a learn journal and without one (journal threshold 0). Also
 * fuzzes the hardened deserializers (LearnedTable blobs, snapshot
 * deltas, journal records) with truncated and bit-flipped inputs: a
 * corrupt image must produce a typed error or a clean stop, never UB.
 *
 * CI runs the whole binary under several seed bases via
 * LEAFTL_CRASH_FUZZ_SEED_BASE (plain and ASan/UBSan builds).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>

#include "learned/learned_table.hh"
#include "ssd/journal.hh"
#include "ssd/ssd.hh"
#include "util/rng.hh"

namespace leaftl
{
namespace
{

/** CI seed matrix: offsets every fuzz seed without a rebuild. */
uint64_t
seedBase()
{
    const char *env = std::getenv("LEAFTL_CRASH_FUZZ_SEED_BASE");
    return env ? std::strtoull(env, nullptr, 10) : 0;
}

SsdConfig
fuzzConfig(uint32_t gamma, uint64_t journal_threshold)
{
    SsdConfig cfg;
    cfg.geometry.num_channels = 4;
    cfg.geometry.blocks_per_channel = 32;
    cfg.geometry.pages_per_block = 32;
    cfg.ftl = FtlKind::LeaFTL;
    cfg.gamma = gamma;
    cfg.dram_bytes = 2ull << 20;
    cfg.write_buffer_bytes = 32ull * 4096;
    cfg.journal_threshold_bytes = journal_threshold;
    return cfg;
}

/**
 * Journal bytes that can accumulate past the threshold before the
 * next auto-persist check (checks run at flush end and after each
 * journaled trim): one flush batch plus the GC learns that flush can
 * trigger. O(write buffer + GC pass), independent of device capacity.
 */
uint64_t
journalSlackBytes(const SsdConfig &cfg)
{
    const uint64_t buffer_pages =
        cfg.write_buffer_bytes / cfg.geometry.page_size;
    const uint64_t gc_batch =
        Ssd::kMaxGcVictims * cfg.geometry.pages_per_block;
    const uint64_t rec = MappingJournal::kHeaderBytes;
    return (buffer_pages * 8 + rec) + 8 * (gc_batch * 8 + rec);
}

/**
 * Post-recovery ground truth: every acknowledged write is readable at
 * a valid flash page carrying its LPA; every trimmed LPA never serves
 * stale data (its backing page was durably invalidated, so the oracle
 * finds nothing even when a lost trim record left the mapping stale).
 */
void
verifyShadow(Ssd &ssd, const std::map<Lpa, bool> &shadow)
{
    for (const auto &[lpa, live] : shadow) {
        const auto ppa = ssd.oraclePpa(lpa);
        if (live) {
            ASSERT_TRUE(ppa.has_value()) << "recovery lost LPA " << lpa;
            ASSERT_EQ(ssd.flash().peekLpa(*ppa), lpa) << lpa;
        } else {
            ASSERT_FALSE(ppa.has_value())
                << "trimmed LPA " << lpa << " serves stale data";
        }
    }
}

/**
 * Fuzz one device: run a random write/trim/read/persist workload with
 * a crash armed at a random site, recover on every injected crash,
 * and verify the shadow map each time. Returns the crash count.
 */
int
fuzzDevice(uint64_t seed, uint32_t gamma, uint64_t journal_threshold,
           const std::vector<CrashSite> &sites, int target_crashes)
{
    Rng rng(seed);
    Ssd ssd(fuzzConfig(gamma, journal_threshold));
    const uint64_t ws = ssd.config().hostPages() / 2;
    std::map<Lpa, bool> shadow;
    Tick now = 0;
    int crashes = 0;

    for (int round = 0; crashes < target_crashes &&
                        round < target_crashes * 20;
         round++) {
        const CrashSite site =
            sites[rng.nextBounded(sites.size())];
        ssd.armCrash(site, 1 + rng.nextBounded(4),
                     static_cast<uint32_t>(rng.nextBounded(100)));
        bool crashed = false;
        try {
            for (int op = 0; op < 300; op++) {
                const uint64_t kind = rng.nextBounded(100);
                const Lpa lpa = static_cast<Lpa>(rng.nextBounded(ws));
                if (kind < 70) {
                    // The buffer is battery-backed: an admitted write
                    // is durable, so the shadow updates first.
                    shadow[lpa] = true;
                    now += ssd.write(lpa, now);
                } else if (kind < 80) {
                    shadow[lpa] = false;
                    now += ssd.trim(lpa, now);
                } else if (kind < 96) {
                    now += ssd.read(lpa, now);
                } else if (kind < 98) {
                    ssd.drainBuffer(now);
                } else {
                    ssd.drainBuffer(now);
                    ssd.persistMapping(now);
                }
            }
        } catch (const CrashException &) {
            crashed = true;
        }
        if (!crashed) {
            // The armed site never fired this round (e.g. no GC ran);
            // re-arm a fresh one next round.
            ssd.disarmCrash();
            continue;
        }
        crashes++;
        const RecoveryStats rec = ssd.crashAndRecover(now);
        if (journal_threshold > 0) {
            // The recovery SLO: scan volume is O(write buffer + one
            // GC pass), never O(device fullness); replay volume is
            // bounded by the journal threshold.
            EXPECT_LE(rec.scanned_blocks, ssd.recoveryScanBoundBlocks());
            EXPECT_LE(rec.replayed_journal_bytes,
                      journal_threshold +
                          journalSlackBytes(ssd.config()));
        }
        verifyShadow(ssd, shadow);
        if (::testing::Test::HasFailure()) {
            // Stop at the first failing recovery with its reproducer.
            ADD_FAILURE() << "first failure: seed=" << seed
                          << " round=" << round << " site="
                          << static_cast<int>(site)
                          << " crashes=" << crashes
                          << " scanned_blocks=" << rec.scanned_blocks
                          << " replayed=" << rec.replayed_journal_records
                          << " deltas=" << rec.applied_deltas;
            return crashes;
        }
        if (rng.nextBounded(8) == 0) {
            // Double crash: recover again immediately from the same
            // durable state and re-verify. The first recovery ended
            // with a checkpoint, so there is nothing left to scan.
            const RecoveryStats again = ssd.crashAndRecover(now);
            EXPECT_EQ(again.scanned_blocks, 0u)
                << "seed=" << seed << " round=" << round;
            verifyShadow(ssd, shadow);
        }
    }
    EXPECT_GE(crashes, target_crashes);
    return crashes;
}

const std::vector<CrashSite> kAllSites = {
    CrashSite::FlushAfterProgram,  CrashSite::FlushAfterJournal,
    CrashSite::GcAfterProgram,     CrashSite::GcAfterErase,
    CrashSite::SnapshotBeforeCommit, CrashSite::JournalTornAppend,
    CrashSite::Any,
};

/** Torn appends need a journal; threshold 0 appends none. */
const std::vector<CrashSite> kJournalOffSites = {
    CrashSite::FlushAfterProgram, CrashSite::FlushAfterJournal,
    CrashSite::GcAfterProgram,    CrashSite::GcAfterErase,
    CrashSite::SnapshotBeforeCommit, CrashSite::Any,
};

TEST(CrashFuzz, JournaledExactMappingSurvives)
{
    const uint64_t base = seedBase();
    fuzzDevice(base * 31 + 1, /*gamma=*/0, /*journal=*/4096, kAllSites,
               50);
    fuzzDevice(base * 31 + 2, /*gamma=*/0, /*journal=*/4096, kAllSites,
               50);
}

TEST(CrashFuzz, JournaledApproximateMappingSurvives)
{
    const uint64_t base = seedBase();
    fuzzDevice(base * 31 + 3, /*gamma=*/4, /*journal=*/4096, kAllSites,
               50);
    fuzzDevice(base * 31 + 4, /*gamma=*/4, /*journal=*/8192, kAllSites,
               50);
}

TEST(CrashFuzz, JournalOffPipelineSurvives)
{
    // journal-threshold 0: snapshots only on explicit persists and
    // after recovery, and recovery scans every block since the last
    // one. It must be equally crash-safe (no scan SLO there).
    const uint64_t base = seedBase();
    fuzzDevice(base * 31 + 5, /*gamma=*/4, /*journal=*/0,
               kJournalOffSites, 50);
}

/** A learned table with a few hundred segments across many groups. */
std::unique_ptr<LearnedTable>
populatedTable(uint32_t gamma, uint64_t seed)
{
    auto table = std::make_unique<LearnedTable>(gamma);
    LearnedTable &t = *table;
    Rng rng(seed);
    Lpa lpa = 0;
    std::vector<std::pair<Lpa, Ppa>> run;
    for (int batch = 0; batch < 40; batch++) {
        run.clear();
        lpa = rng.nextBounded(4000);
        Ppa ppa = static_cast<Ppa>(rng.nextBounded(100000));
        for (int i = 0; i < 64; i++) {
            lpa += 1 + rng.nextBounded(4);
            ppa += 1 + rng.nextBounded(3);
            run.emplace_back(lpa, ppa);
        }
        t.learn(run);
    }
    return table;
}

TEST(BlobFuzz, TruncatedBlobsReturnTypedErrors)
{
    const auto blob = populatedTable(4, seedBase() + 11)->serialize();
    ASSERT_GT(blob.size(), 64u);
    // Every truncation length: a clean typed error, never UB/abort.
    for (size_t len = 0; len < blob.size(); len++) {
        const std::vector<uint8_t> cut(blob.begin(), blob.begin() + len);
        BlobError err = BlobError::None;
        const auto table = LearnedTable::tryDeserialize(cut, &err);
        EXPECT_EQ(table, nullptr) << "truncation at " << len;
        EXPECT_NE(err, BlobError::None) << len;
    }
}

TEST(BlobFuzz, BitFlippedBlobsNeverCrashTheParser)
{
    const auto blob = populatedTable(4, seedBase() + 13)->serialize();
    Rng rng(seedBase() * 7 + 17);
    int rejected = 0;
    for (int trial = 0; trial < 400; trial++) {
        std::vector<uint8_t> bad = blob;
        const int flips = 1 + static_cast<int>(rng.nextBounded(8));
        for (int f = 0; f < flips; f++)
            bad[rng.nextBounded(bad.size())] ^=
                static_cast<uint8_t>(1u << rng.nextBounded(8));
        BlobError err = BlobError::None;
        const auto table = LearnedTable::tryDeserialize(bad, &err);
        // A benign flip (e.g. an intercept bit) can still parse; the
        // contract is table-or-typed-error, never UB. A parsed table
        // must survive lookups over the whole LPA space.
        if (!table) {
            EXPECT_NE(err, BlobError::None) << trial;
            rejected++;
        } else {
            for (Lpa lpa = 0; lpa < 4200; lpa += 3)
                (void)table->lookup(lpa);
        }
    }
    EXPECT_GT(rejected, 0); // The fuzzer actually exercised rejection.
}

TEST(BlobFuzz, CorruptDeltasRejectWithoutDamagingLookupSafety)
{
    const auto table = populatedTable(4, seedBase() + 19);
    LearnedTable &t = *table;
    const auto delta = t.serializeDirty();
    ASSERT_GT(delta.size(), 16u);
    Rng rng(seedBase() * 7 + 23);
    for (int trial = 0; trial < 200; trial++) {
        std::vector<uint8_t> bad = delta;
        if (rng.nextBounded(2) == 0) {
            bad.resize(rng.nextBounded(bad.size()));
        } else {
            bad[rng.nextBounded(bad.size())] ^=
                static_cast<uint8_t>(1u << rng.nextBounded(8));
        }
        BlobError err = BlobError::None;
        const bool ok = t.applyDelta(bad, &err);
        if (!ok) {
            EXPECT_NE(err, BlobError::None) << trial;
        }
        // Pass or fail, the table must stay lookup-safe.
        for (Lpa lpa = 0; lpa < 4200; lpa += 7)
            (void)t.lookup(lpa);
    }
    // Undamaged delta still applies after all that abuse.
    EXPECT_TRUE(t.applyDelta(delta, nullptr));
}

/** A journal image with a mix of learn and trim records. */
MappingJournal
populatedJournal(uint64_t seed)
{
    MappingJournal j;
    Rng rng(seed);
    uint64_t seq = 1;
    for (int r = 0; r < 30; r++) {
        if (rng.nextBounded(4) == 0) {
            j.appendTrim(seq++, static_cast<uint32_t>(r),
                         static_cast<Lpa>(rng.nextBounded(4000)));
        } else {
            std::vector<std::pair<Lpa, Ppa>> run;
            Lpa lpa = static_cast<Lpa>(rng.nextBounded(1000));
            for (int i = 0; i < 16; i++) {
                lpa += 1 + static_cast<Lpa>(rng.nextBounded(5));
                run.emplace_back(lpa,
                                 static_cast<Ppa>(rng.nextBounded(4096)));
            }
            j.appendLearn(seq++, static_cast<uint32_t>(r), run);
        }
    }
    return j;
}

TEST(JournalFuzz, BitFlipsStopTheReaderCleanly)
{
    const MappingJournal j = populatedJournal(seedBase() + 29);
    Rng rng(seedBase() * 7 + 31);
    for (int trial = 0; trial < 300; trial++) {
        std::vector<uint8_t> bad = j.log();
        const size_t at = rng.nextBounded(bad.size());
        bad[at] ^= static_cast<uint8_t>(1u << rng.nextBounded(8));
        JournalReader reader(bad);
        JournalRecord rec;
        uint64_t last_seq = 0;
        while (reader.next(rec)) {
            // Validated records decode in order with intact payloads.
            EXPECT_GT(rec.seq, last_seq);
            last_seq = rec.seq;
            if (rec.type == JournalRecord::Type::Learn) {
                for (size_t i = 1; i < rec.mappings.size(); i++)
                    EXPECT_LT(rec.mappings[i - 1].first,
                              rec.mappings[i].first);
            }
        }
        EXPECT_LE(reader.validBytes(), bad.size());
        // A checksum-protected flip is detected: the reader either
        // stops short (corruption flagged) or the flip landed past
        // the last record boundary -- it can never pass through.
        if (reader.validBytes() == bad.size())
            EXPECT_FALSE(reader.sawCorruption());
        else
            EXPECT_LT(reader.validBytes(), bad.size());
    }
}

TEST(JournalFuzz, TornTailTruncatesToLastCompleteRecord)
{
    for (uint32_t keep_pct : {0u, 10u, 50u, 90u, 99u}) {
        MappingJournal j = populatedJournal(seedBase() + 37);
        const size_t before = j.sizeBytes();
        const uint64_t records = j.records();
        std::vector<std::pair<Lpa, Ppa>> run = {{1, 2}, {3, 4}};
        j.appendLearn(100, 30, run);
        j.tearLastRecord(keep_pct);
        EXPECT_LT(j.sizeBytes(), before + MappingJournal::kHeaderBytes +
                                     run.size() * 8);

        JournalReader reader(j.log());
        JournalRecord rec;
        uint64_t seen = 0;
        while (reader.next(rec))
            seen++;
        EXPECT_EQ(seen, records) << keep_pct;
        EXPECT_EQ(reader.validBytes(), before) << keep_pct;
        // keep_pct == 0 tears the whole record away: that is a clean
        // end, not corruption; any partial remainder is corruption.
        EXPECT_EQ(reader.sawCorruption(), keep_pct != 0) << keep_pct;
    }
}

TEST(JournalFuzz, ReplaySequenceNumbersRejectReordering)
{
    // Two journals concatenated out of order: the reader accepts the
    // first and stops at the sequence regression instead of replaying
    // stale mutations on top of newer ones.
    MappingJournal a;
    a.appendTrim(5, 1, 10);
    MappingJournal b;
    b.appendTrim(3, 1, 20);
    std::vector<uint8_t> cat = a.log();
    cat.insert(cat.end(), b.log().begin(), b.log().end());
    JournalReader reader(cat);
    JournalRecord rec;
    ASSERT_TRUE(reader.next(rec));
    EXPECT_EQ(rec.seq, 5u);
    EXPECT_FALSE(reader.next(rec));
    EXPECT_TRUE(reader.sawCorruption());
    EXPECT_EQ(reader.validBytes(), a.log().size());
}

} // namespace
} // namespace leaftl
