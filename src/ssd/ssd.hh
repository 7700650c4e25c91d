/**
 * @file
 * The simulated SSD device (§2 Fig. 2, §3.8): write buffer, data
 * cache, FTL, block manager, GC, wear leveling, channel timing, and
 * the DRAM budget split between mapping structures and the data cache.
 *
 * The host-facing API is page-granular read/write with a timestamp;
 * both return the request's service latency. Writes are acknowledged
 * at DRAM speed once buffered; buffer flushes, GC, and wear leveling
 * occupy flash channels in the background and delay later requests
 * that hit the same channels.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "flash/flash_array.hh"
#include "flash/timing.hh"
#include "ftl/ftl.hh"
#include "ssd/block_manager.hh"
#include "ssd/config.hh"
#include "ssd/data_cache.hh"
#include "ssd/journal.hh"
#include "ssd/write_buffer.hh"
#include "util/common.hh"
#include "util/stats.hh"
#include "workload/request.hh"

namespace leaftl
{

/** Device-level statistics. */
struct SsdStats
{
    uint64_t host_reads = 0;
    uint64_t host_writes = 0;

    uint64_t buffer_read_hits = 0;
    uint64_t unmapped_reads = 0;
    uint64_t host_trims = 0;
    /**
     * Reads whose translation could not be resolved to a valid page
     * (stale post-crash mapping of a trimmed LPA); served as zeros.
     * Always zero in trim-free workloads -- the correctness tests
     * assert that.
     */
    uint64_t unresolved_reads = 0;

    uint64_t data_reads = 0;  ///< Flash reads on the host read path.
    uint64_t data_writes = 0; ///< Flash programs from buffer flushes.

    uint64_t gc_runs = 0;
    uint64_t gc_reads = 0;
    uint64_t gc_writes = 0;
    uint64_t gc_erases = 0;
    uint64_t wear_migrations = 0;

    uint64_t trans_reads = 0;
    uint64_t trans_writes = 0;

    uint64_t mispredictions = 0;
    uint64_t mispredict_extra_reads = 0;
    uint64_t translations = 0; ///< FTL translations that found a mapping.

    uint64_t compactions = 0;

    LatencyHistogram read_latency{100.0, 1.05, 400};
    LatencyHistogram write_latency{100.0, 1.05, 400};

    /** Write amplification factor (Fig. 25). */
    double
    waf() const
    {
        const uint64_t actual = data_writes + gc_writes + trans_writes +
                                wear_migration_writes();
        return host_writes ? static_cast<double>(actual) / host_writes : 0.0;
    }

    uint64_t wear_migration_writes() const { return wear_writes; }
    uint64_t wear_writes = 0;
    uint64_t wear_reads = 0;

    /** Misprediction ratio over mapped translations (Fig. 24). */
    double
    mispredictRatio() const
    {
        return translations
                   ? static_cast<double>(mispredictions) / translations
                   : 0.0;
    }
};

/** Recovery statistics (§5, recovery discussion). */
struct RecoveryStats
{
    uint64_t scanned_blocks = 0;
    uint64_t scanned_pages = 0;
    uint64_t relearned_mappings = 0;
    /** Delta records applied on top of the full snapshot. */
    uint64_t applied_deltas = 0;
    /** Journal records replayed (learn batches + trims). */
    uint64_t replayed_journal_records = 0;
    /** Journal bytes that validated and replayed (torn tail excluded). */
    uint64_t replayed_journal_bytes = 0;
    Tick recovery_time = 0;
};

/**
 * Crash-injection sites (the crash-point fuzzer's hooks). A site is a
 * point in the device's background machinery where power loss leaves
 * observably different durable state; `Any` matches every site except
 * the torn-append one (which must be requested explicitly because it
 * mutates the journal tail on its way down).
 */
enum class CrashSite : uint8_t
{
    FlushAfterProgram,    ///< Flush batch programmed, not yet journaled.
    FlushAfterJournal,    ///< Flush batch programmed and journaled.
    GcAfterProgram,       ///< GC survivors rewritten, not yet journaled.
    GcAfterErase,         ///< GC pass complete (victims erased).
    SnapshotBeforeCommit, ///< Snapshot built but not committed.
    JournalTornAppend,    ///< Power loss mid-append: torn final record.
    Any,
};

/** Thrown by an armed crash point; callers recover via crashAndRecover. */
struct CrashException
{
    CrashSite site = CrashSite::Any;
};

/** The simulated device. */
class Ssd : public FtlOps
{
  public:
    explicit Ssd(const SsdConfig &cfg);
    ~Ssd() override;

    /** Host page read. @return service latency. */
    Tick read(Lpa lpa, Tick now);

    /** Host page write. @return service latency (buffer admission). */
    Tick write(Lpa lpa, Tick now);

    /**
     * Asynchronously submit a (possibly multi-page) host request at
     * @a now: all of its page operations issue at the same tick
     * (channel parallelism applies) and the request completes when the
     * slowest page does. The call does not block the device -- callers
     * keep multiple requests outstanding by submitting the next one
     * before this completion tick; conflicting flash accesses simply
     * queue behind each other in the per-channel busy-until model.
     * read()/write() stay the synchronous depth-1 single-page API.
     * LPAs wrap modulo the host capacity.
     * @return Absolute completion tick (>= @a now).
     */
    Tick submit(const IoRequest &req, Tick now);

    /**
     * Attach an intra-run worker pool: the FTL fans learns and
     * compactions out across it (LeaFTL only; a no-op attachment
     * otherwise). nullptr detaches. The device's observable behavior
     * is identical either way.
     */
    void attachShardPool(ShardPool *pool);

    /**
     * TRIM/deallocate a page: invalidates the backing flash page (so
     * GC can reclaim it without migration) and unmaps the LPA.
     * @return service latency.
     */
    Tick trim(Lpa lpa, Tick now);

    /** Force out buffered writes (shutdown / tests). */
    void drainBuffer(Tick now);

    /**
     * Persist the mapping table + BVC snapshot (LeaFTL recovery
     * anchor, §3.8). No-op for DFTL/SFTL (their translation pages are
     * already on flash).
     */
    void persistMapping(Tick now);

    /**
     * Simulate a crash: volatile state (mapping table, caches) is
     * lost and rebuilt from the last persisted snapshot, its delta
     * chain, and the learn journal, then an OOB scan of only the
     * blocks the journal does not cover (§3.8). With journaling off
     * (journal_threshold_bytes == 0) every block allocated since the
     * snapshot is rescanned -- the historical naive model. The write
     * buffer is battery-backed: power loss flushes it first.
     */
    RecoveryStats crashAndRecover(Tick now);

    /**
     * Arm a crash: the @a countdown -th future hit of @a site (1 =
     * next hit) throws CrashException instead of completing. Armed
     * state is one-shot and disarmed by crashAndRecover.
     * @a torn_keep_pct applies to JournalTornAppend: percentage of
     * the final record's bytes that survive the power loss.
     */
    void
    armCrash(CrashSite site, uint64_t countdown, uint32_t torn_keep_pct = 50)
    {
        crash_armed_ = true;
        crash_site_ = site;
        crash_countdown_ = countdown ? countdown : 1;
        torn_keep_pct_ = torn_keep_pct;
    }

    void disarmCrash() { crash_armed_ = false; }
    bool crashArmed() const { return crash_armed_; }

    /** Learn-journal bytes accumulated since the last snapshot. */
    uint64_t journalBytes() const { return journal_.sizeBytes(); }
    /** Learn-journal records accumulated since the last snapshot. */
    uint64_t journalRecords() const { return journal_.records(); }
    /** Persisted snapshot bytes: last full snapshot + delta chain. */
    uint64_t
    snapshotBytes() const
    {
        return persisted_table_.size() + persisted_delta_bytes_;
    }
    /** Delta records chained to the last full snapshot. */
    uint64_t deltaChainLength() const { return persisted_deltas_.size(); }

    /**
     * Recovery-time SLO: with journaling on, a recovery OOB-scans at
     * most this many blocks -- the unjournaled tail of one in-flight
     * flush or GC pass plus the battery-drained buffer and the GC
     * passes that drain can trigger. O(write buffer), independent of
     * device capacity or fullness (the journal threshold bounds the
     * replay volume separately, by construction).
     */
    uint64_t
    recoveryScanBoundBlocks() const
    {
        const uint64_t buffer_pages =
            cfg_.write_buffer_bytes / cfg_.geometry.page_size;
        const uint64_t flush_blocks =
            ceilDiv(buffer_pages, cfg_.geometry.pages_per_block) + 1;
        return 2 * flush_blocks + 2 * (kMaxGcVictims + 2);
    }

    const SsdConfig &config() const { return cfg_; }
    const SsdStats &stats() const { return stats_; }
    Ftl &ftl() { return *ftl_; }
    const Ftl &ftl() const { return *ftl_; }
    FlashArray &flash() { return flash_; }
    const BlockManager &blocks() const { return blocks_; }
    /** Channel busy-until state (read-only; timing introspection). */
    const ChannelTimer &channels() const { return channels_; }

    /** Current data-cache capacity in pages (after the DRAM split). */
    uint64_t dataCachePages() const { return cache_.capacity(); }
    uint64_t dataCacheHits() const { return cache_.hits(); }
    uint64_t dataCacheMisses() const { return cache_.misses(); }

    /** Exact current PPA of an LPA, or nullopt (test oracle; free). */
    std::optional<Ppa> oraclePpa(Lpa lpa) const;

    // FtlOps:
    void chargeTransRead() override;
    void chargeTransWrite() override;

    /** Victim cap per GC pass (bounds per-pass migration work). */
    static constexpr size_t kMaxGcVictims = 64;

  private:
    void flushBuffer(Tick now);
    /**
     * Invalidate the old flash locations of a drained write batch
     * (keeping BVC/PVT exact).
     */
    void invalidateOldLocations(const std::vector<Lpa> &lpas);
    /** Feed a programmed host batch to the FTL (honoring sort_flush). */
    void recordHostMappings(const std::vector<std::pair<Lpa, Ppa>> &run);
    void maybeGc(Tick now);
    /**
     * One GC pass: greedily select min-valid victims until erasing
     * them reclaims at least one net block, migrate their survivors
     * (sorted by LPA, relearned, §3.6), erase and release.
     * @return true when at least one net block was reclaimed.
     */
    bool doGcPass(Tick now);
    void maybeWearLevel(Tick now);
    /** Migrate one block's valid pages (wear-leveling path). */
    void migrateBlock(uint32_t victim, Tick now, bool wear);
    void updateDramSplit();

    /**
     * Resolve the exact PPA behind a (possibly approximate)
     * translation, charging the extra flash read(s) the paper's OOB
     * scheme needs (§3.5). @a already_read indicates the device has
     * just read @a predicted (so its OOB is in hand for free).
     * @return kInvalidPpa when no valid page carries the LPA (stale
     *         mapping of a trimmed page after recovery).
     */
    Ppa resolveExact(Lpa lpa, Ppa predicted, bool already_read);

    /** Who is writing (for per-path flash write accounting). */
    enum class WriteKind
    {
        Host,
        Gc,
        Wear,
    };

    /**
     * Program a sorted batch of LPAs into fresh blocks. Returns the
     * programmed (LPA, PPA) run in a per-device scratch buffer that
     * stays valid until the next programBatch call.
     */
    const std::vector<std::pair<Lpa, Ppa>> &
    programBatch(const std::vector<Lpa> &lpas, Tick now, WriteKind kind);

    SsdConfig cfg_;
    FlashArray flash_;
    ChannelTimer channels_;
    BlockManager blocks_;
    WriteBuffer buffer_;
    DataCache cache_;
    std::unique_ptr<Ftl> ftl_;

    SsdStats stats_;

    /** Scratch OOB window reused by resolveExact (hot path). */
    std::vector<Lpa> oob_scratch_;
    /** Scratch (LPA, PPA) run reused by programBatch (learn path). */
    std::vector<std::pair<Lpa, Ppa>> run_scratch_;
    /** Scratch survivor list reused by doGcPass/migrateBlock. */
    std::vector<std::pair<Lpa, Ppa>> gc_pages_scratch_;
    /** Scratch LPA batch reused by doGcPass/migrateBlock. */
    std::vector<Lpa> gc_lpas_scratch_;

    /** Time cursor for the operation currently being charged. */
    Tick cur_time_ = 0;
    /** Round-robin channel for translation metadata I/O. */
    uint32_t trans_channel_rr_ = 0;

    uint64_t writes_since_compaction_ = 0;
    uint64_t flushes_since_wear_check_ = 0;

    /** Journaling on: LeaFTL with a nonzero journal threshold. */
    bool journalingEnabled() const;
    /** Append a learn batch to the journal (sorted copy, charged). */
    void journalLearn(const std::vector<std::pair<Lpa, Ppa>> &run);
    /** Append a trim record to the journal (charged). */
    void journalTrim(Lpa lpa);
    /** Charge journal appends to flash timing/WAF, page-granular. */
    void chargeJournalBytes(size_t n);
    /** Snapshot through the configured (legacy/incremental) pipeline. */
    void persistMappingInternal();
    /** Throw CrashException when an armed crash matches this site. */
    void crashPoint(CrashSite site);
    /** Armed torn-append crash fires on this append. */
    bool tornCrashTriggered();

    /** Recovery snapshot (LeaFTL): last full blob + delta chain. */
    std::vector<uint8_t> persisted_table_;
    std::vector<std::vector<uint8_t>> persisted_deltas_;
    uint64_t persisted_delta_bytes_ = 0;
    std::vector<uint32_t> blocks_since_persist_;

    /** Learn journal (incremental durability pipeline). */
    MappingJournal journal_;
    uint64_t journal_seq_ = 1; ///< Next record sequence number.
    /** Bytes appended since the last charged journal page. */
    uint64_t journal_page_fill_ = 0;
    uint64_t host_writes_since_snapshot_ = 0;

    /** Crash injection (one-shot; see armCrash). */
    bool crash_armed_ = false;
    CrashSite crash_site_ = CrashSite::Any;
    uint64_t crash_countdown_ = 0;
    uint32_t torn_keep_pct_ = 50;
    /** Recovery in progress: suppress journaling and crash points. */
    bool in_recovery_ = false;
};

} // namespace leaftl
