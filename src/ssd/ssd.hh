/**
 * @file
 * The simulated SSD device (§2 Fig. 2, §3.8): write buffer, data
 * cache, FTL, block manager, GC, channel timing, and the DRAM budget
 * split between mapping structures and the data cache.
 *
 * The host-facing API is page-granular read/write with a timestamp;
 * both return the request's service latency. Writes are acknowledged
 * at DRAM speed once buffered; buffer flushes and GC occupy flash
 * channels in the background and delay later requests that hit the
 * same channels.
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

class LeaFtl;

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

    uint64_t trans_reads = 0;
    uint64_t trans_writes = 0;

    uint64_t mispredictions = 0;
    uint64_t mispredict_extra_reads = 0;
    uint64_t translations = 0; ///< FTL translations that found a mapping.

    uint64_t compactions = 0;

    LatencyHistogram read_latency;
    LatencyHistogram write_latency;

    /** Write amplification factor (Fig. 25). */
    double
    waf() const
    {
        const uint64_t actual = data_writes + gc_writes + trans_writes;
        return host_writes ? static_cast<double>(actual) / host_writes : 0.0;
    }

    /**
     * Always zero: the device has no wear leveling. Kept only because
     * perfbench/bench.cc's counter list still names it.
     */
    uint64_t wear_writes = 0;

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
     * blocks the journal does not cover (§3.8). With no journal
     * (journal_threshold_bytes == 0) every block allocated since the
     * snapshot is scanned. The snapshot-area and journal loads are
     * charged, and recovery ends with a checkpoint snapshot, so an
     * immediate second crash scans nothing. The write buffer is
     * battery-backed: power loss flushes it first.
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
    /** Everything read() does between the DRAM access and the exit. */
    void serveRead(Lpa lpa);
    void flushBuffer();
    /**
     * Invalidate the valid flash page holding @a lpa, if any, keeping
     * BVC/PVT exact (trims and overwritten flush batches).
     * @return whether the FTL had a mapping for @a lpa.
     */
    bool invalidateLiveCopy(Lpa lpa);
    /** Feed a programmed host batch to the FTL (honoring sort_flush). */
    void recordHostMappings(const std::vector<std::pair<Lpa, Ppa>> &run);
    void maybeGc(Tick now);
    /**
     * One GC pass: greedily select min-valid victims until erasing
     * them reclaims at least one net block, then migrateVictims.
     * @return true when at least one net block was reclaimed.
     */
    bool doGcPass(Tick now);
    void updateDramSplit();

    /**
     * The device's one translation step: Ftl::translate, counted in
     * stats_.translations when it finds a mapping, with the PPA
     * clamped into the flash.
     */
    TranslateResult translate(Lpa lpa);

    /**
     * Find the valid page holding @a lpa behind a found translation
     * @a tr, charging the extra flash read(s) the paper's OOB scheme
     * needs on an approximate miss (§3.5). @a already_read indicates
     * the device has just read tr.ppa (so its OOB is in hand for free).
     * @return kInvalidPpa when no valid page carries the LPA: a stale
     *         post-crash exact mapping, or a stale mapping of a
     *         trimmed page after recovery.
     */
    Ppa locate(const TranslateResult &tr, Lpa lpa, bool already_read);

    /** Who is writing (for per-path flash write accounting). */
    enum class WriteKind
    {
        Host,
        Gc,
    };

    /**
     * Program a sorted batch of LPAs into fresh blocks. Returns the
     * programmed (LPA, PPA) run in a per-device scratch buffer that
     * stays valid until the next programBatch call.
     */
    const std::vector<std::pair<Lpa, Ppa>> &
    programBatch(const std::vector<Lpa> &lpas, Tick now, WriteKind kind);

    /**
     * GC's migration step: read the victims' survivors, rewrite them
     * sorted by LPA and relearn them like a host flush (§3.6), journal
     * the run, then erase and release every victim.
     *
     * Work is per victim, not per page: a victim's survivors are
     * collected off its PVT words, charged as one read of n pages on
     * its channel (skipped when n is 0) and invalidated in one
     * BlockManager::invalidateBlock. Reads count into gc_reads and
     * erases into gc_erases.
     */
    void migrateVictims(const std::vector<uint32_t> &victims, Tick now);

    SsdConfig cfg_;
    /** cfg_.hostPages(), computed once (it takes a floating-point floor). */
    const uint64_t host_pages_;
    FlashArray flash_;
    ChannelTimer channels_;
    BlockManager blocks_;
    WriteBuffer buffer_;
    DataCache cache_;
    std::unique_ptr<Ftl> ftl_;
    /** ftl_ when it is LeaFTL (snapshots, journal, recovery), else null. */
    LeaFtl *const lea_;

    SsdStats stats_;

    /** Scratch OOB window reused by locate (hot path). */
    std::vector<Lpa> oob_scratch_;
    /** Scratch (LPA, PPA) run reused by programBatch (learn path). */
    std::vector<std::pair<Lpa, Ppa>> run_scratch_;
    /** Scratch survivor list reused by migrateVictims. */
    std::vector<std::pair<Lpa, Ppa>> gc_pages_scratch_;
    /** Scratch LPA batch reused by migrateVictims. */
    std::vector<Lpa> gc_lpas_scratch_;
    /** Scratch victim list reused by doGcPass. */
    std::vector<uint32_t> gc_victims_scratch_;
    /** Scratch sorted copy of an unsorted run, reused by journalLearn. */
    std::vector<std::pair<Lpa, Ppa>> journal_sort_scratch_;

    /** Time cursor for the operation currently being charged. */
    Tick cur_time_ = 0;
    /** Round-robin channel for translation metadata I/O. */
    uint32_t trans_channel_rr_ = 0;

    uint64_t writes_since_compaction_ = 0;

    /** Journaling on: LeaFTL with a nonzero journal threshold. */
    bool journalingEnabled() const;
    /** Append a learn batch to the journal (LPA-sorted, charged). */
    void journalLearn(const std::vector<std::pair<Lpa, Ppa>> &run);
    /** Append a trim record to the journal (charged). */
    void journalTrim(Lpa lpa);
    /**
     * Finish a journal append of @a bytes: tear it and crash when an
     * armed torn-append crash is due, else charge it to flash timing
     * and WAF, page-granular.
     */
    void journalAppended(size_t bytes);
    /**
     * Snapshot the learned table: a charged full blob, or a delta of
     * the groups dirtied since the last one. Retires the journal (if
     * any) and the blocks-since-snapshot list.
     */
    void persistMappingInternal();
    /** Snapshot once the journal reaches its threshold (0 = no journal). */
    void snapshotIfJournalFull();
    /**
     * Count down an armed crash that matches @a site. @return true
     * (and disarm) when this hit is the one it was armed for.
     */
    bool crashDue(CrashSite site);
    /** Throw CrashException when an armed crash is due at this site. */
    void crashPoint(CrashSite site);

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

    /** Crash injection (one-shot; see armCrash). */
    bool crash_armed_ = false;
    CrashSite crash_site_ = CrashSite::Any;
    uint64_t crash_countdown_ = 0;
    uint32_t torn_keep_pct_ = 50;
    /** Recovery in progress: suppress journaling and crash points. */
    bool in_recovery_ = false;
};

} // namespace leaftl
