#include "ssd/ssd.hh"

#include <algorithm>

#include "ftl/leaftl.hh"

namespace leaftl
{

Ssd::Ssd(const SsdConfig &cfg)
    : cfg_(cfg),
      host_pages_(cfg.hostPages()),
      flash_(cfg.geometry),
      channels_(cfg.geometry.num_channels),
      blocks_(flash_),
      buffer_(static_cast<uint32_t>(cfg.write_buffer_bytes /
                                    cfg.geometry.page_size)),
      cache_(0),
      ftl_(makeFtl(cfg, *this)),
      // makeFtl builds the FTL cfg.ftl names.
      lea_(cfg.ftl == FtlKind::LeaFTL ? static_cast<LeaFtl *>(ftl_.get())
                                      : nullptr)
{
    cfg_.validate();
    updateDramSplit();
}

Ssd::~Ssd() = default;

void
Ssd::chargeTransRead()
{
    stats_.trans_reads++;
    trans_channel_rr_ = (trans_channel_rr_ + 1) % cfg_.geometry.num_channels;
    cur_time_ =
        channels_.access(trans_channel_rr_, cur_time_, cfg_.latency.flash_read);
}

void
Ssd::chargeTransWrite()
{
    stats_.trans_writes++;
    trans_channel_rr_ = (trans_channel_rr_ + 1) % cfg_.geometry.num_channels;
    cur_time_ = channels_.access(trans_channel_rr_, cur_time_,
                                 cfg_.latency.flash_write);
}

std::optional<Ppa>
Ssd::oraclePpa(Lpa lpa) const
{
    // Test oracle: walking every valid page is too slow, so scan the
    // prediction's +-gamma window on the uncharged FTL peek. Only
    // tests and perfbench's checks call it.
    const TranslateResult tr = ftl_->peek(lpa);
    if (!tr.found)
        return std::nullopt;
    const int64_t total = static_cast<int64_t>(flash_.geometry().totalPages());
    const int64_t gamma = cfg_.gamma;
    for (int64_t p = static_cast<int64_t>(tr.ppa) - gamma;
         p <= static_cast<int64_t>(tr.ppa) + gamma; p++) {
        if (p < 0 || p >= total)
            continue;
        const Ppa cand = static_cast<Ppa>(p);
        if (flash_.peekLpa(cand) == lpa && blocks_.isValid(cand))
            return cand;
    }
    return std::nullopt;
}

TranslateResult
Ssd::translate(Lpa lpa)
{
    TranslateResult tr = ftl_->translate(lpa);
    if (tr.found) {
        stats_.translations++;
        // Approximate predictions can overshoot the PPA space; clamp
        // to a readable address (locate finds the real page).
        tr.ppa = std::min<Ppa>(
            tr.ppa, static_cast<Ppa>(flash_.geometry().totalPages() - 1));
    }
    return tr;
}

Ppa
Ssd::locate(const TranslateResult &tr, Lpa lpa, bool already_read)
{
    const Ppa predicted = tr.ppa;
    // Fast path: the prediction is right (always, for exact FTLs and
    // accurate segments) -- validity checked against the DRAM PVT.
    if (flash_.peekLpa(predicted) == lpa && blocks_.isValid(predicted))
        return predicted;
    // A wrong exact mapping is stale post-crash state: the page was
    // trimmed (still carries this LPA, invalidated) or its block has
    // since been erased and reused by GC (the OOB disagrees). Either
    // way a live copy cannot exist -- any rewrite would have refreshed
    // the mapping -- so there is nothing to search for.
    if (!tr.approximate)
        return kInvalidPpa;

    stats_.mispredictions++;
    const uint32_t gamma = cfg_.gamma;
    LEAFTL_ASSERT(gamma > 0, "misprediction with gamma=0");

    if (!already_read) {
        // Read the predicted page to obtain its OOB (one flash read).
        stats_.data_reads++;
        stats_.mispredict_extra_reads++;
        cur_time_ = channels_.access(flash_.geometry().channelOf(predicted),
                                     cur_time_, cfg_.latency.flash_read);
    }

    // The OOB of the predicted page names the LPAs of its in-block
    // neighbors [predicted - g, predicted + g] (§3.5); g can be
    // smaller than gamma when the OOB area cannot hold 2*gamma + 1
    // four-byte entries. Reuse one scratch buffer across recoveries:
    // this path runs once per approximate miss.
    std::vector<Lpa> &window = oob_scratch_;
    flash_.oobWindow(predicted, gamma, window);
    const uint32_t g = (static_cast<uint32_t>(window.size()) - 1) / 2;
    for (uint32_t i = 0; i < window.size(); i++) {
        if (window[i] != lpa)
            continue;
        const Ppa cand = static_cast<Ppa>(predicted - g + i);
        if (blocks_.isValid(cand))
            return cand;
    }

    // Boundary cases: the true PPA is within +-gamma but either in a
    // neighboring block (the OOB names in-block neighbors only) or
    // beyond the OOB's entry capacity. Scan the candidates the window
    // did not cover, one flash read each.
    for (int64_t p = static_cast<int64_t>(predicted) - gamma;
         p <= static_cast<int64_t>(predicted) + gamma; p++) {
        if (p < 0 || p >= static_cast<int64_t>(flash_.geometry().totalPages()))
            continue;
        const Ppa cand = static_cast<Ppa>(p);
        const bool in_window =
            flash_.geometry().blockOf(cand) ==
                flash_.geometry().blockOf(predicted) &&
            cand + g >= predicted && cand <= predicted + g;
        if (in_window)
            continue; // Covered by the OOB window above.
        stats_.data_reads++;
        stats_.mispredict_extra_reads++;
        cur_time_ = channels_.access(flash_.geometry().channelOf(cand),
                                     cur_time_, cfg_.latency.flash_read);
        if (flash_.peekLpa(cand) == lpa && blocks_.isValid(cand))
            return cand;
    }
    // No valid page carries this LPA: a stale mapping of a trimmed
    // page (possible after crash recovery from a pre-trim snapshot).
    return kInvalidPpa;
}

bool
Ssd::invalidateLiveCopy(Lpa lpa)
{
    const TranslateResult tr = translate(lpa);
    if (!tr.found)
        return false;
    // Approximate translations are verified through the same OOB path
    // as reads (charged on mispredict only).
    const Ppa live = locate(tr, lpa, /*already_read=*/false);
    if (live != kInvalidPpa)
        blocks_.invalidate(live);
    return true;
}

Tick
Ssd::read(Lpa lpa, Tick now)
{
    LEAFTL_ASSERT(lpa < host_pages_, "host read beyond capacity");
    stats_.host_reads++;
    cur_time_ = now + cfg_.latency.dram_access;
    serveRead(lpa);
    const Tick lat = cur_time_ - now;
    stats_.read_latency.add(static_cast<double>(lat));
    return lat;
}

void
Ssd::serveRead(Lpa lpa)
{
    if (buffer_.contains(lpa)) {
        stats_.buffer_read_hits++;
        return;
    }
    // Skip the probe entirely while the cache is disabled (capacity
    // 0): it cannot hit, and mapping-first FTLs would otherwise pay a
    // hash lookup (and a spurious miss count) per host read.
    if (cache_.capacity() != 0 && cache_.lookup(lpa))
        return;

    const TranslateResult tr = translate(lpa);
    if (!tr.found) {
        stats_.unmapped_reads++; // Never-written page: served as zeros.
        return;
    }

    // Data read at the predicted PPA; its OOB is then in hand.
    stats_.data_reads++;
    cur_time_ = channels_.access(flash_.geometry().channelOf(tr.ppa),
                                 cur_time_, cfg_.latency.flash_read);

    const Ppa actual = locate(tr, lpa, /*already_read=*/true);
    if (actual == kInvalidPpa) {
        stats_.unresolved_reads++;
        return;
    }
    if (actual != tr.ppa) {
        // Fetch the resolved page. A page the boundary scan found was
        // already read there and is charged twice: a known over-charge
        // the golden outputs still carry.
        stats_.data_reads++;
        stats_.mispredict_extra_reads++;
        cur_time_ = channels_.access(flash_.geometry().channelOf(actual),
                                     cur_time_, cfg_.latency.flash_read);
        LEAFTL_ASSERT(flash_.peekLpa(actual) == lpa, "OOB resolution failed");
    }
    cache_.insert(lpa);
}

Tick
Ssd::write(Lpa lpa, Tick now)
{
    LEAFTL_ASSERT(lpa < host_pages_, "host write beyond capacity");
    stats_.host_writes++;
    cur_time_ = now + cfg_.latency.dram_access;
    const Tick ack = cur_time_;

    cache_.invalidate(lpa); // The cached copy (if any) is stale.
    buffer_.add(lpa);
    if (buffer_.full())
        flushBuffer();

    const Tick lat = ack - now;
    stats_.write_latency.add(static_cast<double>(lat));
    return lat;
}

Tick
Ssd::submit(const IoRequest &req, Tick now)
{
    Tick done = now;
    for (uint32_t i = 0; i < req.npages; i++) {
        const Lpa lpa = static_cast<Lpa>((req.lpa + i) % host_pages_);
        const Tick lat =
            req.op == Op::Read ? read(lpa, now) : write(lpa, now);
        done = std::max(done, now + lat);
    }
    return done;
}

Tick
Ssd::trim(Lpa lpa, Tick now)
{
    LEAFTL_ASSERT(lpa < host_pages_, "host trim beyond capacity");
    stats_.host_trims++;
    cur_time_ = now + cfg_.latency.dram_access;
    const Tick ack = cur_time_;

    cache_.invalidate(lpa);
    buffer_.remove(lpa);

    // Invalidate the backing flash page so GC reclaims it for free.
    if (invalidateLiveCopy(lpa)) {
        ftl_->trim(lpa);
        // A trim mutates the mapping without programming any page, so
        // only the journal can make it survive a crash before the
        // next snapshot. Trim storms must not outgrow the journal
        // threshold either (flushes check at their end; a trim-only
        // window would otherwise be unbounded).
        journalTrim(lpa);
        snapshotIfJournalFull();
    }

    cur_time_ = ack;
    return ack - now;
}

const std::vector<std::pair<Lpa, Ppa>> &
Ssd::programBatch(const std::vector<Lpa> &lpas, Tick now, WriteKind kind)
{
    // Reuse one run buffer across flushes/GC passes: with the learned
    // table's own arenas this keeps the steady-state learn path free of
    // per-batch heap allocation (test_alloc_free).
    std::vector<std::pair<Lpa, Ppa>> &run = run_scratch_;
    run.clear();
    run.reserve(lpas.size());

    const uint32_t ppb = cfg_.geometry.pages_per_block;
    size_t i = 0;
    while (i < lpas.size()) {
        const uint32_t block = blocks_.allocateBlock();
        blocks_since_persist_.push_back(block);
        const uint32_t channel = cfg_.geometry.channelOfBlock(block);
        const Ppa first = cfg_.geometry.firstPpa(block);
        const uint32_t chunk =
            static_cast<uint32_t>(std::min<size_t>(ppb, lpas.size() - i));
        for (uint32_t j = 0; j < chunk; j++) {
            const Ppa ppa = first + j;
            flash_.programPage(ppa, lpas[i + j]);
            run.emplace_back(lpas[i + j], ppa);
        }
        // The chunk fills one block on one channel: one run marking,
        // one channel charge and one counter bump cover all of it.
        blocks_.markValidRun(first, chunk);
        channels_.access(channel, now, chunk * cfg_.latency.flash_write);
        switch (kind) {
          case WriteKind::Host:
            stats_.data_writes += chunk;
            break;
          case WriteKind::Gc:
            stats_.gc_writes += chunk;
            break;
        }
        i += chunk;
    }
    return run;
}

void
Ssd::recordHostMappings(const std::vector<std::pair<Lpa, Ppa>> &run)
{
    if (cfg_.sort_flush) {
        ftl_->recordMappings(run);
        return;
    }
    // Unsorted flush (ablation): the learner consumes maximal
    // LPA-increasing subruns, exactly the Fig. 7(a) behavior.
    size_t i = 0;
    while (i < run.size()) {
        size_t j = i + 1;
        while (j < run.size() && run[j].first > run[j - 1].first)
            j++;
        ftl_->recordMappings(
            std::vector<std::pair<Lpa, Ppa>>(run.begin() + i,
                                             run.begin() + j));
        i = j;
    }
}

void
Ssd::flushBuffer()
{
    if (buffer_.empty())
        return;

    // The flush (and everything it triggers) happens in the
    // background: it occupies channels but the triggering host write
    // does not wait for it.
    const Tick host_cursor = cur_time_;

    std::vector<Lpa> lpas =
        cfg_.sort_flush ? buffer_.drainSorted() : buffer_.drainFifo();

    for (const Lpa lpa : lpas)
        invalidateLiveCopy(lpa); // Overwritten: keep BVC/PVT exact.

    const auto &run = programBatch(lpas, cur_time_, WriteKind::Host);
    recordHostMappings(run);
    crashPoint(CrashSite::FlushAfterProgram);
    journalLearn(run);
    crashPoint(CrashSite::FlushAfterJournal);

    writes_since_compaction_ += lpas.size();
    if (writes_since_compaction_ >= cfg_.compaction_interval) {
        writes_since_compaction_ = 0;
        stats_.compactions++;
        ftl_->periodicMaintenance();
    }

    updateDramSplit();
    maybeGc(cur_time_);

    // Automatic snapshotting runs in the background like the flush.
    snapshotIfJournalFull();

    cur_time_ = host_cursor;
}

void
Ssd::drainBuffer(Tick now)
{
    cur_time_ = now;
    const Tick host_cursor = cur_time_;
    if (!buffer_.empty()) {
        std::vector<Lpa> lpas =
            cfg_.sort_flush ? buffer_.drainSorted() : buffer_.drainFifo();
        for (const Lpa lpa : lpas)
            invalidateLiveCopy(lpa);
        const auto &run = programBatch(lpas, cur_time_, WriteKind::Host);
        recordHostMappings(run);
        journalLearn(run);
        updateDramSplit();
        maybeGc(cur_time_);
    }
    cur_time_ = host_cursor;
}

void
Ssd::maybeGc(Tick now)
{
    while (blocks_.freeFraction() < SsdConfig::kGcFreeThreshold) {
        if (!doGcPass(now))
            break; // No forward progress possible.
    }
}

bool
Ssd::doGcPass(Tick now)
{
    const uint32_t ppb = cfg_.geometry.pages_per_block;

    // Select victims (greedy min-valid) until erasing them all nets at
    // least one free block after rewriting their survivors.
    std::vector<uint32_t> &victims = gc_victims_scratch_;
    victims.clear();
    uint64_t survivors = 0;
    while (victims.size() < kMaxGcVictims) {
        const uint64_t dest_blocks = ceilDiv(survivors, ppb);
        if (!victims.empty() && victims.size() > dest_blocks)
            break; // Net gain >= 1 guaranteed.
        // Never plan more destination blocks than the free pool can
        // supply (keep one spare for the host path).
        if (dest_blocks + 2 >= blocks_.freeBlocks())
            break;
        const auto v = blocks_.pickGcVictim(victims);
        if (!v)
            break;
        victims.push_back(*v);
        survivors += blocks_.validCount(*v);
    }
    if (victims.empty() || victims.size() <= ceilDiv(survivors, ppb))
        return false; // Device genuinely full of valid data.

    stats_.gc_runs++;
    migrateVictims(victims, now);
    updateDramSplit();
    return true;
}

void
Ssd::migrateVictims(const std::vector<uint32_t> &victims, Tick now)
{
    // Read every survivor, then rewrite them sorted by LPA so the
    // relearned mapping is as compressible as a host flush (§3.6).
    // A victim's survivors share its channel, so their reads are one
    // charge; once read they are invalidated as a block. Both staging
    // vectors are member scratch: migrations recur all run long, and
    // per-pass allocations add up.
    std::vector<std::pair<Lpa, Ppa>> &pages = gc_pages_scratch_;
    pages.clear();
    for (uint32_t victim : victims) {
        const size_t first = pages.size();
        blocks_.validPages(victim, pages);
        const uint64_t n = pages.size() - first;
        if (n == 0)
            continue; // A zero-length charge would still move busy-until.
        channels_.access(cfg_.geometry.channelOfBlock(victim), now,
                         n * cfg_.latency.flash_read);
        stats_.gc_reads += n;
        blocks_.invalidateBlock(victim);
    }
    std::sort(pages.begin(), pages.end());
    std::vector<Lpa> &lpas = gc_lpas_scratch_;
    lpas.clear();
    lpas.reserve(pages.size());
    for (const auto &page : pages)
        lpas.push_back(page.first);

    if (!lpas.empty()) {
        const auto &run = programBatch(lpas, now, WriteKind::Gc);
        ftl_->recordMappingsGc(run);
        crashPoint(CrashSite::GcAfterProgram);
        journalLearn(run);
    }

    for (uint32_t victim : victims) {
        channels_.access(cfg_.geometry.channelOfBlock(victim), now,
                         cfg_.latency.flash_erase);
        flash_.eraseBlock(victim);
        blocks_.releaseBlock(victim);
        stats_.gc_erases++;
    }
    crashPoint(CrashSite::GcAfterErase);
}

void
Ssd::updateDramSplit()
{
    const uint64_t dram = cfg_.dram_bytes;
    const double cap_frac =
        cfg_.dram_policy == DramPolicy::MappingFirst ? 0.98 : 0.80;
    const uint64_t mapping_cap =
        static_cast<uint64_t>(static_cast<double>(dram) * cap_frac);

    // The mapping structures may use up to the cap; what they do not
    // use is returned to the data cache below (resident-based sizing).
    ftl_->setMappingBudget(std::max<uint64_t>(mapping_cap, kMapEntryBytes));

    const uint64_t resident = ftl_->residentMappingBytes();
    const uint64_t leftover = dram > resident ? dram - resident : 0;
    const uint64_t pages = leftover / cfg_.geometry.page_size;
    cache_.setCapacity(std::max<uint64_t>(pages, 16));
}

bool
Ssd::journalingEnabled() const
{
    return cfg_.journal_threshold_bytes > 0 && lea_ != nullptr;
}

void
Ssd::snapshotIfJournalFull()
{
    // The threshold bounds the recovery replay volume.
    if (!in_recovery_ && journalingEnabled() &&
        journal_.sizeBytes() >= cfg_.journal_threshold_bytes)
        persistMappingInternal();
}

bool
Ssd::crashDue(CrashSite site)
{
    if (!crash_armed_ || in_recovery_)
        return false;
    // Any matches every site but the torn append, which must be
    // armed by name.
    const bool matches =
        crash_site_ == site || (crash_site_ == CrashSite::Any &&
                                site != CrashSite::JournalTornAppend);
    if (!matches || --crash_countdown_ > 0)
        return false;
    crash_armed_ = false;
    return true;
}

void
Ssd::crashPoint(CrashSite site)
{
    if (crashDue(site))
        throw CrashException{site};
}

void
Ssd::journalLearn(const std::vector<std::pair<Lpa, Ppa>> &run)
{
    if (!journalingEnabled() || in_recovery_ || run.empty())
        return;
    // Replay feeds recordMappingsGc, which needs a strictly increasing
    // run; programmed batches are LPA-unique and already sorted, except
    // for FIFO flushes (the unsorted-flush ablation), which are sorted
    // into a reused scratch.
    const std::vector<std::pair<Lpa, Ppa>> *sorted = &run;
    if (!std::is_sorted(run.begin(), run.end())) {
        journal_sort_scratch_.assign(run.begin(), run.end());
        std::sort(journal_sort_scratch_.begin(), journal_sort_scratch_.end());
        sorted = &journal_sort_scratch_;
    }
    const auto coverage = static_cast<uint32_t>(blocks_since_persist_.size());
    journalAppended(journal_.appendLearn(journal_seq_++, coverage, *sorted));
}

void
Ssd::journalTrim(Lpa lpa)
{
    if (!journalingEnabled() || in_recovery_)
        return;
    const auto coverage = static_cast<uint32_t>(blocks_since_persist_.size());
    journalAppended(journal_.appendTrim(journal_seq_++, coverage, lpa));
}

void
Ssd::journalAppended(size_t bytes)
{
    // Power loss mid-append leaves the record torn on flash.
    if (crashDue(CrashSite::JournalTornAppend)) {
        journal_.tearLastRecord(torn_keep_pct_);
        throw CrashException{CrashSite::JournalTornAppend};
    }
    // Journal appends share translation pages; charge one flash write
    // per page boundary crossed (the partial tail page is charged when
    // the snapshot retires the journal).
    journal_page_fill_ += bytes;
    while (journal_page_fill_ >= cfg_.geometry.page_size) {
        journal_page_fill_ -= cfg_.geometry.page_size;
        chargeTransWrite();
    }
}

void
Ssd::persistMapping(Tick now)
{
    cur_time_ = now;
    persistMappingInternal();
}

void
Ssd::persistMappingInternal()
{
    if (!lea_)
        return; // DFTL/SFTL translation pages already live on flash.
    LearnedTable &table = *lea_->learnedTable();

    // Emit only the groups dirtied since the last snapshot as a delta
    // chained to the last full blob; fold the chain back into a full
    // snapshot once the deltas outgrow it.
    const bool full = persisted_table_.empty() ||
                      persisted_delta_bytes_ >= persisted_table_.size();
    std::vector<uint8_t> blob =
        full ? table.serialize() : table.serializeDirty();
    // The crash window: snapshot built, nothing committed yet.
    crashPoint(CrashSite::SnapshotBeforeCommit);
    const uint64_t pages = ceilDiv(blob.size(), cfg_.geometry.page_size);
    for (uint64_t i = 0; i < pages; i++)
        chargeTransWrite();
    if (full) {
        persisted_table_ = std::move(blob);
        persisted_deltas_.clear();
        persisted_delta_bytes_ = 0;
    } else {
        persisted_delta_bytes_ += blob.size();
        persisted_deltas_.push_back(std::move(blob));
    }
    table.clearDirty();
    if (journal_page_fill_ > 0) {
        chargeTransWrite(); // Flush the journal's partial tail page.
        journal_page_fill_ = 0;
    }
    journal_.clear();
    blocks_since_persist_.clear();
}

RecoveryStats
Ssd::crashAndRecover(Tick now)
{
    RecoveryStats rec;
    if (!lea_)
        return rec;

    // Recovery itself can no longer crash-inject.
    disarmCrash();

    // The write buffer is battery-backed (§2): power loss flushes it
    // with the still-live pre-crash mapping state. The drained blocks
    // land after the journal's coverage and are picked up by the tail
    // scan, so the drain must not append journal records (the tail
    // may already be torn).
    in_recovery_ = true;
    drainBuffer(now);
    in_recovery_ = false;

    cache_.setCapacity(0);
    cur_time_ = now;

    // Recovery starts once the device restarts: after the battery
    // drain and whatever background backlog the crash interrupted.
    // Every recovery charge is scheduled from here so recovery_time
    // measures the restart alone.
    const Tick t0 = std::max(now, channels_.latestFree());

    // The snapshot area and the journal are striped across channels
    // like the data blocks, so loading them is channel-parallel — the
    // same model §5 uses for the scan itself.
    auto chargeLoadPages = [&](uint64_t bytes) {
        const uint64_t pages = ceilDiv(bytes, cfg_.geometry.page_size);
        for (uint64_t i = 0; i < pages; i++) {
            stats_.trans_reads++;
            trans_channel_rr_ =
                (trans_channel_rr_ + 1) % cfg_.geometry.num_channels;
            channels_.access(trans_channel_rr_, t0,
                             cfg_.latency.flash_read);
        }
    };

    // 1. Load the last full snapshot plus its chained deltas.
    if (!persisted_table_.empty())
        lea_->restoreChain(persisted_table_, persisted_deltas_);
    else
        lea_->restoreChain(LearnedTable(cfg_.gamma).serialize(), {});
    rec.applied_deltas = persisted_deltas_.size();
    chargeLoadPages(snapshotBytes());

    // 2. Replay the learn journal in order: learn batches and trims,
    // torn/corrupt tail dropped at the first bad checksum. Records
    // carry the blocks-since-snapshot coverage at append time, so the
    // OOB scan below only visits the uncovered tail.
    uint32_t max_cov = 0;
    {
        JournalReader reader(journal_.log());
        JournalRecord jrec;
        while (reader.next(jrec)) {
            rec.replayed_journal_records++;
            max_cov = std::max(max_cov, jrec.coverage);
            if (jrec.type == JournalRecord::Type::Learn)
                lea_->recordMappingsGc(jrec.mappings);
            else
                lea_->trim(jrec.trim_lpa);
        }
        rec.replayed_journal_bytes = reader.validBytes();
        chargeLoadPages(reader.validBytes());
        journal_.truncateTo(reader.validBytes());
    }

    // 3. Scan only the unjournaled tail of the blocks allocated since
    // the snapshot (channel-parallel) and relearn their mappings in
    // allocation order so newer segments land above older ones, as
    // the original inserts did (§3.8). With no journal max_cov is zero
    // and every block since the snapshot is scanned.
    const Tick scan_now = t0;
    for (size_t bi = max_cov; bi < blocks_since_persist_.size(); bi++) {
        const uint32_t block = blocks_since_persist_[bi];
        rec.scanned_blocks++;
        std::vector<std::pair<Lpa, Ppa>> run;
        const Ppa first = cfg_.geometry.firstPpa(block);
        const uint32_t channel = cfg_.geometry.channelOfBlock(block);
        for (uint32_t i = 0; i < cfg_.geometry.pages_per_block; i++) {
            const Ppa ppa = first + i;
            if (flash_.peekLpa(ppa) == kInvalidLpa)
                continue;
            rec.scanned_pages++;
            channels_.access(channel, scan_now, cfg_.latency.flash_read);
            if (blocks_.isValid(ppa))
                run.emplace_back(flash_.peekLpa(ppa), ppa);
        }
        std::sort(run.begin(), run.end());
        rec.relearned_mappings += run.size();
        if (!run.empty())
            lea_->recordMappingsGc(run);
    }

    // 4. Checkpoint the recovered state. Mappings relearned by the
    // scan exist only in memory; without a checkpoint, later journal
    // records' coverage would claim those blocks and a second crash
    // would lose them (with no journal, rescan them). The snapshot
    // delta captures exactly the replay+scan mutations (their groups
    // are the only dirty ones on a freshly restored table) and resets
    // the journal and the blocks-since-snapshot list.
    persistMappingInternal();

    rec.recovery_time = channels_.latestFree() > t0
                            ? channels_.latestFree() - t0
                            : 0;
    updateDramSplit();
    return rec;
}

} // namespace leaftl
