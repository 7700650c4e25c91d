#include "ssd/ssd.hh"

#include <algorithm>

#include "ftl/leaftl.hh"

namespace leaftl
{

Ssd::Ssd(const SsdConfig &cfg)
    : cfg_(cfg),
      flash_(cfg.geometry),
      channels_(cfg.geometry.num_channels),
      blocks_(flash_),
      buffer_(static_cast<uint32_t>(cfg.write_buffer_bytes /
                                    cfg.geometry.page_size)),
      cache_(0),
      ftl_(makeFtl(cfg, *this))
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
    // Test oracle: walk all valid pages via PVT-backed peeks is too
    // slow; instead resolve through the FTL without charges by
    // scanning the prediction window. Only used by tests.
    auto *self = const_cast<Ssd *>(this);
    const SsdStats saved = stats_;
    const Tick saved_time = self->cur_time_;
    TranslateResult tr = self->ftl_->translate(lpa);
    self->stats_ = saved;
    self->cur_time_ = saved_time;
    if (!tr.found)
        return std::nullopt;
    tr.ppa = std::min<Ppa>(tr.ppa,
                           static_cast<Ppa>(flash_.geometry().totalPages() - 1));
    if (flash_.peekLpa(tr.ppa) == lpa && blocks_.isValid(tr.ppa))
        return tr.ppa;
    const uint32_t gamma = cfg_.gamma;
    for (int64_t p = static_cast<int64_t>(tr.ppa) - gamma;
         p <= static_cast<int64_t>(tr.ppa) + gamma; p++) {
        if (p < 0 || p >= static_cast<int64_t>(flash_.geometry().totalPages()))
            continue;
        const Ppa cand = static_cast<Ppa>(p);
        if (flash_.peekLpa(cand) == lpa && blocks_.isValid(cand))
            return cand;
    }
    return std::nullopt;
}

Ppa
Ssd::resolveExact(Lpa lpa, Ppa predicted, bool already_read)
{
    // Fast path: the prediction is right (always, for exact FTLs and
    // accurate segments) -- validity checked against the DRAM PVT.
    if (flash_.peekLpa(predicted) == lpa && blocks_.isValid(predicted))
        return predicted;

    stats_.mispredictions++;
    const uint32_t gamma = cfg_.gamma;
    LEAFTL_ASSERT(gamma > 0, "misprediction with gamma=0");

    if (!already_read) {
        // Read the predicted page to obtain its OOB (one flash read).
        stats_.data_reads++;
        stats_.mispredict_extra_reads++;
        cur_time_ = channels_.access(flash_.geometry().channelOf(predicted),
                                     cur_time_, cfg_.latency.flash_read);
        flash_.readPage(predicted);
    }

    // The OOB of the predicted page names the LPAs of its in-block
    // neighbors [predicted - g, predicted + g] (§3.5); g can be
    // smaller than gamma when the OOB area cannot hold 2*gamma + 1
    // four-byte entries. Reuse one scratch buffer across recoveries:
    // this path runs once per approximate translation.
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
        if (flash_.readPage(cand) == lpa && blocks_.isValid(cand))
            return cand;
    }
    // No valid page carries this LPA: a stale mapping of a trimmed
    // page (possible after crash recovery from a pre-trim snapshot).
    return kInvalidPpa;
}

Tick
Ssd::read(Lpa lpa, Tick now)
{
    LEAFTL_ASSERT(lpa < cfg_.hostPages(), "host read beyond capacity");
    stats_.host_reads++;
    cur_time_ = now + cfg_.latency.dram_access;

    if (buffer_.contains(lpa)) {
        stats_.buffer_read_hits++;
        const Tick lat = cur_time_ - now;
        stats_.read_latency.add(static_cast<double>(lat));
        return lat;
    }
    // Skip the probe entirely while the cache is disabled (capacity
    // 0): it cannot hit, and mapping-first FTLs would otherwise pay a
    // hash lookup (and a spurious miss count) per host read.
    if (cache_.capacity() != 0 && cache_.lookup(lpa)) {
        const Tick lat = cur_time_ - now;
        stats_.read_latency.add(static_cast<double>(lat));
        return lat;
    }

    TranslateResult tr = ftl_->translate(lpa);
    if (!tr.found) {
        // Never-written page: served as zeros.
        stats_.unmapped_reads++;
        const Tick lat = cur_time_ - now;
        stats_.read_latency.add(static_cast<double>(lat));
        return lat;
    }
    stats_.translations++;
    // Approximate predictions can overshoot the PPA space; clamp to a
    // readable address (OOB resolution finds the real page).
    tr.ppa = std::min<Ppa>(tr.ppa,
                           static_cast<Ppa>(flash_.geometry().totalPages() - 1));

    // Data read at the predicted PPA.
    stats_.data_reads++;
    cur_time_ = channels_.access(flash_.geometry().channelOf(tr.ppa),
                                 cur_time_, cfg_.latency.flash_read);
    const Lpa got = flash_.readPage(tr.ppa);

    if (got != lpa || !blocks_.isValid(tr.ppa)) {
        if (!tr.approximate) {
            // A stale post-crash exact mapping: the page was trimmed
            // (still carries this LPA, invalidated) or its block has
            // since been erased and reused by GC (the OOB disagrees).
            // Either way a live copy cannot exist — any rewrite would
            // have refreshed the mapping — so the read is served as
            // unresolved without a search.
            stats_.unresolved_reads++;
            const Tick lat = cur_time_ - now;
            stats_.read_latency.add(static_cast<double>(lat));
            return lat;
        }
        const Ppa actual = resolveExact(lpa, tr.ppa, /*already_read=*/true);
        if (actual == kInvalidPpa) {
            stats_.unresolved_reads++;
            const Tick lat = cur_time_ - now;
            stats_.read_latency.add(static_cast<double>(lat));
            return lat;
        }
        if (actual != tr.ppa) {
            stats_.data_reads++;
            stats_.mispredict_extra_reads++;
            cur_time_ = channels_.access(flash_.geometry().channelOf(actual),
                                         cur_time_, cfg_.latency.flash_read);
            const Lpa check = flash_.readPage(actual);
            LEAFTL_ASSERT(check == lpa, "OOB resolution failed");
        }
    }

    cache_.insert(lpa);
    const Tick lat = cur_time_ - now;
    stats_.read_latency.add(static_cast<double>(lat));
    return lat;
}

Tick
Ssd::write(Lpa lpa, Tick now)
{
    LEAFTL_ASSERT(lpa < cfg_.hostPages(), "host write beyond capacity");
    stats_.host_writes++;
    cur_time_ = now + cfg_.latency.dram_access;
    const Tick ack = cur_time_;

    cache_.invalidate(lpa); // The cached copy (if any) is stale.
    buffer_.add(lpa);
    if (buffer_.full())
        flushBuffer(cur_time_);

    const Tick lat = ack - now;
    stats_.write_latency.add(static_cast<double>(lat));
    return lat;
}

Tick
Ssd::submit(const IoRequest &req, Tick now)
{
    const uint64_t host_pages = cfg_.hostPages();
    Tick done = now;
    for (uint32_t i = 0; i < req.npages; i++) {
        const Lpa lpa = static_cast<Lpa>((req.lpa + i) % host_pages);
        const Tick lat =
            req.op == Op::Read ? read(lpa, now) : write(lpa, now);
        done = std::max(done, now + lat);
    }
    return done;
}

void
Ssd::attachShardPool(ShardPool *pool)
{
    ftl_->setShardPool(pool);
}

Tick
Ssd::trim(Lpa lpa, Tick now)
{
    LEAFTL_ASSERT(lpa < cfg_.hostPages(), "host trim beyond capacity");
    stats_.host_trims++;
    cur_time_ = now + cfg_.latency.dram_access;
    const Tick ack = cur_time_;

    cache_.invalidate(lpa);
    buffer_.remove(lpa);

    // Invalidate the backing flash page so GC reclaims it for free.
    TranslateResult tr = ftl_->translate(lpa);
    if (tr.found) {
        tr.ppa = std::min<Ppa>(
            tr.ppa,
            static_cast<Ppa>(flash_.geometry().totalPages() - 1));
        Ppa old = tr.approximate
                      ? resolveExact(lpa, tr.ppa, /*already_read=*/false)
                      : tr.ppa;
        // As in invalidateOldLocations: a stale post-crash exact
        // mapping may point at a block GC has reused for another LPA,
        // so only invalidate pages whose OOB confirms ownership.
        if (old != kInvalidPpa && blocks_.isValid(old) &&
            flash_.peekLpa(old) == lpa)
            blocks_.invalidate(old);
        ftl_->trim(lpa);
        // A trim mutates the mapping without programming any page, so
        // only the journal can make it survive a crash before the
        // next snapshot. Trim storms must not outgrow the journal
        // threshold either (flushes check at their end; a trim-only
        // window would otherwise be unbounded).
        journalTrim(lpa);
        if (!in_recovery_ && journalingEnabled() &&
            journal_.sizeBytes() >= cfg_.journal_threshold_bytes)
            persistMappingInternal();
    }

    cur_time_ = ack;
    return ack - now;
}

const std::vector<std::pair<Lpa, Ppa>> &
Ssd::programBatch(const std::vector<Lpa> &lpas, Tick now, WriteKind kind)
{
    // Reuse one run buffer across flushes/GC passes: with the learned
    // table's own scratch arena this keeps the steady-state learn path
    // free of per-batch heap allocation.
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
        const size_t chunk = std::min<size_t>(ppb, lpas.size() - i);
        for (size_t j = 0; j < chunk; j++) {
            const Ppa ppa = first + static_cast<Ppa>(j);
            flash_.programPage(ppa, lpas[i + j]);
            blocks_.markValid(ppa);
            channels_.occupy(channel, now, cfg_.latency.flash_write);
            switch (kind) {
              case WriteKind::Host:
                stats_.data_writes++;
                break;
              case WriteKind::Gc:
                stats_.gc_writes++;
                break;
              case WriteKind::Wear:
                stats_.wear_writes++;
                break;
            }
            run.emplace_back(lpas[i + j], ppa);
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
Ssd::invalidateOldLocations(const std::vector<Lpa> &lpas)
{
    // Invalidate the old locations of overwritten LPAs, keeping
    // BVC/PVT exact. Approximate translations are verified through
    // the same OOB path as reads (charged on mispredict only).
    for (const Lpa lpa : lpas) {
        TranslateResult tr = ftl_->translate(lpa);
        if (!tr.found)
            continue;
        stats_.translations++;
        tr.ppa = std::min<Ppa>(
            tr.ppa,
            static_cast<Ppa>(flash_.geometry().totalPages() - 1));
        Ppa old = tr.approximate
                      ? resolveExact(lpa, tr.ppa, /*already_read=*/false)
                      : tr.ppa;
        // A stale post-crash mapping can point at a trimmed (invalid)
        // page, or — once GC erases and reuses the block — at another
        // LPA's live copy. Verify the OOB before invalidating; the
        // check never fires outside crash recovery, where exact
        // mappings are correct by construction.
        if (old != kInvalidPpa &&
            (!blocks_.isValid(old) || flash_.peekLpa(old) != lpa))
            old = kInvalidPpa;
        if (old != kInvalidPpa)
            blocks_.invalidate(old);
    }
}

void
Ssd::flushBuffer(Tick)
{
    if (buffer_.empty())
        return;

    // The flush (and everything it triggers) happens in the
    // background: it occupies channels but the triggering host write
    // does not wait for it.
    const Tick host_cursor = cur_time_;

    std::vector<Lpa> lpas =
        cfg_.sort_flush ? buffer_.drainSorted() : buffer_.drainFifo();

    invalidateOldLocations(lpas);

    const auto &run = programBatch(lpas, cur_time_, WriteKind::Host);
    recordHostMappings(run);
    crashPoint(CrashSite::FlushAfterProgram);
    journalLearn(run);
    crashPoint(CrashSite::FlushAfterJournal);

    host_writes_since_snapshot_ += lpas.size();
    writes_since_compaction_ += lpas.size();
    if (writes_since_compaction_ >= cfg_.compaction_interval) {
        writes_since_compaction_ = 0;
        stats_.compactions++;
        ftl_->periodicMaintenance();
    }

    updateDramSplit();
    maybeGc(cur_time_);
    flushes_since_wear_check_++;
    if (flushes_since_wear_check_ >= 64) {
        flushes_since_wear_check_ = 0;
        maybeWearLevel(cur_time_);
    }

    // Automatic snapshotting: the journal growing past its threshold
    // (bounds recovery replay volume) or the configured host-write
    // interval. Both run in the background like the flush itself.
    if (!in_recovery_) {
        if (journalingEnabled() &&
            journal_.sizeBytes() >= cfg_.journal_threshold_bytes)
            persistMappingInternal();
        else if (cfg_.snapshot_interval_writes > 0 &&
                 host_writes_since_snapshot_ >= cfg_.snapshot_interval_writes)
            persistMappingInternal();
    }

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
        invalidateOldLocations(lpas);
        const auto &run = programBatch(lpas, cur_time_, WriteKind::Host);
        recordHostMappings(run);
        journalLearn(run);
        host_writes_since_snapshot_ += lpas.size();
        updateDramSplit();
        maybeGc(cur_time_);
    }
    cur_time_ = host_cursor;
}

void
Ssd::maybeGc(Tick now)
{
    while (blocks_.freeFraction() < cfg_.gc_free_threshold) {
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
    std::vector<uint32_t> victims;
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

    // Read every survivor, then rewrite them sorted by LPA so the
    // relearned mapping is as compressible as a host flush (§3.6).
    // Both staging vectors are member scratch: GC passes recur all
    // run long, and per-pass allocations add up.
    std::vector<std::pair<Lpa, Ppa>> &pages = gc_pages_scratch_;
    pages.clear();
    for (uint32_t victim : victims) {
        const size_t first = pages.size();
        blocks_.validPages(victim, pages);
        for (size_t i = first; i < pages.size(); i++) {
            const Ppa ppa = pages[i].second;
            channels_.occupy(flash_.geometry().channelOf(ppa), now,
                             cfg_.latency.flash_read);
            flash_.readPage(ppa);
            stats_.gc_reads++;
        }
    }
    std::sort(pages.begin(), pages.end());
    std::vector<Lpa> &lpas = gc_lpas_scratch_;
    lpas.clear();
    lpas.reserve(pages.size());
    for (const auto &[lpa, ppa] : pages) {
        lpas.push_back(lpa);
        blocks_.invalidate(ppa);
    }

    if (!lpas.empty()) {
        const auto &run = programBatch(lpas, now, WriteKind::Gc);
        ftl_->recordMappingsGc(run);
        crashPoint(CrashSite::GcAfterProgram);
        journalLearn(run);
    }

    for (uint32_t victim : victims) {
        channels_.occupy(flash_.geometry().channelOfBlock(victim), now,
                         cfg_.latency.flash_erase);
        flash_.eraseBlock(victim);
        blocks_.releaseBlock(victim);
        stats_.gc_erases++;
    }
    crashPoint(CrashSite::GcAfterErase);
    updateDramSplit();
    return true;
}

void
Ssd::migrateBlock(uint32_t victim, Tick now, bool wear)
{
    std::vector<std::pair<Lpa, Ppa>> &pages = gc_pages_scratch_;
    pages.clear();
    blocks_.validPages(victim, pages);

    // Read the survivors.
    for (const auto &[lpa, ppa] : pages) {
        channels_.occupy(flash_.geometry().channelOf(ppa), now,
                         cfg_.latency.flash_read);
        flash_.readPage(ppa);
        if (wear)
            stats_.wear_reads++;
        else
            stats_.gc_reads++;
    }

    // Sort by LPA and rewrite (§3.6: GC batches are sorted and
    // relearned exactly like host flushes).
    std::sort(pages.begin(), pages.end());
    std::vector<Lpa> &lpas = gc_lpas_scratch_;
    lpas.clear();
    lpas.reserve(pages.size());
    for (const auto &[lpa, ppa] : pages) {
        lpas.push_back(lpa);
        blocks_.invalidate(ppa);
    }

    if (!lpas.empty()) {
        const auto &run = programBatch(lpas, now,
                                wear ? WriteKind::Wear : WriteKind::Gc);
        ftl_->recordMappingsGc(run);
        journalLearn(run);
    }

    channels_.occupy(flash_.geometry().channelOfBlock(victim), now,
                     cfg_.latency.flash_erase);
    flash_.eraseBlock(victim);
    blocks_.releaseBlock(victim);
    stats_.gc_erases++;
}

void
Ssd::maybeWearLevel(Tick now)
{
    const auto victim = blocks_.pickWearVictim(cfg_.wear_delta_threshold);
    if (!victim)
        return;
    stats_.wear_migrations++;
    migrateBlock(*victim, now, /*wear=*/true);
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
    return cfg_.journal_threshold_bytes > 0 &&
           ftl_->learnedTable() != nullptr;
}

void
Ssd::crashPoint(CrashSite site)
{
    if (!crash_armed_ || in_recovery_)
        return;
    if (crash_site_ != site && crash_site_ != CrashSite::Any)
        return;
    if (--crash_countdown_ > 0)
        return;
    crash_armed_ = false;
    throw CrashException{site};
}

bool
Ssd::tornCrashTriggered()
{
    if (!crash_armed_ || in_recovery_ ||
        crash_site_ != CrashSite::JournalTornAppend)
        return false;
    if (--crash_countdown_ > 0)
        return false;
    crash_armed_ = false;
    return true;
}

void
Ssd::chargeJournalBytes(size_t n)
{
    // Journal appends share translation pages; charge one flash write
    // per page boundary crossed (the partial tail page is charged when
    // the snapshot retires the journal).
    journal_page_fill_ += n;
    while (journal_page_fill_ >= cfg_.geometry.page_size) {
        journal_page_fill_ -= cfg_.geometry.page_size;
        chargeTransWrite();
    }
}

void
Ssd::journalLearn(const std::vector<std::pair<Lpa, Ppa>> &run)
{
    if (!journalingEnabled() || in_recovery_ || run.empty())
        return;
    // Replay feeds recordMappingsGc, which needs a strictly increasing
    // run; programmed batches are LPA-unique but FIFO flushes arrive
    // unsorted.
    std::vector<std::pair<Lpa, Ppa>> sorted(run);
    std::sort(sorted.begin(), sorted.end());
    const uint32_t coverage =
        static_cast<uint32_t>(blocks_since_persist_.size());
    if (tornCrashTriggered()) {
        journal_.appendLearn(journal_seq_++, coverage, sorted);
        journal_.tearLastRecord(torn_keep_pct_);
        throw CrashException{CrashSite::JournalTornAppend};
    }
    chargeJournalBytes(journal_.appendLearn(journal_seq_++, coverage, sorted));
}

void
Ssd::journalTrim(Lpa lpa)
{
    if (!journalingEnabled() || in_recovery_)
        return;
    const uint32_t coverage =
        static_cast<uint32_t>(blocks_since_persist_.size());
    if (tornCrashTriggered()) {
        journal_.appendTrim(journal_seq_++, coverage, lpa);
        journal_.tearLastRecord(torn_keep_pct_);
        throw CrashException{CrashSite::JournalTornAppend};
    }
    chargeJournalBytes(journal_.appendTrim(journal_seq_++, coverage, lpa));
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
    auto *lea = dynamic_cast<LeaFtl *>(ftl_.get());
    if (!lea)
        return; // DFTL/SFTL translation pages already live on flash.
    LearnedTable *table = lea->learnedTable();

    if (!journalingEnabled()) {
        // Legacy monolithic snapshot (bit-identical to the historical
        // behavior when journaling is off).
        crashPoint(CrashSite::SnapshotBeforeCommit);
        persisted_table_ = lea->persist();
        persisted_deltas_.clear();
        persisted_delta_bytes_ = 0;
        table->clearDirty();
        blocks_since_persist_.clear();
        host_writes_since_snapshot_ = 0;
        return;
    }

    // Incremental: emit only the groups dirtied since the last
    // snapshot as a delta chained to the last full blob; fold the
    // chain back into a full snapshot once the deltas outgrow it.
    const bool full = persisted_table_.empty() ||
                      persisted_delta_bytes_ >= persisted_table_.size();
    std::vector<uint8_t> blob =
        full ? table->serialize() : table->serializeDirty();
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
    table->clearDirty();
    if (journal_page_fill_ > 0) {
        chargeTransWrite(); // Flush the journal's partial tail page.
        journal_page_fill_ = 0;
    }
    journal_.clear();
    blocks_since_persist_.clear();
    host_writes_since_snapshot_ = 0;
}

RecoveryStats
Ssd::crashAndRecover(Tick now)
{
    RecoveryStats rec;
    auto *lea = dynamic_cast<LeaFtl *>(ftl_.get());
    if (!lea)
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
            channels_.occupy(trans_channel_rr_, t0,
                             cfg_.latency.flash_read);
        }
    };

    // 1. Load the last full snapshot plus its chained deltas.
    if (!persisted_table_.empty())
        lea->restoreChain(persisted_table_, persisted_deltas_);
    else
        lea->restoreChain(LearnedTable(cfg_.gamma).serialize(), {});
    rec.applied_deltas = persisted_deltas_.size();
    if (journalingEnabled()) {
        // Charge the snapshot-area reads (legacy mode keeps its
        // historical free-snapshot-load model).
        chargeLoadPages(snapshotBytes());
    }

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
                lea->recordMappingsGc(jrec.mappings);
            else
                lea->trim(jrec.trim_lpa);
        }
        rec.replayed_journal_bytes = reader.validBytes();
        chargeLoadPages(reader.validBytes());
        journal_.truncateTo(reader.validBytes());
    }

    // 3. Scan only the unjournaled tail of the blocks allocated since
    // the snapshot (channel-parallel) and relearn their mappings in
    // allocation order so newer segments land above older ones, as
    // the original inserts did (§3.8). With journaling off max_cov is
    // zero and this is the historical full rescan.
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
            channels_.occupy(channel, scan_now, cfg_.latency.flash_read);
            flash_.readPage(ppa);
            if (blocks_.isValid(ppa))
                run.emplace_back(flash_.peekLpa(ppa), ppa);
        }
        std::sort(run.begin(), run.end());
        rec.relearned_mappings += run.size();
        if (!run.empty())
            lea->recordMappingsGc(run);
    }

    // 4. Checkpoint the recovered state (incremental pipeline only).
    // Mappings relearned by the scan exist only in memory; without a
    // checkpoint, later journal records' coverage would claim those
    // blocks and a second crash would lose them. The snapshot delta
    // captures exactly the replay+scan mutations (their groups are
    // the only dirty ones on a freshly restored table) and resets the
    // journal and the blocks-since-snapshot list. The legacy pipeline
    // keeps its historical behavior: no checkpoint, full rescan next
    // time.
    if (journalingEnabled())
        persistMappingInternal();

    rec.recovery_time = channels_.latestFree() > t0
                            ? channels_.latestFree() - t0
                            : 0;
    updateDramSplit();
    return rec;
}

} // namespace leaftl
