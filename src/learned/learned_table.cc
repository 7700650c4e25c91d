#include "learned/learned_table.hh"

#include <bitset>
#include <cstring>

#include "sim/shard_runner.hh"

namespace leaftl
{

namespace
{

template <typename T>
void
put(std::vector<uint8_t> &blob, T v)
{
    const size_t at = blob.size();
    blob.resize(at + sizeof(T));
    std::memcpy(blob.data() + at, &v, sizeof(T));
}

/**
 * Bounds-checked cursor over an untrusted blob: every read reports
 * success instead of asserting, so corrupt input surfaces as a typed
 * BlobError rather than UB or an abort.
 */
struct BlobReader
{
    const std::vector<uint8_t> &blob;
    size_t at = 0;

    template <typename T>
    bool
    read(T &v)
    {
        if (sizeof(T) > blob.size() - at)
            return false;
        std::memcpy(&v, blob.data() + at, sizeof(T));
        at += sizeof(T);
        return true;
    }

    size_t remaining() const { return blob.size() - at; }
};

/** Append one group in the canonical per-group wire format. */
void
appendGroup(std::vector<uint8_t> &blob, uint32_t idx, const Group &group)
{
    put<uint32_t>(blob, idx);
    put<uint32_t>(blob, static_cast<uint32_t>(group.numSegments()));
    group.forEachSegment([&](const SegEntry &e, size_t level) {
        put<uint16_t>(blob, static_cast<uint16_t>(level));
        put<uint8_t>(blob, e.seg.slpa());
        put<uint8_t>(blob, e.seg.length());
        put<uint16_t>(blob, e.seg.kbits());
        put<int32_t>(blob, e.seg.intercept());
        if (e.seg.approximate()) {
            const auto &run = group.crb().run(e.id);
            put<uint16_t>(blob, static_cast<uint16_t>(run.size()));
            for (uint8_t off : run)
                put<uint8_t>(blob, off);
        }
    });
}

} // namespace

LearnedTable::LearnedTable(uint32_t gamma) : gamma_(gamma)
{
}

std::vector<uint32_t>
LearnedTable::learn(const std::vector<std::pair<Lpa, Ppa>> &run)
{
    std::vector<uint32_t> touched;
    if (run.empty())
        return touched;
    epoch_++; // Cached level-0 entries may be superseded below.
    auto fitted = fitRun(run, gamma_);
    if (!pool_ || fitted.size() < 2) {
        for (auto &[group_idx, segs] : fitted) {
            touched.push_back(group_idx);
            Group &group = groups_.getOrCreate(group_idx);
            groups_.markDirty(group_idx);
            beginMutate(group);
            for (const FittedSegment &fs : segs) {
                stats_.segments_created++;
                if (fs.seg.approximate())
                    stats_.approximate_created++;
                else
                    stats_.accurate_created++;
                stats_.creation_lengths.add(fs.offs.size());
                group.update(fs, scratch_);
            }
            endMutate(group);
        }
        return touched;
    }

    // Parallel learn. Directory creation and the table totals are
    // order-dependent, so they stay on the commit thread; the per-group
    // merges -- the bulk of the work -- fan out. fitRun() emits each
    // group index at most once, so stripes mutate disjoint Group
    // objects, and group pointers collected here stay valid across the
    // later getOrCreate calls (groups never move).
    touched.reserve(fitted.size());
    std::vector<Group *> groups;
    groups.reserve(fitted.size());
    for (auto &[group_idx, segs] : fitted) {
        touched.push_back(group_idx);
        Group &group = groups_.getOrCreate(group_idx);
        groups_.markDirty(group_idx);
        beginMutate(group);
        groups.push_back(&group);
    }
    pool_->parallelFor(
        fitted.size(), [&](size_t begin, size_t end, uint32_t w) {
            CreateTally &tally = worker_tally_[w];
            MergeScratch &scratch = worker_scratch_[w];
            for (size_t i = begin; i < end; i++) {
                for (const FittedSegment &fs : fitted[i].second) {
                    tally.segments++;
                    if (fs.seg.approximate())
                        tally.approximate++;
                    else
                        tally.accurate++;
                    tally.lengths.add(fs.offs.size());
                    groups[i]->update(fs, scratch);
                }
            }
        });
    // Merge the creation tallies in worker order: integer counters and
    // a double sum of small integers, so the result is bit-identical
    // to the serial accumulation for any worker count.
    for (CreateTally &tally : worker_tally_) {
        stats_.segments_created += tally.segments;
        stats_.accurate_created += tally.accurate;
        stats_.approximate_created += tally.approximate;
        stats_.creation_lengths.merge(tally.lengths);
        tally.segments = tally.accurate = tally.approximate = 0;
        tally.lengths.clear();
    }
    for (Group *group : groups)
        endMutate(*group);
    return touched;
}

std::optional<TableLookup>
LearnedTable::lookup(Lpa lpa) const
{
    const uint32_t group_idx = groupOf(lpa);
    const uint8_t off = static_cast<uint8_t>(groupOffset(lpa));

    // Directory shortcut: group objects never move and live groups are
    // never removed, so a remembered non-null pointer stays correct
    // across mutations; only the level-0 entry needs the epoch gate.
    const Group *group;
    if (cache_.group_idx == group_idx) {
        group = cache_.group;
    } else {
        group = groups_.find(group_idx);
        if (group) {
            cache_.group_idx = group_idx;
            cache_.group = group;
        } else {
            // Do not cache misses: a later learn can create the group.
            cache_.group_idx = kInvalidLpa;
            cache_.group = nullptr;
        }
        cache_.top = nullptr;
    }
    if (!group)
        return std::nullopt;

    // Last-hit shortcut: if the previous hit's level-0 entry still
    // covers and owns this offset (and the table is unchanged), a full
    // scan would find exactly this segment at depth 1 -- within a
    // level, covering segments are unique, and level 0 is topmost.
    if (cache_.top && cache_.epoch == epoch_ &&
        group->hasLpa(*cache_.top, off)) {
        stats_.lookup_cache_hits++;
        stats_.lookups++;
        stats_.lookup_levels_total += 1;
        stats_.lookup_levels.add(1);
        return TableLookup{cache_.top->seg.predict(off),
                           cache_.top->seg.approximate(), 1};
    }

    const SegEntry *top_hit = nullptr;
    auto res = group->lookup(off, &top_hit);
    if (!res)
        return std::nullopt;
    if (top_hit) {
        cache_.top = top_hit;
        cache_.epoch = epoch_;
    }
    stats_.lookups++;
    stats_.lookup_levels_total += res->levels_visited;
    stats_.lookup_levels.add(res->levels_visited);
    return TableLookup{res->ppa, res->approximate, res->levels_visited};
}

void
LearnedTable::setShardPool(ShardPool *pool)
{
    pool_ = pool;
    const uint32_t n = pool ? pool->workers() : 0;
    worker_scratch_.resize(n);
    worker_tally_.resize(n);
}

void
LearnedTable::compact()
{
    epoch_++;
    // Compaction can restructure any group, so the next delta must
    // carry all of them (cheap relative to the compaction itself).
    groups_.markAllDirty();
    if (!pool_) {
        groups_.forEach([&](uint32_t, Group &group) {
            beginMutate(group);
            group.compact(scratch_);
            endMutate(group);
        });
        return;
    }

    // Parallel compaction: each group's compact touches only that
    // group, so the same disjoint-stripe argument as learn() applies.
    std::vector<Group *> groups;
    groups.reserve(groups_.size());
    groups_.forEach([&](uint32_t, Group &group) {
        beginMutate(group);
        groups.push_back(&group);
    });
    pool_->parallelFor(groups.size(),
                       [&](size_t begin, size_t end, uint32_t w) {
                           MergeScratch &scratch = worker_scratch_[w];
                           for (size_t i = begin; i < end; i++)
                               groups[i]->compact(scratch);
                       });
    for (Group *group : groups)
        endMutate(*group);
}

SampleSet
LearnedTable::levelsPerGroup() const
{
    // Sized to the group count so the figure percentiles stay exact
    // (the set is transient; only per-lookup series need the default
    // reservoir cap).
    SampleSet s(groups_.size());
    groups_.forEach([&](uint32_t, const Group &group) {
        s.add(static_cast<double>(group.numLevels()));
    });
    return s;
}

SampleSet
LearnedTable::crbSizes() const
{
    SampleSet s(groups_.size());
    groups_.forEach([&](uint32_t, const Group &group) {
        s.add(static_cast<double>(group.crb().sizeBytes()));
    });
    return s;
}

std::vector<uint8_t>
LearnedTable::serialize() const
{
    std::vector<uint8_t> blob;
    put<uint32_t>(blob, gamma_);
    put<uint32_t>(blob, static_cast<uint32_t>(groups_.size()));
    groups_.forEach([&](uint32_t idx, const Group &group) {
        appendGroup(blob, idx, group);
    });
    return blob;
}

std::vector<uint8_t>
LearnedTable::serializeDirty() const
{
    std::vector<uint8_t> blob;
    put<uint32_t>(blob, gamma_);
    put<uint32_t>(blob, static_cast<uint32_t>(groups_.dirtyCount()));
    groups_.forEachDirty([&](uint32_t idx, const Group &group) {
        appendGroup(blob, idx, group);
    });
    return blob;
}

BlobError
LearnedTable::restoreGroups(const std::vector<uint8_t> &blob, size_t at,
                            bool replace)
{
    BlobReader r{blob, at};
    uint32_t num_groups = 0;
    if (!r.read(num_groups))
        return BlobError::Truncated;
    // A group costs at least its idx + count header.
    if (num_groups > r.remaining() / (2 * sizeof(uint32_t)))
        return BlobError::Truncated;
    uint32_t prev_idx = 0;
    for (uint32_t g = 0; g < num_groups; g++) {
        uint32_t idx = 0, count = 0;
        if (!r.read(idx) || !r.read(count))
            return BlobError::Truncated;
        if (g > 0 && idx <= prev_idx)
            return BlobError::Malformed; // serialize() emits ascending.
        prev_idx = idx;
        // A segment costs at least its 10 fixed header bytes.
        if (count > r.remaining() / 10)
            return BlobError::Truncated;
        Group &group = groups_.getOrCreate(idx);
        beginMutate(group);
        if (replace)
            group = Group();
        // Parse into the group, then re-add its totals whatever
        // happened: the table stays consistent (whole groups from
        // before or after the delta) even when the blob is bad.
        BlobError err = BlobError::None;
        size_t prev_level = 0;
        uint32_t prev_end = 0;
        // Offsets claimed by approximate segments' CRB runs: the
        // restore path requires runs disjoint across the whole group.
        std::bitset<kGroupSpan> claimed;
        for (uint32_t i = 0; i < count; i++) {
            uint16_t level = 0, kbits = 0;
            uint8_t slpa = 0, length = 0;
            int32_t intercept = 0;
            if (!r.read(level) || !r.read(slpa) || !r.read(length) ||
                !r.read(kbits) || !r.read(intercept)) {
                err = BlobError::Truncated;
                break;
            }
            // endOff() is uint8 arithmetic: a range past 255 wraps.
            if (static_cast<uint32_t>(slpa) + length > 255) {
                err = BlobError::Malformed;
                break;
            }
            if (i > 0 && level < prev_level) {
                err = BlobError::Malformed; // levels emit ascending
                break;
            }
            // Within a level, segments are sorted and disjoint.
            if (i > 0 && level == prev_level && slpa <= prev_end) {
                err = BlobError::Malformed;
                break;
            }
            Segment seg(slpa, length, kbits, intercept);
            std::vector<uint8_t> run;
            if (seg.approximate()) {
                uint16_t len = 0;
                if (!r.read(len)) {
                    err = BlobError::Truncated;
                    break;
                }
                if (len == 0 || len > kGroupSpan) {
                    err = BlobError::Malformed;
                    break;
                }
                if (len > r.remaining()) {
                    err = BlobError::Truncated;
                    break;
                }
                run.resize(len);
                std::memcpy(run.data(), r.blob.data() + r.at, len);
                r.at += len;
                // The CRB-run invariants: members strictly ascending,
                // inside the segment, and disjoint from every other
                // run already restored into this group.
                bool ok = run.front() >= slpa &&
                          run.back() <=
                              static_cast<uint32_t>(slpa) + length;
                for (size_t m = 0; ok && m < run.size(); m++) {
                    if (m > 0 && run[m] <= run[m - 1])
                        ok = false;
                    else if (claimed[run[m]])
                        ok = false;
                    else
                        claimed[run[m]] = true;
                }
                if (!ok) {
                    err = BlobError::Malformed;
                    break;
                }
            }
            group.restoreRaw(level, seg, run);
            prev_level = level;
            prev_end = seg.endOff();
        }
        endMutate(group);
        if (err != BlobError::None)
            return err;
    }
    if (r.remaining() != 0)
        return BlobError::Malformed; // trailing bytes
    return BlobError::None;
}

std::unique_ptr<LearnedTable>
LearnedTable::deserialize(const std::vector<uint8_t> &blob)
{
    BlobError err = BlobError::None;
    auto table = tryDeserialize(blob, &err);
    LEAFTL_ASSERT(table != nullptr, "corrupt mapping blob");
    return table;
}

std::unique_ptr<LearnedTable>
LearnedTable::tryDeserialize(const std::vector<uint8_t> &blob,
                             BlobError *err)
{
    BlobError e = BlobError::None;
    std::unique_ptr<LearnedTable> table;
    BlobReader r{blob};
    uint32_t gamma = 0;
    if (!r.read(gamma)) {
        e = BlobError::Truncated;
    } else {
        table = std::make_unique<LearnedTable>(gamma);
        e = table->restoreGroups(blob, r.at, /*replace=*/false);
        if (e != BlobError::None)
            table.reset();
    }
    if (err)
        *err = e;
    return table;
}

bool
LearnedTable::applyDelta(const std::vector<uint8_t> &blob, BlobError *err)
{
    BlobError e = BlobError::None;
    BlobReader r{blob};
    uint32_t gamma = 0;
    if (!r.read(gamma))
        e = BlobError::Truncated;
    else if (gamma != gamma_)
        e = BlobError::Malformed; // delta from a different table
    else
        e = restoreGroups(blob, r.at, /*replace=*/true);
    // Group objects may have been replaced (even on a failed parse),
    // so retire the lookup cache unconditionally.
    epoch_++;
    cache_ = LookupCache();
    if (err)
        *err = e;
    return e == BlobError::None;
}

void
LearnedTable::checkInvariants() const
{
    size_t segs = 0, approx = 0, bytes = 0;
    groups_.forEach([&](uint32_t, const Group &group) {
        group.checkInvariants();
        segs += group.numSegments();
        approx += group.numApproximate();
        bytes += group.memoryBytes();
    });
    LEAFTL_ASSERT(segs == total_segments_, "table segment total out of sync");
    LEAFTL_ASSERT(approx == total_approx_,
                  "table approximate total out of sync");
    LEAFTL_ASSERT(bytes == total_bytes_, "table byte total out of sync");
}

} // namespace leaftl
