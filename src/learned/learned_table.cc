#include "learned/learned_table.hh"

#include "util/byte_cursor.hh"

namespace leaftl
{

namespace
{

/** Wire bytes of the blob header (gamma, group count). */
constexpr size_t kBlobHeaderBytes = 2 * sizeof(uint32_t);
/** Wire bytes of a group header (index, segment count). */
constexpr size_t kGroupHeaderBytes = 2 * sizeof(uint32_t);
/** Wire bytes of a segment: level, S, L, K bits, intercept. */
constexpr size_t kSegmentBytes = sizeof(uint16_t) + 2 * sizeof(uint8_t) +
                                 sizeof(uint16_t) + sizeof(int32_t);

/**
 * Exact wire size of one group, from counters the group keeps: every
 * approximate segment adds its run's u16 count and stored offsets.
 */
size_t
groupWireBytes(const Group &group)
{
    return kGroupHeaderBytes + kSegmentBytes * group.numSegments() +
           sizeof(uint16_t) * group.numApproximate() +
           group.crb().storedOffsets();
}

/** Write one group in the canonical per-group wire format. */
void
writeGroup(ByteWriter &w, uint32_t idx, const Group &group)
{
    w.put<uint32_t>(idx);
    w.put<uint32_t>(static_cast<uint32_t>(group.numSegments()));
    group.forEachSegment([&](const SegEntry &e, size_t level) {
        w.put<uint16_t>(static_cast<uint16_t>(level));
        w.put<uint8_t>(e.seg.slpa());
        w.put<uint8_t>(e.seg.length());
        w.put<uint16_t>(e.seg.kbits());
        w.put<int32_t>(e.seg.intercept());
        if (e.seg.approximate()) {
            const GroupMask &run = group.crb().mask(e.id);
            w.put<uint16_t>(static_cast<uint16_t>(run.count()));
            run.forEach([&](uint8_t off) { w.put<uint8_t>(off); });
        }
    });
}

/**
 * Encode the groups @a visit walks (visit(fn) calls fn(idx, group) in
 * ascending index order): size them, allocate once, write once.
 */
template <typename Visit>
std::vector<uint8_t>
encodeGroups(uint32_t gamma, size_t num_groups, Visit &&visit)
{
    size_t bytes = kBlobHeaderBytes;
    visit([&](uint32_t, const Group &group) {
        bytes += groupWireBytes(group);
    });
    std::vector<uint8_t> blob(bytes);
    ByteWriter w(blob.data());
    w.put<uint32_t>(gamma);
    w.put<uint32_t>(static_cast<uint32_t>(num_groups));
    visit([&](uint32_t idx, const Group &group) { writeGroup(w, idx, group); });
    LEAFTL_ASSERT(w.pos() == blob.data() + blob.size(),
                  "blob size computed wrong");
    return blob;
}

} // namespace

LearnedTable::LearnedTable(uint32_t gamma) : gamma_(gamma)
{
}

const std::vector<uint32_t> &
LearnedTable::learn(const std::vector<std::pair<Lpa, Ppa>> &run)
{
    touched_.clear();
    if (run.empty())
        return touched_;
    epoch_++; // Cached level-0 entries may be superseded below.
    fitRun(run, gamma_, fit_);
    for (const FitArena::GroupFit &gf : fit_.groups) {
        touched_.push_back(gf.group);
        Group &group = groups_.getOrCreate(gf.group);
        groups_.markDirty(gf.group);
        beginMutate(group);
        for (const FittedSegment &fs : fit_.segments(gf)) {
            stats_.segments_created++;
            if (fs.seg.approximate())
                stats_.approximate_created++;
            else
                stats_.accurate_created++;
            stats_.creation_lengths.add(fs.count);
            group.update(fs, scratch_);
        }
        endMutate(group);
    }
    return touched_;
}

std::optional<TableLookup>
LearnedTable::lookup(Lpa lpa) const
{
    const uint32_t group_idx = groupOf(lpa);
    const uint8_t off = static_cast<uint8_t>(groupOffset(lpa));

    // Directory shortcut: group objects never move and only a restore
    // removes live groups (it clears this cache), so a remembered
    // non-null pointer stays correct across mutations; only the
    // level-0 entry needs the epoch gate.
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
LearnedTable::compact()
{
    epoch_++;
    // Compaction can restructure any group, so the next delta must
    // carry all of them (cheap relative to the compaction itself).
    groups_.markAllDirty();
    groups_.forEach([&](uint32_t, Group &group) {
        beginMutate(group);
        group.compact(scratch_);
        endMutate(group);
    });
}

SampleSet
LearnedTable::levelsPerGroup() const
{
    SampleSet s;
    groups_.forEach([&](uint32_t, const Group &group) {
        s.add(static_cast<double>(group.numLevels()));
    });
    return s;
}

SampleSet
LearnedTable::crbSizes() const
{
    SampleSet s;
    groups_.forEach([&](uint32_t, const Group &group) {
        s.add(static_cast<double>(group.crb().sizeBytes()));
    });
    return s;
}

std::vector<uint8_t>
LearnedTable::serialize() const
{
    return encodeGroups(gamma_, groups_.size(),
                        [&](auto &&fn) { groups_.forEach(fn); });
}

std::vector<uint8_t>
LearnedTable::serializeDirty() const
{
    return encodeGroups(gamma_, groups_.dirtyCount(),
                        [&](auto &&fn) { groups_.forEachDirty(fn); });
}

BlobError
LearnedTable::restoreGroups(ByteReader &r, bool replace)
{
    uint32_t num_groups = 0;
    if (!r.read(num_groups))
        return BlobError::Truncated;
    // A group costs at least its idx + count header.
    if (num_groups > r.remaining() / kGroupHeaderBytes)
        return BlobError::Truncated;
    uint32_t prev_idx = 0;
    for (uint32_t g = 0; g < num_groups; g++) {
        uint32_t idx = 0, count = 0;
        if (!r.read(idx) || !r.read(count))
            return BlobError::Truncated;
        if (g > 0 && idx <= prev_idx)
            return BlobError::Malformed; // serialize() emits ascending.
        prev_idx = idx;
        // A segment costs at least its fixed bytes.
        if (count > r.remaining() / kSegmentBytes)
            return BlobError::Truncated;
        Group &group = groups_.getOrCreate(idx);
        beginMutate(group);
        if (replace)
            group.clear();
        // Parse into the group, then re-add its totals whatever
        // happened: the table totals stay in sync even when the blob
        // is bad.
        BlobError err = BlobError::None;
        size_t prev_level = 0;
        uint32_t prev_end = 0;
        // Offsets claimed by approximate segments' CRB runs: the
        // restore path requires runs disjoint across the whole group.
        GroupMask claimed;
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
            GroupMask run;
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
                const uint8_t *offs = r.take(len);
                if (!offs) {
                    err = BlobError::Truncated;
                    break;
                }
                // The CRB-run invariants: members strictly ascending,
                // inside the segment, and disjoint from every other
                // run already restored into this group.
                bool ok = true;
                for (size_t m = 0; ok && m < len; m++) {
                    ok = (m == 0 || offs[m] > offs[m - 1]) &&
                         offs[m] >= slpa &&
                         offs[m] <= static_cast<uint32_t>(slpa) + length &&
                         !claimed.test(offs[m]);
                    run.set(offs[m]);
                }
                if (!ok) {
                    err = BlobError::Malformed;
                    break;
                }
                claimed |= run;
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

BlobError
LearnedTable::restoreBlob(const std::vector<uint8_t> &blob, bool delta)
{
    ByteReader r(blob);
    uint32_t gamma = 0;
    BlobError e = BlobError::None;
    if (!r.read(gamma)) {
        e = BlobError::Truncated;
    } else if (delta && gamma != gamma_) {
        e = BlobError::Malformed; // delta from a different table
    } else {
        if (!delta) {
            // Start over as a new table would, keeping the storage.
            gamma_ = gamma;
            groups_.reset();
            total_segments_ = total_approx_ = total_bytes_ = 0;
            stats_ = LearnedTableStats();
        }
        e = restoreGroups(r, /*replace=*/delta);
    }
    // Group contents changed (even on a failed parse), so retire the
    // lookup cache unconditionally.
    epoch_++;
    cache_ = LookupCache();
    return e;
}

bool
LearnedTable::restore(const std::vector<uint8_t> &blob, BlobError *err)
{
    const BlobError e = restoreBlob(blob, /*delta=*/false);
    if (err)
        *err = e;
    return e == BlobError::None;
}

bool
LearnedTable::applyDelta(const std::vector<uint8_t> &blob, BlobError *err)
{
    const BlobError e = restoreBlob(blob, /*delta=*/true);
    if (err)
        *err = e;
    return e == BlobError::None;
}

std::unique_ptr<LearnedTable>
LearnedTable::deserialize(const std::vector<uint8_t> &blob)
{
    auto table = tryDeserialize(blob);
    LEAFTL_ASSERT(table != nullptr, "corrupt mapping blob");
    return table;
}

std::unique_ptr<LearnedTable>
LearnedTable::tryDeserialize(const std::vector<uint8_t> &blob,
                             BlobError *err)
{
    // A new table is an empty table restored in place.
    auto table = std::make_unique<LearnedTable>(0);
    if (!table->restore(blob, err))
        table.reset();
    return table;
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
