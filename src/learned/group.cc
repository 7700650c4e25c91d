#include "learned/group.hh"

#include <algorithm>

namespace leaftl
{

namespace
{

/** Binary search: index of the segment covering @a off, or -1. */
int
findCovering(std::span<const SegEntry> segs, uint8_t off)
{
    int lo = 0, hi = static_cast<int>(segs.size()) - 1;
    while (lo <= hi) {
        const int mid = (lo + hi) / 2;
        const Segment &s = segs[mid].seg;
        if (off < s.slpa()) {
            hi = mid - 1;
        } else if (off > s.endOff()) {
            lo = mid + 1;
        } else {
            return mid;
        }
    }
    return -1;
}

/**
 * Index of the first segment whose range ends at or after @a off: the
 * start of the window of segments overlapping any range that begins
 * at @a off (a level's ranges are sorted and disjoint, so their ends
 * ascend too). The window runs while a segment starts at or before
 * the range's end.
 */
size_t
firstEndingAtOrAfter(std::span<const SegEntry> segs, uint8_t off)
{
    return static_cast<size_t>(
        std::partition_point(segs.begin(), segs.end(),
                             [off](const SegEntry &e) {
                                 return e.seg.endOff() < off;
                             }) -
        segs.begin());
}

/**
 * Stride patterns: entry d holds the offsets 0, d, 2d, ... below 256.
 * Entry 256 holds offset 0 alone, which is the grid of every stride
 * of 256 or more.
 */
struct StridePatterns
{
    GroupMask of[kGroupSpan + 1];

    StridePatterns()
    {
        for (uint32_t d = 1; d <= kGroupSpan; d++) {
            for (uint32_t off = 0; off < kGroupSpan; off += d)
                of[d].set(static_cast<uint8_t>(off));
        }
    }
};

/**
 * The stride grid of an accurate segment over [S, S+L] (just S when
 * L = 0): the stride's pattern moved up to S and cut at S+L.
 */
GroupMask
gridMask(const Segment &seg)
{
    if (seg.singlePoint()) {
        GroupMask m;
        m.set(seg.slpa());
        return m;
    }
    const uint32_t d = seg.stride();
    if (d == 1)
        return GroupMask::range(seg.slpa(), seg.endOff());
    static const StridePatterns patterns;
    return patterns.of[std::min(d, kGroupSpan)].shiftedUp(seg.slpa()) &
           GroupMask::range(seg.slpa(), seg.endOff());
}

} // namespace

void
Group::clear()
{
    segs_.clear();
    levels_.clear();
    crb_.clear();
    num_segs_ = 0;
    num_approx_ = 0;
}

bool
Group::hasLpa(const SegEntry &e, uint8_t off) const
{
    if (!e.seg.covers(off))
        return false;
    if (e.seg.approximate())
        return crb_.contains(e.id, off);
    return e.seg.hasLpaAccurate(off);
}

GroupMask
Group::members(const SegEntry &e) const
{
    if (!e.seg.approximate())
        return gridMask(e.seg);
    return crb_.mask(e.id);
}

size_t
Group::sortedSlot(size_t li, const SegEntry &entry) const
{
    const std::span<const SegEntry> segs = level(li);
    const auto it = std::lower_bound(
        segs.begin(), segs.end(), entry,
        [](const SegEntry &a, const SegEntry &b) {
            return a.seg.slpa() < b.seg.slpa();
        });
    return levelBegin(li) + static_cast<size_t>(it - segs.begin());
}

void
Group::insertSorted(size_t li, const SegEntry &entry)
{
    const size_t at = sortedSlot(li, entry);
    segs_.insert(segs_.begin() + static_cast<ptrdiff_t>(at), entry);
    for (size_t l = li; l < levels_.size(); l++)
        levels_[l].end++;
    countInsert(entry);
    levels_[li].may |= members(entry);
}

void
Group::insertLevel(size_t li)
{
    levels_.insert(levels_.begin() + static_cast<ptrdiff_t>(li),
                   LevelHdr{static_cast<uint32_t>(levelBegin(li)), {}});
}

void
Group::eraseFromLevel(size_t li, size_t at, size_t n)
{
    if (n == 0)
        return;
    const auto first = segs_.begin() + static_cast<ptrdiff_t>(at);
    segs_.erase(first, first + static_cast<ptrdiff_t>(n));
    for (size_t l = li; l < levels_.size(); l++)
        levels_[l].end -= static_cast<uint32_t>(n);
}

void
Group::mergeVictims(size_t level_idx, const SegEntry &entry,
                    bool detach_conflicts, MergeScratch &scratch)
{
    scratch.conflicts.clear();
    const GroupMask newer = members(entry);

    // Every victim in the window overlaps the entry's range. Kept
    // victims slide down over removed ones; the gap left at the end of
    // the window is erased once.
    const size_t begin = levelBegin(level_idx);
    const size_t end = levels_[level_idx].end;
    size_t i = begin + firstEndingAtOrAfter(level(level_idx),
                                            entry.seg.slpa());
    size_t kept = i;
    for (; i < end && segs_[i].seg.slpa() <= entry.seg.endOff(); i++) {
        SegEntry &victim = segs_[i];

        // Algorithm 2: subtract the new segment's members from the
        // victim's. For approximate victims the CRB insert already
        // stole the overwritten offsets, so the subtraction is mostly
        // a no-op there; accurate victims are trimmed here.
        const GroupMask older = members(victim);
        const GroupMask left = older & ~newer;
        if (left.none()) {
            // Victim fully superseded: remove it (Algorithm 1 l.11-12).
            if (victim.seg.approximate())
                crb_.removeRun(victim.id);
            countErase(victim);
            continue;
        }

        // Trim the victim's range; K and I are never touched.
        victim.seg.trim(left.first(), left.last());
        if (victim.seg.approximate())
            crb_.removeOffsets(victim.id, older & newer);

        if (entry.seg.overlaps(victim.seg)) {
            // Range still interleaves: the victim cannot share a sorted
            // run with the entry (Algorithm 1 lines 13-16).
            scratch.conflicts.push_back(victim);
            if (detach_conflicts) {
                countErase(victim);
                continue;
            }
        }
        segs_[kept++] = victim;
    }
    eraseFromLevel(level_idx, kept, i - kept);
}

void
Group::pushVictimDown(size_t from_level, const SegEntry &victim)
{
    const size_t below = from_level + 1;
    if (below >= levels_.size()) {
        insertLevel(below);
    } else {
        // If the next level has no range conflict with the victim, it
        // can join that sorted run; otherwise it gets a dedicated level
        // to avoid recursive pops (and to preserve recency ordering).
        const std::span<const SegEntry> next = level(below);
        const size_t i = firstEndingAtOrAfter(next, victim.seg.slpa());
        if (i < next.size() && next[i].seg.slpa() <= victim.seg.endOff())
            insertLevel(below);
    }
    insertSorted(below, victim);
}

void
Group::insertAt(size_t level_idx, const SegEntry &entry,
                MergeScratch &scratch)
{
    while (levels_.size() <= level_idx)
        insertLevel(levels_.size());

    mergeVictims(level_idx, entry, /*detach_conflicts=*/true, scratch);
    // Pop detached victims below. Order within the new level is
    // restored by sorted insertion. pushVictimDown never merges, so
    // scratch.conflicts is stable across the loop.
    for (const SegEntry &victim : scratch.conflicts)
        pushVictimDown(level_idx, victim);

    insertSorted(level_idx, entry);
}

bool
Group::sinkBelow(size_t li, size_t at, MergeScratch &scratch)
{
    const SegEntry entry = segs_[at];
    // A merge here changes a victim only when the victim is accurate
    // and the entry owns one of its endpoints; every other victim is
    // already disjoint from the entry and tight (see the file comment),
    // so it keeps its range and still conflicts.
    const std::span<const SegEntry> below = level(li + 1);
    size_t i = firstEndingAtOrAfter(below, entry.seg.slpa());
    const bool empty_window =
        i == below.size() || below[i].seg.slpa() > entry.seg.endOff();
    if (!empty_window) {
        std::optional<GroupMask> newer; // Only accurate victims need it.
        bool can_change = false;
        for (; i < below.size() && below[i].seg.slpa() <= entry.seg.endOff();
             i++) {
            const Segment &victim = below[i].seg;
            if (victim.approximate())
                continue;
            if (!newer)
                newer = members(entry);
            if (newer->test(victim.slpa()) || newer->test(victim.endOff())) {
                can_change = true;
                break;
            }
        }
        if (!can_change)
            return false;
        mergeVictims(li + 1, entry, /*detach_conflicts=*/false, scratch);
        if (!scratch.conflicts.empty())
            return false;
    }
    // Level li + 1 starts right after level li, so moving the entry to
    // its sorted place there shifts only the entries in between down
    // one slot; level li + 1 keeps its end. Compaction recomputes
    // `may` at its end.
    const size_t to = sortedSlot(li + 1, entry);
    std::copy(segs_.begin() + static_cast<ptrdiff_t>(at) + 1,
              segs_.begin() + static_cast<ptrdiff_t>(to),
              segs_.begin() + static_cast<ptrdiff_t>(at));
    segs_[to - 1] = entry;
    levels_[li].end--;
    return true;
}

void
Group::update(const FittedSegment &fs, MergeScratch &scratch)
{
    SegEntry entry;
    entry.seg = fs.seg;

    if (fs.seg.approximate()) {
        scratch.emptied.clear();
        entry.id = crb_.insertRun(fs.offs, scratch.emptied);
        // Runs emptied by deduplication belong to fully superseded
        // approximate segments; drop them wherever they live. The new
        // entry is not in any level yet, so a reused id is no clash.
        for (const Crb::Emptied &dead : scratch.emptied)
            removeDead(dead);
    }

    insertAt(0, entry, scratch);
}

void
Group::removeDead(const Crb::Emptied &dead)
{
    // The dead segment owned dead.off until the steal, so its range
    // covers it and its level's `may` holds it.
    for (size_t li = 0; li < levels_.size(); li++) {
        if (!levels_[li].may.test(dead.off))
            continue;
        const std::span<const SegEntry> segs = level(li);
        const int i = findCovering(segs, dead.off);
        if (i >= 0 && segs[i].id == dead.id) {
            countErase(segs[i]);
            eraseFromLevel(li, levelBegin(li) + static_cast<size_t>(i), 1);
            return;
        }
    }
    LEAFTL_ASSERT(false, "dead CRB segment not found");
}

std::optional<GroupLookup>
Group::lookup(uint8_t off, const SegEntry **top_hit) const
{
    if (top_hit)
        *top_hit = nullptr;
    for (size_t li = 0; li < levels_.size(); li++) {
        if (!levels_[li].may.test(off))
            continue;
        const std::span<const SegEntry> segs = level(li);
        const int idx = findCovering(segs, off);
        if (idx < 0)
            continue;
        const SegEntry &e = segs[idx];
        if (!hasLpa(e, off))
            continue;
        GroupLookup res;
        res.ppa = e.seg.predict(off);
        res.approximate = e.seg.approximate();
        res.levels_visited = static_cast<uint32_t>(li + 1);
        if (top_hit && li == 0)
            *top_hit = &e;
        return res;
    }
    return std::nullopt;
}

bool
Group::replayAccurate(size_t level_idx, Segment &victim,
                      GroupMask grid) const
{
    bool tight = grid.last() == victim.endOff();
    for (size_t li = 0; li < level_idx; li++) {
        // A step trims a tight victim only by stealing an endpoint, and
        // `may` holds every member of the level's segments.
        if (tight && !levels_[li].may.test(victim.slpa()) &&
            !levels_[li].may.test(victim.endOff()))
            continue;
        const std::span<const SegEntry> segs = level(li);
        for (size_t i = firstEndingAtOrAfter(segs, victim.slpa());
             i < segs.size() && segs[i].seg.slpa() <= victim.endOff();
             i++) {
            // Earlier trims in this level may have moved S past it.
            if (!segs[i].seg.overlaps(victim))
                continue;
            const GroupMask left = grid & ~members(segs[i]);
            if (left.none())
                return false;
            // The trim keeps S on the grid and K as it was, so the
            // trimmed victim's grid is the old one cut to its range.
            victim.trim(left.first(), left.last());
            grid = grid & GroupMask::range(victim.slpa(), victim.endOff());
            tight = true;
        }
    }
    return true;
}

bool
Group::settle(size_t level_idx, SegEntry &victim, const GroupMask &newer,
              const GroupMask &newer_ranges)
{
    const Segment &seg = victim.seg;
    if (!GroupMask::range(seg.slpa(), seg.endOff())
             .intersects(newer_ranges)) {
        // No newer range ever overlapped it: untouched.
        return true;
    }
    if (seg.approximate()) {
        // Closed form: the run loses every newer member, and the range
        // is trimmed to the run even when nothing was stolen.
        const GroupMask run = members(victim);
        const GroupMask left = run & ~newer;
        if (left.none()) {
            crb_.removeRun(victim.id);
            return false;
        }
        victim.seg.trim(left.first(), left.last());
        const GroupMask stolen = run & newer;
        if (stolen.any())
            crb_.removeOffsets(victim.id, stolen);
        return true;
    }
    const GroupMask grid = gridMask(seg);
    if (newer.test(seg.slpa()) || newer.test(seg.endOff()) ||
        grid.last() != seg.endOff()) {
        // Only the pairwise order settles it. With both endpoints on
        // the grid and outside U, no merge step can move it.
        return replayAccurate(level_idx, victim.seg, grid);
    }
    return true;
}

void
Group::compact(MergeScratch &scratch)
{
    // Phase 1: subtract every newer segment's members from every
    // older segment below it (the paper's seg_update-into-lower-level
    // cascade), in one top-down walk. Fully superseded old segments
    // die here; partly superseded ones are trimmed. Placement is
    // untouched, so newer segments stay above the stale interior
    // members of accurate victims they shadow. Survivors slide down
    // over the dead as the walk goes, so the levels above the one
    // being settled are final in place.
    GroupMask newer, newer_ranges;
    size_t kept = 0;
    size_t from = 0; // Where the current level's unsettled entries start.
    for (size_t li = 0; li < levels_.size(); li++) {
        const size_t end = levels_[li].end;
        for (size_t i = from; i < end; i++) {
            SegEntry victim = segs_[i];
            if (li == 0 || settle(li, victim, newer, newer_ranges))
                segs_[kept++] = victim;
            else
                countErase(victim);
        }
        from = end;
        levels_[li].end = static_cast<uint32_t>(kept);
        for (const SegEntry &e : level(li)) {
            newer |= members(e);
            newer_ranges |= GroupMask::range(e.seg.slpa(), e.seg.endOff());
        }
    }
    segs_.resize(kept);

    // Phase 2: sink segments downward wherever no range conflict
    // remains; interleaved member-disjoint segments stay on their
    // levels (they cannot share a sorted run).
    for (size_t li = 0; li + 1 < levels_.size(); li++) {
        for (size_t i = levelBegin(li); i < levels_[li].end;) {
            if (!sinkBelow(li, i, scratch))
                i++;
        }
    }
    dropEmptyLevels();

    // Every merge above only removed members; make `may` exact again.
    for (size_t li = 0; li < levels_.size(); li++) {
        GroupMask may;
        for (const SegEntry &e : level(li))
            may |= members(e);
        levels_[li].may = may;
    }
}

void
Group::dropEmptyLevels()
{
    // An empty level ends where the level above it ends.
    size_t kept = 0;
    uint32_t prev_end = 0;
    for (const LevelHdr &hdr : levels_) {
        if (hdr.end != prev_end)
            levels_[kept++] = hdr;
        prev_end = hdr.end;
    }
    levels_.resize(kept);
}

void
Group::restoreRaw(size_t level, const Segment &seg, const GroupMask &run)
{
    LEAFTL_ASSERT(level + 1 >= levels_.size(),
                  "restored levels must come top-down");
    while (levels_.size() <= level)
        insertLevel(levels_.size());
    SegEntry entry;
    entry.seg = seg;
    if (seg.approximate())
        entry.id = crb_.restoreRun(run);
    LEAFTL_ASSERT(segs_.size() == levelBegin(level) ||
                      segs_.back().seg.endOff() < seg.slpa(),
                  "restored segments must ascend within a level");
    segs_.push_back(entry);
    levels_.back().end++;
    countInsert(entry);
    levels_.back().may |= members(entry);
}

void
Group::checkInvariants() const
{
    size_t approx = 0;
    uint32_t prev_end = 0;
    for (size_t li = 0; li < levels_.size(); li++) {
        LEAFTL_ASSERT(levels_[li].end >= prev_end &&
                          levels_[li].end <= segs_.size(),
                      "level ends out of order or past the segment array");
        prev_end = levels_[li].end;
        const std::span<const SegEntry> segs = level(li);
        for (size_t i = 0; i < segs.size(); i++) {
            const SegEntry &e = segs[i];
            approx += e.seg.approximate() ? 1 : 0;
            LEAFTL_ASSERT(e.seg.endOff() >= e.seg.slpa(),
                          "segment range inverted");
            if (i > 0) {
                const SegEntry &prev = segs[i - 1];
                LEAFTL_ASSERT(prev.seg.endOff() < e.seg.slpa(),
                              "level segments overlap or unsorted");
            }
            const GroupMask m = members(e);
            if (e.seg.approximate()) {
                LEAFTL_ASSERT(m.any(), "approx segment without CRB run");
                LEAFTL_ASSERT(m.first() >= e.seg.slpa() &&
                                  m.last() <= e.seg.endOff(),
                              "CRB run outside segment range");
            }
            LEAFTL_ASSERT((m & ~levels_[li].may).none(),
                          "segment members outside its level's may");
        }
    }
    LEAFTL_ASSERT(prev_end == segs_.size(),
                  "the last level does not end the segment array");
    LEAFTL_ASSERT(segs_.size() == num_segs_, "segment counter out of sync");
    LEAFTL_ASSERT(approx == num_approx_, "approximate counter out of sync");
    LEAFTL_ASSERT(approx == crb_.numRuns(),
                  "CRB runs and approximate segments out of sync");
    crb_.checkInvariants();
}

} // namespace leaftl
