#include "learned/group.hh"

#include <algorithm>

namespace leaftl
{

namespace
{

/** Binary search: index of the segment covering @a off, or -1. */
int
findCovering(const std::vector<SegEntry> &segs, uint8_t off)
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
firstEndingAtOrAfter(const std::vector<SegEntry> &segs, uint8_t off)
{
    return static_cast<size_t>(
        std::partition_point(segs.begin(), segs.end(),
                             [off](const SegEntry &e) {
                                 return e.seg.endOff() < off;
                             }) -
        segs.begin());
}

/**
 * The stride grid of an accurate segment over [S, S+L] (just S when
 * L = 0).
 */
GroupMask
gridMask(const Segment &seg)
{
    GroupMask m;
    if (seg.singlePoint()) {
        m.set(seg.slpa());
        return m;
    }
    const uint32_t d = seg.stride();
    if (d == 1)
        return GroupMask::range(seg.slpa(), seg.endOff());
    for (uint32_t off = seg.slpa(); off <= seg.endOff(); off += d)
        m.set(static_cast<uint8_t>(off));
    return m;
}

} // namespace

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

void
Group::placeSorted(Level &level, const SegEntry &entry)
{
    auto it = std::lower_bound(
        level.segs.begin(), level.segs.end(), entry,
        [](const SegEntry &a, const SegEntry &b) {
            return a.seg.slpa() < b.seg.slpa();
        });
    level.segs.insert(it, entry);
    countInsert(entry);
}

void
Group::insertSorted(Level &level, const SegEntry &entry)
{
    placeSorted(level, entry);
    level.may |= members(entry);
}

void
Group::mergeVictims(size_t level_idx, const SegEntry &entry,
                    bool detach_conflicts, MergeScratch &scratch)
{
    Level &level = levels_[level_idx];
    scratch.conflicts.clear();
    const GroupMask newer = members(entry);

    // Every victim in the window overlaps the entry's range.
    size_t i = firstEndingAtOrAfter(level.segs, entry.seg.slpa());
    while (i < level.segs.size() &&
           level.segs[i].seg.slpa() <= entry.seg.endOff()) {
        SegEntry &victim = level.segs[i];

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
            level.segs.erase(level.segs.begin() + i);
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
                level.segs.erase(level.segs.begin() + i);
                continue;
            }
        }
        i++;
    }
}

void
Group::pushVictimDown(size_t from_level, const SegEntry &victim)
{
    const size_t below = from_level + 1;
    if (below >= levels_.size()) {
        levels_.emplace_back();
        insertSorted(levels_.back(), victim);
        return;
    }
    // If the next level has no range conflict with the victim, it can
    // join that sorted run; otherwise it gets a dedicated level to
    // avoid recursive pops (and to preserve recency ordering).
    const std::vector<SegEntry> &next = levels_[below].segs;
    const size_t i = firstEndingAtOrAfter(next, victim.seg.slpa());
    if (i < next.size() && next[i].seg.slpa() <= victim.seg.endOff())
        levels_.insert(levels_.begin() + below, Level{});
    insertSorted(levels_[below], victim);
}

void
Group::insertAt(size_t level_idx, const SegEntry &entry,
                MergeScratch &scratch)
{
    while (levels_.size() <= level_idx)
        levels_.emplace_back();

    mergeVictims(level_idx, entry, /*detach_conflicts=*/true, scratch);
    // Pop detached victims below. Order within the new level is
    // restored by sorted insertion. pushVictimDown never merges, so
    // scratch.conflicts is stable across the loop.
    for (const SegEntry &victim : scratch.conflicts)
        pushVictimDown(level_idx, victim);

    insertSorted(levels_[level_idx], entry);
}

bool
Group::tryInsertAt(size_t level_idx, const SegEntry &entry,
                   MergeScratch &scratch)
{
    mergeVictims(level_idx, entry, /*detach_conflicts=*/false, scratch);
    if (!scratch.conflicts.empty())
        return false;
    // Only compaction sinks entries; it recomputes `may` at its end.
    placeSorted(levels_[level_idx], entry);
    return true;
}

void
Group::update(const FittedSegment &fs, MergeScratch &scratch)
{
    SegEntry entry;
    entry.seg = fs.seg;

    if (fs.seg.approximate()) {
        GroupMask offs;
        for (uint8_t off : fs.offs)
            offs.set(off);
        scratch.emptied.clear();
        entry.id = crb_.insertRun(offs, scratch.emptied);
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
    for (Level &level : levels_) {
        if (!level.may.test(dead.off))
            continue;
        const int i = findCovering(level.segs, dead.off);
        if (i >= 0 && level.segs[i].id == dead.id) {
            countErase(level.segs[i]);
            level.segs.erase(level.segs.begin() + i);
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
        const Level &level = levels_[li];
        if (!level.may.test(off))
            continue;
        const int idx = findCovering(level.segs, off);
        if (idx < 0)
            continue;
        const SegEntry &e = level.segs[idx];
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
Group::replayAccurate(size_t level_idx, Segment &victim) const
{
    for (size_t li = 0; li < level_idx; li++) {
        const std::vector<SegEntry> &segs = levels_[li].segs;
        for (size_t i = firstEndingAtOrAfter(segs, victim.slpa());
             i < segs.size() && segs[i].seg.slpa() <= victim.endOff();
             i++) {
            // Earlier trims in this level may have moved S past it.
            if (!segs[i].seg.overlaps(victim))
                continue;
            const GroupMask left = gridMask(victim) & ~members(segs[i]);
            if (left.none())
                return false;
            victim.trim(left.first(), left.last());
        }
    }
    return true;
}

void
Group::settleLevel(size_t level_idx, const GroupMask &newer,
                   const GroupMask &newer_ranges)
{
    std::vector<SegEntry> &segs = levels_[level_idx].segs;
    size_t kept = 0;
    for (SegEntry &victim : segs) {
        const Segment &seg = victim.seg;
        bool alive = true;
        if (!GroupMask::range(seg.slpa(), seg.endOff())
                 .intersects(newer_ranges)) {
            // No newer range ever overlapped it: untouched.
        } else if (seg.approximate()) {
            // Closed form: the run loses every newer member, and the
            // range is trimmed to the run even when nothing was stolen.
            const GroupMask run = members(victim);
            const GroupMask left = run & ~newer;
            alive = left.any();
            if (alive) {
                victim.seg.trim(left.first(), left.last());
                crb_.removeOffsets(victim.id, run & newer);
            } else {
                crb_.removeRun(victim.id);
            }
        } else if (newer.test(seg.slpa()) || newer.test(seg.endOff()) ||
                   gridMask(seg).last() != seg.endOff()) {
            // Only the pairwise order settles it. With both endpoints
            // on the grid and outside U, no merge step can move it.
            alive = replayAccurate(level_idx, victim.seg);
        }
        if (alive) {
            segs[kept++] = victim;
        } else {
            countErase(victim);
        }
    }
    segs.resize(kept);
}

void
Group::compact(MergeScratch &scratch)
{
    // Phase 1: subtract every newer segment's members from every
    // older segment below it (the paper's seg_update-into-lower-level
    // cascade), in one top-down walk. Fully superseded old segments
    // die here; partly superseded ones are trimmed. Placement is
    // untouched, so newer segments stay above the stale interior
    // members of accurate victims they shadow.
    GroupMask newer, newer_ranges;
    for (size_t li = 0; li < levels_.size(); li++) {
        if (li > 0)
            settleLevel(li, newer, newer_ranges);
        for (const SegEntry &e : levels_[li].segs) {
            newer |= members(e);
            newer_ranges |= GroupMask::range(e.seg.slpa(), e.seg.endOff());
        }
    }

    // Phase 2: sink segments downward wherever no range conflict
    // remains; interleaved member-disjoint segments stay on their
    // levels (they cannot share a sorted run). The merge only touches
    // the level below, so the entry can be sunk before its upper-level
    // copy is erased.
    for (size_t li = 0; li + 1 < levels_.size(); li++) {
        Level &upper = levels_[li];
        for (size_t i = 0; i < upper.segs.size();) {
            const SegEntry entry = upper.segs[i];
            if (tryInsertAt(li + 1, entry, scratch)) {
                countErase(upper.segs[i]);
                upper.segs.erase(upper.segs.begin() + i);
            } else {
                i++;
            }
        }
    }
    dropEmptyLevels();

    // Every merge above only removed members; make `may` exact again.
    for (Level &level : levels_) {
        level.may = GroupMask();
        for (const SegEntry &e : level.segs)
            level.may |= members(e);
    }
}

void
Group::dropEmptyLevels()
{
    levels_.erase(std::remove_if(levels_.begin(), levels_.end(),
                                 [](const Level &l) {
                                     return l.segs.empty();
                                 }),
                  levels_.end());
}

void
Group::restoreRaw(size_t level, const Segment &seg, const GroupMask &run)
{
    while (levels_.size() <= level)
        levels_.emplace_back();
    SegEntry entry;
    entry.seg = seg;
    if (seg.approximate())
        entry.id = crb_.restoreRun(run);
    insertSorted(levels_[level], entry);
}

void
Group::checkInvariants() const
{
    size_t segs = 0, approx = 0;
    for (const Level &level : levels_) {
        for (size_t i = 0; i < level.segs.size(); i++) {
            const SegEntry &e = level.segs[i];
            segs++;
            approx += e.seg.approximate() ? 1 : 0;
            LEAFTL_ASSERT(e.seg.endOff() >= e.seg.slpa(),
                          "segment range inverted");
            if (i > 0) {
                const SegEntry &prev = level.segs[i - 1];
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
            LEAFTL_ASSERT((m & ~level.may).none(),
                          "segment members outside its level's may");
        }
    }
    LEAFTL_ASSERT(segs == num_segs_, "segment counter out of sync");
    LEAFTL_ASSERT(approx == num_approx_, "approximate counter out of sync");
    LEAFTL_ASSERT(approx == crb_.numRuns(),
                  "CRB runs and approximate segments out of sync");
    crb_.checkInvariants();
}

} // namespace leaftl
