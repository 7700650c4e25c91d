/**
 * @file
 * Per-group log-structured mapping table (§3.4, §3.7, Algorithms 1&2).
 *
 * Each 256-LPA group owns a stack of levels. Level 0 holds the most
 * recently learned segments; lower levels hold older ones. Within a
 * level, segments are sorted by S and their [S, S+L] ranges never
 * overlap, so a level is searched with one binary search; across
 * levels, ranges may overlap and the topmost hit wins (newest mapping).
 *
 * Layout: the group keeps all its segments in one array, the levels
 * concatenated top-down, each sorted by S, and beside it one header
 * per level holding the level's end in that array and its `may` mask.
 * A level is the span from the previous level's end to its own, so
 * inserting or erasing a segment shifts the tail of the array and
 * bumps the ends of its level and every level below; opening a level
 * is a header insert. A GC-heavy stack of ~50 levels holding one or
 * two segments each is then one allocation, not one per level. The
 * bulk moves of compaction avoid tail shifts: phase 1 slides the
 * survivors down in one pass, and phase 2 moves a segment into the
 * next level by rotating only the entries between the two slots.
 *
 * Membership is a GroupMask (group_mask.hh) throughout. members()
 * gives a segment's mask: the stride grid over [S, S+L] (or a single
 * point) for an accurate segment, its CRB run for an approximate one
 * (one indexed load, crb.hh). Each level also carries `may`, a
 * superset of the members of its segments. A lookup walks the levels
 * top-down and binary-searches only those whose `may` holds the
 * offset; on a GC-heavy random workload that skips most of a deep
 * stack. `may` needs no upkeep beyond insertion, because every merge
 * below only removes members: insertSorted() ORs the entry's members
 * in, and compact() recomputes every level's `may` exactly at its end
 * (so the segments it sinks in phase 2 skip the OR).
 *
 * Inserting a new segment merges it against the victims whose ranges
 * overlap it (Algorithm 2); those form one contiguous window of the
 * victim level, found by binary search because a level's ranges are
 * sorted and disjoint. The stolen offsets are `old & new`, the
 * survivors `old & ~new`. A victim with no survivors is dropped;
 * otherwise its range is trimmed to the first and last survivor (K
 * and I never change). A survivor whose range still interleaves the
 * new segment is popped to the next level, or to a dedicated level
 * when the next level also conflicts (avoiding recursion). An
 * approximate segment whose whole run a newer CRB insert stole is
 * dead; the offset whose steal emptied it finds it through the `may`
 * masks and one binary search per candidate level.
 *
 * Compaction (seg_compact) has two phases. Phase 1 subtracts every
 * newer segment's members from every older segment, in the order
 * "each level top-down, each of its segments against every level
 * below it". It is one top-down walk that carries two masks: U, the
 * union of the members of every level above, and R, the union of
 * their ranges. Levels above are final when the walk reaches a level,
 * so each victim is settled once:
 *   - a victim whose range misses R is untouched;
 *   - an approximate victim keeps `run & ~U`, and its range is
 *     trimmed to that run whenever R hits it, even if nothing was
 *     stolen (a CRB insert can leave the range loose);
 *   - an accurate victim has no closed form: its members are
 *     recomputed from the grid at every merge step, so holes stolen by
 *     one newer segment are forgotten at the next and the result
 *     depends on the order. When an endpoint is in U (or the range is
 *     not tight on the grid), the victim alone replays the newer
 *     segments that overlap it, level by level and in order; when
 *     neither endpoint is in U, no step can move it and it is skipped.
 *     For the same reason the replay passes over every level whose
 *     `may` holds neither current endpoint once the victim is tight
 *     (a GC-heavy stack replays through ~40 levels, most of them
 *     without a member at either end).
 * Phase 2 sinks segments into the level below wherever no range
 * conflict remains, reclaiming dead segments and empty levels.
 * Interleaved-but-member-disjoint segments legitimately stay on
 * separate levels (they cannot share a sorted run). A sink merges the
 * entry into the victims of the next level only when that merge can
 * change one: an empty window moves the entry at once, and a window
 * whose victims are all approximate, or accurate with neither
 * endpoint among the entry's members, is a conflict as it stands.
 * Those merges are no-ops because a window victim overlaps the entry,
 * overlapping segments never share a level, and phase 2 never moves
 * one past another, so the victim lay below the entry in phase 1 and
 * was settled against a U holding members(entry) (ranges and members
 * only shrink). Phase 1 left an approximate victim's run disjoint from U
 * and its range tight on the run, and an accurate victim tight on its
 * grid (replayed, or skipped because it already was); a merge that
 * misses both endpoints of a tight grid trims it to itself. Earlier
 * phase-2 merges keep both properties, as each trims a victim to what
 * it keeps. On GC-heavy random runs nearly every sink attempt is one
 * of those two cases; the rest run the one merge code, mergeVictims.
 *
 * Hot-path design: no step of update() or compact() allocates once
 * the group's two arrays, its CRB and the caller's MergeScratch have
 * grown to their high-water marks -- every buffer is cleared or
 * erased in place, never shrunk (test_alloc_free pins this). Segment /
 * approximate counts are maintained incrementally (numSegments(),
 * numApproximate() and memoryBytes() are O(1) reads), and segment
 * visitation is a template so reporting loops pay no std::function
 * indirection.
 */

#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "learned/crb.hh"
#include "learned/group_mask.hh"
#include "learned/plr.hh"
#include "learned/segment.hh"
#include "util/common.hh"

namespace leaftl
{

/** Result of a group lookup. */
struct GroupLookup
{
    Ppa ppa;                 ///< Predicted PPA (exact if !approximate).
    bool approximate;        ///< True when served by an approximate segment.
    uint32_t levels_visited; ///< Levels searched, including the hit.
};

/** A segment plus its CRB identity (valid only when approximate). */
struct SegEntry
{
    Segment seg;
    Crb::SegId id = Crb::kNoSeg;
};
static_assert(sizeof(SegEntry) == 12, "a level entry is 8 B + id + pad");

/**
 * Reusable scratch state for the segment-merge procedure: one arena
 * per table -- every buffer is cleared, never shrunk, between merges.
 */
struct MergeScratch
{
    std::vector<SegEntry> conflicts;   ///< Range-conflicting survivors.
    std::vector<Crb::Emptied> emptied; ///< Runs emptied by CRB dedup.
};

/** Log-structured mapping table for one 256-LPA group. */
class Group
{
  public:
    Group() = default;

    /** Drop every segment and CRB run, keeping the storage. */
    void clear();

    /**
     * Insert a freshly learned segment (Algorithm 1, seg_update at the
     * topmost level). Registers approximate members in the CRB, merges
     * overlapping victims, and keeps level 0 sorted.
     */
    void update(const FittedSegment &fs, MergeScratch &scratch);

    /** Convenience overload with a throwaway scratch (tests). */
    void
    update(const FittedSegment &fs)
    {
        MergeScratch scratch;
        update(fs, scratch);
    }

    /**
     * Translate a group offset; nullopt when the LPA was never learned.
     * On a hit served by level 0, @a top_hit (when non-null) receives
     * the serving entry -- the table's last-hit lookup cache keys on
     * it; the pointer is valid until the next mutation of this group.
     */
    std::optional<GroupLookup>
    lookup(uint8_t off, const SegEntry **top_hit = nullptr) const;

    /**
     * Full membership test: range + stride grid for accurate segments,
     * range + CRB ownership for approximate ones (Algorithm 2,
     * has_lpa). Public so the table's lookup cache can revalidate a
     * remembered level-0 entry without a level scan.
     */
    bool hasLpa(const SegEntry &e, uint8_t off) const;

    /**
     * The offsets @a e maps: its stride grid over [S, S+L] (a single
     * point when L = 0) if accurate, its CRB run if approximate.
     */
    GroupMask members(const SegEntry &e) const;

    /** Compact levels (Algorithm 1, seg_compact). */
    void compact(MergeScratch &scratch);

    /** Convenience overload with a throwaway scratch (tests). */
    void
    compact()
    {
        MergeScratch scratch;
        compact(scratch);
    }

    size_t numLevels() const { return levels_.size(); }
    size_t numSegments() const { return num_segs_; }
    size_t numApproximate() const { return num_approx_; }

    /** Mapping memory: 8 bytes per segment plus the CRB bytes (O(1)). */
    size_t
    memoryBytes() const
    {
        return num_segs_ * Segment::kEncodedBytes + crb_.sizeBytes();
    }

    const Crb &crb() const { return crb_; }

    /** Visit every live segment (topmost level first): fn(entry, level). */
    template <typename Fn>
    void
    forEachSegment(Fn &&fn) const
    {
        for (size_t li = 0; li < levels_.size(); li++) {
            for (const SegEntry &e : level(li))
                fn(e, li);
        }
    }

    /** Validate internal invariants; aborts on violation (tests). */
    void checkInvariants() const;

    /**
     * Recovery path: append a deserialized segment to level @a level
     * without merging (the serialized state already satisfies the
     * invariants). Blobs list levels top-down and each level sorted by
     * S, so @a level is the last level or a new one below it, and the
     * segment starts past the level's last one. @a run holds the CRB
     * offsets for approximate segments (ignored otherwise).
     */
    void restoreRaw(size_t level, const Segment &seg, const GroupMask &run);

  private:
    /** One level: where it ends in segs_, and its lookup filter. */
    struct LevelHdr
    {
        uint32_t end; ///< One past the level's last entry in segs_.
        GroupMask may; ///< Superset of the members of its segments.
    };

    /** Index in segs_ of level @a li's first entry. */
    size_t
    levelBegin(size_t li) const
    {
        return li == 0 ? 0 : levels_[li - 1].end;
    }

    /** Level @a li's entries: sorted by S, ranges disjoint. */
    std::span<const SegEntry>
    level(size_t li) const
    {
        return {segs_.data() + levelBegin(li), segs_.data() + levels_[li].end};
    }

    /**
     * Merge @a entry against overlapping victims of @a level_idx and
     * then insert it there, popping conflicting victims down (runtime
     * behavior of Algorithm 1).
     */
    void insertAt(size_t level_idx, const SegEntry &entry,
                  MergeScratch &scratch);

    /**
     * Compaction phase 2: merge the entry at segs_[@a at] in level
     * @a li into the victims of level li + 1, and move it there when
     * no range conflict survives. The merge runs only when it can
     * change a victim (see the file comment).
     * @return true when the entry moved (the next entry of level li,
     *         if any, is now at @a at).
     */
    bool sinkBelow(size_t li, size_t at, MergeScratch &scratch);

    /**
     * Shared merge step: apply Algorithm 2 to every victim of
     * @a entry in @a level_idx. Dead victims are removed. Surviving
     * range-conflicting victims are collected into scratch.conflicts
     * (removed from the level when @a detach_conflicts is set).
     */
    void mergeVictims(size_t level_idx, const SegEntry &entry,
                      bool detach_conflicts, MergeScratch &scratch);

    /**
     * Compaction phase 1 for one victim of @a level_idx: subtract the
     * members @a newer of every level above when its range meets the
     * ranges @a newer_ranges of those levels (see the file comment).
     * @return false when the victim dies (its CRB run is freed).
     */
    bool settle(size_t level_idx, SegEntry &victim, const GroupMask &newer,
                const GroupMask &newer_ranges);

    /**
     * Replay the pairwise merge steps for one accurate victim of
     * @a level_idx, whose stride grid is @a grid: every segment above
     * it, level by level and in order, whose range overlaps the
     * victim's current range. Once the victim is tight on its grid
     * (its end is a grid point), levels whose `may` holds neither
     * endpoint are skipped: no step there can move it.
     * @return false when the victim dies.
     */
    bool replayAccurate(size_t level_idx, Segment &victim,
                        GroupMask grid) const;

    /** Pop a victim below @a from_level (Algorithm 1 lines 13-16). */
    void pushVictimDown(size_t from_level, const SegEntry &victim);

    /**
     * Remove the dead approximate segment whose run the CRB emptied;
     * @a dead.off still lies in its range and in its level's `may`.
     */
    void removeDead(const Crb::Emptied &dead);

    /** Index in segs_ at which @a entry keeps level @a li sorted by S. */
    size_t sortedSlot(size_t li, const SegEntry &entry) const;

    /** Insert @a entry into level @a li in S order; add it to `may`. */
    void insertSorted(size_t li, const SegEntry &entry);

    /** Open an empty level at @a li (the old level li moves to li + 1). */
    void insertLevel(size_t li);

    /**
     * Remove segs_[at, at + n) from level @a li, which holds them; the
     * caller has already retired them from the counters.
     */
    void eraseFromLevel(size_t li, size_t at, size_t n);

    void dropEmptyLevels();

    /** Incremental segment-count bookkeeping (every mutation site). */
    void
    countInsert(const SegEntry &e)
    {
        num_segs_++;
        if (e.seg.approximate())
            num_approx_++;
    }

    void
    countErase(const SegEntry &e)
    {
        num_segs_--;
        if (e.seg.approximate())
            num_approx_--;
    }

    /** Every level's entries, the levels concatenated top-down. */
    std::vector<SegEntry> segs_;
    std::vector<LevelHdr> levels_; ///< [0] is the topmost (newest).
    Crb crb_;
    uint32_t num_segs_ = 0;   ///< Live segments across all levels.
    uint32_t num_approx_ = 0; ///< Live approximate segments.
};

} // namespace leaftl
