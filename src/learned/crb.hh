/**
 * @file
 * Conflict Resolution Buffer (CRB, §3.4, Fig. 9).
 *
 * Approximate segments are learned from irregular LPA patterns, so
 * their member LPAs cannot be recomputed from (S, L, K, I). Each group
 * keeps one CRB that stores, per approximate segment, the exact set
 * of member offsets. The paper lays the CRB out as a nearly-sorted
 * byte array with null separators and identifies a run by its first
 * LPA. Here the CRB hands out the run id itself: a slot in a vector
 * of GroupMasks, recycled through a free list once its run is gone.
 * That removes the paper's "bump the old segment's S when starting
 * LPAs collide" dance with the same semantics, and a run's members
 * are one indexed load. Memory is still charged the paper's way: one
 * byte per stored offset plus one separator byte per run.
 *
 * Invariants mirror the paper's:
 *   - an offset belongs to at most one run group-wide (newest owner
 *     wins: an insert steals the offsets older runs held), and the
 *     reverse index owner_ agrees with the run masks exactly;
 *   - a live run is never empty; a freed slot holds an empty mask.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "learned/group_mask.hh"
#include "util/common.hh"

namespace leaftl
{

/** Per-group conflict resolution buffer for approximate segments. */
class Crb
{
  public:
    /**
     * Run id: a slot index. Live runs own disjoint non-empty offset
     * sets and freed slots are reused first, so ids stay below
     * kGroupSpan.
     */
    using SegId = uint16_t;
    static constexpr SegId kNoSeg = 0xFFFFu;

    /** A run that an insert emptied, and the offset whose steal did. */
    struct Emptied
    {
        SegId id;
        uint8_t off;
    };

    Crb();

    /**
     * Register the member offsets of a new approximate segment and
     * return its run id. Offsets already owned by other runs move to
     * the new run. Runs left empty are freed and reported, each with
     * the offset whose steal emptied it, so the caller can find and
     * drop the corresponding dead segments.
     *
     * @param offs Member offsets (non-empty).
     * @param[out] emptied Appended with the runs that lost their last
     *             offset, in ascending order of that offset.
     */
    SegId insertRun(const GroupMask &offs, std::vector<Emptied> &emptied);

    /** Membership test: does segment @a id own offset @a off? */
    bool contains(SegId id, uint8_t off) const { return owner_[off] == id; }

    /** Owner of @a off, or kNoSeg. */
    SegId owner(uint8_t off) const { return owner_[off]; }

    /** Member offsets of live run @a id. */
    const GroupMask &mask(SegId id) const { return runs_[id]; }

    /**
     * Remove @a offs from run @a id (merge trimming); offsets the run
     * does not own are ignored. @return true if the run became empty
     * (it is freed).
     */
    bool removeOffsets(SegId id, const GroupMask &offs);

    /** Drop a whole run (segment removed) and free its id. */
    void removeRun(SegId id);

    /**
     * Recovery path: attach a run without deduplication (the
     * serialized state is already deduplicated) and return its id.
     */
    SegId restoreRun(const GroupMask &offs);

    /** Drop every run, keeping the storage (a restore in place). */
    void clear();

    /** Number of live runs. */
    size_t numRuns() const { return runs_.size() - free_.size(); }

    /** Offsets stored across all live runs. */
    size_t storedOffsets() const { return stored_offs_; }

    /**
     * Memory footprint in bytes using the paper's accounting: one byte
     * per offset plus a one-byte separator per run. Maintained
     * incrementally, so this is an O(1) read on the learn hot path
     * and in every reporter tick.
     */
    size_t sizeBytes() const { return storedOffsets() + numRuns(); }

    /**
     * Verify the accounting, the free list and that owner_ agrees
     * with the run masks exactly; aborts on violation (tests).
     */
    void checkInvariants() const;

  private:
    /** Take a free slot (or grow) and fill it with @a offs. */
    SegId allocate(const GroupMask &offs);

    /** Assert that @a id names a live run. */
    void checkLive(SegId id) const;

    /** Run masks indexed by id; freed slots hold an empty mask. */
    std::vector<GroupMask> runs_;
    /** Freed slots, reused last-in first-out. */
    std::vector<SegId> free_;
    /** Reverse index: offset -> owning approximate segment. */
    SegId owner_[kGroupSpan];
    /** Total offsets across all runs (incremental sizeBytes). */
    size_t stored_offs_ = 0;
};

} // namespace leaftl
