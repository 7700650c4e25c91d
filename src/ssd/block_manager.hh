/**
 * @file
 * Flash block management: the free-block pool, the Block Validity
 * Counter (BVC) and Page Validity Table (PVT) of Fig. 3, greedy GC
 * victim selection (§3.6).
 *
 * Victim selection is served from an incrementally maintained index:
 * every programmed block sits in a valid-count bucket (an intrusive
 * doubly-linked list over per-block u32 links), updated on
 * markValidRun/invalidate/invalidateBlock and dropped at releaseBlock.
 * `pickGcVictim` therefore walks buckets from emptiest upward instead
 * of scanning every block on the device, while preserving the old scan's
 * lowest-index-among-min tie-break exactly.
 */

#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "flash/flash_array.hh"
#include "util/bitmap.hh"
#include "util/common.hh"

namespace leaftl
{

/**
 * Free pool + validity metadata + GC victim policy.
 *
 * Memory model: like FlashArray's page-LPA store, the PVT is sparse at
 * block granularity. A block's validity bitmap is materialized on its
 * first markValidRun and released when the erased block returns to the
 * free pool, so PVT memory is O(totalBlocks + live blocks *
 * pages_per_block / 8) instead of O(totalPages / 8) -- at the paper's
 * 2 TB scale that is the difference between ~16 MB always-resident and
 * a footprint that tracks the live working set.
 */
class BlockManager
{
  public:
    explicit BlockManager(FlashArray &flash);

    /**
     * Allocate a free block for data writes (round-robin over the free
     * pool, which naturally stripes across channels).
     * @return Block id; aborts if the pool is empty (GC must keep it
     *         non-empty -- an emptied pool is an invariant violation).
     */
    uint32_t allocateBlock();

    /** Return an erased block to the free pool. */
    void releaseBlock(uint32_t block);

    /**
     * Mark @a n freshly programmed pages valid, starting at @a first
     * and all inside one block: sets their PVT bits, adds @a n to the
     * BVC and moves the block's victim-index entry once.
     */
    void markValidRun(Ppa first, uint32_t n);

    /** Invalidate a page whose LPA was overwritten. */
    void invalidate(Ppa ppa);

    /**
     * Invalidate every valid page of @a block (its survivors were
     * migrated): clears the PVT, zeroes the BVC, one index move.
     */
    void invalidateBlock(uint32_t block);

    bool
    isValid(Ppa ppa) const
    {
        const Bitmap *pvt = pvt_[flash_.geometry().blockOf(ppa)].get();
        return pvt && pvt->test(flash_.geometry().pageInBlock(ppa));
    }

    /** Valid-page count of a block (the BVC). */
    uint32_t validCount(uint32_t block) const { return valid_count_[block]; }

    /**
     * Greedy GC victim: the programmed (Open or Full), non-free block
     * with the fewest valid pages (§3.6). Blocks in @a exclude are
     * skipped (multi-victim GC passes). @return nullopt when no
     * candidate exists.
     */
    std::optional<uint32_t>
    pickGcVictim(const std::vector<uint32_t> &exclude = {}) const;

    size_t freeBlocks() const { return free_pool_.size(); }
    double freeFraction() const;

    /** Valid LPAs of a block in PPA order (GC migration source). */
    std::vector<std::pair<Lpa, Ppa>> validPages(uint32_t block) const;

    /**
     * Scratch-buffer overload: append the block's valid (LPA, PPA)
     * pairs to @a out, walking the PVT a word at a time. The GC
     * migrate loop reuses one buffer across victims, avoiding a
     * vector allocation per reclaimed block.
     */
    void validPages(uint32_t block,
                    std::vector<std::pair<Lpa, Ppa>> &out) const;

    /** Erase-count spread across all blocks (a reported statistic). */
    uint32_t eraseSpread() const { return flash_.eraseSpread(); }

    /** Blocks whose PVT bitmap is currently materialized. */
    size_t residentPvtBlocks() const { return resident_pvt_; }

    /**
     * Bytes of PVT state currently resident: the fixed per-block
     * pointer table plus one bitmap per materialized block.
     */
    uint64_t pvtResidentBytes() const;

    /** GC victim-selection cost counters (CSV-exported). */
    uint64_t gcPickCalls() const { return gc_pick_calls_; }
    uint64_t gcPickScanned() const { return gc_pick_scanned_; }

  private:
    static constexpr uint32_t kNilBlock = 0xFFFFFFFFu;

    /** The block's bitmap, allocated (all-invalid) on first use. */
    Bitmap &materializePvt(uint32_t block);

    void bucketUnlink(uint32_t block, uint32_t count);
    void bucketLinkFront(uint32_t block, uint32_t count);

    FlashArray &flash_;
    std::deque<uint32_t> free_pool_;
    std::vector<uint32_t> valid_count_; ///< BVC.
    /** Per-block validity bitmap, materialized on first markValidRun. */
    std::vector<std::unique_ptr<Bitmap>> pvt_;
    std::vector<bool> in_free_pool_;
    size_t resident_pvt_ = 0;

    /**
     * GC victim index: bucket_head_[c] chains (via gc_prev_/gc_next_)
     * the indexed blocks whose BVC is c. A block joins on its first
     * markValidRun after allocation and leaves at releaseBlock, so index
     * membership == "programmed since last release" and the pick-time
     * in_free_pool_/blockState re-check below matches the old
     * full-scan candidate set exactly.
     */
    std::vector<uint32_t> bucket_head_; ///< [0 .. pages_per_block].
    std::vector<uint32_t> gc_prev_;
    std::vector<uint32_t> gc_next_;
    std::vector<uint8_t> in_victim_index_;

    /** Generation-stamped exclude marks: pickGcVictim bumps the
     *  generation instead of clearing a per-block array per call. */
    mutable std::vector<uint64_t> exclude_stamp_;
    mutable uint64_t exclude_gen_ = 0;

    mutable uint64_t gc_pick_calls_ = 0;
    mutable uint64_t gc_pick_scanned_ = 0;
};

} // namespace leaftl
