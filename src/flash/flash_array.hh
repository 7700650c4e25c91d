/**
 * @file
 * The NAND flash array model: per-page written LPA (the page "data"
 * identity), per-block program pointer and erase counts, and the OOB
 * reverse-mapping view used for misprediction recovery (§3.5).
 *
 * NAND semantics enforced: pages are programmed in order inside a
 * block, a programmed page cannot be reprogrammed until its block is
 * erased, and erase works at block granularity only.
 *
 * OOB model: the paper stores, in each page's OOB, the LPAs of its
 * neighbor PPAs [p - gamma, p + gamma] within the same block (entries
 * beyond the block boundary are null). Because a block is written in
 * one buffer flush and is immutable until erased, the neighbor LPAs at
 * read time equal those at write time, so the array serves OOB queries
 * from the per-page LPA store instead of duplicating them per page.
 *
 * Memory model: the per-page LPA store is sparse at block granularity.
 * A block's LPA array is allocated on its first program and released
 * on erase, so resident memory is O(totalBlocks + live blocks * pages
 * per block), not O(totalPages). A freshly constructed paper-scale
 * (2 TB, ~512M page) array therefore costs megabytes, not gigabytes,
 * and a mostly-empty device stays cheap for its whole lifetime.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "flash/geometry.hh"
#include "util/common.hh"

namespace leaftl
{

/** Raw flash operation counters (basis of WAF, Fig. 25). */
struct FlashCounters
{
    uint64_t page_reads = 0;
    uint64_t page_writes = 0;
    uint64_t block_erases = 0;
};

/** Lifecycle of a block. */
enum class BlockState : uint8_t
{
    Free,  ///< Erased, no pages programmed.
    Open,  ///< Partially programmed.
    Full,  ///< All pages programmed.
};

/** The flash array. */
class FlashArray
{
  public:
    explicit FlashArray(const Geometry &geom);

    const Geometry &geometry() const { return geom_; }

    /**
     * Program the next page of a block.
     *
     * @param ppa Must be the block's next unwritten page.
     * @param lpa Host LPA carried in the page (and its OOB self-entry).
     */
    void programPage(Ppa ppa, Lpa lpa);

    /** Read a page; returns the LPA it carries (kInvalidLpa if unwritten). */
    Lpa
    readPage(Ppa ppa)
    {
        counters_.page_reads++;
        return peekLpa(ppa);
    }

    /**
     * Count @a n page reads whose LPAs the caller takes through
     * peekLpa: a GC victim's survivors, read as one batch.
     */
    void countReads(uint64_t n) { counters_.page_reads += n; }

    /** Peek the carried LPA without charging a read (internal checks). */
    Lpa
    peekLpa(Ppa ppa) const
    {
        LEAFTL_ASSERT(ppa < geom_.totalPages(), "peek out of range");
        const Lpa *store = blockStore(geom_.blockOf(ppa));
        return store ? store[geom_.pageInBlock(ppa)] : kInvalidLpa;
    }

    /**
     * OOB reverse-mapping window around @a ppa: the LPAs of PPAs
     * [ppa - gamma, ppa + gamma] clipped to the block (kInvalidLpa for
     * out-of-block or unwritten slots). Reading the page at @a ppa
     * already transfers its OOB, so this costs no extra flash access.
     */
    std::vector<Lpa> oobWindow(Ppa ppa, uint32_t gamma) const;

    /**
     * Same window, written into a caller-provided scratch buffer
     * (resized to 2*g + 1). The misprediction-recovery hot path calls
     * this once per approximate translation; reusing one buffer there
     * avoids a heap allocation per lookup.
     */
    void oobWindow(Ppa ppa, uint32_t gamma, std::vector<Lpa> &window) const;

    /** Erase a block, resetting its pages and bumping its wear. */
    void eraseBlock(uint32_t block);

    BlockState blockState(uint32_t block) const;
    uint32_t writePointer(uint32_t block) const;
    uint32_t eraseCount(uint32_t block) const;

    /**
     * Wear statistics, maintained incrementally at eraseBlock time:
     * a histogram of blocks per erase count plus running min/max, so
     * the spread query is O(1) instead of a device-wide rescan. The
     * min only ever advances (erase counts never decrease), making
     * its catch-up loop amortized O(1).
     */
    uint32_t minEraseCount() const { return min_erase_; }
    uint32_t maxEraseCount() const { return max_erase_; }
    uint32_t eraseSpread() const { return max_erase_ - min_erase_; }

    /**
     * Intrusive per-erase-count block lists (wear buckets): first
     * block with erase count @a count (kNilBlock if none), and the
     * chain link. Lets wear-leveling visit only blocks at the lowest
     * wear instead of scanning the whole device.
     */
    static constexpr uint32_t kNilBlock = 0xFFFFFFFFu;
    uint32_t eraseBucketHead(uint32_t count) const
    {
        return count < erase_head_.size() ? erase_head_[count] : kNilBlock;
    }
    uint32_t eraseBucketNext(uint32_t block) const
    {
        return erase_next_[block];
    }

    const FlashCounters &counters() const { return counters_; }

    /** Blocks whose LPA array is currently materialized. */
    size_t residentBlocks() const { return resident_blocks_; }

    /**
     * Bytes of the page-LPA store currently resident: the fixed
     * per-block tables plus one LPA array per materialized block.
     * This is the quantity the paper-scale smoke tests bound.
     */
    uint64_t residentBytes() const;

  private:
    /** LPA array of @a block, or nullptr while it is unmaterialized. */
    const Lpa *blockStore(uint32_t block) const
    {
        return block_lpa_[block].get();
    }

    void bucketUnlink(uint32_t block, uint32_t count);
    void bucketLinkFront(uint32_t block, uint32_t count);

    Geometry geom_;
    /** Per block: LPA per page, allocated on first program (sparse). */
    std::vector<std::unique_ptr<Lpa[]>> block_lpa_;
    std::vector<uint32_t> write_ptr_;  ///< Per block: next page to program.
    std::vector<uint32_t> erase_cnt_;  ///< Per block.
    /** Blocks per erase count (index = count), grown on demand. */
    std::vector<uint64_t> erase_hist_;
    /** Wear-bucket list heads (index = erase count). */
    std::vector<uint32_t> erase_head_;
    std::vector<uint32_t> erase_prev_; ///< Per block, wear-bucket link.
    std::vector<uint32_t> erase_next_; ///< Per block, wear-bucket link.
    uint32_t min_erase_ = 0;
    uint32_t max_erase_ = 0;
    size_t resident_blocks_ = 0;
    FlashCounters counters_;
};

} // namespace leaftl
