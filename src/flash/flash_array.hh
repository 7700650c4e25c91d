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

    /**
     * The LPA the page at @a ppa carries (kInvalidLpa if unwritten).
     * The array keeps no operation counts: the Ssd charges each flash
     * access it models to its channel and its SsdStats.
     */
    Lpa
    peekLpa(Ppa ppa) const
    {
        LEAFTL_ASSERT(ppa < geom_.totalPages(), "peek out of range");
        const Lpa *store = blockStore(geom_.blockOf(ppa));
        return store ? store[geom_.pageInBlock(ppa)] : kInvalidLpa;
    }

    /**
     * OOB reverse-mapping window around @a ppa, written into @a window
     * (resized to 2*g + 1, g = gamma clipped to the OOB's entries): the
     * LPAs of PPAs [ppa - g, ppa + g] clipped to the block (kInvalidLpa
     * for out-of-block or unwritten slots). Reading the page at @a ppa
     * already transfers its OOB, so this costs no extra flash access.
     * The misprediction-recovery hot path calls this once per
     * approximate translation; reusing one buffer there avoids a heap
     * allocation per lookup.
     */
    void oobWindow(Ppa ppa, uint32_t gamma, std::vector<Lpa> &window) const;

    /** Erase a block, resetting its pages and bumping its erase count. */
    void eraseBlock(uint32_t block);

    BlockState blockState(uint32_t block) const;
    uint32_t writePointer(uint32_t block) const;
    uint32_t eraseCount(uint32_t block) const;

    /**
     * Erase-count spread, max - min over every block. A device-wide
     * scan: only end-of-run reporting calls it, nothing on the I/O
     * path.
     */
    uint32_t eraseSpread() const;

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

    Geometry geom_;
    /** Per block: LPA per page, allocated on first program (sparse). */
    std::vector<std::unique_ptr<Lpa[]>> block_lpa_;
    std::vector<uint32_t> write_ptr_;  ///< Per block: next page to program.
    std::vector<uint32_t> erase_cnt_;  ///< Per block.
    size_t resident_blocks_ = 0;
};

} // namespace leaftl
