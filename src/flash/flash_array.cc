#include "flash/flash_array.hh"

#include <algorithm>

namespace leaftl
{

FlashArray::FlashArray(const Geometry &geom)
    : geom_(geom),
      block_lpa_(geom.totalBlocks()),
      write_ptr_(geom.totalBlocks(), 0),
      erase_cnt_(geom.totalBlocks(), 0)
{
    geom_.validate();
}

void
FlashArray::programPage(Ppa ppa, Lpa lpa)
{
    LEAFTL_ASSERT(ppa < geom_.totalPages(), "program out of range");
    const uint32_t block = geom_.blockOf(ppa);
    const uint32_t page = geom_.pageInBlock(ppa);
    LEAFTL_ASSERT(page == write_ptr_[block],
                  "NAND violation: out-of-order program in block");
    if (!block_lpa_[block]) {
        // First program into an erased block: materialize its LPA
        // array (released again on erase, keeping residency O(live)).
        block_lpa_[block] =
            std::make_unique<Lpa[]>(geom_.pages_per_block);
        std::fill_n(block_lpa_[block].get(), geom_.pages_per_block,
                    kInvalidLpa);
        resident_blocks_++;
    }
    block_lpa_[block][page] = lpa;
    write_ptr_[block]++;
}

void
FlashArray::oobWindow(Ppa ppa, uint32_t gamma,
                      std::vector<Lpa> &window) const
{
    LEAFTL_ASSERT(ppa < geom_.totalPages(), "oob out of range");
    // The OOB has a bounded number of 4-byte entries; clip gamma to
    // what physically fits (2*gamma + 1 entries needed, §3.5).
    const uint32_t max_gamma = (geom_.oobEntries() - 1) / 2;
    const uint32_t g = std::min(gamma, max_gamma);

    const uint32_t block = geom_.blockOf(ppa);
    const Ppa block_first = geom_.firstPpa(block);
    const Ppa block_last = block_first + geom_.pages_per_block - 1;

    window.assign(2 * g + 1, kInvalidLpa);
    // The window never crosses the block, so one store lookup covers
    // it; an unmaterialized block reads as all-unwritten.
    const Lpa *store = blockStore(block);
    if (!store)
        return;
    for (uint32_t i = 0; i < window.size(); i++) {
        const int64_t p = static_cast<int64_t>(ppa) - g + i;
        if (p < block_first || p > static_cast<int64_t>(block_last))
            continue;
        window[i] = store[static_cast<Ppa>(p) - block_first];
    }
}

void
FlashArray::eraseBlock(uint32_t block)
{
    LEAFTL_ASSERT(block < geom_.totalBlocks(), "erase out of range");
    if (block_lpa_[block]) {
        block_lpa_[block].reset();
        resident_blocks_--;
    }
    write_ptr_[block] = 0;
    erase_cnt_[block]++;
}

BlockState
FlashArray::blockState(uint32_t block) const
{
    LEAFTL_ASSERT(block < geom_.totalBlocks(), "block out of range");
    if (write_ptr_[block] == 0)
        return BlockState::Free;
    if (write_ptr_[block] == geom_.pages_per_block)
        return BlockState::Full;
    return BlockState::Open;
}

uint32_t
FlashArray::writePointer(uint32_t block) const
{
    LEAFTL_ASSERT(block < geom_.totalBlocks(), "block out of range");
    return write_ptr_[block];
}

uint32_t
FlashArray::eraseCount(uint32_t block) const
{
    LEAFTL_ASSERT(block < geom_.totalBlocks(), "block out of range");
    return erase_cnt_[block];
}

uint32_t
FlashArray::eraseSpread() const
{
    const auto [lo, hi] =
        std::minmax_element(erase_cnt_.begin(), erase_cnt_.end());
    return *hi - *lo;
}

uint64_t
FlashArray::residentBytes() const
{
    const uint64_t per_block_tables =
        static_cast<uint64_t>(geom_.totalBlocks()) *
        (sizeof(block_lpa_[0]) + sizeof(write_ptr_[0]) +
         sizeof(erase_cnt_[0]));
    const uint64_t live_arrays = static_cast<uint64_t>(resident_blocks_) *
                                 geom_.pages_per_block * sizeof(Lpa);
    return per_block_tables + live_arrays;
}

} // namespace leaftl
