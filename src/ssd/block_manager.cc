#include "ssd/block_manager.hh"

#include <algorithm>
#include <limits>

#include "util/rng.hh"

namespace leaftl
{

BlockManager::BlockManager(FlashArray &flash)
    : flash_(flash),
      valid_count_(flash.geometry().totalBlocks(), 0),
      pvt_(flash.geometry().totalBlocks()),
      in_free_pool_(flash.geometry().totalBlocks(), true),
      bucket_head_(flash.geometry().pages_per_block + 1, kNilBlock),
      gc_prev_(flash.geometry().totalBlocks(), kNilBlock),
      gc_next_(flash.geometry().totalBlocks(), kNilBlock),
      in_victim_index_(flash.geometry().totalBlocks(), 0),
      exclude_stamp_(flash.geometry().totalBlocks(), 0)
{
    const Geometry &geom = flash.geometry();
    std::vector<uint32_t> order;
    for (uint32_t b = 0; b < geom.totalBlocks(); b++)
        order.push_back(b);
    // Shuffle the initial pool (deterministically): consecutive
    // allocations must not yield numerically adjacent blocks, or
    // cross-block PPA contiguity would arise that no real allocator
    // guarantees (PPAs are only contiguous within a block).
    Rng rng(0x5EEDB10C);
    for (size_t i = order.size(); i > 1; i--)
        std::swap(order[i - 1], order[rng.nextBounded(i)]);
    for (uint32_t b : order)
        free_pool_.push_back(b);
}

uint32_t
BlockManager::allocateBlock()
{
    LEAFTL_ASSERT(!free_pool_.empty(),
                  "free-block pool exhausted: GC failed to reclaim space");
    const uint32_t block = free_pool_.front();
    free_pool_.pop_front();
    in_free_pool_[block] = false;
    LEAFTL_ASSERT(flash_.blockState(block) == BlockState::Free,
                  "allocated block not erased");
    return block;
}

void
BlockManager::releaseBlock(uint32_t block)
{
    LEAFTL_ASSERT(!in_free_pool_[block], "double release of block");
    LEAFTL_ASSERT(valid_count_[block] == 0,
                  "releasing block with valid pages");
    // An erased block has no valid pages; its bitmap (if any) goes
    // back to the allocator, mirroring FlashArray's per-block LPA
    // store release on erase.
    if (pvt_[block]) {
        pvt_[block].reset();
        resident_pvt_--;
    }
    if (in_victim_index_[block]) {
        bucketUnlink(block, valid_count_[block]);
        in_victim_index_[block] = 0;
    }
    free_pool_.push_back(block);
    in_free_pool_[block] = true;
}

Bitmap &
BlockManager::materializePvt(uint32_t block)
{
    if (!pvt_[block]) {
        pvt_[block] =
            std::make_unique<Bitmap>(flash_.geometry().pages_per_block);
        resident_pvt_++;
    }
    return *pvt_[block];
}

void
BlockManager::bucketUnlink(uint32_t block, uint32_t count)
{
    if (gc_prev_[block] != kNilBlock)
        gc_next_[gc_prev_[block]] = gc_next_[block];
    else
        bucket_head_[count] = gc_next_[block];
    if (gc_next_[block] != kNilBlock)
        gc_prev_[gc_next_[block]] = gc_prev_[block];
    gc_prev_[block] = gc_next_[block] = kNilBlock;
}

void
BlockManager::bucketLinkFront(uint32_t block, uint32_t count)
{
    gc_prev_[block] = kNilBlock;
    gc_next_[block] = bucket_head_[count];
    if (bucket_head_[count] != kNilBlock)
        gc_prev_[bucket_head_[count]] = block;
    bucket_head_[count] = block;
}

void
BlockManager::markValidRun(Ppa first, uint32_t n)
{
    const uint32_t block = flash_.geometry().blockOf(first);
    const uint32_t page = flash_.geometry().pageInBlock(first);
    LEAFTL_ASSERT(n > 0 && n <= flash_.geometry().pages_per_block - page,
                  "valid run crosses a block");
    const uint32_t newly = materializePvt(block).setRange(page, n);
    LEAFTL_ASSERT(newly == n, "page already valid");
    const uint32_t old_count = valid_count_[block];
    valid_count_[block] += n;
    if (!in_victim_index_[block]) {
        // First valid pages since allocation: the block becomes a GC
        // candidate and enters the index.
        in_victim_index_[block] = 1;
    } else {
        bucketUnlink(block, old_count);
    }
    bucketLinkFront(block, valid_count_[block]);
}

void
BlockManager::invalidate(Ppa ppa)
{
    const uint32_t block = flash_.geometry().blockOf(ppa);
    const uint32_t page = flash_.geometry().pageInBlock(ppa);
    LEAFTL_ASSERT(pvt_[block] && pvt_[block]->test(page),
                  "invalidating non-valid page");
    pvt_[block]->clear(page);
    LEAFTL_ASSERT(valid_count_[block] > 0, "BVC underflow");
    const uint32_t count = --valid_count_[block];
    bucketUnlink(block, count + 1);
    bucketLinkFront(block, count);
}

void
BlockManager::invalidateBlock(uint32_t block)
{
    const uint32_t count = valid_count_[block];
    if (count == 0)
        return;
    pvt_[block]->clearAll();
    valid_count_[block] = 0;
    bucketUnlink(block, count);
    bucketLinkFront(block, 0);
}

std::optional<uint32_t>
BlockManager::pickGcVictim(const std::vector<uint32_t> &exclude) const
{
    gc_pick_calls_++;
    exclude_gen_++;
    for (uint32_t b : exclude)
        exclude_stamp_[b] = exclude_gen_;

    // Buckets ascend by valid count, so the first one holding a
    // passing block yields the greedy minimum; the in-bucket walk
    // keeps the old full scan's lowest-index tie-break.
    for (uint32_t c = 0; c < bucket_head_.size(); c++) {
        uint32_t best = kNilBlock;
        for (uint32_t b = bucket_head_[c]; b != kNilBlock;
             b = gc_next_[b]) {
            gc_pick_scanned_++;
            if (exclude_stamp_[b] == exclude_gen_)
                continue;
            // Re-check candidacy: an indexed block can sit erased but
            // not yet released (state Free), matching the old scan's
            // filter.
            if (in_free_pool_[b] ||
                flash_.blockState(b) == BlockState::Free)
                continue;
            if (b < best)
                best = b;
        }
        if (best != kNilBlock)
            return best;
    }
    return std::nullopt;
}

double
BlockManager::freeFraction() const
{
    return static_cast<double>(free_pool_.size()) /
           flash_.geometry().totalBlocks();
}

void
BlockManager::validPages(uint32_t block,
                         std::vector<std::pair<Lpa, Ppa>> &out) const
{
    if (!pvt_[block])
        return; // Never programmed since erase: nothing valid.
    const Ppa first = flash_.geometry().firstPpa(block);
    pvt_[block]->forEachSet([&](uint32_t i) {
        out.emplace_back(flash_.peekLpa(first + i), first + i);
    });
}

uint64_t
BlockManager::pvtResidentBytes() const
{
    const uint64_t per_bitmap =
        sizeof(Bitmap) +
        ceilDiv(flash_.geometry().pages_per_block, 64) * sizeof(uint64_t);
    return pvt_.size() * sizeof(pvt_[0]) + resident_pvt_ * per_bitmap;
}

} // namespace leaftl
