/**
 * @file
 * Reference implementations of the device hot-path structures as they
 * existed before the flat/indexed overhaul, kept verbatim so the
 * fuzz-equivalence tests (tests/test_device_equiv.cc) can pin the new
 * containers against the old observable behavior.
 *
 *   - RefDataCache:   std::list LRU + unordered_map index.
 *   - RefWriteBuffer: unordered_set membership + arrival log with a
 *                     dedup-set drainFifo.
 *   - RefVictimScan:  full-device scans for pickGcVictim /
 *                     pickWearVictim / eraseSpread over shadow
 *                     valid-count / free-pool arrays.
 *
 * Not used by the simulator itself (and deliberately outside
 * src/ssd/, which the hot-path-node-containers lint rule polices).
 */

#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <list>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "flash/flash_array.hh"
#include "util/common.hh"

namespace leaftl
{

/** The old std::list + unordered_map DataCache, verbatim. */
class RefDataCache
{
  public:
    explicit RefDataCache(uint64_t capacity_pages)
        : capacity_(capacity_pages)
    {
    }

    bool lookup(Lpa lpa)
    {
        auto it = map_.find(lpa);
        if (it == map_.end()) {
            misses_++;
            return false;
        }
        lru_.splice(lru_.begin(), lru_, it->second);
        hits_++;
        return true;
    }

    void insert(Lpa lpa)
    {
        if (capacity_ == 0)
            return;
        auto it = map_.find(lpa);
        if (it != map_.end()) {
            lru_.splice(lru_.begin(), lru_, it->second);
            return;
        }
        lru_.push_front(lpa);
        map_[lpa] = lru_.begin();
        evictToCapacity();
    }

    void invalidate(Lpa lpa)
    {
        auto it = map_.find(lpa);
        if (it == map_.end())
            return;
        lru_.erase(it->second);
        map_.erase(it);
    }

    void setCapacity(uint64_t capacity_pages)
    {
        capacity_ = capacity_pages;
        evictToCapacity();
    }

    uint64_t capacity() const { return capacity_; }
    uint64_t size() const { return map_.size(); }
    uint64_t hits() const { return hits_; }
    uint64_t misses() const { return misses_; }

    /** Keys MRU -> LRU (order comparison in the equivalence fuzz). */
    std::vector<Lpa> keysMruToLru() const
    {
        return {lru_.begin(), lru_.end()};
    }

  private:
    void evictToCapacity()
    {
        while (map_.size() > capacity_) {
            map_.erase(lru_.back());
            lru_.pop_back();
        }
    }

    uint64_t capacity_;
    std::list<Lpa> lru_;
    std::unordered_map<Lpa, std::list<Lpa>::iterator> map_;
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
};

/** The old unordered_set WriteBuffer, verbatim. */
class RefWriteBuffer
{
  public:
    explicit RefWriteBuffer(uint32_t capacity_pages)
        : capacity_(capacity_pages)
    {
        set_.reserve(capacity_pages * 2);
    }

    bool add(Lpa lpa)
    {
        const bool fresh = set_.insert(lpa).second;
        if (fresh)
            order_.push_back(lpa);
        return fresh;
    }

    bool contains(Lpa lpa) const { return set_.count(lpa) != 0; }
    bool remove(Lpa lpa) { return set_.erase(lpa) != 0; }
    bool full() const { return set_.size() >= capacity_; }
    bool empty() const { return set_.empty(); }
    size_t size() const { return set_.size(); }

    std::vector<Lpa> drainSorted()
    {
        std::vector<Lpa> lpas(set_.begin(), set_.end());
        std::sort(lpas.begin(), lpas.end());
        set_.clear();
        order_.clear();
        return lpas;
    }

    std::vector<Lpa> drainFifo()
    {
        std::vector<Lpa> lpas;
        lpas.reserve(set_.size());
        std::unordered_set<Lpa> seen;
        for (Lpa lpa : order_) {
            if (set_.count(lpa) && seen.insert(lpa).second)
                lpas.push_back(lpa);
        }
        order_.clear();
        set_.clear();
        return lpas;
    }

  private:
    uint32_t capacity_;
    std::unordered_set<Lpa> set_;
    std::vector<Lpa> order_;
};

/**
 * The old full-scan victim policies over shadow per-block state. The
 * caller mirrors every allocate/release/markValidRun/invalidate/erase it
 * performs on the real BlockManager into this shadow, then compares
 * pick results.
 */
class RefVictimScan
{
  public:
    RefVictimScan(const FlashArray &flash, uint32_t total_blocks)
        : flash_(flash),
          valid_count_(total_blocks, 0),
          in_free_pool_(total_blocks, true)
    {
    }

    void onAllocate(uint32_t block) { in_free_pool_[block] = false; }
    void onRelease(uint32_t block) { in_free_pool_[block] = true; }
    void onMarkValid(uint32_t block) { valid_count_[block]++; }
    void onInvalidate(uint32_t block) { valid_count_[block]--; }

    std::optional<uint32_t>
    pickGcVictim(const std::vector<uint32_t> &exclude = {}) const
    {
        uint32_t best = 0;
        uint32_t best_count = std::numeric_limits<uint32_t>::max();
        bool found = false;
        for (uint32_t b = 0; b < valid_count_.size(); b++) {
            if (in_free_pool_[b] ||
                flash_.blockState(b) == BlockState::Free)
                continue;
            if (std::find(exclude.begin(), exclude.end(), b) !=
                exclude.end())
                continue;
            if (valid_count_[b] < best_count) {
                best = b;
                best_count = valid_count_[b];
                found = true;
            }
        }
        if (!found)
            return std::nullopt;
        return best;
    }

    std::optional<uint32_t> pickWearVictim(uint32_t threshold) const
    {
        if (eraseSpread() <= threshold)
            return std::nullopt;
        uint32_t best = 0;
        uint32_t best_erase = std::numeric_limits<uint32_t>::max();
        bool found = false;
        for (uint32_t b = 0; b < valid_count_.size(); b++) {
            if (in_free_pool_[b] ||
                flash_.blockState(b) != BlockState::Full)
                continue;
            if (flash_.eraseCount(b) < best_erase) {
                best = b;
                best_erase = flash_.eraseCount(b);
                found = true;
            }
        }
        if (!found)
            return std::nullopt;
        return best;
    }

    uint32_t eraseSpread() const
    {
        uint32_t lo = std::numeric_limits<uint32_t>::max();
        uint32_t hi = 0;
        for (uint32_t b = 0; b < valid_count_.size(); b++) {
            lo = std::min(lo, flash_.eraseCount(b));
            hi = std::max(hi, flash_.eraseCount(b));
        }
        return hi - lo;
    }

    uint32_t validCount(uint32_t block) const
    {
        return valid_count_[block];
    }

  private:
    const FlashArray &flash_;
    std::vector<uint32_t> valid_count_;
    std::vector<bool> in_free_pool_;
};

} // namespace leaftl
