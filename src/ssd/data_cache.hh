/**
 * @file
 * LRU read cache over flash pages (§3.9 extends WiscSim with an
 * LRU-based read-write cache; writes here are absorbed by the write
 * buffer, so the cache holds clean pages only).
 *
 * The cache capacity is *dynamic*: the SSD recomputes it whenever the
 * mapping structures grow or shrink, implementing the paper's central
 * trade-off -- every byte saved on the mapping table becomes data
 * cache (§4.2).
 *
 * Backed by `FlatLru`: one open-addressing probe per operation and
 * zero steady-state heap allocations, with eviction order, resize
 * semantics, and hit/miss accounting identical to the previous
 * `std::list` + `unordered_map` implementation (pinned by the
 * fuzz-equivalence suite in tests/test_device_equiv.cc).
 */

#pragma once

#include <cstdint>

#include "util/common.hh"
#include "util/flat_lru.hh"

namespace leaftl
{

/** Page-granular LRU cache with adjustable capacity. */
class DataCache
{
  public:
    explicit DataCache(uint64_t capacity_pages);

    /** Lookup; promotes to MRU on hit. A disabled cache (capacity 0)
     *  counts neither hits nor misses. */
    bool lookup(Lpa lpa);

    /** Insert (or refresh) a page; evicts LRU pages beyond capacity. */
    void insert(Lpa lpa);

    /** Drop a page (e.g. the LPA was overwritten). */
    void invalidate(Lpa lpa);

    /** Resize; shrinking evicts immediately. */
    void setCapacity(uint64_t capacity_pages);

    uint64_t capacity() const { return capacity_; }
    uint64_t size() const { return lru_.size(); }

    uint64_t hits() const { return hits_; }
    uint64_t misses() const { return misses_; }

  private:
    void evictToCapacity();

    uint64_t capacity_;
    FlatLru<> lru_;
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
};

} // namespace leaftl
