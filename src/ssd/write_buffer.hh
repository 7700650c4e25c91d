/**
 * @file
 * The SSD controller's write (data) buffer (§3.3, §3.8).
 *
 * Host writes are absorbed at DRAM speed; overwriting an LPA already
 * buffered coalesces in place (reducing flash traffic and WAF). When
 * the buffer is full, the device drains it: all buffered LPAs are
 * sorted in ascending order and flushed block-by-block to consecutive
 * PPAs, which is exactly what lets LeaFTL learn long monotonic
 * segments (Fig. 7).
 *
 * The membership set is a `FlatLru` (open addressing, no node
 * allocations): `add` is a single insert-or-find probe instead of the
 * old contains+insert double hash, and `drainFifo` no longer builds a
 * temporary dedup set.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "util/common.hh"
#include "util/flat_lru.hh"

namespace leaftl
{

/** LPA-coalescing write buffer. */
class WriteBuffer
{
  public:
    /** @param capacity_pages Distinct LPAs the buffer can hold. */
    explicit WriteBuffer(uint32_t capacity_pages);

    /**
     * Admit a host write.
     * @return true if the LPA was new to the buffer (false = coalesced).
     */
    bool add(Lpa lpa);

    /** Is this LPA currently buffered (read hit)? */
    bool contains(Lpa lpa) const { return set_.contains(lpa); }

    /** Drop a buffered LPA (TRIM). @return true if it was buffered. */
    bool remove(Lpa lpa);

    bool full() const { return set_.size() >= capacity_; }
    bool empty() const { return set_.empty(); }
    size_t size() const { return set_.size(); }
    uint32_t capacity() const { return capacity_; }

    /**
     * Drain the whole buffer, returning the LPAs in ascending order
     * (§3.3: the controller sorts the buffer before flushing) with a
     * radix sort; the order is std::sort's.
     */
    std::vector<Lpa> drainSorted();

    /**
     * Drain in arrival order (ablation of the Fig. 7 sorting
     * optimization; real controllers without reordering).
     */
    std::vector<Lpa> drainFifo();

  private:
    uint32_t capacity_;
    FlatLru<> set_;
    std::vector<Lpa> order_; ///< Arrival order of distinct LPAs.
};

} // namespace leaftl
