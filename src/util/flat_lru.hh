/**
 * @file
 * Flat, allocation-free LRU map from u32 keys to an optional payload.
 *
 * One open-addressing slot table (linear probing, backward-shift
 * deletion -- no tombstones, no buckets, no per-node heap
 * allocations) maps keys to dense entry indices; the entries carry
 * the key, its payload and intrusive prev/next u32 links that
 * maintain *exact* LRU order. Because the LRU links reference entry
 * indices -- not slots -- slot relocation during deletion or rehash
 * never perturbs the recency order, which is what lets every LRU in
 * the simulator (the data cache and write buffer as key-only sets,
 * DFTL's CMT, SFTL's resident translation pages and LeaFTL's
 * resident segment groups with payloads) replace its `std::list` +
 * node-hash implementation bit-identically.
 *
 * All storage is grow-only: a drain/clear keeps the arrays allocated,
 * so the steady-state hot path (lookup/insert/erase) performs zero
 * heap operations.
 */

#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/common.hh"

namespace leaftl
{

/** Payload of a key-only FlatLru (takes no space in an entry). */
struct NoPayload
{
};

/**
 * Open-addressing hash map of u32 keys with intrusive LRU links. A
 * payload moves with its key; new keys start with a value-initialized
 * payload.
 */
template <typename V = NoPayload>
class FlatLru
{
  public:
    static constexpr uint32_t kNil = 0xFFFFFFFFu;

    FlatLru() = default;

    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    bool contains(uint32_t key) const { return findEntry(key) != kNil; }

    /** If present, promote to MRU. @return its payload, or nullptr. */
    V *touch(uint32_t key)
    {
        const uint32_t e = findEntry(key);
        if (e == kNil)
            return nullptr;
        promote(e);
        return &entries_[e].value;
    }

    /** Payload of @p key without changing recency, or nullptr. */
    V *peek(uint32_t key)
    {
        const uint32_t e = findEntry(key);
        return e == kNil ? nullptr : &entries_[e].value;
    }
    const V *peek(uint32_t key) const
    {
        const uint32_t e = findEntry(key);
        return e == kNil ? nullptr : &entries_[e].value;
    }

    /**
     * Single-probe insert-or-promote: a present key moves to MRU, an
     * absent key is added as MRU. The payload reference stays valid
     * until the next insert.
     * @return the key's payload and whether the key was newly inserted.
     */
    std::pair<V &, bool> insert(uint32_t key)
    {
        if ((size_ + 1) * 8 > slots_.size() * 5)
            growSlots();
        const size_t mask = slots_.size() - 1;
        size_t s = hashKey(key) & mask;
        while (slots_[s] != kNil) {
            const uint32_t e = slots_[s];
            if (entries_[e].key == key) {
                promote(e);
                return {entries_[e].value, false};
            }
            s = (s + 1) & mask;
        }
        const uint32_t e = allocEntry(key);
        slots_[s] = e;
        linkFront(e);
        size_++;
        return {entries_[e].value, true};
    }

    /** Remove a key. @return true if it was present. */
    bool erase(uint32_t key)
    {
        if (slots_.empty())
            return false;
        const size_t mask = slots_.size() - 1;
        size_t s = hashKey(key) & mask;
        while (slots_[s] != kNil && entries_[slots_[s]].key != key)
            s = (s + 1) & mask;
        if (slots_[s] == kNil)
            return false;
        removeAt(s);
        return true;
    }

    /** Least-recently-used key; requires !empty(). */
    uint32_t lruKey() const
    {
        LEAFTL_ASSERT(tail_ != kNil, "lruKey on empty FlatLru");
        return entries_[tail_].key;
    }

    /** Payload of the least-recently-used key; requires !empty(). */
    V &lruValue()
    {
        LEAFTL_ASSERT(tail_ != kNil, "lruValue on empty FlatLru");
        return entries_[tail_].value;
    }

    /** Evict the LRU key; requires !empty(). */
    void popLru()
    {
        LEAFTL_ASSERT(tail_ != kNil, "popLru on empty FlatLru");
        removeAt(findSlot(entries_[tail_].key));
    }

    /** Drop everything; keeps the arrays allocated. */
    void clear()
    {
        std::fill(slots_.begin(), slots_.end(), kNil);
        entries_.clear();
        prev_.clear();
        next_.clear();
        head_ = tail_ = free_head_ = kNil;
        size_ = 0;
    }

    /** Visit fn(key, payload) in MRU -> LRU order, recency unchanged. */
    template <typename Fn>
    void forEach(Fn &&fn)
    {
        for (uint32_t e = head_; e != kNil; e = next_[e])
            fn(entries_[e].key, entries_[e].value);
    }

  private:
    struct Entry
    {
        uint32_t key;
        [[no_unique_address]] V value;
    };

    // 32-bit splitmix-style mixer: full avalanche, so dense LPA key
    // ranges spread evenly over the power-of-two slot table.
    static uint32_t hashKey(uint32_t x)
    {
        x ^= x >> 16;
        x *= 0x7feb352dU;
        x ^= x >> 15;
        x *= 0x846ca68bU;
        x ^= x >> 16;
        return x;
    }

    uint32_t findEntry(uint32_t key) const
    {
        if (slots_.empty())
            return kNil;
        const size_t mask = slots_.size() - 1;
        size_t s = hashKey(key) & mask;
        while (slots_[s] != kNil) {
            if (entries_[slots_[s]].key == key)
                return slots_[s];
            s = (s + 1) & mask;
        }
        return kNil;
    }

    /** Slot holding @p key; the key must be present. */
    size_t findSlot(uint32_t key) const
    {
        const size_t mask = slots_.size() - 1;
        size_t s = hashKey(key) & mask;
        while (entries_[slots_[s]].key != key)
            s = (s + 1) & mask;
        return s;
    }

    uint32_t allocEntry(uint32_t key)
    {
        uint32_t e;
        if (free_head_ != kNil) {
            e = free_head_;
            free_head_ = next_[e];
            entries_[e] = Entry{key, V{}};
        } else {
            e = static_cast<uint32_t>(entries_.size());
            entries_.push_back(Entry{key, V{}});
            prev_.push_back(kNil);
            next_.push_back(kNil);
        }
        return e;
    }

    void linkFront(uint32_t e)
    {
        prev_[e] = kNil;
        next_[e] = head_;
        if (head_ != kNil)
            prev_[head_] = e;
        head_ = e;
        if (tail_ == kNil)
            tail_ = e;
    }

    void unlink(uint32_t e)
    {
        if (prev_[e] != kNil)
            next_[prev_[e]] = next_[e];
        else
            head_ = next_[e];
        if (next_[e] != kNil)
            prev_[next_[e]] = prev_[e];
        else
            tail_ = prev_[e];
    }

    void promote(uint32_t e)
    {
        if (head_ == e)
            return;
        unlink(e);
        linkFront(e);
    }

    /** Delete the entry in slot @p s: unlink, free, backward-shift. */
    void removeAt(size_t s)
    {
        const uint32_t e = slots_[s];
        unlink(e);
        next_[e] = free_head_; // Entry free list reuses the next_ link.
        free_head_ = e;
        size_--;

        // Backward-shift deletion keeps probe chains unbroken without
        // tombstones: walk forward, pulling back any entry whose home
        // slot is outside the (vacated, current] window.
        const size_t mask = slots_.size() - 1;
        size_t hole = s;
        slots_[hole] = kNil;
        size_t j = hole;
        while (true) {
            j = (j + 1) & mask;
            if (slots_[j] == kNil)
                break;
            const size_t home = hashKey(entries_[slots_[j]].key) & mask;
            const bool movable = (j > hole)
                                     ? (home <= hole || home > j)
                                     : (home <= hole && home > j);
            if (movable) {
                slots_[hole] = slots_[j];
                slots_[j] = kNil;
                hole = j;
            }
        }
    }

    void growSlots()
    {
        const size_t n = slots_.empty() ? 16 : slots_.size() * 2;
        slots_.assign(n, kNil);
        const size_t mask = n - 1;
        for (uint32_t e = head_; e != kNil; e = next_[e]) {
            size_t s = hashKey(entries_[e].key) & mask;
            while (slots_[s] != kNil)
                s = (s + 1) & mask;
            slots_[s] = e;
        }
    }

    std::vector<uint32_t> slots_; ///< Entry index per slot, kNil = empty.
    std::vector<Entry> entries_;  ///< Dense entry storage.
    std::vector<uint32_t> prev_;  ///< Intrusive LRU links (entry indices).
    std::vector<uint32_t> next_;  ///< Doubles as the free-list link.
    uint32_t head_ = kNil;        ///< MRU entry.
    uint32_t tail_ = kNil;        ///< LRU entry.
    uint32_t free_head_ = kNil;
    size_t size_ = 0;
};

} // namespace leaftl
