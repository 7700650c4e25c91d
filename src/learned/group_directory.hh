/**
 * @file
 * Sparse chunked flat directory of mapping groups -- the translation
 * hot path's replacement for a hashed group map (same trick as the
 * flash array's block-granular page store): group indices address a
 * two-level array directly, so a lookup costs two dependent loads and
 * a bit test instead of a hash probe, iteration walks live groups in
 * ascending index order (which also makes serialization canonical),
 * and memory stays proportional to the touched region of the LPA
 * space -- chunks of 64 adjacent groups materialize on first learn.
 *
 * Group objects never move once created (chunks are heap-allocated
 * and the top-level vector only stores pointers), so callers may hold
 * Group pointers across learns; a group, once created, is removed
 * only by reset() (learned groups persist even when all their
 * segments died). reset() keeps every chunk and each group's storage,
 * so a table restored in place reuses what it had grown.
 */

#pragma once

#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "learned/group.hh"

namespace leaftl
{

/** Flat directory of Groups indexed by group number. */
class GroupDirectory
{
  public:
    /** Groups per materialized chunk (one uint64_t live mask). */
    static constexpr uint32_t kChunkGroups = 64;

    /** The group at @a idx, or nullptr when never created. */
    const Group *
    find(uint32_t idx) const
    {
        const uint32_t ci = idx / kChunkGroups;
        if (ci >= chunks_.size())
            return nullptr;
        const Chunk *chunk = chunks_[ci].get();
        if (!chunk || !((chunk->live >> (idx % kChunkGroups)) & 1))
            return nullptr;
        return &chunk->groups[idx % kChunkGroups];
    }

    Group *
    find(uint32_t idx)
    {
        return const_cast<Group *>(
            static_cast<const GroupDirectory *>(this)->find(idx));
    }

    /** The group at @a idx, created (and marked live) if needed. */
    Group &
    getOrCreate(uint32_t idx)
    {
        const uint32_t ci = idx / kChunkGroups;
        const uint32_t slot = idx % kChunkGroups;
        if (ci >= chunks_.size())
            chunks_.resize(ci + 1);
        if (!chunks_[ci])
            chunks_[ci] = std::make_unique<Chunk>();
        Chunk &chunk = *chunks_[ci];
        if (!((chunk.live >> slot) & 1)) {
            chunk.live |= 1ull << slot;
            live_groups_++;
        }
        return chunk.groups[slot];
    }

    /**
     * Remove every group, keeping the chunks and each group's storage
     * (cleared: a slot that comes back live starts empty).
     */
    void
    reset()
    {
        forEach([](uint32_t, Group &group) { group.clear(); });
        for (auto &chunk : chunks_) {
            if (chunk)
                chunk->live = chunk->dirty = 0;
        }
        live_groups_ = 0;
    }

    /** Number of live groups. */
    size_t size() const { return live_groups_; }

    /**
     * Mark a live group dirty (changed since the last snapshot).
     * A no-op for indices that were never created: restoring a blob
     * must not re-dirty groups the snapshot already covers.
     */
    void
    markDirty(uint32_t idx)
    {
        const uint32_t ci = idx / kChunkGroups;
        const uint32_t slot = idx % kChunkGroups;
        if (ci >= chunks_.size() || !chunks_[ci])
            return;
        Chunk &chunk = *chunks_[ci];
        if ((chunk.live >> slot) & 1)
            chunk.dirty |= 1ull << slot;
    }

    /** Mark every live group dirty (whole-table mutations: compact). */
    void
    markAllDirty()
    {
        for (auto &chunk : chunks_) {
            if (chunk)
                chunk->dirty = chunk->live;
        }
    }

    /** Forget all dirty marks (a snapshot/delta has been committed). */
    void
    clearDirty()
    {
        for (auto &chunk : chunks_) {
            if (chunk)
                chunk->dirty = 0;
        }
    }

    /** Number of groups currently marked dirty. */
    size_t
    dirtyCount() const
    {
        size_t n = 0;
        for (const auto &chunk : chunks_) {
            if (chunk)
                n += std::popcount(chunk->dirty);
        }
        return n;
    }

    /** Visit dirty groups in ascending index order: fn(idx, group). */
    template <typename Fn>
    void
    forEachDirty(Fn &&fn) const
    {
        for (size_t ci = 0; ci < chunks_.size(); ci++) {
            const Chunk *chunk = chunks_[ci].get();
            if (!chunk)
                continue;
            uint64_t mask = chunk->dirty;
            while (mask) {
                const int slot = std::countr_zero(mask);
                mask &= mask - 1;
                fn(static_cast<uint32_t>(ci * kChunkGroups + slot),
                   chunk->groups[slot]);
            }
        }
    }

    /**
     * Host memory of the directory structure itself: the pointer
     * table plus one materialized chunk (64 eagerly constructed Group
     * shells, dominated by their CRB owner arrays) per touched
     * 64-group region. This is simulator overhead, not the paper's
     * mapping-memory metric (segments + CRB bytes) -- reported so
     * sparse workloads can see what the chunking trade-off costs.
     */
    size_t
    residentBytes() const
    {
        size_t chunks = 0;
        for (const auto &chunk : chunks_)
            chunks += chunk ? 1 : 0;
        return chunks_.capacity() * sizeof(chunks_[0]) +
               chunks * sizeof(Chunk);
    }

    /** Visit live groups in ascending index order: fn(idx, group). */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        forEachImpl(*this, fn);
    }

    /** Mutable visitation, same order. */
    template <typename Fn>
    void
    forEach(Fn &&fn)
    {
        forEachImpl(*this, fn);
    }

  private:
    struct Chunk
    {
        uint64_t live = 0;  ///< Bit per slot: group has been created.
        uint64_t dirty = 0; ///< Bit per slot: changed since snapshot.
        Group groups[kChunkGroups];
    };

    /** One iteration loop for both const and mutable visitation. */
    template <typename Self, typename Fn>
    static void
    forEachImpl(Self &self, Fn &&fn)
    {
        for (size_t ci = 0; ci < self.chunks_.size(); ci++) {
            auto *chunk = self.chunks_[ci].get();
            if (!chunk)
                continue;
            uint64_t mask = chunk->live;
            while (mask) {
                const int slot = std::countr_zero(mask);
                mask &= mask - 1;
                fn(static_cast<uint32_t>(ci * kChunkGroups + slot),
                   chunk->groups[slot]);
            }
        }
    }

    std::vector<std::unique_ptr<Chunk>> chunks_;
    size_t live_groups_ = 0;
};

} // namespace leaftl
