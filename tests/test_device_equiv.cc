/**
 * @file
 * Fuzz-equivalence suites pinning the flat device hot-path containers
 * to the implementations they replaced (kept verbatim in
 * tests/device_reference.hh), the same way PR 4 proved the learned
 * layer and PR 7 proved parallel replay:
 *
 *   - FlatLru vs an exact std::list model ((key, payload) pairs in
 *     full LRU order compared after every operation);
 *   - DataCache vs RefDataCache (lookup results, hit/miss counters,
 *     sizes across insert/hit/invalidate/shrink-resize);
 *   - WriteBuffer vs RefWriteBuffer (coalescing adds, trim-path
 *     removes, drainSorted and the drainFifo ablation);
 *   - BlockManager victim index vs the old full scans (GC picks with
 *     randomized exclude lists and in chained multi-victim rounds,
 *     eraseSpread) across randomized mark/erase/release sequences.
 *
 * All sequences are seeded Rng streams: failures reproduce exactly.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <optional>
#include <vector>

#include "device_reference.hh"
#include "flash/flash_array.hh"
#include "ssd/block_manager.hh"
#include "ssd/data_cache.hh"
#include "ssd/write_buffer.hh"
#include "util/flat_lru.hh"
#include "util/rng.hh"

namespace leaftl
{
namespace
{

/**
 * Exact-order reference for FlatLru: a plain MRU-front list of
 * (key, payload) pairs.
 */
struct ModelLru
{
    using Entry = std::pair<uint32_t, uint32_t>;
    std::list<Entry> order; // Front = MRU.

    std::list<Entry>::iterator find(uint32_t key)
    {
        return std::find_if(order.begin(), order.end(),
                            [key](const Entry &e) { return e.first == key; });
    }

    /** Promote if present. @return the payload, or nullptr. */
    uint32_t *touch(uint32_t key)
    {
        auto it = find(key);
        if (it == order.end())
            return nullptr;
        order.splice(order.begin(), order, it);
        return &order.front().second;
    }

    uint32_t *peek(uint32_t key)
    {
        auto it = find(key);
        return it == order.end() ? nullptr : &it->second;
    }

    std::pair<uint32_t &, bool> insert(uint32_t key)
    {
        if (uint32_t *v = touch(key))
            return {*v, false};
        order.emplace_front(key, 0);
        return {order.front().second, true};
    }

    bool erase(uint32_t key)
    {
        auto it = find(key);
        if (it == order.end())
            return false;
        order.erase(it);
        return true;
    }

    std::vector<Entry> entries() const
    {
        return {order.begin(), order.end()};
    }
};

/** (key, payload) pairs in MRU -> LRU order. */
std::vector<ModelLru::Entry>
flatEntries(FlatLru<uint32_t> &lru)
{
    std::vector<ModelLru::Entry> entries;
    lru.forEach([&](uint32_t key, uint32_t value) {
        entries.emplace_back(key, value);
    });
    return entries;
}

/** Payload behind @p v, or a sentinel for "absent". */
uint32_t
valueOr(const uint32_t *v)
{
    return v ? *v : 0xDEADBEEFu;
}

TEST(FlatLruEquiv, MatchesListModelUnderFuzz)
{
    FlatLru<uint32_t> lru;
    ModelLru model;
    Rng rng(0xF1A71234);

    for (int step = 0; step < 20000; step++) {
        const uint32_t key = static_cast<uint32_t>(rng.nextBounded(96));
        const uint32_t value = static_cast<uint32_t>(rng.next());
        switch (rng.nextBounded(12)) {
        case 0:
        case 1:
        case 2:
        case 3: {
            // Insert-or-promote, then overwrite the payload in place.
            auto [flat_v, flat_new] = lru.insert(key);
            auto [model_v, model_new] = model.insert(key);
            ASSERT_EQ(flat_new, model_new) << step;
            ASSERT_EQ(flat_v, model_v) << step; // 0 when new.
            flat_v = model_v = value;
            break;
        }
        case 4:
        case 5:
            ASSERT_EQ(valueOr(lru.touch(key)), valueOr(model.touch(key)))
                << step;
            break;
        case 6:
        case 7:
            ASSERT_EQ(lru.erase(key), model.erase(key)) << step;
            break;
        case 8:
            ASSERT_EQ(lru.contains(key),
                      model.find(key) != model.order.end())
                << step;
            break;
        case 9:
            // Non-promoting update: recency must not move.
            if (uint32_t *v = lru.peek(key)) {
                ASSERT_EQ(*v, valueOr(model.peek(key))) << step;
                *v = *model.peek(key) = value;
            } else {
                ASSERT_EQ(model.peek(key), nullptr) << step;
            }
            break;
        case 10:
        case 11:
            if (!model.order.empty()) {
                ASSERT_EQ(lru.lruKey(), model.order.back().first) << step;
                ASSERT_EQ(lru.lruValue(), model.order.back().second)
                    << step;
                lru.popLru();
                model.order.pop_back();
            }
            break;
        }
        ASSERT_EQ(lru.size(), model.order.size()) << step;
        // Exact LRU order with payloads, every step: this is the
        // property that makes DataCache eviction and the FTL caches
        // bit-identical.
        ASSERT_EQ(flatEntries(lru), model.entries()) << step;
        if (step % 4096 == 4095) {
            lru.clear();
            model.order.clear();
        }
    }
}

TEST(FlatLruEquiv, SurvivesGrowthAcrossRehashes)
{
    FlatLru<uint32_t> lru;
    ModelLru model;
    // Monotone insert far beyond the initial table: every grow must
    // preserve order, membership and payloads.
    for (uint32_t key = 0; key < 5000; key++) {
        auto [v, fresh] = lru.insert(key);
        ASSERT_TRUE(fresh);
        v = model.insert(key).first = key * 3;
    }
    ASSERT_EQ(lru.size(), 5000u);
    ASSERT_EQ(flatEntries(lru), model.entries());
    for (uint32_t key = 0; key < 5000; key += 2)
        ASSERT_TRUE(lru.erase(key));
    ASSERT_EQ(lru.size(), 2500u);
    for (uint32_t key = 0; key < 5000; key++)
        ASSERT_EQ(valueOr(lru.peek(key)), key % 2 ? key * 3 : 0xDEADBEEFu)
            << key;
}

TEST(DataCacheEquiv, MatchesReferenceUnderFuzz)
{
    DataCache cache(64);
    RefDataCache ref(64);
    Rng rng(0xDCAC0001);

    for (int step = 0; step < 30000; step++) {
        const Lpa lpa = static_cast<Lpa>(rng.nextBounded(256));
        switch (rng.nextBounded(8)) {
        case 0:
        case 1:
        case 2:
            ASSERT_EQ(cache.lookup(lpa), ref.lookup(lpa)) << step;
            break;
        case 3:
        case 4:
        case 5:
            cache.insert(lpa);
            ref.insert(lpa);
            break;
        case 6:
            cache.invalidate(lpa); // Trim/overwrite path.
            ref.invalidate(lpa);
            break;
        case 7: {
            // Resize incl. hard shrinks (the DRAM-split path); keep
            // capacity >= 1 -- the disabled-cache miss accounting
            // intentionally diverges and is pinned separately below.
            const uint64_t cap = 1 + rng.nextBounded(96);
            cache.setCapacity(cap);
            ref.setCapacity(cap);
            break;
        }
        }
        ASSERT_EQ(cache.size(), ref.size()) << step;
        ASSERT_EQ(cache.hits(), ref.hits()) << step;
        ASSERT_EQ(cache.misses(), ref.misses()) << step;
    }

    // Drain both through shrink-evictions: orders must agree exactly.
    for (uint64_t cap = cache.size(); cap-- > 0;) {
        cache.setCapacity(cap);
        ref.setCapacity(cap);
        ASSERT_EQ(cache.size(), ref.size());
        for (Lpa l = 0; l < 256; l++)
            ASSERT_EQ(cache.lookup(l), ref.lookup(l)) << cap;
    }
}

TEST(DataCacheEquiv, DisabledCacheCountsNothing)
{
    // The satellite stats fix: the old implementation charged a miss
    // per lookup even with the cache disabled, skewing hit ratios for
    // mapping-first FTLs. Disabled now means inert.
    DataCache cache(0);
    EXPECT_FALSE(cache.lookup(1));
    EXPECT_FALSE(cache.lookup(1));
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_EQ(cache.misses(), 0u);
    cache.insert(1);
    EXPECT_EQ(cache.size(), 0u);

    // Re-enabling starts counting again.
    cache.setCapacity(4);
    EXPECT_FALSE(cache.lookup(1));
    EXPECT_EQ(cache.misses(), 1u);
    cache.insert(1);
    EXPECT_TRUE(cache.lookup(1));
    EXPECT_EQ(cache.hits(), 1u);
}

TEST(WriteBufferEquiv, MatchesReferenceUnderFuzz)
{
    WriteBuffer buf(128);
    RefWriteBuffer ref(128);
    Rng rng(0x57B0FFE2);
    for (int step = 0; step < 30000; step++) {
        const Lpa lpa = static_cast<Lpa>(rng.nextBounded(512));
        switch (rng.nextBounded(12)) {
        case 0:
        case 1:
        case 2:
        case 3:
        case 4:
            if (!ref.full()) {
                ASSERT_EQ(buf.add(lpa), ref.add(lpa)) << step;
            }
            break;
        case 5:
        case 6:
            ASSERT_EQ(buf.remove(lpa), ref.remove(lpa)) << step;
            break;
        case 7:
        case 8:
            ASSERT_EQ(buf.contains(lpa), ref.contains(lpa)) << step;
            break;
        case 9:
            ASSERT_EQ(buf.full(), ref.full()) << step;
            break;
        case 10:
            if (rng.nextBounded(16) == 0) {
                ASSERT_EQ(buf.drainSorted(), ref.drainSorted()) << step;
            }
            break;
        case 11:
            // The FIFO ablation is the order-sensitive one: arrival
            // positions survive coalescing and trims.
            if (rng.nextBounded(16) == 0) {
                ASSERT_EQ(buf.drainFifo(), ref.drainFifo()) << step;
            }
            break;
        }
        ASSERT_EQ(buf.size(), ref.size()) << step;
        ASSERT_EQ(buf.empty(), ref.empty()) << step;
    }
    ASSERT_EQ(buf.drainFifo(), ref.drainFifo());
}

Geometry
equivGeom()
{
    Geometry g;
    g.num_channels = 2;
    g.blocks_per_channel = 8;
    g.pages_per_block = 8;
    return g;
}

/**
 * Drive BlockManager and the old full-scan policies through one
 * randomized allocate/program/invalidate/erase/release history and
 * demand identical victim picks at every step.
 */
TEST(BlockManagerEquiv, VictimPicksMatchFullScanUnderFuzz)
{
    FlashArray flash(equivGeom());
    BlockManager bm(flash);
    RefVictimScan ref(flash, flash.geometry().totalBlocks());
    Rng rng(0xB10C06CF);

    const uint32_t ppb = flash.geometry().pages_per_block;
    std::vector<uint32_t> live; // Allocated, not yet released.

    for (int step = 0; step < 20000; step++) {
        switch (rng.nextBounded(8)) {
        case 0:
        case 1:
            if (bm.freeBlocks() > 2) {
                const uint32_t b = bm.allocateBlock();
                ref.onAllocate(b);
                live.push_back(b);
            }
            break;
        case 2:
        case 3:
        case 4:
            // Program (and mark valid) the next page of a random
            // not-yet-full live block -- the 1:1 pairing the device
            // maintains.
            if (!live.empty()) {
                const uint32_t b =
                    live[rng.nextBounded(live.size())];
                const uint32_t wp = flash.writePointer(b);
                if (wp < ppb) {
                    const Ppa ppa =
                        flash.geometry().firstPpa(b) + wp;
                    flash.programPage(ppa, step);
                    bm.markValidRun(ppa, 1);
                    ref.onMarkValid(b);
                }
            }
            break;
        case 5:
            // Invalidate a random valid page (overwrite/GC path).
            if (!live.empty()) {
                const uint32_t b =
                    live[rng.nextBounded(live.size())];
                const Ppa first = flash.geometry().firstPpa(b);
                for (uint32_t i = 0; i < ppb; i++) {
                    if (bm.isValid(first + i)) {
                        bm.invalidate(first + i);
                        ref.onInvalidate(b);
                        break;
                    }
                }
            }
            break;
        case 6:
            // Erase + release a live block with no valid pages (the
            // GC tail). Leaving erased-unreleased states to the next
            // iterations exercises the pick-time re-check.
            for (size_t i = 0; i < live.size(); i++) {
                const uint32_t b = live[i];
                if (bm.validCount(b) == 0) {
                    flash.eraseBlock(b);
                    bm.releaseBlock(b);
                    ref.onRelease(b);
                    live.erase(live.begin() + i);
                    break;
                }
            }
            break;
        case 7:
            // Drop every valid page of one block, then erase it but
            // do NOT release: state Free while still outside the
            // free pool, the corner the old scan filtered implicitly.
            if (!live.empty() && rng.nextBounded(4) == 0) {
                const uint32_t b =
                    live[rng.nextBounded(live.size())];
                if (flash.blockState(b) != BlockState::Free) {
                    const Ppa first =
                        flash.geometry().firstPpa(b);
                    for (uint32_t i = 0; i < ppb; i++) {
                        if (bm.isValid(first + i)) {
                            bm.invalidate(first + i);
                            ref.onInvalidate(b);
                        }
                    }
                    flash.eraseBlock(b);
                }
            }
            break;
        }

        // Victim parity: plain pick, pick under a random exclude
        // list, and the spread.
        ASSERT_EQ(bm.pickGcVictim(), ref.pickGcVictim()) << step;
        std::vector<uint32_t> exclude;
        const size_t n_excl = rng.nextBounded(4);
        for (size_t i = 0; i < n_excl && !live.empty(); i++)
            exclude.push_back(live[rng.nextBounded(live.size())]);
        ASSERT_EQ(bm.pickGcVictim(exclude), ref.pickGcVictim(exclude))
            << step;
        // A multi-victim GC pass as Ssd::doGcPass makes it: up to 64
        // chained picks, each excluding the victims before it.
        std::vector<uint32_t> round;
        while (round.size() < 64) {
            const std::optional<uint32_t> v = bm.pickGcVictim(round);
            ASSERT_EQ(v, ref.pickGcVictim(round))
                << step << " pick " << round.size();
            if (!v)
                break;
            round.push_back(*v);
        }
        ASSERT_EQ(bm.eraseSpread(), ref.eraseSpread()) << step;
        for (uint32_t b = 0; b < flash.geometry().totalBlocks(); b++)
            ASSERT_EQ(bm.validCount(b), ref.validCount(b)) << step;
    }
}

} // namespace
} // namespace leaftl
