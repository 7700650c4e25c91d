/**
 * @file
 * Tests for the block manager: allocation, BVC/PVT bookkeeping and GC
 * victim selection (§2 Fig. 3, §3.6).
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "flash/flash_array.hh"
#include "ssd/block_manager.hh"
#include "util/rng.hh"

namespace leaftl
{
namespace
{

Geometry
smallGeom()
{
    Geometry g;
    g.num_channels = 2;
    g.blocks_per_channel = 4;
    g.pages_per_block = 4;
    return g;
}

struct Fixture
{
    Fixture() : flash(smallGeom()), bm(flash) {}

    /** Program a whole block with LPAs starting at base. */
    void
    fillBlock(uint32_t block, Lpa base)
    {
        const Ppa first = flash.geometry().firstPpa(block);
        for (uint32_t i = 0; i < flash.geometry().pages_per_block; i++)
            flash.programPage(first + i, base + i);
        bm.markValidRun(first, flash.geometry().pages_per_block);
    }

    FlashArray flash;
    BlockManager bm;
};

TEST(BlockManager, AllocationDrainsFreePool)
{
    Fixture f;
    EXPECT_EQ(f.bm.freeBlocks(), 8u);
    const uint32_t b = f.bm.allocateBlock();
    EXPECT_EQ(f.bm.freeBlocks(), 7u);
    EXPECT_LT(b, 8u);
    EXPECT_DOUBLE_EQ(f.bm.freeFraction(), 7.0 / 8.0);
}

TEST(BlockManager, ValidityCounters)
{
    Fixture f;
    const uint32_t b = f.bm.allocateBlock();
    f.fillBlock(b, 100);
    EXPECT_EQ(f.bm.validCount(b), 4u);
    const Ppa first = f.flash.geometry().firstPpa(b);
    EXPECT_TRUE(f.bm.isValid(first));
    f.bm.invalidate(first);
    EXPECT_FALSE(f.bm.isValid(first));
    EXPECT_EQ(f.bm.validCount(b), 3u);
}

TEST(BlockManagerDeath, DoubleInvalidateAborts)
{
    Fixture f;
    const uint32_t b = f.bm.allocateBlock();
    f.fillBlock(b, 0);
    const Ppa first = f.flash.geometry().firstPpa(b);
    f.bm.invalidate(first);
    EXPECT_DEATH(f.bm.invalidate(first), "non-valid");
}

TEST(BlockManager, GreedyVictimPicksFewestValid)
{
    Fixture f;
    const uint32_t b0 = f.bm.allocateBlock();
    const uint32_t b1 = f.bm.allocateBlock();
    f.fillBlock(b0, 0);
    f.fillBlock(b1, 100);
    // Invalidate 3 of 4 pages in b1, 1 of 4 in b0.
    const Ppa f1 = f.flash.geometry().firstPpa(b1);
    f.bm.invalidate(f1);
    f.bm.invalidate(f1 + 1);
    f.bm.invalidate(f1 + 2);
    f.bm.invalidate(f.flash.geometry().firstPpa(b0));

    auto victim = f.bm.pickGcVictim();
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(*victim, b1);
}

TEST(BlockManager, NoVictimOnPristineDevice)
{
    Fixture f;
    EXPECT_FALSE(f.bm.pickGcVictim().has_value());
    const uint32_t b = f.bm.allocateBlock();
    const Ppa first = f.flash.geometry().firstPpa(b);
    f.flash.programPage(first, 0);
    f.bm.markValidRun(first, 1);
    // Open (partially programmed) blocks are valid GC candidates: a
    // GC pass's last, partly filled destination would otherwise leak
    // space forever.
    auto victim = f.bm.pickGcVictim();
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(*victim, b);
    // Exclusion list suppresses them.
    EXPECT_FALSE(f.bm.pickGcVictim({b}).has_value());
}

TEST(BlockManager, ValidPagesListsSurvivors)
{
    Fixture f;
    const uint32_t b = f.bm.allocateBlock();
    f.fillBlock(b, 200);
    const Ppa first = f.flash.geometry().firstPpa(b);
    f.bm.invalidate(first + 1);
    const auto pages = f.bm.validPages(b);
    ASSERT_EQ(pages.size(), 3u);
    EXPECT_EQ(pages[0].first, 200u);
    EXPECT_EQ(pages[0].second, first);
    EXPECT_EQ(pages[1].first, 202u);
    EXPECT_EQ(pages[2].first, 203u);
}

TEST(BlockManager, ReleaseRequiresEmptyAndErased)
{
    Fixture f;
    const uint32_t b = f.bm.allocateBlock();
    f.fillBlock(b, 0);
    const Ppa first = f.flash.geometry().firstPpa(b);
    for (uint32_t i = 0; i < 4; i++)
        f.bm.invalidate(first + i);
    f.flash.eraseBlock(b);
    f.bm.releaseBlock(b);
    EXPECT_EQ(f.bm.freeBlocks(), 8u);
}

TEST(BlockManagerDeath, ReleaseWithValidPagesAborts)
{
    Fixture f;
    const uint32_t b = f.bm.allocateBlock();
    f.fillBlock(b, 0);
    EXPECT_DEATH(f.bm.releaseBlock(b), "valid pages");
}

TEST(BlockManagerSparsePvt, MaterializesOnFirstValidAndReleasesOnErase)
{
    Fixture f;
    EXPECT_EQ(f.bm.residentPvtBlocks(), 0u);
    const uint64_t empty_bytes = f.bm.pvtResidentBytes();

    const uint32_t block = f.bm.allocateBlock();
    EXPECT_EQ(f.bm.residentPvtBlocks(), 0u); // Allocation alone: none.
    f.fillBlock(block, 100);
    EXPECT_EQ(f.bm.residentPvtBlocks(), 1u);
    EXPECT_GT(f.bm.pvtResidentBytes(), empty_bytes);

    // Invalidating every page keeps the bitmap resident (the block is
    // still programmed); only the erase-and-release path frees it.
    const Ppa first = f.flash.geometry().firstPpa(block);
    for (uint32_t i = 0; i < f.flash.geometry().pages_per_block; i++)
        f.bm.invalidate(first + i);
    EXPECT_EQ(f.bm.residentPvtBlocks(), 1u);

    f.flash.eraseBlock(block);
    f.bm.releaseBlock(block);
    EXPECT_EQ(f.bm.residentPvtBlocks(), 0u);
    EXPECT_EQ(f.bm.pvtResidentBytes(), empty_bytes);

    // Unmaterialized blocks read as all-invalid.
    EXPECT_FALSE(f.bm.isValid(first));
    EXPECT_TRUE(f.bm.validPages(block).empty());
}

/**
 * Dense-reference equivalence fuzz: drive the sparse PVT through a
 * random program/invalidate/erase schedule and mirror every operation
 * in a plain dense bitmap-per-block model; both views must agree on
 * every page's validity and every block's valid count at every step.
 */
TEST(BlockManagerSparsePvt, MatchesDenseReferenceUnderFuzz)
{
    Fixture f;
    const Geometry &geom = f.flash.geometry();
    const uint32_t ppb = geom.pages_per_block;
    std::vector<std::vector<bool>> dense(geom.totalBlocks(),
                                         std::vector<bool>(ppb, false));

    Rng rng(0x5BA125E);
    std::vector<uint32_t> open_blocks;
    for (int step = 0; step < 2000; step++) {
        const int action = static_cast<int>(rng.nextBounded(10));
        if (action < 5 || open_blocks.empty()) {
            // Program-and-validate a fresh block (partially or fully).
            if (f.bm.freeBlocks() == 0)
                continue;
            const uint32_t b = f.bm.allocateBlock();
            const uint32_t pages =
                1 + static_cast<uint32_t>(rng.nextBounded(ppb));
            const Ppa first = geom.firstPpa(b);
            for (uint32_t i = 0; i < pages; i++) {
                f.flash.programPage(first + i, 7000 + i);
                f.bm.markValidRun(first + i, 1);
                dense[b][i] = true;
            }
            open_blocks.push_back(b);
        } else if (action < 8) {
            // Invalidate a random valid page of a random live block.
            const uint32_t b = open_blocks[rng.nextBounded(
                open_blocks.size())];
            const uint32_t p = static_cast<uint32_t>(rng.nextBounded(ppb));
            if (dense[b][p]) {
                f.bm.invalidate(geom.firstPpa(b) + p);
                dense[b][p] = false;
            }
        } else {
            // Erase-and-release a fully invalidated block.
            const size_t idx = rng.nextBounded(open_blocks.size());
            const uint32_t b = open_blocks[idx];
            for (uint32_t p = 0; p < ppb; p++) {
                if (dense[b][p]) {
                    f.bm.invalidate(geom.firstPpa(b) + p);
                    dense[b][p] = false;
                }
            }
            f.flash.eraseBlock(b);
            f.bm.releaseBlock(b);
            open_blocks.erase(open_blocks.begin() +
                              static_cast<ptrdiff_t>(idx));
        }

        // Full-state comparison against the dense reference.
        size_t resident = 0;
        for (uint32_t b = 0; b < geom.totalBlocks(); b++) {
            uint32_t expect_count = 0;
            for (uint32_t p = 0; p < ppb; p++) {
                EXPECT_EQ(f.bm.isValid(geom.firstPpa(b) + p), dense[b][p])
                    << "step " << step << " block " << b << " page " << p;
                expect_count += dense[b][p] ? 1 : 0;
            }
            EXPECT_EQ(f.bm.validCount(b), expect_count);
            EXPECT_EQ(f.bm.validPages(b).size(), expect_count);
        }
        // Residency never exceeds the blocks programmed since erase.
        resident = f.bm.residentPvtBlocks();
        EXPECT_LE(resident, open_blocks.size());
    }
}

/**
 * The block-granular calls against the per-page ones: two managers,
 * each over its own flash array, run the same random schedule. One
 * marks runs with a single markValidRun(first, n) and empties
 * migrated blocks with invalidateBlock; the other only ever marks and
 * invalidates one page at a time. Blocks of 96 pages make runs cross
 * PVT words. After every step the two must agree on each block's
 * valid count, each page's validity, the order of validPages, and the
 * sequence of GC victims a multi-victim pass would pick.
 */
TEST(BlockManagerRunOps, MatchPerPageOpsUnderFuzz)
{
    Geometry geom;
    geom.num_channels = 2;
    geom.blocks_per_channel = 8;
    geom.pages_per_block = 96;
    FlashArray run_flash(geom), page_flash(geom);
    BlockManager run_bm(run_flash), page_bm(page_flash);
    const uint32_t ppb = geom.pages_per_block;

    auto program = [&](uint32_t b, uint32_t n, Lpa lpa) {
        const Ppa first = geom.firstPpa(b) + run_flash.writePointer(b);
        for (uint32_t i = 0; i < n; i++) {
            run_flash.programPage(first + i, lpa + i);
            page_flash.programPage(first + i, lpa + i);
            page_bm.markValidRun(first + i, 1);
        }
        run_bm.markValidRun(first, n);
    };
    auto picks = [](const BlockManager &bm) {
        std::vector<uint32_t> seq;
        while (seq.size() < 8) {
            const auto v = bm.pickGcVictim(seq);
            if (!v)
                break;
            seq.push_back(*v);
        }
        return seq;
    };

    Rng rng(0xB10C4);
    std::vector<uint32_t> live;
    Lpa next_lpa = 0;
    for (int step = 0; step < 3000; step++) {
        const int action = static_cast<int>(rng.nextBounded(10));
        if (action < 3 && run_bm.freeBlocks() > 0) {
            const uint32_t b = run_bm.allocateBlock();
            ASSERT_EQ(page_bm.allocateBlock(), b);
            live.push_back(b);
        } else if (action < 6 && !live.empty()) {
            // Program a run at a live block's write pointer.
            const uint32_t b = live[rng.nextBounded(live.size())];
            const uint32_t room = ppb - run_flash.writePointer(b);
            if (room > 0) {
                const uint32_t n =
                    1 + static_cast<uint32_t>(rng.nextBounded(room));
                program(b, n, next_lpa);
                next_lpa += n;
            }
        } else if (action < 8 && !live.empty()) {
            // Overwrite path: drop one valid page in both.
            const uint32_t b = live[rng.nextBounded(live.size())];
            const Ppa ppa = geom.firstPpa(b) +
                            static_cast<uint32_t>(rng.nextBounded(ppb));
            if (page_bm.isValid(ppa)) {
                run_bm.invalidate(ppa);
                page_bm.invalidate(ppa);
            }
        } else if (!live.empty()) {
            // Migration path: empty a block, then (usually) erase and
            // release it; an emptied block left programmed stays a
            // bucket-0 candidate.
            const size_t idx = rng.nextBounded(live.size());
            const uint32_t b = live[idx];
            run_bm.invalidateBlock(b);
            const Ppa first = geom.firstPpa(b);
            for (uint32_t i = 0; i < ppb; i++) {
                if (page_bm.isValid(first + i))
                    page_bm.invalidate(first + i);
            }
            if (rng.nextBounded(4) != 0) {
                run_flash.eraseBlock(b);
                page_flash.eraseBlock(b);
                run_bm.releaseBlock(b);
                page_bm.releaseBlock(b);
                live.erase(live.begin() + static_cast<ptrdiff_t>(idx));
            }
        }

        for (uint32_t b = 0; b < geom.totalBlocks(); b++) {
            ASSERT_EQ(run_bm.validCount(b), page_bm.validCount(b))
                << "step " << step << " block " << b;
            for (uint32_t i = 0; i < ppb; i++) {
                const Ppa ppa = geom.firstPpa(b) + i;
                ASSERT_EQ(run_bm.isValid(ppa), page_bm.isValid(ppa))
                    << "step " << step << " ppa " << ppa;
            }
            ASSERT_EQ(run_bm.validPages(b), page_bm.validPages(b))
                << "step " << step << " block " << b;
        }
        ASSERT_EQ(picks(run_bm), picks(page_bm)) << "step " << step;
    }
}

} // namespace
} // namespace leaftl
