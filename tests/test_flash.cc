/**
 * @file
 * Tests for the NAND flash array model: program/read/erase semantics,
 * NAND ordering rules, the OOB reverse-mapping window (§3.5), the
 * erase-count spread, and the sparse block-granular page store
 * (residency O(live blocks), behavior identical to the dense per-page
 * store it replaced).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "flash/flash_array.hh"
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
    g.pages_per_block = 8;
    g.page_size = 4096;
    g.oob_size = 128;
    return g;
}

TEST(Geometry, DerivedQuantities)
{
    const Geometry g = smallGeom();
    EXPECT_EQ(g.totalBlocks(), 8u);
    EXPECT_EQ(g.totalPages(), 64u);
    EXPECT_EQ(g.capacityBytes(), 64u * 4096);
    EXPECT_EQ(g.blockOf(17), 2u);
    EXPECT_EQ(g.pageInBlock(17), 1u);
    EXPECT_EQ(g.channelOfBlock(3), 1u);
    EXPECT_EQ(g.firstPpa(2), 16u);
    EXPECT_EQ(g.oobEntries(), 32u);
}

TEST(FlashArray, ProgramAndReadBack)
{
    FlashArray flash(smallGeom());
    flash.programPage(0, 111);
    flash.programPage(1, 222);
    EXPECT_EQ(flash.readPage(0), 111u);
    EXPECT_EQ(flash.readPage(1), 222u);
    EXPECT_EQ(flash.readPage(2), kInvalidLpa);
    EXPECT_EQ(flash.counters().page_writes, 2u);
    EXPECT_EQ(flash.counters().page_reads, 3u);
}

TEST(FlashArray, PeekDoesNotCount)
{
    FlashArray flash(smallGeom());
    flash.programPage(0, 5);
    EXPECT_EQ(flash.peekLpa(0), 5u);
    EXPECT_EQ(flash.counters().page_reads, 0u);
}

TEST(FlashArray, BlockLifecycle)
{
    FlashArray flash(smallGeom());
    EXPECT_EQ(flash.blockState(0), BlockState::Free);
    flash.programPage(0, 1);
    EXPECT_EQ(flash.blockState(0), BlockState::Open);
    for (Ppa p = 1; p < 8; p++)
        flash.programPage(p, p);
    EXPECT_EQ(flash.blockState(0), BlockState::Full);
    flash.eraseBlock(0);
    EXPECT_EQ(flash.blockState(0), BlockState::Free);
    EXPECT_EQ(flash.eraseCount(0), 1u);
    EXPECT_EQ(flash.peekLpa(0), kInvalidLpa);
    // Erased block can be programmed again from page 0.
    flash.programPage(0, 99);
    EXPECT_EQ(flash.peekLpa(0), 99u);
}

TEST(FlashArray, EraseSpreadTracksSkewedErases)
{
    FlashArray flash(smallGeom());
    const uint32_t blocks = flash.geometry().totalBlocks();
    EXPECT_EQ(flash.eraseSpread(), 0u);

    // One hot block: the spread is its count while any block is
    // still at zero, and shrinks once the coldest block catches up.
    for (int i = 0; i < 5; i++)
        flash.eraseBlock(3);
    EXPECT_EQ(flash.eraseSpread(), 5u);
    for (uint32_t b = 0; b < blocks; b++)
        flash.eraseBlock(b);
    EXPECT_EQ(flash.eraseSpread(), 5u);
    for (uint32_t b = 0; b < blocks; b++) {
        if (b != 3)
            flash.eraseBlock(b);
    }
    EXPECT_EQ(flash.eraseSpread(), 4u);

    // Skewed random erases (low blocks far hotter than high ones):
    // the spread is max - min of eraseCount after every erase.
    Rng rng(11);
    for (int step = 0; step < 2000; step++) {
        const uint32_t hot = static_cast<uint32_t>(rng.nextBounded(blocks));
        flash.eraseBlock(static_cast<uint32_t>(rng.nextBounded(hot + 1)));
        uint32_t lo = flash.eraseCount(0);
        uint32_t hi = lo;
        for (uint32_t b = 1; b < blocks; b++) {
            lo = std::min(lo, flash.eraseCount(b));
            hi = std::max(hi, flash.eraseCount(b));
        }
        ASSERT_EQ(flash.eraseSpread(), hi - lo) << step;
    }
    EXPECT_GT(flash.eraseSpread(), 100u);
}

TEST(FlashArrayDeath, OutOfOrderProgramAborts)
{
    FlashArray flash(smallGeom());
    EXPECT_DEATH(flash.programPage(3, 1), "out-of-order");
    flash.programPage(0, 1);
    EXPECT_DEATH(flash.programPage(0, 2), "out-of-order");
}

TEST(FlashArray, OobWindowCoversNeighbors)
{
    FlashArray flash(smallGeom());
    for (Ppa p = 0; p < 8; p++)
        flash.programPage(p, 100 + p);
    // Window of gamma=2 around page 4: LPAs of pages 2..6.
    const auto w = flash.oobWindow(4, 2);
    ASSERT_EQ(w.size(), 5u);
    for (int i = 0; i < 5; i++)
        EXPECT_EQ(w[i], 102u + i);
}

TEST(FlashArray, OobWindowClipsAtBlockBoundary)
{
    FlashArray flash(smallGeom());
    for (Ppa p = 0; p < 8; p++)
        flash.programPage(p, 50 + p);
    for (Ppa p = 8; p < 10; p++)
        flash.programPage(p, 90 + p);

    // Page 1's window of gamma=3 reaches below page 0: nulls there.
    auto w = flash.oobWindow(1, 3);
    ASSERT_EQ(w.size(), 7u);
    EXPECT_EQ(w[0], kInvalidLpa);
    EXPECT_EQ(w[1], kInvalidLpa);
    EXPECT_EQ(w[2], 50u);

    // Page 7's window must not leak into block 1 (pages 8+).
    w = flash.oobWindow(7, 2);
    ASSERT_EQ(w.size(), 5u);
    EXPECT_EQ(w[2], 57u);
    EXPECT_EQ(w[3], kInvalidLpa);
    EXPECT_EQ(w[4], kInvalidLpa);
}

TEST(FlashArray, OobWindowClampsToPhysicalEntries)
{
    Geometry g = smallGeom();
    g.oob_size = 20; // Only 5 entries -> max gamma 2.
    FlashArray flash(g);
    for (Ppa p = 0; p < 8; p++)
        flash.programPage(p, p);
    const auto w = flash.oobWindow(4, 10);
    EXPECT_EQ(w.size(), 5u);
}

TEST(FlashArray, OobWindowScratchOverloadMatches)
{
    FlashArray flash(smallGeom());
    for (Ppa p = 0; p < 10; p++)
        flash.programPage(p, 200 + p);

    std::vector<Lpa> scratch;
    for (Ppa ppa : {0u, 1u, 4u, 7u, 8u, 9u}) {
        for (uint32_t gamma : {0u, 1u, 3u, 50u}) {
            flash.oobWindow(ppa, gamma, scratch);
            EXPECT_EQ(scratch, flash.oobWindow(ppa, gamma))
                << "ppa=" << ppa << " gamma=" << gamma;
        }
    }
    // The scratch buffer shrinks as well as grows between calls.
    flash.oobWindow(4, 3, scratch);
    ASSERT_EQ(scratch.size(), 7u);
    flash.oobWindow(4, 1, scratch);
    ASSERT_EQ(scratch.size(), 3u);
}

TEST(FlashArraySparse, ResidencyTracksLiveBlocks)
{
    FlashArray flash(smallGeom());
    EXPECT_EQ(flash.residentBlocks(), 0u);
    const uint64_t fresh = flash.residentBytes();

    // Programming one page materializes exactly its block.
    flash.programPage(0, 1);
    EXPECT_EQ(flash.residentBlocks(), 1u);
    EXPECT_EQ(flash.residentBytes(),
              fresh + flash.geometry().pages_per_block * sizeof(Lpa));
    for (Ppa p = 1; p < 8; p++)
        flash.programPage(p, p);
    EXPECT_EQ(flash.residentBlocks(), 1u);

    flash.programPage(flash.geometry().firstPpa(3), 77);
    EXPECT_EQ(flash.residentBlocks(), 2u);

    // Erase releases the block's array; erasing a never-programmed
    // block changes nothing.
    flash.eraseBlock(0);
    EXPECT_EQ(flash.residentBlocks(), 1u);
    flash.eraseBlock(5);
    EXPECT_EQ(flash.residentBlocks(), 1u);
    flash.eraseBlock(3);
    EXPECT_EQ(flash.residentBlocks(), 0u);
    EXPECT_EQ(flash.residentBytes(), fresh);
}

TEST(FlashArraySparse, MatchesDenseSemanticsUnderProgramEraseCycles)
{
    // Drive random in-order program / erase / reprogram cycles against
    // a dense reference model; every page and every OOB window must
    // agree at every step.
    const Geometry g = smallGeom();
    FlashArray flash(g);
    std::vector<Lpa> dense(g.totalPages(), kInvalidLpa);
    std::vector<uint32_t> next_page(g.totalBlocks(), 0);

    Rng rng(0xF1A5F1A5);
    Lpa next_lpa = 1;
    for (int step = 0; step < 2000; step++) {
        const uint32_t block =
            static_cast<uint32_t>(rng.nextBounded(g.totalBlocks()));
        const bool full = next_page[block] == g.pages_per_block;
        if (full || (next_page[block] > 0 && rng.nextBounded(8) == 0)) {
            // Erase (forced when full so cycles keep going).
            for (uint32_t i = 0; i < g.pages_per_block; i++)
                dense[g.firstPpa(block) + i] = kInvalidLpa;
            next_page[block] = 0;
            flash.eraseBlock(block);
        } else {
            const Ppa ppa = g.firstPpa(block) + next_page[block];
            dense[ppa] = next_lpa;
            flash.programPage(ppa, next_lpa);
            next_page[block]++;
            next_lpa++;
        }

        // Full-array sweep (the device is 64 pages).
        for (Ppa p = 0; p < g.totalPages(); p++)
            ASSERT_EQ(flash.peekLpa(p), dense[p]) << "step " << step;
        // Spot-check an OOB window against the dense model.
        const Ppa probe = static_cast<Ppa>(rng.nextBounded(g.totalPages()));
        const auto w = flash.oobWindow(probe, 2);
        for (uint32_t i = 0; i < w.size(); i++) {
            const int64_t p = static_cast<int64_t>(probe) - 2 + i;
            const Ppa first = g.firstPpa(g.blockOf(probe));
            const bool in_block =
                p >= first && p < first + g.pages_per_block;
            ASSERT_EQ(w[i], in_block ? dense[static_cast<Ppa>(p)]
                                     : kInvalidLpa)
                << "step " << step;
        }
    }
}

TEST(ChannelGeometry, RoundRobinStriping)
{
    Geometry g = smallGeom();
    EXPECT_EQ(g.channelOfBlock(0), 0u);
    EXPECT_EQ(g.channelOfBlock(1), 1u);
    EXPECT_EQ(g.channelOfBlock(2), 0u);
    EXPECT_EQ(g.channelOf(g.firstPpa(3)), 1u);
}

} // namespace
} // namespace leaftl
