/**
 * @file
 * Unit tests for the Conflict Resolution Buffer (§3.4, Fig. 9): runs
 * are GroupMasks in CRB-assigned slots, recycled after removal.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <vector>

#include "learned/crb.hh"
#include "util/rng.hh"

namespace leaftl
{
namespace
{

GroupMask
maskOf(std::initializer_list<uint8_t> offs)
{
    GroupMask m;
    for (uint8_t off : offs)
        m.set(off);
    return m;
}

std::vector<uint8_t>
offsetsOf(const GroupMask &m)
{
    std::vector<uint8_t> offs;
    m.forEach([&](uint8_t off) { offs.push_back(off); });
    return offs;
}

TEST(Crb, InsertAndLookup)
{
    Crb crb;
    std::vector<Crb::Emptied> emptied;
    const Crb::SegId id = crb.insertRun(maskOf({100, 101, 103, 104, 106}),
                                        emptied);
    EXPECT_TRUE(emptied.empty());
    EXPECT_TRUE(crb.contains(id, 103));
    EXPECT_FALSE(crb.contains(id, 102));
    EXPECT_EQ(crb.owner(104), id);
    EXPECT_EQ(crb.owner(99), Crb::kNoSeg);
    EXPECT_EQ(crb.mask(id), maskOf({100, 101, 103, 104, 106}));
    EXPECT_EQ(crb.numRuns(), 1u);
    crb.checkInvariants();
}

TEST(Crb, PaperFigure9Layout)
{
    // Fig. 9: two approximate segments with interleaved LPAs.
    Crb crb;
    std::vector<Crb::Emptied> emptied;
    const Crb::SegId a =
        crb.insertRun(maskOf({100, 101, 103, 104, 106}), emptied);
    const Crb::SegId b = crb.insertRun(maskOf({102, 105, 107, 108}), emptied);
    EXPECT_TRUE(emptied.empty());
    EXPECT_NE(a, b);

    // Lookup LPA 105 resolves to segment b, not segment a, even
    // though 105 is inside segment a's [100, 106] range.
    EXPECT_EQ(crb.owner(105), b);
    EXPECT_EQ(crb.owner(104), a);
    // Memory: one byte per LPA plus one separator per run.
    EXPECT_EQ(crb.sizeBytes(), 5u + 1 + 4 + 1);
    crb.checkInvariants();
}

TEST(Crb, DeduplicationStealsOwnership)
{
    Crb crb;
    std::vector<Crb::Emptied> emptied;
    const Crb::SegId a = crb.insertRun(maskOf({10, 20, 30}), emptied);
    const Crb::SegId b = crb.insertRun(maskOf({20, 40}), emptied);
    EXPECT_TRUE(emptied.empty());
    EXPECT_EQ(crb.owner(20), b);
    EXPECT_FALSE(crb.contains(a, 20));
    EXPECT_EQ(offsetsOf(crb.mask(a)), (std::vector<uint8_t>{10, 30}));
    EXPECT_EQ(crb.sizeBytes(), (2u + 1) + (2u + 1));
    crb.checkInvariants();
}

TEST(Crb, HeadCollisionRebasesOldRun)
{
    // Paper: a new segment starting at an existing run's SLPA bumps
    // the old run to its adjacent LPA. Stealing the shared offset
    // does that on its own.
    Crb crb;
    std::vector<Crb::Emptied> emptied;
    const Crb::SegId a = crb.insertRun(maskOf({100, 101, 103}), emptied);
    const Crb::SegId b = crb.insertRun(maskOf({100, 102}), emptied);
    EXPECT_EQ(crb.owner(100), b);
    EXPECT_EQ(crb.mask(a).first(), 101u);
}

TEST(Crb, FullOverlapEmptiesOldRun)
{
    Crb crb;
    std::vector<Crb::Emptied> emptied;
    const Crb::SegId a = crb.insertRun(maskOf({5, 6}), emptied);
    crb.insertRun(maskOf({5, 6, 7}), emptied);
    ASSERT_EQ(emptied.size(), 1u);
    EXPECT_EQ(emptied[0].id, a);
    EXPECT_EQ(emptied[0].off, 6u); // The steal that emptied it.
    EXPECT_EQ(crb.numRuns(), 1u);
    EXPECT_EQ(crb.sizeBytes(), 3u + 1);
    crb.checkInvariants();
}

TEST(Crb, EmptiedRunsReportTheirLastStolenOffset)
{
    Crb crb;
    std::vector<Crb::Emptied> emptied;
    const Crb::SegId a = crb.insertRun(maskOf({10, 200}), emptied);
    const Crb::SegId b = crb.insertRun(maskOf({20, 70}), emptied);
    const Crb::SegId c = crb.insertRun(maskOf({30, 31, 90}), emptied);
    ASSERT_TRUE(emptied.empty());

    // One insert empties a and b and trims c; reports come in
    // ascending order of the emptying offset.
    crb.insertRun(maskOf({10, 20, 31, 70, 200}), emptied);
    ASSERT_EQ(emptied.size(), 2u);
    EXPECT_EQ(emptied[0].id, b);
    EXPECT_EQ(emptied[0].off, 70u);
    EXPECT_EQ(emptied[1].id, a);
    EXPECT_EQ(emptied[1].off, 200u);
    EXPECT_EQ(offsetsOf(crb.mask(c)), (std::vector<uint8_t>{30, 90}));
    EXPECT_EQ(crb.numRuns(), 2u);
    EXPECT_EQ(crb.sizeBytes(), (2u + 1) + (5u + 1));
    crb.checkInvariants();
}

TEST(Crb, RemoveOffsetsTrimsAndReportsEmpty)
{
    Crb crb;
    std::vector<Crb::Emptied> emptied;
    const Crb::SegId id = crb.insertRun(maskOf({1, 2, 3}), emptied);
    EXPECT_FALSE(crb.removeOffsets(id, maskOf({2})));
    EXPECT_FALSE(crb.contains(id, 2));
    EXPECT_EQ(crb.owner(2), Crb::kNoSeg);
    EXPECT_EQ(crb.sizeBytes(), 2u + 1);
    EXPECT_TRUE(crb.removeOffsets(id, maskOf({1, 3})));
    EXPECT_EQ(crb.numRuns(), 0u);
    EXPECT_EQ(crb.sizeBytes(), 0u);
    crb.checkInvariants();
}

TEST(Crb, RemoveOffsetsSkipsForeignOwners)
{
    Crb crb;
    std::vector<Crb::Emptied> emptied;
    const Crb::SegId a = crb.insertRun(maskOf({1, 2}), emptied);
    const Crb::SegId b = crb.insertRun(maskOf({2, 3}), emptied); // Steals 2.
    EXPECT_FALSE(crb.removeOffsets(a, maskOf({2}))); // 2 is b's now.
    EXPECT_TRUE(crb.contains(b, 2));
    EXPECT_TRUE(crb.contains(a, 1));
    crb.checkInvariants();
}

TEST(Crb, RemoveRunReleasesOwnership)
{
    Crb crb;
    std::vector<Crb::Emptied> emptied;
    const Crb::SegId id = crb.insertRun(maskOf({9, 10}), emptied);
    crb.removeRun(id);
    EXPECT_EQ(crb.owner(9), Crb::kNoSeg);
    EXPECT_TRUE(crb.mask(id).none());
    EXPECT_EQ(crb.numRuns(), 0u);
    EXPECT_EQ(crb.sizeBytes(), 0u);
    crb.checkInvariants();
}

TEST(Crb, FreedSlotsAreReusedLastInFirstOut)
{
    Crb crb;
    std::vector<Crb::Emptied> emptied;
    const Crb::SegId a = crb.insertRun(maskOf({1}), emptied);
    const Crb::SegId b = crb.insertRun(maskOf({2}), emptied);
    const Crb::SegId c = crb.insertRun(maskOf({3}), emptied);
    EXPECT_EQ(a, 0u);
    EXPECT_EQ(b, 1u);
    EXPECT_EQ(c, 2u);

    crb.removeRun(a);
    crb.removeRun(c);
    EXPECT_EQ(crb.insertRun(maskOf({4}), emptied), c);
    EXPECT_EQ(crb.restoreRun(maskOf({5})), a);
    EXPECT_EQ(crb.insertRun(maskOf({6}), emptied), 3u); // Grows again.
    EXPECT_EQ(crb.owner(4), c);
    EXPECT_EQ(crb.owner(5), a);

    // An insert may take the slot of the run it just emptied.
    EXPECT_EQ(crb.insertRun(maskOf({2, 7}), emptied), b);
    ASSERT_EQ(emptied.size(), 1u);
    EXPECT_EQ(emptied[0].id, b);
    EXPECT_EQ(offsetsOf(crb.mask(b)), (std::vector<uint8_t>{2, 7}));
    EXPECT_EQ(crb.numRuns(), 4u);
    crb.checkInvariants();
}

TEST(Crb, RestoreRunSkipsDedup)
{
    Crb crb;
    const Crb::SegId id = crb.restoreRun(maskOf({50, 60}));
    EXPECT_TRUE(crb.contains(id, 50));
    EXPECT_EQ(crb.numRuns(), 1u);
    crb.checkInvariants();
}

TEST(Crb, AverageSizeMatchesPaperScale)
{
    // Paper Fig. 10: CRBs average ~13.9 bytes. Sanity: small run
    // loads stay tens of bytes, far below the 256-byte worst case.
    Crb crb;
    std::vector<Crb::Emptied> emptied;
    crb.insertRun(maskOf({0, 3, 7}), emptied);
    crb.insertRun(maskOf({10, 11, 14, 18}), emptied);
    crb.insertRun(maskOf({40, 44}), emptied);
    EXPECT_LE(crb.sizeBytes(), 64u);
    EXPECT_EQ(crb.sizeBytes(), (3u + 1) + (4u + 1) + (2u + 1));
}

TEST(Crb, AccountingHoldsUnderRandomOperations)
{
    // Random inserts, trims and removals against a model of the
    // live runs: sizes, owners and masks agree after every step.
    Rng rng(11);
    Crb crb;
    std::vector<Crb::Emptied> emptied;
    std::vector<Crb::SegId> live;
    for (int step = 0; step < 3000; step++) {
        const uint64_t op = rng.nextBounded(4);
        if (op < 2 || live.empty()) {
            GroupMask offs;
            const uint64_t n = 1 + rng.nextBounded(12);
            for (uint64_t i = 0; i < n; i++)
                offs.set(static_cast<uint8_t>(rng.nextBounded(kGroupSpan)));
            emptied.clear();
            const Crb::SegId id = crb.insertRun(offs, emptied);
            for (const Crb::Emptied &e : emptied) {
                EXPECT_TRUE(offs.test(e.off));
                live.erase(std::find(live.begin(), live.end(), e.id));
            }
            live.push_back(id);
        } else {
            const size_t pick = rng.nextBounded(live.size());
            const Crb::SegId id = live[pick];
            bool gone = true;
            if (op == 2) {
                GroupMask offs;
                for (int i = 0; i < 4; i++)
                    offs.set(static_cast<uint8_t>(rng.nextBounded(kGroupSpan)));
                gone = crb.removeOffsets(id, offs);
            } else {
                crb.removeRun(id);
            }
            if (gone)
                live.erase(live.begin() + static_cast<long>(pick));
        }
        crb.checkInvariants();
        size_t offs = 0;
        for (Crb::SegId id : live) {
            ASSERT_TRUE(crb.mask(id).any());
            offs += crb.mask(id).count();
        }
        ASSERT_EQ(crb.numRuns(), live.size());
        ASSERT_EQ(crb.sizeBytes(), offs + live.size());
    }
}

TEST(CrbDeath, StaleIdAborts)
{
    Crb crb;
    std::vector<Crb::Emptied> emptied;
    const Crb::SegId id = crb.insertRun(maskOf({1}), emptied);
    crb.removeRun(id);
    EXPECT_DEATH(crb.removeRun(id), "stale CRB id");
}

TEST(CrbDeath, EmptyRunAborts)
{
    Crb crb;
    std::vector<Crb::Emptied> emptied;
    EXPECT_DEATH(crb.insertRun(GroupMask(), emptied), "non-empty");
}

TEST(CrbDeath, OverlappingRestoreAborts)
{
    Crb crb;
    crb.restoreRun(maskOf({4, 5}));
    EXPECT_DEATH(crb.restoreRun(maskOf({5, 6})), "disjoint");
}

} // namespace
} // namespace leaftl
