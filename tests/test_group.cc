/**
 * @file
 * Tests for the per-group log-structured mapping table (§3.4, §3.7,
 * Algorithms 1 & 2), including the paper's Fig. 13 timeline and a
 * randomized differential test against a shadow map.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>

#include "learned/group.hh"
#include "learned/plr.hh"
#include "util/float16.hh"
#include "util/rng.hh"

namespace leaftl
{
namespace
{

/** Learn a run of (off, consecutive PPAs from p0) into the group. */
void
learnRun(Group &group, const std::vector<uint8_t> &offs, Ppa p0,
         uint32_t gamma, std::map<uint8_t, Ppa> *truth = nullptr)
{
    std::vector<PlrPoint> pts;
    Ppa ppa = p0;
    for (uint8_t off : offs) {
        pts.push_back({off, ppa});
        if (truth)
            (*truth)[off] = ppa;
        ppa++;
    }
    for (const auto &fs : fitGroupSegments(pts, gamma))
        group.update(fs);
}

std::vector<uint8_t>
range(uint32_t first, uint32_t last, uint32_t step = 1)
{
    std::vector<uint8_t> offs;
    for (uint32_t o = first; o <= last; o += step)
        offs.push_back(static_cast<uint8_t>(o));
    return offs;
}

void
verifyAgainstTruth(const Group &group, const std::map<uint8_t, Ppa> &truth,
                   uint32_t gamma)
{
    for (uint32_t off = 0; off < kGroupSpan; off++) {
        const auto res = group.lookup(static_cast<uint8_t>(off));
        auto it = truth.find(static_cast<uint8_t>(off));
        if (it == truth.end()) {
            EXPECT_FALSE(res.has_value())
                << "phantom mapping for off " << off;
            continue;
        }
        ASSERT_TRUE(res.has_value()) << "lost mapping for off " << off;
        const int64_t err = static_cast<int64_t>(res->ppa) -
                            static_cast<int64_t>(it->second);
        const int64_t bound = res->approximate ? gamma : 0;
        EXPECT_LE(std::llabs(err), bound) << "off " << off;
    }
}

TEST(Group, EmptyLookupFindsNothing)
{
    Group g;
    EXPECT_FALSE(g.lookup(0).has_value());
    EXPECT_EQ(g.numLevels(), 0u);
    EXPECT_EQ(g.memoryBytes(), 0u);
}

TEST(Group, SingleSegmentLookup)
{
    Group g;
    std::map<uint8_t, Ppa> truth;
    learnRun(g, range(0, 63), 1000, 0, &truth);
    EXPECT_EQ(g.numLevels(), 1u);
    EXPECT_EQ(g.numSegments(), 1u);
    verifyAgainstTruth(g, truth, 0);
}

TEST(Group, PaperFigure13Timeline)
{
    // The worked example of §3.7 (gamma chosen so [75,82] and [72,80]
    // are approximate).
    Group g;
    const uint32_t gamma = 8;

    // T0: initial segment [0, 63].
    learnRun(g, range(0, 63), 0, 0);
    EXPECT_EQ(g.numLevels(), 1u);

    // T1: update LPAs 200-255: no overlap, stays at level 0.
    learnRun(g, range(200, 255), 1000, 0);
    EXPECT_EQ(g.numLevels(), 1u);
    EXPECT_EQ(g.numSegments(), 2u);

    // T2: update LPAs 16-31: overlaps [0,63], victim drops one level.
    learnRun(g, range(16, 31), 2000, 0);
    EXPECT_EQ(g.numLevels(), 2u);
    EXPECT_EQ(g.numSegments(), 3u);

    // T3: approximate segment {75, 78, 82}.
    learnRun(g, {75, 78, 82}, 3000, gamma);
    // T4: approximate segment {72, 73, 80}: ranges interleave, the
    // older approximate segment moves down.
    learnRun(g, {72, 73, 80}, 4000, gamma);
    EXPECT_GE(g.numLevels(), 2u);

    // T5: lookup LPA 50 resolves through the lower level (old [0,63]).
    auto r50 = g.lookup(50);
    ASSERT_TRUE(r50.has_value());
    EXPECT_EQ(r50->ppa, 0u + 50);
    EXPECT_GE(r50->levels_visited, 2u);

    // T6: lookup LPA 78: inside [72,80]'s range but owned by the
    // {75,78,82} segment; the CRB must resolve it.
    auto r78 = g.lookup(78);
    ASSERT_TRUE(r78.has_value());
    EXPECT_TRUE(r78->approximate);
    const int64_t err78 =
        static_cast<int64_t>(r78->ppa) - static_cast<int64_t>(3001);
    EXPECT_LE(std::llabs(err78), static_cast<int64_t>(gamma));

    // T7: update LPAs 32-90: fully covers {72,73,80}, which dies.
    learnRun(g, range(32, 90), 5000, 0);
    auto r80 = g.lookup(80);
    ASSERT_TRUE(r80.has_value());
    EXPECT_EQ(r80->ppa, 5000u + (80 - 32));

    // T8: compaction reclaims dead segments and empty levels.
    const size_t before = g.memoryBytes();
    g.compact();
    EXPECT_LE(g.memoryBytes(), before);
    g.checkInvariants();

    // Post-compaction lookups are unchanged: LPA 50 was overwritten
    // at T7, LPA 5 still resolves through the original segment, LPA
    // 20 through the T2 segment.
    auto r50b = g.lookup(50);
    ASSERT_TRUE(r50b.has_value());
    EXPECT_EQ(r50b->ppa, 5000u + (50 - 32));
    auto r5 = g.lookup(5);
    ASSERT_TRUE(r5.has_value());
    EXPECT_EQ(r5->ppa, 0u + 5);
    auto r20 = g.lookup(20);
    ASSERT_TRUE(r20.has_value());
    EXPECT_EQ(r20->ppa, 2000u + (20 - 16));
}

TEST(Group, FullOverwriteRemovesVictim)
{
    Group g;
    learnRun(g, range(10, 20), 100, 0);
    EXPECT_EQ(g.numSegments(), 1u);
    learnRun(g, range(10, 20), 200, 0);
    // The old segment is fully superseded: removed at insert.
    EXPECT_EQ(g.numSegments(), 1u);
    EXPECT_EQ(g.numLevels(), 1u);
    auto r = g.lookup(15);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->ppa, 205u);
}

TEST(Group, PartialOverlapTrimsVictimEdges)
{
    Group g;
    learnRun(g, range(0, 100), 100, 0);
    learnRun(g, range(0, 50), 300, 0);
    // Victim's surviving range is [51, 100]; trimmed, stays sorted.
    EXPECT_EQ(g.numLevels(), 1u);
    auto r = g.lookup(75);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->ppa, 100u + 75);
    auto r2 = g.lookup(25);
    ASSERT_TRUE(r2.has_value());
    EXPECT_EQ(r2->ppa, 300u + 25);
    g.checkInvariants();
}

TEST(Group, InteriorOverlapPopsVictimDown)
{
    Group g;
    learnRun(g, range(0, 100), 100, 0);
    learnRun(g, range(40, 60), 300, 0); // Interior: victim interleaves.
    EXPECT_EQ(g.numLevels(), 2u);
    EXPECT_EQ(g.lookup(50)->ppa, 300u + 10);
    EXPECT_EQ(g.lookup(10)->ppa, 100u + 10);
    EXPECT_EQ(g.lookup(90)->ppa, 100u + 90);
    g.checkInvariants();
}

TEST(Group, StrideVictimSurvivesInterleavedSinglePoints)
{
    Group g;
    // Stride-2 accurate segment over evens.
    learnRun(g, range(0, 40, 2), 100, 0);
    // Overwrite odd offsets: ranges interleave, members disjoint.
    learnRun(g, range(1, 39, 2), 300, 0);
    for (uint32_t off = 0; off <= 40; off += 2)
        EXPECT_EQ(g.lookup(static_cast<uint8_t>(off))->ppa,
                  100u + off / 2);
    for (uint32_t off = 1; off <= 39; off += 2)
        EXPECT_EQ(g.lookup(static_cast<uint8_t>(off))->ppa,
                  300u + (off - 1) / 2);
    // Compaction cannot merge member-disjoint interleaved segments,
    // but must not corrupt them either.
    g.compact();
    g.checkInvariants();
    for (uint32_t off = 0; off <= 40; off += 2)
        EXPECT_EQ(g.lookup(static_cast<uint8_t>(off))->ppa,
                  100u + off / 2);
}

TEST(Group, CompactionMergesShadowedLevels)
{
    Group g;
    std::map<uint8_t, Ppa> truth;
    // Layered full overwrites of the same range: compaction should
    // collapse everything to one level.
    for (int layer = 0; layer < 6; layer++)
        learnRun(g, range(0, 63), 1000 * (layer + 1), 0, &truth);
    learnRun(g, range(10, 30), 50000, 0, &truth);
    g.compact();
    EXPECT_LE(g.numLevels(), 2u);
    verifyAgainstTruth(g, truth, 0);
    g.checkInvariants();
}

TEST(Group, MemoryAccountingTracksSegmentsAndCrb)
{
    Group g;
    learnRun(g, range(0, 63), 0, 0);
    EXPECT_EQ(g.memoryBytes(), 8u);
    learnRun(g, {70, 72, 75, 76}, 100, 8); // Approximate + CRB run.
    EXPECT_EQ(g.numApproximate(), 1u);
    EXPECT_EQ(g.memoryBytes(), 16u + 4 + 1);
}

TEST(Group, LevelsVisitedCountsSearchDepth)
{
    Group g;
    learnRun(g, range(0, 100), 100, 0);
    learnRun(g, range(40, 60), 300, 0);
    EXPECT_EQ(g.lookup(50)->levels_visited, 1u);
    EXPECT_EQ(g.lookup(10)->levels_visited, 2u);
}

/** Offsets set in @a m, ascending, via forEach. */
std::vector<uint8_t>
maskOffsets(const GroupMask &m)
{
    std::vector<uint8_t> offs;
    m.forEach([&](uint8_t off) { offs.push_back(off); });
    return offs;
}

/** The only segment of @a g (the group must hold exactly one). */
SegEntry
onlySegment(const Group &g)
{
    EXPECT_EQ(g.numSegments(), 1u);
    SegEntry only;
    g.forEachSegment([&](const SegEntry &e, size_t) { only = e; });
    return only;
}

TEST(GroupMask, RangesAtWordBoundaries)
{
    const std::pair<uint32_t, uint32_t> ranges[] = {
        {0, 0},     {63, 63},  {63, 64},   {64, 64},  {0, 63},
        {64, 127},  {127, 128}, {128, 191}, {255, 255}, {192, 255},
        {0, 255},   {60, 200}, {1, 254}};
    for (const auto &[first, last] : ranges) {
        const GroupMask m = GroupMask::range(static_cast<uint8_t>(first),
                                             static_cast<uint8_t>(last));
        for (uint32_t off = 0; off < kGroupSpan; off++) {
            EXPECT_EQ(m.test(static_cast<uint8_t>(off)),
                      off >= first && off <= last)
                << first << ".." << last << " at " << off;
        }
        EXPECT_EQ(m.first(), first);
        EXPECT_EQ(m.last(), last);
        EXPECT_EQ(maskOffsets(m), range(first, last));
        EXPECT_TRUE(m.any());
        EXPECT_TRUE((m & ~m).none());
    }
    EXPECT_TRUE(GroupMask().none());
    EXPECT_TRUE(GroupMask::range(0, 63).intersects(GroupMask::range(63, 64)));
    EXPECT_FALSE(
        GroupMask::range(0, 63).intersects(GroupMask::range(64, 255)));
}

TEST(GroupMask, SetAlgebraAcrossWords)
{
    GroupMask a = GroupMask::range(60, 130);
    GroupMask b;
    for (uint32_t off : {0u, 63u, 64u, 127u, 128u, 255u})
        b.set(static_cast<uint8_t>(off));
    EXPECT_EQ(maskOffsets(a & b), (std::vector<uint8_t>{63, 64, 127, 128}));
    const GroupMask rest = a & ~b;
    EXPECT_EQ(rest.first(), 60u);
    EXPECT_EQ(rest.last(), 130u);
    EXPECT_FALSE(rest.test(64));
    a |= b;
    EXPECT_EQ(a.first(), 0u);
    EXPECT_EQ(a.last(), 255u);
}

TEST(GroupMask, StrideGridsAboveOneWord)
{
    // Strides above 64 put each grid point in a different word.
    for (const uint32_t stride : {65u, 70u, 100u, 127u}) {
        Group g;
        const std::vector<uint8_t> offs = range(3, 255, stride);
        ASSERT_GE(offs.size(), 2u);
        learnRun(g, offs, 500, 0);
        const SegEntry e = onlySegment(g);
        ASSERT_FALSE(e.seg.approximate());
        EXPECT_EQ(e.seg.stride(), stride);
        EXPECT_EQ(maskOffsets(g.members(e)), offs) << "stride " << stride;
    }
}

TEST(GroupMask, SinglePointAtTheLastOffset)
{
    Group g;
    learnRun(g, {255}, 42, 0);
    const SegEntry e = onlySegment(g);
    ASSERT_TRUE(e.seg.singlePoint());
    EXPECT_EQ(maskOffsets(g.members(e)), (std::vector<uint8_t>{255}));
}

TEST(GroupMask, ApproximateMembersAreTheCrbRun)
{
    const std::vector<uint8_t> learned = {70, 72, 75, 76, 130, 131, 190};
    Group g;
    learnRun(g, learned, 100, 64);
    const SegEntry e = onlySegment(g);
    ASSERT_TRUE(e.seg.approximate());
    EXPECT_EQ(maskOffsets(g.members(e)), learned);
    EXPECT_EQ(g.members(e), g.crb().mask(e.id));

    // A newer approximate segment steals offsets out of the run; each
    // mask follows the CRB's owner index, not the segment's range.
    learnRun(g, {72, 73, 74, 131}, 900, 64);
    size_t approximate = 0;
    g.forEachSegment([&](const SegEntry &seg, size_t) {
        if (!seg.seg.approximate())
            return;
        approximate++;
        std::vector<uint8_t> owned;
        for (uint32_t off = 0; off < kGroupSpan; off++) {
            if (g.crb().owner(static_cast<uint8_t>(off)) == seg.id)
                owned.push_back(static_cast<uint8_t>(off));
        }
        EXPECT_EQ(maskOffsets(g.members(seg)), owned);
        EXPECT_EQ(g.members(seg), g.crb().mask(seg.id));
    });
    EXPECT_EQ(approximate, 2u);
    EXPECT_EQ(maskOffsets(g.members(e)),
              (std::vector<uint8_t>{70, 75, 76, 130, 190}));
    g.checkInvariants();
}

TEST(GroupMask, MembersMatchHasLpaUnderFuzz)
{
    for (const uint32_t gamma : {0u, 1u, 4u, 16u}) {
        Rng rng(gamma * 31 + 5);
        Group g;
        Ppa ppa = 1;
        for (int round = 0; round < 80; round++) {
            std::vector<uint8_t> offs;
            const uint32_t stride =
                rng.nextBool(0.2) ? 65 + rng.nextBounded(100)
                                  : 1 + rng.nextBounded(5);
            uint32_t off = rng.nextBounded(kGroupSpan);
            while (off < kGroupSpan && offs.size() < 48) {
                offs.push_back(static_cast<uint8_t>(off));
                off += rng.nextBool(0.3) ? 1 + rng.nextBounded(9) : stride;
            }
            learnRun(g, offs, ppa, gamma);
            ppa += static_cast<Ppa>(offs.size()) + rng.nextBounded(50);
            if (round % 11 == 10)
                g.compact();
            g.forEachSegment([&](const SegEntry &e, size_t) {
                const GroupMask m = g.members(e);
                for (uint32_t o = 0; o < kGroupSpan; o++) {
                    ASSERT_EQ(m.test(static_cast<uint8_t>(o)),
                              g.hasLpa(e, static_cast<uint8_t>(o)))
                        << "gamma " << gamma << " round " << round
                        << " " << e.seg.toString() << " off " << o;
                }
            });
        }
    }
}

TEST(Group, CompactionReplaysAccurateVictimsInOrder)
{
    // The grid V = {0, 10, 20} sits at the bottom, the point {10} on
    // top, and the point {0} and the grid {5, 15} between them (the
    // {5, 15} grid keeps {10} from sinking in phase 2). Merged level
    // by level, 10 is stolen first (the range stays [0, 20]) and 0
    // next, from the grid recomputed over [0, 20]: V survives as
    // [10, 20]. Subtracting the union {0, 5, 10, 15} at once would
    // leave [20, 20] instead.
    Group g;
    const uint16_t kbits =
        float16SetTag(float16Encode(1.0f / 10.0f), false);
    g.restoreRaw(0, Segment::makeSinglePoint(10, 900), {});
    g.restoreRaw(1, Segment::makeSinglePoint(0, 800), {});
    g.restoreRaw(1, Segment(5, 10, kbits, 200), {});
    g.restoreRaw(2, Segment(0, 20, kbits, 100), {});
    g.compact();
    g.checkInvariants();
    bool found = false;
    g.forEachSegment([&](const SegEntry &e, size_t) {
        if (e.seg.intercept() != 100)
            return;
        found = true;
        EXPECT_EQ(e.seg.slpa(), 10u);
        EXPECT_EQ(e.seg.endOff(), 20u);
    });
    EXPECT_TRUE(found);
    EXPECT_EQ(g.lookup(10)->ppa, 900u);
    EXPECT_EQ(g.lookup(20)->ppa, 102u);
}

TEST(Group, CompactionSinkTrimsAnAccurateVictimAtItsEndpoint)
{
    // The grid V = {10, 12, .., 20} sits under the point {20}, which
    // sits under the point {18}. Phase 1 replays V in order: {18}
    // leaves the range [10, 20] (the hole is forgotten), then {20}
    // trims it to [10, 18] -- an endpoint the top point owns. Phase 2
    // sinks {18} next to {20}, then into V's level, and only that
    // merge trims V to [10, 16]; without it, {18} would conflict and
    // keep a level of its own.
    Group g;
    const uint16_t kbits = float16SetTag(float16Encode(1.0f / 2.0f), false);
    g.restoreRaw(0, Segment::makeSinglePoint(18, 900), {});
    g.restoreRaw(1, Segment::makeSinglePoint(20, 800), {});
    g.restoreRaw(2, Segment(10, 10, kbits, 100), {});
    g.compact();
    g.checkInvariants();
    EXPECT_EQ(g.numLevels(), 1u);
    bool found = false;
    g.forEachSegment([&](const SegEntry &e, size_t) {
        if (e.seg.intercept() != 100)
            return;
        found = true;
        EXPECT_EQ(e.seg.slpa(), 10u);
        EXPECT_EQ(e.seg.endOff(), 16u);
    });
    EXPECT_TRUE(found);
    EXPECT_EQ(g.lookup(16)->ppa, 108u);
    EXPECT_EQ(g.lookup(18)->ppa, 900u);
    EXPECT_EQ(g.lookup(20)->ppa, 800u);
}

TEST(Group, CompactionTightensALooseAccurateVictim)
{
    // V = {0, 10, 20} with its range loose at [0, 21] sits under the
    // point {5}, which owns neither end. Phase 1 still replays V: the
    // first overlapping step trims it to its grid, [0, 20], even though
    // the level above holds neither endpoint.
    Group g;
    const uint16_t kbits =
        float16SetTag(float16Encode(1.0f / 10.0f), false);
    g.restoreRaw(0, Segment::makeSinglePoint(5, 900), {});
    g.restoreRaw(1, Segment(0, 21, kbits, 100), {});
    g.compact();
    g.checkInvariants();
    bool found = false;
    g.forEachSegment([&](const SegEntry &e, size_t) {
        if (e.seg.intercept() != 100)
            return;
        found = true;
        EXPECT_EQ(e.seg.slpa(), 0u);
        EXPECT_EQ(e.seg.endOff(), 20u);
    });
    EXPECT_TRUE(found);
    EXPECT_EQ(g.lookup(5)->ppa, 900u);
    EXPECT_EQ(g.lookup(20)->ppa, 102u);
}

class GroupRandomSweep
    : public ::testing::TestWithParam<std::tuple<uint32_t, uint64_t>>
{
};

TEST_P(GroupRandomSweep, DifferentialAgainstShadowMap)
{
    const uint32_t gamma = std::get<0>(GetParam());
    Rng rng(std::get<1>(GetParam()));
    Group g;
    std::map<uint8_t, Ppa> truth;
    Ppa next_ppa = 10000;

    for (int round = 0; round < 60; round++) {
        // Generate a random sorted batch (mix of runs and points).
        std::vector<uint8_t> offs;
        uint32_t off = rng.nextBounded(32);
        while (off < kGroupSpan && offs.size() < 64) {
            offs.push_back(static_cast<uint8_t>(off));
            off += 1 + rng.nextBounded(7);
        }
        if (offs.empty())
            continue;
        learnRun(g, offs, next_ppa, gamma, &truth);
        next_ppa += static_cast<Ppa>(offs.size()) + rng.nextBounded(100);

        if (round % 17 == 16) {
            g.compact();
        }
        g.checkInvariants();
    }
    verifyAgainstTruth(g, truth, gamma);
    g.compact();
    g.checkInvariants();
    verifyAgainstTruth(g, truth, gamma);
}

INSTANTIATE_TEST_SUITE_P(
    GammaSeeds, GroupRandomSweep,
    ::testing::Combine(::testing::Values(0u, 1u, 4u, 16u),
                       ::testing::Range<uint64_t>(0, 15)));

} // namespace
} // namespace leaftl
