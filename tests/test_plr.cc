/**
 * @file
 * Unit and property tests for the greedy error-bounded PLR fitter
 * (§3.1-§3.3). The central property: every fitted segment's *encoded*
 * prediction is exact for accurate segments and within [-gamma,
 * +gamma] for approximate ones, for every covered offset.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <map>

#include "learned/plr.hh"
#include "util/float16.hh"
#include "util/rng.hh"

namespace leaftl
{
namespace
{

/** Verify the fitted cover: exact-once coverage + error bounds. */
void
verifyFit(const std::vector<PlrPoint> &pts,
          const std::vector<FittedSegment> &fit, uint32_t gamma)
{
    std::map<uint8_t, Ppa> truth;
    for (const auto &p : pts)
        truth[p.off] = p.ppa;

    std::map<uint8_t, size_t> covered;
    for (const auto &fs : fit) {
        fs.offs.forEach([&](uint8_t off) {
            covered[off]++;
            ASSERT_TRUE(truth.count(off)) << "fit invented offset";
            const int64_t pred = fs.seg.predict(off);
            const int64_t want = truth[off];
            const int64_t bound = fs.seg.approximate() ? gamma : 0;
            EXPECT_LE(std::llabs(pred - want), bound)
                << "off=" << int(off) << " gamma=" << gamma;
        });
        ASSERT_GE(fs.count, 1u);
        EXPECT_EQ(fs.count, fs.offs.count());
        EXPECT_EQ(fs.seg.slpa(), fs.offs.first());
        EXPECT_EQ(fs.seg.endOff(), fs.offs.last());
    }
    EXPECT_EQ(covered.size(), truth.size()) << "incomplete cover";
    for (const auto &[off, n] : covered)
        EXPECT_EQ(n, 1u) << "offset covered twice";
}

std::vector<PlrPoint>
seqPoints(uint8_t start, uint32_t n, Ppa p0, uint32_t stride = 1)
{
    std::vector<PlrPoint> pts;
    for (uint32_t i = 0; i < n; i++)
        pts.push_back({static_cast<uint8_t>(start + i * stride),
                       p0 + i});
    return pts;
}

TEST(Plr, SequentialRunYieldsOneAccurateSegment)
{
    const auto pts = seqPoints(0, 256, 1000);
    const auto fit = fitGroupSegments(pts, 0);
    ASSERT_EQ(fit.size(), 1u);
    EXPECT_FALSE(fit[0].seg.approximate());
    EXPECT_EQ(fit[0].count, 256u);
    verifyFit(pts, fit, 0);
}

TEST(Plr, StridedRunYieldsOneAccurateSegment)
{
    // Fig. 1 pattern B: regular stride 2.
    const auto pts = seqPoints(10, 100, 200, 2);
    const auto fit = fitGroupSegments(pts, 0);
    ASSERT_EQ(fit.size(), 1u);
    EXPECT_FALSE(fit[0].seg.approximate());
    EXPECT_EQ(fit[0].seg.stride(), 2u);
    verifyFit(pts, fit, 0);
}

TEST(Plr, IrregularPatternSplitsAtGammaZero)
{
    // Fig. 6 approximate example: {0,1,4,5} with consecutive PPAs is
    // NOT collinear, so gamma=0 must split it.
    const std::vector<PlrPoint> pts = {
        {0, 64}, {1, 65}, {4, 66}, {5, 67}};
    const auto fit = fitGroupSegments(pts, 0);
    EXPECT_GE(fit.size(), 2u);
    for (const auto &fs : fit)
        EXPECT_FALSE(fs.seg.approximate());
    verifyFit(pts, fit, 0);
}

TEST(Plr, IrregularPatternFitsOneApproximateAtGammaOne)
{
    const std::vector<PlrPoint> pts = {
        {0, 64}, {1, 65}, {4, 66}, {5, 67}};
    const auto fit = fitGroupSegments(pts, 1);
    ASSERT_EQ(fit.size(), 1u);
    EXPECT_TRUE(fit[0].seg.approximate());
    verifyFit(pts, fit, 1);
}

TEST(Plr, SinglePointBecomesSinglePointSegment)
{
    const std::vector<PlrPoint> pts = {{77, 999}};
    const auto fit = fitGroupSegments(pts, 4);
    ASSERT_EQ(fit.size(), 1u);
    EXPECT_TRUE(fit[0].seg.singlePoint());
    EXPECT_EQ(fit[0].seg.predict(77), 999u);
}

TEST(Plr, EmptyInputYieldsNothing)
{
    EXPECT_TRUE(fitGroupSegments({}, 0).empty());
    FitArena arena;
    arena.groups.push_back({0, 0, 0}); // Stale content is discarded.
    fitRun({}, 4, arena);
    EXPECT_TRUE(arena.groups.empty());
    EXPECT_TRUE(arena.segs.empty());
}

TEST(Plr, LargerGammaNeverProducesMoreSegments)
{
    Rng rng(99);
    for (int trial = 0; trial < 20; trial++) {
        std::vector<PlrPoint> pts;
        Ppa ppa = static_cast<Ppa>(rng.nextBounded(100000));
        uint32_t off = 0;
        while (off < 256) {
            pts.push_back({static_cast<uint8_t>(off), ppa++});
            off += 1 + rng.nextBounded(4);
        }
        size_t prev = SIZE_MAX;
        for (uint32_t gamma : {0u, 1u, 4u, 8u, 16u}) {
            const auto fit = fitGroupSegments(pts, gamma);
            verifyFit(pts, fit, gamma);
            EXPECT_LE(fit.size(), prev) << "gamma=" << gamma;
            prev = fit.size();
        }
    }
}

TEST(Plr, FitRunSplitsAtGroupBoundaries)
{
    // A run crossing LPA 256 must split into two group fits.
    std::vector<std::pair<Lpa, Ppa>> run;
    for (Lpa lpa = 250; lpa < 262; lpa++)
        run.emplace_back(lpa, 5000 + lpa);
    FitArena arena;
    fitRun(run, 0, arena);
    ASSERT_EQ(arena.groups.size(), 2u);
    EXPECT_EQ(arena.groups[0].group, 0u);
    EXPECT_EQ(arena.groups[1].group, 1u);
    ASSERT_EQ(arena.segments(arena.groups[0]).size(), 1u);
    ASSERT_EQ(arena.segments(arena.groups[1]).size(), 1u);
    EXPECT_EQ(arena.segments(arena.groups[0])[0].offs.first(), 250u);
    EXPECT_EQ(arena.segments(arena.groups[1])[0].offs.first(), 0u);
}

TEST(Plr, RunLengthsMotivationStudy)
{
    // Ungrouped study helper (Fig. 5): a long sequential run is one
    // segment regardless of the 256 group limit.
    std::vector<std::pair<Lpa, Ppa>> run;
    for (Lpa lpa = 0; lpa < 2048; lpa++)
        run.emplace_back(lpa, 10000 + lpa);
    const auto lengths = plrRunLengths(run, 0);
    ASSERT_EQ(lengths.size(), 1u);
    EXPECT_EQ(lengths[0], 2048u);
}

TEST(Plr, RunLengthsGrowWithGamma)
{
    Rng rng(123);
    std::vector<std::pair<Lpa, Ppa>> run;
    Lpa lpa = 0;
    Ppa ppa = 0;
    for (int i = 0; i < 5000; i++) {
        run.emplace_back(lpa, ppa++);
        lpa += 1 + rng.nextBounded(3);
    }
    double prev_avg = 0.0;
    for (uint32_t gamma : {0u, 4u, 8u}) {
        const auto lengths = plrRunLengths(run, gamma);
        uint64_t total = 0;
        for (uint32_t l : lengths)
            total += l;
        EXPECT_EQ(total, run.size());
        const double avg = static_cast<double>(total) / lengths.size();
        EXPECT_GE(avg, prev_avg);
        prev_avg = avg;
    }
}

/**
 * Reference fitter for the equivalence fuzz below: the greedy cone,
 * encode-and-split, and the cost rule in its original form -- every
 * approximate segment's points are copied out and refit at gamma = 0
 * to the end, and the exact segments win when 8 B each costs no more
 * than 8 + n + 1 B. Members are plain offset lists.
 */
namespace reference
{

struct Fit
{
    Segment seg;
    std::vector<uint8_t> offs;
};

bool
tryEncode(const std::vector<PlrPoint> &pts, size_t first, size_t last,
          double slope, uint32_t gamma, Segment &out)
{
    const size_t n = last - first;
    if (n == 1) {
        out = Segment::makeSinglePoint(pts[first].off, pts[first].ppa);
        return true;
    }
    bool constant_stride = true;
    const uint32_t d0 = pts[first + 1].off - pts[first].off;
    for (size_t i = first + 1; i < last; i++) {
        if (static_cast<uint32_t>(pts[i].off - pts[i - 1].off) != d0 ||
            pts[i].ppa != pts[i - 1].ppa + 1) {
            constant_stride = false;
            break;
        }
    }
    const bool approx = !constant_stride;
    const double k = std::clamp(constant_stride ? 1.0 / d0 : slope, 0.0, 1.0);
    const uint16_t kbits =
        float16SetTag(float16Encode(static_cast<float>(k)), approx);
    const double kq = float16Decode(kbits);
    double lo = 1e300, hi = -1e300;
    for (size_t i = first; i < last; i++) {
        lo = std::min(lo, pts[i].ppa - kq * pts[i].off);
        hi = std::max(hi, pts[i].ppa - kq * pts[i].off);
    }
    const int64_t icand = std::llround((lo + hi) / 2.0);
    if (icand < INT32_MIN || icand > INT32_MAX)
        return false;
    const Segment seg(pts[first].off,
                      static_cast<uint8_t>(pts[last - 1].off - pts[first].off),
                      kbits, static_cast<int32_t>(icand));
    const int64_t bound = approx ? gamma : 0;
    for (size_t i = first; i < last; i++) {
        if (std::llabs(static_cast<int64_t>(seg.predict(pts[i].off)) -
                       static_cast<int64_t>(pts[i].ppa)) > bound)
            return false;
        if (!approx && !seg.hasLpaAccurate(pts[i].off))
            return false;
    }
    out = seg;
    return true;
}

void
emitRun(const std::vector<PlrPoint> &pts, size_t first, size_t last,
        double slope, uint32_t gamma, std::vector<Fit> &out)
{
    Segment seg;
    if (tryEncode(pts, first, last, slope, gamma, seg)) {
        Fit fit{seg, {}};
        for (size_t i = first; i < last; i++)
            fit.offs.push_back(pts[i].off);
        out.push_back(fit);
        return;
    }
    const size_t mid = first + (last - first) / 2;
    emitRun(pts, first, mid, slope, gamma, out);
    emitRun(pts, mid, last, slope, gamma, out);
}

/** @a refit_wins counts the approximate segments the refit replaced. */
std::vector<Fit>
fit(const std::vector<PlrPoint> &points, uint32_t gamma,
    uint64_t *refit_wins = nullptr)
{
    std::vector<Fit> out;
    size_t first = 0;
    double lo = 0.0, hi = 1.0;
    for (size_t i = 1; i <= points.size(); i++) {
        bool close = (i == points.size());
        double new_lo = lo, new_hi = hi;
        if (!close) {
            const double dx = points[i].off - points[first].off;
            const double dy = static_cast<double>(points[i].ppa) -
                              static_cast<double>(points[first].ppa);
            new_lo = std::max(lo, (dy - gamma) / dx);
            new_hi = std::min(hi, (dy + gamma) / dx);
            close = new_lo > new_hi;
        }
        if (close) {
            emitRun(points, first, i, first + 1 < i ? (lo + hi) / 2.0 : 0.0,
                    gamma, out);
            first = i;
            lo = 0.0;
            hi = 1.0;
        } else {
            lo = new_lo;
            hi = new_hi;
        }
    }
    if (gamma == 0)
        return out;
    std::vector<Fit> cheaper;
    size_t at = 0;
    for (const Fit &f : out) {
        const size_t n = f.offs.size();
        const std::vector<PlrPoint> sub(points.begin() + at,
                                        points.begin() + at + n);
        at += n;
        if (f.seg.approximate()) {
            const std::vector<Fit> exact = fit(sub, 0);
            if (exact.size() * Segment::kEncodedBytes <=
                Segment::kEncodedBytes + n + 1) {
                cheaper.insert(cheaper.end(), exact.begin(), exact.end());
                if (refit_wins)
                    (*refit_wins)++;
                continue;
            }
        }
        cheaper.push_back(f);
    }
    return cheaper;
}

} // namespace reference

/** Point sets the equivalence fuzz draws from. */
enum class Shape
{
    Random,  ///< Random gaps, consecutive PPAs (a flush or GC batch).
    Strided, ///< Constant-stride runs with PPA jumps between them.
    Mixed,   ///< Strided runs, random stretches and PPA gaps.
};

std::vector<PlrPoint>
drawPoints(Rng &rng, Shape shape)
{
    std::vector<PlrPoint> pts;
    Ppa ppa = static_cast<Ppa>(rng.nextBounded(1u << 24));
    uint32_t off = rng.nextBounded(16);
    while (off < kGroupSpan) {
        const bool strided =
            shape == Shape::Strided ||
            (shape == Shape::Mixed && rng.nextBounded(2) == 0);
        const uint32_t stride = 1 + rng.nextBounded(strided ? 8 : 1);
        const uint32_t len = 1 + rng.nextBounded(strided ? 40 : 20);
        for (uint32_t i = 0; i < len && off < kGroupSpan; i++) {
            pts.push_back({static_cast<uint8_t>(off), ppa++});
            off += strided ? stride : 1 + rng.nextBounded(6);
        }
        if (shape != Shape::Random && rng.nextBounded(3) == 0)
            ppa += 1 + rng.nextBounded(300); // Next flash block.
        off += rng.nextBounded(4);
    }
    return pts;
}

/**
 * The in-place fitter (gamma = 0 refit on a span, stopped once it has
 * lost) returns exactly what the original full-refit cost rule did:
 * the same segments with the same member masks.
 */
TEST(Plr, CostRuleMatchesTheFullRefitReference)
{
    Rng rng(2024);
    uint64_t approx_kept = 0, refits_won = 0;
    for (uint32_t gamma : {1u, 4u, 16u}) {
        for (Shape shape : {Shape::Random, Shape::Strided, Shape::Mixed}) {
            for (int trial = 0; trial < 300; trial++) {
                const std::vector<PlrPoint> pts = drawPoints(rng, shape);
                const std::vector<FittedSegment> got =
                    fitGroupSegments(pts, gamma);
                const std::vector<reference::Fit> want =
                    reference::fit(pts, gamma, &refits_won);
                ASSERT_EQ(got.size(), want.size())
                    << "gamma " << gamma << " trial " << trial;
                for (size_t i = 0; i < got.size(); i++) {
                    const Segment &a = got[i].seg, &b = want[i].seg;
                    ASSERT_TRUE(a.slpa() == b.slpa() &&
                                a.length() == b.length() &&
                                a.kbits() == b.kbits() &&
                                a.intercept() == b.intercept())
                        << "gamma " << gamma << " trial " << trial
                        << " segment " << i;
                    GroupMask offs;
                    for (uint8_t off : want[i].offs)
                        offs.set(off);
                    ASSERT_EQ(got[i].offs, offs);
                    ASSERT_EQ(got[i].count, want[i].offs.size());
                    approx_kept += a.approximate() ? 1 : 0;
                }
            }
        }
    }
    // The draw exercises both outcomes of the cost rule.
    EXPECT_GT(approx_kept, 100u);
    EXPECT_GT(refits_won, 100u);
}

/** Property sweep: random irregular patterns at several gammas. */
class PlrRandomSweep
    : public ::testing::TestWithParam<std::tuple<uint32_t, uint64_t>>
{
};

TEST_P(PlrRandomSweep, EncodedBoundHolds)
{
    const uint32_t gamma = std::get<0>(GetParam());
    Rng rng(std::get<1>(GetParam()));
    std::vector<PlrPoint> pts;
    Ppa ppa = static_cast<Ppa>(rng.nextBounded(1u << 30));
    uint32_t off = rng.nextBounded(8);
    while (off < 256) {
        pts.push_back({static_cast<uint8_t>(off), ppa});
        ppa += 1; // Flush batches have consecutive PPAs.
        off += 1 + rng.nextBounded(6);
    }
    const auto fit = fitGroupSegments(pts, gamma);
    verifyFit(pts, fit, gamma);
}

INSTANTIATE_TEST_SUITE_P(
    GammaSeeds, PlrRandomSweep,
    ::testing::Combine(::testing::Values(0u, 1u, 4u, 16u),
                       ::testing::Range<uint64_t>(0, 25)));

/** PPAs with gaps (multi-block flushes) must also respect bounds. */
TEST(Plr, PpaGapsAcrossBlocksStillBounded)
{
    std::vector<PlrPoint> pts;
    Ppa ppa = 1000;
    for (uint32_t off = 0; off < 200; off += 2) {
        pts.push_back({static_cast<uint8_t>(off), ppa++});
        if (off == 100)
            ppa += 56; // Jump to the next allocated block.
    }
    for (uint32_t gamma : {0u, 4u}) {
        const auto fit = fitGroupSegments(pts, gamma);
        verifyFit(pts, fit, gamma);
    }
}

} // namespace
} // namespace leaftl
