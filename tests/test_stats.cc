/**
 * @file
 * Unit tests for the statistics helpers.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "util/rng.hh"
#include "util/stats.hh"

namespace leaftl
{
namespace
{

TEST(SampleSet, ExactPercentiles)
{
    SampleSet s;
    for (int i = 1; i <= 100; i++)
        s.add(static_cast<double>(i));
    EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
    EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
    EXPECT_NEAR(s.percentile(50), 50.5, 0.01);
    EXPECT_NEAR(s.percentile(99), 99.01, 0.01);
    EXPECT_DOUBLE_EQ(s.mean(), 50.5);
    EXPECT_DOUBLE_EQ(s.max(), 100.0);
}

TEST(SampleSet, InterleavedAddAndQuery)
{
    SampleSet s;
    s.add(10.0);
    EXPECT_DOUBLE_EQ(s.percentile(50), 10.0);
    s.add(20.0);
    EXPECT_NEAR(s.percentile(50), 15.0, 1e-9);
}

TEST(CountHistogram, ExactStatsForSmallIntegers)
{
    CountHistogram h;
    SampleSet ref;
    for (int i = 1; i <= 100; i++) {
        h.add(static_cast<uint64_t>(i));
        ref.add(static_cast<double>(i));
    }
    EXPECT_EQ(h.count(), 100u);
    EXPECT_DOUBLE_EQ(h.mean(), ref.mean());
    EXPECT_DOUBLE_EQ(h.max(), ref.max());
    // Percentiles interpolate between order statistics exactly like
    // the sample-storing implementation.
    for (double p : {0.0, 10.0, 50.0, 90.0, 99.0, 100.0})
        EXPECT_DOUBLE_EQ(h.percentile(p), ref.percentile(p)) << p;
}

TEST(CountHistogram, ClampsAtTopBucketWithExactMeanMax)
{
    CountHistogram h;
    h.add(3);
    h.add(1000); // Clamps into bucket 256 for percentiles...
    EXPECT_EQ(h.count(), 2u);
    EXPECT_DOUBLE_EQ(h.max(), 1000.0); // ...but max/mean stay exact.
    EXPECT_DOUBLE_EQ(h.mean(), 501.5);
    EXPECT_DOUBLE_EQ(h.percentile(100), 256.0);
    EXPECT_EQ(h.numBuckets(), 257u); // Fixed at construction: O(1) memory.
}

TEST(LatencyHistogram, MeanAndCount)
{
    LatencyHistogram h;
    h.add(1000.0);
    h.add(3000.0);
    EXPECT_EQ(h.count(), 2u);
    EXPECT_DOUBLE_EQ(h.mean(), 2000.0);
    EXPECT_DOUBLE_EQ(h.max(), 3000.0);
}

TEST(LatencyHistogram, PercentileApproximation)
{
    LatencyHistogram h;
    for (int i = 0; i < 990; i++)
        h.add(1000.0);
    for (int i = 0; i < 10; i++)
        h.add(100000.0);
    // P50 near 1000 (within bucket growth), P99.5 near 100000.
    EXPECT_NEAR(h.percentile(50.0), 1000.0, 100.0);
    EXPECT_GT(h.percentile(99.5), 50000.0);
}

TEST(LatencyHistogram, CdfIsMonotone)
{
    LatencyHistogram h;
    for (int i = 1; i <= 1000; i++)
        h.add(100.0 * i);
    const auto cdf = h.cdf();
    ASSERT_FALSE(cdf.empty());
    for (size_t i = 1; i < cdf.size(); i++) {
        EXPECT_GE(cdf[i].first, cdf[i - 1].first);
        EXPECT_GE(cdf[i].second, cdf[i - 1].second);
    }
    EXPECT_DOUBLE_EQ(cdf.back().second, 1.0);
}

TEST(LatencyHistogram, BelowMinimumClamps)
{
    LatencyHistogram h;
    h.add(1.0);
    EXPECT_EQ(h.count(), 1u);
    EXPECT_LE(h.percentile(50.0), 100.0);
}

/**
 * Percentile exactness against a sorted-vector reference: for every
 * queried percentile the log-bucketed estimate must bracket the exact
 * order statistic within one bucket's relative growth factor -- the
 * error bound the histogram's documentation promises and the new
 * open-loop percentile columns rely on.
 */
TEST(LatencyHistogram, PercentilesMatchSortedReferenceWithinGrowth)
{
    const double growth = LatencyHistogram::kGrowth;
    LatencyHistogram h;
    std::vector<double> reference;

    // Realistic latency mixture: a tight service-time mode, a heavy
    // lognormal-ish tail, and a few overload outliers, all generated
    // deterministically.
    uint64_t state = 0x5EED;
    auto next = [&state]() {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        return static_cast<double>(state >> 11) /
               static_cast<double>(1ull << 53);
    };
    for (int i = 0; i < 20000; i++) {
        const double u = next();
        double sample;
        if (u < 0.7)
            sample = 20000.0 + 2000.0 * next(); // ~20 us reads.
        else if (u < 0.97)
            sample = 200000.0 * (0.5 + next()); // ~100-300 us writes.
        else
            sample = 5e6 + 2e7 * next(); // 5-25 ms stragglers.
        h.add(sample);
        reference.push_back(sample);
    }
    std::sort(reference.begin(), reference.end());

    for (const double p : {1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0,
                           99.9, 100.0}) {
        const size_t rank = std::min(
            reference.size() - 1,
            static_cast<size_t>(p / 100.0 *
                                static_cast<double>(reference.size())));
        const double exact = reference[rank];
        const double approx = h.percentile(p);
        // One log-bucket of slack each way (plus rank-vs-target
        // rounding, which stays inside the same bucket here).
        EXPECT_GE(approx, exact / (growth * growth)) << "p" << p;
        EXPECT_LE(approx, exact * (growth * growth)) << "p" << p;
    }
}

/** The bucket formula LatencyHistogram::add() must reproduce. */
uint32_t
referenceBucket(double x)
{
    constexpr double min_value = LatencyHistogram::kMinValue;
    constexpr int buckets = LatencyHistogram::kBuckets;
    int idx = 0;
    if (x > min_value)
        idx = static_cast<int>(std::log(x / min_value) /
                               std::log(LatencyHistogram::kGrowth)) +
              1;
    return static_cast<uint32_t>(std::clamp(idx, 0, buckets - 1));
}

double
stepUlps(double x, int64_t n)
{
    uint64_t bits;
    std::memcpy(&bits, &x, sizeof(bits));
    bits = static_cast<uint64_t>(static_cast<int64_t>(bits) + n);
    std::memcpy(&x, &bits, sizeof(x));
    return x;
}

/**
 * The threshold-table bucketing agrees with the log formula on every
 * integer below 3M, on random doubles up to 1e24, and within 200 ULPs
 * of every bucket boundary.
 */
TEST(LatencyHistogram, BucketOfMatchesTheLogFormula)
{
    constexpr double min_value = LatencyHistogram::kMinValue;
    const LatencyHistogram h;
    uint64_t checked = 0, mismatches = 0;
    auto check = [&](double x) {
        checked++;
        if (h.bucketOf(x) != referenceBucket(x)) {
            if (mismatches++ < 5)
                ADD_FAILURE() << "x=" << x;
        }
    };
    for (uint32_t i = 0; i < 3000000; i++)
        check(static_cast<double>(i));
    Rng rng(7);
    for (int i = 0; i < 1000000; i++)
        check(std::pow(10.0, 24.0 * rng.nextDouble()) - 1.0);
    for (uint32_t b = 0; b <= LatencyHistogram::kBuckets; b++) {
        const double edge =
            min_value * std::pow(LatencyHistogram::kGrowth, b);
        for (int64_t d = -200; d <= 200; d++)
            check(stepUlps(edge, d));
    }
    for (double x : {-1.0, 0.0, -0.0, min_value, 1e300, std::nan("")})
        check(x);
    EXPECT_EQ(mismatches, 0u) << "of " << checked << " inputs";
}

} // namespace
} // namespace leaftl
