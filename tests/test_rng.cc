/**
 * @file
 * Unit tests for the deterministic RNG and the zipf generator.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/rng.hh"
#include "workload/zipf.hh"

namespace leaftl
{
namespace
{

TEST(Rng, DeterministicPerSeed)
{
    Rng a(7), b(7), c(8);
    for (int i = 0; i < 100; i++) {
        const uint64_t va = a.next();
        EXPECT_EQ(va, b.next());
        (void)c;
    }
    Rng d(8);
    bool differs = false;
    Rng e(7);
    for (int i = 0; i < 100; i++)
        differs |= (d.next() != e.next());
    EXPECT_TRUE(differs);
}

TEST(Rng, BoundedStaysInRange)
{
    Rng rng(1);
    for (int i = 0; i < 10000; i++) {
        EXPECT_LT(rng.nextBounded(17), 17u);
        EXPECT_EQ(rng.nextBounded(1), 0u);
    }
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng rng(2);
    for (int i = 0; i < 10000; i++) {
        const double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, BernoulliRoughlyCalibrated)
{
    Rng rng(3);
    int heads = 0;
    const int n = 100000;
    for (int i = 0; i < n; i++)
        heads += rng.nextBool(0.3) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(heads) / n, 0.3, 0.01);
}

TEST(Zipf, KeysInRange)
{
    Rng rng(4);
    ZipfGenerator zipf(1000, 0.8);
    for (int i = 0; i < 10000; i++)
        EXPECT_LT(zipf.next(rng), 1000u);
}

TEST(Zipf, SkewConcentratesMass)
{
    // With theta = 0.9, the hottest 10% of ranks should absorb well
    // over half the draws.
    Rng rng(5);
    ZipfGenerator zipf(10000, 0.9);
    const int n = 100000;
    int hot = 0;
    for (int i = 0; i < n; i++) {
        if (zipf.nextRank(rng) < 1000)
            hot++;
    }
    EXPECT_GT(static_cast<double>(hot) / n, 0.5);
}

TEST(Zipf, LowThetaApproachesUniform)
{
    Rng rng(6);
    ZipfGenerator zipf(10000, 0.1);
    const int n = 100000;
    int hot = 0;
    for (int i = 0; i < n; i++) {
        if (zipf.nextRank(rng) < 1000)
            hot++;
    }
    EXPECT_LT(static_cast<double>(hot) / n, 0.35);
}

/** ZipfGenerator::nextRank with every constant computed inline. */
class InlineZipf
{
  public:
    InlineZipf(uint64_t n, double theta) : n_(n), theta_(theta)
    {
        for (uint64_t i = 1; i <= n; i++)
            zetan_ += 1.0 / std::pow(static_cast<double>(i), theta);
        const double zeta2 = 1.0 + 1.0 / std::pow(2.0, theta);
        eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
               (1.0 - zeta2 / zetan_);
    }

    uint64_t
    nextRank(Rng &rng) const
    {
        const double u = rng.nextDouble();
        const double uz = u * zetan_;
        if (uz < 1.0)
            return 0;
        if (uz < 1.0 + std::pow(0.5, theta_))
            return 1;
        const uint64_t rank = static_cast<uint64_t>(
            static_cast<double>(n_) *
            std::pow(eta_ * u - eta_ + 1.0, 1.0 / (1.0 - theta_)));
        return rank >= n_ ? n_ - 1 : rank;
    }

  private:
    uint64_t n_;
    double theta_;
    double zetan_ = 0.0;
    double eta_;
};

TEST(Zipf, HoistedConstantsMatchTheInlineFormula)
{
    for (const auto &[n, theta] :
         {std::pair<uint64_t, double>{10000, 0.99}, {262144, 0.99},
          {1000, 0.5}, {3, 0.1}}) {
        ZipfGenerator zipf(n, theta);
        const InlineZipf ref(n, theta);
        Rng a(77), b(77);
        for (int i = 0; i < 1'000'000; i++)
            ASSERT_EQ(zipf.nextRank(a), ref.nextRank(b)) << n << " " << i;
    }
}

} // namespace
} // namespace leaftl
