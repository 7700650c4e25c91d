#include "workload/zipf.hh"

#include <cmath>

#include "util/common.hh"

namespace leaftl
{

double
ZipfGenerator::zeta(uint64_t n, double theta)
{
    double sum = 0.0;
    for (uint64_t i = 1; i <= n; i++)
        sum += 1.0 / std::pow(static_cast<double>(i), theta);
    return sum;
}

ZipfGenerator::ZipfGenerator(uint64_t n, double theta)
    : n_(n)
{
    LEAFTL_ASSERT(n > 0, "zipf over empty range");
    LEAFTL_ASSERT(theta > 0.0 && theta < 1.0, "zipf theta out of (0,1)");
    zetan_ = zeta(n, theta);
    zeta2_ = zeta(2, theta);
    alpha_ = 1.0 / (1.0 - theta);
    rank1_bound_ = 1.0 + std::pow(0.5, theta);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
           (1.0 - zeta2_ / zetan_);
}

uint64_t
ZipfGenerator::nextRank(Rng &rng)
{
    const double u = rng.nextDouble();
    const double uz = u * zetan_;
    if (uz < 1.0)
        return 0;
    if (uz < rank1_bound_)
        return 1;
    const uint64_t rank = static_cast<uint64_t>(
        static_cast<double>(n_) *
        std::pow(eta_ * u - eta_ + 1.0, alpha_));
    return rank >= n_ ? n_ - 1 : rank;
}

uint64_t
ZipfGenerator::next(Rng &rng)
{
    const uint64_t rank = nextRank(rng);
    if (n_ < 32)
        return (rank * 0x9E3779B97F4A7C15ull) % n_;
    // Scatter ranks across the key space in 16-page clusters: hot
    // data in real traces (file extents, B-tree leaves) is locally
    // contiguous, so adjacent ranks share a cluster while clusters
    // land pseudo-randomly (Fibonacci hashing).
    const uint64_t clusters = n_ / kCluster;
    const uint64_t cluster =
        ((rank / kCluster) * 0x9E3779B97F4A7C15ull) % clusters;
    return cluster * kCluster + rank % kCluster;
}

} // namespace leaftl
