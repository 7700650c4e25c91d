/**
 * @file
 * Zipfian key generator (Gray et al. / YCSB formulation) used to model
 * skewed hot sets in the synthetic MSR/FIU and application workloads.
 */

#pragma once

#include <cstdint>

#include "util/rng.hh"

namespace leaftl
{

/**
 * Zipfian distribution over [0, n). theta in (0, 1); theta -> 0
 * approaches uniform, theta -> 1 concentrates on few hot keys.
 * Keys are scattered with a multiplicative hash so the hot set is not
 * a contiguous LPA range (which would be trivially learnable).
 */
class ZipfGenerator
{
  public:
    ZipfGenerator(uint64_t n, double theta);

    /** Draw a key in [0, n). */
    uint64_t next(Rng &rng);

    /** Draw a key without hash scattering (rank order). */
    uint64_t nextRank(Rng &rng);

    uint64_t n() const { return n_; }

    /** Hot-key cluster size used by next() (pages). */
    static constexpr uint64_t kCluster = 16;

  private:
    static double zeta(uint64_t n, double theta);

    uint64_t n_;
    double alpha_;
    double zetan_;
    double eta_;
    double zeta2_;
    double rank1_bound_; ///< 1 + 0.5^theta: uz below it draws rank 1.
};

} // namespace leaftl
