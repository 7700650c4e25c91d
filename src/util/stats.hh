/**
 * @file
 * Lightweight statistics utilities: mean/percentile summaries, an
 * exact small-integer histogram, and a log-bucketed latency histogram
 * for CDF reporting (Figs. 18 and 23 in the paper).
 */

#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace leaftl
{

/**
 * Exact percentile summary: stores every sample, so percentile()
 * interpolates between true order statistics. It summarizes one value
 * per learned group (LearnedTable::levelsPerGroup(), crbSizes()), so
 * its size is the table's; per-lookup series use CountHistogram.
 */
class SampleSet
{
  public:
    void
    add(double x)
    {
        max_ = samples_.empty() ? x : std::max(max_, x);
        sum_ += x;
        samples_.push_back(x);
        sorted_ = false;
    }

    uint64_t count() const { return samples_.size(); }
    double mean() const { return samples_.empty() ? 0.0 : sum_ / count(); }
    double percentile(double p) const; ///< p in [0, 100].
    double max() const { return max_; }

  private:
    double sum_ = 0.0;
    double max_ = 0.0;
    mutable std::vector<double> samples_;
    mutable bool sorted_ = true;
};

/**
 * Exact histogram over small non-negative integers (lookup depths,
 * segment creation lengths): one counter per value up to kMaxValue
 * (larger samples clamp into the top bucket). add() is a single array
 * increment, memory is O(kMaxValue) forever, and mean()/max() are
 * exact; percentile() is exact whenever no sample clamped. This is
 * what per-lookup statistics use on the translation hot path.
 */
class CountHistogram
{
  public:
    static constexpr uint32_t kMaxValue = 256;

    CountHistogram();

    void
    add(uint64_t v)
    {
        buckets_[v < buckets_.size() ? v : buckets_.size() - 1]++;
        total_++;
        sum_ += static_cast<double>(v);
        max_ = v > max_ ? v : max_;
    }

    uint64_t count() const { return total_; }
    double mean() const { return total_ ? sum_ / total_ : 0.0; }
    double max() const { return static_cast<double>(max_); }
    /**
     * Value at percentile p (p in [0, 100]), interpolated between
     * order statistics exactly like SampleSet.
     */
    double percentile(double p) const;

    size_t numBuckets() const { return buckets_.size(); }

  private:
    /** k-th order statistic (0-based). */
    uint64_t valueAt(uint64_t k) const;

    std::vector<uint64_t> buckets_;
    uint64_t total_ = 0;
    double sum_ = 0.0;
    uint64_t max_ = 0;
};

/**
 * Log-bucketed histogram for latency CDFs, in ns. Buckets grow
 * geometrically by kGrowth from kMinValue; percentile error is bounded
 * by the growth factor.
 *
 * A sample x lands in bucket floor(log(x / kMinValue) / log(kGrowth))
 * + 1 (0 when x <= kMinValue), clamped to the last of kBuckets. add()
 * runs several times per simulated request, so it does not evaluate
 * that formula: the smallest double reaching each bucket is found once
 * per process by bisection over the formula itself and shared by every
 * histogram. A sample's exponent and top mantissa bits then index a
 * table giving the bucket at the start of its cell, and at most two
 * threshold compares finish the job. test_stats checks the result
 * against the formula.
 */
class LatencyHistogram
{
  public:
    static constexpr double kMinValue = 100.0;
    static constexpr double kGrowth = 1.05;
    static constexpr uint32_t kBuckets = 400;

    LatencyHistogram();

    void
    add(double x)
    {
        total_++;
        sum_ += x;
        max_ = std::max(max_, x);
        buckets_[bucketOf(x)]++;
    }

    /** The bucket add() counts @a x in. */
    uint32_t
    bucketOf(double x) const
    {
        if (!(x > kMinValue))
            return 0; // Also NaN and negatives.
        uint64_t bits;
        std::memcpy(&bits, &x, sizeof(bits));
        const uint64_t key = bits >> index_->shift;
        if (key < index_->first_key)
            return 0;
        uint32_t b = index_->cell_start[std::min(key, index_->last_key) -
                                        index_->first_key];
        const double *low = index_->low.data();
        b += x >= low[b + 1];
        b += x >= low[b + 1];
        return b;
    }

    uint64_t count() const { return total_; }
    double mean() const { return total_ ? sum_ / total_ : 0.0; }
    double max() const { return max_; }
    /** Approximate value at percentile p (p in [0, 100]). */
    double percentile(double p) const;

    /** CDF points (value, cumulative fraction) for reporting. */
    std::vector<std::pair<double, double>> cdf() const;

    /** The bucketing, built once per process and shared by all. */
    struct Index
    {
        /**
         * low[b] is the smallest double the formula puts in bucket b or
         * above, for b in [1, kBuckets); low[0] = -inf, and a +inf
         * sentinel follows so bucketOf() never reads past the end.
         */
        std::vector<double> low;
        /** Cell of x: its bit pattern shifted right by this. */
        uint32_t shift;
        /** Cells of low[1] and of low[kBuckets - 1]. */
        uint64_t first_key, last_key;
        /** Per cell: the bucket of the cell's smallest double. */
        std::vector<uint32_t> cell_start;
    };

  private:
    double bucketLow(int i) const;

    double log_growth_;
    const Index *index_;
    std::vector<uint64_t> buckets_;
    uint64_t total_ = 0;
    double sum_ = 0.0;
    double max_ = 0.0;
};

} // namespace leaftl
