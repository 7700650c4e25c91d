#include "util/stats.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/common.hh"

namespace leaftl
{

double
SampleSet::percentile(double p) const
{
    if (samples_.empty())
        return 0.0;
    if (!sorted_) {
        std::sort(samples_.begin(), samples_.end());
        sorted_ = true;
    }
    const double rank = (p / 100.0) * (samples_.size() - 1);
    const size_t lo = static_cast<size_t>(rank);
    const size_t hi = std::min(lo + 1, samples_.size() - 1);
    const double frac = rank - lo;
    return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
}

CountHistogram::CountHistogram() : buckets_(kMaxValue + 1, 0) {}

uint64_t
CountHistogram::valueAt(uint64_t k) const
{
    uint64_t cum = 0;
    for (size_t v = 0; v < buckets_.size(); v++) {
        cum += buckets_[v];
        if (cum > k)
            return v;
    }
    return buckets_.size() - 1;
}

double
CountHistogram::percentile(double p) const
{
    if (total_ == 0)
        return 0.0;
    const double rank = (p / 100.0) * static_cast<double>(total_ - 1);
    const uint64_t lo = static_cast<uint64_t>(rank);
    const uint64_t hi = std::min<uint64_t>(lo + 1, total_ - 1);
    const double frac = rank - static_cast<double>(lo);
    return static_cast<double>(valueAt(lo)) * (1.0 - frac) +
           static_cast<double>(valueAt(hi)) * frac;
}

namespace
{

/** The bucket formula the thresholds are bisected over. */
uint32_t
formulaBucket(double x, double log_growth)
{
    constexpr double min_value = LatencyHistogram::kMinValue;
    int idx = 0;
    if (x > min_value)
        idx = static_cast<int>(std::log(x / min_value) / log_growth) + 1;
    return static_cast<uint32_t>(std::clamp(
        idx, 0, static_cast<int>(LatencyHistogram::kBuckets) - 1));
}

uint64_t
bitsOf(double x)
{
    uint64_t bits;
    std::memcpy(&bits, &x, sizeof(bits));
    return bits;
}

double
fromBits(uint64_t bits)
{
    double x;
    std::memcpy(&x, &bits, sizeof(x));
    return x;
}

LatencyHistogram::Index
buildIndex()
{
    constexpr double min_value = LatencyHistogram::kMinValue;
    constexpr uint32_t num_buckets = LatencyHistogram::kBuckets;
    LatencyHistogram::Index ix;
    const double log_growth = std::log(LatencyHistogram::kGrowth);
    const double inf = std::numeric_limits<double>::infinity();

    // Positive doubles order like their bit patterns, so bisect over
    // those: low[b] is the first pattern above min whose bucket is at
    // least b (every pattern up to min is bucket 0).
    ix.low.assign(num_buckets + 1, inf);
    ix.low[0] = -inf;
    for (uint32_t b = 1; b < num_buckets; b++) {
        uint64_t lo = bitsOf(min_value);  // Bucket below b.
        uint64_t hi = bitsOf(inf);        // Bucket b or above.
        while (hi - lo > 1) {
            const uint64_t mid = lo + (hi - lo) / 2;
            if (formulaBucket(fromBits(mid), log_growth) >= b)
                hi = mid;
            else
                lo = mid;
        }
        ix.low[b] = fromBits(hi);
    }

    // The coarsest cells (fewest top mantissa bits kept) that hold at
    // most two thresholds each, so two compares finish any lookup.
    const uint64_t last_bits = bitsOf(ix.low[num_buckets - 1]);
    for (ix.shift = 52;; ix.shift--) {
        ix.first_key = bitsOf(ix.low[1]) >> ix.shift;
        ix.last_key = last_bits >> ix.shift;
        ix.cell_start.clear();
        bool ok = true;
        uint32_t b = 0;
        for (uint64_t key = ix.first_key; ok && key <= ix.last_key; key++) {
            const double cell_low = fromBits(key << ix.shift);
            while (b + 1 < num_buckets && ix.low[b + 1] <= cell_low)
                b++;
            ix.cell_start.push_back(b);
            const double next_cell = fromBits((key + 1) << ix.shift);
            ok = b + 3 >= num_buckets || ix.low[b + 3] >= next_cell;
        }
        if (ok)
            return ix;
        LEAFTL_ASSERT(ix.shift > 0, "histogram buckets finer than a double");
    }
}

} // namespace

LatencyHistogram::LatencyHistogram()
    : log_growth_(std::log(kGrowth)), buckets_(kBuckets, 0)
{
    static const Index index = buildIndex();
    index_ = &index;
}

double
LatencyHistogram::bucketLow(int i) const
{
    return kMinValue * std::exp(log_growth_ * i);
}

double
LatencyHistogram::percentile(double p) const
{
    if (total_ == 0)
        return 0.0;
    const double target = (p / 100.0) * total_;
    uint64_t cum = 0;
    for (size_t i = 0; i < buckets_.size(); i++) {
        cum += buckets_[i];
        if (cum >= target)
            return bucketLow(static_cast<int>(i));
    }
    return max_;
}

std::vector<std::pair<double, double>>
LatencyHistogram::cdf() const
{
    std::vector<std::pair<double, double>> out;
    if (total_ == 0)
        return out;
    uint64_t cum = 0;
    for (size_t i = 0; i < buckets_.size(); i++) {
        if (buckets_[i] == 0)
            continue;
        cum += buckets_[i];
        out.emplace_back(bucketLow(static_cast<int>(i)),
                         static_cast<double>(cum) / total_);
    }
    return out;
}

} // namespace leaftl
