#include "workload/arrival.hh"

#include <cmath>

#include "util/common.hh"

namespace leaftl
{

FixedRateShaper::FixedRateShaper(std::unique_ptr<WorkloadSource> inner,
                                 double rate_iops)
    : ArrivalShaper(std::move(inner)),
      period_ns_(static_cast<double>(kSecond) / rate_iops)
{
    LEAFTL_ASSERT(rate_iops > 0.0, "fixed-rate shaper needs rate > 0");
}

Tick
FixedRateShaper::nextArrival(uint64_t index, Tick)
{
    return static_cast<Tick>(static_cast<double>(index) * period_ns_);
}

PoissonShaper::PoissonShaper(std::unique_ptr<WorkloadSource> inner,
                             double rate_iops, uint64_t seed)
    : ArrivalShaper(std::move(inner)),
      mean_gap_ns_(static_cast<double>(kSecond) / rate_iops),
      seed_(seed),
      rng_(seed)
{
    LEAFTL_ASSERT(rate_iops > 0.0, "poisson shaper needs rate > 0");
}

Tick
PoissonShaper::nextArrival(uint64_t index, Tick)
{
    // The first request arrives at t=0 so every shaped run starts at
    // the origin; gaps are exponential from then on (inverse CDF on a
    // uniform that excludes 0, so log() stays finite).
    if (index > 0) {
        const double u = 1.0 - rng_.nextDouble();
        clock_ns_ += -std::log(u) * mean_gap_ns_;
    }
    return static_cast<Tick>(clock_ns_);
}

void
PoissonShaper::resetShape()
{
    rng_ = Rng(seed_);
    clock_ns_ = 0.0;
}

BurstShaper::BurstShaper(std::unique_ptr<WorkloadSource> inner,
                         double rate_iops, double duty)
    : ArrivalShaper(std::move(inner)),
      cycle_ns_(static_cast<double>(kBurstLen) *
                static_cast<double>(kSecond) / rate_iops),
      on_gap_ns_(duty * static_cast<double>(kSecond) / rate_iops)
{
    LEAFTL_ASSERT(rate_iops > 0.0, "burst shaper needs rate > 0");
    LEAFTL_ASSERT(duty > 0.0 && duty <= 1.0,
                  "burst duty must be in (0, 1]");
}

Tick
BurstShaper::nextArrival(uint64_t index, Tick)
{
    const uint64_t cycle = index / kBurstLen;
    const uint64_t slot = index % kBurstLen;
    return static_cast<Tick>(static_cast<double>(cycle) * cycle_ns_ +
                             static_cast<double>(slot) * on_gap_ns_);
}

std::unique_ptr<WorkloadSource>
shapeArrivals(std::unique_ptr<WorkloadSource> inner, const ShaperSpec &spec)
{
    switch (spec.kind) {
      case ShaperKind::AsRecorded:
        return std::make_unique<AsRecordedShaper>(std::move(inner));
      case ShaperKind::FixedRate:
        return std::make_unique<FixedRateShaper>(std::move(inner),
                                                 spec.rate_iops);
      case ShaperKind::Poisson:
        return std::make_unique<PoissonShaper>(std::move(inner),
                                               spec.rate_iops, spec.seed);
      case ShaperKind::Burst:
        return std::make_unique<BurstShaper>(std::move(inner),
                                             spec.rate_iops, spec.duty);
    }
    LEAFTL_PANIC("unknown shaper kind");
}

} // namespace leaftl
