/**
 * @file
 * Host wall-clock helpers shared by the perf benches and the
 * leaftl_sim CSV writer: a monotonic ns-resolution "now" plus a tiny
 * stopwatch. Simulated time lives in util/common.hh (Tick); this file
 * is only about measuring the simulator itself on the host CPU, so
 * every bench and the sweep's wall_ns column agree on one clock.
 */

#pragma once

#include <chrono>
#include <cstdint>

namespace leaftl
{

/** Monotonic host time in nanoseconds (std::chrono::steady_clock). */
inline uint64_t
hostNowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Stopwatch over hostNowNs(), started at construction. */
class HostTimer
{
  public:
    HostTimer() : start_(hostNowNs()) {}

    void restart() { start_ = hostNowNs(); }

    uint64_t elapsedNs() const { return hostNowNs() - start_; }

  private:
    uint64_t start_;
};

} // namespace leaftl
