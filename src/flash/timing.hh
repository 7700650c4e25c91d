/**
 * @file
 * Flash operation latencies and per-channel timing (Table 1).
 *
 * The simulator uses a busy-until model per channel: an operation on a
 * channel starts at max(now, busy_until) and occupies the channel for
 * its nominal latency. This captures queueing behind buffer flushes
 * and GC without a full discrete-event core, which is all the paper's
 * relative comparisons require.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "util/common.hh"

namespace leaftl
{

/** Nominal operation latencies (paper Table 1 defaults). */
struct LatencyConfig
{
    Tick flash_read = 20 * kMicrosecond;
    Tick flash_write = 200 * kMicrosecond;
    Tick flash_erase = 1500 * kMicrosecond;
    /** DRAM hit (buffer/cache/mapping) service time. */
    Tick dram_access = 1 * kMicrosecond;
};

/** Per-channel busy-until bookkeeping. */
class ChannelTimer
{
  public:
    explicit ChannelTimer(uint32_t num_channels);

    /**
     * Schedule an operation of @a duration on @a channel at @a now.
     * @return Completion time (start may be delayed by the channel).
     */
    Tick access(uint32_t channel, Tick now, Tick duration);

    /**
     * Completion time an access would have, without scheduling it:
     * the busy-until query behind access(). Lets callers ask "when
     * would this finish" (admission decisions, what-if probes) without
     * advancing any channel cursor.
     */
    Tick peekAccess(uint32_t channel, Tick now, Tick duration) const;

    Tick busyUntil(uint32_t channel) const;

    uint32_t
    numChannels() const
    {
        return static_cast<uint32_t>(busy_.size());
    }

    /** Earliest time any channel is free (for back-pressure). */
    Tick earliestFree() const;

    /** Time the last channel drains (a parallel phase's completion). */
    Tick latestFree() const;

    void reset();

  private:
    std::vector<Tick> busy_;
};

} // namespace leaftl
