/**
 * @file
 * Event-driven trace replay: feeds a WorkloadSource into an Ssd with
 * up to RunOptions::queue_depth requests outstanding and collects a
 * RunResult. Requests are admitted in submission-queue order (no
 * earlier than their arrival, no earlier than the previous
 * submission), submitted through the asynchronous Ssd::submit API,
 * and retired in completion-tick order through an EventQueue. A full
 * queue stalls admission until the earliest completion frees a slot.
 *
 * queue_depth = 1 degenerates to the paper's closed-loop trace-driven
 * WiscSim model (one outstanding request) and reproduces it exactly;
 * larger depths let concurrent requests overlap across flash channels,
 * the way a real NVMe host keeps the device busy.
 *
 * Admission modes (RunOptions::admission) change how latency is
 * *measured*, not how requests are scheduled -- the submission
 * sequence, and therefore the device's entire state evolution, is
 * identical in both modes:
 *
 *   - Closed (default, the historical behavior): end-to-end latency is
 *     measured from the tick the back-pressured loop could submit the
 *     request, so the offered load adapts to device speed.
 *   - Open: latency is measured from the request's (shaped) arrival
 *     tick. When arrivals outpace the device, waiting time accumulates
 *     without bound and the tail percentiles diverge -- the open-loop
 *     saturation behavior closed-loop replay can never show.
 *
 * Per-request wait + service latencies feed log-bucketed
 * LatencyHistograms in the RunResult (read/write/all), giving
 * p50/p95/p99/p99.9 and offered-vs-achieved throughput per run.
 */

#pragma once

#include <cstdint>

#include "sim/metrics.hh"
#include "ssd/ssd.hh"
#include "workload/request.hh"

namespace leaftl
{

/** Replay options. */
struct RunOptions
{
    /**
     * Pages written before measurement to warm up the device (creates
     * initial mappings and dirties blocks so GC runs during the
     * measured phase, §4.1). 0 = no prefill.
     */
    uint64_t prefill_pages = 0;
    /**
     * Warm-up pattern. The paper warms the device with "a set of
     * workloads consisting of various real-world and synthetic
     * traces"; mixed prefill emulates that with sequential, strided,
     * and scattered regions so the warm state is not trivially
     * compressible. Sequential prefill is kept for deterministic
     * tests.
     */
    bool mixed_prefill = false;
    /** Drain the write buffer after the last request. */
    bool drain_at_end = true;
    /**
     * Maximum outstanding requests (NVMe-style queue depth). 1 (the
     * default) is the closed-loop single-outstanding-request model;
     * values < 1 are treated as 1.
     */
    uint32_t queue_depth = 1;
    /**
     * Latency-measurement origin: Closed measures from the tick a
     * request became submittable (historical closed-loop semantics,
     * bit-for-bit identical results), Open from its arrival tick
     * (open-loop end-to-end latency; pair with an ArrivalShaper to
     * control the offered load).
     */
    Admission admission = Admission::Closed;
    /**
     * Crash-injection schedule (sorted ascending): before processing
     * request i, if i matches the next entry, the replay retires all
     * inflight requests, crashes and recovers the device, and
     * continues. Recovery stats accumulate into RunResult::recovery.
     * Duplicated entries crash repeatedly at the same point.
     */
    std::vector<uint64_t> crash_points;
};

/** The replay driver. */
class Runner
{
  public:
    /**
     * Replay @a workload against @a ssd.
     * @return Aggregated metrics (the device keeps its cumulative
     *         counters; the result snapshots them).
     */
    static RunResult replay(Ssd &ssd, WorkloadSource &workload,
                            const RunOptions &opts = {});

    /** Sequentially write @a pages LPAs (device warm-up). */
    static void prefill(Ssd &ssd, uint64_t pages);

    /**
     * Mixed-pattern warm-up: 50% sequential, 20% strided, 30%
     * scattered over the first @a pages LPAs.
     */
    static void prefillMixed(Ssd &ssd, uint64_t pages, uint64_t seed = 1);
};

} // namespace leaftl
