/**
 * @file
 * Aggregated results of one simulation run: the metrics the paper's
 * figures report (average/percentile latency, mapping memory, WAF,
 * misprediction ratio, lookup depth) plus normalization helpers.
 */

#pragma once

#include <cstdint>
#include <string>

#include "ssd/ssd.hh"
#include "util/common.hh"
#include "util/stats.hh"

namespace leaftl
{

/**
 * Admission model of a replay (§4.1 evaluation methodology).
 *
 * Closed is the WiscSim-inherited model: latency is measured from the
 * moment the back-pressured loop could submit the request, so the
 * offered load implicitly adapts to device speed and tail latency
 * stays bounded. Open is the NVMe-style load-testing model: latency
 * is measured end-to-end from the request's (shaped) arrival tick, so
 * queue wait accumulates when the device falls behind and the
 * latency-vs-offered-load hockey stick becomes visible.
 */
enum class Admission : uint8_t
{
    Closed,
    Open,
};

/** Results of a Runner::replay. */
struct RunResult
{
    std::string workload;
    std::string ftl;

    uint64_t requests = 0;
    uint64_t pages_touched = 0;

    /**
     * Simulated duration of the measured phase (through the last
     * completion). Open-loop runs start their arrival process at the
     * post-prefill idle horizon, and that warm-up shift is excluded
     * here — so sim_time_ns, mean_inflight, throughput, and
     * achieved_iops are all denominated in the same window. Closed
     * runs measure from tick 0 (the historical behavior).
     */
    Tick sim_time_ns = 0;

    /**
     * Host wall-clock time the replay consumed in ns (0 when the
     * caller did not measure it). Filled by the leaftl_sim sweep so
     * every row doubles as a host-perf sample; being host time, it is
     * the one column excluded from the CSV determinism guarantees.
     */
    uint64_t host_wall_ns = 0;

    /** Queue depth the replay engine drove the device with. */
    uint32_t queue_depth = 1;
    /** Time-weighted mean number of outstanding requests. */
    double mean_inflight = 0.0;
    /** Peak number of outstanding requests observed. */
    uint64_t max_inflight = 0;
    /**
     * Mean submission stall per request in us: how long an arrived,
     * in-order request waited for a free queue slot before the engine
     * could submit it (0 when the device keeps up with arrivals).
     * Complements avg_latency_us, which is pure service time from
     * submission to completion.
     */
    double avg_queue_wait_us = 0.0;
    /** Largest single submission stall in us. */
    double max_queue_wait_us = 0.0;
    /**
     * Completions retired behind a later-submitted request (tags from
     * the completion events compare below the running maximum). 0 at
     * queue_depth=1; > 0 is direct evidence requests overlapped.
     */
    uint64_t ooo_completions = 0;

    double avg_read_latency_us = 0.0;
    double p99_read_latency_us = 0.0;
    double avg_write_latency_us = 0.0;
    /** Mean over all requests (read+write), the figures' "Perf". */
    double avg_latency_us = 0.0;

    /** Admission model the replay ran under. */
    Admission admission = Admission::Closed;
    /**
     * Measured arrival rate in requests/s: (requests - 1) over the
     * first-to-last arrival span. This is the load the workload
     * *offered*; under overload it exceeds achieved_iops.
     */
    double offered_iops = 0.0;
    /** Completion rate in requests/s: requests over simulated time. */
    double achieved_iops = 0.0;

    /**
     * End-to-end request latency distributions in ns. The measurement
     * origin depends on the admission model (arrival tick when open,
     * submittable tick when closed); the endpoint is always the
     * completion tick, so queue wait and service are both included.
     * Percentiles (p50/p95/p99/p99.9) come straight from these.
     */
    LatencyHistogram e2e_all;
    LatencyHistogram e2e_read;
    LatencyHistogram e2e_write;
    /** Service-only (submission -> completion) distribution in ns. */
    LatencyHistogram service;
    /** Submission-stall (ready -> submission) distribution in ns. */
    LatencyHistogram queue_wait;

    uint64_t mapping_bytes = 0;      ///< Full mapping size (Fig. 15/19).
    uint64_t resident_bytes = 0;     ///< DRAM-resident share.
    uint64_t data_cache_pages = 0;

    double cache_hit_ratio = 0.0;
    double waf = 0.0;
    double mispredict_ratio = 0.0;
    double avg_lookup_levels = 0.0;

    /** Raw data-cache counters behind cache_hit_ratio (CSV columns). */
    uint64_t cache_hits = 0;
    uint64_t cache_misses = 0;
    /** GC/wear victim-selection cost: picks made, index nodes walked. */
    uint64_t gc_pick_calls = 0;
    uint64_t gc_pick_scanned = 0;

    /** Crash/recovery cycles the replay injected (RunOptions). */
    uint64_t recoveries = 0;
    /** Accumulated recovery statistics across those cycles. */
    RecoveryStats recovery;

    SsdStats ssd; ///< Full counters for detailed reporting.
};

} // namespace leaftl
