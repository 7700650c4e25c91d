/**
 * @file
 * Intra-run thread scaling anchor (host-perf bench, not a paper
 * figure): replays the same LeaFTL run with a shard pool of 1, 2, 4
 * and 8 workers and reports host wall-clock speedup over the serial
 * engine. The pool fans out the two batch shapes that pay -- per-group
 * learns and whole-table compaction -- between barriers, so the
 * simulated results are deterministic by construction and the bench
 * hard-fails if any simulated metric differs across worker counts.
 *
 * Timing: one discarded warm-up round, then 5 timed rounds (3 with
 * --fast). Each round runs every worker count once, so slow drift of
 * the host hits all counts alike. Rows report the median wall time and
 * its interquartile range (IQR); speedup is the ratio of medians. Rows
 * with more workers than the host has hardware threads are marked
 * oversubscribed -- their speedup measures contention, not scaling.
 *
 * A write-heavy skewed mix keeps the learned table busy: buffer
 * flushes learn runs that span many groups, and compaction runs
 * regularly.
 */

#include <cinttypes>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hh"
#include "sim/reporter.hh"
#include "sim/shard_runner.hh"
#include "util/stats.hh"
#include "workload/synthetic.hh"

namespace
{

leaftl::MixSpec
threadMixSpec(const leaftl::bench::BenchScale &s)
{
    leaftl::MixSpec spec;
    spec.name = "thread-mix";
    spec.working_set_pages = s.working_set_pages;
    spec.num_requests = s.requests;
    // Write-heavy: flush-time learns and compactions dominate, the
    // paths the worker pool parallelizes.
    spec.read_ratio = 0.4;
    spec.p_seq = 0.2;
    spec.seq_len_mean = 32;
    spec.p_stride = 0.05;
    spec.p_log = 0.05;
    spec.zipf_theta = 0.9;
    return spec;
}

struct SimFingerprint
{
    leaftl::Tick sim_time_ns = 0;
    uint64_t pages_touched = 0;
    uint64_t mapping_bytes = 0;
    double waf = 0.0;
    double mispredict_ratio = 0.0;
    double p99_read_latency_us = 0.0;
    double avg_latency_us = 0.0;

    bool
    operator==(const SimFingerprint &o) const = default;
};

} // namespace

int
main(int argc, char **argv)
{
    using namespace leaftl;
    using namespace leaftl::bench;

    BenchScale s = parseScale(argc, argv);
    if (!s.from_config && !s.fast && s.requests == 200'000) {
        // Many full replays; trim the default a bit.
        s.requests = 80'000;
        s.working_set_pages = 32 * 1024;
    }
    s.gamma = s.gamma ? s.gamma : 4;
    s.queue_depth = std::max(s.queue_depth, 8u);
    const uint32_t reps = s.fast ? 3 : 5;

    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    banner("fig_thread_scale",
           "host wall-clock vs. --threads (simulated results must not "
           "move)");
    std::printf("host hardware threads: %u; %u timed rep(s) per count "
                "after one warm-up round\n\n",
                hw, reps);

    const std::vector<uint32_t> counts = {1, 2, 4, 8};
    const SsdConfig cfg = benchConfig(FtlKind::LeaFTL, s);
    std::vector<SampleSet> wall_ms(counts.size());
    std::vector<RunResult> last(counts.size());
    SimFingerprint reference;
    bool have_reference = false;
    bool diverged = false;
    for (uint32_t round = 0; round <= reps; round++) {
        for (size_t c = 0; c < counts.size(); c++) {
            Ssd ssd(cfg);
            std::unique_ptr<ShardPool> pool;
            if (counts[c] > 1) {
                pool = std::make_unique<ShardPool>(counts[c]);
                ssd.attachShardPool(pool.get());
            }
            auto wl = std::make_unique<MixWorkload>(threadMixSpec(s));
            RunOptions opts;
            opts.prefill_pages = s.working_set_pages;
            opts.mixed_prefill = true;
            opts.queue_depth = s.queue_depth;

            HostTimer timer;
            RunResult res = Runner::replay(ssd, *wl, opts);
            const double ms = timer.elapsedNs() / 1e6;
            if (round > 0) // Round 0 is the warm-up.
                wall_ms[c].add(ms);

            const SimFingerprint fp{res.sim_time_ns,
                                    res.pages_touched,
                                    res.mapping_bytes,
                                    res.waf,
                                    res.mispredict_ratio,
                                    res.p99_read_latency_us,
                                    res.avg_latency_us};
            if (!have_reference) {
                reference = fp;
                have_reference = true;
            } else if (!(fp == reference)) {
                diverged = true;
            }
            last[c] = std::move(res);
        }
    }

    TextTable table({"threads", "wall_ms_p50", "wall_ms_iqr", "speedup",
                     "oversub", "MB/s(sim)", "p99_read_us", "waf",
                     "mapping_KB"});
    const double base_ms = wall_ms[0].percentile(50.0);
    for (size_t c = 0; c < counts.size(); c++) {
        const RunResult &res = last[c];
        const double p50 = wall_ms[c].percentile(50.0);
        const double iqr =
            wall_ms[c].percentile(75.0) - wall_ms[c].percentile(25.0);
        const double sim_s = static_cast<double>(res.sim_time_ns) /
                             static_cast<double>(kSecond);
        const double mbps =
            sim_s > 0.0 ? static_cast<double>(res.pages_touched) *
                              cfg.geometry.page_size / sim_s / (1 << 20)
                        : 0.0;
        table.addRow({std::to_string(counts[c]), TextTable::fmt(p50),
                      TextTable::fmt(iqr),
                      TextTable::fmt(p50 > 0.0 ? base_ms / p50 : 0.0),
                      counts[c] > hw ? "yes" : "no", TextTable::fmt(mbps),
                      TextTable::fmt(res.p99_read_latency_us),
                      TextTable::fmt(res.waf),
                      std::to_string(res.mapping_bytes >> 10)});
    }
    table.print();
    std::printf("\nspeedup is the median host wall clock of --threads 1 "
                "over that of the row\n(depends on the machine's core "
                "count; oversubscribed rows measure contention);\nevery "
                "simulated column is barrier-deterministic and must be "
                "identical.\n");

    if (diverged) {
        std::printf("\nFAIL: simulated results changed with the worker "
                    "count\n");
        return 1;
    }
    std::printf("\nsimulated results identical across threads {1, 2, 4, "
                "8} and every rep: OK\n");
    return 0;
}
