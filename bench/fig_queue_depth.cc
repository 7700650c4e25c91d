/**
 * @file
 * Queue-depth scaling microbench (perf anchor for the event-driven
 * replay engine, not a paper figure): sweeps qd in {1, 2, 4, 8, 16,
 * 32} for LeaFTL vs. DFTL on a read-heavy mixed workload whose
 * arrival rate outpaces a single outstanding request, and reports
 * throughput, service latency, submission stall, and the measured
 * concurrency. qd=1 is the paper's closed-loop model; the speedup
 * column shows how much of the device's channel parallelism a deeper
 * queue unlocks.
 *
 * With --config=FILE the FTL list and the qd axis come from the
 * file's keys instead of the built-in sweep.
 */

#include <cinttypes>

#include "bench_common.hh"
#include "sim/reporter.hh"
#include "workload/synthetic.hh"

namespace
{

leaftl::MixSpec
qdMixSpec(const leaftl::bench::BenchScale &s)
{
    leaftl::MixSpec spec;
    spec.name = "qd-mix";
    spec.working_set_pages = s.working_set_pages;
    spec.num_requests = s.requests;
    spec.read_ratio = 0.8;
    // Mostly uniform point accesses with light seq/stride/log salt: a
    // request run on consecutive LPAs lives in one block (= one
    // channel) and zipf skew concentrates on hot channels, so heavy
    // doses of either measure workload skew, not engine concurrency.
    spec.p_seq = 0.1;
    spec.seq_len_mean = 16;
    spec.p_stride = 0.05;
    spec.p_log = 0.05;
    spec.zipf_theta = 0.0;
    // Arrivals every ~2 us keep the submission queue fed: a single
    // 20 us flash read per outstanding request is the bottleneck, so
    // any observed speedup comes from request-level concurrency.
    spec.interarrival = 2 * leaftl::kMicrosecond;
    return spec;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace leaftl;
    using namespace leaftl::bench;

    // The sweep runs 12 full replays: a smaller default scale.
    BenchScale s = parseScale(argc, argv, nullptr,
                              {.requests = 60'000,
                               .working_set_pages = 32 * 1024});
    // A config file replaces both sweep axes; flags keep the historical
    // 2-FTL x 6-depth grid.
    const std::vector<FtlKind> ftls =
        s.from_config ? s.spec.ftls
                      : std::vector<FtlKind>{FtlKind::LeaFTL, FtlKind::DFTL};
    const std::vector<uint32_t> depths =
        s.from_config ? s.spec.queue_depths
                      : std::vector<uint32_t>{1, 2, 4, 8, 16, 32};

    banner("fig_queue_depth",
           "throughput & latency vs. queue depth (leaftl vs. dftl)");

    TextTable table({"ftl", "qd", "MB/s", "speedup", "svc_us", "wait_us",
                     "mean_inflight", "max_inflight", "busy_horizon_ms"});

    for (const FtlKind ftl : ftls) {
        double base_mbps = 0.0;
        for (const uint32_t qd : depths) {
            BenchScale run = s;
            run.queue_depth = qd;
            SsdConfig cfg = benchConfig(ftl, run);
            Ssd ssd(cfg);
            auto wl = std::make_unique<MixWorkload>(qdMixSpec(run));
            RunOptions opts;
            opts.queue_depth = qd;
            Runner::prefillMixed(ssd, run.working_set_pages);
            const RunResult res = Runner::replay(ssd, *wl, opts);

            const double sim_s = static_cast<double>(res.sim_time_ns) /
                                 static_cast<double>(kSecond);
            const double mbps =
                sim_s > 0.0 ? static_cast<double>(res.pages_touched) *
                                  cfg.geometry.page_size / sim_s / (1 << 20)
                            : 0.0;
            if (qd == depths.front())
                base_mbps = mbps;

            table.addRow(
                {ftlKindName(ftl), std::to_string(qd), TextTable::fmt(mbps),
                 TextTable::fmt(base_mbps > 0.0 ? mbps / base_mbps : 0.0),
                 TextTable::fmt(res.avg_latency_us),
                 TextTable::fmt(res.avg_queue_wait_us),
                 TextTable::fmt(res.mean_inflight),
                 std::to_string(res.max_inflight),
                 TextTable::fmt(static_cast<double>(
                                    ssd.channels().earliestFree()) /
                                kMillisecond)});
        }
    }
    table.print();
    std::printf("\nspeedup is vs. the same FTL at the first swept depth; "
                "busy_horizon is "
                "when the least-loaded\nchannel goes idle (background "
                "flush/GC included).\n");
    return 0;
}
