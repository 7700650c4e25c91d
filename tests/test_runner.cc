/**
 * @file
 * Integration tests for the replay runner: all three FTLs process the
 * same workload, metrics are populated, the paper's qualitative
 * relations hold on a small scale (LeaFTL's mapping is the smallest),
 * and the event-driven engine at queue_depth=1 reproduces the legacy
 * closed loop exactly while deeper queues raise throughput.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "sim/runner.hh"
#include "workload/arrival.hh"
#include "workload/msr_models.hh"
#include "workload/synthetic.hh"

namespace leaftl
{
namespace
{

SsdConfig
testConfig(FtlKind ftl)
{
    SsdConfig cfg;
    cfg.geometry.num_channels = 4;
    cfg.geometry.blocks_per_channel = 64;
    cfg.geometry.pages_per_block = 64;
    cfg.ftl = ftl;
    cfg.dram_bytes = 2ull << 20;
    cfg.write_buffer_bytes = 64ull * 4096;
    return cfg;
}

TEST(Runner, PrefillWritesSequentially)
{
    Ssd ssd(testConfig(FtlKind::LeaFTL));
    Runner::prefill(ssd, 1000);
    EXPECT_EQ(ssd.stats().host_writes, 1000u);
    EXPECT_GE(ssd.stats().data_writes, 1000u);
    // Sequential prefill compresses to very few segments.
    EXPECT_LT(ssd.ftl().fullMappingBytes(), 1000u * kMapEntryBytes / 10);
}

class RunnerAllFtls : public ::testing::TestWithParam<FtlKind>
{
};

TEST_P(RunnerAllFtls, ReplayPopulatesMetrics)
{
    Ssd ssd(testConfig(GetParam()));
    auto wl = makeMsrWorkload("MSR-hm", 4000, 20000);
    Runner::prefill(ssd, 2000);
    const RunResult res = Runner::replay(ssd, *wl);

    EXPECT_EQ(res.requests, 20000u);
    EXPECT_GE(res.pages_touched, res.requests);
    EXPECT_GT(res.avg_read_latency_us, 0.0);
    EXPECT_GT(res.avg_write_latency_us, 0.0);
    EXPECT_GT(res.avg_latency_us, 0.0);
    EXPECT_GT(res.mapping_bytes, 0u);
    EXPECT_GT(res.waf, 0.0);
    EXPECT_EQ(res.ftl, std::string(ftlKindName(GetParam())));
    EXPECT_EQ(res.workload, "MSR-hm");
}

INSTANTIATE_TEST_SUITE_P(Ftls, RunnerAllFtls,
                         ::testing::Values(FtlKind::DFTL, FtlKind::SFTL,
                                           FtlKind::LeaFTL),
                         [](const auto &info) {
                             return ftlKindName(info.param);
                         });

TEST(Runner, LeaFtlMappingSmallestOnMsrHm)
{
    std::vector<RunResult> results;
    for (FtlKind kind :
         {FtlKind::DFTL, FtlKind::SFTL, FtlKind::LeaFTL}) {
        Ssd ssd(testConfig(kind));
        auto wl = makeMsrWorkload("MSR-hm", 4000, 20000);
        results.push_back(Runner::replay(ssd, *wl));
    }
    EXPECT_LT(results[2].mapping_bytes, results[0].mapping_bytes);
    EXPECT_LE(results[2].mapping_bytes, results[1].mapping_bytes);
}

TEST(Runner, LearnedLookupLevelsReported)
{
    Ssd ssd(testConfig(FtlKind::LeaFTL));
    auto wl = makeMsrWorkload("MSR-hm", 4000, 20000);
    const RunResult res = Runner::replay(ssd, *wl);
    EXPECT_GE(res.avg_lookup_levels, 1.0);
    EXPECT_LT(res.avg_lookup_levels, 40.0);
}

/**
 * The pre-event-queue Runner::replay, verbatim: one outstanding
 * request, issued no earlier than its arrival and no earlier than the
 * previous completion. The invariance test below asserts the
 * event-driven engine at queue_depth=1 is bit-for-bit identical.
 */
RunResult
legacyClosedLoopReplay(Ssd &ssd, WorkloadSource &workload,
                       const RunOptions &opts)
{
    RunResult res;
    res.workload = workload.name();
    res.ftl = ssd.ftl().name();
    const uint64_t host_pages = ssd.config().hostPages();

    Tick now = 0;
    double lat_sum = 0.0;
    IoRequest req;
    while (workload.next(req)) {
        now = std::max(now, req.arrival);
        Tick req_lat = 0;
        for (uint32_t i = 0; i < req.npages; i++) {
            const Lpa lpa = (req.lpa + i) % host_pages;
            const Tick lat = req.op == Op::Read ? ssd.read(lpa, now)
                                                : ssd.write(lpa, now);
            req_lat = std::max(req_lat, lat);
            res.pages_touched++;
        }
        lat_sum += static_cast<double>(req_lat);
        now += req_lat;
        res.requests++;
    }
    if (opts.drain_at_end)
        ssd.drainBuffer(now);
    res.sim_time_ns = now;

    const SsdStats &st = ssd.stats();
    res.ssd = st;
    res.avg_read_latency_us = st.read_latency.mean() / 1000.0;
    res.p99_read_latency_us = st.read_latency.percentile(99.0) / 1000.0;
    res.avg_write_latency_us = st.write_latency.mean() / 1000.0;
    res.avg_latency_us =
        res.requests ? lat_sum / res.requests / 1000.0 : 0.0;
    res.mapping_bytes = ssd.ftl().fullMappingBytes();
    res.resident_bytes = ssd.ftl().residentMappingBytes();
    res.waf = st.waf();
    res.mispredict_ratio = st.mispredictRatio();
    return res;
}

class RunnerDepthOneInvariance : public ::testing::TestWithParam<FtlKind>
{
};

TEST_P(RunnerDepthOneInvariance, MatchesLegacyClosedLoopExactly)
{
    RunOptions opts;
    opts.queue_depth = 1;

    Ssd legacy_ssd(testConfig(GetParam()));
    auto legacy_wl = makeMsrWorkload("MSR-hm", 4000, 20000);
    Runner::prefillMixed(legacy_ssd, 2000);
    const RunResult legacy =
        legacyClosedLoopReplay(legacy_ssd, *legacy_wl, opts);

    Ssd ssd(testConfig(GetParam()));
    auto wl = makeMsrWorkload("MSR-hm", 4000, 20000);
    Runner::prefillMixed(ssd, 2000);
    const RunResult res = Runner::replay(ssd, *wl, opts);

    // Replay-level aggregates: identical operation sequence implies
    // identical sums, so doubles compare exactly.
    EXPECT_EQ(res.requests, legacy.requests);
    EXPECT_EQ(res.pages_touched, legacy.pages_touched);
    EXPECT_EQ(res.sim_time_ns, legacy.sim_time_ns);
    EXPECT_EQ(res.avg_latency_us, legacy.avg_latency_us);
    EXPECT_EQ(res.avg_read_latency_us, legacy.avg_read_latency_us);
    EXPECT_EQ(res.p99_read_latency_us, legacy.p99_read_latency_us);
    EXPECT_EQ(res.avg_write_latency_us, legacy.avg_write_latency_us);
    EXPECT_EQ(res.mapping_bytes, legacy.mapping_bytes);
    EXPECT_EQ(res.resident_bytes, legacy.resident_bytes);
    EXPECT_EQ(res.waf, legacy.waf);
    EXPECT_EQ(res.mispredict_ratio, legacy.mispredict_ratio);

    // Device-level counters.
    EXPECT_EQ(res.ssd.host_reads, legacy.ssd.host_reads);
    EXPECT_EQ(res.ssd.host_writes, legacy.ssd.host_writes);
    EXPECT_EQ(res.ssd.buffer_read_hits, legacy.ssd.buffer_read_hits);
    EXPECT_EQ(res.ssd.unmapped_reads, legacy.ssd.unmapped_reads);
    EXPECT_EQ(res.ssd.data_reads, legacy.ssd.data_reads);
    EXPECT_EQ(res.ssd.data_writes, legacy.ssd.data_writes);
    EXPECT_EQ(res.ssd.gc_runs, legacy.ssd.gc_runs);
    EXPECT_EQ(res.ssd.gc_reads, legacy.ssd.gc_reads);
    EXPECT_EQ(res.ssd.gc_writes, legacy.ssd.gc_writes);
    EXPECT_EQ(res.ssd.gc_erases, legacy.ssd.gc_erases);
    EXPECT_EQ(res.ssd.trans_reads, legacy.ssd.trans_reads);
    EXPECT_EQ(res.ssd.trans_writes, legacy.ssd.trans_writes);
    EXPECT_EQ(res.ssd.mispredictions, legacy.ssd.mispredictions);
    EXPECT_EQ(res.ssd.translations, legacy.ssd.translations);
    EXPECT_EQ(res.ssd.compactions, legacy.ssd.compactions);

    // Depth-1 queue metrics are degenerate by construction.
    EXPECT_EQ(res.queue_depth, 1u);
    EXPECT_EQ(res.max_inflight, 1u);
    EXPECT_LE(res.mean_inflight, 1.0);
    EXPECT_EQ(res.ooo_completions, 0u);
}

INSTANTIATE_TEST_SUITE_P(Ftls, RunnerDepthOneInvariance,
                         ::testing::Values(FtlKind::DFTL, FtlKind::SFTL,
                                           FtlKind::LeaFTL),
                         [](const auto &info) {
                             return ftlKindName(info.param);
                         });

/**
 * Read-heavy uniform workload whose arrivals outpace a single
 * outstanding flash read, so any throughput gain must come from
 * request-level concurrency across channels.
 */
MixSpec
qdTestSpec()
{
    MixSpec spec;
    spec.name = "qd-test";
    spec.working_set_pages = 4096;
    spec.num_requests = 15000;
    spec.read_ratio = 0.9;
    spec.p_seq = 0.0;
    spec.p_stride = 0.0;
    spec.p_log = 0.0;
    spec.zipf_theta = 0.0; // Uniform: minimize data-cache hits.
    spec.interarrival = 2 * kMicrosecond;
    spec.seed = 7;
    return spec;
}

SsdConfig
qdTestConfig()
{
    SsdConfig cfg;
    // 16 channels with small blocks: flush bursts (a block programs on
    // a single channel) stay short, so read concurrency is what the
    // measurement exposes -- the same shape as the CLI device.
    cfg.geometry.num_channels = 16;
    cfg.geometry.blocks_per_channel = 64;
    cfg.geometry.pages_per_block = 32;
    cfg.ftl = FtlKind::LeaFTL;
    cfg.dram_bytes = 2ull << 20;
    cfg.write_buffer_bytes = 128ull * 4096;
    return cfg;
}

RunResult
runAtDepth(uint32_t qd)
{
    Ssd ssd(qdTestConfig());
    MixWorkload wl(qdTestSpec());
    RunOptions opts;
    opts.queue_depth = qd;
    Runner::prefill(ssd, 4096); // Map the whole working set.
    return Runner::replay(ssd, wl, opts);
}

TEST(RunnerQueueDepth, DeeperQueueRaisesThroughput)
{
    const RunResult qd1 = runAtDepth(1);
    const RunResult qd8 = runAtDepth(8);

    // Same request stream either way.
    ASSERT_EQ(qd8.requests, qd1.requests);
    ASSERT_EQ(qd8.pages_touched, qd1.pages_touched);

    // Equal pages over less simulated time = higher throughput. The
    // acceptance bar for the refactor is >= 1.5x at qd=8.
    EXPECT_GE(static_cast<double>(qd1.sim_time_ns),
              1.5 * static_cast<double>(qd8.sim_time_ns))
        << "qd=8 should finish the same work >= 1.5x faster, got "
        << static_cast<double>(qd1.sim_time_ns) /
               static_cast<double>(qd8.sim_time_ns)
        << "x";

    // Queue-aware metrics behave.
    EXPECT_EQ(qd1.max_inflight, 1u);
    EXPECT_LE(qd1.mean_inflight, 1.0);
    EXPECT_GT(qd8.max_inflight, 1u);
    EXPECT_LE(qd8.max_inflight, 8u);
    EXPECT_GT(qd8.mean_inflight, 1.0);
    EXPECT_LE(qd8.mean_inflight, 8.0);

    // A deeper queue stalls admissions less.
    EXPECT_LT(qd8.avg_queue_wait_us, qd1.avg_queue_wait_us);

    // Requests genuinely overlapped: some completed out of
    // submission order; a depth-1 run never reorders.
    EXPECT_EQ(qd1.ooo_completions, 0u);
    EXPECT_GT(qd8.ooo_completions, 0u);
}

TEST(RunnerQueueDepth, DepthZeroIsTreatedAsOne)
{
    Ssd a(qdTestConfig());
    Ssd b(qdTestConfig());
    MixWorkload wa(qdTestSpec());
    MixWorkload wb(qdTestSpec());
    RunOptions opts;
    opts.queue_depth = 0;
    const RunResult r0 = Runner::replay(a, wa, opts);
    opts.queue_depth = 1;
    const RunResult r1 = Runner::replay(b, wb, opts);
    EXPECT_EQ(r0.queue_depth, 1u);
    EXPECT_EQ(r0.sim_time_ns, r1.sim_time_ns);
    EXPECT_EQ(r0.ssd.data_reads, r1.ssd.data_reads);
}

/**
 * Open vs. closed admission changes where latency is measured from
 * (and shifts the arrival process past the prefill backlog), never
 * which operations the device performs: every operation counter must
 * be identical. Timing-derived values (sim_time, service latency) may
 * differ slightly because open mode starts replay on a quiesced
 * device.
 */
TEST(RunnerOpenLoop, OpenAdmissionKeepsDeviceEvolutionIdentical)
{
    RunOptions opts;
    opts.queue_depth = 8;

    opts.admission = Admission::Closed;
    Ssd closed_ssd(testConfig(FtlKind::LeaFTL));
    auto closed_wl = makeMsrWorkload("MSR-hm", 4000, 20000);
    Runner::prefillMixed(closed_ssd, 2000);
    const RunResult closed = Runner::replay(closed_ssd, *closed_wl, opts);

    opts.admission = Admission::Open;
    Ssd open_ssd(testConfig(FtlKind::LeaFTL));
    auto open_wl = makeMsrWorkload("MSR-hm", 4000, 20000);
    Runner::prefillMixed(open_ssd, 2000);
    const RunResult open = Runner::replay(open_ssd, *open_wl, opts);

    EXPECT_EQ(open.requests, closed.requests);
    EXPECT_EQ(open.pages_touched, closed.pages_touched);
    EXPECT_EQ(open.ssd.host_reads, closed.ssd.host_reads);
    EXPECT_EQ(open.ssd.host_writes, closed.ssd.host_writes);
    EXPECT_EQ(open.ssd.data_reads, closed.ssd.data_reads);
    EXPECT_EQ(open.ssd.data_writes, closed.ssd.data_writes);
    EXPECT_EQ(open.ssd.gc_runs, closed.ssd.gc_runs);
    EXPECT_EQ(open.ssd.gc_writes, closed.ssd.gc_writes);
    EXPECT_EQ(open.ssd.trans_reads, closed.ssd.trans_reads);
    EXPECT_EQ(open.ssd.mispredictions, closed.ssd.mispredictions);
    EXPECT_EQ(open.mapping_bytes, closed.mapping_bytes);

    EXPECT_EQ(closed.admission, Admission::Closed);
    EXPECT_EQ(open.admission, Admission::Open);
    // Open-loop end-to-end latency anchors at the arrival tick, so it
    // is never below the service-only measurement.
    EXPECT_GE(open.e2e_all.mean(), closed.service.mean());
}

TEST(RunnerOpenLoop, EndToEndHistogramsPopulated)
{
    Ssd ssd(qdTestConfig());
    ShaperSpec shape;
    shape.kind = ShaperKind::FixedRate;
    shape.rate_iops = 100'000;
    auto wl = shapeArrivals(std::make_unique<MixWorkload>(qdTestSpec()),
                            shape);
    RunOptions opts;
    opts.queue_depth = 16;
    opts.admission = Admission::Open;
    Runner::prefill(ssd, 4096);
    const RunResult res = Runner::replay(ssd, *wl, opts);

    EXPECT_EQ(res.e2e_all.count(), res.requests);
    EXPECT_EQ(res.e2e_read.count() + res.e2e_write.count(),
              res.requests);
    EXPECT_EQ(res.service.count(), res.requests);
    EXPECT_EQ(res.queue_wait.count(), res.requests);
    // Percentiles are ordered and positive.
    const double p50 = res.e2e_all.percentile(50.0);
    const double p99 = res.e2e_all.percentile(99.0);
    const double p999 = res.e2e_all.percentile(99.9);
    EXPECT_GT(p50, 0.0);
    EXPECT_LE(p50, p99);
    EXPECT_LE(p99, p999);
    // Offered load tracks the shaper; the device keeps up at this
    // rate, so the achieved rate matches it (loosely).
    EXPECT_NEAR(res.offered_iops, 100'000.0, 1000.0);
    EXPECT_NEAR(res.achieved_iops, 100'000.0, 5000.0);
}

/** p99 end-to-end latency at one fixed-rate offered load. */
double
openLoopP99AtRate(double rate)
{
    Ssd ssd(qdTestConfig());
    ShaperSpec shape;
    shape.kind = ShaperKind::FixedRate;
    shape.rate_iops = rate;
    auto wl = shapeArrivals(std::make_unique<MixWorkload>(qdTestSpec()),
                            shape);
    RunOptions opts;
    opts.queue_depth = 64;
    opts.admission = Admission::Open;
    Runner::prefill(ssd, 4096);
    const RunResult res = Runner::replay(ssd, *wl, opts);
    return res.e2e_all.percentile(99.0);
}

TEST(RunnerOpenLoop, TailLatencyGrowsMonotonicallyWithOfferedLoad)
{
    // Spanning the knee: the device saturates somewhere inside this
    // range, so the last step must explode rather than plateau.
    const std::vector<double> rates = {50'000, 200'000, 800'000,
                                       3'200'000};
    std::vector<double> p99s;
    for (const double r : rates)
        p99s.push_back(openLoopP99AtRate(r));

    for (size_t i = 1; i < p99s.size(); i++) {
        EXPECT_GE(p99s[i], p99s[i - 1])
            << "p99 fell between rate " << rates[i - 1] << " and "
            << rates[i];
    }
    EXPECT_GT(p99s.back(), 10.0 * p99s.front())
        << "past saturation the open-loop tail must diverge";
}

TEST(Runner, GammaReducesMappingBytes)
{
    uint64_t prev = UINT64_MAX;
    for (uint32_t gamma : {0u, 4u, 16u}) {
        SsdConfig cfg = testConfig(FtlKind::LeaFTL);
        cfg.gamma = gamma;
        Ssd ssd(cfg);
        auto wl = makeMsrWorkload("FIU-mail", 4000, 30000);
        const RunResult res = Runner::replay(ssd, *wl);
        EXPECT_LE(res.mapping_bytes, prev) << "gamma=" << gamma;
        prev = res.mapping_bytes;
    }
}

} // namespace
} // namespace leaftl
