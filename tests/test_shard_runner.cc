/**
 * @file
 * Tests for intra-run parallelism: the ShardPool barrier/striping
 * contract, the exact histogram merges per-worker accumulators rely
 * on, the oversubscription clamp, bit-identical parallel
 * learn/compact, full replay parity between --threads 1 and
 * --threads N, and the --campaign-diff comparator.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "cli/campaign.hh"
#include "cli/sim_cli.hh"
#include "csv_test_util.hh"
#include "learned/learned_table.hh"
#include "sim/runner.hh"
#include "sim/shard_runner.hh"
#include "util/rng.hh"
#include "util/stats.hh"

namespace leaftl
{
namespace
{

namespace fs = std::filesystem;
using cli::runSweep;
using cli::SimOptions;
using test::stripWallNs;

// --------------------------------------------------------------------
// ShardPool.

TEST(ShardPool, StripesPartitionExactly)
{
    for (uint32_t workers : {1u, 2u, 3u, 4u, 7u}) {
        ShardPool pool(workers);
        for (size_t n : {0u, 1u, 2u, 5u, 16u, 100u, 101u}) {
            size_t covered = 0;
            size_t prev_end = 0;
            for (uint32_t w = 0; w < pool.workers(); w++) {
                const auto [begin, end] = pool.stripe(n, w);
                EXPECT_EQ(begin, prev_end);
                EXPECT_LE(begin, end);
                covered += end - begin;
                prev_end = end;
            }
            EXPECT_EQ(covered, n);
            EXPECT_EQ(prev_end, n);
        }
    }
}

TEST(ShardPool, ParallelForCoversEveryIndexOnce)
{
    ShardPool pool(4);
    std::vector<std::atomic<uint32_t>> hits(1000);
    for (auto &h : hits)
        h.store(0);
    pool.parallelFor(hits.size(), [&](size_t begin, size_t end, uint32_t) {
        for (size_t i = begin; i < end; i++)
            hits[i].fetch_add(1);
    });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1u);
}

TEST(ShardPool, ReusableAcrossManyWindows)
{
    // The pool is persistent: barriers must fully reset its state so
    // back-to-back windows (the replay pattern) never deadlock or
    // double-run.
    ShardPool pool(3);
    std::atomic<uint64_t> sum{0};
    for (int round = 0; round < 200; round++) {
        pool.parallelFor(round % 7,
                         [&](size_t begin, size_t end, uint32_t) {
                             sum.fetch_add(end - begin);
                         });
    }
    uint64_t expect = 0;
    for (int round = 0; round < 200; round++)
        expect += round % 7;
    EXPECT_EQ(sum.load(), expect);
}

TEST(ShardPool, WorkerIdsAreStableStripes)
{
    // Worker w always receives stripe(n, w): per-worker accumulators
    // see a schedule-independent partition.
    ShardPool pool(4);
    std::vector<uint32_t> owner(64, 999);
    pool.parallelFor(owner.size(), [&](size_t begin, size_t end, uint32_t w) {
        for (size_t i = begin; i < end; i++)
            owner[i] = w;
    });
    for (size_t i = 0; i < owner.size(); i++) {
        const uint32_t w = owner[i];
        const auto [begin, end] = pool.stripe(owner.size(), w);
        EXPECT_GE(i, begin);
        EXPECT_LT(i, end);
    }
}

// --------------------------------------------------------------------
// Exact histogram merges (the per-worker accumulator contract).

TEST(HistogramMerge, CountHistogramAnyPartitionEqualsSerial)
{
    Rng rng(11);
    std::vector<uint64_t> samples;
    for (int i = 0; i < 5000; i++)
        samples.push_back(rng.nextBounded(300)); // Some clamp at 256.

    CountHistogram serial(256);
    for (uint64_t v : samples)
        serial.add(v);

    for (uint32_t parts : {1u, 2u, 3u, 8u}) {
        std::vector<CountHistogram> shard(parts, CountHistogram(256));
        for (size_t i = 0; i < samples.size(); i++)
            shard[i % parts].add(samples[i]);
        CountHistogram merged(256);
        for (const auto &s : shard)
            merged.merge(s);
        EXPECT_EQ(merged.count(), serial.count());
        EXPECT_EQ(merged.mean(), serial.mean()); // Bit-exact.
        EXPECT_EQ(merged.max(), serial.max());
        for (double p : {1.0, 50.0, 99.0, 99.9})
            EXPECT_EQ(merged.percentile(p), serial.percentile(p));
    }
}

TEST(HistogramMerge, LatencyHistogramAnyPartitionEqualsSerial)
{
    Rng rng(13);
    std::vector<double> samples;
    for (int i = 0; i < 5000; i++)
        samples.push_back(
            static_cast<double>(100 + rng.nextBounded(1000000)));

    LatencyHistogram serial;
    for (double v : samples)
        serial.add(v);

    for (uint32_t parts : {1u, 2u, 3u, 8u}) {
        std::vector<LatencyHistogram> shard(parts);
        for (size_t i = 0; i < samples.size(); i++)
            shard[i % parts].add(samples[i]);
        LatencyHistogram merged;
        for (const auto &s : shard)
            merged.merge(s);
        EXPECT_EQ(merged.count(), serial.count());
        EXPECT_EQ(merged.mean(), serial.mean()); // Bit-exact.
        EXPECT_EQ(merged.max(), serial.max());
        for (double p : {50.0, 99.0, 99.9})
            EXPECT_EQ(merged.percentile(p), serial.percentile(p));
    }
}

// --------------------------------------------------------------------
// LearnedTable: parallel learn/compact equivalence.

std::vector<std::pair<Lpa, Ppa>>
randomRun(Rng &rng, uint32_t len, Lpa span, Ppa base)
{
    // Strictly increasing LPAs with irregular gaps: exercises exact
    // and approximate segments across many groups.
    std::vector<std::pair<Lpa, Ppa>> run;
    Lpa lpa = rng.nextBounded(span);
    for (uint32_t i = 0; i < len; i++) {
        lpa += 1 + rng.nextBounded(5);
        run.emplace_back(lpa, base + i * (1 + rng.nextBounded(3)));
    }
    return run;
}

TEST(ParallelLearn, BitIdenticalToSerialAcrossWorkerCounts)
{
    for (uint32_t gamma : {0u, 4u}) {
        LearnedTable serial(gamma);
        Rng serial_rng(99);
        for (int i = 0; i < 60; i++)
            serial.learn(randomRun(serial_rng, 400, 1 << 16,
                                   static_cast<Ppa>(i) << 12));
        serial.compact();
        serial.checkInvariants();

        for (uint32_t workers : {2u, 4u, 8u}) {
            ShardPool pool(workers);
            LearnedTable par(gamma);
            par.setShardPool(&pool);
            Rng par_rng(99);
            for (int i = 0; i < 60; i++)
                par.learn(randomRun(par_rng, 400, 1 << 16,
                                    static_cast<Ppa>(i) << 12));
            par.compact();
            par.checkInvariants();

            EXPECT_EQ(par.serialize(), serial.serialize())
                << "gamma=" << gamma << " workers=" << workers;
            EXPECT_EQ(par.numSegments(), serial.numSegments());
            EXPECT_EQ(par.numApproximate(), serial.numApproximate());
            EXPECT_EQ(par.memoryBytes(), serial.memoryBytes());
            const auto &a = serial.stats();
            const auto &b = par.stats();
            EXPECT_EQ(b.segments_created, a.segments_created);
            EXPECT_EQ(b.accurate_created, a.accurate_created);
            EXPECT_EQ(b.approximate_created, a.approximate_created);
            EXPECT_EQ(b.creation_lengths.count(),
                      a.creation_lengths.count());
            EXPECT_EQ(b.creation_lengths.mean(), a.creation_lengths.mean());
        }
    }
}

// --------------------------------------------------------------------
// Oversubscription clamp.

TEST(ClampSweepJobs, AutoDividesHardwareByThreads)
{
    EXPECT_EQ(clampSweepJobs(0, 1, 8, nullptr), 8u);
    EXPECT_EQ(clampSweepJobs(0, 4, 8, nullptr), 2u);
    EXPECT_EQ(clampSweepJobs(0, 8, 8, nullptr), 1u);
    EXPECT_EQ(clampSweepJobs(0, 16, 8, nullptr), 1u); // Never zero.
}

TEST(ClampSweepJobs, ExplicitJobsCappedWithWarning)
{
    std::string warning;
    EXPECT_EQ(clampSweepJobs(8, 4, 8, &warning), 2u);
    EXPECT_NE(warning.find("capping --jobs 8"), std::string::npos);
    EXPECT_NE(warning.find("--threads 4"), std::string::npos);
}

TEST(ClampSweepJobs, SerialRunsKeepExplicitJobs)
{
    // threads == 1 preserves the historical contract: an explicit
    // --jobs is honored even when it oversubscribes.
    std::string warning;
    EXPECT_EQ(clampSweepJobs(16, 1, 8, &warning), 16u);
    EXPECT_TRUE(warning.empty());
    EXPECT_EQ(clampSweepJobs(2, 4, 8, &warning), 2u); // Within budget.
    EXPECT_TRUE(warning.empty());
}

// --------------------------------------------------------------------
// Full replay parity: --threads N vs --threads 1.

TEST(ThreadedReplay, SweepCsvIdenticalAcrossThreadCounts)
{
    SimOptions zipf;
    zipf.ftls = {FtlKind::LeaFTL};
    zipf.workloads = {"synthetic:zipf"};
    zipf.gammas = {0, 4};
    zipf.queue_depths = {1, 8};
    zipf.requests = 4000;
    zipf.working_set_pages = 8192;
    zipf.prefill_frac = 0.5;
    zipf.jobs = 1;

    // Mixed sequential/strided/log/zipf traffic at qd 8: learns and
    // compactions interleave with overlapping inflight requests.
    SimOptions mix = zipf;
    mix.workloads = {"synthetic:mix"};
    mix.gammas = {4};
    mix.queue_depths = {8};
    mix.requests = 3000;

    // Read-heavy qd 8: reads dominate, so the pool sees only the rare
    // flush-time learns and compactions between long serial stretches.
    SimOptions read_heavy = zipf;
    read_heavy.gammas = {4};
    read_heavy.queue_depths = {8};
    read_heavy.read_ratio = 0.95;

    for (const SimOptions &base : {zipf, mix, read_heavy}) {
        SimOptions serial = base;
        serial.threads = 1;
        std::ostringstream serial_out;
        ASSERT_EQ(runSweep(serial, serial_out), 0);

        for (unsigned threads : {2u, 4u}) {
            SimOptions par = base;
            par.threads = threads;
            std::ostringstream par_out;
            ASSERT_EQ(runSweep(par, par_out), 0);
            EXPECT_EQ(stripWallNs(par_out.str()),
                      stripWallNs(serial_out.str()))
                << base.workloads[0] << " read_ratio=" << base.read_ratio
                << " threads=" << threads;
        }
    }
}

// --------------------------------------------------------------------
// --campaign-diff.

class DiffTempDir
{
  public:
    DiffTempDir()
    {
        char name[] = "/tmp/leaftl_diff_XXXXXX";
        EXPECT_NE(mkdtemp(name), nullptr);
        path_ = name;
    }
    ~DiffTempDir() { fs::remove_all(path_); }
    const fs::path &path() const { return path_; }

  private:
    fs::path path_;
};

std::string
benchJson(const std::string &fp, double throughput, double p99,
          uint64_t wall, const std::string &extra_run = "")
{
    std::ostringstream j;
    j << "{\n  \"campaign\": \"t\",\n  \"runs\": [\n"
      << "    {\"fingerprint\": \"" << fp << "\", \"csv\": \"run-" << fp
      << ".csv\", \"executed\": true,\n"
      << "     \"ftl\": \"LeaFTL\", \"workload\": \"synthetic:zipf\", "
         "\"gamma\": 4, \"qd\": 8, \"device\": \"auto\", \"mode\": "
         "\"closed\", \"rate\": 0,\n"
      << "     \"throughput_mbps\": " << throughput
      << ", \"achieved_iops\": 100, \"p99_read_lat_us\": " << p99
      << ", \"p99_lat_e2e_us\": 10, \"wall_ns\": " << wall << "}";
    if (!extra_run.empty())
        j << ",\n" << extra_run;
    j << "\n  ]\n}\n";
    return j.str();
}

void
writeFile(const fs::path &p, const std::string &content)
{
    std::ofstream out(p);
    out << content;
    ASSERT_TRUE(out.good());
}

TEST(CampaignDiff, IdenticalSummariesPass)
{
    DiffTempDir dir;
    const fs::path a = dir.path() / "a.json";
    const fs::path b = dir.path() / "b.json";
    writeFile(a, benchJson("aaaa000011112222", 123.4, 55.5, 1000));
    writeFile(b, benchJson("aaaa000011112222", 123.4, 55.5, 2000));
    std::ostringstream out;
    EXPECT_EQ(cli::campaignDiff(a.string(), b.string(), 1.0, out), 0);
    EXPECT_NE(out.str().find("1 shared"), std::string::npos);
    EXPECT_NE(out.str().find("within 1"), std::string::npos);
}

TEST(CampaignDiff, ThroughputRegressionFailsGate)
{
    DiffTempDir dir;
    const fs::path a = dir.path() / "a.json";
    const fs::path b = dir.path() / "b.json";
    writeFile(a, benchJson("aaaa000011112222", 100.0, 50.0, 1000));
    writeFile(b, benchJson("aaaa000011112222", 90.0, 50.0, 1000));
    std::ostringstream out;
    // 10% drop: fails a 5% gate, passes a 15% one, and report-only
    // (threshold 0) always passes.
    EXPECT_EQ(cli::campaignDiff(a.string(), b.string(), 5.0, out), 1);
    EXPECT_NE(out.str().find("REGRESSION"), std::string::npos);
    std::ostringstream out2;
    EXPECT_EQ(cli::campaignDiff(a.string(), b.string(), 15.0, out2), 0);
    std::ostringstream out3;
    EXPECT_EQ(cli::campaignDiff(a.string(), b.string(), 0.0, out3), 0);
}

TEST(CampaignDiff, P99RegressionFailsGateAndDisjointRunsReported)
{
    DiffTempDir dir;
    const fs::path a = dir.path() / "a.json";
    const fs::path b = dir.path() / "b.json";
    writeFile(a, benchJson("aaaa000011112222", 100.0, 50.0, 1000));
    // B shares the fingerprint but regresses p99, and adds a run A
    // does not have.
    const std::string extra =
        "    {\"fingerprint\": \"bbbb000011112222\", \"csv\": "
        "\"run-b.csv\", \"executed\": true,\n"
        "     \"ftl\": \"LeaFTL\", \"workload\": \"synthetic:seq\", "
        "\"gamma\": 0, \"qd\": 1, \"device\": \"auto\", \"mode\": "
        "\"closed\", \"rate\": 0,\n"
        "     \"throughput_mbps\": 10, \"achieved_iops\": 10, "
        "\"p99_read_lat_us\": 5, \"p99_lat_e2e_us\": 5, \"wall_ns\": 1}";
    writeFile(b, benchJson("aaaa000011112222", 100.0, 60.0, 1000, extra));
    std::ostringstream out;
    EXPECT_EQ(cli::campaignDiff(a.string(), b.string(), 5.0, out), 1);
    EXPECT_NE(out.str().find("only in"), std::string::npos);
    EXPECT_NE(out.str().find("bbbb000011112222"), std::string::npos);
}

TEST(CampaignDiff, UnreadableInputIsExitCode2)
{
    DiffTempDir dir;
    const fs::path a = dir.path() / "a.json";
    writeFile(a, benchJson("aaaa000011112222", 1.0, 1.0, 1));
    std::ostringstream out;
    EXPECT_EQ(cli::campaignDiff(a.string(),
                                (dir.path() / "missing.json").string(),
                                0.0, out),
              2);
    const fs::path empty = dir.path() / "empty.json";
    writeFile(empty, "{}\n");
    std::ostringstream out2;
    EXPECT_EQ(cli::campaignDiff(a.string(), empty.string(), 0.0, out2), 2);
}

} // namespace
} // namespace leaftl
