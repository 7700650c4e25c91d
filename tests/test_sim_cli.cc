/**
 * @file
 * In-process tests of the leaftl_sim CLI layer: argument parsing,
 * workload spec resolution, and a tiny end-to-end sweep asserting one
 * CSV row per (ftl, workload, gamma) combination.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>

#include "cli/sim_cli.hh"
#include "csv_test_util.hh"
#include "experiment_key_samples.hh"
#include "temp_config.hh"

namespace leaftl
{
namespace cli
{
namespace
{

using test::columnPrefix;
using test::stripWallNs;

/** parseArgs over @a args, asserting success. */
SimOptions
parseVec(const std::vector<std::string> &args)
{
    std::vector<const char *> argv = {"leaftl_sim"};
    for (const std::string &a : args)
        argv.push_back(a.c_str());
    SimOptions opts;
    std::string err;
    EXPECT_TRUE(
        parseArgs(static_cast<int>(argv.size()), argv.data(), opts, err))
        << err;
    return opts;
}

SimOptions
parse(std::initializer_list<const char *> args)
{
    return parseVec(std::vector<std::string>(args.begin(), args.end()));
}

TEST(SimCliParse, Defaults)
{
    const SimOptions opts = parse({});
    ASSERT_EQ(opts.ftls.size(), 1u);
    EXPECT_EQ(static_cast<int>(opts.ftls[0]),
              static_cast<int>(FtlKind::LeaFTL));
    ASSERT_EQ(opts.workloads.size(), 1u);
    EXPECT_EQ(opts.workloads[0], "synthetic:zipf");
    ASSERT_EQ(opts.gammas.size(), 1u);
    EXPECT_EQ(opts.gammas[0], 0u);
    ASSERT_EQ(opts.queue_depths.size(), 1u);
    EXPECT_EQ(opts.queue_depths[0], 1u);
    EXPECT_EQ(opts.jobs, 0u); // 0 = hardware concurrency.
    EXPECT_FALSE(opts.help);
    EXPECT_FALSE(opts.list);
}

TEST(SimCliParse, QueueDepthAndJobs)
{
    const SimOptions opts =
        parse({"--qd", "1,2,8", "--jobs=3", "--interarrival=2.5"});
    EXPECT_EQ(opts.queue_depths, (std::vector<uint32_t>{1, 2, 8}));
    EXPECT_EQ(opts.jobs, 3u);
    EXPECT_DOUBLE_EQ(opts.interarrival_us, 2.5);

    SimOptions bad;
    std::string err;
    {
        const char *argv[] = {"leaftl_sim", "--qd", "0"};
        EXPECT_FALSE(parseArgs(3, argv, bad, err));
        EXPECT_NE(err.find("queue depth"), std::string::npos);
    }
    {
        const char *argv[] = {"leaftl_sim", "--jobs", "0"};
        EXPECT_FALSE(parseArgs(3, argv, bad, err));
    }
}

TEST(SimCliParse, DeviceAxis)
{
    const SimOptions defaults = parse({});
    EXPECT_EQ(defaults.devices, (std::vector<std::string>{"auto"}));

    const SimOptions opts = parse({"--device", "auto,tiny,paper-2tb"});
    EXPECT_EQ(opts.devices,
              (std::vector<std::string>{"auto", "tiny", "paper-2tb"}));

    SimOptions bad;
    std::string err;
    {
        const char *argv[] = {"leaftl_sim", "--device", "paper-4tb"};
        EXPECT_FALSE(parseArgs(3, argv, bad, err));
        EXPECT_NE(err.find("paper-4tb"), std::string::npos);
    }
}

TEST(SimCliConfig, DevicePresetOverridesDerivedGeometry)
{
    SimOptions opts;
    opts.working_set_pages = 2048;

    const SsdConfig derived = makeConfig(FtlKind::LeaFTL, 0, opts, "auto");
    const SsdConfig tiny = makeConfig(FtlKind::LeaFTL, 0, opts, "tiny");
    EXPECT_EQ(tiny.geometry.num_channels, 4u);
    EXPECT_EQ(tiny.geometry.pages_per_block, 64u);
    EXPECT_NE(tiny.geometry.totalPages(), derived.geometry.totalPages());

    // --dram-mb still overrides the preset's recommended budget.
    opts.dram_bytes = 32ull << 20;
    const SsdConfig forced = makeConfig(FtlKind::LeaFTL, 0, opts, "tiny");
    EXPECT_EQ(forced.dram_bytes, 32ull << 20);
}

TEST(SimCliParse, ListsAndEqualsSyntax)
{
    const SimOptions opts =
        parse({"--ftl=leaftl,dftl,sftl", "--gamma", "0,1,4,16",
               "--workload", "synthetic:seq,msr:MSR-src2", "--requests=500",
               "--ws", "4096", "--prefill=0.5", "--seed=7"});
    EXPECT_EQ(opts.ftls.size(), 3u);
    EXPECT_EQ(opts.gammas, (std::vector<uint32_t>{0, 1, 4, 16}));
    EXPECT_EQ(opts.workloads,
              (std::vector<std::string>{"synthetic:seq", "msr:MSR-src2"}));
    EXPECT_EQ(opts.requests, 500u);
    EXPECT_EQ(opts.working_set_pages, 4096u);
    EXPECT_DOUBLE_EQ(opts.prefill_frac, 0.5);
    EXPECT_EQ(opts.seed, 7u);
}

TEST(SimCliParse, RejectsBadInput)
{
    SimOptions opts;
    std::string err;
    {
        const char *argv[] = {"leaftl_sim", "--ftl", "nftl"};
        EXPECT_FALSE(parseArgs(3, argv, opts, err));
        EXPECT_NE(err.find("nftl"), std::string::npos);
    }
    {
        const char *argv[] = {"leaftl_sim", "--gamma", "abc"};
        EXPECT_FALSE(parseArgs(3, argv, opts, err));
    }
    {
        const char *argv[] = {"leaftl_sim", "--bogus"};
        EXPECT_FALSE(parseArgs(2, argv, opts, err));
    }
    {
        const char *argv[] = {"leaftl_sim", "--requests"};
        EXPECT_FALSE(parseArgs(2, argv, opts, err));
    }
}

TEST(SimCliParse, ThreadsIsAnUnknownKeyAndFingerprintsStay)
{
    // There is no intra-run worker pool: the threads key fails like
    // any unknown key in a config file, and the --threads flag is an
    // unknown argument.
    SimOptions opts;
    std::string err;
    {
        const test::TempConfig conf("threads = 2\n");
        const char *argv[] = {"leaftl_sim", "--config", conf.path().c_str()};
        EXPECT_FALSE(parseArgs(3, argv, opts, err));
        EXPECT_NE(err.find("unknown key 'threads'"), std::string::npos)
            << err;
    }
    {
        const char *argv[] = {"leaftl_sim", "--threads", "2"};
        EXPECT_FALSE(parseArgs(3, argv, opts, err));
        EXPECT_NE(err.find("unknown argument '--threads'"),
                  std::string::npos)
            << err;
    }

    // The key never entered a run fingerprint, so campaign resume is
    // unaffected: these values were pinned while it still existed. The
    // second spec is the first layout of
    // Fingerprint.StableAcrossConfigFileKeyOrder.
    config::RunPoint p;
    p.ftl = FtlKind::LeaFTL;
    p.workload = "synthetic:zipf";
    p.gamma = 4;
    p.qd = 4;
    p.device = "tiny";
    p.mode = "closed";
    EXPECT_EQ(config::runFingerprint(parse({}), p), "55df68e2c53b59eb");
    EXPECT_EQ(config::runFingerprint(parse({"--ws", "4096", "--device", "tiny",
                                            "--requests", "1000", "--seed",
                                            "7"}),
                                     p),
              "cf196a066c1af262");
}

TEST(SimCliParse, EveryKeyIsAFlagAndAConfigLine)
{
    const std::string help = usage();
    for (const std::string &key : config::knownExperimentKeys()) {
        const auto it = test::experimentKeySamples().find(key);
        ASSERT_NE(it, test::experimentKeySamples().end())
            << "no sample value for key '" << key << "'";
        const std::string &v = it->second;
        const config::ExperimentSpec spaced = parseVec({"--" + key, v});
        EXPECT_NE(spaced, config::ExperimentSpec()) << key;
        EXPECT_EQ(config::ExperimentSpec(parseVec({"--" + key + "=" + v})),
                  spaced)
            << key;
        const test::TempConfig conf(key + " = " + v + "\n");
        EXPECT_EQ(config::ExperimentSpec(parseVec({"--config", conf.path()})),
                  spaced)
            << key;
        EXPECT_NE(help.find("\n  --" + key + " "), std::string::npos)
            << "usage() does not name --" << key;
    }

    // A key with a bare form: a following flag is not its value.
    const SimOptions bare = parse({"--trace-strict", "--seed", "3"});
    EXPECT_TRUE(bare.trace_strict);
    EXPECT_EQ(bare.seed, 3u);
    EXPECT_TRUE(parse({"--trace-strict"}).trace_strict);
    EXPECT_FALSE(
        parse({"--trace-strict", "--trace-strict=false"}).trace_strict);
}

TEST(SimCliParse, SetAndCampaignAreUnknownArguments)
{
    // A key is set by its own flag, and a campaign is a sweep with
    // --campaign-dir: neither has a second spelling.
    for (const char *flag : {"--set", "--campaign"}) {
        const char *argv[] = {"leaftl_sim", flag, "gamma=4"};
        SimOptions opts;
        std::string err;
        EXPECT_FALSE(parseArgs(3, argv, opts, err)) << flag;
        EXPECT_NE(err.find(std::string("unknown argument '") + flag + "'"),
                  std::string::npos)
            << err;
    }
}

TEST(SimCliParse, DiffThresholdMustBeAFiniteNumber)
{
    EXPECT_DOUBLE_EQ(parse({"--diff-threshold", "5"}).diff_threshold, 5.0);
    for (const char *v : {"5abc", "nan", "inf", ""}) {
        const char *argv[] = {"leaftl_sim", "--diff-threshold", v, "--help"};
        SimOptions opts;
        std::string err;
        EXPECT_FALSE(parseArgs(4, argv, opts, err)) << v;
        EXPECT_EQ(err, std::string("bad --diff-threshold '") + v + "'");
    }
}

TEST(SweepWorkers, AutoExplicitNeverZeroAndCappedAtRunCount)
{
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    EXPECT_EQ(sweepWorkers(0, 1000), std::min(hw, 1000u)); // Auto.
    EXPECT_EQ(sweepWorkers(3, 1000), 3u);
    EXPECT_EQ(sweepWorkers(512, 1000), 512u); // May oversubscribe.
    EXPECT_EQ(sweepWorkers(8, 5), 5u);        // One worker per run.
    EXPECT_EQ(sweepWorkers(0, 1), 1u);
    EXPECT_EQ(sweepWorkers(0, 0), 1u); // Never zero.
    EXPECT_EQ(sweepWorkers(4, 0), 1u);
}

/** Run simMain on @a args; @return its exit code, stderr in @a err. */
int
runMain(std::initializer_list<const char *> args, std::string &err)
{
    std::vector<const char *> argv = {"leaftl_sim"};
    argv.insert(argv.end(), args.begin(), args.end());
    testing::internal::CaptureStderr();
    const int rc = simMain(static_cast<int>(argv.size()), argv.data());
    err = testing::internal::GetCapturedStderr();
    return rc;
}

TEST(SimCliParse, CampaignDiffRejectsOutputAndCampaignDir)
{
    // --campaign-diff prints a report comparing two existing campaigns;
    // it writes no CSV and runs no campaign, so either flag beside it
    // would be a silent no-op.
    const char *dir = LEAFTL_SOURCE_DIR "/tests/data/campaign_tiny";
    const std::string tag = std::to_string(::getpid());
    const std::string out = "/tmp/leaftl_sim_cli_diff." + tag + ".csv";
    const std::string campaign = "/tmp/leaftl_sim_cli_diff." + tag;
    std::string err;
    EXPECT_EQ(runMain({"--campaign-diff", dir, dir, "--output", out.c_str()},
                      err),
              2);
    EXPECT_NE(err.find("--campaign-diff excludes --output"),
              std::string::npos)
        << err;
    EXPECT_FALSE(std::ifstream(out).good());
    EXPECT_EQ(runMain({"--campaign-dir", campaign.c_str(), "--campaign-diff",
                       dir, dir},
                      err),
              2);
    EXPECT_NE(err.find("--campaign-diff excludes"), std::string::npos)
        << err;
    EXPECT_FALSE(std::ifstream(campaign).good());
}

TEST(SimCliCrashAt, RejectsFtlWithoutRecoveryModelBeforeRunning)
{
    // Only LeaFTL models crash recovery; on DFTL/SFTL a crash point
    // would be a silent no-op counted as a recovery. Flags (in either
    // order, value inline or not) and --config files all reject it with
    // exit 2 and an error naming the FTL, before any run writes output.
    const std::string tag = std::to_string(::getpid());
    const std::string out = "/tmp/leaftl_sim_cli_crash." + tag + ".csv";
    const test::TempConfig conf("ftl = sftl\ncrash-at = 5\n");
    std::string err;
    EXPECT_EQ(runMain({"--ftl", "leaftl,dftl", "--crash-at", "10",
                       "--requests", "100", "--output", out.c_str()},
                      err),
              2);
    EXPECT_NE(err.find("DFTL"), std::string::npos) << err;
    EXPECT_EQ(runMain({"--crash-at", "10", "--ftl", "sftl", "--output",
                       out.c_str()},
                      err),
              2);
    EXPECT_NE(err.find("SFTL"), std::string::npos) << err;
    EXPECT_EQ(runMain({"--ftl", "dftl", "--crash-at=3", "--output",
                       out.c_str()},
                      err),
              2);
    EXPECT_NE(err.find("DFTL"), std::string::npos) << err;
    EXPECT_EQ(runMain({"--config", conf.path().c_str(), "--output",
                       out.c_str()},
                      err),
              2);
    EXPECT_NE(err.find("SFTL"), std::string::npos) << err;
    EXPECT_FALSE(std::ifstream(out).good()) << "a rejected sweep ran";

    // runSweep itself validates too: a direct call exits 2 and writes
    // nothing instead of draining DFTL at each crash point.
    SimOptions direct;
    direct.ftls = {FtlKind::DFTL};
    direct.crash_points = {10};
    direct.requests = 100;
    std::ostringstream csv;
    testing::internal::CaptureStderr();
    EXPECT_EQ(runSweep(direct, csv), 2);
    err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("DFTL"), std::string::npos) << err;
    EXPECT_TRUE(csv.str().empty()) << csv.str();

    // LeaFTL alone, or any FTL without crash points, stays runnable.
    SimOptions opts = parse({"--ftl", "leaftl", "--crash-at", "10"});
    EXPECT_TRUE(config::checkCrashSupport(opts, err)) << err;
    opts = parse({"--ftl", "leaftl,dftl,sftl"});
    EXPECT_TRUE(config::checkCrashSupport(opts, err)) << err;
}

TEST(SimCliWorkloads, ResolvesEveryKnownFamily)
{
    SimOptions opts;
    opts.requests = 100;
    opts.working_set_pages = 2048;
    std::string err;

    for (const char *spec :
         {"synthetic:seq", "synthetic:rand", "synthetic:zipf",
          "synthetic:stride", "synthetic:log", "synthetic:mix",
          "msr:MSR-src2", "app:TPCC", "MSR-prxy", "SEATS"}) {
        auto wl = makeWorkload(spec, opts, err);
        ASSERT_NE(wl, nullptr) << spec << ": " << err;
        IoRequest req;
        EXPECT_TRUE(wl->next(req)) << spec;
    }

    EXPECT_EQ(makeWorkload("synthetic:nope", opts, err), nullptr);
    EXPECT_EQ(makeWorkload("trace:/no/such/file.csv", opts, err), nullptr);
    EXPECT_EQ(makeWorkload("gibberish", opts, err), nullptr);
}

TEST(SimCliWorkloads, TraceCacheSharesOneParse)
{
    // Per-process path: the normal and sanitize trees may run ctest
    // concurrently on one machine.
    const std::string path = "/tmp/leaftl_sim_cli_trace." +
                             std::to_string(::getpid()) + ".csv";
    {
        std::ofstream out(path);
        out << "128166372003061629,hm,0,Read,8192,8192,151\n";
        out << "128166372016382155,hm,0,Write,12288,4096,388\n";
    }

    SimOptions opts;
    opts.working_set_pages = 2048;
    std::string err;
    TraceCache cache;
    const std::string spec = "trace:" + path;

    auto first = makeWorkload(spec, opts, err, &cache);
    ASSERT_NE(first, nullptr) << err;
    ASSERT_EQ(cache.size(), 1u);

    // A cache hit must not re-read the file: delete it, then build
    // another source from the same spec and replay both fully.
    std::remove(path.c_str());
    auto second = makeWorkload(spec, opts, err, &cache);
    ASSERT_NE(second, nullptr) << err;

    IoRequest a, b;
    size_t n = 0;
    while (first->next(a)) {
        ASSERT_TRUE(second->next(b));
        EXPECT_EQ(a.lpa, b.lpa);
        EXPECT_EQ(static_cast<int>(a.op), static_cast<int>(b.op));
        n++;
    }
    EXPECT_FALSE(second->next(b));
    EXPECT_EQ(n, 2u);
}

TEST(SimCliSweep, OneCsvRowPerCombination)
{
    SimOptions opts;
    opts.ftls = {FtlKind::LeaFTL, FtlKind::DFTL};
    opts.workloads = {"synthetic:seq"};
    opts.gammas = {0, 4};
    opts.requests = 300;
    opts.working_set_pages = 2048;
    opts.prefill_frac = 0.25;

    std::ostringstream out;
    ASSERT_EQ(runSweep(opts, out), 0);

    std::istringstream lines(out.str());
    std::string line;
    ASSERT_TRUE(std::getline(lines, line));
    EXPECT_EQ(line, csvHeader());
    EXPECT_EQ(line.substr(0, 22), "ftl,workload,gamma,qd,");

    size_t rows = 0;
    while (std::getline(lines, line)) {
        EXPECT_NE(line.find("synthetic:seq"), std::string::npos);
        rows++;
    }
    // 2 ftls x 1 workload x 2 gammas.
    EXPECT_EQ(rows, 4u);
}

TEST(SimCliSweep, QueueDepthAxisEmitsOneRowEach)
{
    SimOptions opts;
    opts.ftls = {FtlKind::LeaFTL};
    opts.workloads = {"synthetic:seq"};
    opts.gammas = {0};
    opts.queue_depths = {1, 4};
    opts.requests = 300;
    opts.working_set_pages = 2048;
    opts.prefill_frac = 0.25;
    opts.jobs = 1;

    std::ostringstream out;
    ASSERT_EQ(runSweep(opts, out), 0);

    // One row per qd, qd echoed in column 4 (0-based 3).
    std::istringstream lines(out.str());
    std::string line;
    std::getline(lines, line); // header
    std::vector<std::string> qds;
    while (std::getline(lines, line)) {
        std::istringstream cells(line);
        std::string cell;
        for (int c = 0; c <= 3; c++)
            std::getline(cells, cell, ',');
        qds.push_back(cell);
    }
    EXPECT_EQ(qds, (std::vector<std::string>{"1", "4"}));
}

TEST(SimCliSweep, DeviceAxisEmitsOneRowEachWithTrailingColumn)
{
    SimOptions opts;
    opts.ftls = {FtlKind::LeaFTL};
    opts.workloads = {"synthetic:seq"};
    opts.gammas = {0};
    opts.devices = {"auto", "tiny"};
    opts.requests = 300;
    opts.working_set_pages = 2048;
    opts.prefill_frac = 0.25;
    opts.jobs = 1;

    std::ostringstream out;
    ASSERT_EQ(runSweep(opts, out), 0);

    std::istringstream lines(out.str());
    std::string line;
    ASSERT_TRUE(std::getline(lines, line));
    // New columns are appended after device so pre-existing column
    // indices hold; wall_ns (host time, nondeterministic) stays
    // trailing so stripping one column recovers a reproducible row.
    EXPECT_NE(line.find(",device,mode,"), std::string::npos);
    ASSERT_GE(line.size(), 8u);
    EXPECT_EQ(line.substr(line.size() - 8), ",wall_ns");

    std::vector<std::string> devices;
    while (std::getline(lines, line)) {
        const auto wall_comma = line.rfind(',');
        ASSERT_NE(wall_comma, std::string::npos);
        const std::string wall = line.substr(wall_comma + 1);
        EXPECT_FALSE(wall.empty());
        EXPECT_GT(std::stoull(wall), 0u) << line;
        // device is column 21 (0-based), right before mode.
        std::istringstream cells(line);
        std::string cell;
        for (int c = 0; c <= 21; c++)
            std::getline(cells, cell, ',');
        devices.push_back(cell);
    }
    EXPECT_EQ(devices, (std::vector<std::string>{"auto", "tiny"}));
}

TEST(SimCliSweep, ParallelJobsProduceIdenticalCsv)
{
    SimOptions opts;
    opts.ftls = {FtlKind::LeaFTL, FtlKind::DFTL};
    opts.workloads = {"synthetic:seq"};
    opts.gammas = {0, 4};
    opts.queue_depths = {1, 4};
    opts.requests = 300;
    opts.working_set_pages = 2048;
    opts.prefill_frac = 0.25;

    opts.jobs = 1;
    std::ostringstream serial;
    ASSERT_EQ(runSweep(opts, serial), 0);

    opts.jobs = 4;
    std::ostringstream parallel;
    ASSERT_EQ(runSweep(opts, parallel), 0);

    // Rows are emitted in combination order regardless of job count,
    // so modulo the trailing host wall-clock column the CSV must be
    // byte-identical.
    EXPECT_EQ(stripWallNs(serial.str()), stripWallNs(parallel.str()));

    // 2 ftls x 1 workload x 2 gammas x 2 qds = 8 rows + header.
    size_t lines = 0;
    std::istringstream in(serial.str());
    std::string line;
    while (std::getline(in, line))
        lines++;
    EXPECT_EQ(lines, 9u);
}

TEST(SimCliParse, ModeAndRateAxes)
{
    const SimOptions defaults = parse({});
    EXPECT_EQ(defaults.modes, (std::vector<std::string>{"closed"}));
    EXPECT_EQ(defaults.rates, (std::vector<double>{0.0}));

    const SimOptions opts = parse({"--mode", "closed,fixed,poisson",
                                   "--rate", "50000,100000",
                                   "--burst-duty=0.5", "--trace-strict"});
    EXPECT_EQ(opts.modes,
              (std::vector<std::string>{"closed", "fixed", "poisson"}));
    EXPECT_EQ(opts.rates, (std::vector<double>{50000.0, 100000.0}));
    EXPECT_DOUBLE_EQ(opts.burst_duty, 0.5);
    EXPECT_TRUE(opts.trace_strict);

    SimOptions bad;
    std::string err;
    {
        const char *argv[] = {"leaftl_sim", "--mode", "turbo"};
        EXPECT_FALSE(parseArgs(3, argv, bad, err));
        EXPECT_NE(err.find("turbo"), std::string::npos);
    }
    {
        const char *argv[] = {"leaftl_sim", "--rate", "-5"};
        EXPECT_FALSE(parseArgs(3, argv, bad, err));
    }
    {
        const char *argv[] = {"leaftl_sim", "--burst-duty", "1.5"};
        EXPECT_FALSE(parseArgs(3, argv, bad, err));
    }
}

TEST(SimCliSweep, RateDrivenModeRequiresRate)
{
    SimOptions opts;
    opts.workloads = {"synthetic:seq"};
    opts.modes = {"fixed"};
    opts.requests = 100;
    opts.working_set_pages = 2048;

    std::ostringstream out;
    EXPECT_EQ(runSweep(opts, out), 1); // Default rate 0 is rejected.
}

TEST(SimCliCsv, ColumnTableDefinesTheHeader)
{
    const std::vector<CsvColumn> &columns = csvColumns();
    ASSERT_FALSE(columns.empty());
    std::set<std::string> names;
    std::string joined;
    for (const CsvColumn &col : columns) {
        EXPECT_TRUE(names.insert(col.name).second)
            << "duplicate column " << col.name;
        if (!joined.empty())
            joined += ',';
        joined += col.name;
    }
    EXPECT_EQ(std::string(columns.back().name), "wall_ns");
    EXPECT_EQ(csvColumnIndex("wall_ns"), columns.size() - 1);
    EXPECT_EQ(csvHeader(), joined);
}

/**
 * The frozen pre-open-loop column prefix: every historical consumer
 * parses these 22 columns by position, so their names and order are
 * load-bearing. The open-loop columns live between device and wall_ns.
 */
constexpr const char *kFrozenPrefix =
    "ftl,workload,gamma,qd,requests,pages,sim_seconds,throughput_mbps,"
    "avg_lat_us,avg_read_lat_us,p50_read_lat_us,p99_read_lat_us,"
    "avg_write_lat_us,mapping_bytes,resident_bytes,waf,mispredict_ratio,"
    "cache_hit_ratio,avg_lookup_levels,avg_queue_wait_us,mean_inflight,"
    "device";

TEST(SimCliSweep, ClosedModeKeepsHistoricalColumnsInvariant)
{
    EXPECT_EQ(csvHeader().substr(0, std::string(kFrozenPrefix).size()),
              kFrozenPrefix);

    // The same closed-loop run must fill the historical columns
    // identically whether or not the sweep also exercises the new
    // mode/rate axes.
    SimOptions opts;
    opts.ftls = {FtlKind::LeaFTL};
    opts.workloads = {"synthetic:seq"};
    opts.requests = 300;
    opts.working_set_pages = 2048;
    opts.prefill_frac = 0.25;
    opts.jobs = 1;

    std::ostringstream plain;
    ASSERT_EQ(runSweep(opts, plain), 0);

    opts.modes = {"closed", "fixed"};
    opts.rates = {20000.0};
    std::ostringstream mixed;
    ASSERT_EQ(runSweep(opts, mixed), 0);

    // Extract the closed row of the mixed sweep (row order: closed
    // then fixed) and compare the frozen prefix.
    std::istringstream mixed_in(mixed.str());
    std::string header, closed_row;
    ASSERT_TRUE(std::getline(mixed_in, header));
    ASSERT_TRUE(std::getline(mixed_in, closed_row));
    std::istringstream plain_in(plain.str());
    std::string plain_header, plain_row;
    ASSERT_TRUE(std::getline(plain_in, plain_header));
    ASSERT_TRUE(std::getline(plain_in, plain_row));

    EXPECT_EQ(columnPrefix(closed_row, 22), columnPrefix(plain_row, 22));
    EXPECT_NE(closed_row.find(",closed,"), std::string::npos);
}

TEST(SimCliSweep, OpenModesEmitRowsAndDedupeClosedAcrossRates)
{
    SimOptions opts;
    opts.ftls = {FtlKind::LeaFTL};
    opts.workloads = {"synthetic:rand"};
    opts.modes = {"closed", "poisson"};
    opts.rates = {20000.0, 40000.0};
    opts.requests = 400;
    opts.working_set_pages = 2048;
    opts.prefill_frac = 0.25;
    opts.jobs = 1;

    std::ostringstream out;
    ASSERT_EQ(runSweep(opts, out), 0);

    // 1 ftl x 1 workload x 2 modes x 2 rates = 4 rows; the two closed
    // rows reuse one simulation and differ only in the echoed rate.
    std::istringstream lines(out.str());
    std::string line;
    std::getline(lines, line); // header
    std::vector<std::string> modes;
    std::vector<std::string> rates;
    std::vector<std::string> p99s;
    while (std::getline(lines, line)) {
        std::istringstream cells(line);
        std::string cell;
        std::vector<std::string> row;
        while (std::getline(cells, cell, ','))
            row.push_back(cell);
        ASSERT_GE(row.size(), 33u);
        modes.push_back(row[22]);
        rates.push_back(row[23]);
        p99s.push_back(row[28]);
    }
    EXPECT_EQ(modes, (std::vector<std::string>{"closed", "closed",
                                               "poisson", "poisson"}));
    // Closed ignores the rate axis (echoes 0); poisson echoes its rate.
    EXPECT_EQ(rates[0], "0.0000");
    EXPECT_EQ(rates[1], "0.0000");
    EXPECT_EQ(rates[2], "20000.0000");
    EXPECT_EQ(rates[3], "40000.0000");
    // Deduplicated closed rows share one simulation bit-for-bit.
    EXPECT_EQ(p99s[0], p99s[1]);
    // Every row carries a parsable p99.
    for (const auto &p : p99s)
        EXPECT_GT(std::stod(p), 0.0);
}

TEST(SimCliSweep, GammaShrinksLeaFtlMapping)
{
    SimOptions opts;
    opts.ftls = {FtlKind::LeaFTL};
    opts.workloads = {"synthetic:rand"};
    opts.gammas = {0, 16};
    opts.requests = 2000;
    opts.working_set_pages = 4096;
    opts.prefill_frac = 0.5;

    std::ostringstream out;
    ASSERT_EQ(runSweep(opts, out), 0);

    // Parse mapping_bytes (column 14, 0-based 13) of both data rows.
    std::istringstream lines(out.str());
    std::string line;
    std::getline(lines, line); // header
    std::vector<uint64_t> mapping;
    while (std::getline(lines, line)) {
        std::istringstream cells(line);
        std::string cell;
        for (int c = 0; c <= 13; c++)
            std::getline(cells, cell, ',');
        mapping.push_back(std::stoull(cell));
    }
    ASSERT_EQ(mapping.size(), 2u);
    EXPECT_LT(mapping[1], mapping[0])
        << "gamma=16 should compress the learned table vs gamma=0";
}

} // namespace
} // namespace cli
} // namespace leaftl
