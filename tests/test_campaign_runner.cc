/**
 * @file
 * Tests of the fingerprinted campaign runner (cli/campaign.hh): grid
 * expansion dedupes colliding fingerprints, a campaign writes one
 * run-<fingerprint>.csv per unique run plus a BENCH_<name>.json, its
 * rows are the inline sweep's rows, and an immediate rerun is a pure
 * resume — zero re-executed runs, CSV bytes untouched. Also the
 * --campaign-diff comparator over two BENCH_<name>.json summaries.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "cli/campaign.hh"
#include "cli/sim_cli.hh"
#include "csv_test_util.hh"

namespace leaftl
{
namespace cli
{
namespace
{

namespace fs = std::filesystem;

/** A tiny 2-FTL x 2-gamma grid on the tiny device (3 unique runs). */
config::ExperimentSpec
tinySpec()
{
    config::ExperimentSpec spec;
    spec.ftls = {FtlKind::LeaFTL, FtlKind::DFTL};
    spec.workloads = {"synthetic:zipf"};
    spec.gammas = {0, 4};
    spec.devices = {"tiny"};
    spec.requests = 200;
    spec.working_set_pages = 2048;
    spec.prefill_frac = 0.25;
    spec.jobs = 2;
    return spec;
}

/** A scratch directory removed on scope exit. */
class TempDir
{
  public:
    TempDir()
    {
        char name[] = "/tmp/leaftl_campaign_XXXXXX";
        EXPECT_NE(mkdtemp(name), nullptr);
        path_ = name;
    }
    ~TempDir() { fs::remove_all(path_); }
    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

std::string
slurp(const fs::path &p)
{
    std::ifstream in(p, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

/** Contents of every run-*.csv in @a dir, keyed by file name. */
std::map<std::string, std::string>
runCsvs(const std::string &dir)
{
    std::map<std::string, std::string> out;
    for (const auto &entry : fs::directory_iterator(dir)) {
        const std::string name = entry.path().filename().string();
        if (name.rfind("run-", 0) == 0)
            out[name] = slurp(entry.path());
    }
    return out;
}

TEST(CampaignGrid, DedupesCollidingFingerprints)
{
    // 2 ftls x 2 gammas, but DFTL ignores gamma: 3 unique runs, in
    // sweep order by first appearance.
    const auto runs = expandGrid(tinySpec()).runs;
    ASSERT_EQ(runs.size(), 3u);
    EXPECT_EQ(runs[0].ftl, FtlKind::LeaFTL);
    EXPECT_EQ(runs[0].gamma, 0u);
    EXPECT_EQ(runs[1].ftl, FtlKind::LeaFTL);
    EXPECT_EQ(runs[1].gamma, 4u);
    EXPECT_EQ(runs[2].ftl, FtlKind::DFTL);
}

TEST(CampaignGrid, ClosedModeCollapsesTheRateAxis)
{
    config::ExperimentSpec spec = tinySpec();
    spec.ftls = {FtlKind::LeaFTL};
    spec.gammas = {0};
    spec.modes = {"closed", "poisson"};
    spec.rates = {25000.0, 50000.0};
    // closed ignores rate -> 1 closed + 2 poisson runs.
    const auto runs = expandGrid(spec).runs;
    ASSERT_EQ(runs.size(), 3u);
    EXPECT_EQ(runs[0].mode, "closed");
    EXPECT_EQ(runs[1].mode, "poisson");
    EXPECT_DOUBLE_EQ(runs[1].rate, 25000.0);
    EXPECT_DOUBLE_EQ(runs[2].rate, 50000.0);
}

TEST(CampaignRun, ExecutesThenResumesWithIdenticalCsvs)
{
    const TempDir dir;
    config::CampaignSpec camp;
    camp.name = "unittest";
    camp.dir = dir.path();
    camp.exp = tinySpec();

    std::ostringstream log1;
    ASSERT_EQ(runCampaign(camp, log1), 0) << log1.str();
    EXPECT_NE(log1.str().find("3 to execute"), std::string::npos)
        << log1.str();

    const auto first = runCsvs(dir.path());
    ASSERT_EQ(first.size(), 3u);
    for (const auto &[name, content] : first) {
        EXPECT_EQ(content.compare(0, csvHeader().size(), csvHeader()), 0)
            << name << " must start with the sweep CSV header";
        EXPECT_GT(std::count(content.begin(), content.end(), '\n'), 1)
            << name << " must hold a data row";
    }

    const std::string json_path =
        dir.path() + "/BENCH_" + camp.name + ".json";
    ASSERT_TRUE(fs::exists(json_path));
    const std::string json1 = slurp(json_path);
    EXPECT_NE(json1.find("\"campaign\": \"unittest\""), std::string::npos);
    EXPECT_NE(json1.find("\"runs_total\": 3"), std::string::npos) << json1;
    EXPECT_NE(json1.find("\"runs_executed\": 3"), std::string::npos);
    EXPECT_NE(json1.find("\"runs_resumed\": 0"), std::string::npos);

    // Rerun: a pure resume. No run re-executes, the CSV bytes are
    // untouched, and the summary says so.
    std::ostringstream log2;
    ASSERT_EQ(runCampaign(camp, log2), 0) << log2.str();
    EXPECT_NE(log2.str().find("0 to execute"), std::string::npos)
        << log2.str();
    EXPECT_EQ(runCsvs(dir.path()), first);

    const std::string json2 = slurp(json_path);
    EXPECT_NE(json2.find("\"runs_executed\": 0"), std::string::npos)
        << json2;
    EXPECT_NE(json2.find("\"runs_resumed\": 3"), std::string::npos);
}

TEST(CampaignRun, RowsMatchTheInlineSweep)
{
    // Each run CSV holds the sweep's row for the first combination of
    // its fingerprint (modulo wall_ns). The first grid dedupes gamma
    // on DFTL and closed mode across two rates and runs poisson; crash
    // points are spec-wide and LeaFTL-only, so they get their own grid.
    config::ExperimentSpec open_loop = tinySpec();
    open_loop.modes = {"closed", "poisson"};
    open_loop.rates = {20000.0, 40000.0};
    config::ExperimentSpec crash = tinySpec();
    crash.ftls = {FtlKind::LeaFTL};
    crash.crash_points = {50, 120};

    for (const config::ExperimentSpec &spec : {open_loop, crash}) {
        const SweepGrid grid = expandGrid(spec);
        std::ostringstream sweep;
        ASSERT_EQ(runSweep(spec, sweep), 0);
        std::istringstream lines(test::stripWallNs(sweep.str()));
        std::string header, line;
        ASSERT_TRUE(std::getline(lines, header));
        std::vector<std::string> first_rows;
        std::vector<uint8_t> seen(grid.runs.size(), 0);
        for (const size_t run : grid.run_of) {
            ASSERT_TRUE(std::getline(lines, line));
            if (!seen[run]) {
                seen[run] = 1;
                first_rows.push_back(line);
            }
        }
        EXPECT_FALSE(std::getline(lines, line)) << "extra sweep row";
        ASSERT_EQ(first_rows.size(), grid.runs.size());

        const TempDir dir;
        config::CampaignSpec camp;
        camp.name = "rows";
        camp.dir = dir.path();
        camp.exp = spec;
        std::ostringstream log;
        ASSERT_EQ(runCampaign(camp, log), 0) << log.str();
        for (size_t i = 0; i < grid.runs.size(); i++) {
            const std::string csv = slurp(
                dir.path() + "/run-" + grid.fingerprints[i] + ".csv");
            EXPECT_EQ(test::stripWallNs(csv),
                      header + "\n" + first_rows[i] + "\n")
                << "run " << grid.fingerprints[i];
        }
    }
    EXPECT_EQ(expandGrid(open_loop).points.size(), 16u);
    EXPECT_EQ(expandGrid(open_loop).runs.size(), 9u);
}

TEST(CampaignRun, HalfWrittenCsvDoesNotCountAsDone)
{
    const TempDir dir;
    config::CampaignSpec camp;
    camp.name = "partial";
    camp.dir = dir.path();
    camp.exp = tinySpec();
    camp.exp.ftls = {FtlKind::DFTL};
    camp.exp.gammas = {0};

    const auto runs = expandGrid(camp.exp).runs;
    ASSERT_EQ(runs.size(), 1u);
    const std::string fp = config::runFingerprint(camp.exp, runs[0]);

    // A header-only file (e.g. a crash between write and rename could
    // never produce this, but a stale partial from another tool can)
    // must be re-executed, not trusted.
    {
        std::ofstream out(dir.path() + "/run-" + fp + ".csv");
        out << csvHeader() << "\n";
    }
    std::ostringstream log;
    ASSERT_EQ(runCampaign(camp, log), 0) << log.str();
    EXPECT_NE(log.str().find("1 to execute"), std::string::npos)
        << log.str();
}

TEST(CampaignRun, CrashAtOnFtlWithoutRecoveryIsRejectedUpFront)
{
    // The grid crosses every FTL with the shared crash schedule, so a
    // DFTL point would be a silent no-op recovery: exit 2 before any
    // run CSV or summary exists.
    const TempDir dir;
    config::CampaignSpec camp;
    camp.name = "crash";
    camp.dir = dir.path() + "/out";
    camp.exp = tinySpec(); // LeaFTL + DFTL.
    camp.exp.crash_points = {50};

    testing::internal::CaptureStderr();
    std::ostringstream log;
    EXPECT_EQ(runCampaign(camp, log), 2);
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("DFTL"), std::string::npos) << err;
    EXPECT_FALSE(fs::exists(camp.dir));

    // The same rejection through the CLI: a campaign file plus a
    // --set override that adds the crash schedule.
    const std::string conf = dir.path() + "/crash.conf";
    {
        std::ofstream out(conf);
        out << "[experiment]\nftl = leaftl,sftl\ndevice = tiny\n"
               "ws = 2048\nrequests = 200\n\n[campaign]\nname = crash\n";
    }
    const std::string campaign_dir = dir.path() + "/cli";
    const char *argv[] = {"leaftl_sim",       "--campaign",
                          conf.c_str(),       "--campaign-dir",
                          campaign_dir.c_str(), "--set",
                          "crash-at=20"};
    testing::internal::CaptureStderr();
    EXPECT_EQ(simMain(7, argv), 2);
    const std::string cli_err = testing::internal::GetCapturedStderr();
    EXPECT_NE(cli_err.find("SFTL"), std::string::npos) << cli_err;
    EXPECT_FALSE(fs::exists(campaign_dir));

    // LeaFTL-only campaigns keep their crash schedule.
    camp.exp.ftls = {FtlKind::LeaFTL};
    std::string check_err;
    EXPECT_TRUE(config::checkCrashSupport(camp.exp, check_err)) << check_err;
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
} // namespace cli
} // namespace leaftl
