/**
 * @file
 * Tests of the fingerprinted campaign runner (cli/campaign.hh): grid
 * expansion dedupes colliding fingerprints, a campaign writes one
 * run-<fingerprint>.csv per unique run plus a BENCH_<name>.json, and
 * an immediate rerun is a pure resume — zero re-executed runs, CSV
 * bytes untouched.
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
    const auto runs = expandCampaignGrid(tinySpec());
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
    const auto runs = expandCampaignGrid(spec);
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

TEST(CampaignRun, HalfWrittenCsvDoesNotCountAsDone)
{
    const TempDir dir;
    config::CampaignSpec camp;
    camp.name = "partial";
    camp.dir = dir.path();
    camp.exp = tinySpec();
    camp.exp.ftls = {FtlKind::DFTL};
    camp.exp.gammas = {0};

    const auto runs = expandCampaignGrid(camp.exp);
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

} // namespace
} // namespace cli
} // namespace leaftl
