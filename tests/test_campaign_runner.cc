/**
 * @file
 * Tests of the fingerprinted campaign runner (cli/campaign.hh): grid
 * expansion dedupes colliding fingerprints, a campaign writes one
 * run-<fingerprint>.csv per unique run and nothing else, its rows are
 * the inline sweep's rows, every flag reaches its runs, and an
 * immediate rerun is a pure resume — zero re-executed runs, CSV bytes
 * untouched. Also the --campaign-diff comparator over two campaign
 * directories.
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

constexpr const char *kTinyConf =
    LEAFTL_SOURCE_DIR "/configs/campaign_tiny.conf";
/** The run CSVs of kTinyConf, checked in as the CI diff baseline. */
constexpr const char *kBaselineDir =
    LEAFTL_SOURCE_DIR "/tests/data/campaign_tiny";

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

/** What @a body writes to stdout. */
template <typename Fn>
std::string
captureStdout(Fn body)
{
    testing::internal::CaptureStdout();
    body();
    return testing::internal::GetCapturedStdout();
}

std::vector<std::string>
splitCells(const std::string &line)
{
    std::vector<std::string> cells;
    std::istringstream in(line);
    for (std::string cell; std::getline(in, cell, ',');)
        cells.push_back(cell);
    return cells;
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
    std::ostringstream log1;
    ASSERT_EQ(runCampaign(tinySpec(), dir.path(), log1), 0) << log1.str();
    EXPECT_NE(log1.str().find("3 to execute"), std::string::npos)
        << log1.str();

    // The run CSVs are the campaign's whole output.
    const auto first = runCsvs(dir.path());
    ASSERT_EQ(first.size(), 3u);
    EXPECT_EQ(std::distance(fs::directory_iterator(dir.path()),
                            fs::directory_iterator()),
              3);
    for (const auto &[name, content] : first) {
        EXPECT_EQ(content.compare(0, csvHeader().size(), csvHeader()), 0)
            << name << " must start with the sweep CSV header";
        EXPECT_GT(std::count(content.begin(), content.end(), '\n'), 1)
            << name << " must hold a data row";
    }

    // Rerun: a pure resume. No run re-executes and the CSV bytes are
    // untouched.
    std::ostringstream log2;
    ASSERT_EQ(runCampaign(tinySpec(), dir.path(), log2), 0) << log2.str();
    EXPECT_NE(log2.str().find("0 to execute"), std::string::npos)
        << log2.str();
    EXPECT_NE(log2.str().find("0 executed, 3 resumed"), std::string::npos)
        << log2.str();
    EXPECT_EQ(runCsvs(dir.path()), first);
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
        std::ostringstream log;
        ASSERT_EQ(runCampaign(spec, dir.path(), log), 0) << log.str();
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
    config::ExperimentSpec spec = tinySpec();
    spec.ftls = {FtlKind::DFTL};
    spec.gammas = {0};

    const auto runs = expandGrid(spec).runs;
    ASSERT_EQ(runs.size(), 1u);
    const std::string fp = config::runFingerprint(spec, runs[0]);

    // A header-only file (e.g. a crash between write and rename could
    // never produce this, but a stale partial from another tool can)
    // must be re-executed, not trusted.
    {
        std::ofstream out(dir.path() + "/run-" + fp + ".csv");
        out << csvHeader() << "\n";
    }
    std::ostringstream log;
    ASSERT_EQ(runCampaign(spec, dir.path(), log), 0) << log.str();
    EXPECT_NE(log.str().find("1 to execute"), std::string::npos)
        << log.str();
}

TEST(CampaignRun, CrashAtOnFtlWithoutRecoveryIsRejectedUpFront)
{
    // The grid crosses every FTL with the shared crash schedule, so a
    // DFTL point would be a silent no-op recovery: exit 2 before any
    // run CSV exists.
    const TempDir dir;
    const std::string out_dir = dir.path() + "/out";
    config::ExperimentSpec spec = tinySpec(); // LeaFTL + DFTL.
    spec.crash_points = {50};

    testing::internal::CaptureStderr();
    std::ostringstream log;
    EXPECT_EQ(runCampaign(spec, out_dir, log), 2);
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("DFTL"), std::string::npos) << err;
    EXPECT_FALSE(fs::exists(out_dir));

    // The same rejection through the CLI: a config file plus a flag
    // that adds the crash schedule.
    const std::string conf = dir.path() + "/crash.conf";
    {
        std::ofstream out(conf);
        out << "ftl = leaftl,sftl\ndevice = tiny\nws = 2048\nrequests = 200\n";
    }
    const std::string campaign_dir = dir.path() + "/cli";
    std::string cli_err;
    EXPECT_EQ(runMain({"--config", conf.c_str(), "--campaign-dir",
                       campaign_dir.c_str(), "--crash-at", "20"},
                      cli_err),
              2);
    EXPECT_NE(cli_err.find("SFTL"), std::string::npos) << cli_err;
    EXPECT_FALSE(fs::exists(campaign_dir));

    // LeaFTL-only campaigns keep their crash schedule.
    spec.ftls = {FtlKind::LeaFTL};
    std::string check_err;
    EXPECT_TRUE(config::checkCrashSupport(spec, check_err)) << check_err;
}

TEST(CampaignRun, FlagsAfterTheConfigReachEveryRun)
{
    // A campaign builds its spec through the sweep's own parser, so a
    // flag after --config overrides the file in every run CSV.
    const TempDir dir;
    std::string err;
    std::string out = captureStdout([&] {
        EXPECT_EQ(runMain({"--config", kTinyConf, "--requests", "50",
                           "--campaign-dir", dir.path().c_str()},
                          err),
                  0)
            << err;
    });
    EXPECT_NE(out.find("3 to execute"), std::string::npos) << out;
    const auto csvs = runCsvs(dir.path());
    ASSERT_EQ(csvs.size(), 3u);
    const size_t requests = csvColumnIndex("requests");
    for (const auto &[name, content] : csvs) {
        std::istringstream lines(content);
        std::string header, row;
        ASSERT_TRUE(std::getline(lines, header));
        ASSERT_TRUE(std::getline(lines, row));
        EXPECT_EQ(splitCells(row).at(requests), "50") << name;
    }
}

TEST(CampaignRun, OutputWithCampaignDirExits2)
{
    // A campaign writes one CSV per run into its directory; --output
    // would name a file nothing writes.
    const TempDir dir;
    const std::string campaign_dir = dir.path() + "/campaign";
    const std::string csv = dir.path() + "/out.csv";
    std::string err;
    EXPECT_EQ(runMain({"--config", kTinyConf, "--campaign-dir",
                       campaign_dir.c_str(), "--output", csv.c_str()},
                      err),
              2);
    EXPECT_NE(err.find("--output and --campaign-dir"), std::string::npos)
        << err;
    EXPECT_FALSE(fs::exists(campaign_dir));
    EXPECT_FALSE(fs::exists(csv));
}

TEST(CampaignRun, TinyConfigReproducesTheCheckedInBaseline)
{
    // tests/data/campaign_tiny holds the run CSVs of
    // configs/campaign_tiny.conf: a fresh campaign writes the same
    // file names and rows (modulo wall_ns), and diffs clean against
    // it at the CI gate's threshold.
    const TempDir dir;
    std::string err;
    captureStdout([&] {
        EXPECT_EQ(runMain({"--config", kTinyConf, "--campaign-dir",
                           dir.path().c_str()},
                          err),
                  0)
            << err;
    });
    std::map<std::string, std::string> fresh, baseline;
    for (const auto &[name, content] : runCsvs(dir.path()))
        fresh[name] = test::stripWallNs(content);
    for (const auto &[name, content] : runCsvs(kBaselineDir))
        baseline[name] = test::stripWallNs(content);
    ASSERT_EQ(baseline.size(), 3u);
    EXPECT_EQ(fresh, baseline);

    std::ostringstream out;
    EXPECT_EQ(campaignDiff(kBaselineDir, dir.path(), 5.0, out), 0)
        << out.str();
    size_t unchanged = 0;
    for (size_t at = out.str().find("(+0.00%)"); at != std::string::npos;
         at = out.str().find("(+0.00%)", at + 1))
        unchanged++;
    EXPECT_EQ(unchanged, 6u) << out.str(); // Throughput and p99, x3.
}

// --------------------------------------------------------------------
// --campaign-diff.

std::vector<std::string>
csvColumnNames()
{
    std::vector<std::string> names;
    for (const CsvColumn &col : csvColumns())
        names.emplace_back(col.name);
    return names;
}

/**
 * Write @a dir/run-<fp>.csv with the columns @a columns, in that
 * order: a fixed LeaFTL label, the three cells the diff reads, and
 * "0" everywhere else.
 */
void
writeRun(const fs::path &dir, const std::string &fp, double throughput,
         double p99, uint64_t wall,
         const std::vector<std::string> &columns = csvColumnNames())
{
    std::map<std::string, std::string> cell = {
        {"ftl", "LeaFTL"},       {"workload", "synthetic:zipf"},
        {"gamma", "4"},          {"qd", "8"},
        {"device", "auto"},      {"mode", "closed"},
        {"rate_iops", "0.0000"}, {"wall_ns", std::to_string(wall)}};
    std::ostringstream t, p;
    t << throughput;
    p << p99;
    cell["throughput_mbps"] = t.str();
    cell["p99_read_lat_us"] = p.str();
    std::string header, row;
    for (const std::string &c : columns) {
        header += (header.empty() ? "" : ",") + c;
        row += (row.empty() ? "" : ",") + (cell.count(c) ? cell[c] : "0");
    }
    fs::create_directories(dir);
    std::ofstream out(dir / ("run-" + fp + ".csv"));
    out << header << '\n' << row << '\n';
    ASSERT_TRUE(out.good());
}

int
diff(const fs::path &a, const fs::path &b, double threshold,
     std::string &out)
{
    std::ostringstream report;
    const int rc = campaignDiff(a.string(), b.string(), threshold, report);
    out = report.str();
    return rc;
}

TEST(CampaignDiff, IdenticalSummariesPass)
{
    const TempDir dir;
    const fs::path a = fs::path(dir.path()) / "a";
    const fs::path b = fs::path(dir.path()) / "b";
    writeRun(a, "aaaa000011112222", 123.4, 55.5, 1000);
    writeRun(b, "aaaa000011112222", 123.4, 55.5, 2000);
    std::string out;
    EXPECT_EQ(diff(a, b, 1.0, out), 0);
    EXPECT_NE(out.find("1 shared"), std::string::npos) << out;
    EXPECT_NE(out.find("LeaFTL/synthetic:zipf/gamma=4/qd=8/auto/closed"),
              std::string::npos)
        << out;
    EXPECT_NE(out.find("wall +100.00%"), std::string::npos) << out;
    EXPECT_NE(out.find("within 1"), std::string::npos) << out;
}

TEST(CampaignDiff, ThroughputRegressionFailsGate)
{
    const TempDir dir;
    const fs::path a = fs::path(dir.path()) / "a";
    const fs::path b = fs::path(dir.path()) / "b";
    writeRun(a, "aaaa000011112222", 100.0, 50.0, 1000);
    writeRun(b, "aaaa000011112222", 90.0, 50.0, 1000);
    std::string out;
    // 10% drop: fails a 5% gate, passes a 15% one, and report-only
    // (threshold 0) always passes.
    EXPECT_EQ(diff(a, b, 5.0, out), 1);
    EXPECT_NE(out.find("REGRESSION"), std::string::npos) << out;
    EXPECT_EQ(diff(a, b, 15.0, out), 0);
    EXPECT_EQ(diff(a, b, 0.0, out), 0);
}

TEST(CampaignDiff, P99RegressionFailsGateAndDisjointRunsReported)
{
    const TempDir dir;
    const fs::path a = fs::path(dir.path()) / "a";
    const fs::path b = fs::path(dir.path()) / "b";
    writeRun(a, "aaaa000011112222", 100.0, 50.0, 1000);
    // B shares the fingerprint but regresses p99, and adds a run A
    // does not have.
    writeRun(b, "aaaa000011112222", 100.0, 60.0, 1000);
    writeRun(b, "bbbb000011112222", 10.0, 5.0, 1);
    std::string out;
    EXPECT_EQ(diff(a, b, 5.0, out), 1);
    EXPECT_NE(out.find("only in"), std::string::npos) << out;
    EXPECT_NE(out.find("bbbb000011112222"), std::string::npos) << out;
}

TEST(CampaignDiff, MatchesColumnsByNameAcrossHeaderLayouts)
{
    // A's header is reordered; B predates two columns. Each file's own
    // header locates the cells, and files that are not run CSVs (a
    // temp file left by a killed run) are skipped.
    const TempDir dir;
    const fs::path a = fs::path(dir.path()) / "a";
    const fs::path b = fs::path(dir.path()) / "b";
    std::vector<std::string> reordered = csvColumnNames();
    std::reverse(reordered.begin(), reordered.end());
    std::vector<std::string> older = csvColumnNames();
    older.erase(std::remove_if(older.begin(), older.end(),
                               [](const std::string &c) {
                                   return c == "trans_reads" ||
                                          c == "trans_writes";
                               }),
                older.end());
    writeRun(a, "aaaa000011112222", 100.0, 50.0, 1000, reordered);
    writeRun(b, "aaaa000011112222", 100.0, 50.0, 1000, older);
    {
        std::ofstream tmp(a / "run-cccc000011112222.csv.tmp0");
        tmp << "half a header";
    }
    std::string out;
    EXPECT_EQ(diff(a, b, 5.0, out), 0) << out;
    EXPECT_NE(out.find("(1 runs) vs"), std::string::npos) << out;
    EXPECT_NE(out.find("throughput 100 -> 100 MB/s (+0.00%), p99 read 50 "
                       "-> 50 us (+0.00%)"),
              std::string::npos)
        << out;

    writeRun(b, "aaaa000011112222", 90.0, 50.0, 1000, older);
    EXPECT_EQ(diff(a, b, 5.0, out), 1) << out;
    EXPECT_EQ(diff(b, a, 5.0, out), 0) << out; // A 10% gain passes.
}

TEST(CampaignDiff, UnreadableInputIsExitCode2)
{
    const TempDir dir;
    const fs::path a = fs::path(dir.path()) / "a";
    writeRun(a, "aaaa000011112222", 1.0, 1.0, 1);
    std::string out;
    testing::internal::CaptureStderr();
    EXPECT_EQ(diff(a, fs::path(dir.path()) / "missing", 0.0, out), 2);

    const fs::path empty = fs::path(dir.path()) / "empty";
    fs::create_directories(empty);
    EXPECT_EQ(diff(a, empty, 0.0, out), 2);

    const fs::path header_only = fs::path(dir.path()) / "header_only";
    fs::create_directories(header_only);
    {
        std::ofstream csv(header_only / "run-aaaa000011112222.csv");
        csv << csvHeader() << "\n";
    }
    EXPECT_EQ(diff(a, header_only, 0.0, out), 2);

    std::vector<std::string> no_p99 = csvColumnNames();
    no_p99.erase(std::find(no_p99.begin(), no_p99.end(), "p99_read_lat_us"));
    const fs::path short_header = fs::path(dir.path()) / "short";
    writeRun(short_header, "aaaa000011112222", 1.0, 1.0, 1, no_p99);
    EXPECT_EQ(diff(a, short_header, 0.0, out), 2);
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("no p99_read_lat_us column"), std::string::npos)
        << err;
}

} // namespace
} // namespace cli
} // namespace leaftl
