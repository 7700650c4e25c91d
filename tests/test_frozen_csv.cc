/**
 * @file
 * The refactor-freeze tests: the CSV a flags-only invocation emits is
 * frozen (modulo the trailing wall_ns column) against a golden file
 * captured before the config subsystem landed, and an equivalent
 * --config file (with or without flags after it) must reproduce the
 * same rows.
 * If one of these fails, the config lowering changed simulation
 * behavior — not just plumbing. A second golden file pins the cached
 * FTLs (LeaFTL, DFTL, SFTL) under DRAM pressure.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "cli/sim_cli.hh"
#include "csv_test_util.hh"
#include "temp_config.hh"

namespace leaftl
{
namespace cli
{
namespace
{

using test::columnPrefix;
using test::stripWallNs;
using test::TempConfig;

/**
 * Columns the golden file freezes: everything up to (excluding) the
 * recovery columns appended after it was captured. wall_ns never
 * appears in the golden file either (host time, stripped at capture).
 */
constexpr int kGoldenColumns = 32;

/** Parse @a args (after argv[0]) into SimOptions, asserting success. */
SimOptions
parse(const std::vector<const char *> &args)
{
    std::vector<const char *> argv = {"leaftl_sim"};
    argv.insert(argv.end(), args.begin(), args.end());
    SimOptions opts;
    std::string err;
    EXPECT_TRUE(
        parseArgs(static_cast<int>(argv.size()), argv.data(), opts, err))
        << err;
    return opts;
}

/** Run the sweep for @a opts and return the CSV without wall_ns. */
std::string
sweepCsv(const SimOptions &opts)
{
    std::ostringstream out;
    EXPECT_EQ(runSweep(opts, out), 0);
    return stripWallNs(out.str());
}

TEST(FrozenCsv, FlagsOnlySweepMatchesTheGoldenFile)
{
    // The exact invocation tests/data/golden_sweep.csv was captured
    // with (wall_ns stripped) before flags lowered through
    // config::ExperimentSpec. Byte-identity of the frozen column
    // prefix is the refactor's acceptance bar; columns appended since
    // (the recovery group) are outside the freeze.
    const SimOptions opts = parse(
        {"--ftl", "leaftl,dftl", "--workload", "synthetic:seq,synthetic:zipf",
         "--gamma", "0,4", "--qd", "1,4", "--device", "auto,tiny",
         "--mode", "closed,poisson", "--rate", "20000",
         "--requests", "300", "--ws", "2048", "--prefill", "0.25",
         "--seed", "42", "--jobs", "4"});

    std::ifstream golden_in(LEAFTL_SOURCE_DIR
                            "/tests/data/golden_sweep.csv");
    ASSERT_TRUE(golden_in.good())
        << "missing checked-in golden_sweep.csv";
    std::ostringstream golden;
    golden << golden_in.rdbuf();

    EXPECT_EQ(columnPrefix(sweepCsv(opts), kGoldenColumns), golden.str());
}

TEST(FrozenCsv, DramPressureSweepMatchesTheGoldenFile)
{
    // The three cached FTLs under a 64 KiB DRAM budget: every row
    // evicts (resident_bytes < mapping_bytes), so eviction order,
    // translation-page charges and byte accounting all reach the
    // frozen columns. Captured through trans_writes, wall_ns stripped.
    const SimOptions opts = parse(
        {"--ftl", "leaftl,dftl,sftl", "--workload",
         "synthetic:rand,synthetic:zipf,synthetic:mix", "--gamma", "0,4",
         "--requests", "30000", "--ws", "131072", "--prefill", "0.5",
         "--dram-bytes", "65536", "--jobs", "4"});

    std::ifstream golden_in(LEAFTL_SOURCE_DIR
                            "/tests/data/golden_pressure.csv");
    ASSERT_TRUE(golden_in.good())
        << "missing checked-in golden_pressure.csv";
    std::ostringstream golden;
    golden << golden_in.rdbuf();

    const int columns =
        static_cast<int>(csvColumnIndex("trans_writes")) + 1;
    EXPECT_EQ(columnPrefix(sweepCsv(opts), columns), golden.str());
}

TEST(FrozenCsv, ConfigFileReproducesTheFlagRows)
{
    const SimOptions flags =
        parse({"--ftl", "leaftl,dftl", "--gamma", "0,4",
               "--workload", "synthetic:zipf", "--requests", "200",
               "--ws", "2048", "--prefill", "0.25", "--jobs", "2"});

    const TempConfig conf("# The flag invocation above, one key a line.\n"
                          "ftl      = leaftl,dftl\n"
                          "gamma    = 0,4\n"
                          "workload = synthetic:zipf\n"
                          "requests = 200\n"
                          "ws       = 2048\n"
                          "prefill  = 0.25\n"
                          "jobs     = 2\n");
    const SimOptions from_config =
        parse({"--config", conf.path().c_str()});

    EXPECT_EQ(sweepCsv(from_config), sweepCsv(flags));
}

TEST(FrozenCsv, FlagsWinOverTheConfigFile)
{
    const TempConfig conf("ftl      = leaftl\n"
                          "gamma    = 0\n"
                          "workload = synthetic:zipf\n"
                          "requests = 100\n"
                          "ws       = 2048\n"
                          "prefill  = 0.25\n");
    const SimOptions overridden =
        parse({"--config", conf.path().c_str(), "--gamma", "4",
               "--requests", "200"});
    EXPECT_EQ(overridden.gammas, (std::vector<uint32_t>{4}));
    EXPECT_EQ(overridden.requests, 200u);

    const SimOptions direct =
        parse({"--ftl", "leaftl", "--gamma", "4", "--workload",
               "synthetic:zipf", "--requests", "200", "--ws", "2048",
               "--prefill", "0.25"});
    EXPECT_EQ(sweepCsv(overridden), sweepCsv(direct));
}

TEST(FrozenCsv, UnknownFlagSuggestsTheNearestKey)
{
    SimOptions opts;
    std::string err;
    const char *argv[] = {"leaftl_sim", "--gama", "4"};
    EXPECT_FALSE(parseArgs(3, argv, opts, err));
    EXPECT_NE(err.find("unknown argument '--gama' (did you mean '--gamma'?)"),
              std::string::npos)
        << err;
}

} // namespace
} // namespace cli
} // namespace leaftl
