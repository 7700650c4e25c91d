/**
 * @file
 * Tests of the experiment lowering layer (config/experiment.hh):
 * every named key applies with the CLI's validation, unknown keys are
 * rejected with a nearest-key suggestion, and config files lower into
 * an ExperimentSpec through the same path (including the LEAFTL_FATAL
 * bench front door, death-tested).
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <map>

#include "config/experiment.hh"
#include "experiment_key_samples.hh"
#include "temp_config.hh"

namespace leaftl
{
namespace config
{
namespace
{

using test::TempConfig;

/** applyExperimentKey asserting success. */
void
apply(ExperimentSpec &spec, const std::string &key,
      const std::string &value)
{
    std::string err;
    EXPECT_TRUE(applyExperimentKey(spec, key, value, err))
        << key << "=" << value << ": " << err;
}

/** The error applyExperimentKey leaves for @a key = @a value. */
std::string
applyError(const std::string &key, const std::string &value)
{
    ExperimentSpec spec;
    std::string err;
    EXPECT_FALSE(applyExperimentKey(spec, key, value, err))
        << key << "=" << value << " unexpectedly parsed";
    return err;
}

TEST(ExperimentSpec, EveryKnownKeyApplies)
{
    const auto &samples = test::experimentKeySamples();
    ExperimentSpec spec;
    for (const std::string &key : knownExperimentKeys()) {
        const auto it = samples.find(key);
        ASSERT_NE(it, samples.end()) << "no sample value for key '" << key
                                     << "' in experiment_key_samples.hh";
        // Alone, every key moves the spec off its defaults.
        ExperimentSpec one;
        apply(one, key, it->second);
        EXPECT_NE(one, ExperimentSpec()) << key << " changed nothing";
        apply(spec, key, it->second);
    }
    EXPECT_EQ(samples.size(), knownExperimentKeys().size())
        << "a sample names a key the table does not have";

    EXPECT_EQ(spec.ftls.size(), 3u);
    EXPECT_EQ(spec.workloads,
              (std::vector<std::string>{"synthetic:zipf", "msr:MSR-src2"}));
    EXPECT_EQ(spec.gammas, (std::vector<uint32_t>{0, 4, 16}));
    EXPECT_EQ(spec.queue_depths, (std::vector<uint32_t>{1, 64}));
    EXPECT_EQ(spec.devices, (std::vector<std::string>{"auto", "tiny"}));
    EXPECT_EQ(spec.modes, (std::vector<std::string>{"closed", "poisson"}));
    EXPECT_EQ(spec.rates, (std::vector<double>{25000.0, 100000.0}));
    EXPECT_DOUBLE_EQ(spec.burst_duty, 0.5);
    EXPECT_TRUE(spec.trace_strict);
    EXPECT_EQ(spec.jobs, 4u);
    EXPECT_EQ(spec.requests, 1234u);
    EXPECT_EQ(spec.working_set_pages, 4096u);
    EXPECT_DOUBLE_EQ(spec.prefill_frac, 0.5);
    EXPECT_DOUBLE_EQ(spec.read_ratio, 0.75);
    EXPECT_DOUBLE_EQ(spec.interarrival_us, 2.5);
    EXPECT_EQ(spec.seed, 7u);
    EXPECT_EQ(spec.journal_threshold_bytes, 4096u);
    EXPECT_EQ(spec.crash_points, (std::vector<uint64_t>{100, 500}));
    // dram-bytes (applied after dram-mb) takes the exact value.
    EXPECT_EQ(spec.dram_bytes, 65536u);

    // dram-mb shifts, up to the largest MiB count that fits in bytes.
    apply(spec, "dram-mb", "2");
    EXPECT_EQ(spec.dram_bytes, 2u << 20);
    apply(spec, "dram-mb", "17592186044415");
    EXPECT_EQ(spec.dram_bytes, 17592186044415ull << 20);
}

TEST(ExperimentSpec, UnderscoreAndDashSpellingsAreEqual)
{
    ExperimentSpec spec;
    apply(spec, "read_ratio", "0.9");
    EXPECT_DOUBLE_EQ(spec.read_ratio, 0.9);
    apply(spec, "burst_duty", "0.75");
    EXPECT_DOUBLE_EQ(spec.burst_duty, 0.75);
}

TEST(ExperimentSpec, ValidationMatchesTheCliFlags)
{
    EXPECT_NE(applyError("ftl", "nftl").find(
                  "unknown FTL 'nftl' (expected leaftl, dftl, or sftl)"),
              std::string::npos);
    EXPECT_NE(applyError("qd", "0").find("queue depth"), std::string::npos);
    EXPECT_NE(applyError("device", "huge").find(
                  "unknown device 'huge' (expected auto or a preset"),
              std::string::npos);
    EXPECT_NE(applyError("mode", "turbo").find("unknown mode 'turbo'"),
              std::string::npos);
    EXPECT_NE(applyError("rate", "-5").find("bad rate"), std::string::npos);
    EXPECT_NE(applyError("burst-duty", "1.5").find("bad burst-duty"),
              std::string::npos);
    EXPECT_NE(applyError("prefill", "2").find("bad prefill"),
              std::string::npos);
    EXPECT_NE(applyError("requests", "0").find("bad requests"),
              std::string::npos);
    EXPECT_NE(applyError("gamma", "-1").find("bad gamma"),
              std::string::npos);
    EXPECT_NE(applyError("dram-bytes", "1000").find("bad dram-bytes"),
              std::string::npos);
}

TEST(ExperimentSpec, ErrorTextIsExact)
{
    EXPECT_EQ(applyError("ftl", "nftl"),
              "unknown FTL 'nftl' (expected leaftl, dftl, or sftl)");
    EXPECT_EQ(applyError("mode", "turbo"),
              "unknown mode 'turbo' (expected closed, open, fixed, "
              "poisson, or burst)");
    EXPECT_EQ(applyError("device", "huge"),
              "unknown device 'huge' (expected auto or a preset; see --list)");
    EXPECT_EQ(applyError("qd", "1,0"), "bad queue depth '0'");
    EXPECT_EQ(applyError("gamma", "4097"), "bad gamma '4097'");
    EXPECT_EQ(applyError("jobs", "0"), "bad jobs '0'");
    EXPECT_EQ(applyError("trace-strict", "maybe"),
              "bad trace-strict 'maybe' (expected true/false)");
    EXPECT_EQ(applyError("dram-bytes", "1000"),
              "bad dram-bytes '1000' (expected 0 or >= 65536 bytes)");
    EXPECT_EQ(applyError("journal-threshold", "5"),
              "bad journal-threshold '5' (expected 0 or >= 64 bytes)");
    EXPECT_EQ(applyError("crash-at", "1,x"), "bad crash-at 'x'");
    for (const char *key : {"ftl", "workload", "gamma", "qd", "device",
                            "mode", "rate", "crash-at"})
        EXPECT_EQ(applyError(key, ","), std::string(key) + " list is empty");
}

TEST(ExperimentSpec, NonFiniteAndOverflowingValuesAreRejected)
{
    // NaN slipped past every range check and reached the shapers
    // (asserts) or a float-to-int cast (prefill).
    for (const char *key :
         {"rate", "burst-duty", "prefill", "read-ratio", "interarrival"}) {
        for (const char *v : {"nan", "inf", "-inf", "infinity", "NAN"})
            EXPECT_EQ(applyError(key, v),
                      "bad " + std::string(key) + " '" + v + "'");
    }
    // 2^44 MiB is 2^64 bytes: it used to wrap to 0 (the derived budget).
    EXPECT_EQ(applyError("dram-mb", "17592186044416"),
              "bad dram-mb '17592186044416'");
}

TEST(ExperimentSpec, UnknownKeySuggestsTheNearest)
{
    EXPECT_EQ(nearestExperimentKey("gama"), "gamma");
    EXPECT_EQ(nearestExperimentKey("requets"), "requests");
    EXPECT_EQ(nearestExperimentKey("red-ratio"), "read-ratio");

    const std::string err = applyError("gama", "4");
    EXPECT_NE(err.find("unknown key 'gama'"), std::string::npos) << err;
    EXPECT_NE(err.find("did you mean 'gamma'?"), std::string::npos) << err;
}

TEST(ExperimentSpec, LoadExperimentFileAppliesEveryLine)
{
    const TempConfig conf("# One key a line, as the flags would set it.\n"
                          "device = tiny\n"
                          "ws     = 4096   # pages\n"
                          "\n"
                          "ftl    = leaftl,dftl\n"
                          "gamma  = 0,4\n");
    ExperimentSpec spec;
    std::string err;
    ASSERT_TRUE(loadExperimentFile(conf.path(), spec, err)) << err;
    EXPECT_EQ(spec.devices, (std::vector<std::string>{"tiny"}));
    EXPECT_EQ(spec.working_set_pages, 4096u);
    EXPECT_EQ(spec.ftls.size(), 2u);
    EXPECT_EQ(spec.gammas, (std::vector<uint32_t>{0, 4}));
}

TEST(ExperimentSpec, UnknownConfigKeyNamesLineAndSuggestion)
{
    const TempConfig conf("gamma = 4\ngama = 4\n");
    ExperimentSpec spec;
    std::string err;
    EXPECT_FALSE(loadExperimentFile(conf.path(), spec, err));
    EXPECT_EQ(err, conf.path() +
                       ":2: unknown key 'gama' (did you mean 'gamma'?)");
}

/**
 * Each config file shipped in configs/ against the ExperimentSpec it
 * lowered to while it was written as a preset section plus an
 * [experiment] section inheriting it (latency_load.conf with its
 * third rate as a $(rate_knee) variable). The flat files must lower
 * to the same specs.
 */
TEST(ExperimentSpec, ShippedConfigsLowerToTheirCapturedSpecs)
{
    std::map<std::string, ExperimentSpec> want;
    ExperimentSpec &tiny = want["tiny.conf"];
    tiny.devices = {"tiny"};
    tiny.working_set_pages = 8192;
    tiny.prefill_frac = 0.5;
    tiny.ftls = {FtlKind::LeaFTL, FtlKind::DFTL};
    tiny.workloads = {"synthetic:zipf"};
    tiny.gammas = {0, 4};
    tiny.requests = 2000;
    tiny.seed = 42;

    ExperimentSpec &campaign = want["campaign_tiny.conf"];
    campaign = tiny;
    campaign.working_set_pages = 4096;
    campaign.prefill_frac = 0.25;
    campaign.requests = 1000;

    ExperimentSpec &paper = want["paper.conf"];
    paper.devices = {"paper"};
    paper.working_set_pages = 98304;
    paper.prefill_frac = 0.85;
    paper.ftls = {FtlKind::LeaFTL, FtlKind::DFTL, FtlKind::SFTL};
    paper.workloads = {"synthetic:zipf", "msr:MSR-src2"};
    paper.gammas = {0, 4, 16};
    paper.requests = 200000;
    paper.seed = 42;

    ExperimentSpec &paper_2tb = want["paper-2tb.conf"];
    paper_2tb = tiny;
    paper_2tb.devices = {"paper-2tb"};
    paper_2tb.working_set_pages = 262144;
    paper_2tb.prefill_frac = 0.85;
    paper_2tb.requests = 100000;

    ExperimentSpec &load = want["latency_load.conf"];
    load.workloads = {"synthetic:rand"};
    load.read_ratio = 0.98;
    load.working_set_pages = 16384;
    load.dram_bytes = 65536;
    load.ftls = {FtlKind::LeaFTL, FtlKind::DFTL};
    load.modes = {"poisson"};
    load.rates = {25000, 50000, 100000, 200000, 400000, 800000};
    load.queue_depths = {64};
    load.requests = 40000;
    load.prefill_frac = 0.85;
    load.seed = 42;

    size_t checked = 0;
    for (const auto &entry : std::filesystem::directory_iterator(
             LEAFTL_SOURCE_DIR "/configs")) {
        const std::string name = entry.path().filename().string();
        const auto it = want.find(name);
        ASSERT_NE(it, want.end()) << "no captured spec for " << name;
        ExperimentSpec spec;
        std::string err;
        ASSERT_TRUE(loadExperimentFile(entry.path().string(), spec, err))
            << err;
        EXPECT_EQ(spec, it->second) << name;
        checked++;
    }
    EXPECT_EQ(checked, want.size());
}

} // namespace
} // namespace config
} // namespace leaftl
