/**
 * @file
 * Tests of the canonical run fingerprints (config/fingerprint.hh):
 * stability across config-file key order and axis-list order, and the
 * dedupe rules (result-irrelevant keys dropped so equivalent runs
 * collide — the contract behind campaign resume).
 */

#include <gtest/gtest.h>

#include <cctype>
#include <sstream>

#include "config/fingerprint.hh"
#include "temp_config.hh"

namespace leaftl
{
namespace config
{
namespace
{

RunPoint
point(FtlKind ftl = FtlKind::LeaFTL, uint32_t gamma = 4,
      const std::string &mode = "closed", double rate = 0.0)
{
    RunPoint p;
    p.ftl = ftl;
    p.workload = "synthetic:zipf";
    p.gamma = gamma;
    p.qd = 4;
    p.device = "tiny";
    p.mode = mode;
    p.rate = rate;
    return p;
}

TEST(Fingerprint, Fnv1a64MatchesTheReferenceConstants)
{
    // Empty input hashes to the FNV offset basis; one byte folds the
    // prime in — both are published reference values.
    EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ull);
    EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cull);
    EXPECT_NE(fnv1a64("ab"), fnv1a64("ba")); // Order-sensitive.
}

TEST(Fingerprint, CanonicalConfigIsSortedKeyValueLines)
{
    const ExperimentSpec spec;
    const std::string canon = canonicalRunConfig(spec, point());
    EXPECT_NE(canon.find("ftl=LeaFTL\n"), std::string::npos) << canon;
    EXPECT_NE(canon.find("workload=synthetic:zipf\n"), std::string::npos);
    EXPECT_NE(canon.find("gamma=4\n"), std::string::npos);
    EXPECT_NE(canon.find("seed=42\n"), std::string::npos);

    // Lines arrive sorted by key.
    std::istringstream in(canon);
    std::string line, prev;
    while (std::getline(in, line)) {
        EXPECT_LT(prev, line) << canon;
        prev = line;
    }
}

TEST(Fingerprint, SixteenLowercaseHexDigits)
{
    const ExperimentSpec spec;
    const std::string fp = runFingerprint(spec, point());
    ASSERT_EQ(fp.size(), 16u);
    for (const char c : fp)
        EXPECT_TRUE(std::isxdigit(static_cast<unsigned char>(c)) &&
                    !std::isupper(static_cast<unsigned char>(c)))
            << fp;
}

TEST(Fingerprint, IndependentOfAxisListOrderAndLayout)
{
    // The fingerprint depends on the grid point and the scalar run
    // options — never on how the sweep axes were listed.
    ExperimentSpec a;
    a.ftls = {FtlKind::LeaFTL, FtlKind::DFTL};
    a.gammas = {0, 4};
    ExperimentSpec b;
    b.ftls = {FtlKind::DFTL, FtlKind::LeaFTL};
    b.gammas = {4, 0};
    EXPECT_EQ(runFingerprint(a, point()), runFingerprint(b, point()));
}

TEST(Fingerprint, StableAcrossConfigFileKeyOrder)
{
    // The same experiment written with its keys in two orders must
    // fingerprint identically.
    const test::TempConfig first("ws       = 4096\n"
                                 "device   = tiny\n"
                                 "requests = 1000\n"
                                 "seed     = 7\n");
    const test::TempConfig reordered("seed     = 7\n"
                                     "requests = 1000\n"
                                     "ws       = 4096\n"
                                     "device   = tiny\n");
    ExperimentSpec a, b;
    std::string err;
    ASSERT_TRUE(loadExperimentFile(first.path(), a, err)) << err;
    ASSERT_TRUE(loadExperimentFile(reordered.path(), b, err)) << err;

    EXPECT_EQ(runFingerprint(a, point()), runFingerprint(b, point()));
}

TEST(Fingerprint, ScalarOptionsChangeTheFingerprint)
{
    ExperimentSpec spec;
    const std::string base = runFingerprint(spec, point());
    ExperimentSpec more = spec;
    more.requests *= 2;
    EXPECT_NE(runFingerprint(more, point()), base);
    ExperimentSpec reseeded = spec;
    reseeded.seed = 43;
    EXPECT_NE(runFingerprint(reseeded, point()), base);
}

TEST(Fingerprint, GammaOnlyCountsForLeaFTL)
{
    const ExperimentSpec spec;
    EXPECT_NE(runFingerprint(spec, point(FtlKind::LeaFTL, 0)),
              runFingerprint(spec, point(FtlKind::LeaFTL, 4)));
    EXPECT_EQ(runFingerprint(spec, point(FtlKind::DFTL, 0)),
              runFingerprint(spec, point(FtlKind::DFTL, 4)));
    EXPECT_EQ(runFingerprint(spec, point(FtlKind::SFTL, 0)),
              runFingerprint(spec, point(FtlKind::SFTL, 4)));
}

TEST(Fingerprint, RateOnlyCountsForRateDrivenModes)
{
    const ExperimentSpec spec;
    EXPECT_EQ(runFingerprint(spec, point(FtlKind::LeaFTL, 4, "closed",
                                         25000.0)),
              runFingerprint(spec, point(FtlKind::LeaFTL, 4, "closed",
                                         50000.0)));
    EXPECT_NE(runFingerprint(spec, point(FtlKind::LeaFTL, 4, "poisson",
                                         25000.0)),
              runFingerprint(spec, point(FtlKind::LeaFTL, 4, "poisson",
                                         50000.0)));
}

TEST(Fingerprint, BurstDutyOnlyCountsInBurstMode)
{
    ExperimentSpec a, b;
    a.burst_duty = 0.25;
    b.burst_duty = 0.75;
    EXPECT_EQ(runFingerprint(a, point(FtlKind::LeaFTL, 4, "poisson", 1e5)),
              runFingerprint(b, point(FtlKind::LeaFTL, 4, "poisson", 1e5)));
    EXPECT_NE(runFingerprint(a, point(FtlKind::LeaFTL, 4, "burst", 1e5)),
              runFingerprint(b, point(FtlKind::LeaFTL, 4, "burst", 1e5)));
}

TEST(Fingerprint, UnsetOverridesAreDropped)
{
    // read-ratio/interarrival below zero mean "workload default"; any
    // negative spelling is the same unset state.
    ExperimentSpec unset_a, unset_b, set;
    unset_a.read_ratio = -1.0;
    unset_b.read_ratio = -0.5;
    set.read_ratio = 0.5;
    EXPECT_EQ(runFingerprint(unset_a, point()),
              runFingerprint(unset_b, point()));
    EXPECT_NE(runFingerprint(set, point()),
              runFingerprint(unset_a, point()));
}

} // namespace
} // namespace config
} // namespace leaftl
