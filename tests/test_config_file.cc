/**
 * @file
 * Tests of the config-file reader inside config::loadExperimentFile:
 * comments, blank lines and `key = value` lines applied in file
 * order, and a "path:line:" prefix on every error.
 */

#include <gtest/gtest.h>

#include "config/experiment.hh"
#include "temp_config.hh"

namespace leaftl
{
namespace config
{
namespace
{

using test::TempConfig;

/** The spec @a text lowers to (asserts loading succeeds). */
ExperimentSpec
loaded(const std::string &text)
{
    const TempConfig conf(text);
    ExperimentSpec spec;
    std::string err;
    EXPECT_TRUE(loadExperimentFile(conf.path(), spec, err)) << err;
    return spec;
}

/**
 * The error @a text fails with, its "path:" prefix replaced by
 * "<conf>:" (asserts loading fails).
 */
std::string
loadError(const std::string &text)
{
    const TempConfig conf(text);
    ExperimentSpec spec;
    std::string err;
    EXPECT_FALSE(loadExperimentFile(conf.path(), spec, err))
        << "expected a load failure";
    if (err.rfind(conf.path() + ":", 0) == 0)
        err = "<conf>" + err.substr(conf.path().size());
    return err;
}

TEST(ConfigFileParse, SectionsKeysAndComments)
{
    const ExperimentSpec spec = loaded("# header comment\n"
                                       "gamma = 4   # trailing comment\n"
                                       "\n"
                                       "   workload =  synthetic:rand  \n");
    EXPECT_EQ(spec.gammas, (std::vector<uint32_t>{4}));
    EXPECT_EQ(spec.workloads, (std::vector<std::string>{"synthetic:rand"}));

    // A section header is not a key line: the file is flat.
    EXPECT_EQ(loadError("gamma = 4\n[experiment]\n"),
              "<conf>:2: expected 'key = value', got '[experiment]' (a "
              "config file has no sections)");
}

TEST(ConfigFileParse, LinesApplyInFileOrder)
{
    // dram-mb and dram-bytes set one field: the later line wins, as the
    // later of two flags does.
    EXPECT_EQ(loaded("dram-mb = 1\ndram-bytes = 65536\n").dram_bytes,
              65536u);
    EXPECT_EQ(loaded("dram-bytes = 65536\ndram-mb = 1\n").dram_bytes,
              1u << 20);
}

TEST(ConfigFileErrors, MalformedLineCarriesLineNumber)
{
    EXPECT_EQ(loadError("gamma = 4\n"
                        "not a key value line\n"),
              "<conf>:2: expected 'key = value', got 'not a key value "
              "line'");
}

TEST(ConfigFileErrors, UnterminatedSectionHeader)
{
    const std::string err = loadError("[oops\n");
    EXPECT_NE(err.find("<conf>:1: expected 'key = value'"),
              std::string::npos)
        << err;
}

TEST(ConfigFileErrors, BadSectionAndKeyNames)
{
    EXPECT_NE(loadError("[has space]\n").find("<conf>:1: "),
              std::string::npos);
    EXPECT_EQ(loadError("a b = 1\n"), "<conf>:1: bad key 'a b'");
    EXPECT_EQ(loadError("= 1\n"), "<conf>:1: bad key ''");
}

TEST(ConfigFileErrors, DuplicatesNameTheFirstDefinition)
{
    EXPECT_EQ(loadError("gamma = 0\n"
                        "ws    = 2048\n"
                        "gamma = 4\n"),
              "<conf>:3: duplicate key 'gamma' (first set on line 1)");
    // '_' and '-' spell one key.
    EXPECT_EQ(loadError("read-ratio = 0.5\n"
                        "read_ratio = 0.9\n"),
              "<conf>:2: duplicate key 'read_ratio' (first set on line 1)");
}

TEST(ConfigFileErrors, UnknownKeyAndBadValueCarryTheLine)
{
    EXPECT_EQ(loadError("ws = 2048\n"
                        "gama = 4\n"),
              "<conf>:2: unknown key 'gama' (did you mean 'gamma'?)");
    EXPECT_EQ(loadError("# comment\n"
                        "\n"
                        "gamma = x\n"),
              "<conf>:3: bad gamma 'x'");
    // There are no variables: a reference is an ordinary bad value.
    EXPECT_EQ(loadError("rate = 25000,$(rate_knee)\n"),
              "<conf>:1: bad rate '$(rate_knee)'");
}

TEST(ConfigFileErrors, MissingFileIsAnError)
{
    ExperimentSpec spec;
    std::string err;
    EXPECT_FALSE(loadExperimentFile("/nonexistent/leaftl.conf", spec, err));
    EXPECT_EQ(err, "cannot open config file '/nonexistent/leaftl.conf'");
}

} // namespace
} // namespace config
} // namespace leaftl
