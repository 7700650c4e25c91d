/**
 * @file
 * Tests for the benches' shared flag parser (bench::parseScale): a
 * bench's own default scale applies before any flag or --config, so
 * an explicit --requests or --ws always wins, whatever its value; a
 * bad --config file exits with status 2 like a bad flag.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench_common.hh"
#include "temp_config.hh"

namespace leaftl
{
namespace
{

/** parseScale over @a args with the given starting scale. */
bench::BenchScale
parse(std::vector<std::string> args, const bench::ScaleDefaults &defaults)
{
    args.insert(args.begin(), "bench");
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    return bench::parseScale(static_cast<int>(argv.size()), argv.data(),
                             nullptr, defaults);
}

const bench::ScaleDefaults kSmall{.requests = 60'000,
                                  .working_set_pages = 32 * 1024};

TEST(BenchScale, SharedDefaults)
{
    const bench::BenchScale s = parse({}, {});
    EXPECT_EQ(s.requests, 200'000u);
    EXPECT_EQ(s.working_set_pages, 96u * 1024);
    EXPECT_EQ(s.spec.requests, s.requests);
    EXPECT_EQ(s.spec.working_set_pages, s.working_set_pages);
}

TEST(BenchScale, OwnDefaultsApplyWithoutFlags)
{
    const bench::BenchScale s = parse({}, kSmall);
    EXPECT_EQ(s.requests, 60'000u);
    EXPECT_EQ(s.working_set_pages, 32u * 1024);
}

TEST(BenchScale, ExplicitFlagsBeatOwnDefaults)
{
    // A ws flag alone keeps the bench's requests and vice versa; a
    // flag equal to the shared default is still the user's choice.
    bench::BenchScale s = parse({"--ws=65536"}, kSmall);
    EXPECT_EQ(s.working_set_pages, 65'536u);
    EXPECT_EQ(s.requests, 60'000u);

    s = parse({"--requests=200000"}, kSmall);
    EXPECT_EQ(s.requests, 200'000u);
    EXPECT_EQ(s.working_set_pages, 32u * 1024);
}

TEST(BenchScale, FastScalesOwnDefaults)
{
    const bench::BenchScale s = parse({"--fast"}, kSmall);
    EXPECT_TRUE(s.fast);
    EXPECT_EQ(s.requests, 6'000u);
    EXPECT_EQ(s.working_set_pages, 8u * 1024);
}

TEST(BenchScale, ConfigReplacesOwnDefaults)
{
    const bench::BenchScale s = parse(
        {"--config=" + std::string(LEAFTL_SOURCE_DIR) + "/configs/tiny.conf"},
        kSmall);
    EXPECT_TRUE(s.from_config);
    EXPECT_EQ(s.requests, 2'000u);
    EXPECT_EQ(s.working_set_pages, 8'192u);
}

TEST(BenchScaleDeathTest, BadConfigKeyExitsWithStatus2)
{
    // The file's located error, not an abort.
    const test::TempConfig conf("# scale\nqdepth = 8\n");
    EXPECT_EXIT(parse({"--fast", "--config=" + conf.path()}, kSmall),
                testing::ExitedWithCode(2),
                ":2: unknown key 'qdepth' \\(did you mean 'qd'\\?\\)");
}

TEST(BenchScaleDeathTest, MissingConfigExitsWithStatus2)
{
    EXPECT_EXIT(parse({"--config=/nonexistent/x.conf"}, kSmall),
                testing::ExitedWithCode(2), "cannot open config file");
}

} // namespace
} // namespace leaftl
