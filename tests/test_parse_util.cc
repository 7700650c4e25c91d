/**
 * @file
 * Unit tests for the shared value-grammar helpers (util/parse.hh).
 * The CLI flag parser and the config-file experiment loader both
 * lower through these, so the rejection cases here are the rejection
 * cases of every front end.
 */

#include <gtest/gtest.h>

#include "util/parse.hh"

namespace leaftl
{
namespace
{

TEST(ParseU64, AcceptsDecimal)
{
    uint64_t v = 0;
    EXPECT_TRUE(parseU64("0", v));
    EXPECT_EQ(v, 0u);
    EXPECT_TRUE(parseU64("42", v));
    EXPECT_EQ(v, 42u);
    EXPECT_TRUE(parseU64("18446744073709551615", v)); // UINT64_MAX.
    EXPECT_EQ(v, UINT64_MAX);
}

TEST(ParseU64, RejectsNonDecimal)
{
    uint64_t v = 7;
    // std::stoull would wrap "-1" to UINT64_MAX; parseU64 must not.
    EXPECT_FALSE(parseU64("-1", v));
    EXPECT_FALSE(parseU64("", v));
    EXPECT_FALSE(parseU64("12x", v));       // Trailing garbage.
    EXPECT_FALSE(parseU64(" 12", v));       // Leading space.
    EXPECT_FALSE(parseU64("+3", v));        // Sign prefix.
    EXPECT_FALSE(parseU64("1.5", v));       // Fraction.
    EXPECT_FALSE(parseU64("18446744073709551616", v)); // Overflow.
    EXPECT_EQ(v, 7u) << "rejected parse must not clobber the output";
}

TEST(ParseDouble, AcceptsStodGrammar)
{
    double v = 0.0;
    EXPECT_TRUE(parseDouble("0.25", v));
    EXPECT_DOUBLE_EQ(v, 0.25);
    EXPECT_TRUE(parseDouble("1e5", v)); // Rates as exponents.
    EXPECT_DOUBLE_EQ(v, 100000.0);
    EXPECT_TRUE(parseDouble("-2.5", v)); // Range checks are per-key.
    EXPECT_DOUBLE_EQ(v, -2.5);
}

TEST(ParseDouble, RejectsEmptyAndGarbage)
{
    double v = 3.5;
    EXPECT_FALSE(parseDouble("", v));
    EXPECT_FALSE(parseDouble("fast", v));
    EXPECT_FALSE(parseDouble("1.5qps", v)); // Trailing garbage.
    EXPECT_DOUBLE_EQ(v, 3.5);
}

TEST(ParseDouble, RejectsNonFinite)
{
    double v = 3.5;
    for (const char *s : {"nan", "NaN", "-nan", "nan(1)", "inf", "-inf",
                          "INF", "infinity", "1e999", "-1e999"})
        EXPECT_FALSE(parseDouble(s, v)) << s;
    EXPECT_DOUBLE_EQ(v, 3.5);
}

TEST(ParseBool, AcceptsAllSpellings)
{
    bool v = false;
    for (const char *t : {"true", "1", "on", "yes"}) {
        v = false;
        EXPECT_TRUE(parseBool(t, v)) << t;
        EXPECT_TRUE(v) << t;
    }
    for (const char *f : {"false", "0", "off", "no"}) {
        v = true;
        EXPECT_TRUE(parseBool(f, v)) << f;
        EXPECT_FALSE(v) << f;
    }
}

TEST(ParseBool, RejectsOtherTokens)
{
    bool v = true;
    EXPECT_FALSE(parseBool("", v));
    EXPECT_FALSE(parseBool("True", v));  // Case-sensitive by design.
    EXPECT_FALSE(parseBool("2", v));
    EXPECT_TRUE(v);
}

TEST(SplitList, SplitsAndDropsEmpties)
{
    EXPECT_EQ(splitList("a,b,c"),
              (std::vector<std::string>{"a", "b", "c"}));
    EXPECT_EQ(splitList("a,,b,"), (std::vector<std::string>{"a", "b"}));
    EXPECT_EQ(splitList(""), std::vector<std::string>{});
    EXPECT_EQ(splitList("solo"), std::vector<std::string>{"solo"});
}

} // namespace
} // namespace leaftl
