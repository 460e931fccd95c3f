#include <gtest/gtest.h>

#include <limits>

#include "common/options.h"
#include "common/strings.h"

namespace taqos {
namespace {

TEST(Strings, Format)
{
    EXPECT_EQ(strFormat("%d-%s", 7, "x"), "7-x");
    EXPECT_EQ(strFormat("%.2f", 1.234), "1.23");
    EXPECT_EQ(strFormat("empty"), "empty");
}

TEST(Strings, FormatLongString)
{
    const std::string big(500, 'a');
    EXPECT_EQ(strFormat("%s!", big.c_str()).size(), 501u);
}

TEST(Strings, Split)
{
    const auto parts = strSplit("a,b,,c", ',');
    ASSERT_EQ(parts.size(), 4u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[2], "");
    EXPECT_EQ(parts[3], "c");
}

TEST(Strings, SplitNoSeparator)
{
    const auto parts = strSplit("abc", ',');
    ASSERT_EQ(parts.size(), 1u);
    EXPECT_EQ(parts[0], "abc");
}

TEST(Strings, Trim)
{
    EXPECT_EQ(strTrim("  hi \t\n"), "hi");
    EXPECT_EQ(strTrim(""), "");
    EXPECT_EQ(strTrim("   "), "");
    EXPECT_EQ(strTrim("x"), "x");
}

TEST(Strings, Lower)
{
    EXPECT_EQ(strLower("MeCS"), "mecs");
}

TEST(OptionMap, ParsesKeyValuesAndFlags)
{
    const char *argv[] = {"prog", "rate=0.12", "fast", "name = dps ",
                          "n=42"};
    OptionMap opts(5, const_cast<char **>(argv));
    EXPECT_TRUE(opts.has("fast"));
    EXPECT_TRUE(opts.getBool("fast", false));
    EXPECT_DOUBLE_EQ(opts.getDouble("rate", 0.0), 0.12);
    EXPECT_EQ(opts.get("name", ""), "dps");
    EXPECT_EQ(opts.getInt("n", 0), 42);
}

TEST(OptionMap, Defaults)
{
    OptionMap opts;
    EXPECT_FALSE(opts.has("missing"));
    EXPECT_EQ(opts.getInt("missing", 5), 5);
    EXPECT_EQ(opts.get("missing", "d"), "d");
    EXPECT_TRUE(opts.getBool("missing", true));
}

TEST(OptionMap, BoolSpellings)
{
    const char *argv[] = {"prog", "a=true", "b=ON", "c=0", "d=no"};
    OptionMap opts(5, const_cast<char **>(argv));
    EXPECT_TRUE(opts.getBool("a", false));
    EXPECT_TRUE(opts.getBool("b", false));
    EXPECT_FALSE(opts.getBool("c", true));
    EXPECT_FALSE(opts.getBool("d", true));
}

TEST(Strings, NumberTokensParseWholeOrNotAtAll)
{
    std::int64_t i = 0;
    EXPECT_TRUE(parseI64Tok("-42", i));
    EXPECT_EQ(i, -42);
    EXPECT_FALSE(parseI64Tok("2k", i));
    EXPECT_FALSE(parseI64Tok("", i));
    EXPECT_FALSE(parseI64Tok("99999999999999999999", i));
    EXPECT_TRUE(parseI64Tok("-9223372036854775808", i));
    EXPECT_EQ(i, std::numeric_limits<std::int64_t>::min());
    // One sign rule with parseU64Tok: an optional '-', then digits only.
    for (const char *bad : {"+1", " 1", "\t1", "1 ", "-", "--1", "- 1", "-+1",
                            "+-1", "+"}) {
        EXPECT_FALSE(parseI64Tok(bad, i)) << "'" << bad << "'";
    }

    std::uint64_t u = 0;
    EXPECT_TRUE(parseU64Tok("18446744073709551615", u));
    EXPECT_EQ(u, 18446744073709551615ull);
    EXPECT_FALSE(parseU64Tok("-5", u)); // would wrap under strtoull
    EXPECT_FALSE(parseU64Tok("18446744073709551616", u));
    EXPECT_FALSE(parseU64Tok("+1", u));
    EXPECT_FALSE(parseU64Tok(" 1", u));

    double d = 0.0;
    EXPECT_TRUE(parseDoubleTok("1e-3", d));
    EXPECT_DOUBLE_EQ(d, 1e-3);
    EXPECT_FALSE(parseDoubleTok("0.05x", d));
    EXPECT_FALSE(parseDoubleTok("inf", d));

    bool b = false;
    EXPECT_TRUE(parseBoolTok("Off", b));
    EXPECT_FALSE(b);
    EXPECT_FALSE(parseBoolTok("2", b));
}

TEST(OptionMap, MalformedValuesExitNamingTheKeyAndValue)
{
    const char *argv[] = {"prog", "measure=2k", "warmup=-5", "mix=maybe",
                          "rate=0.05x", "chipz=2", "chips=4294967297",
                          "seed=-1", "columns=4,4294967300"};
    OptionMap opts(9, const_cast<char **>(argv));
    EXPECT_EXIT(opts.getInt("measure", 0), ::testing::ExitedWithCode(1),
                "bad option 'measure=2k': want a whole number");
    // Integers are range-checked against the type the caller stores:
    // 4294967297 would wrap to an int 1, -1 to a 2^64-1 seed.
    EXPECT_EXIT(opts.getInt("chips", 4), ::testing::ExitedWithCode(1),
                "bad option 'chips=4294967297': want a whole number in "
                "\\[-2147483648, 2147483647\\]");
    EXPECT_EXIT(opts.getInt("seed", std::uint64_t{1}),
                ::testing::ExitedWithCode(1),
                "bad option 'seed=-1': want a whole number in "
                "\\[0, 18446744073709551615\\]");
    EXPECT_EXIT(parseIntList(opts.get("columns", "")),
                ::testing::ExitedWithCode(1),
                "bad integer list '4,4294967300'");
    EXPECT_EXIT(opts.getCycles("warmup", 0), ::testing::ExitedWithCode(1),
                "bad option 'warmup=-5': want a cycle count");
    EXPECT_EXIT(opts.getBool("mix", true), ::testing::ExitedWithCode(1),
                "bad option 'mix=maybe'");
    EXPECT_EXIT(opts.getDouble("rate", 0.0), ::testing::ExitedWithCode(1),
                "bad option 'rate=0.05x': want a number");
    EXPECT_EXIT(opts.rejectUnknown({"measure", "warmup", "mix", "rate",
                                    "chips", "seed", "columns"}),
                ::testing::ExitedWithCode(1), "unknown option 'chipz'");
    opts.rejectUnknown({"measure", "warmup", "mix", "rate", "chips", "seed",
                        "columns", "chipz"});
}

} // namespace
} // namespace taqos
