#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "exp/json_writer.h"

namespace taqos {
namespace {

/// One value as the writer prints it outside any container.
template <typename T>
std::string
written(T v)
{
    JsonWriter w;
    w.value(v);
    return w.str();
}

std::string
printed(const char *fmt, auto v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, fmt, v);
    return buf;
}

/// The writer's number rule as printf states it: integers below 1e15
/// with %.0f, other finite values with %.12g, the rest as null.
std::string
printfNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    if (v == std::floor(v) && std::fabs(v) < 1e15)
        return printed("%.0f", v);
    return printed("%.12g", v);
}

/// The writer's escape rule, byte by byte: quote, backslash, \n, \r and
/// \t by name, other control bytes as \u00xx, every other byte as itself.
std::string
escapedByte(char c)
{
    switch (c) {
      case '"': return "\\\"";
      case '\\': return "\\\\";
      case '\n': return "\\n";
      case '\r': return "\\r";
      case '\t': return "\\t";
      default:
        if (static_cast<unsigned char>(c) < 0x20)
            return printed("\\u%04x", static_cast<unsigned>(c));
        return std::string(1, c);
    }
}

TEST(JsonWriter, EmptyObject)
{
    JsonWriter w;
    w.beginObject().endObject();
    EXPECT_EQ(w.str(), "{}");
}

TEST(JsonWriter, FlatObject)
{
    JsonWriter w;
    w.beginObject();
    w.field("a", 1);
    w.field("b", 2.5);
    w.field("c", "x");
    w.field("d", true);
    w.endObject();
    EXPECT_EQ(w.str(),
              "{\n  \"a\": 1,\n  \"b\": 2.5,\n  \"c\": \"x\",\n"
              "  \"d\": true\n}");
}

TEST(JsonWriter, NestedContainers)
{
    JsonWriter w;
    w.beginObject();
    w.beginArray("xs");
    w.value(1);
    w.value(2);
    w.endArray();
    w.beginObject("o");
    w.field("k", "v");
    w.endObject();
    w.endObject();
    EXPECT_EQ(w.str(), "{\n  \"xs\": [\n    1,\n    2\n  ],\n"
                       "  \"o\": {\n    \"k\": \"v\"\n  }\n}");
}

TEST(JsonWriter, EscapesStrings)
{
    EXPECT_EQ(written("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    EXPECT_EQ(written(std::string_view("x\x01y", 3)), "\"x\\u0001y\"");
}

TEST(JsonWriter, EscapesEveryByteByTheRule)
{
    // Each byte alone, then all 256 in one string, as a value and as a
    // key: runs of plain bytes between escapes must come out whole.
    std::string all;
    std::string want;
    for (int b = 0; b < 256; ++b) {
        const char c = static_cast<char>(b);
        EXPECT_EQ(written(std::string_view(&c, 1)),
                  std::string(1, '"').append(escapedByte(c)).append(1, '"'))
            << b;
        all += c;
        want += escapedByte(c);
    }
    EXPECT_EQ(written(std::string_view(all)),
              std::string(1, '"').append(want).append(1, '"'));
    JsonWriter w;
    w.beginObject().field(all, 1).endObject();
    EXPECT_EQ(w.str(), std::string("{\n  \"").append(want).append("\": 1\n}"));
}

TEST(JsonWriter, NumberFormatting)
{
    EXPECT_EQ(written(0.0), "0");
    EXPECT_EQ(written(42.0), "42");
    EXPECT_EQ(written(-3.0), "-3");
    EXPECT_EQ(written(0.06), "0.06");
    EXPECT_EQ(written(1.0 / 0.0), "null");
    EXPECT_EQ(written(0.0 / 0.0), "null");
}

TEST(JsonWriter, NumbersMatchPrintf)
{
    std::vector<double> corpus = {
        0.0,
        -0.0,
        1.0,
        -1.0,
        0.1,
        1.0 / 3.0,
        -2.0 / 3.0,
        1e-300,
        -1e-300,
        DBL_MIN,
        DBL_MIN / 2,
        DBL_TRUE_MIN,
        -DBL_TRUE_MIN,
        DBL_MAX,
        -DBL_MAX,
        1e15,
        -1e15,
        std::nextafter(1e15, 0.0),
        std::nextafter(1e15, 2e15),
        999999999999999.0,
        -999999999999999.0,
        1000000000000001.0,
        0.5,
        2.5,
        123456789012.5,
        1234567890123.5,
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN(),
    };
    Rng rng(0x150de5);
    for (int i = 0; i < 100000; ++i)
        corpus.push_back(std::bit_cast<double>(rng.nextU64()));
    // Integers and halves at every magnitude up to 2^60.
    for (int i = 0; i < 10000; ++i) {
        const auto mag = static_cast<std::int64_t>(rng.nextU64() >>
                                                   (4 + rng.nextBelow(60)));
        corpus.push_back(static_cast<double>(i % 2 ? mag : -mag) /
                         (i % 4 < 2 ? 1.0 : 2.0));
    }
    int mismatches = 0;
    for (double v : corpus) {
        if (written(v) != printfNumber(v) && ++mismatches <= 10) {
            ADD_FAILURE() << std::bit_cast<std::uint64_t>(v) << ": "
                          << written(v) << " != " << printfNumber(v);
        }
    }
    EXPECT_EQ(mismatches, 0);
}

TEST(JsonWriter, IntegersMatchPrintf)
{
    std::vector<std::uint64_t> corpus = {
        0,
        1,
        9,
        10,
        std::numeric_limits<std::uint64_t>::max(),
        static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::min()),
        static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max()),
    };
    Rng rng(0x1a7e9e5);
    for (int i = 0; i < 100000; ++i)
        corpus.push_back(rng.nextU64() >> rng.nextBelow(64));
    for (std::uint64_t u : corpus) {
        ASSERT_EQ(written(u),
                  printed("%llu", static_cast<unsigned long long>(u)));
        for (const auto i : {static_cast<std::int64_t>(u),
                             static_cast<std::int64_t>(0 - u)}) {
            ASSERT_EQ(written(i), printed("%lld", static_cast<long long>(i)));
        }
    }
    EXPECT_EQ(written(-7), "-7");
}

TEST(JsonWriter, TopLevelArray)
{
    JsonWriter w;
    w.beginArray();
    w.value("a");
    w.value(std::uint64_t{18446744073709551615ull});
    w.endArray();
    EXPECT_EQ(w.str(), "[\n  \"a\",\n  18446744073709551615\n]");
}

TEST(WriteTextFile, WritesTheContent)
{
    const std::string path = ::testing::TempDir() + "write_text_file.txt";
    ASSERT_TRUE(writeTextFile(path, "one\ntwo\n"));
    std::ifstream is(path);
    std::ostringstream os;
    os << is.rdbuf();
    EXPECT_EQ(os.str(), "one\ntwo\n");
}

TEST(WriteTextFile, AFailedCloseIsAFailedWrite)
{
    // /dev/full opens and buffers a small write; the disk-full error
    // surfaces only when fclose flushes.
    if (!std::filesystem::exists("/dev/full"))
        GTEST_SKIP() << "no /dev/full";
    ::testing::internal::CaptureStderr();
    EXPECT_FALSE(writeTextFile("/dev/full", "{}\n"));
    EXPECT_EQ(::testing::internal::GetCapturedStderr(),
              "cannot write /dev/full\n");
}

TEST(WriteTextFile, AnUnopenablePathIsAFailedWrite)
{
    const std::string path = ::testing::TempDir() + "no_such_dir/x.json";
    ::testing::internal::CaptureStderr();
    EXPECT_FALSE(writeTextFile(path, "{}\n"));
    EXPECT_EQ(::testing::internal::GetCapturedStderr(),
              "cannot write " + path + "\n");
}

} // namespace
} // namespace taqos
