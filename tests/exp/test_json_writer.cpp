#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "exp/json_writer.h"

namespace taqos {
namespace {

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
    EXPECT_EQ(jsonEscape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    EXPECT_EQ(jsonEscape(std::string("x\x01y", 3)), "x\\u0001y");
}

TEST(JsonWriter, NumberFormatting)
{
    EXPECT_EQ(jsonNumber(0.0), "0");
    EXPECT_EQ(jsonNumber(42.0), "42");
    EXPECT_EQ(jsonNumber(-3.0), "-3");
    EXPECT_EQ(jsonNumber(0.06), "0.06");
    EXPECT_EQ(jsonNumber(1.0 / 0.0), "null");
    EXPECT_EQ(jsonNumber(0.0 / 0.0), "null");
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
