#include <gtest/gtest.h>

#include "src/util/str_util.h"
#include "src/util/table.h"

namespace depsurf {
namespace {

TEST(StrUtilTest, SplitJoin) {
  auto parts = SplitString("kprobe/do_unlinkat", '/');
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[0], "kprobe");
  EXPECT_EQ(parts[1], "do_unlinkat");
  EXPECT_EQ(JoinStrings(parts, "/"), "kprobe/do_unlinkat");

  auto empties = SplitString("a::b:", ':');
  ASSERT_EQ(empties.size(), 4u);
  EXPECT_EQ(empties[1], "");
  EXPECT_EQ(empties[3], "");
}

TEST(StrUtilTest, StrCat) {
  EXPECT_EQ(StrCat({}), "");
  EXPECT_EQ(StrCat({"struct ", std::string_view("file")}), "struct file");
  EXPECT_EQ(StrCat({"", "a", "", std::string("bc")}), "abc");
}

TEST(StrUtilTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("tracepoint/block/rq_issue", "tracepoint/"));
  EXPECT_FALSE(StartsWith("tp/x", "tracepoint/"));
  EXPECT_TRUE(EndsWith("vfs_fsync.isra.0", ".isra.0"));
  EXPECT_FALSE(EndsWith("x", "long_suffix"));
}

TEST(StrUtilTest, StrFormat) {
  EXPECT_EQ(StrFormat("%s=%d", "count", 42), "count=42");
  EXPECT_EQ(StrFormat("%.1f%%", 12.34), "12.3%");
}

TEST(StrUtilTest, FormatCount) {
  EXPECT_EQ(FormatCount(0), "0");
  EXPECT_EQ(FormatCount(999), "999");
  EXPECT_EQ(FormatCount(36000), "36.0k");
  EXPECT_EQ(FormatCount(6200), "6.2k");
  EXPECT_EQ(FormatCount(150000), "150k");
}

TEST(StrUtilTest, FormatPercent) {
  EXPECT_EQ(FormatPercent(0.24), "24%");
  EXPECT_EQ(FormatPercent(0.004), "0.4%");
  EXPECT_EQ(FormatPercent(0.0), "0%");
  EXPECT_EQ(FormatPercent(1.0), "100%");
}

TEST(TextTableTest, RenderAlignsColumns) {
  TextTable t({"name", "count"});
  t.AddRow({"functions", "36000"});
  t.AddRow({"structs", "6200"});
  t.AddSeparator();
  t.AddRow({"total", "42200"});
  std::string out = t.Render();
  EXPECT_NE(out.find("functions  36000"), std::string::npos);
  // Right-aligned second column: "structs" row should pad the number.
  EXPECT_NE(out.find("structs     6200"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 4u);
}

TEST(TextTableTest, ShortRowsPadded) {
  TextTable t({"a", "b", "c"});
  t.AddRow({"x"});
  std::string out = t.Render();
  EXPECT_NE(out.find('x'), std::string::npos);
}

}  // namespace
}  // namespace depsurf
