#include <gtest/gtest.h>

#include <map>
#include <string>

#include "src/util/prng.h"
#include "src/util/string_table.h"

namespace depsurf {
namespace {

// The table both string-table writers kept before: a std::map from each
// string to its offset, appending a new string with its NUL.
class MapStringTable {
 public:
  MapStringTable() { bytes_.push_back(0); }

  uint32_t Add(const std::string& s) {
    if (s.empty()) {
      return 0;
    }
    auto it = offsets_.find(s);
    if (it != offsets_.end()) {
      return it->second;
    }
    uint32_t off = static_cast<uint32_t>(bytes_.size());
    bytes_.insert(bytes_.end(), s.begin(), s.end());
    bytes_.push_back(0);
    offsets_[s] = off;
    return off;
  }

  const std::vector<uint8_t>& bytes() const { return bytes_; }

 private:
  std::vector<uint8_t> bytes_;
  std::map<std::string, uint32_t> offsets_;
};

TEST(StringTableBuilderTest, EmptyStringIsOffsetZero) {
  StringTableBuilder table;
  EXPECT_EQ(table.Add(""), 0u);
  EXPECT_EQ(table.Add("a"), 1u);
  EXPECT_EQ(table.Add(""), 0u);
  EXPECT_EQ(table.Add("a"), 1u);
  EXPECT_EQ(table.bytes(), (std::vector<uint8_t>{0, 'a', 0}));
}

// Seeded strings with many repeats, empty strings, prefixes and suffixes of
// earlier strings and embedded NULs: every offset and the final bytes
// equal the map's.
TEST(StringTableBuilderTest, MatchesMapReference) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    Prng prng(seed);
    StringTableBuilder table;
    MapStringTable reference;
    std::vector<std::string> seen;
    for (int i = 0; i < 5000; ++i) {
      std::string s;
      switch (prng.NextBelow(5)) {
        case 0:
          break;  // empty
        case 1:
          if (!seen.empty()) {
            s = seen[prng.NextBelow(seen.size())];  // a duplicate
          }
          break;
        case 2:
          if (!seen.empty()) {
            const std::string& base = seen[prng.NextBelow(seen.size())];
            s = base.substr(0, prng.NextBelow(base.size() + 1));  // a prefix
          }
          break;
        default: {
          const size_t len = 1 + prng.NextBelow(24);
          for (size_t k = 0; k < len; ++k) {
            s.push_back(static_cast<char>(prng.NextBelow(8) == 0 ? 0 : 'a' + prng.NextBelow(6)));
          }
          break;
        }
      }
      seen.push_back(s);
      ASSERT_EQ(table.Add(s), reference.Add(s)) << "seed " << seed << " string " << i;
    }
    EXPECT_EQ(table.bytes(), reference.bytes()) << "seed " << seed;
    EXPECT_EQ(table.TakeBytes(), reference.bytes());
  }
}

}  // namespace
}  // namespace depsurf
