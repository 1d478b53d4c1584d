// Small string helpers shared across the project.
#ifndef DEPSURF_SRC_UTIL_STR_UTIL_H_
#define DEPSURF_SRC_UTIL_STR_UTIL_H_

#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/error.h"

namespace depsurf {

// Splits on a single character; empty pieces are preserved.
std::vector<std::string> SplitString(std::string_view s, char sep);

// Joins with a separator.
std::string JoinStrings(const std::vector<std::string>& parts, std::string_view sep);

// The parts concatenated: StrCat({"struct ", name}).
std::string StrCat(std::initializer_list<std::string_view> parts);

bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

// A full base-10 unsigned integer: "12x", "-1", "" and overflow are errors
// naming the text. The one parser behind every integer flag (--seed= of the
// benches and the CLI, --rounds=, --sweep=, ...).
Result<uint64_t> ParseUnsigned(const std::string& text);

// printf-style formatting into std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

// Human-friendly count: 1234 -> "1.2k", 43210 -> "43.2k", 950 -> "950".
std::string FormatCount(uint64_t n);

// Percentage with adaptive precision: 0.1234 -> "12%", 0.004 -> "0.4%".
std::string FormatPercent(double fraction);

}  // namespace depsurf

#endif  // DEPSURF_SRC_UTIL_STR_UTIL_H_
