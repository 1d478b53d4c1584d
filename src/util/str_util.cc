#include "src/util/str_util.h"

#include <cerrno>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace depsurf {

std::vector<std::string> SplitString(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      return out;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string JoinStrings(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) {
      out += sep;
    }
    out += parts[i];
  }
  return out;
}

std::string StrCat(std::initializer_list<std::string_view> parts) {
  size_t size = 0;
  for (std::string_view part : parts) {
    size += part.size();
  }
  std::string out;
  out.reserve(size);
  for (std::string_view part : parts) {
    out += part;
  }
  return out;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() && s.substr(s.size() - suffix.size()) == suffix;
}

Result<uint64_t> ParseUnsigned(const std::string& text) {
  char* end = nullptr;
  errno = 0;
  unsigned long long value = strtoull(text.c_str(), &end, 10);
  if (text.empty() || text.front() == '-' || *end != '\0' || errno == ERANGE) {
    return Error(ErrorCode::kInvalidArgument,
                 StrFormat("\"%s\" is not an unsigned integer", text.c_str()));
  }
  return static_cast<uint64_t>(value);
}

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list copy;
  va_copy(copy, args);
  int needed = vsnprintf(nullptr, 0, fmt, copy);
  va_end(copy);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed) + 1);
    vsnprintf(out.data(), out.size(), fmt, args);
    out.resize(static_cast<size_t>(needed));
  }
  va_end(args);
  return out;
}

std::string FormatCount(uint64_t n) {
  if (n < 1000) {
    return StrFormat("%llu", static_cast<unsigned long long>(n));
  }
  double k = static_cast<double>(n) / 1000.0;
  if (k < 100.0) {
    return StrFormat("%.1fk", k);
  }
  return StrFormat("%.0fk", k);
}

std::string FormatPercent(double fraction) {
  double pct = fraction * 100.0;
  if (pct != 0.0 && pct < 1.0) {
    return StrFormat("%.1f%%", pct);
  }
  return StrFormat("%.0f%%", pct);
}

}  // namespace depsurf
