// Whole-file reads and writes that report every failure as a Status naming
// the path, and never throw.
#ifndef DEPSURF_SRC_UTIL_FILE_UTIL_H_
#define DEPSURF_SRC_UTIL_FILE_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/error.h"

namespace depsurf {

// Reads the whole file at `path`. Fails with kIoError naming the path when
// the file cannot be opened ("cannot open PATH") or when a read fails
// ("cannot read PATH"), as it does for a directory.
Result<std::vector<uint8_t>> ReadFile(const std::string& path);

// Writes `bytes` to `path`, replacing what was there. Fails with kIoError
// naming the path when the file cannot be opened ("cannot write PATH") or
// when any byte is not written ("short write to PATH"), the last buffered
// bytes included: they reach the file only as it closes, so the check
// comes after the close.
Status WriteFile(const std::string& path, std::string_view bytes);

inline Status WriteFile(const std::string& path, const std::vector<uint8_t>& bytes) {
  return WriteFile(path,
                   std::string_view(reinterpret_cast<const char*>(bytes.data()), bytes.size()));
}

}  // namespace depsurf

#endif  // DEPSURF_SRC_UTIL_FILE_UTIL_H_
