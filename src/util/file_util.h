// Whole-file writes that report every byte that did not reach the file.
#ifndef DEPSURF_SRC_UTIL_FILE_UTIL_H_
#define DEPSURF_SRC_UTIL_FILE_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/error.h"

namespace depsurf {

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
