#include "src/util/file_util.h"

#include <fstream>

namespace depsurf {

Status WriteFile(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    return Status(ErrorCode::kIoError, "cannot write " + path);
  }
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();
  if (!out) {
    return Status(ErrorCode::kIoError, "short write to " + path);
  }
  return Status::Ok();
}

}  // namespace depsurf
