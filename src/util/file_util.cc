#include "src/util/file_util.h"

#include <fstream>

namespace depsurf {

Result<std::vector<uint8_t>> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Error(ErrorCode::kIoError, "cannot open " + path);
  }
  // istream::read turns a failing read into badbit; reading through the
  // stream buffer (istreambuf_iterator) would throw instead.
  std::vector<uint8_t> bytes;
  char chunk[1 << 16];
  do {
    in.read(chunk, sizeof(chunk));
    bytes.insert(bytes.end(), chunk, chunk + in.gcount());
  } while (in);
  if (in.bad()) {
    return Error(ErrorCode::kIoError, "cannot read " + path);
  }
  return bytes;
}

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
