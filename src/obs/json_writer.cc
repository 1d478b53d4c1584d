#include "src/obs/json_writer.h"

#include <charconv>

#include "src/util/str_util.h"

namespace depsurf {
namespace obs {

void AppendJsonEscaped(std::string& out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  size_t copied = 0;  // s[copied, i) needs no escape and is not yet in `out`
  for (size_t i = 0; i < s.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') {
      continue;
    }
    out.append(s.data() + copied, i - copied);
    copied = i + 1;
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        out += "\\u00";
        out += kHex[c >> 4];
        out += kHex[c & 0xf];
    }
  }
  out.append(s.data() + copied, s.size() - copied);
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  AppendJsonEscaped(out, s);
  return out;
}

void JsonWriter::WriteBreak() {
  if (break_ >= 0) {
    out_ += '\n';
    out_.append(static_cast<size_t>(break_), ' ');
    break_ = -1;
  }
}

void JsonWriter::Separate() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!first_) {
    out_ += break_ < 0 ? ", " : ",";
  }
  WriteBreak();
  first_ = false;
}

JsonWriter& JsonWriter::Open(char bracket) {
  Separate();
  out_ += bracket;
  first_ = true;
  return *this;
}

JsonWriter& JsonWriter::Close(char bracket) {
  WriteBreak();
  out_ += bracket;
  first_ = false;
  return *this;
}

JsonWriter& JsonWriter::Key(std::string_view key) {
  String(key);
  out_ += ": ";
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::String(std::string_view s) {
  Separate();
  out_ += '"';
  AppendJsonEscaped(out_, s);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::Uint(uint64_t v) {
  char text[20];
  return Raw(std::string_view(text, std::to_chars(text, text + sizeof(text), v).ptr - text));
}

JsonWriter& JsonWriter::Int(int64_t v) {
  char text[20];
  return Raw(std::string_view(text, std::to_chars(text, text + sizeof(text), v).ptr - text));
}

JsonWriter& JsonWriter::Fixed(double v, int digits) { return Raw(StrFormat("%.*f", digits, v)); }

JsonWriter& JsonWriter::Raw(std::string_view json) {
  Separate();
  out_ += json;
  return *this;
}

}  // namespace obs
}  // namespace depsurf
