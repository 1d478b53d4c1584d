// The one JSON grammar DepSurf reads, as a pull reader that builds nothing.
//
// Two readers sit on top of it: obs::ParseJson (json_lint.h) builds a tree
// from it for `metrics lint`, `metrics canon`, `report merge` and
// `profile`, and serve's ReadRequestLine (src/serve/request_reader.h) reads
// a request line straight into its fields. So both accept exactly the same
// documents and report the same error texts and offsets. The grammar:
//   - whitespace is ' ', '\t', '\n' and '\r' (not '\v' or '\f');
//   - a string may hold any raw byte but '"' and '\'; the escapes are
//     \" \\ \/ \b \f \n \r \t and \uXXXX, where a code point at 0x80 or
//     above reads as '?' (no surrogate pairing);
//   - a number is the lenient run of an optional '-' and then any of
//     [0-9.eE+-], which strtod must consume whole: "+1", ".5", "01" and
//     "1e999" (infinity) parse, "1e", "1.2.3" and "--1" do not;
//   - the keywords are true, false and null;
//   - after the document only whitespace may follow.
// A failure records "JSON: WHAT at offset N", with N the offset at which
// the reader stopped, and every later call is moot.
//
// The reader keeps no nesting limit: SkipValue walks containers on an
// explicit stack, so no input byte drives recursion. A caller that recurses
// per container (ParseJson) caps its own depth.
//
// Every method is defined here, in the class, so the calls inline into
// serve's request loop.
#ifndef DEPSURF_SRC_OBS_JSON_READER_H_
#define DEPSURF_SRC_OBS_JSON_READER_H_

#include <cstdlib>
#include <string>
#include <string_view>

#include "src/util/str_util.h"

namespace depsurf {
namespace obs {

class JsonReader {
 public:
  static constexpr int kEnd = -1;  // Peek() past the last byte

  explicit JsonReader(std::string_view text) : text_(text) {}

  // "JSON: WHAT at offset N" after a failure.
  const std::string& error() const { return error_; }

  // Records the failure at the current offset; returns false.
  bool Fail(const char* what) {
    error_ = StrFormat("JSON: %s at offset %zu", what, pos_);
    return false;
  }

  // Skips whitespace; the first byte of the next value, or kEnd.
  int Peek() {
    SkipWhitespace();
    return pos_ < text_.size() ? static_cast<unsigned char>(text_[pos_]) : kEnd;
  }

  // A string whose opening quote is next, decoded and appended to `out`
  // (if any) a run of plain bytes at a time.
  bool ReadString(std::string* out) {
    ++pos_;  // opening quote
    while (true) {
      size_t run = pos_;
      while (run < text_.size() && text_[run] != '"' && text_[run] != '\\') {
        ++run;
      }
      if (out != nullptr) {
        out->append(text_.data() + pos_, run - pos_);
      }
      pos_ = run;
      if (pos_ >= text_.size()) {
        return Fail("unterminated string");
      }
      if (text_[pos_++] == '"') {
        return true;
      }
      if (pos_ >= text_.size()) {
        return Fail("truncated escape");
      }
      char decoded = text_[pos_++];
      switch (decoded) {
        case '"':
        case '\\':
        case '/':
          break;
        case 'n':
          decoded = '\n';
          break;
        case 't':
          decoded = '\t';
          break;
        case 'r':
          decoded = '\r';
          break;
        case 'b':
          decoded = '\b';
          break;
        case 'f':
          decoded = '\f';
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            return Fail("truncated \\u escape");
          }
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return Fail("bad \\u escape");
            }
          }
          // Documents the program reads are ASCII; wider code points read
          // as '?', which is enough to validate them.
          decoded = code < 0x80 ? static_cast<char>(code) : '?';
          break;
        }
        default:
          return Fail("unknown escape");
      }
      if (out != nullptr) {
        out->push_back(decoded);
      }
    }
  }

  // The keyword `keyword`, which must start at the current offset.
  bool SkipKeyword(std::string_view keyword) {
    if (text_.substr(pos_, keyword.size()) != keyword) {
      return Fail("bad keyword");
    }
    pos_ += keyword.size();
    return true;
  }

  // The lenient number run at the current offset, parsed into `value` (if
  // any).
  bool ReadNumber(double* value) {
    const size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           ((text_[pos_] >= '0' && text_[pos_] <= '9') || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) {
      return Fail("expected a value");
    }
    const std::string digits(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double parsed = strtod(digits.c_str(), &end);
    if (end != digits.c_str() + digits.size()) {
      return Fail("malformed number");
    }
    if (value != nullptr) {
      *value = parsed;
    }
    return true;
  }

  // Validates one value of any shape. Containers are tracked on an explicit
  // stack, one byte per open '[' or '{', so depth costs memory, not frames.
  bool SkipValue() {
    std::string open;
    while (true) {
      // A value starts here.
      const int c = Peek();
      if (c == kEnd) {
        return Fail("unexpected end of input");
      }
      if (c == '{' || c == '[') {
        ++pos_;
        SkipWhitespace();
        if (!Consume(c == '{' ? '}' : ']')) {
          open.push_back(static_cast<char>(c));
          if (c == '{' && !ReadKey(nullptr)) {
            return false;
          }
          continue;
        }
      } else if (!SkipScalar(c)) {
        return false;
      }
      // A value ended: close containers until one continues with ','.
      while (true) {
        if (open.empty()) {
          return true;
        }
        const bool object = open.back() == '{';
        if (Consume(',')) {
          if (object && !ReadKey(nullptr)) {
            return false;
          }
          break;
        }
        if (!Consume(object ? '}' : ']')) {
          return Fail(object ? "expected ',' or '}'" : "expected ',' or ']'");
        }
        open.pop_back();
      }
    }
  }

  // Walks the object whose '{' is next. `member(key)` is called with the
  // reader at each member's value and must read or skip exactly that value;
  // `key` is the reader's buffer, which `member` may move from.
  template <typename Member>
  bool ReadObject(Member&& member) {
    ++pos_;  // '{'
    SkipWhitespace();
    if (Consume('}')) {
      return true;
    }
    std::string key;
    while (true) {
      if (!ReadKey(&key) || !member(key)) {
        return false;
      }
      if (Consume(',')) {
        continue;
      }
      return Consume('}') || Fail("expected ',' or '}'");
    }
  }

  // Walks the array whose '[' is next; `element()` reads each value.
  template <typename Element>
  bool ReadArray(Element&& element) {
    ++pos_;  // '['
    SkipWhitespace();
    if (Consume(']')) {
      return true;
    }
    while (true) {
      if (!element()) {
        return false;
      }
      if (Consume(',')) {
        continue;
      }
      return Consume(']') || Fail("expected ',' or ']'");
    }
  }

  // Nothing but whitespace after the document.
  bool ReadEnd() {
    SkipWhitespace();
    return pos_ == text_.size() || Fail("trailing characters after document");
  }

 private:
  void SkipWhitespace() {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                                   text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  // Skips whitespace, then `c` if it comes next.
  bool Consume(char c) {
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  // An object member's key, decoded into `key` (if any), and the ':' after
  // it.
  bool ReadKey(std::string* key) {
    SkipWhitespace();
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      return Fail("expected object key");
    }
    if (key != nullptr) {
      key->clear();
    }
    if (!ReadString(key)) {
      return false;
    }
    return Consume(':') || Fail("expected ':'");
  }

  // A string, keyword or number whose first byte `c` is next.
  bool SkipScalar(int c) {
    switch (c) {
      case '"':
        return ReadString(nullptr);
      case 't':
        return SkipKeyword("true");
      case 'f':
        return SkipKeyword("false");
      case 'n':
        return SkipKeyword("null");
      default:
        return ReadNumber(nullptr);
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
  std::string error_;
};

}  // namespace obs
}  // namespace depsurf

#endif  // DEPSURF_SRC_OBS_JSON_READER_H_
