#include "src/serve/request_reader.h"

#include <cstdlib>
#include <utility>

#include "src/obs/json_writer.h"
#include "src/util/str_util.h"

namespace depsurf {

namespace {

// The checks an inline request can fail, in the order they are reported.
enum Check { kProgram, kFuncs, kTracepoints, kSyscalls, kLsmHooks, kFields, kNumChecks };

constexpr int kEnd = -1;  // Peek() past the last byte

class Reader {
 public:
  explicit Reader(std::string_view text) : text_(text) {}

  RequestLine Read() {
    bool is_object = Peek() == '{';
    bool ok = is_object ? ReadObject([this](const std::string& key) { return ReadMember(key); })
                        : SkipValue();
    if (ok) {
      SkipWhitespace();
      if (pos_ != text_.size()) {
        ok = Fail("trailing characters after document");
      }
    }
    if (!ok) {
      RequestLine bad;
      bad.error = "bad request JSON: " + syntax_error_;
      return bad;
    }
    if (!is_object) {
      RequestLine bad;
      bad.error = "request must be a JSON object";
      return bad;
    }
    out_.id_json = std::move(id_json_);
    if (seen_object_) {
      if (!out_.has_object) {
        out_.error = "object must be a file path string";
      }
      return std::move(out_);
    }
    for (std::string& error : errors_) {
      if (!error.empty()) {
        out_.error = std::move(error);
        return std::move(out_);
      }
    }
    if (!seen_program_) {
      out_.deps.program = "query";
    }
    return std::move(out_);
  }

 private:
  // --- The lint parser's grammar (json_lint.cc), without its tree. ---

  bool Fail(const char* what) {
    syntax_error_ = StrFormat("JSON: %s at offset %zu", what, pos_);
    return false;
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                                   text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  // The first byte of the next value, or kEnd.
  int Peek() {
    SkipWhitespace();
    return pos_ < text_.size() ? static_cast<unsigned char>(text_[pos_]) : kEnd;
  }

  // A string whose opening quote is at pos_, decoded into `out` (if any).
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

  bool SkipKeyword(std::string_view keyword) {
    if (text_.substr(pos_, keyword.size()) != keyword) {
      return Fail("bad keyword");
    }
    pos_ += keyword.size();
    return true;
  }

  // The lenient number run: an optional '-', then any of [0-9.eE+-], which
  // strtod must consume whole.
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

  // An object member's key and the ':' after it.
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

  // A string, keyword or number whose first byte `c` is at pos_.
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

  // Walks the object whose '{' is at pos_. `member(key)` is called with
  // pos_ before each member's value and must read or skip exactly it.
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

  // Walks the array whose '[' is at pos_; `element()` reads each value.
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

  // --- The request's keys. ---

  void SetError(Check check, std::string text) {
    if (errors_[check].empty()) {
      errors_[check] = std::move(text);
    }
  }

  bool ReadMember(const std::string& key) {
    if (key == "id" && !seen_id_) {
      seen_id_ = true;
      return ReadId();
    }
    if (key == "object" && !seen_object_) {
      seen_object_ = true;
      if (Peek() == '"') {
        out_.has_object = true;
        return ReadString(&out_.object_path);
      }
      return SkipValue();
    }
    if (key == "program" && !seen_program_) {
      seen_program_ = true;
      if (Peek() == '"') {
        return ReadString(&out_.deps.program);
      }
      SetError(kProgram, "program must be a string");
      return SkipValue();
    }
    if (key == "fields" && !seen_[kFields]) {
      seen_[kFields] = true;
      return ReadFields();
    }
    struct List {
      const char* name;
      Check check;
      std::set<std::string>* target;
    };
    const List lists[] = {
        {"funcs", kFuncs, &out_.deps.funcs},
        {"tracepoints", kTracepoints, &out_.deps.tracepoints},
        {"syscalls", kSyscalls, &out_.deps.syscalls},
        {"lsm_hooks", kLsmHooks, &out_.deps.lsm_hooks},
    };
    for (const List& list : lists) {
      if (key == list.name && !seen_[list.check]) {
        seen_[list.check] = true;
        return ReadList(list.name, list.check, list.target);
      }
    }
    return SkipValue();
  }

  bool ReadId() {
    const int c = Peek();
    if (c == '"') {
      std::string id;
      if (!ReadString(&id)) {
        return false;
      }
      // Serve's per-request path builds its JSON by hand (see Answer).
      id_json_ = "\"" + obs::JsonEscape(id) + "\"";
      return true;
    }
    if (c == 't' || c == 'f') {
      id_json_ = c == 't' ? "true" : "false";
      return SkipKeyword(id_json_);
    }
    if (c == kEnd || c == '{' || c == '[' || c == 'n') {
      return SkipValue();  // id_json_ stays null
    }
    double number = 0;
    if (!ReadNumber(&number)) {
      return false;
    }
    const long long integral = static_cast<long long>(number);
    id_json_ = static_cast<double>(integral) == number ? StrFormat("%lld", integral)
                                                       : StrFormat("%g", number);
    return true;
  }

  bool ReadList(const char* name, Check check, std::set<std::string>* target) {
    if (Peek() != '[') {
      SetError(check, std::string(name) + " must be an array");
      return SkipValue();
    }
    return ReadArray([&] {
      if (Peek() != '"') {
        SetError(check, std::string(name) + " must contain only strings");
        return SkipValue();
      }
      std::string item;
      if (!ReadString(&item)) {
        return false;
      }
      target->insert(std::move(item));
      return true;
    });
  }

  bool ReadFields() {
    if (Peek() != '{') {
      SetError(kFields, "fields must be an object of {struct: {field: expectation}}");
      return SkipValue();
    }
    return ReadObject([this](const std::string& struct_name) {
      if (Peek() != '{') {
        SetError(kFields, "fields." + struct_name + " must be an object");
        return SkipValue();
      }
      auto& target = out_.deps.fields[struct_name];  // empty map = struct-only dep
      return ReadObject([&](const std::string& field_name) {
        FieldDep dep;
        const int c = Peek();
        if (c == '"') {
          if (!ReadString(&dep.expected_type)) {
            return false;
          }
        } else if (c == '{') {
          if (!ReadExpectation(&dep)) {
            return false;
          }
        } else if (c == 'n') {
          if (!SkipKeyword("null")) {
            return false;
          }
        } else {
          SetError(kFields, "fields." + struct_name + "." + field_name +
                                " must be a type string, an object, or null");
          return SkipValue();
        }
        target[field_name] = std::move(dep);
        return true;
      });
    });
  }

  // {"type": "...", "guarded": bool}; other members are only validated.
  bool ReadExpectation(FieldDep* dep) {
    bool seen_type = false;
    bool seen_guarded = false;
    return ReadObject([&](const std::string& key) {
      if (key == "type" && !seen_type) {
        seen_type = true;
        if (Peek() == '"') {
          return ReadString(&dep->expected_type);
        }
      } else if (key == "guarded" && !seen_guarded) {
        seen_guarded = true;
        const int c = Peek();
        if (c == 't' || c == 'f') {
          dep->guarded = c == 't';
          return SkipKeyword(dep->guarded ? "true" : "false");
        }
      }
      return SkipValue();
    });
  }

  std::string_view text_;
  size_t pos_ = 0;
  std::string syntax_error_;

  RequestLine out_;
  std::string id_json_ = "null";
  bool seen_id_ = false;
  bool seen_object_ = false;
  bool seen_program_ = false;
  bool seen_[kNumChecks] = {};
  std::string errors_[kNumChecks];
};

}  // namespace

RequestLine ReadRequestLine(std::string_view line) { return Reader(line).Read(); }

}  // namespace depsurf
