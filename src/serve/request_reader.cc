#include "src/serve/request_reader.h"

#include <cmath>
#include <utility>

#include "src/obs/json_reader.h"
#include "src/obs/json_writer.h"
#include "src/util/str_util.h"

namespace depsurf {

namespace {

// The checks an inline request can fail, in the order they are reported.
enum Check { kProgram, kFuncs, kTracepoints, kSyscalls, kLsmHooks, kFields, kNumChecks };

// The request's key rules over the one JSON grammar (obs::JsonReader).
class Reader : private obs::JsonReader {
 public:
  explicit Reader(std::string_view text) : JsonReader(text) {}

  RequestLine Read() {
    const bool is_object = Peek() == '{';
    const bool ok =
        (is_object ? ReadObject([this](const std::string& key) { return ReadMember(key); })
                   : SkipValue()) &&
        ReadEnd();
    if (!ok) {
      RequestLine bad;
      bad.error = "bad request JSON: " + error();
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
    if (!std::isfinite(number)) {
      return true;  // 1e999 reads as infinity, which JSON cannot spell: null
    }
    // The cast is defined only inside long long's range; an id outside it
    // prints through %g.
    constexpr double kTwoTo63 = 9223372036854775808.0;
    const bool integral = number >= -kTwoTo63 && number < kTwoTo63 &&
                          static_cast<double>(static_cast<long long>(number)) == number;
    id_json_ = integral ? StrFormat("%lld", static_cast<long long>(number))
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
