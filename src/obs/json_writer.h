// The one writer behind the JSON documents DepSurf emits.
//
// The writer owns the token syntax: quoting and escaping every key and
// string, the "," between siblings, ": " after a key, integer text and
// fixed-point numbers. The emitter owns only the layout, through Break(n):
// the next sibling or closing bracket goes on a new line indented n spaces.
// Without a pending break, siblings are separated by ", " and brackets hug
// their contents. The caller appends a document's trailing newline.
//
// Two places build JSON by hand and say why where they do: serve's
// per-request body (the only JSON on a timed path) and CanonicalMaskedJson
// (the compact canonical form `metrics canon` defines).
#ifndef DEPSURF_SRC_OBS_JSON_WRITER_H_
#define DEPSURF_SRC_OBS_JSON_WRITER_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace depsurf {
namespace obs {

// Appends `s` to `out`, escaped for embedding in a JSON document (no
// surrounding quotes): '"', '\\', \n, \t and \r get their short escapes,
// other bytes below 0x20 a \u00xx escape, and every other byte is copied.
void AppendJsonEscaped(std::string& out, std::string_view s);

// AppendJsonEscaped into a fresh string.
std::string JsonEscape(const std::string& s);

// Streams one document onto the end of a caller's string, which must
// outlive the writer.
class JsonWriter {
 public:
  explicit JsonWriter(std::string& out) : out_(out) {}

  JsonWriter& BeginObject() { return Open('{'); }
  JsonWriter& EndObject() { return Close('}'); }
  JsonWriter& BeginArray() { return Open('['); }
  JsonWriter& EndArray() { return Close(']'); }
  JsonWriter& Key(std::string_view key);
  JsonWriter& String(std::string_view s);
  JsonWriter& Uint(uint64_t v);
  JsonWriter& Int(int64_t v);
  JsonWriter& Bool(bool v) { return Raw(v ? "true" : "false"); }
  JsonWriter& Null() { return Raw("null"); }
  // printf's %.*f: `digits` decimals.
  JsonWriter& Fixed(double v, int digits);
  // A value that is already JSON, spliced as it is.
  JsonWriter& Raw(std::string_view json);
  // Puts the next sibling or closing bracket on a new line indented
  // `indent` spaces. A later Break replaces a pending one.
  JsonWriter& Break(int indent) {
    break_ = indent;
    return *this;
  }

 private:
  void WriteBreak();
  // The separator before a key, or before a value that no key names.
  void Separate();
  JsonWriter& Open(char bracket);
  JsonWriter& Close(char bracket);

  std::string& out_;
  bool first_ = true;       // nothing written yet in the open container
  bool after_key_ = false;  // a key waits for its value
  int break_ = -1;          // the pending break's indent; -1: none
};

}  // namespace obs
}  // namespace depsurf

#endif  // DEPSURF_SRC_OBS_JSON_WRITER_H_
