#include "src/obs/json_lint.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "src/obs/diagnostics.h"
#include "src/obs/metrics.h"
#include "src/obs/run_report.h"
#include "src/util/str_util.h"

namespace depsurf {
namespace obs {

namespace {

class Parser {
 public:
  // Containers nest at most this deep (a study build's run reports nest 8),
  // so no document can exhaust the stack of this recursive parser.
  static constexpr size_t kMaxDepth = 256;

  explicit Parser(std::string_view text) : text_(text) {}

  Result<JsonValue> Parse() {
    DEPSURF_ASSIGN_OR_RETURN(value, ParseValue());
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Fail("trailing characters after document");
    }
    return value;
  }

 private:
  Error Fail(const std::string& what) {
    return Error(ErrorCode::kMalformedData,
                 StrFormat("JSON: %s at offset %zu", what.c_str(), pos_));
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

  Result<JsonValue> ParseValue() {
    SkipWhitespace();
    if (pos_ >= text_.size()) {
      return Fail("unexpected end of input");
    }
    char c = text_[pos_];
    if (c == '{') {
      return ParseObject();
    }
    if (c == '[') {
      return ParseArray();
    }
    if (c == '"') {
      return ParseString();
    }
    if (c == 't' || c == 'f') {
      return ParseKeyword(c == 't' ? "true" : "false", JsonValue::Kind::kBool, c == 't');
    }
    if (c == 'n') {
      return ParseKeyword("null", JsonValue::Kind::kNull, false);
    }
    return ParseNumber();
  }

  Result<JsonValue> ParseKeyword(std::string_view keyword, JsonValue::Kind kind, bool value) {
    if (text_.substr(pos_, keyword.size()) != keyword) {
      return Fail("bad keyword");
    }
    pos_ += keyword.size();
    JsonValue out;
    out.kind = kind;
    out.boolean = value;
    return out;
  }

  Result<JsonValue> ParseNumber() {
    size_t start = pos_;
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
    std::string digits(text_.substr(start, pos_ - start));
    char* end = nullptr;
    double value = strtod(digits.c_str(), &end);
    if (end != digits.c_str() + digits.size()) {
      return Fail("malformed number");
    }
    JsonValue out;
    out.kind = JsonValue::Kind::kNumber;
    out.number = value;
    return out;
  }

  Result<JsonValue> ParseString() {
    ++pos_;  // opening quote
    JsonValue out;
    out.kind = JsonValue::Kind::kString;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c != '\\') {
        out.string += c;
        continue;
      }
      if (pos_ >= text_.size()) {
        return Fail("truncated escape");
      }
      char esc = text_[pos_++];
      switch (esc) {
        case '"':
        case '\\':
        case '/':
          out.string += esc;
          break;
        case 'n':
          out.string += '\n';
          break;
        case 't':
          out.string += '\t';
          break;
        case 'r':
          out.string += '\r';
          break;
        case 'b':
          out.string += '\b';
          break;
        case 'f':
          out.string += '\f';
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            return Fail("truncated \\u escape");
          }
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
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
          // Control-plane strings are ASCII; wider code points round-trip
          // as '?' which is fine for validation purposes.
          out.string += code < 0x80 ? static_cast<char>(code) : '?';
          break;
        }
        default:
          return Fail("unknown escape");
      }
    }
    if (pos_ >= text_.size()) {
      return Fail("unterminated string");
    }
    ++pos_;  // closing quote
    return out;
  }

  // Counts one open container for as long as it lives.
  struct DepthScope {
    explicit DepthScope(size_t& open) : depth(open) { ++depth; }
    ~DepthScope() { --depth; }
    size_t& depth;
  };

  Result<JsonValue> ParseArray() {
    if (depth_ == kMaxDepth) {
      return Fail("nesting deeper than 256");
    }
    DepthScope scope(depth_);
    ++pos_;  // '['
    JsonValue out;
    out.kind = JsonValue::Kind::kArray;
    SkipWhitespace();
    if (Consume(']')) {
      return out;
    }
    while (true) {
      DEPSURF_ASSIGN_OR_RETURN(element, ParseValue());
      out.array.push_back(std::move(element));
      if (Consume(',')) {
        continue;
      }
      if (Consume(']')) {
        return out;
      }
      return Fail("expected ',' or ']'");
    }
  }

  Result<JsonValue> ParseObject() {
    if (depth_ == kMaxDepth) {
      return Fail("nesting deeper than 256");
    }
    DepthScope scope(depth_);
    ++pos_;  // '{'
    JsonValue out;
    out.kind = JsonValue::Kind::kObject;
    SkipWhitespace();
    if (Consume('}')) {
      return out;
    }
    while (true) {
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Fail("expected object key");
      }
      DEPSURF_ASSIGN_OR_RETURN(key, ParseString());
      if (!Consume(':')) {
        return Fail("expected ':'");
      }
      DEPSURF_ASSIGN_OR_RETURN(value, ParseValue());
      out.object.emplace_back(std::move(key.string), std::move(value));
      if (Consume(',')) {
        continue;
      }
      if (Consume('}')) {
        return out;
      }
      return Fail("expected ',' or '}'");
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
  size_t depth_ = 0;
};

size_t CountSpanNodesFrom(const JsonValue& span) {
  size_t n = 1;
  const JsonValue* children = span.Find("children");
  if (children != nullptr && children->kind == JsonValue::Kind::kArray) {
    for (const JsonValue& child : children->array) {
      n += CountSpanNodesFrom(child);
    }
  }
  return n;
}

void CollectSpanNamesFrom(const JsonValue& span, std::set<std::string>& out) {
  const JsonValue* name = span.Find("name");
  if (name != nullptr && name->kind == JsonValue::Kind::kString) {
    out.insert(name->string);
  }
  const JsonValue* children = span.Find("children");
  if (children != nullptr && children->kind == JsonValue::Kind::kArray) {
    for (const JsonValue& child : children->array) {
      CollectSpanNamesFrom(child, out);
    }
  }
}

}  // namespace

// Mirror of CompareSpanNodesMasked (span.h) over parsed span objects: name,
// then attrs with timing values ignored, then children recursively. Both
// orderings must agree so a masked-serialized report and a canonicalized
// unmasked report of the same run sort their roots identically.
int CompareReportSpans(const JsonValue& a, const JsonValue& b) {
  const JsonValue* a_name = a.Find("name");
  const JsonValue* b_name = b.Find("name");
  std::string_view an = a_name != nullptr ? std::string_view(a_name->string) : std::string_view();
  std::string_view bn = b_name != nullptr ? std::string_view(b_name->string) : std::string_view();
  if (int c = an.compare(bn); c != 0) {
    return c;
  }
  const JsonValue* a_attrs = a.Find("attrs");
  const JsonValue* b_attrs = b.Find("attrs");
  size_t a_n = a_attrs != nullptr ? a_attrs->object.size() : 0;
  size_t b_n = b_attrs != nullptr ? b_attrs->object.size() : 0;
  for (size_t i = 0; i < std::min(a_n, b_n); ++i) {
    const auto& [ak, av] = a_attrs->object[i];
    const auto& [bk, bv] = b_attrs->object[i];
    if (int c = ak.compare(bk); c != 0) {
      return c;
    }
    if (!IsTimingMetricName(ak)) {
      if (int c = av.string.compare(bv.string); c != 0) {
        return c;
      }
    }
  }
  if (a_n != b_n) {
    return a_n < b_n ? -1 : 1;
  }
  const JsonValue* a_kids = a.Find("children");
  const JsonValue* b_kids = b.Find("children");
  size_t a_k = a_kids != nullptr ? a_kids->array.size() : 0;
  size_t b_k = b_kids != nullptr ? b_kids->array.size() : 0;
  for (size_t i = 0; i < std::min(a_k, b_k); ++i) {
    if (int c = CompareReportSpans(a_kids->array[i], b_kids->array[i]); c != 0) {
      return c;
    }
  }
  if (a_k != b_k) {
    return a_k < b_k ? -1 : 1;
  }
  return 0;
}

namespace {

std::string CanonicalNumber(double v) {
  if (std::floor(v) == v && std::fabs(v) < 9.0e15) {
    return StrFormat("%lld", (long long)v);
  }
  return StrFormat("%.17g", v);
}

// Zeroes a value in place of a timing field: numbers become 0, strings "0",
// arrays empty, objects keep their keys with every member zeroed.
void AppendMaskedValue(std::string& out, const JsonValue& value) {
  switch (value.kind) {
    case JsonValue::Kind::kNumber:
      out += "0";
      break;
    case JsonValue::Kind::kString:
      out += "\"0\"";
      break;
    case JsonValue::Kind::kArray:
      out += "[]";
      break;
    case JsonValue::Kind::kObject: {
      out += "{";
      for (size_t i = 0; i < value.object.size(); ++i) {
        if (i != 0) {
          out += ",";
        }
        out += "\"" + JsonEscape(value.object[i].first) + "\":";
        AppendMaskedValue(out, value.object[i].second);
      }
      out += "}";
      break;
    }
    case JsonValue::Kind::kBool:
      out += value.boolean ? "true" : "false";
      break;
    case JsonValue::Kind::kNull:
      out += "null";
      break;
  }
}

void AppendCanonical(std::string& out, const JsonValue& value) {
  switch (value.kind) {
    case JsonValue::Kind::kNull:
      out += "null";
      break;
    case JsonValue::Kind::kBool:
      out += value.boolean ? "true" : "false";
      break;
    case JsonValue::Kind::kNumber:
      out += CanonicalNumber(value.number);
      break;
    case JsonValue::Kind::kString:
      out += "\"" + JsonEscape(value.string) + "\"";
      break;
    case JsonValue::Kind::kArray:
      out += "[";
      for (size_t i = 0; i < value.array.size(); ++i) {
        if (i != 0) {
          out += ",";
        }
        AppendCanonical(out, value.array[i]);
      }
      out += "]";
      break;
    case JsonValue::Kind::kObject:
      out += "{";
      for (size_t i = 0; i < value.object.size(); ++i) {
        if (i != 0) {
          out += ",";
        }
        const auto& [key, member] = value.object[i];
        out += "\"" + JsonEscape(key) + "\":";
        // Beyond timing-suffixed keys: span alloc fields depend on the
        // allocator and on whether the hooks were compiled in; a profile's
        // serial-share percentage, critical_path steps, and executor
        // section are all timing-derived (the executor window also varies
        // with --jobs), so they mask wholesale.
        if (key == "dur_ns" || key == "alloc_count" || key == "alloc_bytes" ||
            key == "serial_share_pct" || key == "critical_path" || key == "executor" ||
            IsTimingMetricName(key)) {
          AppendMaskedValue(out, member);
        } else {
          AppendCanonical(out, member);
        }
      }
      out += "}";
      break;
  }
}

}  // namespace

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (kind != Kind::kObject) {
    return nullptr;
  }
  for (const auto& [k, v] : object) {
    if (k == key) {
      return &v;
    }
  }
  return nullptr;
}

Result<JsonValue> ParseJson(std::string_view text) { return Parser(text).Parse(); }

std::vector<std::string> RunReportLintNotes(const JsonValue& report) {
  // Gauges renamed across schema revisions: old documents still lint clean,
  // but readers should know which name current builds emit.
  static constexpr struct {
    const char* name;
    const char* replacement;
    const char* why;
  } kDeprecatedGauges[] = {
      {"study.build_dataset.cpu_ms", "study.build_dataset.cpu_total_ms",
       "process CPU is summed across worker threads"},
  };
  std::vector<std::string> notes;
  const JsonValue* gauges = report.Find("gauges");
  if (gauges == nullptr || gauges->kind != JsonValue::Kind::kObject) {
    return notes;
  }
  for (const auto& gauge : kDeprecatedGauges) {
    if (gauges->Find(gauge.name) != nullptr) {
      notes.push_back(StrFormat("deprecated gauge %s: %s; current builds emit %s",
                                gauge.name, gauge.why, gauge.replacement));
    }
  }
  return notes;
}

std::set<std::string> CollectSpanNames(const JsonValue& report) {
  std::set<std::string> names;
  const JsonValue* spans = report.Find("spans");
  if (spans != nullptr && spans->kind == JsonValue::Kind::kArray) {
    for (const JsonValue& span : spans->array) {
      CollectSpanNamesFrom(span, names);
    }
  }
  return names;
}

size_t CountReportSpanNodes(const JsonValue& report) {
  size_t n = 0;
  const JsonValue* spans = report.Find("spans");
  if (spans != nullptr && spans->kind == JsonValue::Kind::kArray) {
    for (const JsonValue& span : spans->array) {
      n += CountSpanNodesFrom(span);
    }
  }
  return n;
}

Status ValidateRunReport(std::string_view json, size_t min_distinct_spans,
                         const std::vector<std::string>& required_counters) {
  auto parsed = ParseJson(json);
  if (!parsed.ok()) {
    return parsed.TakeError();
  }
  const JsonValue& report = *parsed;
  const JsonValue* schema = report.Find("schema");
  if (schema == nullptr || schema->kind != JsonValue::Kind::kString ||
      schema->string != kRunReportSchema) {
    return Status(ErrorCode::kMalformedData,
                  StrFormat("missing or wrong schema marker (want %s)", kRunReportSchema));
  }
  for (const char* section : {"spans", "counters", "gauges", "histograms", "diagnostics"}) {
    if (report.Find(section) == nullptr) {
      return Status(ErrorCode::kMalformedData, StrFormat("missing section %s", section));
    }
  }
  DEPSURF_RETURN_IF_ERROR(ValidateDiagnosticsArray(*report.Find("diagnostics")));
  std::set<std::string> names = CollectSpanNames(report);
  if (names.size() < min_distinct_spans) {
    return Status(ErrorCode::kMalformedData,
                  StrFormat("only %zu distinct span names, need %zu", names.size(),
                            min_distinct_spans));
  }
  const JsonValue* counters = report.Find("counters");
  for (const std::string& required : required_counters) {
    if (counters->Find(required) == nullptr) {
      return Status(ErrorCode::kMalformedData, "missing counter " + required);
    }
  }
  return Status::Ok();
}

Status ValidateDiagnosticsArray(const JsonValue& array, bool labeled) {
  if (array.kind != JsonValue::Kind::kArray) {
    return Status(ErrorCode::kMalformedData, "diagnostics is not an array");
  }
  for (size_t i = 0; i < array.array.size(); ++i) {
    const JsonValue& entry = array.array[i];
    if (entry.kind != JsonValue::Kind::kObject) {
      return Status(ErrorCode::kMalformedData,
                    StrFormat("diagnostics[%zu] is not an object", i));
    }
    const JsonValue* severity = entry.Find("severity");
    if (severity == nullptr || severity->kind != JsonValue::Kind::kString ||
        (severity->string != "warning" && severity->string != "degraded" &&
         severity->string != "fatal")) {
      return Status(ErrorCode::kMalformedData,
                    StrFormat("diagnostics[%zu] has a bad severity", i));
    }
    const JsonValue* subsystem = entry.Find("subsystem");
    static const char* kSubsystems[] = {"elf", "dwarf", "btf", "tracepoint", "syscall",
                                        "bpf"};
    bool subsystem_ok = subsystem != nullptr &&
                        subsystem->kind == JsonValue::Kind::kString;
    if (subsystem_ok) {
      subsystem_ok = false;
      for (const char* known : kSubsystems) {
        subsystem_ok |= subsystem->string == known;
      }
    }
    if (!subsystem_ok) {
      return Status(ErrorCode::kMalformedData,
                    StrFormat("diagnostics[%zu] has a bad subsystem", i));
    }
    const JsonValue* code = entry.Find("code");
    if (code == nullptr || code->kind != JsonValue::Kind::kString || code->string.empty()) {
      return Status(ErrorCode::kMalformedData,
                    StrFormat("diagnostics[%zu] is missing its error code", i));
    }
    const JsonValue* offset = entry.Find("offset");
    if (offset == nullptr || offset->kind != JsonValue::Kind::kNumber) {
      return Status(ErrorCode::kMalformedData,
                    StrFormat("diagnostics[%zu] is missing its offset", i));
    }
    const JsonValue* message = entry.Find("message");
    if (message == nullptr || message->kind != JsonValue::Kind::kString) {
      return Status(ErrorCode::kMalformedData,
                    StrFormat("diagnostics[%zu] is missing its message", i));
    }
    if (labeled) {
      const JsonValue* label = entry.Find("label");
      if (label == nullptr || label->kind != JsonValue::Kind::kString) {
        return Status(ErrorCode::kMalformedData,
                      StrFormat("diagnostics[%zu] is missing its label", i));
      }
    }
  }
  return Status::Ok();
}

Status ValidateDiagnosticsDoc(std::string_view json) {
  auto parsed = ParseJson(json);
  if (!parsed.ok()) {
    return parsed.TakeError();
  }
  const JsonValue& doc = *parsed;
  const JsonValue* schema = doc.Find("schema");
  if (schema == nullptr || schema->kind != JsonValue::Kind::kString ||
      schema->string != kDiagnosticsSchema) {
    return Status(ErrorCode::kMalformedData,
                  StrFormat("missing or wrong schema marker (want %s)", kDiagnosticsSchema));
  }
  const JsonValue* image = doc.Find("image");
  if (image == nullptr || image->kind != JsonValue::Kind::kString) {
    return Status(ErrorCode::kMalformedData, "missing \"image\" string");
  }
  const JsonValue* health = doc.Find("health");
  if (health == nullptr || health->kind != JsonValue::Kind::kObject) {
    return Status(ErrorCode::kMalformedData, "missing \"health\" object");
  }
  for (const char* subsystem : {"elf", "dwarf", "btf", "tracepoint", "syscall"}) {
    const JsonValue* state = health->Find(subsystem);
    if (state == nullptr || state->kind != JsonValue::Kind::kString ||
        (state->string != "clean" && state->string != "degraded" &&
         state->string != "missing")) {
      return Status(ErrorCode::kMalformedData,
                    StrFormat("health.%s is not clean/degraded/missing", subsystem));
    }
  }
  const JsonValue* fatal = doc.Find("fatal");
  if (fatal == nullptr || fatal->kind != JsonValue::Kind::kBool) {
    return Status(ErrorCode::kMalformedData, "missing \"fatal\" bool");
  }
  const JsonValue* entries = doc.Find("entries");
  if (entries == nullptr) {
    return Status(ErrorCode::kMalformedData, "missing \"entries\" array");
  }
  return ValidateDiagnosticsArray(*entries);
}

Status ValidateAnalysisDoc(std::string_view json) {
  auto parsed = ParseJson(json);
  if (!parsed.ok()) {
    return parsed.TakeError();
  }
  const JsonValue& doc = *parsed;
  // Mirrors kAnalysisSchema (src/analyzer/analyzer.h); obs cannot depend on
  // the analyzer layer, so the marker is checked by value.
  constexpr char kWantSchema[] = "depsurf.analysis.v1";
  const JsonValue* schema = doc.Find("schema");
  if (schema == nullptr || schema->kind != JsonValue::Kind::kString ||
      schema->string != kWantSchema) {
    return Status(ErrorCode::kMalformedData,
                  StrFormat("missing or wrong schema marker (want %s)", kWantSchema));
  }
  const JsonValue* object = doc.Find("object");
  if (object == nullptr || object->kind != JsonValue::Kind::kString) {
    return Status(ErrorCode::kMalformedData, "missing \"object\" string");
  }
  const JsonValue* against = doc.Find("against");
  if (against == nullptr ||
      (against->kind != JsonValue::Kind::kNull &&
       against->kind != JsonValue::Kind::kObject)) {
    return Status(ErrorCode::kMalformedData, "\"against\" must be null or an object");
  }
  if (against->kind == JsonValue::Kind::kObject) {
    const JsonValue* images = against->Find("images");
    if (images == nullptr || images->kind != JsonValue::Kind::kNumber) {
      return Status(ErrorCode::kMalformedData, "against.images is not a number");
    }
  }
  const JsonValue* programs = doc.Find("programs");
  if (programs == nullptr || programs->kind != JsonValue::Kind::kArray) {
    return Status(ErrorCode::kMalformedData, "missing \"programs\" array");
  }
  for (size_t i = 0; i < programs->array.size(); ++i) {
    const JsonValue& program = programs->array[i];
    for (const char* key : {"name", "section"}) {
      const JsonValue* member = program.Find(key);
      if (member == nullptr || member->kind != JsonValue::Kind::kString) {
        return Status(ErrorCode::kMalformedData,
                      StrFormat("programs[%zu].%s is not a string", i, key));
      }
    }
    for (const char* key : {"insns", "blocks", "reachable_insns", "helper_calls"}) {
      const JsonValue* member = program.Find(key);
      if (member == nullptr || member->kind != JsonValue::Kind::kNumber) {
        return Status(ErrorCode::kMalformedData,
                      StrFormat("programs[%zu].%s is not a number", i, key));
      }
    }
  }
  const JsonValue* relocs = doc.Find("relocs");
  if (relocs == nullptr || relocs->kind != JsonValue::Kind::kArray) {
    return Status(ErrorCode::kMalformedData, "missing \"relocs\" array");
  }
  for (size_t i = 0; i < relocs->array.size(); ++i) {
    const JsonValue& reloc = relocs->array[i];
    const JsonValue* index = reloc.Find("index");
    if (index == nullptr || index->kind != JsonValue::Kind::kNumber) {
      return Status(ErrorCode::kMalformedData,
                    StrFormat("relocs[%zu].index is not a number", i));
    }
    const JsonValue* kind = reloc.Find("kind");
    if (kind == nullptr || kind->kind != JsonValue::Kind::kString) {
      return Status(ErrorCode::kMalformedData,
                    StrFormat("relocs[%zu].kind is not a string", i));
    }
    for (const char* key : {"reachable", "unguarded"}) {
      const JsonValue* member = reloc.Find(key);
      if (member == nullptr || member->kind != JsonValue::Kind::kBool) {
        return Status(ErrorCode::kMalformedData,
                      StrFormat("relocs[%zu].%s is not a bool", i, key));
      }
    }
    if (against->kind == JsonValue::Kind::kObject) {
      const JsonValue* consequence = reloc.Find("consequence");
      if (consequence == nullptr || consequence->kind != JsonValue::Kind::kString) {
        return Status(ErrorCode::kMalformedData,
                      StrFormat("relocs[%zu].consequence is not a string "
                                "(required with \"against\")",
                                i));
      }
    }
  }
  const JsonValue* findings = doc.Find("findings");
  if (findings == nullptr || findings->kind != JsonValue::Kind::kArray) {
    return Status(ErrorCode::kMalformedData, "missing \"findings\" array");
  }
  constexpr const char* kFindingKinds[] = {"raw-offset-deref", "unguarded-reloc",
                                           "unknown-helper", "unreachable-reloc"};
  for (size_t i = 0; i < findings->array.size(); ++i) {
    const JsonValue& finding = findings->array[i];
    const JsonValue* kind = finding.Find("kind");
    bool known = false;
    if (kind != nullptr && kind->kind == JsonValue::Kind::kString) {
      for (const char* name : kFindingKinds) {
        known = known || kind->string == name;
      }
    }
    if (!known) {
      return Status(ErrorCode::kMalformedData,
                    StrFormat("findings[%zu].kind is not a known finding kind", i));
    }
    const JsonValue* program = finding.Find("program");
    if (program == nullptr || program->kind != JsonValue::Kind::kString) {
      return Status(ErrorCode::kMalformedData,
                    StrFormat("findings[%zu].program is not a string", i));
    }
    const JsonValue* insn_off = finding.Find("insn_off");
    if (insn_off == nullptr || insn_off->kind != JsonValue::Kind::kNumber) {
      return Status(ErrorCode::kMalformedData,
                    StrFormat("findings[%zu].insn_off is not a number", i));
    }
    const JsonValue* detail = finding.Find("detail");
    if (detail == nullptr || detail->kind != JsonValue::Kind::kString) {
      return Status(ErrorCode::kMalformedData,
                    StrFormat("findings[%zu].detail is not a string", i));
    }
    const JsonValue* remediation = finding.Find("remediation");
    if (remediation == nullptr || remediation->kind != JsonValue::Kind::kString) {
      return Status(ErrorCode::kMalformedData,
                    StrFormat("findings[%zu].remediation is not a string", i));
    }
  }
  const JsonValue* summary = doc.Find("summary");
  if (summary == nullptr || summary->kind != JsonValue::Kind::kObject) {
    return Status(ErrorCode::kMalformedData, "missing \"summary\" object");
  }
  const JsonValue* total = summary->Find("findings");
  if (total == nullptr || total->kind != JsonValue::Kind::kNumber) {
    return Status(ErrorCode::kMalformedData, "summary.findings is not a number");
  }
  double sum = 0;
  for (const char* key :
       {"raw_offset_deref", "unguarded_reloc", "unknown_helper", "unreachable_reloc"}) {
    const JsonValue* count = summary->Find(key);
    if (count == nullptr || count->kind != JsonValue::Kind::kNumber) {
      return Status(ErrorCode::kMalformedData,
                    StrFormat("summary.%s is not a number", key));
    }
    sum += count->number;
  }
  if (sum != total->number) {
    return Status(ErrorCode::kMalformedData,
                  "summary per-kind counts do not sum to summary.findings");
  }
  if (total->number != static_cast<double>(findings->array.size())) {
    return Status(ErrorCode::kMalformedData,
                  "summary.findings does not match the findings array length");
  }
  return Status::Ok();
}

Status ValidateRemediationDoc(std::string_view json) {
  auto parsed = ParseJson(json);
  if (!parsed.ok()) {
    return parsed.TakeError();
  }
  const JsonValue& doc = *parsed;
  // Mirrors kRemediationSchema (src/analyzer/remediation.h); obs cannot
  // depend on the analyzer layer, so the marker is checked by value.
  constexpr char kWantSchema[] = "depsurf.remediation.v1";
  const JsonValue* schema = doc.Find("schema");
  if (schema == nullptr || schema->kind != JsonValue::Kind::kString ||
      schema->string != kWantSchema) {
    return Status(ErrorCode::kMalformedData,
                  StrFormat("missing or wrong schema marker (want %s)", kWantSchema));
  }
  const JsonValue* object = doc.Find("object");
  if (object == nullptr || object->kind != JsonValue::Kind::kString) {
    return Status(ErrorCode::kMalformedData, "missing \"object\" string");
  }
  const JsonValue* against = doc.Find("against");
  if (against == nullptr ||
      (against->kind != JsonValue::Kind::kNull &&
       against->kind != JsonValue::Kind::kObject)) {
    return Status(ErrorCode::kMalformedData, "\"against\" must be null or an object");
  }
  if (against->kind == JsonValue::Kind::kObject) {
    const JsonValue* images = against->Find("images");
    if (images == nullptr || images->kind != JsonValue::Kind::kNumber) {
      return Status(ErrorCode::kMalformedData, "against.images is not a number");
    }
  }
  const JsonValue* items = doc.Find("remediations");
  if (items == nullptr || items->kind != JsonValue::Kind::kArray) {
    return Status(ErrorCode::kMalformedData, "missing \"remediations\" array");
  }
  size_t fixable_count = 0;
  for (size_t i = 0; i < items->array.size(); ++i) {
    const JsonValue& item = items->array[i];
    const JsonValue* finding = item.Find("finding");
    if (finding == nullptr || finding->kind != JsonValue::Kind::kObject) {
      return Status(ErrorCode::kMalformedData,
                    StrFormat("remediations[%zu].finding is not an object", i));
    }
    for (const char* key : {"kind", "program", "detail"}) {
      const JsonValue* member = finding->Find(key);
      if (member == nullptr || member->kind != JsonValue::Kind::kString) {
        return Status(ErrorCode::kMalformedData,
                      StrFormat("remediations[%zu].finding.%s is not a string", i, key));
      }
    }
    const JsonValue* insn_off = finding->Find("insn_off");
    if (insn_off == nullptr || insn_off->kind != JsonValue::Kind::kNumber) {
      return Status(ErrorCode::kMalformedData,
                    StrFormat("remediations[%zu].finding.insn_off is not a number", i));
    }
    const JsonValue* fixable = item.Find("fixable");
    if (fixable == nullptr || fixable->kind != JsonValue::Kind::kBool) {
      return Status(ErrorCode::kMalformedData,
                    StrFormat("remediations[%zu].fixable is not a bool", i));
    }
    if (fixable->boolean) {
      ++fixable_count;
      const JsonValue* off = item.Find("insn_off");
      if (off == nullptr || off->kind != JsonValue::Kind::kNumber) {
        return Status(ErrorCode::kMalformedData,
                      StrFormat("remediations[%zu].insn_off is not a number", i));
      }
      const JsonValue* scratch = item.Find("scratch_reg");
      if (scratch == nullptr || scratch->kind != JsonValue::Kind::kNumber) {
        return Status(ErrorCode::kMalformedData,
                      StrFormat("remediations[%zu].scratch_reg is not a number", i));
      }
      for (const char* key : {"struct", "field", "guard"}) {
        const JsonValue* member = item.Find(key);
        if (member == nullptr || member->kind != JsonValue::Kind::kString) {
          return Status(ErrorCode::kMalformedData,
                        StrFormat("remediations[%zu].%s is not a string", i, key));
        }
      }
    } else {
      const JsonValue* reason = item.Find("reason");
      if (reason == nullptr || reason->kind != JsonValue::Kind::kString) {
        return Status(ErrorCode::kMalformedData,
                      StrFormat("remediations[%zu].reason is not a string", i));
      }
    }
  }
  const JsonValue* verification = doc.Find("verification");
  if (verification == nullptr ||
      (verification->kind != JsonValue::Kind::kNull &&
       verification->kind != JsonValue::Kind::kObject)) {
    return Status(ErrorCode::kMalformedData,
                  "\"verification\" must be null or an object");
  }
  if (verification->kind == JsonValue::Kind::kObject) {
    for (const char* key : {"findings_before", "targeted", "findings_after",
                            "targeted_remaining", "new_findings"}) {
      const JsonValue* member = verification->Find(key);
      if (member == nullptr || member->kind != JsonValue::Kind::kNumber) {
        return Status(ErrorCode::kMalformedData,
                      StrFormat("verification.%s is not a number", key));
      }
    }
    const JsonValue* ok = verification->Find("ok");
    if (ok == nullptr || ok->kind != JsonValue::Kind::kBool) {
      return Status(ErrorCode::kMalformedData, "verification.ok is not a bool");
    }
  }
  const JsonValue* summary = doc.Find("summary");
  if (summary == nullptr || summary->kind != JsonValue::Kind::kObject) {
    return Status(ErrorCode::kMalformedData, "missing \"summary\" object");
  }
  const JsonValue* total = summary->Find("findings");
  const JsonValue* fixable = summary->Find("fixable");
  const JsonValue* unfixable = summary->Find("unfixable");
  for (const auto& [name, member] :
       {std::pair<const char*, const JsonValue*>{"findings", total},
        {"fixable", fixable},
        {"unfixable", unfixable}}) {
    if (member == nullptr || member->kind != JsonValue::Kind::kNumber) {
      return Status(ErrorCode::kMalformedData,
                    StrFormat("summary.%s is not a number", name));
    }
  }
  if (fixable->number + unfixable->number != total->number) {
    return Status(ErrorCode::kMalformedData,
                  "summary.fixable + summary.unfixable does not equal summary.findings");
  }
  if (total->number != static_cast<double>(items->array.size())) {
    return Status(ErrorCode::kMalformedData,
                  "summary.findings does not match the remediations array length");
  }
  if (fixable->number != static_cast<double>(fixable_count)) {
    return Status(ErrorCode::kMalformedData,
                  "summary.fixable does not match the fixable remediations count");
  }
  return Status::Ok();
}

Status ValidateFuzzCampaignDoc(std::string_view json) {
  auto parsed = ParseJson(json);
  if (!parsed.ok()) {
    return parsed.TakeError();
  }
  const JsonValue& doc = *parsed;
  // Mirrors kFuzzCampaignSchema (src/fuzz/fuzz_campaign.h); obs cannot
  // depend on the fuzz layer, so the marker is checked by value.
  constexpr char kWantSchema[] = "depsurf.fuzz_campaign.v1";
  const JsonValue* schema = doc.Find("schema");
  if (schema == nullptr || schema->kind != JsonValue::Kind::kString ||
      schema->string != kWantSchema) {
    return Status(ErrorCode::kMalformedData,
                  StrFormat("missing or wrong schema marker (want %s)", kWantSchema));
  }
  const JsonValue* mode = doc.Find("mode");
  if (mode == nullptr || mode->kind != JsonValue::Kind::kString ||
      (mode->string != "image" && mode->string != "object")) {
    return Status(ErrorCode::kMalformedData,
                  "\"mode\" is not \"image\" or \"object\"");
  }
  const JsonValue* config = doc.Find("config");
  if (config == nullptr || config->kind != JsonValue::Kind::kObject) {
    return Status(ErrorCode::kMalformedData, "missing \"config\" object");
  }
  for (const char* key : {"rounds", "seed", "time_budget_ms", "max_ledger_entries"}) {
    const JsonValue* member = config->Find(key);
    if (member == nullptr || member->kind != JsonValue::Kind::kNumber) {
      return Status(ErrorCode::kMalformedData,
                    StrFormat("config.%s is not a number", key));
    }
  }
  const JsonValue* seeds = doc.Find("seeds");
  if (seeds == nullptr || seeds->kind != JsonValue::Kind::kArray ||
      seeds->array.empty()) {
    return Status(ErrorCode::kMalformedData, "missing or empty \"seeds\" array");
  }
  for (size_t i = 0; i < seeds->array.size(); ++i) {
    if (seeds->array[i].kind != JsonValue::Kind::kString) {
      return Status(ErrorCode::kMalformedData,
                    StrFormat("seeds[%zu] is not a string", i));
    }
  }
  const JsonValue* candidates = doc.Find("candidates");
  if (candidates == nullptr || candidates->kind != JsonValue::Kind::kNumber) {
    return Status(ErrorCode::kMalformedData, "missing \"candidates\" number");
  }
  const JsonValue* coverage = doc.Find("coverage");
  if (coverage == nullptr || coverage->kind != JsonValue::Kind::kObject) {
    return Status(ErrorCode::kMalformedData, "missing \"coverage\" object");
  }
  const JsonValue* tuples = coverage->Find("tuples");
  const JsonValue* keys = coverage->Find("keys");
  if (tuples == nullptr || tuples->kind != JsonValue::Kind::kNumber) {
    return Status(ErrorCode::kMalformedData, "coverage.tuples is not a number");
  }
  if (keys == nullptr || keys->kind != JsonValue::Kind::kArray) {
    return Status(ErrorCode::kMalformedData, "coverage.keys is not an array");
  }
  if (tuples->number != static_cast<double>(keys->array.size())) {
    return Status(ErrorCode::kMalformedData,
                  "coverage.tuples does not match coverage.keys length");
  }
  const JsonValue* growth = doc.Find("growth");
  if (growth == nullptr || growth->kind != JsonValue::Kind::kArray ||
      growth->array.empty()) {
    return Status(ErrorCode::kMalformedData, "missing or empty \"growth\" array");
  }
  double prev_round = -1;
  double prev_tuples = -1;
  for (size_t i = 0; i < growth->array.size(); ++i) {
    const JsonValue* round = growth->array[i].Find("round");
    const JsonValue* count = growth->array[i].Find("tuples");
    if (round == nullptr || round->kind != JsonValue::Kind::kNumber ||
        count == nullptr || count->kind != JsonValue::Kind::kNumber) {
      return Status(ErrorCode::kMalformedData,
                    StrFormat("growth[%zu] lacks numeric round/tuples", i));
    }
    if (round->number < prev_round || count->number < prev_tuples) {
      return Status(ErrorCode::kMalformedData,
                    StrFormat("growth[%zu] is not monotonic", i));
    }
    prev_round = round->number;
    prev_tuples = count->number;
  }
  if (prev_tuples != tuples->number) {
    return Status(ErrorCode::kMalformedData,
                  "growth curve does not end at the coverage total");
  }
  const JsonValue* kinds = doc.Find("kinds");
  if (kinds == nullptr || kinds->kind != JsonValue::Kind::kArray) {
    return Status(ErrorCode::kMalformedData, "missing \"kinds\" array");
  }
  for (size_t i = 0; i < kinds->array.size(); ++i) {
    const JsonValue* name = kinds->array[i].Find("kind");
    const JsonValue* attempts = kinds->array[i].Find("attempts");
    const JsonValue* novel = kinds->array[i].Find("novel");
    if (name == nullptr || name->kind != JsonValue::Kind::kString ||
        attempts == nullptr || attempts->kind != JsonValue::Kind::kNumber ||
        novel == nullptr || novel->kind != JsonValue::Kind::kNumber) {
      return Status(ErrorCode::kMalformedData,
                    StrFormat("kinds[%zu] lacks kind/attempts/novel", i));
    }
    if (novel->number > attempts->number) {
      return Status(ErrorCode::kMalformedData,
                    StrFormat("kinds[%zu].novel exceeds its attempts", i));
    }
  }
  const JsonValue* corpus = doc.Find("corpus");
  if (corpus == nullptr || corpus->kind != JsonValue::Kind::kArray ||
      corpus->array.empty()) {
    return Status(ErrorCode::kMalformedData, "missing or empty \"corpus\" array");
  }
  for (size_t i = 0; i < corpus->array.size(); ++i) {
    const JsonValue& entry = corpus->array[i];
    for (const char* key :
         {"index", "round", "fault_seed", "parent", "size", "tuple_count"}) {
      const JsonValue* member = entry.Find(key);
      if (member == nullptr || member->kind != JsonValue::Kind::kNumber) {
        return Status(ErrorCode::kMalformedData,
                      StrFormat("corpus[%zu].%s is not a number", i, key));
      }
    }
    for (const char* key : {"name", "kind", "description"}) {
      const JsonValue* member = entry.Find(key);
      if (member == nullptr || member->kind != JsonValue::Kind::kString) {
        return Status(ErrorCode::kMalformedData,
                      StrFormat("corpus[%zu].%s is not a string", i, key));
      }
    }
    const JsonValue* is_seed = entry.Find("seed");
    if (is_seed == nullptr || is_seed->kind != JsonValue::Kind::kBool) {
      return Status(ErrorCode::kMalformedData,
                    StrFormat("corpus[%zu].seed is not a bool", i));
    }
    const JsonValue* index = entry.Find("index");
    if (index->number != static_cast<double>(i)) {
      return Status(ErrorCode::kMalformedData,
                    StrFormat("corpus[%zu].index is out of order", i));
    }
    const JsonValue* parent = entry.Find("parent");
    if (parent->number >= static_cast<double>(i) && !is_seed->boolean) {
      return Status(ErrorCode::kMalformedData,
                    StrFormat("corpus[%zu].parent is not an earlier entry", i));
    }
    const JsonValue* new_tuples = entry.Find("new_tuples");
    if (new_tuples == nullptr || new_tuples->kind != JsonValue::Kind::kArray) {
      return Status(ErrorCode::kMalformedData,
                    StrFormat("corpus[%zu].new_tuples is not an array", i));
    }
  }
  const JsonValue* minimized = doc.Find("minimized");
  if (minimized == nullptr || minimized->kind != JsonValue::Kind::kArray) {
    return Status(ErrorCode::kMalformedData, "missing \"minimized\" array");
  }
  for (size_t i = 0; i < minimized->array.size(); ++i) {
    const JsonValue& index = minimized->array[i];
    if (index.kind != JsonValue::Kind::kNumber ||
        index.number >= static_cast<double>(corpus->array.size())) {
      return Status(ErrorCode::kMalformedData,
                    StrFormat("minimized[%zu] is not a corpus index", i));
    }
  }
  const JsonValue* oracle = doc.Find("oracle");
  if (oracle == nullptr || oracle->kind != JsonValue::Kind::kObject) {
    return Status(ErrorCode::kMalformedData, "missing \"oracle\" object");
  }
  const JsonValue* disagreements = oracle->Find("disagreements");
  if (disagreements == nullptr ||
      disagreements->kind != JsonValue::Kind::kArray) {
    return Status(ErrorCode::kMalformedData,
                  "oracle.disagreements is not an array");
  }
  for (size_t i = 0; i < disagreements->array.size(); ++i) {
    const JsonValue* violation = disagreements->array[i].Find("violation");
    const JsonValue* fault_seed = disagreements->array[i].Find("fault_seed");
    if (violation == nullptr || violation->kind != JsonValue::Kind::kString ||
        fault_seed == nullptr || fault_seed->kind != JsonValue::Kind::kNumber) {
      return Status(ErrorCode::kMalformedData,
                    StrFormat("oracle.disagreements[%zu] lacks its replay key", i));
    }
  }
  const JsonValue* hangs = doc.Find("hangs");
  if (hangs == nullptr || hangs->kind != JsonValue::Kind::kArray) {
    return Status(ErrorCode::kMalformedData, "missing \"hangs\" array");
  }
  const JsonValue* exit_code = doc.Find("exit_code");
  if (exit_code == nullptr || exit_code->kind != JsonValue::Kind::kNumber ||
      (exit_code->number != 0 && exit_code->number != 1 && exit_code->number != 2)) {
    return Status(ErrorCode::kMalformedData, "\"exit_code\" is not 0, 1, or 2");
  }
  double want_exit = 0;
  if (!hangs->array.empty()) {
    want_exit = 1;
  } else if (!disagreements->array.empty()) {
    want_exit = 2;
  }
  if (exit_code->number != want_exit) {
    return Status(ErrorCode::kMalformedData,
                  "exit_code disagrees with the hang/disagreement arrays");
  }
  return Status::Ok();
}

Status ValidateServeReportDoc(std::string_view json) {
  auto parsed = ParseJson(json);
  if (!parsed.ok()) {
    return parsed.TakeError();
  }
  const JsonValue& doc = *parsed;
  // Mirrors kServeReportSchema (src/serve/serve.h); obs cannot depend on
  // the serve layer, so the marker is checked by value.
  constexpr char kWantSchema[] = "depsurf.serve_report.v1";
  const JsonValue* schema = doc.Find("schema");
  if (schema == nullptr || schema->kind != JsonValue::Kind::kString ||
      schema->string != kWantSchema) {
    return Status(ErrorCode::kMalformedData,
                  StrFormat("missing or wrong schema marker (want %s)", kWantSchema));
  }
  const JsonValue* jobs = doc.Find("jobs");
  if (jobs == nullptr || jobs->kind != JsonValue::Kind::kNumber || jobs->number < 0) {
    return Status(ErrorCode::kMalformedData, "\"jobs\" is not a nonnegative number");
  }
  const JsonValue* datasets = doc.Find("datasets");
  if (datasets == nullptr || datasets->kind != JsonValue::Kind::kArray ||
      datasets->array.empty()) {
    return Status(ErrorCode::kMalformedData, "missing or empty \"datasets\" array");
  }
  for (size_t i = 0; i < datasets->array.size(); ++i) {
    const JsonValue& entry = datasets->array[i];
    const JsonValue* path = entry.Find("path");
    if (path == nullptr || path->kind != JsonValue::Kind::kString) {
      return Status(ErrorCode::kMalformedData,
                    StrFormat("datasets[%zu].path is not a string", i));
    }
    const JsonValue* format = entry.Find("format");
    if (format == nullptr || format->kind != JsonValue::Kind::kString ||
        format->string != "v2") {
      return Status(ErrorCode::kMalformedData,
                    StrFormat("datasets[%zu].format is not \"v2\"", i));
    }
    const JsonValue* images = entry.Find("images");
    if (images == nullptr || images->kind != JsonValue::Kind::kNumber ||
        images->number < 0) {
      return Status(ErrorCode::kMalformedData,
                    StrFormat("datasets[%zu].images is not a count", i));
    }
  }
  const JsonValue* requests = doc.Find("requests");
  const JsonValue* ok = doc.Find("ok");
  const JsonValue* errors = doc.Find("errors");
  for (const auto& [name, member] :
       {std::pair<const char*, const JsonValue*>{"requests", requests},
        {"ok", ok},
        {"errors", errors}}) {
    if (member == nullptr || member->kind != JsonValue::Kind::kNumber ||
        member->number < 0) {
      return Status(ErrorCode::kMalformedData,
                    StrFormat("\"%s\" is not a nonnegative number", name));
    }
  }
  if (ok->number + errors->number != requests->number) {
    return Status(ErrorCode::kMalformedData, "ok + errors != requests");
  }
  const JsonValue* cache = doc.Find("cache");
  if (cache == nullptr || cache->kind != JsonValue::Kind::kObject) {
    return Status(ErrorCode::kMalformedData, "missing \"cache\" object");
  }
  for (const char* key : {"hits", "misses", "entries", "capacity"}) {
    const JsonValue* member = cache->Find(key);
    if (member == nullptr || member->kind != JsonValue::Kind::kNumber ||
        member->number < 0) {
      return Status(ErrorCode::kMalformedData,
                    StrFormat("cache.%s is not a nonnegative number", key));
    }
  }
  if (cache->Find("hits")->number + cache->Find("misses")->number != ok->number) {
    return Status(ErrorCode::kMalformedData, "cache hits + misses != ok responses");
  }
  if (cache->Find("entries")->number > cache->Find("misses")->number) {
    return Status(ErrorCode::kMalformedData, "cache entries exceed recorded misses");
  }
  if (cache->Find("entries")->number > cache->Find("capacity")->number) {
    return Status(ErrorCode::kMalformedData, "cache entries exceed the capacity");
  }
  return Status::Ok();
}

std::string CanonicalMaskedJson(const JsonValue& value) {
  const JsonValue* schema = value.Find("schema");
  if (schema != nullptr && schema->kind == JsonValue::Kind::kString &&
      (schema->string == kRunReportSchema || schema->string == kRunReportAggSchema)) {
    JsonValue sorted = value;
    for (auto& [key, member] : sorted.object) {
      if (key == "spans" && member.kind == JsonValue::Kind::kArray) {
        std::sort(member.array.begin(), member.array.end(),
                  [](const JsonValue& a, const JsonValue& b) {
                    return CompareReportSpans(a, b) < 0;
                  });
      }
    }
    std::string out;
    AppendCanonical(out, sorted);
    out += "\n";
    return out;
  }
  std::string out;
  AppendCanonical(out, value);
  out += "\n";
  return out;
}

}  // namespace obs
}  // namespace depsurf
