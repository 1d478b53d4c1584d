#include "src/obs/json_lint.h"

#include <algorithm>
#include <cmath>

#include "src/obs/diagnostics.h"
#include "src/obs/json_reader.h"
#include "src/obs/metrics.h"
#include "src/obs/profile.h"
#include "src/obs/run_report.h"
#include "src/util/str_util.h"

namespace depsurf {
namespace obs {

namespace {

// Containers nest at most this deep (a study build's run reports nest 8),
// so no document can exhaust the stack of this recursive builder. The
// reader itself keeps no limit: only the tree builder recurses.
constexpr size_t kMaxDepth = 256;

// Reads the next value into `value`, with `depth` containers open around it.
bool ReadTree(JsonReader& reader, JsonValue& value, size_t depth) {
  const int c = reader.Peek();
  switch (c) {
    case JsonReader::kEnd:
      return reader.Fail("unexpected end of input");
    case '{':
    case '[':
      if (depth == kMaxDepth) {
        return reader.Fail("nesting deeper than 256");
      }
      if (c == '{') {
        value.kind = JsonValue::Kind::kObject;
        return reader.ReadObject([&](std::string& key) {
          value.object.emplace_back(std::move(key), JsonValue());
          return ReadTree(reader, value.object.back().second, depth + 1);
        });
      }
      value.kind = JsonValue::Kind::kArray;
      return reader.ReadArray([&] {
        return ReadTree(reader, value.array.emplace_back(), depth + 1);
      });
    case '"':
      value.kind = JsonValue::Kind::kString;
      return reader.ReadString(&value.string);
    case 't':
    case 'f':
      value.kind = JsonValue::Kind::kBool;
      value.boolean = c == 't';
      return reader.SkipKeyword(value.boolean ? "true" : "false");
    case 'n':
      return reader.SkipKeyword("null");
    default:
      value.kind = JsonValue::Kind::kNumber;
      return reader.ReadNumber(&value.number);
  }
}

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

// The canonical form is built by hand, not through JsonWriter: it is the
// compact form `metrics canon` defines (no spaces, numbers as integers or
// %.17g), and `contract` hashes it, so it keeps its own syntax.
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

Result<JsonValue> ParseJson(std::string_view text) {
  JsonReader reader(text);
  JsonValue value;
  if (!ReadTree(reader, value, 0) || !reader.ReadEnd()) {
    return Error(ErrorCode::kMalformedData, reader.error());
  }
  return value;
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

using namespace want;

namespace {

bool InList(std::string_view value, std::string_view list) {
  for (size_t start = 0;;) {
    const size_t bar = list.find('|', start);
    if (list.substr(start, bar - start) == value) {
      return true;
    }
    if (bar == std::string_view::npos) {
      return false;
    }
    start = bar + 1;
  }
}

bool Holds(const JsonValue* value, const JsonWant& want) {
  if (value == nullptr) {
    return false;
  }
  using Kind = JsonValue::Kind;
  switch (want.is) {
    case JsonWant::Is::kString:
      return value->kind == Kind::kString;
    case JsonWant::Is::kNonEmptyString:
      return value->kind == Kind::kString && !value->string.empty();
    case JsonWant::Is::kNumber:
      return value->kind == Kind::kNumber;
    case JsonWant::Is::kCount:
      return value->kind == Kind::kNumber && std::isfinite(value->number) && value->number >= 0;
    case JsonWant::Is::kBool:
      return value->kind == Kind::kBool;
    case JsonWant::Is::kArray:
      return value->kind == Kind::kArray;
    case JsonWant::Is::kNonEmptyArray:
      return value->kind == Kind::kArray && !value->array.empty();
    case JsonWant::Is::kObject:
      return value->kind == Kind::kObject;
    case JsonWant::Is::kNullOrObject:
      return value->kind == Kind::kNull || value->kind == Kind::kObject;
    case JsonWant::Is::kOneOf:
      return value->kind == Kind::kString && InList(value->string, want.one_of);
  }
  return false;
}

std::string WantText(const JsonWant& want) {
  switch (want.is) {
    case JsonWant::Is::kString:
      return "string";
    case JsonWant::Is::kNonEmptyString:
      return "non-empty string";
    case JsonWant::Is::kNumber:
      return "number";
    case JsonWant::Is::kCount:
      return "count";
    case JsonWant::Is::kBool:
      return "bool";
    case JsonWant::Is::kArray:
      return "array";
    case JsonWant::Is::kNonEmptyArray:
      return "non-empty array";
    case JsonWant::Is::kObject:
      return "object";
    case JsonWant::Is::kNullOrObject:
      return "null or object";
    case JsonWant::Is::kOneOf:
      return want.one_of.find('|') == std::string_view::npos
                 ? "\"" + std::string(want.one_of) + "\""
                 : "one of " + std::string(want.one_of);
  }
  return "";
}

// The JSON kind of a value, with the value itself for numbers and strings.
std::string Describe(const JsonValue* value) {
  if (value == nullptr) {
    return "nothing";
  }
  switch (value->kind) {
    case JsonValue::Kind::kNull:
      return "null";
    case JsonValue::Kind::kBool:
      return "bool";
    case JsonValue::Kind::kNumber:
      return StrFormat("number %g", value->number);
    case JsonValue::Kind::kString:
      return "string \"" + JsonEscape(value->string.substr(0, 32)) +
             (value->string.size() > 32 ? "...\"" : "\"");
    case JsonValue::Kind::kArray:
      return value->array.empty() ? "empty array" : "array";
    case JsonValue::Kind::kObject:
      return "object";
  }
  return "";
}

std::string MemberPath(std::string_view path, std::string_view key) {
  return path.empty() ? std::string(key) : std::string(path) + "." + std::string(key);
}

constexpr JsonMember kAgainst[] = {{"images", kCount}};

constexpr JsonMember kDiagEntry[] = {
    {"severity", OneOf("warning|degraded|fatal")},
    {"subsystem", OneOf("elf|dwarf|btf|tracepoint|syscall|bpf")},
    {"code", kNonEmptyString},
    {"offset", kNumber},
    {"message", kString}};

}  // namespace

Status Invalid(std::string message) {
  return Status(ErrorCode::kMalformedData, std::move(message));
}

uint64_t CountValue(const JsonValue* value) {
  if (value == nullptr || value->kind != JsonValue::Kind::kNumber || !(value->number > 0)) {
    return 0;
  }
  return value->number < 18446744073709551616.0 ? static_cast<uint64_t>(value->number)
                                                 : UINT64_MAX;
}

Status CheckValue(const JsonValue* value, std::string_view path, const JsonWant& want) {
  if (!Holds(value, want)) {
    return Invalid((path.empty() ? std::string("document") : std::string(path)) + ": want " +
                   WantText(want) + ", got " + Describe(value));
  }
  const JsonShape shape(want.shape, want.shape_size);
  if (shape.empty() || value->kind == JsonValue::Kind::kNull) {
    return Status::Ok();
  }
  return value->kind == JsonValue::Kind::kArray ? CheckEach(*value, path, shape)
                                                : CheckMembers(*value, path, shape);
}

Status CheckMembers(const JsonValue& object, std::string_view path, JsonShape shape) {
  DEPSURF_RETURN_IF_ERROR(CheckValue(&object, path, kObject));
  for (const JsonMember& member : shape) {
    DEPSURF_RETURN_IF_ERROR(
        CheckValue(object.Find(member.key), MemberPath(path, member.key), member.want));
  }
  return Status::Ok();
}

Status CheckEach(const JsonValue& array, std::string_view path, JsonShape shape) {
  DEPSURF_RETURN_IF_ERROR(CheckValue(&array, path, kArray));
  for (size_t i = 0; i < array.array.size(); ++i) {
    DEPSURF_RETURN_IF_ERROR(
        CheckMembers(array.array[i], std::string(path) + StrFormat("[%zu]", i), shape));
  }
  return Status::Ok();
}

Result<JsonValue> ParseSchemaDoc(std::string_view json, std::string_view marker,
                                 JsonShape shape) {
  DEPSURF_ASSIGN_OR_RETURN(doc, ParseJson(json));
  DEPSURF_RETURN_IF_ERROR(CheckValue(doc.Find("schema"), "schema", OneOf(marker)));
  DEPSURF_RETURN_IF_ERROR(CheckMembers(doc, "", shape));
  return doc;
}

Status ValidateRunReport(std::string_view json, size_t min_distinct_spans,
                         const std::vector<std::string>& required_counters) {
  static constexpr JsonMember kReport[] = {{"spans", kArray},
                                           {"counters", kObject},
                                           {"gauges", kObject},
                                           {"histograms", kObject},
                                           {"diagnostics", ArrayOf(kDiagEntry)}};
  DEPSURF_ASSIGN_OR_RETURN(report, ParseSchemaDoc(json, kRunReportSchema, kReport));
  std::set<std::string> names = CollectSpanNames(report);
  if (names.size() < min_distinct_spans) {
    return Invalid(StrFormat("only %zu distinct span names, need %zu", names.size(),
                             min_distinct_spans));
  }
  for (const std::string& required : required_counters) {
    if (report.Find("counters")->Find(required) == nullptr) {
      return Invalid("missing counter " + required);
    }
  }
  return Status::Ok();
}

Status ValidateDiagnosticsArray(const JsonValue& array, bool labeled) {
  static constexpr JsonMember kLabel[] = {{"label", kString}};
  DEPSURF_RETURN_IF_ERROR(CheckEach(array, "diagnostics", kDiagEntry));
  return labeled ? CheckEach(array, "diagnostics", kLabel) : Status::Ok();
}

Status ValidateDiagnosticsDoc(std::string_view json) {
  static constexpr JsonWant kState = OneOf("clean|degraded|missing");
  static constexpr JsonMember kHealth[] = {
      {"elf", kState}, {"dwarf", kState}, {"btf", kState}, {"tracepoint", kState},
      {"syscall", kState}};
  static constexpr JsonMember kDoc[] = {{"image", kString},
                                        {"health", Object(kHealth)},
                                        {"fatal", kBool},
                                        {"entries", ArrayOf(kDiagEntry)}};
  auto doc = ParseSchemaDoc(json, kDiagnosticsSchema, kDoc);
  return doc.ok() ? Status::Ok() : Status(doc.TakeError());
}

Status ValidateAnalysisDoc(std::string_view json) {
  static constexpr JsonMember kProgram[] = {
      {"name", kString},  {"section", kString},        {"insns", kCount},
      {"blocks", kCount}, {"reachable_insns", kCount}, {"helper_calls", kCount}};
  static constexpr JsonMember kReloc[] = {
      {"index", kCount}, {"kind", kString}, {"reachable", kBool}, {"unguarded", kBool}};
  static constexpr JsonMember kFinding[] = {
      {"kind", OneOf("raw-offset-deref|unguarded-reloc|unknown-helper|unreachable-reloc")},
      {"program", kString},
      {"insn_off", kCount},
      {"detail", kString},
      {"remediation", kString}};
  static constexpr JsonMember kSummary[] = {{"findings", kCount},
                                            {"raw_offset_deref", kCount},
                                            {"unguarded_reloc", kCount},
                                            {"unknown_helper", kCount},
                                            {"unreachable_reloc", kCount}};
  static constexpr JsonMember kDoc[] = {
      {"object", kString},         {"against", NullOr(kAgainst)},
      {"programs", ArrayOf(kProgram)}, {"relocs", ArrayOf(kReloc)},
      {"findings", ArrayOf(kFinding)}, {"summary", Object(kSummary)}};
  static constexpr JsonMember kConsequence[] = {{"consequence", kString}};
  // Mirrors kAnalysisSchema (src/analyzer/analyzer.h); obs cannot depend on
  // the analyzer layer, so the marker is checked by value.
  DEPSURF_ASSIGN_OR_RETURN(doc, ParseSchemaDoc(json, "depsurf.analysis.v1", kDoc));
  // "against" is null, or an object holding "images": then every reloc
  // carries its consequence.
  if (doc.Find("against")->Find("images") != nullptr) {
    DEPSURF_RETURN_IF_ERROR(CheckEach(*doc.Find("relocs"), "relocs", kConsequence));
  }
  const JsonValue& summary = *doc.Find("summary");
  const double total = summary.Find("findings")->number;
  double sum = 0;
  for (const char* key :
       {"raw_offset_deref", "unguarded_reloc", "unknown_helper", "unreachable_reloc"}) {
    sum += summary.Find(key)->number;
  }
  if (sum != total) {
    return Invalid("summary per-kind counts do not sum to summary.findings");
  }
  if (total != static_cast<double>(doc.Find("findings")->array.size())) {
    return Invalid("summary.findings does not match the findings array length");
  }
  return Status::Ok();
}

Status ValidateRemediationDoc(std::string_view json) {
  static constexpr JsonMember kFinding[] = {
      {"kind", kString}, {"program", kString}, {"detail", kString}, {"insn_off", kCount}};
  static constexpr JsonMember kItem[] = {{"finding", Object(kFinding)}, {"fixable", kBool}};
  static constexpr JsonMember kGuard[] = {{"insn_off", kCount},  {"scratch_reg", kNumber},
                                          {"struct", kString},   {"field", kString},
                                          {"guard", kString}};
  static constexpr JsonMember kRefusal[] = {{"reason", kString}};
  static constexpr JsonMember kVerification[] = {
      {"findings_before", kCount},    {"targeted", kCount},     {"findings_after", kCount},
      {"targeted_remaining", kCount}, {"new_findings", kCount}, {"ok", kBool}};
  static constexpr JsonMember kSummary[] = {
      {"findings", kCount}, {"fixable", kCount}, {"unfixable", kCount}};
  static constexpr JsonMember kDoc[] = {{"object", kString},
                                        {"against", NullOr(kAgainst)},
                                        {"remediations", ArrayOf(kItem)},
                                        {"verification", NullOr(kVerification)},
                                        {"summary", Object(kSummary)}};
  // Mirrors kRemediationSchema (src/analyzer/remediation.h); obs cannot
  // depend on the analyzer layer, so the marker is checked by value.
  DEPSURF_ASSIGN_OR_RETURN(doc, ParseSchemaDoc(json, "depsurf.remediation.v1", kDoc));
  const std::vector<JsonValue>& items = doc.Find("remediations")->array;
  size_t fixable_count = 0;
  for (size_t i = 0; i < items.size(); ++i) {
    // A fixable item carries its guard insertion, a refused one its reason.
    const bool fixable = items[i].Find("fixable")->boolean;
    fixable_count += fixable ? 1 : 0;
    DEPSURF_RETURN_IF_ERROR(CheckMembers(items[i], StrFormat("remediations[%zu]", i),
                                         fixable ? JsonShape(kGuard) : JsonShape(kRefusal)));
  }
  const JsonValue& summary = *doc.Find("summary");
  const double total = summary.Find("findings")->number;
  const double fixable = summary.Find("fixable")->number;
  if (fixable + summary.Find("unfixable")->number != total) {
    return Invalid("summary.fixable + summary.unfixable does not equal summary.findings");
  }
  if (total != static_cast<double>(items.size())) {
    return Invalid("summary.findings does not match the remediations array length");
  }
  if (fixable != static_cast<double>(fixable_count)) {
    return Invalid("summary.fixable does not match the fixable remediations count");
  }
  return Status::Ok();
}

Status ValidateFuzzCampaignDoc(std::string_view json) {
  static constexpr JsonMember kConfig[] = {{"rounds", kCount},
                                           {"seed", kCount},
                                           {"time_budget_ms", kCount},
                                           {"max_ledger_entries", kCount}};
  static constexpr JsonMember kCoverage[] = {{"tuples", kCount}, {"keys", kArray}};
  static constexpr JsonMember kGrowth[] = {{"round", kCount}, {"tuples", kCount}};
  static constexpr JsonMember kKind[] = {
      {"kind", kString}, {"attempts", kCount}, {"novel", kCount}};
  static constexpr JsonMember kEntry[] = {
      {"index", kCount},  {"round", kCount},  {"fault_seed", kCount},
      {"parent", kCount}, {"size", kCount},   {"tuple_count", kCount},
      {"name", kString},  {"kind", kString},  {"description", kString},
      {"seed", kBool},    {"new_tuples", kArray}};
  static constexpr JsonMember kDisagreement[] = {{"violation", kString},
                                                 {"fault_seed", kCount}};
  static constexpr JsonMember kOracle[] = {{"disagreements", ArrayOf(kDisagreement)}};
  static constexpr JsonMember kDoc[] = {
      {"mode", OneOf("image|object")},  {"config", Object(kConfig)},
      {"seeds", kNonEmptyArray},        {"candidates", kCount},
      {"coverage", Object(kCoverage)},  {"growth", NonEmptyArrayOf(kGrowth)},
      {"kinds", ArrayOf(kKind)},        {"corpus", NonEmptyArrayOf(kEntry)},
      {"minimized", kArray},            {"oracle", Object(kOracle)},
      {"hangs", kArray},                {"exit_code", kNumber}};
  // Mirrors kFuzzCampaignSchema (src/fuzz/fuzz_campaign.h); obs cannot
  // depend on the fuzz layer, so the marker is checked by value.
  DEPSURF_ASSIGN_OR_RETURN(doc, ParseSchemaDoc(json, "depsurf.fuzz_campaign.v1", kDoc));
  const std::vector<JsonValue>& seeds = doc.Find("seeds")->array;
  for (size_t i = 0; i < seeds.size(); ++i) {
    DEPSURF_RETURN_IF_ERROR(CheckValue(&seeds[i], StrFormat("seeds[%zu]", i), kString));
  }
  const JsonValue& coverage = *doc.Find("coverage");
  const double tuples = coverage.Find("tuples")->number;
  if (tuples != static_cast<double>(coverage.Find("keys")->array.size())) {
    return Invalid("coverage.tuples does not match coverage.keys length");
  }
  const std::vector<JsonValue>& growth = doc.Find("growth")->array;
  double prev_round = -1;
  double prev_tuples = -1;
  for (size_t i = 0; i < growth.size(); ++i) {
    const double round = growth[i].Find("round")->number;
    const double count = growth[i].Find("tuples")->number;
    if (round < prev_round || count < prev_tuples) {
      return Invalid(StrFormat("growth[%zu] is not monotonic", i));
    }
    prev_round = round;
    prev_tuples = count;
  }
  if (prev_tuples != tuples) {
    return Invalid("growth curve does not end at the coverage total");
  }
  const std::vector<JsonValue>& kinds = doc.Find("kinds")->array;
  for (size_t i = 0; i < kinds.size(); ++i) {
    if (kinds[i].Find("novel")->number > kinds[i].Find("attempts")->number) {
      return Invalid(StrFormat("kinds[%zu].novel exceeds its attempts", i));
    }
  }
  const std::vector<JsonValue>& corpus = doc.Find("corpus")->array;
  for (size_t i = 0; i < corpus.size(); ++i) {
    if (corpus[i].Find("index")->number != static_cast<double>(i)) {
      return Invalid(StrFormat("corpus[%zu].index is out of order", i));
    }
    if (corpus[i].Find("parent")->number >= static_cast<double>(i) &&
        !corpus[i].Find("seed")->boolean) {
      return Invalid(StrFormat("corpus[%zu].parent is not an earlier entry", i));
    }
  }
  const std::vector<JsonValue>& minimized = doc.Find("minimized")->array;
  for (size_t i = 0; i < minimized.size(); ++i) {
    DEPSURF_RETURN_IF_ERROR(
        CheckValue(&minimized[i], StrFormat("minimized[%zu]", i), kCount));
    const double index = minimized[i].number;
    if (index != std::floor(index) || index >= static_cast<double>(corpus.size())) {
      return Invalid(StrFormat("minimized[%zu] is not a corpus index", i));
    }
  }
  // Hangs dominate oracle disagreements.
  double want_exit = 0;
  if (!doc.Find("hangs")->array.empty()) {
    want_exit = 1;
  } else if (!doc.Find("oracle")->Find("disagreements")->array.empty()) {
    want_exit = 2;
  }
  if (doc.Find("exit_code")->number != want_exit) {
    return Invalid("exit_code disagrees with the hang/disagreement arrays");
  }
  return Status::Ok();
}

Status ValidateServeReportDoc(std::string_view json) {
  static constexpr JsonMember kDataset[] = {
      {"path", kString}, {"format", OneOf("v2")}, {"images", kCount}};
  static constexpr JsonMember kCache[] = {
      {"hits", kCount}, {"misses", kCount}, {"entries", kCount}, {"capacity", kCount}};
  static constexpr JsonMember kDoc[] = {{"jobs", kCount},
                                        {"datasets", NonEmptyArrayOf(kDataset)},
                                        {"requests", kCount},
                                        {"ok", kCount},
                                        {"errors", kCount},
                                        {"cache", Object(kCache)}};
  // Mirrors kServeReportSchema (src/serve/serve.h); obs cannot depend on
  // the serve layer, so the marker is checked by value.
  DEPSURF_ASSIGN_OR_RETURN(doc, ParseSchemaDoc(json, "depsurf.serve_report.v1", kDoc));
  const double ok = doc.Find("ok")->number;
  if (ok + doc.Find("errors")->number != doc.Find("requests")->number) {
    return Invalid("ok + errors != requests");
  }
  const JsonValue& cache = *doc.Find("cache");
  const double entries = cache.Find("entries")->number;
  if (cache.Find("hits")->number + cache.Find("misses")->number != ok) {
    return Invalid("cache hits + misses != ok responses");
  }
  if (entries > cache.Find("misses")->number) {
    return Invalid("cache entries exceed recorded misses");
  }
  if (entries > cache.Find("capacity")->number) {
    return Invalid("cache entries exceed the capacity");
  }
  return Status::Ok();
}

std::string CanonicalMaskedJson(const JsonValue& value) {
  const JsonValue* schema = value.Find("schema");
  if (schema != nullptr && schema->kind == JsonValue::Kind::kString &&
      (schema->string == kRunReportSchema || schema->string == kRunReportAggSchema)) {
    // Roots sort in the masked span order, read once per root.
    JsonValue sorted = value;
    for (auto& [key, member] : sorted.object) {
      if (key == "spans" && member.kind == JsonValue::Kind::kArray) {
        std::vector<std::pair<SpanNode, JsonValue*>> roots;
        for (JsonValue& root : member.array) {
          roots.emplace_back(SpanFromValue(root), &root);
        }
        std::sort(roots.begin(), roots.end(), [](const auto& a, const auto& b) {
          return CompareSpanNodesMasked(a.first, b.first) < 0;
        });
        std::vector<JsonValue> in_order;
        for (auto& root : roots) {
          in_order.push_back(std::move(*root.second));
        }
        member.array = std::move(in_order);
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
