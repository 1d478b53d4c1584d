// A small JSON tree and the schema checks over it. ParseJson builds the
// tree through obs::JsonReader (json_reader.h), which holds the one grammar
// the program reads, serve's request lines included; the tree preserves
// object key order. Powers `depsurf metrics lint` and `metrics canon`,
// `report merge`, `profile`, and the golden-schema tests.
// Arrays and objects nest at most 256 deep; a deeper document is rejected
// as malformed, naming the offset of the container that went too deep.
#ifndef DEPSURF_SRC_OBS_JSON_LINT_H_
#define DEPSURF_SRC_OBS_JSON_LINT_H_

#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/error.h"

namespace depsurf {
namespace obs {

struct JsonValue {
  enum class Kind : uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<JsonValue> array;
  // Insertion-ordered (objects keep the order keys appear in the document).
  std::vector<std::pair<std::string, JsonValue>> object;

  // First member with the given key; nullptr when absent or not an object.
  const JsonValue* Find(std::string_view key) const;
};

Result<JsonValue> ParseJson(std::string_view text);

// ---- Schema checks -------------------------------------------------------
//
// Every validator below is written in this vocabulary. A schema is its
// marker, one {key, want} list per object shape, and the invariants between
// members that no list can state. A member failure reads
//   <path>: want <what>, got <what the document holds>
// with the path from the document root, for example
//   remediations[2].finding.insn_off: want count, got string "x"
// and "got nothing" when the member is absent.

struct JsonMember;
using JsonShape = std::span<const JsonMember>;

// What one value must be.
struct JsonWant {
  enum class Is : uint8_t {
    kString,
    kNonEmptyString,
    kNumber,
    kCount,  // a finite number >= 0
    kBool,
    kArray,
    kNonEmptyArray,
    kObject,
    kNullOrObject,
    kOneOf,  // a string listed in `one_of`
  };
  Is is;
  std::string_view one_of = {};  // kOneOf: the allowed strings, '|'-separated
  // Object wants: the members the object must hold. Array wants: the
  // members each element must hold.
  const JsonMember* shape = nullptr;
  size_t shape_size = 0;
};

struct JsonMember {
  std::string_view key;
  JsonWant want;
};

namespace want {
inline constexpr JsonWant kString{JsonWant::Is::kString};
inline constexpr JsonWant kNonEmptyString{JsonWant::Is::kNonEmptyString};
inline constexpr JsonWant kNumber{JsonWant::Is::kNumber};
inline constexpr JsonWant kCount{JsonWant::Is::kCount};
inline constexpr JsonWant kBool{JsonWant::Is::kBool};
inline constexpr JsonWant kArray{JsonWant::Is::kArray};
inline constexpr JsonWant kNonEmptyArray{JsonWant::Is::kNonEmptyArray};
inline constexpr JsonWant kObject{JsonWant::Is::kObject};
constexpr JsonWant OneOf(std::string_view values) { return {JsonWant::Is::kOneOf, values}; }
template <size_t N>
constexpr JsonWant Object(const JsonMember (&shape)[N]) {
  return {JsonWant::Is::kObject, {}, shape, N};
}
template <size_t N>
constexpr JsonWant NullOr(const JsonMember (&shape)[N]) {
  return {JsonWant::Is::kNullOrObject, {}, shape, N};
}
template <size_t N>
constexpr JsonWant ArrayOf(const JsonMember (&shape)[N]) {
  return {JsonWant::Is::kArray, {}, shape, N};
}
template <size_t N>
constexpr JsonWant NonEmptyArrayOf(const JsonMember (&shape)[N]) {
  return {JsonWant::Is::kNonEmptyArray, {}, shape, N};
}
}  // namespace want

// Checks one value (nullptr when absent) against `want`, then any shape
// the want carries.
Status CheckValue(const JsonValue* value, std::string_view path, const JsonWant& want);
// Checks that `object` is an object holding every member of `shape`.
Status CheckMembers(const JsonValue& object, std::string_view path, JsonShape shape);
// Checks that `array` is an array whose elements each hold `shape`.
Status CheckEach(const JsonValue& array, std::string_view path, JsonShape shape);
// Parses a document, checks its "schema" marker, then its top-level shape.
Result<JsonValue> ParseSchemaDoc(std::string_view json, std::string_view marker,
                                 JsonShape shape);
// The failure of an invariant between members.
Status Invalid(std::string message);

// Reads a number a document gives as a count, saturating where a cast
// would be undefined: 0 for a missing, non-number, non-positive or NaN
// value, UINT64_MAX at or past 2^64, else the value truncated toward zero.
// Readers that tolerate a bad member use this; readers that refuse one
// check it against want::kCount first.
uint64_t CountValue(const JsonValue* value);

// Validates a depsurf.run_report.v1 document:
//   - parses as JSON, has the schema marker and the five sections: the
//     spans array, the counters/gauges/histograms objects, and a
//     well-formed diagnostics entry array
//   - at least `min_distinct_spans` distinct span names (tree-wide)
//   - every name in `required_counters` is present under "counters"
// Returns Ok or a message naming the first violation.
Status ValidateRunReport(std::string_view json, size_t min_distinct_spans = 0,
                         const std::vector<std::string>& required_counters = {});

// Validates a parsed diagnostics entry array (the "diagnostics" section of
// run reports, or the "entries" array of a depsurf.diagnostics.v1 doc):
// every entry must carry severity/subsystem/code/message strings drawn from
// the known enumerations plus a numeric offset (-1 = unknown). When
// `labeled` is set, entries must also carry a "label" string (aggregates).
Status ValidateDiagnosticsArray(const JsonValue& array, bool labeled = false);

// Validates a depsurf.diagnostics.v1 document (`depsurf doctor --json`):
// schema marker, "image" string, "health" object mapping subsystems to
// clean/degraded/missing, "fatal" bool, and a valid "entries" array.
Status ValidateDiagnosticsDoc(std::string_view json);

// Validates a depsurf.analysis.v1 document (`depsurf analyze --json`):
// schema marker, "object" string, "against" (null or an object with an
// "images" count), "programs"/"relocs"/"findings" arrays whose entries
// carry their required members, and a "summary" whose per-kind counts sum
// to its "findings" total. The schema is defined by the analyzer layer;
// this checks structure only, so the obs library stays dependency-free.
Status ValidateAnalysisDoc(std::string_view json);

// Validates a depsurf.remediation.v1 document (`depsurf fix --json`):
// schema marker, "object" string, "against" (null or an object with an
// "images" count), a "remediations" array whose entries carry the finding
// they target plus either the guard insertion (insn_off, scratch_reg,
// struct, field, guard) or a refusal reason, a "verification" block (null
// or the before/after counts with an "ok" bool), and a "summary" whose
// fixable + unfixable == findings == array length. The schema is defined
// by the analyzer layer; structure only is checked here.
Status ValidateRemediationDoc(std::string_view json);

// Validates a depsurf.fuzz_campaign.v1 document (`depsurf fuzz --json`):
// schema marker, mode ("image"/"object"), a config block of counts, a
// non-empty seeds array, a coverage block whose key list matches its count, a growth
// curve with non-decreasing rounds and tuple totals ending at the coverage
// total, per-kind stats with novel <= attempts, a corpus whose entries
// carry their replay keys (kind, fault_seed, round, parent), minimized
// entries that are integer corpus indices, oracle/hang arrays, and an exit_code in
// {0,1,2} consistent with those arrays (hangs -> 1, disagreements -> 2).
// The schema is defined by the fuzz layer; structure only is checked here.
Status ValidateFuzzCampaignDoc(std::string_view json);

// Validates a depsurf.serve_report.v1 document (`depsurf serve
// --report-out`): schema marker, a nonnegative "jobs" number, a non-empty
// "datasets" array ({path, format "v2", images >= 0} each), request
// counters with ok + errors == requests, and a "cache" block whose
// hits + misses == ok, entries <= misses, entries <= capacity. The schema
// is defined by the serve layer; structure only is checked here.
Status ValidateServeReportDoc(std::string_view json);

// Distinct span names in a parsed report (empty if not a report).
std::set<std::string> CollectSpanNames(const JsonValue& report);

// Total span nodes (roots + all descendants) under a report's "spans"
// section; 0 if not a report. A trace export of the same run must carry
// exactly this many events (see trace_export.h).
size_t CountReportSpanNodes(const JsonValue& report);

// Re-emits a parsed JSON document in canonical compact form with timing
// fields masked ("dur_ns" members and members/attr keys with timing
// suffixes zeroed, timing histograms emptied). Run-report documents
// (run_report.v1 / run_report_agg.v1) additionally get their root spans
// sorted into the deterministic masked order (CompareSpanNodesMasked over
// each root read through SpanFromValue, the order `report merge` writes),
// since multi-threaded runs collect roots in racy finish order. Two runs
// over identical inputs canonicalize to identical bytes.
std::string CanonicalMaskedJson(const JsonValue& value);

}  // namespace obs
}  // namespace depsurf

#endif  // DEPSURF_SRC_OBS_JSON_LINT_H_
