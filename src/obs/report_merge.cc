#include "src/obs/report_merge.h"

#include <algorithm>
#include <climits>
#include <map>

#include "src/obs/json_lint.h"
#include "src/obs/run_report.h"
#include "src/util/str_util.h"

namespace depsurf {
namespace obs {

namespace {

// `v` is a count or a sum of counts (CheckFoldedCounts ran on every input);
// a sum past 2^64 saturates rather than wrapping.
std::string U64(double v) {
  v += 0.5;
  return StrFormat("%llu", v < 18446744073709551616.0 ? (unsigned long long)v : ULLONG_MAX);
}
// Gauges and diagnostic offsets may be negative and are not checked: clamp
// where a cast would be undefined.
std::string I64(double v) {
  v = v < 0 ? v - 0.5 : v + 0.5;
  return StrFormat("%lld", v <= -9223372036854775808.0 ? LLONG_MIN
                           : v >= 9223372036854775808.0 ? LLONG_MAX
                                                        : (long long)v);
}

Status CheckOptionalCount(const JsonValue* value, const std::string& path) {
  return value == nullptr ? Status::Ok() : CheckValue(value, path, want::kCount);
}

Status CheckSpanCounts(const JsonValue& span, const std::string& path) {
  for (const char* key : {"dur_ns", "cpu_ns", "alloc_count", "alloc_bytes"}) {
    DEPSURF_RETURN_IF_ERROR(CheckOptionalCount(span.Find(key), path + "." + key));
  }
  const JsonValue* children = span.Find("children");
  if (children != nullptr && children->kind == JsonValue::Kind::kArray) {
    for (size_t i = 0; i < children->array.size(); ++i) {
      DEPSURF_RETURN_IF_ERROR(
          CheckSpanCounts(children->array[i], path + StrFormat(".children[%zu]", i)));
    }
  }
  return Status::Ok();
}

// Every member the merge writes back as an unsigned integer must be a count
// where the document gives it (an aggregate's "reports" always), so a
// failure reads as `metrics lint` would put it: "reports: want count, got
// number -3".
Status CheckFoldedCounts(const JsonValue& doc, bool is_agg) {
  using Kind = JsonValue::Kind;
  if (is_agg) {
    DEPSURF_RETURN_IF_ERROR(CheckValue(doc.Find("reports"), "reports", want::kCount));
    const JsonValue* sources = doc.Find("sources");
    if (sources != nullptr && sources->kind == Kind::kArray) {
      for (size_t i = 0; i < sources->array.size(); ++i) {
        for (const char* key : {"spans", "counters", "diags"}) {
          DEPSURF_RETURN_IF_ERROR(CheckOptionalCount(sources->array[i].Find(key),
                                                     StrFormat("sources[%zu].%s", i, key)));
        }
      }
    }
  }
  const JsonValue* spans = doc.Find("spans");
  if (spans != nullptr && spans->kind == Kind::kArray) {
    for (size_t i = 0; i < spans->array.size(); ++i) {
      DEPSURF_RETURN_IF_ERROR(CheckSpanCounts(spans->array[i], StrFormat("spans[%zu]", i)));
    }
  }
  const JsonValue* counters = doc.Find("counters");
  if (counters != nullptr) {
    for (const auto& [name, value] : counters->object) {
      DEPSURF_RETURN_IF_ERROR(CheckValue(&value, "counters." + name, want::kCount));
    }
  }
  const JsonValue* histograms = doc.Find("histograms");
  if (histograms != nullptr) {
    for (const auto& [name, histogram] : histograms->object) {
      const std::string path = "histograms." + name;
      DEPSURF_RETURN_IF_ERROR(CheckOptionalCount(histogram.Find("count"), path + ".count"));
      DEPSURF_RETURN_IF_ERROR(CheckOptionalCount(histogram.Find("sum"), path + ".sum"));
      const JsonValue* buckets = histogram.Find("buckets");
      if (buckets == nullptr || buckets->kind != Kind::kArray) {
        continue;
      }
      for (size_t b = 0; b < buckets->array.size(); ++b) {
        const JsonValue& bucket = buckets->array[b];
        for (size_t k = 0; bucket.array.size() == 2 && k < 2; ++k) {
          DEPSURF_RETURN_IF_ERROR(CheckValue(&bucket.array[k],
                                             path + StrFormat(".buckets[%zu][%zu]", b, k),
                                             want::kCount));
        }
      }
    }
  }
  return Status::Ok();
}

struct HistogramAcc {
  double count = 0;
  double sum = 0;
  std::map<uint64_t, double> buckets;  // lower bound -> count
};

// Re-emits a parsed span subtree in run-report span form, normalizing to
// the known members (name, dur_ns, cpu_ns, alloc_count, alloc_bytes,
// attrs, children). Resource fields default to 0 for reports written
// before they existed.
void AppendSpanValue(std::string& out, const JsonValue& span) {
  const JsonValue* name = span.Find("name");
  const JsonValue* dur = span.Find("dur_ns");
  const JsonValue* cpu = span.Find("cpu_ns");
  const JsonValue* alloc_count = span.Find("alloc_count");
  const JsonValue* alloc_bytes = span.Find("alloc_bytes");
  out += "{\"name\": \"" + JsonEscape(name != nullptr ? name->string : "") + "\"";
  out += ", \"dur_ns\": " + U64(dur != nullptr ? dur->number : 0);
  out += ", \"cpu_ns\": " + U64(cpu != nullptr ? cpu->number : 0);
  out += ", \"alloc_count\": " + U64(alloc_count != nullptr ? alloc_count->number : 0);
  out += ", \"alloc_bytes\": " + U64(alloc_bytes != nullptr ? alloc_bytes->number : 0);
  out += ", \"attrs\": {";
  const JsonValue* attrs = span.Find("attrs");
  if (attrs != nullptr && attrs->kind == JsonValue::Kind::kObject) {
    for (size_t i = 0; i < attrs->object.size(); ++i) {
      if (i != 0) {
        out += ", ";
      }
      out += "\"" + JsonEscape(attrs->object[i].first) + "\": \"" +
             JsonEscape(attrs->object[i].second.string) + "\"";
    }
  }
  out += "}, \"children\": [";
  const JsonValue* children = span.Find("children");
  if (children != nullptr && children->kind == JsonValue::Kind::kArray) {
    for (size_t i = 0; i < children->array.size(); ++i) {
      if (i != 0) {
        out += ", ";
      }
      AppendSpanValue(out, children->array[i]);
    }
  }
  out += "]}";
}

// Pre-serializes a parsed diagnostics entry with its source label first, so
// sorting the strings sorts by (label, severity, subsystem, ...).
std::string LabeledDiagEntry(const std::string& label, const JsonValue& entry) {
  const JsonValue* severity = entry.Find("severity");
  const JsonValue* subsystem = entry.Find("subsystem");
  const JsonValue* code = entry.Find("code");
  const JsonValue* offset = entry.Find("offset");
  const JsonValue* message = entry.Find("message");
  return StrFormat(
      "{\"label\": \"%s\", \"severity\": \"%s\", \"subsystem\": \"%s\", "
      "\"code\": \"%s\", \"offset\": %s, \"message\": \"%s\"}",
      JsonEscape(label).c_str(),
      JsonEscape(severity != nullptr ? severity->string : "").c_str(),
      JsonEscape(subsystem != nullptr ? subsystem->string : "").c_str(),
      JsonEscape(code != nullptr ? code->string : "").c_str(),
      I64(offset != nullptr ? offset->number : -1).c_str(),
      JsonEscape(message != nullptr ? message->string : "").c_str());
}

}  // namespace

Result<std::string> MergeRunReports(const std::vector<LabeledReport>& reports) {
  if (reports.empty()) {
    return Error(ErrorCode::kInvalidArgument, "nothing to merge");
  }
  double total_reports = 0;               // summed like counters
  std::vector<std::string> sources;       // pre-serialized provenance entries
  std::vector<std::string> diagnostics;   // pre-serialized labeled entries
  std::vector<JsonValue> spans;           // all root spans across inputs
  std::map<std::string, double> counters; // summed
  std::map<std::string, double> gauges;   // last write wins
  std::map<std::string, HistogramAcc> histograms;

  for (const LabeledReport& report : reports) {
    auto parsed = ParseJson(report.json);
    if (!parsed.ok()) {
      return Error(parsed.error().code(), report.label + ": " + parsed.error().message());
    }
    const JsonValue& doc = *parsed;
    const JsonValue* schema = doc.Find("schema");
    bool is_agg = schema != nullptr && schema->string == kRunReportAggSchema;
    if (schema == nullptr || schema->kind != JsonValue::Kind::kString ||
        (schema->string != kRunReportSchema && !is_agg)) {
      return Error(ErrorCode::kMalformedData,
                   report.label + ": not a run report or aggregate");
    }

    if (Status counts = CheckFoldedCounts(doc, is_agg); !counts.ok()) {
      return Error(counts.error().code(), report.label + ": " + counts.error().message());
    }

    const JsonValue* doc_diags = doc.Find("diagnostics");
    size_t doc_diag_count =
        doc_diags != nullptr && doc_diags->kind == JsonValue::Kind::kArray
            ? doc_diags->array.size()
            : 0;
    if (is_agg) {
      total_reports += doc.Find("reports")->number;
      const JsonValue* nested_sources = doc.Find("sources");
      if (nested_sources != nullptr && nested_sources->kind == JsonValue::Kind::kArray) {
        for (const JsonValue& source : nested_sources->array) {
          const JsonValue* label = source.Find("label");
          const JsonValue* source_spans = source.Find("spans");
          const JsonValue* source_counters = source.Find("counters");
          const JsonValue* source_diags = source.Find("diags");
          sources.push_back(StrFormat(
              "{\"label\": \"%s\", \"spans\": %s, \"counters\": %s, \"diags\": %s}",
              JsonEscape(label != nullptr ? label->string : "").c_str(),
              U64(source_spans != nullptr ? source_spans->number : 0).c_str(),
              U64(source_counters != nullptr ? source_counters->number : 0).c_str(),
              U64(source_diags != nullptr ? source_diags->number : 0).c_str()));
        }
      }
      if (doc_diags != nullptr && doc_diags->kind == JsonValue::Kind::kArray) {
        // Aggregate entries already carry their source label.
        for (const JsonValue& entry : doc_diags->array) {
          const JsonValue* label = entry.Find("label");
          diagnostics.push_back(
              LabeledDiagEntry(label != nullptr ? label->string : "", entry));
        }
      }
    } else {
      total_reports += 1;
      const JsonValue* doc_counters = doc.Find("counters");
      sources.push_back(StrFormat(
          "{\"label\": \"%s\", \"spans\": %zu, \"counters\": %zu, \"diags\": %zu}",
          JsonEscape(report.label).c_str(), CountReportSpanNodes(doc),
          doc_counters != nullptr ? doc_counters->object.size() : size_t{0},
          doc_diag_count));
      if (doc_diags != nullptr && doc_diags->kind == JsonValue::Kind::kArray) {
        for (const JsonValue& entry : doc_diags->array) {
          diagnostics.push_back(LabeledDiagEntry(report.label, entry));
        }
      }
    }

    const JsonValue* doc_spans = doc.Find("spans");
    if (doc_spans != nullptr && doc_spans->kind == JsonValue::Kind::kArray) {
      for (const JsonValue& span : doc_spans->array) {
        spans.push_back(span);
      }
    }
    const JsonValue* doc_counters = doc.Find("counters");
    if (doc_counters != nullptr) {
      for (const auto& [name, value] : doc_counters->object) {
        counters[name] += value.number;
      }
    }
    const JsonValue* doc_gauges = doc.Find("gauges");
    if (doc_gauges != nullptr) {
      for (const auto& [name, value] : doc_gauges->object) {
        gauges[name] = value.number;
      }
    }
    const JsonValue* doc_histograms = doc.Find("histograms");
    if (doc_histograms != nullptr) {
      for (const auto& [name, histogram] : doc_histograms->object) {
        HistogramAcc& acc = histograms[name];
        const JsonValue* count = histogram.Find("count");
        const JsonValue* sum = histogram.Find("sum");
        acc.count += count != nullptr ? count->number : 0;
        acc.sum += sum != nullptr ? sum->number : 0;
        const JsonValue* buckets = histogram.Find("buckets");
        if (buckets != nullptr && buckets->kind == JsonValue::Kind::kArray) {
          for (const JsonValue& bucket : buckets->array) {
            if (bucket.array.size() == 2) {
              acc.buckets[CountValue(&bucket.array[0])] += bucket.array[1].number;
            }
          }
        }
      }
    }
  }

  std::sort(spans.begin(), spans.end(), [](const JsonValue& a, const JsonValue& b) {
    return CompareReportSpans(a, b) < 0;
  });
  // Provenance entries are serialized with the label first, so sorting the
  // strings sorts by label — merge output is independent of input order.
  std::sort(sources.begin(), sources.end());
  std::sort(diagnostics.begin(), diagnostics.end());

  std::string out = "{\n\"schema\": \"";
  out += kRunReportAggSchema;
  out += "\",\n";
  out += "\"reports\": " + U64(total_reports) + ",\n";
  out += "\"sources\": [";
  for (size_t i = 0; i < sources.size(); ++i) {
    if (i != 0) {
      out += ", ";
    }
    out += sources[i];
  }
  out += "],\n\"spans\": [";
  for (size_t i = 0; i < spans.size(); ++i) {
    if (i != 0) {
      out += ", ";
    }
    AppendSpanValue(out, spans[i]);
  }
  out += "],\n\"counters\": {";
  bool first = true;
  for (const auto& [name, value] : counters) {
    if (!first) {
      out += ", ";
    }
    first = false;
    out += "\"" + JsonEscape(name) + "\": " + U64(value);
  }
  out += "},\n\"gauges\": {";
  first = true;
  for (const auto& [name, value] : gauges) {
    if (!first) {
      out += ", ";
    }
    first = false;
    out += "\"" + JsonEscape(name) + "\": " + I64(value);
  }
  out += "},\n\"histograms\": {";
  first = true;
  for (const auto& [name, acc] : histograms) {
    if (!first) {
      out += ", ";
    }
    first = false;
    out += "\"" + JsonEscape(name) + "\": {\"count\": " + U64(acc.count);
    out += ", \"sum\": " + U64(acc.sum);
    out += ", \"buckets\": [";
    bool first_bucket = true;
    for (const auto& [lower, count] : acc.buckets) {
      if (count <= 0) {
        continue;
      }
      if (!first_bucket) {
        out += ", ";
      }
      first_bucket = false;
      out += "[" + StrFormat("%llu", (unsigned long long)lower) + ", " + U64(count) + "]";
    }
    out += "]}";
  }
  out += "},\n\"diagnostics\": [";
  for (size_t i = 0; i < diagnostics.size(); ++i) {
    if (i != 0) {
      out += ", ";
    }
    out += diagnostics[i];
  }
  out += "]\n}\n";
  return out;
}

Status ValidateAggReport(std::string_view json) {
  using namespace want;
  static constexpr JsonMember kDoc[] = {
      {"reports", kCount},  {"sources", kArray}, {"spans", kArray},
      {"counters", kObject}, {"gauges", kObject}, {"histograms", kObject},
      {"diagnostics", kArray}};
  DEPSURF_ASSIGN_OR_RETURN(doc, ParseSchemaDoc(json, kRunReportAggSchema, kDoc));
  if (doc.Find("reports")->number < 1) {
    return Invalid("\"reports\" is below 1: the aggregate folds in no report");
  }
  return ValidateDiagnosticsArray(*doc.Find("diagnostics"), /*labeled=*/true);
}

}  // namespace obs
}  // namespace depsurf
