#include "src/obs/report_merge.h"

#include <algorithm>
#include <map>

#include "src/obs/json_lint.h"
#include "src/obs/json_writer.h"
#include "src/obs/profile.h"
#include "src/obs/run_report.h"
#include "src/util/str_util.h"

namespace depsurf {
namespace obs {

namespace {

// Gauges and diagnostic offsets may be negative and are not checked: round
// half away from zero, and clamp where a cast would be undefined.
int64_t SignedValue(double v) {
  v = v < 0 ? v - 0.5 : v + 0.5;
  return v <= -9223372036854775808.0 ? INT64_MIN
         : v >= 9223372036854775808.0 ? INT64_MAX
                                      : static_cast<int64_t>(v);
}

// A sum of counts past 2^64 saturates rather than wrapping. Each count is
// read through CountValue, the rule `profile` reads the same members by.
void AddCount(uint64_t& sum, uint64_t n) { sum = n > UINT64_MAX - sum ? UINT64_MAX : sum + n; }

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
  uint64_t count = 0;
  uint64_t sum = 0;
  std::map<uint64_t, uint64_t> buckets;  // lower bound -> count
};

// One provenance entry, serialized with the label first so that sorting the
// strings sorts by label.
std::string SourceEntry(std::string_view label, uint64_t spans, uint64_t counters,
                        uint64_t diags) {
  std::string out;
  JsonWriter(out).BeginObject().Key("label").String(label).Key("spans").Uint(spans)
      .Key("counters").Uint(counters).Key("diags").Uint(diags).EndObject();
  return out;
}

// Pre-serializes a parsed diagnostics entry with its source label first, so
// sorting the strings sorts by (label, severity, subsystem, ...).
std::string LabeledDiagEntry(std::string_view label, const JsonValue& entry) {
  auto text = [&entry](const char* key) {
    const JsonValue* value = entry.Find(key);
    return value != nullptr ? std::string_view(value->string) : std::string_view();
  };
  const JsonValue* offset = entry.Find("offset");
  std::string out;
  JsonWriter writer(out);
  writer.BeginObject().Key("label").String(label);
  writer.Key("severity").String(text("severity"));
  writer.Key("subsystem").String(text("subsystem"));
  writer.Key("code").String(text("code"));
  writer.Key("offset").Int(SignedValue(offset != nullptr ? offset->number : -1));
  writer.Key("message").String(text("message"));
  writer.EndObject();
  return out;
}

}  // namespace

Result<std::string> MergeRunReports(const std::vector<LabeledReport>& reports) {
  if (reports.empty()) {
    return Error(ErrorCode::kInvalidArgument, "nothing to merge");
  }
  uint64_t total_reports = 0;                // summed like counters
  std::vector<std::string> sources;          // pre-serialized provenance entries
  std::vector<std::string> diagnostics;      // pre-serialized labeled entries
  std::vector<SpanNode> spans;               // all root spans across inputs
  std::map<std::string, uint64_t> counters;  // summed
  std::map<std::string, double> gauges;      // last write wins
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
      AddCount(total_reports, CountValue(doc.Find("reports")));
      const JsonValue* nested_sources = doc.Find("sources");
      if (nested_sources != nullptr && nested_sources->kind == JsonValue::Kind::kArray) {
        for (const JsonValue& source : nested_sources->array) {
          const JsonValue* label = source.Find("label");
          sources.push_back(SourceEntry(label != nullptr ? label->string : "",
                                        CountValue(source.Find("spans")),
                                        CountValue(source.Find("counters")),
                                        CountValue(source.Find("diags"))));
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
      AddCount(total_reports, 1);
      const JsonValue* doc_counters = doc.Find("counters");
      sources.push_back(SourceEntry(report.label, CountReportSpanNodes(doc),
                                    doc_counters != nullptr ? doc_counters->object.size() : 0,
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
        spans.push_back(SpanFromValue(span));
      }
    }
    const JsonValue* doc_counters = doc.Find("counters");
    if (doc_counters != nullptr) {
      for (const auto& [name, value] : doc_counters->object) {
        AddCount(counters[name], CountValue(&value));
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
        AddCount(acc.count, CountValue(histogram.Find("count")));
        AddCount(acc.sum, CountValue(histogram.Find("sum")));
        const JsonValue* buckets = histogram.Find("buckets");
        if (buckets != nullptr && buckets->kind == JsonValue::Kind::kArray) {
          for (const JsonValue& bucket : buckets->array) {
            if (bucket.array.size() == 2) {
              AddCount(acc.buckets[CountValue(&bucket.array[0])], CountValue(&bucket.array[1]));
            }
          }
        }
      }
    }
  }

  // The masked order, the one CanonicalMaskedJson sorts roots into.
  std::sort(spans.begin(), spans.end(), [](const SpanNode& a, const SpanNode& b) {
    return CompareSpanNodesMasked(a, b) < 0;
  });
  std::sort(sources.begin(), sources.end());
  std::sort(diagnostics.begin(), diagnostics.end());

  std::string out;
  JsonWriter writer(out);
  writer.BeginObject().Break(0).Key("schema").String(kRunReportAggSchema);
  writer.Break(0).Key("reports").Uint(total_reports);
  writer.Break(0).Key("sources").BeginArray();
  for (const std::string& source : sources) {
    writer.Raw(source);
  }
  writer.EndArray().Break(0).Key("spans").BeginArray();
  for (const SpanNode& span : spans) {
    WriteSpanJson(writer, span, RunReportOptions{});
  }
  writer.EndArray().Break(0).Key("counters").BeginObject();
  for (const auto& [name, value] : counters) {
    writer.Key(name).Uint(value);
  }
  writer.EndObject().Break(0).Key("gauges").BeginObject();
  for (const auto& [name, value] : gauges) {
    writer.Key(name).Int(SignedValue(value));
  }
  writer.EndObject().Break(0).Key("histograms").BeginObject();
  for (const auto& [name, acc] : histograms) {
    writer.Key(name).BeginObject().Key("count").Uint(acc.count);
    writer.Key("sum").Uint(acc.sum).Key("buckets").BeginArray();
    for (const auto& [lower, count] : acc.buckets) {
      if (count != 0) {
        writer.BeginArray().Uint(lower).Uint(count).EndArray();
      }
    }
    writer.EndArray().EndObject();
  }
  writer.EndObject().Break(0).Key("diagnostics").BeginArray();
  for (const std::string& entry : diagnostics) {
    writer.Raw(entry);
  }
  writer.EndArray().Break(0).EndObject();
  out += '\n';
  return out;
}

Status ValidateAggReport(std::string_view json) {
  using namespace want;
  static constexpr JsonMember kSource[] = {
      {"label", kString}, {"spans", kCount}, {"counters", kCount}, {"diags", kCount}};
  static constexpr JsonMember kDoc[] = {
      {"reports", kCount},  {"sources", ArrayOf(kSource)}, {"spans", kArray},
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
