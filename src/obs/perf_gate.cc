#include "src/obs/perf_gate.h"

#include <map>

#include "src/obs/bench_report.h"
#include "src/obs/json_writer.h"
#include "src/obs/run_report.h"
#include "src/util/str_util.h"

namespace depsurf {
namespace obs {

namespace {

// Walks a run report's root spans, summing dur_ns per distinct name (a
// parallel dataset build has one surface.extract root per image).
void AccumulateRootSpans(const JsonValue& doc, std::vector<StageTiming>& out) {
  const JsonValue* spans = doc.Find("spans");
  if (spans == nullptr || spans->kind != JsonValue::Kind::kArray) {
    return;
  }
  std::map<std::string, size_t> index_by_name;
  for (const JsonValue& span : spans->array) {
    const JsonValue* name = span.Find("name");
    const JsonValue* dur = span.Find("dur_ns");
    if (name == nullptr || name->kind != JsonValue::Kind::kString) {
      continue;
    }
    auto it = index_by_name.find(name->string);
    if (it == index_by_name.end()) {
      it = index_by_name.emplace(name->string, out.size()).first;
      out.push_back(StageTiming{name->string, 0, 0});
    }
    out[it->second].seconds += (dur != nullptr ? dur->number : 0) / 1e9;
    out[it->second].items += 1;
  }
}

}  // namespace

const char* StageClassName(StageClass c) {
  switch (c) {
    case StageClass::kImproved:
      return "improved";
    case StageClass::kFlat:
      return "flat";
    case StageClass::kRegressed:
      return "regressed";
    case StageClass::kAdded:
      return "added";
    case StageClass::kRemoved:
      return "removed";
  }
  return "?";
}

Result<std::vector<StageTiming>> LoadStageTimings(const JsonValue& doc) {
  const JsonValue* schema = doc.Find("schema");
  if (schema == nullptr || schema->kind != JsonValue::Kind::kString) {
    return Error(ErrorCode::kMalformedData, "document has no schema marker");
  }
  std::vector<StageTiming> out;
  if (schema->string == kBenchReportSchema) {
    const JsonValue* stages = doc.Find("stages");
    if (stages == nullptr || stages->kind != JsonValue::Kind::kArray) {
      return Error(ErrorCode::kMalformedData, "bench report has no stages array");
    }
    for (const JsonValue& stage : stages->array) {
      const JsonValue* name = stage.Find("name");
      const JsonValue* seconds = stage.Find("seconds");
      const JsonValue* items = stage.Find("items");
      if (name == nullptr || name->kind != JsonValue::Kind::kString ||
          seconds == nullptr || seconds->kind != JsonValue::Kind::kNumber) {
        return Error(ErrorCode::kMalformedData, "stage missing name or seconds");
      }
      out.push_back(StageTiming{name->string, seconds->number, CountValue(items)});
    }
    return out;
  }
  if (schema->string == kRunReportSchema || schema->string == kRunReportAggSchema) {
    AccumulateRootSpans(doc, out);
    if (out.empty()) {
      return Error(ErrorCode::kMalformedData, "run report has no root spans to time");
    }
    return out;
  }
  return Error(ErrorCode::kMalformedData,
               "unsupported schema for perf comparison: " + schema->string);
}

PerfComparison ComparePerf(const std::vector<StageTiming>& base,
                           const std::vector<StageTiming>& head,
                           const PerfGateOptions& options) {
  PerfComparison comparison;
  std::map<std::string, const StageTiming*> head_by_name;
  for (const StageTiming& stage : head) {
    head_by_name.emplace(stage.name, &stage);
  }
  std::map<std::string, const StageTiming*> base_by_name;
  for (const StageTiming& stage : base) {
    base_by_name.emplace(stage.name, &stage);
  }

  for (const StageTiming& b : base) {
    StageDelta delta;
    delta.name = b.name;
    delta.base_seconds = b.seconds;
    auto it = head_by_name.find(b.name);
    if (it == head_by_name.end()) {
      delta.cls = StageClass::kRemoved;
      comparison.stages.push_back(std::move(delta));
      continue;
    }
    const StageTiming& h = *it->second;
    delta.head_seconds = h.seconds;
    if (b.seconds > 0) {
      delta.delta_pct = (h.seconds - b.seconds) / b.seconds * 100.0;
    }
    bool under_floor = b.seconds < options.noise_floor_seconds &&
                       h.seconds < options.noise_floor_seconds;
    if (under_floor) {
      delta.cls = StageClass::kFlat;
    } else if (h.seconds > b.seconds * (1.0 + options.max_regress)) {
      delta.cls = StageClass::kRegressed;
      ++comparison.regressed;
    } else if (b.seconds > h.seconds * (1.0 + options.max_regress)) {
      delta.cls = StageClass::kImproved;
      ++comparison.improved;
    } else {
      delta.cls = StageClass::kFlat;
    }
    comparison.stages.push_back(std::move(delta));
  }
  for (const StageTiming& h : head) {
    if (base_by_name.find(h.name) == base_by_name.end()) {
      StageDelta delta;
      delta.name = h.name;
      delta.head_seconds = h.seconds;
      delta.cls = StageClass::kAdded;
      comparison.stages.push_back(std::move(delta));
    }
  }
  return comparison;
}

std::string PerfComparisonText(const PerfComparison& comparison) {
  std::string out;
  out += StrFormat("%-36s %12s %12s %8s  %s\n", "stage", "base (s)", "head (s)", "delta",
                   "class");
  for (const StageDelta& delta : comparison.stages) {
    std::string delta_str =
        delta.cls == StageClass::kAdded || delta.cls == StageClass::kRemoved
            ? std::string("-")
            : StrFormat("%+.1f%%", delta.delta_pct);
    out += StrFormat("%-36s %12.6f %12.6f %8s  %s\n", delta.name.c_str(),
                     delta.base_seconds, delta.head_seconds, delta_str.c_str(),
                     StageClassName(delta.cls));
  }
  out += StrFormat("%zu improved, %zu regressed of %zu stages\n", comparison.improved,
                   comparison.regressed, comparison.stages.size());
  return out;
}

std::string PerfComparisonJson(const PerfComparison& comparison,
                               const PerfGateOptions& options) {
  size_t flat = 0;
  size_t added = 0;
  size_t removed = 0;
  for (const StageDelta& delta : comparison.stages) {
    flat += delta.cls == StageClass::kFlat ? 1 : 0;
    added += delta.cls == StageClass::kAdded ? 1 : 0;
    removed += delta.cls == StageClass::kRemoved ? 1 : 0;
  }
  std::string out;
  JsonWriter writer(out);
  writer.BeginObject().Break(0).Key("schema").String(kPerfCompareSchema);
  writer.Break(0).Key("max_regress").Fixed(options.max_regress, 6);
  writer.Key("noise_floor_seconds").Fixed(options.noise_floor_seconds, 6);
  writer.Break(0).Key("improved").Uint(comparison.improved).Key("flat").Uint(flat);
  writer.Key("regressed").Uint(comparison.regressed).Key("added").Uint(added);
  writer.Key("removed").Uint(removed).Break(0).Key("stages").BeginArray();
  for (const StageDelta& delta : comparison.stages) {
    writer.Break(2).BeginObject().Key("name").String(delta.name);
    writer.Key("class").String(StageClassName(delta.cls));
    writer.Key("base_seconds").Fixed(delta.base_seconds, 6);
    writer.Key("head_seconds").Fixed(delta.head_seconds, 6);
    writer.Key("delta_pct").Fixed(delta.delta_pct, 2).EndObject();
  }
  writer.Break(0).EndArray().Break(0).EndObject();
  out += '\n';
  return out;
}

Status ValidateBenchReport(std::string_view json) {
  using namespace want;
  static constexpr JsonMember kStage[] = {
      {"name", kNonEmptyString}, {"seconds", kCount},       {"items", kCount},
      {"items_per_sec", kCount}, {"bytes", kCount},         {"bytes_per_sec", kCount}};
  static constexpr JsonMember kDoc[] = {{"bench", kNonEmptyString},
                                        {"stages", ArrayOf(kStage)}};
  auto doc = ParseSchemaDoc(json, kBenchReportSchema, kDoc);
  return doc.ok() ? Status::Ok() : Status(doc.TakeError());
}

Status ValidatePerfCompare(std::string_view json) {
  using namespace want;
  // The names StageClassName gives.
  static constexpr JsonMember kStage[] = {
      {"name", kNonEmptyString}, {"class", OneOf("improved|flat|regressed|added|removed")}};
  static constexpr JsonMember kDoc[] = {
      {"max_regress", kNumber}, {"improved", kCount}, {"flat", kCount},
      {"regressed", kCount},    {"added", kCount},    {"removed", kCount},
      {"stages", ArrayOf(kStage)}};
  auto doc = ParseSchemaDoc(json, kPerfCompareSchema, kDoc);
  return doc.ok() ? Status::Ok() : Status(doc.TakeError());
}

}  // namespace obs
}  // namespace depsurf
