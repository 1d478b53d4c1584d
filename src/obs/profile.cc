#include "src/obs/profile.h"

#include <algorithm>
#include <map>

#include "src/obs/json_lint.h"
#include "src/obs/json_writer.h"
#include "src/obs/run_report.h"
#include "src/util/str_util.h"

namespace depsurf {
namespace obs {

namespace {

// Self time: inclusive duration minus the summed durations of direct
// children. Children open and close on the parent's thread strictly inside
// its interval, so the subtraction never underflows in practice; clamp
// anyway so a hand-built forest cannot produce wrapped values.
uint64_t SelfNs(const SpanNode& span) {
  uint64_t children = 0;
  for (const SpanNode& child : span.children) {
    children += child.dur_ns;
  }
  return span.dur_ns > children ? span.dur_ns - children : 0;
}

void AccumulateNode(const SpanNode& span, std::map<std::string, ProfileNameRow>& rows,
                    uint64_t& nodes) {
  ++nodes;
  ProfileNameRow& row = rows[span.name];
  row.name = span.name;
  row.count += 1;
  row.dur_ns += span.dur_ns;
  row.self_ns += SelfNs(span);
  row.cpu_ns += span.cpu_ns;
  row.alloc_count += span.alloc_count;
  row.alloc_bytes += span.alloc_bytes;
  for (const SpanNode& child : span.children) {
    AccumulateNode(child, rows, nodes);
  }
}

// The dominant span among siblings: largest duration, ties broken by
// lexicographically smallest name, then first occurrence. Deterministic
// for the masked case (all durations 0) because the tie-break is stable.
const SpanNode* DominantSpan(const std::vector<SpanNode>& spans) {
  const SpanNode* best = nullptr;
  for (const SpanNode& span : spans) {
    if (best == nullptr || span.dur_ns > best->dur_ns ||
        (span.dur_ns == best->dur_ns && span.name < best->name)) {
      best = &span;
    }
  }
  return best;
}

void FoldNode(const SpanNode& span, std::string& stack,
              std::map<std::string, uint64_t>& folded) {
  const size_t prefix = stack.size();
  if (!stack.empty()) {
    stack += ";";
  }
  stack += span.name;
  folded[stack] += SelfNs(span);
  for (const SpanNode& child : span.children) {
    FoldNode(child, stack, folded);
  }
  stack.resize(prefix);
}

// Documents are outside input: every number becomes an integer through the
// saturating CountValue, never a bare cast.
uint64_t MemberU64(const JsonValue& object, const char* key) {
  return CountValue(object.Find(key));
}

// Executor gauges are int64_t: the same count, capped where the cast would
// wrap.
int64_t GaugeValue(const JsonValue* value) {
  return static_cast<int64_t>(std::min<uint64_t>(CountValue(value), INT64_MAX));
}

}  // namespace

SpanNode SpanFromValue(const JsonValue& value) {
  SpanNode node;
  const JsonValue* name = value.Find("name");
  node.name = name != nullptr ? name->string : "";
  node.dur_ns = MemberU64(value, "dur_ns");
  node.cpu_ns = MemberU64(value, "cpu_ns");
  node.alloc_count = MemberU64(value, "alloc_count");
  node.alloc_bytes = MemberU64(value, "alloc_bytes");
  const JsonValue* attrs = value.Find("attrs");
  if (attrs != nullptr && attrs->kind == JsonValue::Kind::kObject) {
    for (const auto& [key, attr] : attrs->object) {
      node.attrs.emplace_back(key, attr.string);
    }
  }
  const JsonValue* children = value.Find("children");
  if (children != nullptr && children->kind == JsonValue::Kind::kArray) {
    for (const JsonValue& child : children->array) {
      node.children.push_back(SpanFromValue(child));
    }
  }
  return node;
}

namespace {

Result<std::vector<SpanNode>> ReportSpanForest(std::string_view json, const JsonValue** doc_out,
                                               JsonValue& storage) {
  auto parsed = ParseJson(json);
  if (!parsed.ok()) {
    return parsed.TakeError();
  }
  storage = std::move(*parsed);
  const JsonValue* schema = storage.Find("schema");
  if (schema == nullptr || schema->kind != JsonValue::Kind::kString ||
      (schema->string != kRunReportSchema && schema->string != kRunReportAggSchema)) {
    return Error(ErrorCode::kMalformedData,
                 StrFormat("not a %s or %s document", kRunReportSchema, kRunReportAggSchema));
  }
  std::vector<SpanNode> roots;
  const JsonValue* spans = storage.Find("spans");
  if (spans != nullptr && spans->kind == JsonValue::Kind::kArray) {
    for (const JsonValue& span : spans->array) {
      roots.push_back(SpanFromValue(span));
    }
  }
  if (doc_out != nullptr) {
    *doc_out = &storage;
  }
  return roots;
}

// Lane index for a study.executor.worker<i>.busy_ms gauge name, or -1.
int64_t WorkerLane(const std::string& name) {
  constexpr std::string_view kPrefix = "study.executor.worker";
  constexpr std::string_view kSuffix = ".busy_ms";
  if (name.size() <= kPrefix.size() + kSuffix.size() ||
      name.compare(0, kPrefix.size(), kPrefix) != 0 ||
      name.compare(name.size() - kSuffix.size(), kSuffix.size(), kSuffix) != 0) {
    return -1;
  }
  int64_t lane = 0;
  for (size_t i = kPrefix.size(); i < name.size() - kSuffix.size(); ++i) {
    if (name[i] < '0' || name[i] > '9') {
      return -1;
    }
    lane = lane * 10 + (name[i] - '0');
  }
  return lane;
}

void FillExecutorFromDoc(Profile& profile, const JsonValue& doc) {
  ExecutorStats& executor = profile.executor;
  const JsonValue* gauges = doc.Find("gauges");
  if (gauges != nullptr && gauges->kind == JsonValue::Kind::kObject) {
    for (const auto& [name, value] : gauges->object) {
      if (name == "study.build_dataset.window") {
        executor.window = GaugeValue(&value);
        executor.present = true;
      } else if (name == "study.build_dataset.wall_ms") {
        executor.wall_ms = GaugeValue(&value);
      } else if (int64_t lane = WorkerLane(name); lane >= 0) {
        executor.worker_busy_ms.emplace_back(lane, GaugeValue(&value));
        executor.present = true;
      }
    }
  }
  const JsonValue* counters = doc.Find("counters");
  if (counters != nullptr) {
    const JsonValue* stall = counters->Find("study.executor.serialize_stall_us");
    if (stall != nullptr) {
      executor.serialize_stall_us = CountValue(stall);
      executor.present = true;
    }
  }
  const JsonValue* histograms = doc.Find("histograms");
  if (histograms != nullptr) {
    const JsonValue* queue_wait = histograms->Find("study.executor.queue_wait_us");
    if (queue_wait != nullptr) {
      executor.queue_waits = CountValue(queue_wait->Find("count"));
      executor.present = true;
    }
  }
  std::sort(executor.worker_busy_ms.begin(), executor.worker_busy_ms.end());
}

}  // namespace

double SerialSharePct(const Profile& profile) {
  if (profile.wall_ns == 0) {
    return 0;
  }
  return static_cast<double>(profile.serial_self_ns) * 100.0 /
         static_cast<double>(profile.wall_ns);
}

Profile BuildProfile(const std::vector<SpanNode>& roots) {
  Profile profile;
  std::map<std::string, ProfileNameRow> rows;
  for (const SpanNode& root : roots) {
    AccumulateNode(root, rows, profile.span_nodes);
  }
  profile.names.reserve(rows.size());
  for (auto& [name, row] : rows) {
    profile.names.push_back(std::move(row));
  }
  // Critical path: start at the dominant root, descend through the
  // dominant child at every level.
  const SpanNode* node = DominantSpan(roots);
  if (node != nullptr) {
    profile.wall_ns = node->dur_ns;
    while (node != nullptr) {
      const uint64_t self = SelfNs(*node);
      profile.critical_path.push_back(CriticalPathStep{node->name, node->dur_ns, self});
      profile.serial_self_ns += self;
      node = DominantSpan(node->children);
    }
  }
  return profile;
}

void FillExecutorStats(Profile& profile, const MetricsRegistry& metrics) {
  ExecutorStats& executor = profile.executor;
  for (const auto& [name, value] : metrics.GaugeSnapshot()) {
    if (name == "study.build_dataset.window") {
      executor.window = value;
      executor.present = true;
    } else if (name == "study.build_dataset.wall_ms") {
      executor.wall_ms = value;
    } else if (int64_t lane = WorkerLane(name); lane >= 0) {
      executor.worker_busy_ms.emplace_back(lane, value);
      executor.present = true;
    }
  }
  for (const auto& [name, value] : metrics.CounterSnapshot()) {
    if (name == "study.executor.serialize_stall_us") {
      executor.serialize_stall_us = value;
      executor.present = true;
    }
  }
  for (const auto& [name, histogram] : metrics.HistogramSnapshot()) {
    if (name == "study.executor.queue_wait_us") {
      executor.queue_waits = histogram->count();
      executor.present = true;
    }
  }
  std::sort(executor.worker_busy_ms.begin(), executor.worker_busy_ms.end());
}

Result<Profile> ProfileFromReportJson(std::string_view json) {
  JsonValue storage;
  const JsonValue* doc = nullptr;
  auto roots = ReportSpanForest(json, &doc, storage);
  if (!roots.ok()) {
    return roots.TakeError();
  }
  Profile profile = BuildProfile(*roots);
  FillExecutorFromDoc(profile, *doc);
  return profile;
}

std::string ProfileJson(const Profile& profile) {
  std::string out;
  JsonWriter writer(out);
  writer.BeginObject().Break(0).Key("schema").String(kProfileSchema);
  writer.Break(0).Key("span_nodes").Uint(profile.span_nodes);
  writer.Break(0).Key("names").BeginArray();
  for (const ProfileNameRow& row : profile.names) {
    writer.BeginObject().Key("name").String(row.name).Key("count").Uint(row.count);
    writer.Key("dur_ns").Uint(row.dur_ns).Key("self_ns").Uint(row.self_ns);
    writer.Key("cpu_ns").Uint(row.cpu_ns).Key("alloc_count").Uint(row.alloc_count);
    writer.Key("alloc_bytes").Uint(row.alloc_bytes).EndObject();
  }
  writer.EndArray().Break(0).Key("critical_path").BeginObject();
  writer.Key("wall_ns").Uint(profile.wall_ns).Key("serial_self_ns").Uint(profile.serial_self_ns);
  writer.Key("serial_share_pct").Fixed(SerialSharePct(profile), 2).Key("steps").BeginArray();
  for (const CriticalPathStep& step : profile.critical_path) {
    writer.BeginObject().Key("name").String(step.name).Key("dur_ns").Uint(step.dur_ns);
    writer.Key("self_ns").Uint(step.self_ns).EndObject();
  }
  const ExecutorStats& executor = profile.executor;
  writer.EndArray().EndObject().Break(0).Key("executor").BeginObject();
  writer.Key("window").Int(executor.window).Key("wall_ms").Int(executor.wall_ms);
  writer.Key("serialize_stall_us").Uint(executor.serialize_stall_us);
  writer.Key("queue_waits").Uint(executor.queue_waits).Key("workers").BeginArray();
  for (const auto& [lane, busy_ms] : executor.worker_busy_ms) {
    writer.BeginObject().Key("lane").Int(lane).Key("busy_ms").Int(busy_ms).EndObject();
  }
  writer.EndArray().EndObject().Break(0).EndObject();
  out += '\n';
  return out;
}

Result<Profile> ParseProfileDoc(std::string_view json) {
  // Lean on the schema validator first so extraction below can assume
  // well-formed members.
  if (Status valid = ValidateProfileDoc(json); !valid.ok()) {
    return valid.TakeError();
  }
  auto parsed = ParseJson(json);
  if (!parsed.ok()) {
    return parsed.TakeError();
  }
  const JsonValue& doc = *parsed;
  Profile profile;
  profile.span_nodes = MemberU64(doc, "span_nodes");
  for (const JsonValue& entry : doc.Find("names")->array) {
    ProfileNameRow row;
    row.name = entry.Find("name")->string;
    row.count = MemberU64(entry, "count");
    row.dur_ns = MemberU64(entry, "dur_ns");
    row.self_ns = MemberU64(entry, "self_ns");
    row.cpu_ns = MemberU64(entry, "cpu_ns");
    row.alloc_count = MemberU64(entry, "alloc_count");
    row.alloc_bytes = MemberU64(entry, "alloc_bytes");
    profile.names.push_back(std::move(row));
  }
  const JsonValue& path = *doc.Find("critical_path");
  profile.wall_ns = MemberU64(path, "wall_ns");
  profile.serial_self_ns = MemberU64(path, "serial_self_ns");
  for (const JsonValue& entry : path.Find("steps")->array) {
    profile.critical_path.push_back(CriticalPathStep{entry.Find("name")->string,
                                                     MemberU64(entry, "dur_ns"),
                                                     MemberU64(entry, "self_ns")});
  }
  const JsonValue& executor = *doc.Find("executor");
  ExecutorStats& stats = profile.executor;
  stats.window = GaugeValue(executor.Find("window"));
  stats.wall_ms = GaugeValue(executor.Find("wall_ms"));
  stats.serialize_stall_us = MemberU64(executor, "serialize_stall_us");
  stats.queue_waits = MemberU64(executor, "queue_waits");
  for (const JsonValue& worker : executor.Find("workers")->array) {
    stats.worker_busy_ms.emplace_back(GaugeValue(worker.Find("lane")),
                                      GaugeValue(worker.Find("busy_ms")));
  }
  stats.present = stats.window != 0 || !stats.worker_busy_ms.empty() ||
                  stats.serialize_stall_us != 0 || stats.queue_waits != 0;
  return profile;
}

std::string ProfileText(const Profile& profile) {
  std::string out = StrFormat("profile: %llu span nodes, %zu names\n",
                              (unsigned long long)profile.span_nodes, profile.names.size());
  std::vector<const ProfileNameRow*> rows;
  rows.reserve(profile.names.size());
  for (const ProfileNameRow& row : profile.names) {
    rows.push_back(&row);
  }
  std::stable_sort(rows.begin(), rows.end(), [](const ProfileNameRow* a, const ProfileNameRow* b) {
    return a->self_ns > b->self_ns;
  });
  out += StrFormat("  %-40s %8s %12s %12s %12s %10s %12s\n", "name", "count", "total_ms",
                   "self_ms", "cpu_ms", "allocs", "alloc_bytes");
  for (const ProfileNameRow* row : rows) {
    out += StrFormat("  %-40s %8llu %12.3f %12.3f %12.3f %10llu %12llu\n", row->name.c_str(),
                     (unsigned long long)row->count, static_cast<double>(row->dur_ns) / 1e6,
                     static_cast<double>(row->self_ns) / 1e6,
                     static_cast<double>(row->cpu_ns) / 1e6,
                     (unsigned long long)row->alloc_count,
                     (unsigned long long)row->alloc_bytes);
  }
  out += StrFormat("critical path: wall %.3f ms, serial self %.3f ms (%.2f%% of wall)\n",
                   static_cast<double>(profile.wall_ns) / 1e6,
                   static_cast<double>(profile.serial_self_ns) / 1e6, SerialSharePct(profile));
  for (const CriticalPathStep& step : profile.critical_path) {
    out += StrFormat("  %-40s %12.3f ms  self %12.3f ms\n", step.name.c_str(),
                     static_cast<double>(step.dur_ns) / 1e6,
                     static_cast<double>(step.self_ns) / 1e6);
  }
  const ExecutorStats& executor = profile.executor;
  if (executor.present) {
    out += StrFormat(
        "executor: window %lld, wall %lld ms, serialize stall %llu us, queue waits %llu\n",
        (long long)executor.window, (long long)executor.wall_ms,
        (unsigned long long)executor.serialize_stall_us,
        (unsigned long long)executor.queue_waits);
    for (const auto& [lane, busy_ms] : executor.worker_busy_ms) {
      double util = executor.wall_ms > 0
                        ? static_cast<double>(busy_ms) * 100.0 /
                              static_cast<double>(executor.wall_ms)
                        : 0;
      out += StrFormat("  lane %lld: busy %lld ms (%.1f%% of wall)\n", (long long)lane,
                       (long long)busy_ms, util);
    }
  }
  return out;
}

std::string FoldedStacks(const std::vector<SpanNode>& roots) {
  std::map<std::string, uint64_t> folded;
  std::string stack;
  for (const SpanNode& root : roots) {
    FoldNode(root, stack, folded);
  }
  std::string out;
  for (const auto& [frames, self_ns] : folded) {
    out += frames + " " + std::to_string(self_ns) + "\n";
  }
  return out;
}

Result<std::string> FoldedStacksFromReportJson(std::string_view json) {
  JsonValue storage;
  auto roots = ReportSpanForest(json, nullptr, storage);
  if (!roots.ok()) {
    return roots.TakeError();
  }
  return FoldedStacks(*roots);
}

Status ValidateProfileDoc(std::string_view json) {
  using namespace want;
  static constexpr JsonMember kName[] = {
      {"name", kNonEmptyString}, {"count", kCount},       {"dur_ns", kCount},
      {"self_ns", kCount},       {"cpu_ns", kCount},      {"alloc_count", kCount},
      {"alloc_bytes", kCount}};
  static constexpr JsonMember kStep[] = {
      {"name", kNonEmptyString}, {"dur_ns", kCount}, {"self_ns", kCount}};
  static constexpr JsonMember kCriticalPath[] = {{"wall_ns", kCount},
                                                 {"serial_self_ns", kCount},
                                                 {"serial_share_pct", kCount},
                                                 {"steps", ArrayOf(kStep)}};
  static constexpr JsonMember kWorker[] = {{"lane", kCount}, {"busy_ms", kCount}};
  static constexpr JsonMember kExecutor[] = {{"window", kCount},
                                             {"wall_ms", kCount},
                                             {"serialize_stall_us", kCount},
                                             {"queue_waits", kCount},
                                             {"workers", ArrayOf(kWorker)}};
  static constexpr JsonMember kDoc[] = {{"span_nodes", kCount},
                                        {"names", ArrayOf(kName)},
                                        {"critical_path", Object(kCriticalPath)},
                                        {"executor", Object(kExecutor)}};
  DEPSURF_ASSIGN_OR_RETURN(doc, ParseSchemaDoc(json, kProfileSchema, kDoc));
  auto exceeds = [](const JsonValue& object, const char* part, const char* whole) {
    return object.Find(part)->number > object.Find(whole)->number;
  };
  for (const JsonValue& row : doc.Find("names")->array) {
    if (exceeds(row, "self_ns", "dur_ns")) {
      return Invalid(row.Find("name")->string + ": self_ns exceeds dur_ns");
    }
  }
  const JsonValue& critical = *doc.Find("critical_path");
  if (exceeds(critical, "serial_self_ns", "wall_ns")) {
    return Invalid("serial_self_ns exceeds wall_ns");
  }
  for (const JsonValue& step : critical.Find("steps")->array) {
    if (exceeds(step, "self_ns", "dur_ns")) {
      return Invalid("critical_path step " + step.Find("name")->string +
                     ": self_ns exceeds dur_ns");
    }
  }
  return Status::Ok();
}

}  // namespace obs
}  // namespace depsurf
