#include "src/obs/trace_export.h"

#include <algorithm>
#include <limits>
#include <set>

#include "src/obs/json_writer.h"
#include "src/util/file_util.h"
#include "src/util/str_util.h"

namespace depsurf {
namespace obs {

namespace {

struct FlatEvent {
  const SpanNode* span;
  uint64_t start_ns;
};

void Flatten(const SpanNode& span, uint64_t parent_start_ns, std::vector<FlatEvent>& out,
             uint64_t& min_start_ns) {
  // Children recorded before start_ns existed (or clock quirks) inherit the
  // parent's start so the timeline stays well-formed.
  uint64_t start = span.start_ns != 0 ? span.start_ns : parent_start_ns;
  min_start_ns = std::min(min_start_ns, start);
  out.push_back(FlatEvent{&span, start});
  for (const SpanNode& child : span.children) {
    Flatten(child, start, out, min_start_ns);
  }
}

std::string Us(uint64_t ns) {
  // Microseconds with nanosecond precision; trailing precision is exact
  // because the value is ns/1000 with a 3-digit fraction.
  return StrFormat("%llu.%03llu", (unsigned long long)(ns / 1000),
                   (unsigned long long)(ns % 1000));
}

void CollectTids(const SpanNode& span, std::set<uint32_t>& tids) {
  tids.insert(span.tid);
  for (const SpanNode& child : span.children) {
    CollectTids(child, tids);
  }
}

}  // namespace

size_t CountSpanNodes(const std::vector<SpanNode>& roots) {
  size_t n = 0;
  for (const SpanNode& root : roots) {
    n += 1;
    n += CountSpanNodes(root.children);
  }
  return n;
}

std::string TraceEventJson(const std::vector<SpanNode>& roots) {
  std::vector<FlatEvent> events;
  uint64_t min_start_ns = std::numeric_limits<uint64_t>::max();
  for (const SpanNode& root : roots) {
    Flatten(root, root.start_ns, events, min_start_ns);
  }
  if (events.empty()) {
    min_start_ns = 0;
  }
  std::stable_sort(events.begin(), events.end(), [](const FlatEvent& a, const FlatEvent& b) {
    if (a.start_ns != b.start_ns) {
      return a.start_ns < b.start_ns;
    }
    // Same instant: parents before children (longer spans first) keeps the
    // nesting readable in viewers.
    return a.span->dur_ns > b.span->dur_ns;
  });

  // Thread-name metadata first: Perfetto/chrome://tracing group events
  // into named lanes, so the bounded-window workers of a parallel corpus
  // build read as "worker-2", "worker-3", ... instead of bare tids.
  std::set<uint32_t> tids;
  for (const SpanNode& root : roots) {
    CollectTids(root, tids);
  }
  std::string out;
  JsonWriter writer(out);
  writer.BeginObject().Key("displayTimeUnit").String("ms").Key("traceEvents").BeginArray();
  for (uint32_t tid : tids) {
    writer.Break(2).BeginObject().Key("name").String("thread_name").Key("ph").String("M");
    writer.Key("pid").Uint(1).Key("tid").Uint(tid);
    writer.Key("args").BeginObject().Key("name").String("worker-" + std::to_string(tid));
    writer.EndObject().EndObject();
  }
  for (const FlatEvent& event : events) {
    const SpanNode& span = *event.span;
    writer.Break(2).BeginObject().Key("name").String(span.name).Key("ph").String("X");
    writer.Key("ts").Raw(Us(event.start_ns - min_start_ns)).Key("dur").Raw(Us(span.dur_ns));
    writer.Key("pid").Uint(1).Key("tid").Uint(span.tid);
    writer.Key("args").BeginObject();
    for (const auto& [key, value] : span.attrs) {
      writer.Key(key).String(value);
    }
    writer.EndObject().EndObject();
  }
  writer.Break(0).EndArray().EndObject();
  out += '\n';
  return out;
}

Status WriteGlobalTrace(const std::string& path) {
  return WriteFile(path, TraceEventJson(SpanCollector::Global().Snapshot()));
}

Status ValidateTrace(const JsonValue& trace, int64_t expect_events) {
  using namespace want;
  static constexpr JsonMember kEvent[] = {
      {"name", kNonEmptyString}, {"ph", OneOf("X|M")}, {"pid", kCount}, {"tid", kCount}};
  static constexpr JsonMember kTrace[] = {{"traceEvents", ArrayOf(kEvent)}};
  // Metadata (thread_name) events carry no timeline position, only an
  // identity: pid/tid plus an args.name naming the lane.
  static constexpr JsonMember kArgs[] = {{"name", kString}};
  static constexpr JsonMember kMetadata[] = {{"args", Object(kArgs)}};
  static constexpr JsonMember kComplete[] = {{"ts", kCount}, {"dur", kCount}};
  DEPSURF_RETURN_IF_ERROR(CheckMembers(trace, "", kTrace));
  const std::vector<JsonValue>& events = trace.Find("traceEvents")->array;
  double prev_ts = -1;
  int64_t complete_events = 0;
  for (size_t i = 0; i < events.size(); ++i) {
    const bool metadata = events[i].Find("ph")->string == "M";
    DEPSURF_RETURN_IF_ERROR(CheckMembers(events[i], StrFormat("traceEvents[%zu]", i),
                                         metadata ? JsonShape(kMetadata) : JsonShape(kComplete)));
    if (metadata) {
      continue;
    }
    ++complete_events;
    const double ts = events[i].Find("ts")->number;
    if (ts < prev_ts) {
      return Invalid(
          StrFormat("event %zu: ts not monotonic (%.3f after %.3f)", i, ts, prev_ts));
    }
    prev_ts = ts;
  }
  if (expect_events >= 0 && complete_events != expect_events) {
    return Invalid(StrFormat("trace has %lld complete events, span tree has %lld nodes",
                             (long long)complete_events, (long long)expect_events));
  }
  return Status::Ok();
}

}  // namespace obs
}  // namespace depsurf
