// Profile analysis over the span forest: turns resource-attributed spans
// (src/obs/span.h) into a depsurf.profile.v1 document answering "where did
// the build spend its time" — per-name self-time/CPU/alloc aggregates, the
// critical path (longest dependent chain and the share of its wall clock
// attributable to serial self-time), executor lane utilization, and
// folded-stacks text for flamegraph.pl / speedscope.
//
// Schema (depsurf.profile.v1):
//   {
//     "schema": "depsurf.profile.v1",
//     "span_nodes": N,
//     "names": [ {"name": "...", "count": N, "dur_ns": N, "self_ns": N,
//                 "cpu_ns": N, "alloc_count": N, "alloc_bytes": N}, ... ],
//     "critical_path": {"wall_ns": N, "serial_self_ns": N,
//                       "serial_share_pct": X.XX,
//                       "steps": [ {"name": "...", "dur_ns": N,
//                                   "self_ns": N}, ... ]},
//     "executor": {"window": N, "wall_ms": N, "serialize_stall_us": N,
//                  "queue_waits": N,
//                  "workers": [ {"lane": N, "busy_ms": N}, ... ]}
//   }
//
// "names" is sorted by name; self_ns is dur minus the summed durations of
// direct children (clamped at 0), so over a forest of nested same-thread
// spans the self times telescope back to the root durations. Everything
// timing- or allocator-derived (the per-name dur/self/cpu/alloc columns,
// the whole critical_path and executor sections) is masked by
// CanonicalMaskedJson, leaving a structure-only document that is
// byte-identical across --jobs settings.
#ifndef DEPSURF_SRC_OBS_PROFILE_H_
#define DEPSURF_SRC_OBS_PROFILE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/span.h"
#include "src/util/error.h"

namespace depsurf {
namespace obs {

inline constexpr char kProfileSchema[] = "depsurf.profile.v1";

struct JsonValue;

// One row of the per-name aggregate table.
struct ProfileNameRow {
  std::string name;
  uint64_t count = 0;        // span nodes with this name
  uint64_t dur_ns = 0;       // summed inclusive wall time
  uint64_t self_ns = 0;      // summed self time (dur minus children)
  uint64_t cpu_ns = 0;       // summed thread CPU time
  uint64_t alloc_count = 0;  // summed allocation calls (0 without the hooks)
  uint64_t alloc_bytes = 0;
};

struct CriticalPathStep {
  std::string name;
  uint64_t dur_ns = 0;
  uint64_t self_ns = 0;
};

// Executor telemetry lifted from the study.executor.* metrics a bounded-
// window corpus build publishes (see src/study/study.cc).
struct ExecutorStats {
  bool present = false;  // any study.executor.* metric was found
  int64_t window = 0;
  int64_t wall_ms = 0;               // study.build_dataset.wall_ms
  uint64_t serialize_stall_us = 0;   // in-order stage blocked on the window
  uint64_t queue_waits = 0;          // tasks measured by queue_wait_us
  std::vector<std::pair<int64_t, int64_t>> worker_busy_ms;  // (lane, busy ms)
};

struct Profile {
  uint64_t span_nodes = 0;
  std::vector<ProfileNameRow> names;  // sorted by name
  // Critical path: the root with the largest duration (ties broken by
  // lexicographically smallest name), descending into the largest child at
  // every level. wall_ns is that root's duration; serial_self_ns sums the
  // self time along the chain — the fraction of the dominant root's wall
  // no concurrent child work can hide.
  uint64_t wall_ns = 0;
  uint64_t serial_self_ns = 0;
  std::vector<CriticalPathStep> critical_path;
  ExecutorStats executor;
};

// Percentage of wall_ns attributable to the critical path's serial self
// time (0 when wall_ns is 0).
double SerialSharePct(const Profile& profile);

// Walks a span forest into per-name aggregates + critical path. Executor
// stats are left empty; fill them from a registry or a report afterwards.
Profile BuildProfile(const std::vector<SpanNode>& roots);

// Lifts study.executor.* / study.build_dataset.* metrics out of a registry
// into profile.executor (no-op for registries without them).
void FillExecutorStats(Profile& profile, const MetricsRegistry& metrics);

// Parses a run_report.v1 or run_report_agg.v1 document and profiles its
// span forest; executor stats come from the report's gauges, counters, and
// histograms. Spans without cpu/alloc fields (older reports) profile as 0.
Result<Profile> ProfileFromReportJson(std::string_view json);

// Rebuilds a span subtree from a parsed run-report span object. Every
// number reads through CountValue; a missing resource field (older
// reports) or attr value that is not a string reads as 0 or "".
SpanNode SpanFromValue(const JsonValue& value);

// Deterministically serializes the profile (see schema above).
std::string ProfileJson(const Profile& profile);

// Parses a depsurf.profile.v1 document back into a Profile, the inverse of
// ProfileJson, so `depsurf profile` can re-render a saved profile. The
// document must pass ValidateProfileDoc.
Result<Profile> ParseProfileDoc(std::string_view json);

// Human-readable table: per-name rows sorted by self time descending, the
// critical path, and executor lane utilization.
std::string ProfileText(const Profile& profile);

// Folded-stacks flamegraph text: one "root;child;...;leaf self_ns" line
// per distinct stack (self times summed across occurrences), sorted.
// flamegraph.pl and speedscope consume this directly.
std::string FoldedStacks(const std::vector<SpanNode>& roots);
Result<std::string> FoldedStacksFromReportJson(std::string_view json);

// Validates a depsurf.profile.v1 document: schema marker, a well-formed
// names table (string name, nonnegative numeric columns, self <= dur), a
// critical_path section with consistent steps, and an executor section.
Status ValidateProfileDoc(std::string_view json);

}  // namespace obs
}  // namespace depsurf

#endif  // DEPSURF_SRC_OBS_PROFILE_H_
