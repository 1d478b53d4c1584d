// Tests for the observability layer: span nesting and ordering, histogram
// bucket boundaries, counter thread-safety (raw and under a concurrent
// BuildDataset), and the golden run-report schema with timings masked.
#include <functional>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/obs/context.h"
#include "src/obs/diagnostics.h"
#include "src/obs/json_lint.h"
#include "src/obs/json_writer.h"
#include "src/obs/metrics.h"
#include "src/obs/profile.h"
#include "src/obs/run_report.h"
#include "src/obs/span.h"
#include "src/obs/trace_export.h"
#include "src/study/study.h"
#include "src/util/prng.h"
#include "src/util/str_util.h"

namespace depsurf {
namespace {

TEST(HistogramTest, BucketBoundaries) {
  EXPECT_EQ(obs::Histogram::BucketIndex(0), 0u);
  EXPECT_EQ(obs::Histogram::BucketIndex(1), 1u);
  EXPECT_EQ(obs::Histogram::BucketIndex(2), 2u);
  EXPECT_EQ(obs::Histogram::BucketIndex(3), 2u);
  EXPECT_EQ(obs::Histogram::BucketIndex(4), 3u);
  EXPECT_EQ(obs::Histogram::BucketIndex(7), 3u);
  EXPECT_EQ(obs::Histogram::BucketIndex(8), 4u);
  EXPECT_EQ(obs::Histogram::BucketIndex(1023), 10u);
  EXPECT_EQ(obs::Histogram::BucketIndex(1024), 11u);
  EXPECT_EQ(obs::Histogram::BucketIndex(~uint64_t{0}), 64u);

  EXPECT_EQ(obs::Histogram::BucketLowerBound(0), 0u);
  EXPECT_EQ(obs::Histogram::BucketLowerBound(1), 1u);
  EXPECT_EQ(obs::Histogram::BucketLowerBound(2), 2u);
  EXPECT_EQ(obs::Histogram::BucketLowerBound(3), 4u);
  EXPECT_EQ(obs::Histogram::BucketLowerBound(11), 1024u);

  // Every bucket's lower bound must land back in that bucket.
  for (size_t i = 0; i < obs::Histogram::kNumBuckets; ++i) {
    EXPECT_EQ(obs::Histogram::BucketIndex(obs::Histogram::BucketLowerBound(i)), i) << i;
  }
}

TEST(HistogramTest, RecordAccumulates) {
  obs::Histogram h;
  for (uint64_t v : {0, 1, 2, 3, 4, 1000}) {
    h.Record(v);
  }
  EXPECT_EQ(h.count(), 6u);
  EXPECT_EQ(h.sum(), 1010u);
  EXPECT_EQ(h.bucket(0), 1u);  // 0
  EXPECT_EQ(h.bucket(1), 1u);  // 1
  EXPECT_EQ(h.bucket(2), 2u);  // 2, 3
  EXPECT_EQ(h.bucket(3), 1u);  // 4
  EXPECT_EQ(h.bucket(10), 1u);  // 1000
}

TEST(HistogramTest, PercentileExactBucketZero) {
  obs::Histogram h;
  EXPECT_DOUBLE_EQ(h.Percentile(0.5), 0.0);  // empty histogram
  h.Record(0);
  h.Record(0);
  // Everything sits in the zero bucket: every percentile is exactly 0.
  EXPECT_DOUBLE_EQ(h.Percentile(0.01), 0.0);
  EXPECT_DOUBLE_EQ(h.Percentile(1.0), 0.0);
}

TEST(HistogramTest, PercentileInterpolatesWithinBucket) {
  obs::Histogram h;
  h.Record(4);  // bucket [4, 8): a single sample
  // Linear interpolation across the bucket: p50 is its midpoint, p100 its
  // exclusive upper bound.
  EXPECT_DOUBLE_EQ(h.Percentile(0.5), 6.0);
  EXPECT_DOUBLE_EQ(h.Percentile(1.0), 8.0);

  obs::Histogram mixed;
  mixed.Record(0);
  mixed.Record(0);
  mixed.Record(1);
  mixed.Record(1);
  // Half the mass is at 0; the rest interpolates through [1, 2).
  EXPECT_DOUBLE_EQ(mixed.Percentile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(mixed.Percentile(0.75), 1.5);
  // Out-of-range quantiles clamp instead of misbehaving.
  EXPECT_DOUBLE_EQ(mixed.Percentile(-1.0), 0.0);
  EXPECT_DOUBLE_EQ(mixed.Percentile(2.0), 2.0);
}

TEST(MetricsRegistryTest, CountersGaugesHistograms) {
  obs::MetricsRegistry registry;
  registry.Incr("a.count");
  registry.Incr("a.count", 4);
  registry.Set("a.gauge", -7);
  registry.Record("a.hist", 9);
  EXPECT_EQ(registry.Counter("a.count")->load(), 5u);
  EXPECT_EQ(registry.Gauge("a.gauge")->load(), -7);
  EXPECT_EQ(registry.GetHistogram("a.hist")->count(), 1u);

  // Reset zeroes values but keeps entries and pointer identity.
  std::atomic<uint64_t>* counter = registry.Counter("a.count");
  registry.Reset();
  EXPECT_EQ(counter, registry.Counter("a.count"));
  EXPECT_EQ(counter->load(), 0u);
  auto counters = registry.CounterSnapshot();
  ASSERT_EQ(counters.size(), 1u);
  EXPECT_EQ(counters[0].first, "a.count");
}

TEST(MetricsRegistryTest, SnapshotsAreSorted) {
  obs::MetricsRegistry registry;
  registry.Incr("z.last");
  registry.Incr("a.first");
  registry.Incr("m.middle");
  auto counters = registry.CounterSnapshot();
  ASSERT_EQ(counters.size(), 3u);
  EXPECT_EQ(counters[0].first, "a.first");
  EXPECT_EQ(counters[1].first, "m.middle");
  EXPECT_EQ(counters[2].first, "z.last");
}

TEST(MetricsRegistryTest, ConcurrentIncrementsDontLose) {
  obs::MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kIncrs = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      for (int i = 0; i < kIncrs; ++i) {
        registry.Incr("contended.counter");
        registry.Record("contended.hist", static_cast<uint64_t>(i));
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(registry.Counter("contended.counter")->load(),
            static_cast<uint64_t>(kThreads) * kIncrs);
  EXPECT_EQ(registry.GetHistogram("contended.hist")->count(),
            static_cast<uint64_t>(kThreads) * kIncrs);
}

TEST(MetricsRegistryTest, TimingNameConvention) {
  EXPECT_TRUE(obs::IsTimingMetricName("study.build_dataset.wall_ms"));
  EXPECT_TRUE(obs::IsTimingMetricName("x.dur_ns"));
  EXPECT_TRUE(obs::IsTimingMetricName("stage_us"));
  EXPECT_TRUE(obs::IsTimingMetricName("total_seconds"));
  EXPECT_FALSE(obs::IsTimingMetricName("elf.bytes_parsed"));
  EXPECT_FALSE(obs::IsTimingMetricName("ms"));
  EXPECT_FALSE(obs::IsTimingMetricName("surface.functions"));
}

TEST(SpanTest, NestingAndOrdering) {
  obs::SpanCollector::Global().Clear();
  {
    obs::ScopedSpan root("test.root");
    root.AddAttr("k", "v");
    EXPECT_EQ(root.depth(), 0);
    {
      obs::ScopedSpan child1("test.child1");
      EXPECT_EQ(child1.depth(), 1);
      obs::ScopedSpan grandchild("test.grandchild");
      EXPECT_EQ(grandchild.depth(), 2);
    }
    { obs::ScopedSpan child2("test.child2"); }
  }
  std::vector<obs::SpanNode> roots = obs::SpanCollector::Global().Snapshot();
  ASSERT_EQ(roots.size(), 1u);
  const obs::SpanNode& root = roots[0];
  EXPECT_EQ(root.name, "test.root");
  ASSERT_EQ(root.attrs.size(), 1u);
  EXPECT_EQ(root.attrs[0].first, "k");
  ASSERT_EQ(root.children.size(), 2u);  // finish order: child1 then child2
  EXPECT_EQ(root.children[0].name, "test.child1");
  EXPECT_EQ(root.children[1].name, "test.child2");
  ASSERT_EQ(root.children[0].children.size(), 1u);
  EXPECT_EQ(root.children[0].children[0].name, "test.grandchild");
  EXPECT_TRUE(root.children[1].children.empty());
  obs::SpanCollector::Global().Clear();
}

TEST(SpanTest, SiblingRootsCollectInFinishOrder) {
  obs::SpanCollector::Global().Clear();
  { obs::ScopedSpan a("test.a"); }
  { obs::ScopedSpan b("test.b"); }
  std::vector<obs::SpanNode> roots = obs::SpanCollector::Global().Snapshot();
  ASSERT_EQ(roots.size(), 2u);
  EXPECT_EQ(roots[0].name, "test.a");
  EXPECT_EQ(roots[1].name, "test.b");
  obs::SpanCollector::Global().Clear();
}

TEST(SpanTest, ThreadsKeepIndependentStacks) {
  obs::SpanCollector::Global().Clear();
  obs::ScopedSpan main_span("test.main");
  std::thread worker([] {
    // Opened on another thread: not a child of test.main, becomes a root.
    obs::ScopedSpan worker_span("test.worker");
    EXPECT_EQ(worker_span.depth(), 0);
  });
  worker.join();
  std::vector<obs::SpanNode> roots = obs::SpanCollector::Global().Snapshot();
  ASSERT_EQ(roots.size(), 1u);
  EXPECT_EQ(roots[0].name, "test.worker");
  obs::SpanCollector::Global().Clear();
}

TEST(SpanTest, ScopedSpanRecordsStartAndThreadId) {
  obs::SpanCollector::Global().Clear();
  { obs::ScopedSpan span("test.timed"); }
  uint32_t worker_tid = 0;
  std::thread worker([&worker_tid] {
    obs::ScopedSpan span("test.worker_timed");
    worker_tid = obs::ThreadTraceId();
  });
  worker.join();
  std::vector<obs::SpanNode> roots = obs::SpanCollector::Global().Snapshot();
  ASSERT_EQ(roots.size(), 2u);
  for (const obs::SpanNode& root : roots) {
    EXPECT_GT(root.start_ns, 0u) << root.name;
    EXPECT_GT(root.tid, 0u) << root.name;
  }
  // The worker thread gets its own trace id, distinct from this thread's.
  EXPECT_NE(worker_tid, obs::ThreadTraceId());
  obs::SpanCollector::Global().Clear();
}

TEST(SpanTest, MaskedCompareOrdersByNameAttrsAndChildren) {
  obs::SpanNode a;
  a.name = "alpha";
  obs::SpanNode b;
  b.name = "beta";
  EXPECT_LT(obs::CompareSpanNodesMasked(a, b), 0);
  EXPECT_GT(obs::CompareSpanNodesMasked(b, a), 0);

  // Timing-named attrs compare by key only: two runs of the same build
  // differ only in wall time, and must sort identically.
  obs::SpanNode t1;
  t1.name = "same";
  t1.attrs = {{"label", "v5.4"}, {"wall_ms", "10"}};
  obs::SpanNode t2 = t1;
  t2.attrs[1].second = "99";
  EXPECT_EQ(obs::CompareSpanNodesMasked(t1, t2), 0);

  // Non-timing attr values do participate.
  t2.attrs[0].second = "v6.8";
  EXPECT_LT(obs::CompareSpanNodesMasked(t1, t2), 0);

  // Children break ties between otherwise identical parents.
  obs::SpanNode p1;
  p1.name = "parent";
  obs::SpanNode p2 = p1;
  obs::SpanNode child;
  child.name = "child";
  p2.children.push_back(child);
  EXPECT_LT(obs::CompareSpanNodesMasked(p1, p2), 0);  // fewer children first
  p1.children.push_back(child);
  EXPECT_EQ(obs::CompareSpanNodesMasked(p1, p2), 0);
}

TEST(TraceExportTest, EveryNodeBecomesOneOrderedEvent) {
  obs::SpanNode r1;
  r1.name = "r1";
  r1.start_ns = 1000;
  r1.dur_ns = 5000;
  r1.tid = 1;
  r1.attrs = {{"k", "v"}};
  obs::SpanNode c1;
  c1.name = "c1";
  c1.start_ns = 2000;
  c1.dur_ns = 1000;
  c1.tid = 1;
  r1.children.push_back(c1);
  obs::SpanNode r2;
  r2.name = "r2";
  r2.start_ns = 1500;
  r2.dur_ns = 2000;
  r2.tid = 2;
  std::vector<obs::SpanNode> roots = {r1, r2};
  EXPECT_EQ(obs::CountSpanNodes(roots), 3u);

  auto trace = obs::ParseJson(obs::TraceEventJson(roots));
  ASSERT_TRUE(trace.ok()) << trace.error().ToString();
  // Metadata (thread_name) events don't count toward the span cross-check.
  EXPECT_TRUE(obs::ValidateTrace(*trace, 3).ok());
  EXPECT_FALSE(obs::ValidateTrace(*trace, 4).ok());  // count cross-check bites

  const obs::JsonValue* events = trace->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  // One "M" thread_name event per distinct tid leads the array, then the
  // three "X" complete events.
  ASSERT_EQ(events->array.size(), 5u);
  EXPECT_EQ(events->array[0].Find("ph")->string, "M");
  EXPECT_DOUBLE_EQ(events->array[0].Find("tid")->number, 1.0);
  EXPECT_EQ(events->array[0].Find("args")->Find("name")->string, "worker-1");
  EXPECT_EQ(events->array[1].Find("ph")->string, "M");
  EXPECT_EQ(events->array[1].Find("args")->Find("name")->string, "worker-2");
  // X events sort by start time, rebased so the earliest is ts=0; tid is
  // the recording thread's trace id.
  EXPECT_EQ(events->array[2].Find("name")->string, "r1");
  EXPECT_DOUBLE_EQ(events->array[2].Find("ts")->number, 0.0);
  EXPECT_DOUBLE_EQ(events->array[2].Find("dur")->number, 5.0);
  EXPECT_EQ(events->array[3].Find("name")->string, "r2");
  EXPECT_DOUBLE_EQ(events->array[3].Find("ts")->number, 0.5);
  EXPECT_DOUBLE_EQ(events->array[3].Find("tid")->number, 2.0);
  EXPECT_EQ(events->array[4].Find("name")->string, "c1");
  EXPECT_EQ(events->array[4].Find("args")->kind, obs::JsonValue::Kind::kObject);
  EXPECT_EQ(events->array[2].Find("args")->Find("k")->string, "v");
}

// The golden-schema test: a run report serialized with mask_timings is
// byte-stable — parses as JSON, carries exactly the five sections in order,
// and masks every timing field to zero.
TEST(RunReportTest, GoldenSchemaWithMaskedTimings) {
  obs::SpanCollector collector;
  obs::MetricsRegistry registry;
  obs::SpanNode root;
  root.name = "golden.root";
  root.dur_ns = 123456;
  root.cpu_ns = 100000;
  root.alloc_count = 5;
  root.alloc_bytes = 320;
  root.attrs = {{"label", "v5.4"}, {"wall_ms", "42"}};
  obs::SpanNode child;
  child.name = "golden.child";
  child.dur_ns = 999;
  root.children.push_back(child);
  collector.AddRoot(root);
  registry.Incr("golden.counter", 7);
  registry.Set("golden.gauge", -3);
  registry.Set("golden.wall_ms", 1234);
  registry.Record("golden.hist", 5);

  obs::RunReportOptions masked;
  masked.mask_timings = true;
  std::string json = RunReportJson(collector, registry, masked);

  EXPECT_EQ(json,
            "{\n"
            "\"schema\": \"depsurf.run_report.v1\",\n"
            "\"spans\": [{\"name\": \"golden.root\", \"dur_ns\": 0, "
            "\"cpu_ns\": 0, \"alloc_count\": 0, \"alloc_bytes\": 0, "
            "\"attrs\": {\"label\": \"v5.4\", \"wall_ms\": \"0\"}, \"children\": "
            "[{\"name\": \"golden.child\", \"dur_ns\": 0, \"cpu_ns\": 0, "
            "\"alloc_count\": 0, \"alloc_bytes\": 0, \"attrs\": {}, "
            "\"children\": []}]}],\n"
            "\"counters\": {\"golden.counter\": 7},\n"
            "\"gauges\": {\"golden.gauge\": -3, \"golden.wall_ms\": 0},\n"
            "\"histograms\": {\"golden.hist\": {\"count\": 1, \"sum\": 5, "
            "\"buckets\": [[4, 1]]}},\n"
            "\"diagnostics\": []\n"
            "}\n");

  // The masked document is identical across serializations and validates.
  EXPECT_EQ(json, RunReportJson(collector, registry, masked));
  EXPECT_TRUE(obs::ValidateRunReport(json, 2, {"golden.counter"}).ok());
  EXPECT_FALSE(obs::ValidateRunReport(json, 3).ok());  // only 2 distinct names
  EXPECT_FALSE(obs::ValidateRunReport(json, 0, {"missing.counter"}).ok());

  auto parsed = obs::ParseJson(json);
  ASSERT_TRUE(parsed.ok());
  auto names = obs::CollectSpanNames(*parsed);
  EXPECT_EQ(names.size(), 2u);
  EXPECT_TRUE(names.count("golden.root"));
  EXPECT_TRUE(names.count("golden.child"));
}

TEST(RunReportTest, UnmaskedKeepsTimingsAndCanonMasksThem) {
  obs::SpanCollector collector;
  obs::MetricsRegistry registry;
  obs::SpanNode root;
  root.name = "t.root";
  root.dur_ns = 777;
  root.cpu_ns = 555;
  root.alloc_count = 3;
  root.alloc_bytes = 96;
  collector.AddRoot(root);
  registry.Set("t.wall_ms", 55);

  std::string unmasked = RunReportJson(collector, registry);
  EXPECT_NE(unmasked.find("\"dur_ns\": 777"), std::string::npos);
  EXPECT_NE(unmasked.find("\"cpu_ns\": 555"), std::string::npos);
  EXPECT_NE(unmasked.find("\"alloc_count\": 3"), std::string::npos);
  EXPECT_NE(unmasked.find("\"alloc_bytes\": 96"), std::string::npos);
  EXPECT_NE(unmasked.find("\"t.wall_ms\": 55"), std::string::npos);

  // Canonicalization masks the same fields masked serialization does.
  auto parsed = obs::ParseJson(unmasked);
  ASSERT_TRUE(parsed.ok());
  obs::RunReportOptions masked_options;
  masked_options.mask_timings = true;
  auto masked_parsed = obs::ParseJson(RunReportJson(collector, registry, masked_options));
  ASSERT_TRUE(masked_parsed.ok());
  EXPECT_EQ(obs::CanonicalMaskedJson(*parsed), obs::CanonicalMaskedJson(*masked_parsed));
}

// Golden serialization of the diagnostics block: entries sort by
// (severity, subsystem, code, offset, message) ascending, and an unknown
// offset renders as -1.
TEST(DiagnosticsTest, GoldenEntrySerialization) {
  std::vector<DiagnosticEntry> entries;
  DiagnosticEntry warning;
  warning.severity = DiagSeverity::kWarning;
  warning.subsystem = DiagSubsystem::kElf;
  warning.code = ErrorCode::kNotFound;
  warning.message = "no banner";
  DiagnosticEntry degraded;
  degraded.severity = DiagSeverity::kDegraded;
  degraded.subsystem = DiagSubsystem::kDwarf;
  degraded.code = ErrorCode::kMalformedData;
  degraded.offset = 0x1c4;
  degraded.has_offset = true;
  degraded.message = "DWARF decode failed";
  // Inserted out of order on purpose; serialization must sort.
  entries.push_back(degraded);
  entries.push_back(warning);
  EXPECT_EQ(obs::DiagnosticsJson(entries),
            "[{\"severity\": \"warning\", \"subsystem\": \"elf\", "
            "\"code\": \"not_found\", \"offset\": -1, "
            "\"message\": \"no banner\"}, "
            "{\"severity\": \"degraded\", \"subsystem\": \"dwarf\", "
            "\"code\": \"malformed_data\", \"offset\": 452, "
            "\"message\": \"DWARF decode failed\"}]");
}

TEST(DiagnosticsTest, CollectorIsolatesAndClears) {
  obs::DiagnosticsCollector& diags = obs::DiagnosticsCollector::Global();
  diags.Clear();
  DiagnosticLedger ledger;
  ledger.Add(DiagSeverity::kDegraded, DiagSubsystem::kBtf, ErrorCode::kMalformedData,
             "bad chain");
  diags.AddAll(ledger);
  EXPECT_EQ(diags.size(), 1u);
  std::string report = obs::GlobalRunReportJson();
  EXPECT_NE(report.find("\"diagnostics\": [{\"severity\": \"degraded\""), std::string::npos);
  diags.Clear();
  EXPECT_EQ(diags.size(), 0u);
  EXPECT_NE(obs::GlobalRunReportJson().find("\"diagnostics\": []"), std::string::npos);
}

// Golden schema checks for the standalone depsurf.diagnostics.v1 document
// (what `depsurf doctor --json` emits), alongside the other validators.
TEST(DiagnosticsTest, DoctorDocValidation) {
  const char* good =
      "{\"schema\": \"depsurf.diagnostics.v1\", \"image\": \"img.bin\", "
      "\"health\": {\"elf\": \"clean\", \"dwarf\": \"degraded\", \"btf\": \"clean\", "
      "\"tracepoint\": \"clean\", \"syscall\": \"missing\"}, \"fatal\": false, "
      "\"entries\": [{\"severity\": \"degraded\", \"subsystem\": \"dwarf\", "
      "\"code\": \"malformed_data\", \"offset\": 452, \"message\": \"boom\"}]}";
  EXPECT_TRUE(obs::ValidateDiagnosticsDoc(good).ok());

  // Wrong schema string.
  EXPECT_FALSE(obs::ValidateDiagnosticsDoc(
                   "{\"schema\": \"depsurf.run_report.v1\", \"image\": \"x\", "
                   "\"health\": {}, \"fatal\": false, \"entries\": []}")
                   .ok());
  // Health state outside the enum.
  EXPECT_FALSE(obs::ValidateDiagnosticsDoc(
                   "{\"schema\": \"depsurf.diagnostics.v1\", \"image\": \"x\", "
                   "\"health\": {\"elf\": \"fine\", \"dwarf\": \"clean\", \"btf\": \"clean\", "
                   "\"tracepoint\": \"clean\", \"syscall\": \"clean\"}, "
                   "\"fatal\": false, \"entries\": []}")
                   .ok());
  // Entry missing a required field (no message).
  EXPECT_FALSE(obs::ValidateDiagnosticsDoc(
                   "{\"schema\": \"depsurf.diagnostics.v1\", \"image\": \"x\", "
                   "\"health\": {\"elf\": \"clean\", \"dwarf\": \"clean\", \"btf\": \"clean\", "
                   "\"tracepoint\": \"clean\", \"syscall\": \"clean\"}, \"fatal\": true, "
                   "\"entries\": [{\"severity\": \"fatal\", \"subsystem\": \"elf\", "
                   "\"code\": \"malformed_data\", \"offset\": -1}]}")
                   .ok());
}

TEST(JsonLintTest, ParsesAndRejects) {
  auto ok = obs::ParseJson("{\"a\": [1, 2.5, -3], \"b\": {\"c\": true, \"d\": null}}");
  ASSERT_TRUE(ok.ok());
  const obs::JsonValue* a = ok->Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->array.size(), 3u);
  EXPECT_DOUBLE_EQ(a->array[1].number, 2.5);
  EXPECT_FALSE(obs::ParseJson("{\"a\": }").ok());
  EXPECT_FALSE(obs::ParseJson("{\"a\": 1} trailing").ok());
  EXPECT_FALSE(obs::ParseJson("[1, 2,]").ok());
}

TEST(JsonLintTest, NestingPast256IsMalformedNotACrash) {
  // 100,000 levels once overflowed the parser's stack.
  const std::string deep = std::string(100000, '[') + std::string(100000, ']');
  auto rejected = obs::ParseJson(deep);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.error().code(), ErrorCode::kMalformedData);
  EXPECT_EQ(rejected.error().message(), "JSON: nesting deeper than 256 at offset 256");
  // Objects count too, and the limit is exact: 256 levels parse.
  std::string objects;
  for (int i = 0; i < 257; ++i) {
    objects += "{\"k\": ";
  }
  objects += "1" + std::string(257, '}');
  EXPECT_EQ(obs::ParseJson(objects).error().message(),
            "JSON: nesting deeper than 256 at offset 1536");
  EXPECT_TRUE(obs::ParseJson(std::string(256, '[') + std::string(256, ']')).ok());
  const std::string shallow = std::string(200, '[') + "\"x\"" + std::string(200, ']');
  auto accepted = obs::ParseJson(shallow);
  ASSERT_TRUE(accepted.ok()) << accepted.error().ToString();
  const obs::JsonValue* level = &accepted.value();
  for (int i = 0; i < 199; ++i) {
    ASSERT_EQ(level->array.size(), 1u);
    level = &level->array[0];
  }
  EXPECT_EQ(level->array[0].string, "x");
}

TEST(ContextTest, CurrentFallsBackToRootWrappingTheGlobals) {
  EXPECT_TRUE(obs::Context::Root().is_root());
  EXPECT_EQ(&obs::Context::Current(), &obs::Context::Root());
  EXPECT_EQ(&obs::Context::Current().metrics(), &obs::MetricsRegistry::Global());
  EXPECT_EQ(&obs::Context::Current().spans(), &obs::SpanCollector::Global());
  EXPECT_EQ(&obs::Context::Current().diagnostics(), &obs::DiagnosticsCollector::Global());
}

TEST(ContextTest, ScopedContextIsolatesCollectionAndNestsRestoring) {
  obs::MetricsRegistry::Global().Reset();
  obs::SpanCollector::Global().Clear();
  obs::Context ctx;
  EXPECT_FALSE(ctx.is_root());
  {
    obs::ScopedContext scope(ctx);
    EXPECT_EQ(&obs::Context::Current(), &ctx);
    obs::Context::Current().metrics().Incr("ctx.test");
    { obs::ScopedSpan span("ctx.span"); }
    obs::Context inner;
    {
      obs::ScopedContext inner_scope(inner);
      EXPECT_EQ(&obs::Context::Current(), &inner);
      obs::Context::Current().metrics().Incr("ctx.inner");
    }
    // Popping the inner scope restores the previous top, not the root.
    EXPECT_EQ(&obs::Context::Current(), &ctx);
    EXPECT_EQ(inner.metrics().Counter("ctx.inner")->load(), 1u);
    EXPECT_EQ(ctx.metrics().Counter("ctx.inner")->load(), 0u);
  }
  EXPECT_EQ(&obs::Context::Current(), &obs::Context::Root());
  EXPECT_EQ(ctx.metrics().Counter("ctx.test")->load(), 1u);
  ASSERT_EQ(ctx.spans().Snapshot().size(), 1u);
  EXPECT_EQ(ctx.spans().Snapshot()[0].name, "ctx.span");
  // Nothing leaked into the globals.
  EXPECT_EQ(obs::MetricsRegistry::Global().Counter("ctx.test")->load(), 0u);
  EXPECT_TRUE(obs::SpanCollector::Global().Snapshot().empty());

  // A span recorded under a pushed context is a root of that context, even
  // while a span opened under another context is still open on the thread;
  // popping the context restores that span as the parent of what follows.
  obs::Context build_ctx;
  obs::Context image_ctx;
  {
    obs::ScopedContext build_scope(build_ctx);
    obs::ScopedSpan build("ctx.build");
    {
      obs::ScopedContext image_scope(image_ctx);
      obs::ScopedSpan distill("ctx.distill");
    }
    obs::ScopedSpan after("ctx.after");
  }
  ASSERT_EQ(image_ctx.spans().Snapshot().size(), 1u);
  EXPECT_EQ(image_ctx.spans().Snapshot()[0].name, "ctx.distill");
  ASSERT_EQ(build_ctx.spans().Snapshot().size(), 1u);
  const obs::SpanNode build_root = build_ctx.spans().Snapshot()[0];
  EXPECT_EQ(build_root.name, "ctx.build");
  ASSERT_EQ(build_root.children.size(), 1u);
  EXPECT_EQ(build_root.children[0].name, "ctx.after");
}

TEST(ContextTest, WorkerThreadsDoNotInheritTheStack) {
  obs::SpanCollector::Global().Clear();
  obs::Context ctx;
  obs::ScopedContext scope(ctx);
  std::thread unscoped_worker([] {
    // The context stack is thread-local: this thread never pushed one, so
    // its spans land in the root despite the parent's active scope.
    obs::ScopedSpan span("ctx.worker_root");
  });
  unscoped_worker.join();
  EXPECT_TRUE(ctx.spans().Snapshot().empty());
  ASSERT_EQ(obs::SpanCollector::Global().Snapshot().size(), 1u);
  EXPECT_EQ(obs::SpanCollector::Global().Snapshot()[0].name, "ctx.worker_root");
  obs::SpanCollector::Global().Clear();

  // Pushing the context inside the worker routes collection into it — the
  // pattern report-mode build lanes use.
  std::thread scoped_worker([&ctx] {
    obs::ScopedContext worker_scope(ctx);
    obs::ScopedSpan span("ctx.worker_scoped");
  });
  scoped_worker.join();
  ASSERT_EQ(ctx.spans().Snapshot().size(), 1u);
  EXPECT_EQ(ctx.spans().Snapshot()[0].name, "ctx.worker_scoped");
  EXPECT_TRUE(obs::SpanCollector::Global().Snapshot().empty());
}

TEST(ContextTest, ContextRunReportSerializesOwnCollectors) {
  obs::Context ctx;
  {
    obs::ScopedContext scope(ctx);
    obs::ScopedSpan span("ctx.report_span");
    obs::Context::Current().metrics().Incr("ctx.report_counter", 3);
  }
  DiagnosticEntry entry;
  entry.severity = DiagSeverity::kDegraded;
  entry.subsystem = DiagSubsystem::kDwarf;
  entry.code = ErrorCode::kMalformedData;
  entry.message = "ctx boom";
  ctx.diagnostics().Add(entry);

  std::string json = obs::ContextRunReportJson(ctx);
  EXPECT_TRUE(obs::ValidateRunReport(json, 1, {"ctx.report_counter"}).ok());
  EXPECT_NE(json.find("ctx.report_span"), std::string::npos);
  EXPECT_NE(json.find("\"ctx.report_counter\": 3"), std::string::npos);
  EXPECT_NE(json.find("ctx boom"), std::string::npos);
}

// End to end across threads: the global metrics stay consistent when
// BuildDataset runs its extraction workers concurrently.
TEST(ObsIntegrationTest, ConcurrentBuildDatasetCountsConsistently) {
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  obs::SpanCollector::Global().Clear();
  metrics.Reset();

  Study study(StudyOptions{2025, 0.005});
  std::vector<BuildSpec> corpus = {MakeBuild(KernelVersion(5, 4)),
                                   MakeBuild(KernelVersion(5, 15)),
                                   MakeBuild(KernelVersion(6, 2)),
                                   MakeBuild(KernelVersion(6, 8))};
  auto dataset = study.BuildDataset(corpus);
  ASSERT_TRUE(dataset.ok()) << dataset.error().ToString();

  EXPECT_EQ(metrics.Counter("surface.extracted")->load(), corpus.size());
  EXPECT_EQ(metrics.Counter("elf.files_parsed")->load(), corpus.size());
  EXPECT_EQ(metrics.Counter("kernelgen.images_built")->load(), corpus.size());
  EXPECT_EQ(metrics.Counter("dataset.images_distilled")->load(), corpus.size());
  EXPECT_EQ(metrics.Counter("study.datasets_built")->load(), 1u);
  EXPECT_GT(metrics.Counter("btf.types_decoded")->load(), 0u);
  EXPECT_GT(metrics.Counter("dwarf.dies_decoded")->load(), 0u);
  EXPECT_EQ(metrics.GetHistogram("study.image_extract_ms")->count(), corpus.size());

  // Worker-thread surface.extract spans are roots of their own; the
  // main-thread study.build_dataset root holds the distillation children.
  std::vector<obs::SpanNode> roots = obs::SpanCollector::Global().Snapshot();
  size_t extract_roots = 0;
  size_t dataset_roots = 0;
  for (const obs::SpanNode& root : roots) {
    extract_roots += root.name == "surface.extract" ? 1 : 0;
    dataset_roots += root.name == "study.build_dataset" ? 1 : 0;
  }
  EXPECT_EQ(extract_roots, corpus.size());
  EXPECT_EQ(dataset_roots, 1u);

  obs::SpanCollector::Global().Clear();
  metrics.Reset();
}

// The masked run report is byte-identical across two threaded BuildDataset
// runs: worker roots finish in racy order, but masked serialization sorts
// them by (name, attrs, children) before emitting.
TEST(ObsIntegrationTest, ThreadedBuildDatasetMaskedReportIsDeterministic) {
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  std::vector<BuildSpec> corpus = {MakeBuild(KernelVersion(5, 4)),
                                   MakeBuild(KernelVersion(5, 15)),
                                   MakeBuild(KernelVersion(6, 2)),
                                   MakeBuild(KernelVersion(6, 8))};
  obs::RunReportOptions masked;
  masked.mask_timings = true;
  std::vector<std::string> reports;
  for (int run = 0; run < 2; ++run) {
    obs::SpanCollector::Global().Clear();
    metrics.Reset();
    Study study(StudyOptions{2025, 0.005});
    auto dataset = study.BuildDataset(corpus);
    ASSERT_TRUE(dataset.ok()) << dataset.error().ToString();
    reports.push_back(obs::GlobalRunReportJson(masked));
  }
  EXPECT_EQ(reports[0], reports[1]);
  obs::SpanCollector::Global().Clear();
  metrics.Reset();
}

// A five-node forest with a known decomposition:
//   a (10000) -> b (6000) -> d (1000)
//             -> c (2000)
//   x (4000)
// a.self = 10000 - 6000 - 2000 = 2000, b.self = 6000 - 1000 = 5000.
std::vector<obs::SpanNode> ProfileFixtureForest() {
  obs::SpanNode d;
  d.name = "d";
  d.dur_ns = 1000;
  d.cpu_ns = 900;
  obs::SpanNode b;
  b.name = "b";
  b.dur_ns = 6000;
  b.cpu_ns = 5000;
  b.children.push_back(d);
  obs::SpanNode c;
  c.name = "c";
  c.dur_ns = 2000;
  c.alloc_count = 4;
  c.alloc_bytes = 256;
  obs::SpanNode a;
  a.name = "a";
  a.dur_ns = 10000;
  a.cpu_ns = 8000;
  a.children.push_back(b);
  a.children.push_back(c);
  obs::SpanNode x;
  x.name = "x";
  x.dur_ns = 4000;
  return {a, x};
}

const obs::ProfileNameRow* FindRow(const obs::Profile& profile, const std::string& name) {
  for (const obs::ProfileNameRow& row : profile.names) {
    if (row.name == name) {
      return &row;
    }
  }
  return nullptr;
}

// The per-character escaper JsonEscape was before AppendJsonEscaped.
std::string ReferenceJsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StrFormat("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

TEST(JsonEscapeTest, AppendMatchesTheReferenceOnEveryByteAndSeededStrings) {
  for (int byte = 0; byte < 256; ++byte) {
    const std::string one(1, static_cast<char>(byte));
    std::string appended = "{\"k\": \"";
    obs::AppendJsonEscaped(appended, one);
    EXPECT_EQ(appended, "{\"k\": \"" + ReferenceJsonEscape(one)) << byte;
    EXPECT_EQ(obs::JsonEscape(one), ReferenceJsonEscape(one)) << byte;
  }
  // Runs of plain bytes between escapes, at both ends and back to back.
  Prng rng(2025);
  const std::string specials = "\"\\\n\t\r\x01\x1f\x7f\x80\xff ";
  for (int round = 0; round < 2000; ++round) {
    std::string s(rng.NextBelow(40), '\0');
    for (char& c : s) {
      c = rng.NextBool(0.3) ? specials[rng.NextBelow(specials.size())]
                            : static_cast<char>(rng.NextBelow(256));
    }
    std::string appended = "x";
    obs::AppendJsonEscaped(appended, s);
    EXPECT_EQ(appended, "x" + ReferenceJsonEscape(s)) << round;
    EXPECT_EQ(obs::JsonEscape(s), ReferenceJsonEscape(s)) << round;
  }
}

// What `write` puts through a fresh writer.
std::string Written(const std::function<void(obs::JsonWriter&)>& write) {
  std::string out;
  obs::JsonWriter writer(out);
  write(writer);
  return out;
}

TEST(JsonWriterTest, EmptyContainersWithAndWithoutABreak) {
  EXPECT_EQ(Written([](obs::JsonWriter& w) { w.BeginObject().EndObject(); }), "{}");
  EXPECT_EQ(Written([](obs::JsonWriter& w) { w.BeginArray().EndArray(); }), "[]");
  EXPECT_EQ(Written([](obs::JsonWriter& w) { w.BeginObject().Break(2).EndObject(); }),
            "{\n  }");
  EXPECT_EQ(Written([](obs::JsonWriter& w) { w.BeginArray().Break(0).EndArray(); }), "[\n]");
}

TEST(JsonWriterTest, BreaksBeforeAFirstElementBetweenSiblingsAndBeforeACloser) {
  EXPECT_EQ(Written([](obs::JsonWriter& w) {
              w.BeginObject().Break(2).Key("a").Uint(1).Key("b").BeginArray();
              w.Break(4).Uint(2).Break(4).Uint(3).Uint(4).Break(2).EndArray();
              w.Break(0).EndObject();
            }),
            "{\n  \"a\": 1, \"b\": [\n    2,\n    3, 4\n  ]\n}");
  // A later break replaces a pending one.
  EXPECT_EQ(Written([](obs::JsonWriter& w) {
              w.BeginArray().Break(3).Break(1).Uint(1).Break(2).EndArray();
            }),
            "[\n 1\n  ]");
}

TEST(JsonWriterTest, Nesting) {
  EXPECT_EQ(Written([](obs::JsonWriter& w) {
              w.BeginArray().BeginObject().Key("x").BeginArray().BeginArray().EndArray().Null();
              w.EndArray().Key("y").BeginObject().EndObject().EndObject();
              w.Bool(true).Bool(false).EndArray();
            }),
            "[{\"x\": [[], null], \"y\": {}}, true, false]");
}

TEST(JsonWriterTest, EscapesEveryByteAsAKeyAndAsAString) {
  for (int byte = 0; byte < 256; ++byte) {
    const std::string one(1, static_cast<char>(byte));
    const std::string quoted = "\"" + ReferenceJsonEscape(one) + "\"";
    auto write = [&one](obs::JsonWriter& w) { w.BeginObject().Key(one).String(one).EndObject(); };
    EXPECT_EQ(Written(write), "{" + quoted + ": " + quoted + "}") << byte;
  }
}

TEST(JsonWriterTest, IntegersAtTheirLimits) {
  EXPECT_EQ(Written([](obs::JsonWriter& w) {
              w.BeginArray().Uint(0).Uint(UINT64_MAX).Int(INT64_MIN).Int(-1).EndArray();
            }),
            "[0, 18446744073709551615, -9223372036854775808, -1]");
}

TEST(JsonWriterTest, FixedMatchesPrintf) {
  for (double v : {0.0, 1.0, -1.0, 0.125, 2.5, -3.14159, 1e-7, 6.6666666, 2730.6666666, 1e12}) {
    for (int digits : {0, 1, 2, 3, 6}) {
      EXPECT_EQ(Written([&](obs::JsonWriter& w) { w.Fixed(v, digits); }),
                StrFormat("%.*f", digits, v))
          << v << " " << digits;
    }
  }
}

TEST(JsonWriterTest, RawSplicesAValue) {
  EXPECT_EQ(Written([](obs::JsonWriter& w) {
              w.BeginObject().Key("a").Raw("[1,2]").Key("b").Raw("0.500").EndObject();
            }),
            "{\"a\": [1,2], \"b\": 0.500}");
  EXPECT_EQ(Written([](obs::JsonWriter& w) {
              w.BeginArray().Raw("{}").Break(1).Raw("\"x\"").EndArray();
            }),
            "[{},\n \"x\"]");
}

bool SameJson(const obs::JsonValue& a, const obs::JsonValue& b) {
  if (a.kind != b.kind || a.boolean != b.boolean || a.number != b.number ||
      a.string != b.string || a.array.size() != b.array.size() ||
      a.object.size() != b.object.size()) {
    return false;
  }
  for (size_t i = 0; i < a.array.size(); ++i) {
    if (!SameJson(a.array[i], b.array[i])) {
      return false;
    }
  }
  for (size_t i = 0; i < a.object.size(); ++i) {
    if (a.object[i].first != b.object[i].first ||
        !SameJson(a.object[i].second, b.object[i].second)) {
      return false;
    }
  }
  return true;
}

// Writes a random value, with breaks in random places, and returns the
// value ParseJson should read back.
obs::JsonValue WriteRandomValue(obs::JsonWriter& writer, Prng& rng, int depth) {
  using Kind = obs::JsonValue::Kind;
  auto maybe_break = [&] {
    if (rng.NextBool(0.3)) {
      writer.Break(static_cast<int>(rng.NextBelow(5)));
    }
  };
  auto random_string = [&rng] {
    std::string s(rng.NextBelow(12), '\0');
    for (char& c : s) {
      c = static_cast<char>(rng.NextBelow(256));
    }
    return s;
  };
  obs::JsonValue value;
  switch (rng.NextBelow(depth < 4 ? 8 : 6)) {
    case 0:
      writer.Null();
      break;
    case 1:
      value.kind = Kind::kBool;
      value.boolean = rng.NextBool(0.5);
      writer.Bool(value.boolean);
      break;
    case 2: {
      const uint64_t n = rng.NextU64();
      value.kind = Kind::kNumber;
      value.number = static_cast<double>(n);
      writer.Uint(n);
      break;
    }
    case 3: {
      const int64_t n = static_cast<int64_t>(rng.NextU64());
      value.kind = Kind::kNumber;
      value.number = static_cast<double>(n);
      writer.Int(n);
      break;
    }
    case 4:
      // Multiples of 1/64 print exactly with 6 digits.
      value.kind = Kind::kNumber;
      value.number = (static_cast<double>(rng.NextBelow(2000001)) - 1000000) / 64;
      writer.Fixed(value.number, 6);
      break;
    case 5:
      value.kind = Kind::kString;
      value.string = random_string();
      writer.String(value.string);
      break;
    case 6:
      value.kind = Kind::kArray;
      writer.BeginArray();
      for (uint64_t n = rng.NextBelow(5); n > 0; --n) {
        maybe_break();
        value.array.push_back(WriteRandomValue(writer, rng, depth + 1));
      }
      maybe_break();
      writer.EndArray();
      break;
    case 7:
      value.kind = Kind::kObject;
      writer.BeginObject();
      for (uint64_t n = rng.NextBelow(5); n > 0; --n) {
        maybe_break();
        std::string key = random_string();
        writer.Key(key);
        obs::JsonValue member = WriteRandomValue(writer, rng, depth + 1);
        value.object.emplace_back(std::move(key), std::move(member));
      }
      maybe_break();
      writer.EndObject();
      break;
  }
  return value;
}

TEST(JsonWriterTest, SeededDocumentsReadBackEqual) {
  Prng rng(2025);
  for (int round = 0; round < 500; ++round) {
    std::string out;
    obs::JsonWriter writer(out);
    obs::JsonValue want;
    want.kind = obs::JsonValue::Kind::kArray;
    writer.BeginArray();
    for (uint64_t n = rng.NextBelow(8); n > 0; --n) {
      want.array.push_back(WriteRandomValue(writer, rng, 0));
    }
    writer.EndArray();
    auto parsed = obs::ParseJson(out);
    ASSERT_TRUE(parsed.ok()) << round << ": " << parsed.error().ToString() << "\n" << out;
    EXPECT_TRUE(SameJson(*parsed, want)) << round << ": " << out;
  }
}

TEST(ProfileTest, AggregatesSelfTimeAndCriticalPath) {
  obs::Profile profile = obs::BuildProfile(ProfileFixtureForest());
  EXPECT_EQ(profile.span_nodes, 5u);
  ASSERT_EQ(profile.names.size(), 5u);
  // Sorted by name.
  EXPECT_EQ(profile.names[0].name, "a");
  EXPECT_EQ(profile.names[4].name, "x");
  const obs::ProfileNameRow* a = FindRow(profile, "a");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->count, 1u);
  EXPECT_EQ(a->dur_ns, 10000u);
  EXPECT_EQ(a->self_ns, 2000u);
  EXPECT_EQ(a->cpu_ns, 8000u);
  EXPECT_EQ(FindRow(profile, "b")->self_ns, 5000u);
  EXPECT_EQ(FindRow(profile, "c")->alloc_bytes, 256u);
  EXPECT_EQ(FindRow(profile, "d")->self_ns, 1000u);

  // Self times telescope: summed over a root's tree they equal its dur.
  uint64_t total_self = 0;
  for (const obs::ProfileNameRow& row : profile.names) {
    total_self += row.self_ns;
  }
  EXPECT_EQ(total_self, 10000u + 4000u);

  // Critical path descends the dominant chain a -> b -> d.
  EXPECT_EQ(profile.wall_ns, 10000u);
  ASSERT_EQ(profile.critical_path.size(), 3u);
  EXPECT_EQ(profile.critical_path[0].name, "a");
  EXPECT_EQ(profile.critical_path[1].name, "b");
  EXPECT_EQ(profile.critical_path[2].name, "d");
  EXPECT_EQ(profile.serial_self_ns, 2000u + 5000u + 1000u);
  EXPECT_DOUBLE_EQ(obs::SerialSharePct(profile), 80.0);
}

TEST(ProfileTest, FoldedStacksSumSelfTimePerStack) {
  std::string folded = obs::FoldedStacks(ProfileFixtureForest());
  EXPECT_EQ(folded,
            "a 2000\n"
            "a;b 5000\n"
            "a;b;d 1000\n"
            "a;c 2000\n"
            "x 4000\n");
}

TEST(ProfileTest, JsonValidatesAndRejectsTampering) {
  obs::Profile profile = obs::BuildProfile(ProfileFixtureForest());
  std::string json = obs::ProfileJson(profile);
  EXPECT_TRUE(obs::ValidateProfileDoc(json).ok())
      << obs::ValidateProfileDoc(json).ToString();

  std::string wrong_schema = json;
  wrong_schema.replace(wrong_schema.find("depsurf.profile.v1"), 18, "depsurf.profile.v9");
  EXPECT_FALSE(obs::ValidateProfileDoc(wrong_schema).ok());

  // A row whose self time exceeds its duration is inconsistent.
  std::string inflated = json;
  size_t at = inflated.find("\"self_ns\": 2000");
  ASSERT_NE(at, std::string::npos);
  inflated.replace(at, 15, "\"self_ns\": 99999999");
  EXPECT_FALSE(obs::ValidateProfileDoc(inflated).ok());
}

TEST(ProfileTest, RoundTripsThroughRunReportWithExecutorStats) {
  obs::SpanCollector collector;
  obs::MetricsRegistry registry;
  for (const obs::SpanNode& root : ProfileFixtureForest()) {
    collector.AddRoot(root);
  }
  registry.Set("study.build_dataset.window", 2);
  registry.Set("study.build_dataset.wall_ms", 120);
  registry.Incr("study.executor.serialize_stall_us", 5000);
  registry.Record("study.executor.queue_wait_us", 10);
  registry.Record("study.executor.queue_wait_us", 20);
  registry.Set("study.executor.worker0.busy_ms", 91);
  registry.Set("study.executor.worker1.busy_ms", 112);

  // Executor stats lift identically from the live registry and from the
  // serialized report of the same registry.
  obs::Profile live = obs::BuildProfile(collector.Snapshot());
  obs::FillExecutorStats(live, registry);
  auto parsed = obs::ProfileFromReportJson(RunReportJson(collector, registry));
  ASSERT_TRUE(parsed.ok()) << parsed.error().ToString();

  for (const obs::Profile* profile : {&live, &*parsed}) {
    EXPECT_EQ(profile->span_nodes, 5u);
    EXPECT_EQ(profile->wall_ns, 10000u);
    ASSERT_TRUE(profile->executor.present);
    EXPECT_EQ(profile->executor.window, 2);
    EXPECT_EQ(profile->executor.wall_ms, 120);
    EXPECT_EQ(profile->executor.serialize_stall_us, 5000u);
    EXPECT_EQ(profile->executor.queue_waits, 2u);
    ASSERT_EQ(profile->executor.worker_busy_ms.size(), 2u);
    EXPECT_EQ(profile->executor.worker_busy_ms[0].first, 0);
    EXPECT_EQ(profile->executor.worker_busy_ms[1].second, 112);
    EXPECT_TRUE(obs::ValidateProfileDoc(obs::ProfileJson(*profile)).ok());
  }
}

// A report's executor gauges and counters are read with the saturating
// CountValue, the rule a saved profile's members already follow.
TEST(ProfileTest, ExecutorMembersOfAReportSaturate) {
  obs::SpanCollector collector;
  obs::MetricsRegistry registry;
  for (const obs::SpanNode& root : ProfileFixtureForest()) {
    collector.AddRoot(root);
  }
  registry.Set("study.build_dataset.window", -4);
  registry.Set("study.executor.worker0.busy_ms", -1);
  registry.Incr("study.executor.serialize_stall_us", 5000);
  registry.Set("study.build_dataset.wall_ms", 120);
  std::string report = RunReportJson(collector, registry);
  for (const auto& [from, to] : std::vector<std::pair<std::string, std::string>>{
           {"\"study.executor.serialize_stall_us\": 5000",
            "\"study.executor.serialize_stall_us\": 1e30"},
           {"\"study.build_dataset.wall_ms\": 120", "\"study.build_dataset.wall_ms\": 1e300"}}) {
    const size_t at = report.find(from);
    ASSERT_NE(at, std::string::npos) << from << "\n" << report;
    report.replace(at, from.size(), to);
  }
  auto parsed = obs::ProfileFromReportJson(report);
  ASSERT_TRUE(parsed.ok()) << parsed.error().ToString();
  ASSERT_TRUE(parsed->executor.present);
  EXPECT_EQ(parsed->executor.window, 0);
  EXPECT_EQ(parsed->executor.wall_ms, INT64_MAX);
  EXPECT_EQ(parsed->executor.serialize_stall_us, UINT64_MAX);
  ASSERT_EQ(parsed->executor.worker_busy_ms.size(), 1u);
  EXPECT_EQ(parsed->executor.worker_busy_ms[0].second, 0);
}

TEST(ProfileTest, ParseProfileDocInvertsProfileJson) {
  obs::Profile profile = obs::BuildProfile(ProfileFixtureForest());
  obs::MetricsRegistry registry;
  registry.Set("study.build_dataset.window", 4);
  registry.Set("study.build_dataset.wall_ms", 120);
  registry.Incr("study.executor.serialize_stall_us", 5000);
  registry.Record("study.executor.queue_wait_us", 10);
  registry.Set("study.executor.worker0.busy_ms", 91);
  registry.Set("study.executor.worker1.busy_ms", 112);
  obs::FillExecutorStats(profile, registry);
  const std::string json = obs::ProfileJson(profile);

  auto back = obs::ParseProfileDoc(json);
  ASSERT_TRUE(back.ok()) << back.error().ToString();
  EXPECT_EQ(back->span_nodes, profile.span_nodes);
  EXPECT_EQ(back->wall_ns, profile.wall_ns);
  EXPECT_EQ(back->serial_self_ns, profile.serial_self_ns);
  ASSERT_EQ(back->names.size(), profile.names.size());
  for (size_t i = 0; i < profile.names.size(); ++i) {
    EXPECT_EQ(back->names[i].name, profile.names[i].name);
    EXPECT_EQ(back->names[i].count, profile.names[i].count);
    EXPECT_EQ(back->names[i].self_ns, profile.names[i].self_ns);
    EXPECT_EQ(back->names[i].alloc_bytes, profile.names[i].alloc_bytes);
  }
  ASSERT_EQ(back->critical_path.size(), profile.critical_path.size());
  for (size_t i = 0; i < profile.critical_path.size(); ++i) {
    EXPECT_EQ(back->critical_path[i].name, profile.critical_path[i].name);
    EXPECT_EQ(back->critical_path[i].dur_ns, profile.critical_path[i].dur_ns);
  }
  EXPECT_TRUE(back->executor.present);
  EXPECT_EQ(back->executor.worker_busy_ms, profile.executor.worker_busy_ms);
  // `depsurf profile P.json --json` re-renders a saved profile byte for byte.
  EXPECT_EQ(obs::ProfileJson(*back), json);

  // Non-profile and inconsistent documents are rejected up front.
  EXPECT_FALSE(obs::ParseProfileDoc("{\"schema\": \"depsurf.bench_report.v1\"}").ok());
  std::string negative = json;
  size_t at = negative.find("\"self_ns\": 2000");
  ASSERT_NE(at, std::string::npos);
  negative.replace(at, 15, "\"self_ns\": -1");
  EXPECT_FALSE(obs::ParseProfileDoc(negative).ok());

  // A count past 2^64 saturates instead of overflowing the conversion.
  std::string huge = json;
  at = huge.find("\"dur_ns\": 10000,");
  ASSERT_NE(at, std::string::npos);
  huge.replace(at, 15, "\"dur_ns\": 1e300");
  auto saturated = obs::ParseProfileDoc(huge);
  ASSERT_TRUE(saturated.ok()) << saturated.error().ToString();
  EXPECT_EQ(saturated->names[0].dur_ns, UINT64_MAX);
}

TEST(ProfileTest, LiveSpansKeepCpuWithinWallAndSelfTelescopes) {
  obs::SpanCollector::Global().Clear();
  {
    obs::ScopedSpan root("p.root");
    volatile uint64_t sink = 0;
    {
      obs::ScopedSpan child("p.child");
      for (uint64_t i = 0; i < 400000; ++i) {
        sink = sink + i;
      }
    }
    for (uint64_t i = 0; i < 100000; ++i) {
      sink = sink + i;
    }
  }
  std::vector<obs::SpanNode> roots = obs::SpanCollector::Global().Snapshot();
  ASSERT_EQ(roots.size(), 1u);
  const obs::SpanNode& root = roots[0];
  ASSERT_EQ(root.children.size(), 1u);
  // Thread CPU time never exceeds wall time for a single-threaded span.
  EXPECT_LE(root.cpu_ns, root.dur_ns);
  EXPECT_LE(root.children[0].cpu_ns, root.children[0].dur_ns);
  // Self times telescope back to the root duration exactly.
  obs::Profile profile = obs::BuildProfile(roots);
  uint64_t total_self = 0;
  for (const obs::ProfileNameRow& row : profile.names) {
    total_self += row.self_ns;
  }
  EXPECT_EQ(total_self, root.dur_ns);
  obs::SpanCollector::Global().Clear();
}

}  // namespace
}  // namespace depsurf
