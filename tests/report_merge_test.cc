// Tests for run-report aggregation (depsurf.run_report_agg.v1) and the
// perf regression gate: merge algebra (commutative and associative up to
// masking), histogram bucket addition, the golden aggregate schema, and
// stage classification with the noise floor.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/obs/json_lint.h"
#include "src/obs/metrics.h"
#include "src/obs/perf_gate.h"
#include "src/obs/profile.h"
#include "src/obs/report_merge.h"
#include "src/obs/run_report.h"
#include "src/obs/span.h"

namespace depsurf {
namespace {

// A small run report with one root span, one counter increment, and one
// histogram sample — enough to exercise every merge section.
std::string MakeReport(const std::string& span_name, uint64_t counter_delta,
                       uint64_t hist_value) {
  obs::SpanCollector collector;
  obs::MetricsRegistry registry;
  obs::SpanNode root;
  root.name = span_name;
  root.dur_ns = 4242;
  collector.AddRoot(root);
  registry.Incr("m.count", counter_delta);
  registry.Set("m.scale_pct", 5);  // non-timing gauge, identical across inputs
  registry.Set("m.wall_ms", static_cast<int64_t>(hist_value));  // timing gauge
  registry.Record("m.hist", hist_value);
  return RunReportJson(collector, registry);
}

std::string Canon(const std::string& json) {
  auto parsed = obs::ParseJson(json);
  EXPECT_TRUE(parsed.ok());
  return obs::CanonicalMaskedJson(*parsed);
}

TEST(ReportMergeTest, GoldenAggSchema) {
  obs::SpanCollector collector_a;
  obs::MetricsRegistry registry_a;
  obs::SpanNode root_a;
  root_a.name = "a.root";
  collector_a.AddRoot(root_a);
  registry_a.Incr("m.count", 2);
  registry_a.Record("m.hist", 5);  // bucket [4, 8)

  obs::SpanCollector collector_b;
  obs::MetricsRegistry registry_b;
  obs::SpanNode root_b;
  root_b.name = "b.root";
  collector_b.AddRoot(root_b);
  registry_b.Incr("m.count", 3);
  registry_b.Record("m.hist", 3);  // bucket [2, 4)

  obs::RunReportOptions masked;
  masked.mask_timings = true;
  auto merged = obs::MergeRunReports(
      {{"a", RunReportJson(collector_a, registry_a, masked)},
       {"b", RunReportJson(collector_b, registry_b, masked)}});
  ASSERT_TRUE(merged.ok()) << merged.error().ToString();

  EXPECT_EQ(*merged,
            "{\n"
            "\"schema\": \"depsurf.run_report_agg.v1\",\n"
            "\"reports\": 2,\n"
            "\"sources\": [{\"label\": \"a\", \"spans\": 1, \"counters\": 1, \"diags\": 0}, "
            "{\"label\": \"b\", \"spans\": 1, \"counters\": 1, \"diags\": 0}],\n"
            "\"spans\": [{\"name\": \"a.root\", \"dur_ns\": 0, \"cpu_ns\": 0, "
            "\"alloc_count\": 0, \"alloc_bytes\": 0, \"attrs\": {}, "
            "\"children\": []}, {\"name\": \"b.root\", \"dur_ns\": 0, "
            "\"cpu_ns\": 0, \"alloc_count\": 0, \"alloc_bytes\": 0, "
            "\"attrs\": {}, \"children\": []}],\n"
            "\"counters\": {\"m.count\": 5},\n"
            "\"gauges\": {},\n"
            "\"histograms\": {\"m.hist\": {\"count\": 2, \"sum\": 8, "
            "\"buckets\": [[2, 1], [4, 1]]}},\n"
            "\"diagnostics\": []\n"
            "}\n");
  EXPECT_TRUE(obs::ValidateAggReport(*merged).ok());
  EXPECT_FALSE(obs::ValidateAggReport(MakeReport("x", 1, 1)).ok());  // wrong schema
}

TEST(ReportMergeTest, CommutativeAfterMasking) {
  std::string a = MakeReport("a.root", 2, 5);
  std::string b = MakeReport("b.root", 3, 900);
  auto ab = obs::MergeRunReports({{"a", a}, {"b", b}});
  auto ba = obs::MergeRunReports({{"b", b}, {"a", a}});
  ASSERT_TRUE(ab.ok() && ba.ok());
  // Timing gauges take the last write, so raw bytes may differ; the masked
  // canonical form (the determinism contract) must not.
  EXPECT_EQ(Canon(*ab), Canon(*ba));
}

TEST(ReportMergeTest, AssociativeViaAggregateInput) {
  std::string a = MakeReport("a.root", 1, 2);
  std::string b = MakeReport("b.root", 2, 70);
  std::string c = MakeReport("c.root", 4, 3000);
  auto ab = obs::MergeRunReports({{"a", a}, {"b", b}});
  ASSERT_TRUE(ab.ok());
  // An aggregate is itself a valid merge input: folding C into merge(A, B)
  // equals merging all three at once.
  auto ab_c = obs::MergeRunReports({{"ab", *ab}, {"c", c}});
  auto abc = obs::MergeRunReports({{"a", a}, {"b", b}, {"c", c}});
  ASSERT_TRUE(ab_c.ok() && abc.ok());
  EXPECT_EQ(Canon(*ab_c), Canon(*abc));

  auto parsed = obs::ParseJson(*ab_c);
  ASSERT_TRUE(parsed.ok());
  EXPECT_DOUBLE_EQ(parsed->Find("reports")->number, 3.0);
  EXPECT_EQ(parsed->Find("sources")->array.size(), 3u);
  EXPECT_DOUBLE_EQ(parsed->Find("counters")->Find("m.count")->number, 7.0);
}

TEST(ReportMergeTest, HistogramBucketsAddBucketWise) {
  // 5 and 6 share bucket [4, 8); 3 sits alone in [2, 4).
  auto merged = obs::MergeRunReports({{"a", MakeReport("r", 1, 5)},
                                      {"b", MakeReport("r", 1, 6)},
                                      {"c", MakeReport("r", 1, 3)}});
  ASSERT_TRUE(merged.ok());
  auto parsed = obs::ParseJson(*merged);
  ASSERT_TRUE(parsed.ok());
  const obs::JsonValue* hist = parsed->Find("histograms")->Find("m.hist");
  ASSERT_NE(hist, nullptr);
  EXPECT_DOUBLE_EQ(hist->Find("count")->number, 3.0);
  EXPECT_DOUBLE_EQ(hist->Find("sum")->number, 14.0);
  const obs::JsonValue* buckets = hist->Find("buckets");
  ASSERT_EQ(buckets->array.size(), 2u);
  EXPECT_DOUBLE_EQ(buckets->array[0].array[0].number, 2.0);  // lower bound 2
  EXPECT_DOUBLE_EQ(buckets->array[0].array[1].number, 1.0);  // one sample
  EXPECT_DOUBLE_EQ(buckets->array[1].array[0].number, 4.0);  // lower bound 4
  EXPECT_DOUBLE_EQ(buckets->array[1].array[1].number, 2.0);  // 5 and 6
}

TEST(ReportMergeTest, RejectsGarbage) {
  EXPECT_FALSE(obs::MergeRunReports({}).ok());
  EXPECT_FALSE(obs::MergeRunReports({{"x", "not json"}}).ok());
  EXPECT_FALSE(obs::MergeRunReports({{"x", "{\"schema\": \"other.v1\"}"}}).ok());
}

// Merge refuses a count it would otherwise cast to an integer unchecked
// (-3 used to come out as 18446744073709551613), naming the member as
// `metrics lint` does.
TEST(ReportMergeTest, RefusesANegativeReportCount) {
  auto agg = obs::MergeRunReports({{"a", MakeReport("r", 1, 5)}});
  ASSERT_TRUE(agg.ok()) << agg.error().ToString();
  std::string tampered = *agg;
  const size_t at = tampered.find("\"reports\": 1,");
  ASSERT_NE(at, std::string::npos);
  tampered.replace(at, 13, "\"reports\": -3,");
  Status lint = obs::ValidateAggReport(tampered);
  ASSERT_FALSE(lint.ok());
  EXPECT_EQ(lint.error().message(), "reports: want count, got number -3");
  auto merged = obs::MergeRunReports({{"agg.json", tampered}});
  ASSERT_FALSE(merged.ok());
  EXPECT_EQ(merged.error().message(), "agg.json: reports: want count, got number -3");
}

TEST(ReportMergeTest, RefusesANegativeSourceCount) {
  auto agg = obs::MergeRunReports({{"a", MakeReport("r", 1, 5)}});
  ASSERT_TRUE(agg.ok()) << agg.error().ToString();
  std::string tampered = *agg;
  const std::string source = "{\"label\": \"a\", \"spans\": 1,";
  const size_t at = tampered.find(source);
  ASSERT_NE(at, std::string::npos) << tampered;
  tampered.replace(at, source.size(), "{\"label\": \"a\", \"spans\": -2,");
  auto merged = obs::MergeRunReports({{"agg.json", tampered}, {"b", MakeReport("r", 1, 5)}});
  ASSERT_FALSE(merged.ok());
  EXPECT_EQ(merged.error().message(), "agg.json: sources[0].spans: want count, got number -2");

  // Counters, span timings and histogram buckets are held to the same rule.
  for (const auto& [from, to, message] :
       std::vector<std::tuple<std::string, std::string, std::string>>{
           {"\"m.count\": 1", "\"m.count\": -1", "counters.m.count: want count, got number -1"},
           {"\"dur_ns\": 4242", "\"dur_ns\": -5", "spans[0].dur_ns: want count, got number -5"},
           {"\"buckets\": [[4, 1]]", "\"buckets\": [[-4, 1]]",
            "histograms.m.hist.buckets[0][0]: want count, got number -4"}}) {
    std::string report = MakeReport("r", 1, 5);
    const size_t pos = report.find(from);
    ASSERT_NE(pos, std::string::npos) << from << "\n" << report;
    report.replace(pos, from.size(), to);
    auto refused = obs::MergeRunReports({{"x", report}});
    ASSERT_FALSE(refused.ok()) << to;
    EXPECT_EQ(refused.error().message(), "x: " + message);
  }
}

// `metrics lint` accepts a count that is not an integer. Merge reads every
// count by CountValue, the rule `profile` reads the same members by, so
// such a report profiles the same before and after merging. An odd count
// past 2^52 keeps its value (rounding half up made it one larger).
TEST(ReportMergeTest, ReadsNonIntegralCountsAsProfileDoes) {
  const std::string report =
      "{\"schema\": \"depsurf.run_report.v1\", \"spans\": [{\"name\": \"r\", \"dur_ns\": 2.7, "
      "\"cpu_ns\": 1.5, \"alloc_count\": 0.9, \"alloc_bytes\": 3.99, \"attrs\": {\"k\": \"v\"}, "
      "\"children\": [{\"name\": \"c\", \"dur_ns\": 1.2, \"cpu_ns\": 0, \"alloc_count\": 0, "
      "\"alloc_bytes\": 0, \"attrs\": {}, \"children\": []}]}], "
      "\"counters\": {\"m.big\": 4503599627370497, \"study.executor.serialize_stall_us\": 7.9}, "
      "\"gauges\": {}, \"histograms\": {\"study.executor.queue_wait_us\": {\"count\": 2.7, "
      "\"sum\": 9.5, \"buckets\": [[4, 2.7]]}}, \"diagnostics\": []}";
  ASSERT_TRUE(obs::ValidateRunReport(report).ok());
  auto merged = obs::MergeRunReports({{"a", report}});
  ASSERT_TRUE(merged.ok()) << merged.error().ToString();
  auto direct = obs::ProfileFromReportJson(report);
  auto via_merge = obs::ProfileFromReportJson(*merged);
  ASSERT_TRUE(direct.ok() && via_merge.ok());
  EXPECT_EQ(direct->wall_ns, 2u);
  EXPECT_EQ(direct->executor.serialize_stall_us, 7u);
  EXPECT_EQ(direct->executor.queue_waits, 2u);
  EXPECT_EQ(obs::ProfileJson(*via_merge), obs::ProfileJson(*direct));
  EXPECT_NE(merged->find("\"m.big\": 4503599627370497,"), std::string::npos) << *merged;
  EXPECT_NE(merged->find("\"histograms\": {\"study.executor.queue_wait_us\": {\"count\": 2, "
                         "\"sum\": 9, \"buckets\": [[4, 2]]}}"),
            std::string::npos)
      << *merged;

  // An aggregate's report and source counts read the same way.
  std::string agg = *merged;
  for (const auto& [from, to] : std::vector<std::pair<std::string, std::string>>{
           {"\"reports\": 1,", "\"reports\": 1.9,"}, {"\"spans\": 2,", "\"spans\": 2.5,"}}) {
    const size_t at = agg.find(from);
    ASSERT_NE(at, std::string::npos) << from << "\n" << agg;
    agg.replace(at, from.size(), to);
  }
  ASSERT_TRUE(obs::ValidateAggReport(agg).ok());
  auto remerged = obs::MergeRunReports({{"agg", agg}});
  ASSERT_TRUE(remerged.ok()) << remerged.error().ToString();
  EXPECT_NE(remerged->find("\"reports\": 1,"), std::string::npos) << *remerged;
  EXPECT_NE(remerged->find("{\"label\": \"a\", \"spans\": 2, \"counters\": 2, \"diags\": 0}"),
            std::string::npos)
      << *remerged;
}

TEST(PerfGateTest, ClassifiesStagesAgainstThresholdAndFloor) {
  std::vector<obs::StageTiming> base = {{"extract", 1.0, 5},
                                        {"distill", 0.50, 5},
                                        {"tiny", 0.001, 1},
                                        {"dropped", 0.20, 1}};
  std::vector<obs::StageTiming> head = {{"extract", 1.40, 5},
                                        {"distill", 0.40, 5},
                                        {"tiny", 0.004, 1},
                                        {"fresh", 0.30, 1}};
  obs::PerfComparison cmp = obs::ComparePerf(base, head);  // 15%, 5 ms floor
  ASSERT_EQ(cmp.stages.size(), 5u);
  EXPECT_EQ(cmp.stages[0].cls, obs::StageClass::kRegressed);  // +40%
  EXPECT_EQ(cmp.stages[1].cls, obs::StageClass::kImproved);   // -20%
  EXPECT_EQ(cmp.stages[2].cls, obs::StageClass::kFlat);  // +300% but sub-floor
  EXPECT_EQ(cmp.stages[3].cls, obs::StageClass::kRemoved);
  EXPECT_EQ(cmp.stages[4].cls, obs::StageClass::kAdded);
  EXPECT_EQ(cmp.regressed, 1u);
  EXPECT_EQ(cmp.improved, 1u);
  EXPECT_TRUE(cmp.gate_failed());

  // Identical inputs never trip the gate.
  obs::PerfComparison same = obs::ComparePerf(base, base);
  EXPECT_FALSE(same.gate_failed());
  EXPECT_EQ(same.regressed, 0u);
  EXPECT_EQ(same.improved, 0u);

  // A looser threshold forgives the 40% regression.
  obs::PerfGateOptions loose;
  loose.max_regress = 0.50;
  EXPECT_FALSE(obs::ComparePerf(base, head, loose).gate_failed());
}

TEST(PerfGateTest, JsonRoundTripsThroughLint) {
  std::vector<obs::StageTiming> base = {{"extract", 1.0, 5}};
  std::vector<obs::StageTiming> head = {{"extract", 2.0, 5}};
  obs::PerfGateOptions options;
  obs::PerfComparison cmp = obs::ComparePerf(base, head, options);
  std::string json = obs::PerfComparisonJson(cmp, options);
  EXPECT_TRUE(obs::ValidatePerfCompare(json).ok()) << json;
  EXPECT_FALSE(obs::ValidatePerfCompare("{\"schema\": \"nope\"}").ok());

  auto parsed = obs::ParseJson(json);
  ASSERT_TRUE(parsed.ok());
  EXPECT_DOUBLE_EQ(parsed->Find("regressed")->number, 1.0);
}

TEST(PerfGateTest, LoadsTimingsFromRunReports) {
  // Root spans of a run report are stages: summed per distinct name.
  obs::SpanCollector collector;
  obs::MetricsRegistry registry;
  obs::SpanNode r1;
  r1.name = "surface.extract";
  r1.dur_ns = 2'000'000;
  collector.AddRoot(r1);
  collector.AddRoot(r1);  // second worker root with the same name
  auto parsed = obs::ParseJson(RunReportJson(collector, registry));
  ASSERT_TRUE(parsed.ok());
  auto timings = obs::LoadStageTimings(*parsed);
  ASSERT_TRUE(timings.ok()) << timings.error().ToString();
  ASSERT_EQ(timings->size(), 1u);
  EXPECT_EQ((*timings)[0].name, "surface.extract");
  EXPECT_DOUBLE_EQ((*timings)[0].seconds, 0.004);

  EXPECT_FALSE(obs::LoadStageTimings(*obs::ParseJson("{\"x\": 1}")).ok());
}

// Stage item counts go through the saturating CountValue: a negative or
// enormous count is not a cast with undefined behaviour.
TEST(PerfGateTest, StageItemsSaturateInsteadOfWrapping) {
  auto parsed = obs::ParseJson(
      "{\"schema\": \"depsurf.bench_report.v1\", \"stages\": ["
      "{\"name\": \"a\", \"seconds\": 1, \"items\": -5},"
      "{\"name\": \"b\", \"seconds\": 1, \"items\": 1e30},"
      "{\"name\": \"c\", \"seconds\": 1, \"items\": 7.9},"
      "{\"name\": \"d\", \"seconds\": 1}]}");
  ASSERT_TRUE(parsed.ok());
  auto timings = obs::LoadStageTimings(*parsed);
  ASSERT_TRUE(timings.ok()) << timings.error().ToString();
  ASSERT_EQ(timings->size(), 4u);
  EXPECT_EQ((*timings)[0].items, 0u);
  EXPECT_EQ((*timings)[1].items, UINT64_MAX);
  EXPECT_EQ((*timings)[2].items, 7u);
  EXPECT_EQ((*timings)[3].items, 0u);
}

}  // namespace
}  // namespace depsurf
