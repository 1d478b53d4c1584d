#include "src/obs/run_report.h"

#include <algorithm>

#include "src/obs/context.h"
#include "src/obs/diagnostics.h"
#include "src/util/file_util.h"
#include "src/util/str_util.h"

namespace depsurf {
namespace obs {

namespace {

void AppendSpanText(std::string& out, const SpanNode& span, int depth) {
  out += std::string(static_cast<size_t>(depth) * 2, ' ');
  out += StrFormat("%-40s %10.3f ms", span.name.c_str(),
                   static_cast<double>(span.dur_ns) / 1e6);
  if (span.cpu_ns != 0) {
    out += StrFormat(" cpu=%.3fms", static_cast<double>(span.cpu_ns) / 1e6);
  }
  if (span.alloc_count != 0) {
    out += StrFormat(" allocs=%llu/%lluB", (unsigned long long)span.alloc_count,
                     (unsigned long long)span.alloc_bytes);
  }
  for (const auto& [key, value] : span.attrs) {
    out += "  " + key + "=" + value;
  }
  out += "\n";
  for (const SpanNode& child : span.children) {
    AppendSpanText(out, child, depth + 1);
  }
}

}  // namespace

void WriteSpanJson(JsonWriter& writer, const SpanNode& span, const RunReportOptions& options) {
  const bool mask = options.mask_timings;
  writer.BeginObject().Key("name").String(span.name);
  writer.Key("dur_ns").Uint(mask ? 0 : span.dur_ns);
  writer.Key("cpu_ns").Uint(mask ? 0 : span.cpu_ns);
  // Allocation figures vary with the allocator, libstdc++ version, and
  // whether the alloc hooks are compiled in, so masking zeroes them too.
  writer.Key("alloc_count").Uint(mask ? 0 : span.alloc_count);
  writer.Key("alloc_bytes").Uint(mask ? 0 : span.alloc_bytes);
  writer.Key("attrs").BeginObject();
  for (const auto& [key, value] : span.attrs) {
    writer.Key(key).String(mask && IsTimingMetricName(key) ? "0" : value);
  }
  writer.EndObject().Key("children").BeginArray();
  for (const SpanNode& child : span.children) {
    WriteSpanJson(writer, child, options);
  }
  writer.EndArray().EndObject();
}

std::string RunReportJson(const SpanCollector& spans, const MetricsRegistry& metrics,
                          const RunReportOptions& options,
                          const std::vector<DiagnosticEntry>* diagnostics) {
  std::string out;
  JsonWriter writer(out);
  writer.BeginObject().Break(0).Key("schema").String(kRunReportSchema);

  std::vector<SpanNode> roots = spans.Snapshot();
  if (options.mask_timings) {
    // Root finish order is racy when dataset build lanes close their
    // surface.extract spans concurrently; the masked (deterministic) form
    // sorts it away. Unmasked reports keep real finish order.
    std::sort(roots.begin(), roots.end(), [](const SpanNode& a, const SpanNode& b) {
      return CompareSpanNodesMasked(a, b) < 0;
    });
  }
  writer.Break(0).Key("spans").BeginArray();
  for (const SpanNode& root : roots) {
    WriteSpanJson(writer, root, options);
  }
  writer.EndArray().Break(0).Key("counters").BeginObject();
  for (const auto& [name, value] : metrics.CounterSnapshot()) {
    writer.Key(name).Uint(options.mask_timings && IsTimingMetricName(name) ? 0 : value);
  }
  writer.EndObject().Break(0).Key("gauges").BeginObject();
  for (const auto& [name, value] : metrics.GaugeSnapshot()) {
    writer.Key(name).Int(options.mask_timings && IsTimingMetricName(name) ? 0 : value);
  }
  writer.EndObject().Break(0).Key("histograms").BeginObject();
  for (const auto& [name, histogram] : metrics.HistogramSnapshot()) {
    const bool mask = options.mask_timings && IsTimingMetricName(name);
    writer.Key(name).BeginObject().Key("count").Uint(mask ? 0 : histogram->count());
    writer.Key("sum").Uint(mask ? 0 : histogram->sum()).Key("buckets").BeginArray();
    for (size_t b = 0; !mask && b < Histogram::kNumBuckets; ++b) {
      if (uint64_t n = histogram->bucket(b); n != 0) {  // sparse: only occupied buckets
        writer.BeginArray().Uint(Histogram::BucketLowerBound(b)).Uint(n).EndArray();
      }
    }
    writer.EndArray().EndObject();
  }
  writer.EndObject().Break(0).Key("diagnostics");
  writer.Raw(DiagnosticsJson(diagnostics != nullptr ? *diagnostics
                                                    : std::vector<DiagnosticEntry>()));
  writer.Break(0).EndObject();
  out += '\n';
  return out;
}

std::string RunReportText(const SpanCollector& spans, const MetricsRegistry& metrics) {
  std::string out;
  std::vector<SpanNode> roots = spans.Snapshot();
  if (!roots.empty()) {
    out += "spans:\n";
    for (const SpanNode& root : roots) {
      AppendSpanText(out, root, 1);
    }
  }
  auto counters = metrics.CounterSnapshot();
  if (!counters.empty()) {
    out += "counters:\n";
    for (const auto& [name, value] : counters) {
      out += StrFormat("  %-40s %llu\n", name.c_str(), (unsigned long long)value);
    }
  }
  auto gauges = metrics.GaugeSnapshot();
  if (!gauges.empty()) {
    out += "gauges:\n";
    for (const auto& [name, value] : gauges) {
      out += StrFormat("  %-40s %lld\n", name.c_str(), (long long)value);
    }
  }
  auto histograms = metrics.HistogramSnapshot();
  if (!histograms.empty()) {
    out += "histograms:\n";
    for (const auto& [name, histogram] : histograms) {
      out += StrFormat("  %-40s count=%llu sum=%llu p50=%.1f p95=%.1f p99=%.1f\n",
                       name.c_str(), (unsigned long long)histogram->count(),
                       (unsigned long long)histogram->sum(), histogram->Percentile(0.50),
                       histogram->Percentile(0.95), histogram->Percentile(0.99));
      for (size_t b = 0; b < Histogram::kNumBuckets; ++b) {
        uint64_t n = histogram->bucket(b);
        if (n != 0) {
          out += StrFormat("    >= %-12llu %llu\n",
                           (unsigned long long)Histogram::BucketLowerBound(b),
                           (unsigned long long)n);
        }
      }
    }
  }
  return out;
}

std::string ContextRunReportJson(const Context& context, const RunReportOptions& options) {
  std::vector<DiagnosticEntry> diagnostics = context.diagnostics().Snapshot();
  return RunReportJson(context.spans(), context.metrics(), options, &diagnostics);
}

std::string GlobalRunReportJson(const RunReportOptions& options) {
  std::vector<DiagnosticEntry> diagnostics = DiagnosticsCollector::Global().Snapshot();
  return RunReportJson(SpanCollector::Global(), MetricsRegistry::Global(), options,
                       &diagnostics);
}

std::string GlobalRunReportText() {
  return RunReportText(SpanCollector::Global(), MetricsRegistry::Global());
}

Status WriteGlobalRunReport(const std::string& path, const RunReportOptions& options) {
  return WriteFile(path, GlobalRunReportJson(options));
}

}  // namespace obs
}  // namespace depsurf
