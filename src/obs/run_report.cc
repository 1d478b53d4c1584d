#include "src/obs/run_report.h"

#include <algorithm>
#include <fstream>

#include "src/obs/context.h"
#include "src/obs/diagnostics.h"
#include "src/util/str_util.h"

namespace depsurf {
namespace obs {

namespace {

std::string U64(uint64_t v) { return StrFormat("%llu", (unsigned long long)v); }
std::string I64(int64_t v) { return StrFormat("%lld", (long long)v); }

void AppendSpanJson(std::string& out, const SpanNode& span, const RunReportOptions& options) {
  out += "{\"name\": \"" + JsonEscape(span.name) + "\"";
  out += ", \"dur_ns\": " + U64(options.mask_timings ? 0 : span.dur_ns);
  out += ", \"cpu_ns\": " + U64(options.mask_timings ? 0 : span.cpu_ns);
  // Allocation figures vary with the allocator, libstdc++ version, and
  // whether the alloc hooks are compiled in, so masking zeroes them too.
  out += ", \"alloc_count\": " + U64(options.mask_timings ? 0 : span.alloc_count);
  out += ", \"alloc_bytes\": " + U64(options.mask_timings ? 0 : span.alloc_bytes);
  out += ", \"attrs\": {";
  for (size_t i = 0; i < span.attrs.size(); ++i) {
    if (i != 0) {
      out += ", ";
    }
    const auto& [key, value] = span.attrs[i];
    bool mask = options.mask_timings && IsTimingMetricName(key);
    out += "\"" + JsonEscape(key) + "\": \"" + JsonEscape(mask ? "0" : value) + "\"";
  }
  out += "}, \"children\": [";
  for (size_t i = 0; i < span.children.size(); ++i) {
    if (i != 0) {
      out += ", ";
    }
    AppendSpanJson(out, span.children[i], options);
  }
  out += "]}";
}

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

void AppendJsonEscaped(std::string& out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  size_t copied = 0;  // s[copied, i) needs no escape and is not yet in `out`
  for (size_t i = 0; i < s.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') {
      continue;
    }
    out.append(s.data() + copied, i - copied);
    copied = i + 1;
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
        out += "\\u00";
        out += kHex[c >> 4];
        out += kHex[c & 0xf];
    }
  }
  out.append(s.data() + copied, s.size() - copied);
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  AppendJsonEscaped(out, s);
  return out;
}

std::string RunReportJson(const SpanCollector& spans, const MetricsRegistry& metrics,
                          const RunReportOptions& options,
                          const std::vector<DiagnosticEntry>* diagnostics) {
  std::string out = "{\n";
  out += "\"schema\": \"";
  out += kRunReportSchema;
  out += "\",\n";

  out += "\"spans\": [";
  std::vector<SpanNode> roots = spans.Snapshot();
  if (options.mask_timings) {
    // Root finish order is racy when dataset build lanes close their
    // surface.extract spans concurrently; the masked (deterministic) form
    // sorts it away. Unmasked reports keep real finish order.
    std::sort(roots.begin(), roots.end(), [](const SpanNode& a, const SpanNode& b) {
      return CompareSpanNodesMasked(a, b) < 0;
    });
  }
  for (size_t i = 0; i < roots.size(); ++i) {
    if (i != 0) {
      out += ", ";
    }
    AppendSpanJson(out, roots[i], options);
  }
  out += "],\n";

  out += "\"counters\": {";
  auto counters = metrics.CounterSnapshot();
  for (size_t i = 0; i < counters.size(); ++i) {
    if (i != 0) {
      out += ", ";
    }
    bool mask = options.mask_timings && IsTimingMetricName(counters[i].first);
    out += "\"" + JsonEscape(counters[i].first) + "\": " + U64(mask ? 0 : counters[i].second);
  }
  out += "},\n";

  out += "\"gauges\": {";
  auto gauges = metrics.GaugeSnapshot();
  for (size_t i = 0; i < gauges.size(); ++i) {
    if (i != 0) {
      out += ", ";
    }
    bool mask = options.mask_timings && IsTimingMetricName(gauges[i].first);
    out += "\"" + JsonEscape(gauges[i].first) + "\": " + I64(mask ? 0 : gauges[i].second);
  }
  out += "},\n";

  out += "\"histograms\": {";
  auto histograms = metrics.HistogramSnapshot();
  for (size_t i = 0; i < histograms.size(); ++i) {
    if (i != 0) {
      out += ", ";
    }
    const auto& [name, histogram] = histograms[i];
    bool mask = options.mask_timings && IsTimingMetricName(name);
    out += "\"" + JsonEscape(name) + "\": {\"count\": " + U64(mask ? 0 : histogram->count());
    out += ", \"sum\": " + U64(mask ? 0 : histogram->sum());
    out += ", \"buckets\": [";
    if (!mask) {
      bool first = true;
      for (size_t b = 0; b < Histogram::kNumBuckets; ++b) {
        uint64_t n = histogram->bucket(b);
        if (n == 0) {
          continue;  // sparse: only occupied buckets are serialized
        }
        if (!first) {
          out += ", ";
        }
        first = false;
        out += "[" + U64(Histogram::BucketLowerBound(b)) + ", " + U64(n) + "]";
      }
    }
    out += "]}";
  }
  out += "},\n";

  out += "\"diagnostics\": ";
  out += DiagnosticsJson(diagnostics != nullptr ? *diagnostics
                                                : std::vector<DiagnosticEntry>());
  out += "\n}\n";
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
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    return Status(ErrorCode::kIoError, "cannot write " + path);
  }
  std::string json = GlobalRunReportJson(options);
  out.write(json.data(), static_cast<std::streamsize>(json.size()));
  if (!out) {
    return Status(ErrorCode::kIoError, "short write to " + path);
  }
  return Status::Ok();
}

}  // namespace obs
}  // namespace depsurf
