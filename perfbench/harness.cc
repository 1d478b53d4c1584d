#include "perfbench/harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <map>
#include <memory_resource>
#include <string>

#include "src/obs/run_report.h"

namespace perfbench {

namespace {

uint64_t ClockNs(clockid_t clock) {
  struct timespec ts;
  clock_gettime(clock, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull + static_cast<uint64_t>(ts.tv_nsec);
}

// The reference kernel sorts short strings and inserts them into ordered
// maps: one map over all kRefKeys keys (a working set of about 6 MB, past the
// private caches), one over the first kRefSmallKeys, then kRefRounds rounds
// of a small map per kRefChunk-key slice of those, the arena released after
// each. Across processes on a shared 4-vCPU host, the big map tracked small
// fix ops and extraction best and the small maps tracked tracee best; with
// all three, run medians of every workload spread by 2-9%.
constexpr size_t kRefKeys = 48000;
constexpr size_t kRefSmallKeys = 12000;
constexpr size_t kRefChunk = 64;
constexpr int kRefRounds = 4;
constexpr size_t kRefArenaBytes = 16u << 20;
// Wall time between reference-kernel runs during set-up and timed phases.
constexpr uint64_t kRefPeriodNs = 1'000'000'000;

std::string FormatValue(double v) {
  char buf[64];
  snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

}  // namespace

uint64_t ProcessCpuNs() { return ClockNs(CLOCK_PROCESS_CPUTIME_ID); }
uint64_t MonoNs() { return ClockNs(CLOCK_MONOTONIC); }

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

bool ReadFileBytes(const std::string& path, std::vector<uint8_t>* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return false;
  }
  out->assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  return !in.bad();
}

bool WriteFileBytes(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  out.close();
  return out.good();
}

uint64_t Fnv1a(const void* data, size_t size, uint64_t h) {
  const auto* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < size; ++i) {
    h = (h ^ p[i]) * 0x100000001b3ull;
  }
  return h;
}

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

RefKernel::RefKernel() : arena_(new std::byte[kRefArenaBytes]) {
  // Fixed inputs, independent of the workload seed: 8..15-character keys
  // (short enough for the small-string buffer, so only map nodes allocate).
  Rng rng(0x5eed);
  keys_.reserve(kRefKeys);
  for (size_t i = 0; i < kRefKeys; ++i) {
    std::string key(8 + rng.Below(8), 'a');
    for (char& c : key) {
      c = static_cast<char>('a' + rng.Below(26));
    }
    keys_.push_back(std::move(key));
  }
}

double RefKernel::RunMs() {
  const uint64_t t0 = ProcessCpuNs();
  std::pmr::monotonic_buffer_resource arena(arena_.get(), kRefArenaBytes,
                                            std::pmr::null_memory_resource());
  auto sort_and_map = [&](size_t begin, size_t end) {
    {
      std::pmr::vector<std::pmr::string> sorted(keys_.begin() + begin, keys_.begin() + end,
                                                &arena);
      std::sort(sorted.begin(), sorted.end());
      std::pmr::map<std::pmr::string, uint32_t> index(&arena);
      for (size_t i = begin; i < end; ++i) {
        index.emplace(std::pmr::string(keys_[i], &arena), static_cast<uint32_t>(i));
      }
      sink_ += index.size() + sorted.front().size() + index.begin()->second;
    }
    arena.release();
  };
  sort_and_map(0, kRefKeys);
  sort_and_map(0, kRefSmallKeys);
  for (int round = 0; round < kRefRounds; ++round) {
    for (size_t base = 0; base + kRefChunk <= kRefSmallKeys; base += kRefChunk) {
      sort_and_map(base, base + kRefChunk);
    }
  }
  const uint64_t t1 = ProcessCpuNs();
  return static_cast<double>(t1 - t0) / 1e6;
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const double rank = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

// ---- Tracer -----------------------------------------------------------------

Tracer::Scope::Scope(Tracer* tracer, const char* name, uint64_t calls)
    : tracer_(tracer), calls_(calls) {
  if (!tracer_->on_) {
    return;
  }
  SpanRecord record;
  record.name = name;
  record.op = tracer_->op_;
  record.id = static_cast<int64_t>(tracer_->spans_.size());
  record.parent = tracer_->open_;
  record.calls = calls;
  record.start_ns = MonoNs();
  index_ = record.id;
  saved_parent_ = tracer_->open_;
  tracer_->open_ = index_;
  tracer_->spans_.push_back(std::move(record));
  cpu0_ = ProcessCpuNs();
}

Tracer::Scope::~Scope() {
  if (index_ < 0) {
    return;
  }
  const uint64_t cpu = ProcessCpuNs() - cpu0_;
  SpanRecord& record = tracer_->spans_[static_cast<size_t>(index_)];
  record.cpu_ns = cpu;
  record.self_cpu_ns = cpu;
  record.wall_ns = MonoNs() - record.start_ns;
  Totals& totals = tracer_->totals_[record.name];
  totals.cpu_ns += cpu;
  totals.self_cpu_ns += cpu;
  totals.calls += calls_;
  tracer_->open_ = saved_parent_;
}

void Tracer::AddProgramSpans(const std::vector<depsurf::obs::SpanNode>& roots, size_t from,
                             size_t to, int64_t parent, uint64_t op) {
  if (!on_) {
    return;
  }
  const uint64_t saved_op = op_;
  op_ = op;
  for (size_t i = from; i < to && i < roots.size(); ++i) {
    AddProgramSpan(roots[i], parent, "");
  }
  op_ = saved_op;
}

void OpContext::Adopt(int64_t parent) {
  if (!tracer_.on()) {
    return;
  }
  std::vector<depsurf::obs::SpanNode> roots = context_.spans().Snapshot();
  tracer_.AddProgramSpans(roots, seen_, roots.size(), parent, tracer_.op());
  seen_ = roots.size();
}

void Tracer::AddProgramSpan(const depsurf::obs::SpanNode& node, int64_t parent,
                            const std::string& parent_name) {
  SpanRecord record;
  record.name = node.name;
  record.op = op_;
  record.id = static_cast<int64_t>(spans_.size());
  record.parent = parent;
  record.start_ns = node.start_ns;
  record.wall_ns = node.dur_ns;
  record.cpu_ns = node.cpu_ns;
  uint64_t children_cpu = 0;
  for (const depsurf::obs::SpanNode& child : node.children) {
    if (child.tid == node.tid) {
      children_cpu += child.cpu_ns;
    }
  }
  record.self_cpu_ns = node.cpu_ns > children_cpu ? node.cpu_ns - children_cpu : 0;
  record.program = true;
  const int64_t id = record.id;
  const std::string key =
      parent_name == "analyze.object" && node.name == "analyze.program"
          ? "analyze.object/analyze.program"
          : node.name;
  Totals& totals = totals_[key];
  totals.cpu_ns += record.cpu_ns;
  totals.self_cpu_ns += record.self_cpu_ns;
  totals.calls += 1;
  ++program_spans_;
  spans_.push_back(std::move(record));
  for (const depsurf::obs::SpanNode& child : node.children) {
    AddProgramSpan(child, id, node.name);
  }
}

const Tracer::Totals& Tracer::Get(const std::string& key) const {
  static const Totals kNone;
  auto it = totals_.find(key);
  return it == totals_.end() ? kNone : it->second;
}

bool Tracer::Write(const std::string& path) const {
  FILE* out = fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  for (const SpanRecord& s : spans_) {
    fprintf(out,
            "{\"id\": %" PRId64 ", \"parent\": %" PRId64 ", \"op\": %" PRIu64
            ", \"name\": \"%s\", \"source\": \"%s\", \"start_ns\": %" PRIu64
            ", \"wall_ns\": %" PRIu64 ", \"cpu_ns\": %" PRIu64 ", \"self_cpu_ns\": %" PRIu64
            ", \"calls\": %" PRIu64 "}\n",
            s.id, s.parent, s.op, depsurf::obs::JsonEscape(s.name).c_str(),
            s.program ? "program" : "harness", s.start_ns, s.wall_ns, s.cpu_ns, s.self_cpu_ns,
            s.calls);
  }
  return fclose(out) == 0;
}

void AddLayerTiming(std::vector<Metric>& out, const std::string& metric, const char* unit,
                    const Tracer::Totals& totals, bool self, uint64_t ops, double scale) {
  const double per_unit = std::string(unit) == "ms" ? 1e6 : 1e3;
  const double n = static_cast<double>(std::max<uint64_t>(ops, 1));
  const double ns = static_cast<double>(self ? totals.self_cpu_ns : totals.cpu_ns);
  out.push_back({metric, ns * scale / per_unit / n, unit});
  // "surface.extract_ms" -> "surface.extract.calls_per_op"
  const std::string stem = metric.substr(0, metric.rfind('_'));
  out.push_back({stem + ".calls_per_op", static_cast<double>(totals.calls) / n, "count"});
}

void AddPerCallTiming(std::vector<Metric>& out, const std::string& metric,
                      const std::vector<double>& ms) {
  double sum = 0;
  for (double v : ms) {
    sum += v;
  }
  out.push_back({metric, sum / static_cast<double>(std::max<size_t>(ms.size(), 1)), "ms"});
  out.push_back({metric.substr(0, metric.rfind('_')) + ".calls", static_cast<double>(ms.size()),
                 "count"});
}

// ---- Runner -------------------------------------------------------------------

namespace {

struct Phase {
  std::vector<double> op_ms;  // raw process CPU per op
  double cpu_s = 0;           // raw op CPU plus extra CPU
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double peak_rss_mb = 0;
};

class Runner {
 public:
  explicit Runner(Workload& workload) : workload_(workload) {
    kernel_.RunMs();  // first touch of the arena; not a sample
    SampleRef();
  }

  void MaybeSampleRef() {
    if (MonoNs() >= next_ref_ns_) {
      SampleRef();
    }
  }

  // Closed loop: the next op starts when the previous one returns. Stops at
  // the deadline (or after `ops` ops), at a workload pass boundary, and not
  // before the peak-RSS checkpoint. With `alternate`, tracing switches on
  // and off at every pass boundary, so traced and untraced ops run under the
  // same host conditions, and the run lasts at least one traced pass.
  void Run(bool alternate, double seconds, uint64_t ops, Phase* untraced, Phase* traced) {
    const uint64_t deadline = MonoNs() + static_cast<uint64_t>(seconds * 1e9);
    const uint64_t checkpoint = alternate ? 0 : workload_.rss_checkpoint_ops();
    uint64_t n = 0;
    for (;;) {
      if (n == checkpoint && checkpoint > 0) {
        untraced->peak_rss_mb = PeakRssMb();
      }
      const bool boundary = workload_.AtPassBoundary();
      const bool done = (ops > 0 ? n >= ops : MonoNs() >= deadline) &&
                        (!alternate || traced->attempted > 0);
      if (done && n >= checkpoint && boundary) {
        break;
      }
      if (alternate && boundary && n > 0) {
        tracer_.set_on(!tracer_.on());
      }
      MaybeSampleRef();
      Phase& phase = tracer_.on() ? *traced : *untraced;
      tracer_.set_op(op_index_++);
      OpResult result = workload_.Op(tracer_);
      phase.op_ms.push_back(static_cast<double>(result.cpu_ns) / 1e6);
      phase.cpu_s += static_cast<double>(result.cpu_ns + result.extra_cpu_ns) / 1e9;
      phase.attempted += 1;
      phase.failed += result.ok ? 0 : 1;
      ++n;
    }
    if (checkpoint == 0) {
      untraced->peak_rss_mb = PeakRssMb();
    }
    if (alternate) {
      tracer_.set_on(true);
      workload_.EndTracedRun(tracer_);
      tracer_.set_on(false);
    }
  }

  double ref_median_ms() const { return Median(ref_ms_); }
  size_t ref_samples() const { return ref_ms_.size(); }
  Tracer& tracer() { return tracer_; }
  void SampleRef() {
    ref_ms_.push_back(kernel_.RunMs());
    next_ref_ns_ = MonoNs() + kRefPeriodNs;
  }

 private:
  Workload& workload_;
  RefKernel kernel_;
  std::vector<double> ref_ms_;
  uint64_t next_ref_ns_ = 0;
  uint64_t op_index_ = 0;
  Tracer tracer_;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    line += i == 0 ? "" : ", ";
    line += "\"" + metrics[i].name + "\": {\"value\": " + FormatValue(metrics[i].value) +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  line += "}}";
  printf("%s\n", line.c_str());
}

}  // namespace

int RunWorkload(Workload& workload, const RunOptions& options) {
  Runner runner(workload);

  // Set-up, several times; the last one leaves the state the ops use.
  std::vector<double> setup_s;
  bool setup_ok = true;
  for (int rep = 0; rep < workload.setup_reps(); ++rep) {
    runner.MaybeSampleRef();
    bool ok = true;
    setup_s.push_back(static_cast<double>(workload.SetUp(&ok)) / 1e9);
    setup_ok = setup_ok && ok;
  }

  Phase untraced;
  Phase traced;
  runner.Run(options.trace, options.seconds, options.ops, &untraced, &traced);
  runner.SampleRef();
  const uint64_t finish_failed = workload.Finish();

  const double ref_ms = runner.ref_median_ms();
  const double scale = options.ref_nominal_ms / ref_ms;
  const uint64_t attempted = untraced.attempted + traced.attempted;
  const uint64_t failed = untraced.failed + traced.failed + finish_failed;
  const bool correct = failed == 0 && setup_ok;
  const double ops_per_cpu_s =
      static_cast<double>(untraced.attempted) / std::max(untraced.cpu_s * scale, 1e-12);

  std::vector<Metric> metrics;
  if (options.trace) {
    const double traced_ops_per_cpu_s =
        static_cast<double>(traced.attempted) / std::max(traced.cpu_s * scale, 1e-12);
    workload.PerLayer(runner.tracer(), traced.attempted, scale, metrics);
    // Self time of the program's own spans, wherever the workload runs them
    // (extraction in build; ELF and BTF decoding of objects in query and fix).
    const std::pair<const char*, const char*> self_spans[] = {
        {"elf.parse", "elf.parse_ms"},
        {"btf.decode", "btf.decode_ms"},
        {"dwarf.decode", "dwarf.decode_ms"},
        {"surface.btf", "surface.btf_ms"},
        {"surface.dwarf", "surface.dwarf_ms"},
        {"surface.classify_functions", "surface.classify_functions_ms"},
        {"surface.syscalls", "surface.syscalls_ms"},
        {"surface.tracepoints", "surface.tracepoints_ms"},
        {"surface.extract", "surface.extract_self_ms"},
    };
    for (const auto& [span, metric] : self_spans) {
      AddLayerTiming(metrics, metric, "ms", runner.tracer().Get(span), true, traced.attempted,
                     scale);
    }
    metrics.push_back({"obs.spans_per_op",
                       static_cast<double>(runner.tracer().program_spans()) /
                           static_cast<double>(std::max<uint64_t>(traced.attempted, 1)),
                       "count"});
    metrics.push_back(
        {"obs.root_spans_retained",
         static_cast<double>(depsurf::obs::SpanCollector::Global().Snapshot().size()), "count"});
    metrics.push_back({"bench.ref_kernel_ms", ref_ms, "ms"});
    metrics.push_back({"bench.tracing_overhead_pct",
                       (ops_per_cpu_s / traced_ops_per_cpu_s - 1.0) * 100.0, "%"});
    if (!options.trace_out.empty() && !runner.tracer().Write(options.trace_out)) {
      fprintf(stderr, "perfbench: cannot write %s\n", options.trace_out.c_str());
    }
  } else {
    metrics.push_back({"setup_s", Median(setup_s) * scale, "s"});
    metrics.push_back({"ops_per_cpu_s", ops_per_cpu_s, "1/s"});
    metrics.push_back({"op_cpu_p50_ms", Percentile(untraced.op_ms, 0.50) * scale, "ms"});
    metrics.push_back({"op_cpu_p90_ms", Percentile(untraced.op_ms, 0.90) * scale, "ms"});
    metrics.push_back({"op_cpu_p99_ms", Percentile(untraced.op_ms, 0.99) * scale, "ms"});
    metrics.push_back({"peak_rss_mb", untraced.peak_rss_mb, "MB"});
    metrics.push_back(
        {"ok_ratio",
         1.0 - static_cast<double>(failed) / static_cast<double>(std::max<uint64_t>(attempted, 1)),
         "ratio"});
    workload.EndToEnd(metrics);
  }

  // Context for people reading the log; the last line alone is the result.
  fprintf(stdout,
          "perfbench: workload=%s seed=%" PRIu64 " trace=%d ops=%" PRIu64 " failed=%" PRIu64
          " error_ratio=%.6f setup_reps=%zu ref_samples=%zu bench.ref_kernel_ms=%.4f"
          " scale=%.4f raw_op_cpu_p50_ms=%.4f\n",
          options.workload.c_str(), options.seed, options.trace ? 1 : 0, attempted, failed,
          static_cast<double>(failed) / static_cast<double>(std::max<uint64_t>(attempted, 1)),
          setup_s.size(), runner.ref_samples(), ref_ms, scale,
          Percentile(untraced.op_ms, 0.5));
  PrintResult(correct, std::max<uint64_t>(attempted, 1), failed, metrics);
  return 0;
}

}  // namespace perfbench
