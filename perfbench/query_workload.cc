// `query`: ServeEngine over the LTS v2 dataset (mmap) with jobs=2. One op is
// one HandleBatch of 32 NDJSON lines, what one socket connection sends,
// called in the root obs::Context as `depsurf serve` does. Every batch has
// the same composition: 19 inline dependency sets and 3 {"object": PATH}
// lines, all cached during set-up, plus 10 inline sets carrying a name the
// dataset lacks, each a guaranteed cache miss. Objects are drawn from
// seeded permutations of the 55-object corpus. Runs request parsing, the
// result cache, AnalyzeProgram and the mmap Check* path; bypasses
// extraction, the heap Dataset and the analyzer.
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string_view>

#include "perfbench/harness.h"
#include "perfbench/prepare.h"
#include "perfbench/workloads.h"
#include "src/core/dataset_io.h"
#include "src/core/report.h"
#include "src/obs/json_lint.h"
#include "src/obs/run_report.h"
#include "src/serve/serve.h"

namespace perfbench {

using namespace depsurf;

namespace {

constexpr size_t kBatchLines = 32;
constexpr size_t kAbsentLines = 10;
constexpr size_t kObjectLines = 3;
// Misses checked against a LoadDatasetV2 heap copy at the end of the run:
// one in kSampleEvery, at most kMaxSamples.
constexpr uint64_t kSampleEvery = 16;
constexpr size_t kMaxSamples = 512;
constexpr uint64_t kRssCheckpointBatches = 4000;
constexpr std::string_view kFuncsKey = "\"funcs\": [";

enum class LineKind : uint8_t { kInline, kObject, kAbsent };

struct Line {
  LineKind kind = LineKind::kInline;
  size_t object = 0;   // index into the corpus
  std::string absent;  // kAbsent: the name no image has
};

// Draws object indices from a seeded permutation of the corpus, reshuffled
// at every wrap, so each object appears equally often.
class Cycler {
 public:
  Cycler(size_t n, uint64_t seed) : rng_(seed), order_(n) {
    for (size_t i = 0; i < n; ++i) {
      order_[i] = i;
    }
    rng_.Shuffle(order_);
  }
  size_t Next() {
    if (pos_ == order_.size()) {
      rng_.Shuffle(order_);
      pos_ = 0;
    }
    return order_[pos_++];
  }

 private:
  Rng rng_;
  std::vector<size_t> order_;
  size_t pos_ = 0;
};

// {"id": 7, "cache": "hit", <body>: splits off the id and cache marker.
bool SplitResponse(const std::string& response, std::string* cache, std::string* body) {
  const std::string marker = ", \"cache\": \"";
  const size_t at = response.find(marker);
  if (at == std::string::npos) {
    return false;
  }
  const size_t start = at + marker.size();
  const size_t end = response.find("\", ", start);
  if (end == std::string::npos) {
    return false;
  }
  *cache = response.substr(start, end - start);
  *body = response.substr(end + 3);
  return body->rfind("\"ok\": true, ", 0) == 0;
}

// The response body must carry exactly the rows of `report`.
bool BodyMatches(const std::string& body, const ProgramReport& report, size_t images) {
  auto doc = obs::ParseJson("{" + body);
  if (!doc.ok()) {
    return false;
  }
  const obs::JsonValue* results = doc->Find("results");
  if (results == nullptr || results->array.size() != 1) {
    return false;
  }
  const obs::JsonValue& result = results->array[0];
  const obs::JsonValue* n = result.Find("images");
  const obs::JsonValue* any = result.Find("any_mismatch");
  const obs::JsonValue* worst = result.Find("worst_implication");
  const obs::JsonValue* rows = result.Find("rows");
  if (n == nullptr || any == nullptr || worst == nullptr || rows == nullptr ||
      n->number != static_cast<double>(images) || any->boolean != report.AnyMismatch() ||
      worst->string != ImplicationName(report.WorstImplication()) ||
      rows->array.size() != report.rows.size()) {
    return false;
  }
  for (size_t r = 0; r < report.rows.size(); ++r) {
    const ReportRow& expected = report.rows[r];
    const obs::JsonValue* kind = rows->array[r].Find("kind");
    const obs::JsonValue* name = rows->array[r].Find("name");
    const obs::JsonValue* cells = rows->array[r].Find("cells");
    if (kind == nullptr || name == nullptr || cells == nullptr ||
        kind->string != DepKindName(expected.kind) || name->string != expected.name ||
        cells->array.size() != expected.cells.size()) {
      return false;
    }
    for (size_t c = 0; c < expected.cells.size(); ++c) {
      if (cells->array[c].string != MismatchCellString(expected.cells[c])) {
        return false;
      }
    }
  }
  return true;
}

class QueryWorkload : public Workload {
 public:
  QueryWorkload(const Manifest& manifest, const RunOptions& options)
      : dataset_path_(manifest.dataset),
        object_paths_(manifest.objects),
        seed_(options.seed),
        inline_(manifest.objects.size(), options.seed * 4 + 1),
        object_(manifest.objects.size(), options.seed * 4 + 2),
        absent_(manifest.objects.size(), options.seed * 4 + 3),
        mix_(options.seed * 4 + 4) {
    std::ifstream in(manifest.requests);
    for (std::string line; std::getline(in, line);) {
      bodies_.push_back(line);
    }
    std::error_code ec;
    dataset_bytes_ = std::filesystem::file_size(dataset_path_, ec);
  }

  // Render() splices absent names in after the "funcs" key of each line.
  bool ok() const {
    for (const std::string& body : bodies_) {
      if (body.find(kFuncsKey) == std::string::npos) {
        return false;
      }
    }
    return bodies_.size() == object_paths_.size() && dataset_bytes_ > 0;
  }

  // Serve keeps one root span per batch, so peak RSS grows with the batches
  // served; it is read after the same number of batches in every run.
  uint64_t rss_checkpoint_ops() const override { return kRssCheckpointBatches; }

  // Set-up opens a fresh engine and sends every inline and object request
  // once, so the timed batches find them in the result cache.
  int setup_reps() const override { return 15; }

  uint64_t SetUp(bool* ok) override {
    engine_.reset();
    std::vector<Line> warm;
    for (size_t k = 0; k < bodies_.size(); ++k) {
      warm.push_back({LineKind::kInline, k, ""});
      warm.push_back({LineKind::kObject, k, ""});
    }
    std::vector<std::vector<std::string>> batches;
    for (size_t i = 0; i < warm.size(); i += kBatchLines) {
      std::vector<std::string> batch;
      for (size_t j = i; j < std::min(warm.size(), i + kBatchLines); ++j) {
        batch.push_back(Render(warm[j]));
      }
      batches.push_back(std::move(batch));
    }
    std::vector<std::vector<std::string>> responses;
    const uint64_t t0 = ProcessCpuNs();
    auto opened = ServeEngine::Open({dataset_path_}, ServeOptions{2, 4096});
    const uint64_t t1 = ProcessCpuNs();
    if (opened.ok()) {
      engine_ = std::make_unique<ServeEngine>(opened.TakeValue());
      for (const auto& batch : batches) {
        responses.push_back(engine_->HandleBatch(batch));
        ++batches_;
      }
    }
    const uint64_t cpu = ProcessCpuNs() - t0;
    open_ns_.push_back(t1 - t0);
    *ok = engine_ != nullptr;
    // Each warm-up response becomes the reference body for the hits that
    // replay it, and is checked against the heap copy too.
    samples_.clear();
    replay_.assign(2 * bodies_.size(), "");
    for (size_t b = 0; *ok && b < responses.size(); ++b) {
      for (size_t j = 0; j < responses[b].size(); ++j) {
        const Line& line = warm[b * kBatchLines + j];
        std::string cache;
        std::string body;
        if (!SplitResponse(responses[b][j], &cache, &body)) {
          *ok = false;
          continue;
        }
        samples_.push_back({line, body});
        replay_[Key(line)] = std::move(body);
      }
    }
    return cpu;
  }

  OpResult Op(Tracer& tracer) override {
    std::vector<Line> lines;
    std::vector<LineKind> kinds(kBatchLines, LineKind::kInline);
    std::fill(kinds.begin(), kinds.begin() + kAbsentLines, LineKind::kAbsent);
    std::fill(kinds.begin() + kAbsentLines, kinds.begin() + kAbsentLines + kObjectLines,
              LineKind::kObject);
    mix_.Shuffle(kinds);
    std::vector<std::string> batch;
    for (LineKind kind : kinds) {
      Line line{kind, 0, ""};
      switch (kind) {
        case LineKind::kInline:
          line.object = inline_.Next();
          break;
        case LineKind::kObject:
          line.object = object_.Next();
          break;
        case LineKind::kAbsent:
          line.object = absent_.Next();
          line.absent = "perfbench_absent_" + std::to_string(seed_) + "_" +
                        std::to_string(absent_count_++);
          break;
      }
      batch.push_back(Render(line));
      lines.push_back(std::move(line));
    }

    std::atomic<uint64_t>* rows = obs::MetricsRegistry::Global().Counter("serve.rows_checked");
    const uint64_t hits0 = engine_->cache_hits();
    const uint64_t misses0 = engine_->cache_misses();
    const uint64_t rows0 = rows->load();
    OpResult result;
    std::vector<std::string> responses;
    int64_t span_id = -1;
    const uint64_t t0 = ProcessCpuNs();
    {
      Tracer::Scope span = tracer.Span("ServeEngine::HandleBatch");
      span_id = span.id();
      responses = engine_->HandleBatch(batch);
    }
    result.cpu_ns = ProcessCpuNs() - t0;
    result.ok = Check(lines, responses);
    if (tracer.on()) {
      traced_batches_.push_back({tracer.op(), span_id, batches_});
      traced_hits_ += engine_->cache_hits() - hits0;
      traced_misses_ += engine_->cache_misses() - misses0;
      traced_rows_ += rows->load() - rows0;
      MeasureLayers(lines, tracer);
    }
    ++batches_;
    return result;
  }

  void EndTracedRun(Tracer& tracer) override {
    // HandleBatch leaves one "serve.batch" root per call in the process-wide
    // collector, in call order.
    std::vector<obs::SpanNode> roots = obs::SpanCollector::Global().Snapshot();
    for (const TracedBatch& batch : traced_batches_) {
      const size_t root = first_root_ + batch.index;
      tracer.AddProgramSpans(roots, root, root + 1, batch.span_id, batch.op);
    }
  }

  // Compares the sampled misses with AnalyzeProgram on a heap copy of the
  // dataset, loaded only now so it does not count in peak RSS.
  uint64_t Finish() override {
    std::vector<uint8_t> bytes;
    if (!ReadFileBytes(dataset_path_, &bytes)) {
      return samples_.size();
    }
    auto heap = LoadDatasetV2(bytes);
    if (!heap.ok() || !LoadDeps()) {
      return samples_.size();
    }
    obs::Context isolated;
    obs::ScopedContext scoped(isolated);
    uint64_t wrong = 0;
    for (const auto& [line, body] : samples_) {
      ProgramReport report = AnalyzeProgram(*heap, DepsOf(line));
      wrong += BodyMatches(body, report, heap->num_images()) ? 0 : 1;
    }
    if (wrong > 0) {
      fprintf(stderr,
              "perfbench: query: %" PRIu64 " of %zu sampled responses differ from the heap "
              "dataset\n",
              wrong, samples_.size());
    }
    return wrong;
  }

  void EndToEnd(std::vector<Metric>& out) const override {
    out.push_back({"dataset_bytes", static_cast<double>(dataset_bytes_), "bytes"});
  }

  void PerLayer(const Tracer& tracer, uint64_t ops, double scale,
                std::vector<Metric>& out) const override {
    std::vector<double> open_ms;
    for (uint64_t ns : open_ns_) {
      open_ms.push_back(static_cast<double>(ns) * scale / 1e6);
    }
    AddPerCallTiming(out, "serve.open_ms", open_ms);
    const double hits = static_cast<double>(traced_hits_);
    const double misses = static_cast<double>(traced_misses_);
    out.push_back({"serve.cache_hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0,
                   "ratio"});
    out.push_back({"serve.cache_entries", static_cast<double>(engine_->cache_entries()), "count"});
    out.push_back({"serve.rows_per_batch",
                   static_cast<double>(traced_rows_) /
                       static_cast<double>(std::max<uint64_t>(ops, 1)),
                   "count"});
    const Tracer::Totals& analyze = tracer.Get("AnalyzeProgram");
    AddLayerTiming(out, "report.analyze_program_us", "us", analyze, false, ops, scale);
    const std::pair<const char*, const char*> checks[] = {
        {"MmapDataset::CheckFunc", "dataset_io.mmap_check_func_us"},
        {"MmapDataset::CheckStruct", "dataset_io.mmap_check_struct_us"},
        {"MmapDataset::CheckField", "dataset_io.mmap_check_field_us"},
        {"MmapDataset::CheckTracepoint", "dataset_io.mmap_check_tracepoint_us"},
        {"MmapDataset::CheckSyscall", "dataset_io.mmap_check_syscall_us"},
    };
    for (const auto& [span, metric] : checks) {
      AddLayerTiming(out, metric, "us", tracer.Get(span), false, ops, scale);
    }
    const Tracer::Totals& batch = tracer.Get("ServeEngine::HandleBatch");
    Tracer::Totals overhead;
    overhead.cpu_ns = batch.cpu_ns > analyze.cpu_ns ? batch.cpu_ns - analyze.cpu_ns : 0;
    overhead.calls = batch.calls * kBatchLines;
    AddLayerTiming(out, "serve.overhead_us", "us", overhead, false, ops, scale);
    AddLayerTiming(out, "bpf.parse_us", "us", tracer.Get("ParseBpfObject"), false, ops, scale);
    AddLayerTiming(out, "deps.extract_us", "us", tracer.Get("ExtractDependencySet"), false, ops,
                   scale);
  }

 private:
  size_t Key(const Line& line) const {
    return line.kind == LineKind::kObject ? bodies_.size() + line.object : line.object;
  }

  std::string Render(const Line& line) {
    const std::string id = "{\"id\": " + std::to_string(next_id_++) + ", ";
    if (line.kind == LineKind::kObject) {
      return id + "\"object\": \"" + obs::JsonEscape(object_paths_[line.object]) + "\"}";
    }
    std::string body = bodies_[line.object];
    if (line.kind == LineKind::kAbsent) {
      const size_t at = body.find(kFuncsKey) + kFuncsKey.size();
      body.insert(at, "\"" + line.absent + "\"" + (body[at] == ']' ? "" : ", "));
    }
    return id + body.substr(1);
  }

  // Every response is ok; replayed requests hit and are byte-equal to the
  // miss they replay (apart from id and cache marker); absent-name requests
  // miss. A seeded sample of misses is kept for Finish().
  bool Check(const std::vector<Line>& lines, const std::vector<std::string>& responses) {
    if (responses.size() != lines.size()) {
      return false;
    }
    bool ok = true;
    for (size_t i = 0; i < lines.size(); ++i) {
      std::string cache;
      std::string body;
      if (!SplitResponse(responses[i], &cache, &body)) {
        ok = false;
        continue;
      }
      if (lines[i].kind == LineKind::kAbsent) {
        ok = ok && cache == "miss";
        if (mix_.Below(kSampleEvery) == 0 && samples_.size() < kMaxSamples) {
          samples_.push_back({lines[i], std::move(body)});
        }
      } else {
        ok = ok && cache == "hit" && body == replay_[Key(lines[i])];
      }
    }
    return ok;
  }

  bool LoadDeps() {
    if (!deps_.empty()) {
      return true;
    }
    obs::Context isolated;
    obs::ScopedContext scoped(isolated);
    for (const std::string& path : object_paths_) {
      std::vector<uint8_t> bytes;
      if (!ReadFileBytes(path, &bytes)) {
        return false;
      }
      auto object = ParseBpfObject(std::move(bytes));
      if (!object.ok()) {
        return false;
      }
      auto deps = ExtractDependencySet(*object);
      if (!deps.ok()) {
        return false;
      }
      deps_.push_back(deps.TakeValue());
    }
    return true;
  }

  DependencySet DepsOf(const Line& line) const {
    DependencySet deps = deps_[line.object];
    if (line.kind == LineKind::kAbsent) {
      deps.funcs.insert(line.absent);
    }
    return deps;
  }

  // Traced runs only, outside the op's timed window: the layers under
  // HandleBatch timed on their own, on a second mapping of the same file,
  // under a context of their own, so the process-wide span collector only ever
  // holds what the engine left there.
  void MeasureLayers(const std::vector<Line>& lines, Tracer& tracer) {
    if (!LoadDeps()) {
      return;
    }
    if (!view_.has_value()) {
      auto opened = MmapDataset::Open(dataset_path_);
      if (!opened.ok()) {
        return;
      }
      view_.emplace(opened.TakeValue());
    }
    obs::Context isolated;
    obs::ScopedContext scoped(isolated);
    for (const Line& line : lines) {
      if (line.kind == LineKind::kObject) {
        std::vector<uint8_t> bytes;
        ReadFileBytes(object_paths_[line.object], &bytes);
        std::optional<Result<BpfObject>> object;
        {
          Tracer::Scope span = tracer.Span("ParseBpfObject");
          object.emplace(ParseBpfObject(std::move(bytes)));
        }
        if (object->ok()) {
          Tracer::Scope span = tracer.Span("ExtractDependencySet");
          ExtractDependencySet(**object);
        }
        continue;
      }
      if (line.kind != LineKind::kAbsent) {
        continue;
      }
      const DependencySet deps = DepsOf(line);
      {
        Tracer::Scope span = tracer.Span("AnalyzeProgram");
        AnalyzeProgram(*view_, deps);
      }
      const MmapDataset& view = *view_;
      {
        Tracer::Scope span =
            tracer.Span("MmapDataset::CheckFunc", deps.funcs.size() + deps.lsm_hooks.size());
        for (const std::string& name : deps.funcs) {
          view.CheckFunc(name);
        }
        for (const std::string& name : deps.lsm_hooks) {
          view.CheckFunc(name);
        }
      }
      {
        Tracer::Scope span = tracer.Span("MmapDataset::CheckStruct", deps.fields.size());
        for (const auto& [name, fields] : deps.fields) {
          view.CheckStruct(name);
        }
      }
      {
        Tracer::Scope span = tracer.Span("MmapDataset::CheckField", deps.NumFields());
        for (const auto& [name, fields] : deps.fields) {
          for (const auto& [field, dep] : fields) {
            view.CheckField(name, field, dep.expected_type, dep.guarded);
          }
        }
      }
      {
        Tracer::Scope span = tracer.Span("MmapDataset::CheckTracepoint", deps.tracepoints.size());
        for (const std::string& name : deps.tracepoints) {
          view.CheckTracepoint(name);
        }
      }
      {
        Tracer::Scope span = tracer.Span("MmapDataset::CheckSyscall", deps.syscalls.size());
        for (const std::string& name : deps.syscalls) {
          view.CheckSyscall(name);
        }
      }
    }
  }

  std::string dataset_path_;
  std::vector<std::string> object_paths_;
  uint64_t seed_;
  std::vector<std::string> bodies_;
  uint64_t dataset_bytes_ = 0;
  Cycler inline_;
  Cycler object_;
  Cycler absent_;
  Rng mix_;
  std::unique_ptr<ServeEngine> engine_;
  std::vector<uint64_t> open_ns_;
  uint64_t next_id_ = 1;
  uint64_t absent_count_ = 0;
  std::vector<std::string> replay_;  // reference body per inline/object request
  std::vector<std::pair<Line, std::string>> samples_;
  std::vector<DependencySet> deps_;
  std::optional<MmapDataset> view_;
  struct TracedBatch {
    uint64_t op = 0;
    int64_t span_id = -1;
    uint64_t index = 0;  // HandleBatch calls before this one
  };
  std::vector<TracedBatch> traced_batches_;
  size_t first_root_ = obs::SpanCollector::Global().Snapshot().size();
  uint64_t batches_ = 0;
  uint64_t traced_hits_ = 0;
  uint64_t traced_misses_ = 0;
  uint64_t traced_rows_ = 0;
};

}  // namespace

int RunQuery(const Manifest& manifest, const RunOptions& options) {
  QueryWorkload workload(manifest, options);
  if (!workload.ok()) {
    fprintf(stderr, "perfbench: query: cannot read the prepared inputs\n");
    return 1;
  }
  return RunWorkload(workload, options);
}

}  // namespace perfbench
