// Performance of the analysis pipeline (paper §3.4: surface extraction
// averaged 104 s/image with pyelftools; diffing 17 images took 3 s;
// dependency-set analysis a fraction of a second).
//
// Google-benchmark binary. Default scale 0.1 keeps iterations fast; pass
// --scale=1.0 for paper-scale images (extraction lands in seconds, far
// below the Python implementation's 104 s).
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "src/analyzer/analyzer.h"
#include "src/analyzer/remediation.h"
#include "src/bpf/bpf_rewriter.h"
#include "src/bpf/core_reloc_engine.h"
#include "src/bpfgen/program_corpus.h"
#include "src/core/dataset_io.h"
#include "src/obs/bench_report.h"
#include "src/obs/profile.h"
#include "src/serve/serve.h"
#include "src/study/study.h"
#include "src/util/str_util.h"

using namespace depsurf;

namespace {

double g_scale = 0.1;

// Console reporter that additionally folds every benchmark run into the
// shared BENCH_perf.json report (per-run wall time + iteration count). The
// serve benchmarks are mirrored into BENCH_serve.json and the analyzer
// benchmarks (corpus analysis + remediation) into BENCH_analyzer.json, so
// the perf gate can assert each subsystem from one document.
class JsonTeeReporter : public benchmark::ConsoleReporter {
 public:
  JsonTeeReporter(obs::BenchReporter* bench, obs::BenchReporter* serve,
                  obs::BenchReporter* analyzer)
      : bench_(bench), serve_(serve), analyzer_(analyzer) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      obs::BenchStage stage;
      stage.name = run.benchmark_name();
      stage.seconds = run.real_accumulated_time;
      stage.items = static_cast<uint64_t>(run.iterations);
      bench_->AddStage(stage);
      if (stage.name.rfind("BM_Serve", 0) == 0 ||
          stage.name.rfind("BM_CheckReparse", 0) == 0) {
        serve_->AddStage(stage);
      }
      if (stage.name.rfind("BM_AnalyzeCorpus", 0) == 0 ||
          stage.name.rfind("BM_FixCorpus", 0) == 0) {
        analyzer_->AddStage(stage);
      }
    }
    ConsoleReporter::ReportRuns(runs);
  }

 private:
  obs::BenchReporter* bench_;
  obs::BenchReporter* serve_;
  obs::BenchReporter* analyzer_;
};

Study& SharedStudy() {
  static Study study(StudyOptions{2025, g_scale});
  return study;
}

const std::vector<uint8_t>& ImageBytes(KernelVersion version) {
  static std::map<uint64_t, std::vector<uint8_t>> cache;
  BuildSpec build = MakeBuild(version);
  auto it = cache.find(build.Key());
  if (it == cache.end()) {
    auto bytes = SharedStudy().BuildImage(build);
    it = cache.emplace(build.Key(), bytes.ok() ? bytes.TakeValue() : std::vector<uint8_t>())
             .first;
  }
  return it->second;
}

void BM_GenerateImage(benchmark::State& state) {
  for (auto _ : state) {
    auto bytes = SharedStudy().BuildImage(MakeBuild(KernelVersion(5, 4)));
    benchmark::DoNotOptimize(bytes.ok());
  }
}
BENCHMARK(BM_GenerateImage)->Unit(benchmark::kMillisecond);

void BM_ExtractSurface(benchmark::State& state) {
  const auto& bytes = ImageBytes(KernelVersion(5, 4));
  for (auto _ : state) {
    auto copy = bytes;
    auto surface = DependencySurface::Extract(std::move(copy));
    benchmark::DoNotOptimize(surface.ok());
  }
}
BENCHMARK(BM_ExtractSurface)->Unit(benchmark::kMillisecond);

void BM_DiffSurfaces(benchmark::State& state) {
  auto a = DependencySurface::Extract(ImageBytes(KernelVersion(5, 4)));
  auto b = DependencySurface::Extract(ImageBytes(KernelVersion(5, 15)));
  for (auto _ : state) {
    SurfaceDiff diff = DiffSurfaces(*a, *b);
    benchmark::DoNotOptimize(diff.funcs.changed.size());
  }
}
BENCHMARK(BM_DiffSurfaces)->Unit(benchmark::kMillisecond);

void BM_DistillIntoDataset(benchmark::State& state) {
  auto surface = DependencySurface::Extract(ImageBytes(KernelVersion(5, 4)));
  for (auto _ : state) {
    Dataset dataset;
    dataset.AddImage("v5.4", *surface);
    benchmark::DoNotOptimize(dataset.num_images());
  }
}
BENCHMARK(BM_DistillIntoDataset)->Unit(benchmark::kMillisecond);

void BM_AnalyzeProgram(benchmark::State& state) {
  static Dataset dataset = [] {
    Dataset d;
    for (KernelVersion version : kLtsVersions) {
      auto surface = DependencySurface::Extract(ImageBytes(version));
      d.AddImage(version.Tag(), *surface);
    }
    return d;
  }();
  for (auto _ : state) {
    auto report = SharedStudy().Analyze(dataset, "biotop");
    benchmark::DoNotOptimize(report.ok());
  }
}
BENCHMARK(BM_AnalyzeProgram)->Unit(benchmark::kMicrosecond);

// Emits PROFILE_build_reports_jobs<N>.json (depsurf.profile.v1) from the
// aggregate report of the last BM_BuildDatasetReports iteration, into
// $DEPSURF_BENCH_DIR (or the working directory), so perf_gate.sh can lint
// the self-profile schema alongside the bench trajectories.
void WriteBuildProfile(const std::string& aggregate_path, int jobs) {
  std::ifstream in(aggregate_path, std::ios::binary);
  if (!in) {
    return;
  }
  std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  auto profile = obs::ProfileFromReportJson(text);
  if (!profile.ok()) {
    return;
  }
  obs::FillExecutorStats(*profile, obs::MetricsRegistry::Global());
  const char* dir = getenv("DEPSURF_BENCH_DIR");
  std::string path = std::string(dir != nullptr ? dir : ".") +
                     StrFormat("/PROFILE_build_reports_jobs%d.json", jobs);
  std::ofstream out(path, std::ios::binary);
  out << obs::ProfileJson(*profile);
}

// Report-mode corpus build at jobs=1 vs jobs=8: the ratio of the two rows
// is the parallel speedup bought by context-scoped observability (the old
// report path was serial by construction, so its "speedup" was fixed at 1).
// Owns the mkdtemp scratch directory the report-mode benchmark writes
// into, removing the whole tree when the process exits (the static's
// destructor is the in-process mirror of perf_gate.sh's EXIT trap; the
// old code leaked the directory on every run).
struct ScratchReportDir {
  ScratchReportDir() {
    char tmpl[] = "/tmp/depsurf_bench_reports_XXXXXX";
    const char* dir = mkdtemp(tmpl);
    path = dir != nullptr ? dir : ".";
  }
  ~ScratchReportDir() {
    if (path != ".") {
      std::error_code ec;  // best effort: never throw during exit
      std::filesystem::remove_all(path, ec);
    }
  }
  std::string path;
};

void BM_BuildDatasetReports(benchmark::State& state) {
  static const ScratchReportDir scratch;
  const std::string& report_dir = scratch.path;
  std::vector<BuildSpec> corpus;
  for (KernelVersion version : kLtsVersions) {
    corpus.push_back(MakeBuild(version));
  }
  const std::vector<ImageSource> images = SharedStudy().ImageSources(corpus);
  BuildPolicy policy;
  policy.jobs = static_cast<int>(state.range(0));
  DatasetReportFiles files;
  for (auto _ : state) {
    auto dataset = BuildDatasetFromImages(images, policy, {}, nullptr, report_dir, &files);
    benchmark::DoNotOptimize(dataset.ok());
  }
  WriteBuildProfile(files.aggregate, policy.jobs);
}
BENCHMARK(BM_BuildDatasetReports)
    ->ArgName("jobs")
    ->Arg(1)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

// Static analysis (CFG + abstract interpretation) over the full 53-program
// corpus plus the two analyzer showcase objects, one pass per iteration.
void BM_AnalyzeCorpus(benchmark::State& state) {
  static const std::vector<BpfObject> objects = [] {
    std::vector<BpfObject> out = BuildProgramCorpus().objects;
    out.push_back(BuildGuardedProbe());
    out.push_back(BuildRawOffsetProbe());
    return out;
  }();
  size_t findings = 0;
  for (auto _ : state) {
    for (const BpfObject& object : objects) {
      ObjectAnalysis analysis = AnalyzeObject(object);
      findings += analysis.findings.size();
    }
    benchmark::DoNotOptimize(findings);
  }
}
BENCHMARK(BM_AnalyzeCorpus)->Unit(benchmark::kMillisecond);

// The whole `depsurf fix` path over the same corpus, per object: analyze,
// plan guard insertions, rewrite the instruction streams, re-encode to ELF
// bytes, re-parse them, re-analyze the fixed object and verify the result.
void BM_FixCorpus(benchmark::State& state) {
  static const std::vector<BpfObject> objects = [] {
    std::vector<BpfObject> out = BuildProgramCorpus().objects;
    out.push_back(BuildGuardedProbe());
    out.push_back(BuildRawOffsetProbe());
    return out;
  }();
  size_t verified = 0;
  for (auto _ : state) {
    for (const BpfObject& object : objects) {
      ObjectAnalysis before = AnalyzeObject(object);
      RemediationPlan plan = PlanRemediation(object, before);
      BpfObject fixed = object;
      if (!InsertFieldExistsGuards(fixed, plan.Insertions()).ok()) {
        continue;
      }
      auto encoded = WriteBpfObject(fixed);
      if (!encoded.ok()) {
        continue;
      }
      auto reparsed = ParseBpfObject(*encoded);
      if (!reparsed.ok()) {
        continue;
      }
      ObjectAnalysis after = AnalyzeObject(*reparsed);
      verified += VerifyRemediation(before, plan, after).ok ? 1 : 0;
    }
    benchmark::DoNotOptimize(verified);
  }
}
BENCHMARK(BM_FixCorpus)->Unit(benchmark::kMillisecond);

// The CO-RE load replay of `check OBJ IMG`: every relocation of the
// 53-program corpus, each object re-read from its written bytes, resolved
// against the v5.4 image's BTF. The engine finds root types and
// re-resolves forward declarations through the kernel graph's (kind, name)
// index, built by the first lookup, so a pass costs
// O(relocations x log types) once the index exists.
void BM_CoreRelocReplay(benchmark::State& state) {
  static const std::vector<BpfObject> objects = [] {
    std::vector<BpfObject> out;
    for (const BpfObject& object : BuildProgramCorpus().objects) {
      auto bytes = WriteBpfObject(object);
      if (!bytes.ok()) {
        continue;
      }
      auto parsed = ParseBpfObject(*bytes);
      if (parsed.ok()) {
        out.push_back(parsed.TakeValue());
      }
    }
    return out;
  }();
  static const auto kernel = DependencySurface::Extract(ImageBytes(KernelVersion(5, 4)));
  size_t resolved = 0;
  for (auto _ : state) {
    for (const BpfObject& object : objects) {
      for (const RelocResult& result : SimulateLoad(object, kernel->btf()).relocs) {
        resolved += result.outcome == RelocOutcome::kResolved ? 1 : 0;
      }
    }
    benchmark::DoNotOptimize(resolved);
  }
}
BENCHMARK(BM_CoreRelocReplay)->Unit(benchmark::kMillisecond);

// ---- dataset-as-a-service: cached-hit answering vs cold mmap open vs one
// full parse per query. The gate asserts the cached engine is at least 10x
// faster per query than re-parsing the dataset every time.

struct ServeCorpus {
  std::string path;
  std::vector<uint8_t> bytes;
  DependencySet deps;
};

const ServeCorpus& SharedServeCorpus() {
  static const ServeCorpus corpus = [] {
    static const ScratchReportDir scratch;
    Dataset dataset;
    for (KernelVersion version : kLtsVersions) {
      auto surface = DependencySurface::Extract(ImageBytes(version));
      dataset.AddImage(version.Tag(), *surface);
    }
    ServeCorpus out;
    out.bytes = SaveDatasetV2(dataset);
    out.path = scratch.path + "/serve.dds";
    std::ofstream file(out.path, std::ios::binary);
    file.write(reinterpret_cast<const char*>(out.bytes.data()),
               static_cast<std::streamsize>(out.bytes.size()));
    auto programs = BuildProgramCorpus();
    for (const BpfObject& object : programs.objects) {
      if (object.name == "biotop") {
        out.deps = *ExtractDependencySet(object);
      }
    }
    return out;
  }();
  return corpus;
}

constexpr char kServeQueryLine[] =
    "{\"id\": 1, \"program\": \"biotop\", \"funcs\": [\"vfs_read\", \"blk_account_io_start\"],"
    " \"fields\": {\"request\": {\"rq_disk\": {\"type\": \"struct gendisk *\","
    " \"guarded\": false}}}, \"tracepoints\": [\"block_rq_issue\"],"
    " \"syscalls\": [\"openat\"]}";

// Steady-state serving: the engine is open, the result is in the admission
// cache, every batch is a pure hit.
void BM_ServeQueriesCached(benchmark::State& state) {
  static ServeEngine engine = [] {
    auto opened = ServeEngine::Open({SharedServeCorpus().path}, ServeOptions{});
    if (!opened.ok()) {
      fprintf(stderr, "serve open failed: %s\n", opened.error().ToString().c_str());
      abort();
    }
    ServeEngine result = opened.TakeValue();
    result.HandleBatch({kServeQueryLine});  // pre-warm: admit the result
    return result;
  }();
  const std::vector<std::string> lines = {kServeQueryLine};
  for (auto _ : state) {
    auto responses = engine.HandleBatch(lines);
    benchmark::DoNotOptimize(responses.size());
  }
}
BENCHMARK(BM_ServeQueriesCached)->Unit(benchmark::kMicrosecond);

// Worst case: a fresh mmap open plus one uncached query per iteration.
// The v2 layout keeps this cheap — open touches only the header/section
// table pages, the query only the index pages binary search walks.
void BM_ServeQueriesColdMmap(benchmark::State& state) {
  const std::string path = SharedServeCorpus().path;
  for (auto _ : state) {
    auto engine = ServeEngine::Open({path}, ServeOptions{});
    auto responses = engine->HandleBatch({kServeQueryLine});
    benchmark::DoNotOptimize(responses.size());
  }
}
BENCHMARK(BM_ServeQueriesColdMmap)->Unit(benchmark::kMicrosecond);

// The path `serve` replaces (and what `check --dataset` still does): parse
// the whole dataset, answer one query, throw the parse away.
void BM_CheckReparsePerQuery(benchmark::State& state) {
  const ServeCorpus& corpus = SharedServeCorpus();
  for (auto _ : state) {
    auto dataset = LoadDatasetV2(corpus.bytes);
    ProgramReport report = AnalyzeProgram(*dataset, corpus.deps);
    benchmark::DoNotOptimize(report.AnyMismatch());
  }
}
BENCHMARK(BM_CheckReparsePerQuery)->Unit(benchmark::kMicrosecond);

void BM_DatasetQuery(benchmark::State& state) {
  static Dataset dataset = [] {
    Dataset d;
    auto surface = DependencySurface::Extract(ImageBytes(KernelVersion(5, 4)));
    d.AddImage("v5.4", *surface);
    return d;
  }();
  for (auto _ : state) {
    auto cells = dataset.CheckFunc("vfs_fsync");
    benchmark::DoNotOptimize(cells.size());
  }
}
BENCHMARK(BM_DatasetQuery)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  // google-benchmark takes its --benchmark_* flags out of argv, except one
  // whose value it cannot read (this version warns about "0.05s" and leaves
  // it); the only other argument is --scale=S, strictly parsed.
  benchmark::Initialize(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (StartsWith(arg, "--benchmark_")) {
      continue;
    }
    if (!StartsWith(arg, "--scale=")) {
      fprintf(stderr,
              "depsurf: error: unknown argument %s (accepted: --scale=S --benchmark_*)\n",
              arg.c_str());
      return 1;
    }
    auto scale = StudyOptions::ParseScale(arg.substr(8));
    if (!scale.ok()) {
      fprintf(stderr, "depsurf: error: --scale: %s\n", scale.error().message().c_str());
      return 1;
    }
    g_scale = *scale;
  }
  printf("analysis performance at scale %.2f (paper, at scale 1.0 in Python:\n"
         "extraction 104 s/image, 17-image diff 3 s, per-program analysis <1 s)\n",
         g_scale);
  obs::BenchReporter bench("perf");
  bench.AddNote("scale", StrFormat("%.2f", g_scale));
  obs::BenchReporter serve_bench("serve");
  serve_bench.AddNote("scale", StrFormat("%.2f", g_scale));
  obs::BenchReporter analyzer_bench("analyzer");
  analyzer_bench.AddNote("scale", StrFormat("%.2f", g_scale));
  JsonTeeReporter reporter(&bench, &serve_bench, &analyzer_bench);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  return 0;
}
