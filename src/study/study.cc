#include "src/study/study.h"

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <deque>
#include <future>
#include <memory>
#include <optional>
#include <thread>
#include <utility>

#include "src/obs/context.h"
#include "src/obs/diagnostics.h"
#include "src/obs/metrics.h"
#include "src/obs/report_merge.h"
#include "src/obs/run_report.h"
#include "src/obs/span.h"
#include "src/util/file_util.h"
#include "src/util/str_util.h"
#include "src/util/worker_pool.h"

namespace depsurf {

namespace {

// CPU time consumed by the whole process, all threads summed. std::clock()
// reports the same quantity but overflows 32-bit clock_t in under an hour
// at CLOCKS_PER_SEC=1e6; CLOCK_PROCESS_CPUTIME_ID has nanosecond range.
// Published as `cpu_total_ms` — with a parallel window this legitimately
// exceeds wall_ms (see docs/OBSERVABILITY.md).
uint64_t ProcessCpuNs() {
  timespec ts{};
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) != 0) {
    return 0;
  }
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

// Width of the concurrent load+extract window.
size_t EffectiveWindow(const BuildPolicy& policy) {
  if (policy.jobs > 0) {
    return static_cast<size_t>(policy.jobs);
  }
  size_t window = std::max<unsigned>(1, std::thread::hardware_concurrency());
  return std::min(window, size_t{8});  // surfaces are large; bound memory
}

// What a lane hands back to the in-order consume stage: the extracted
// surface, whether the loader failed, and the two timings only the lane
// can measure.
struct WorkerResult {
  Result<DependencySurface> surface;
  bool load_failed = false;
  double seconds = 0;     // load+extract wall time inside the worker
  double queue_wait = 0;  // launch (enqueue) to the worker actually starting
};

// One image in the window. `context` is the image's own obs::Context in
// report mode, null otherwise.
struct InFlight {
  std::shared_ptr<obs::Context> context;
  std::future<WorkerResult> future;
};

// The fatal ledger entry a quarantined image's report carries. The layer
// closest to the fault tags the error (a poisoned DWARF section reads as a
// dwarf failure); untagged errors — loader failures, unreadable containers
// — default to the ELF layer.
DiagnosticEntry FatalEntry(const Error& error) {
  DiagnosticEntry fatal;
  fatal.severity = DiagSeverity::kFatal;
  fatal.subsystem = error.subsystem().value_or(DiagSubsystem::kElf);
  fatal.code = error.code();
  if (error.offset().has_value()) {
    fatal.offset = *error.offset();
    fatal.has_offset = true;
  }
  fatal.message = error.message();
  return fatal;
}

// Wall time the in-order consume stage spends blocked on the window's
// front future — zero when the front task already finished, i.e. nonzero
// only when consumption (distill/serialize) has fallen behind extraction
// or completions arrived out of corpus order.
template <typename Future>
uint64_t ConsumeStallNs(Future& future) {
  if (future.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
    return 0;
  }
  const auto start = std::chrono::steady_clock::now();
  future.wait();
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now() - start)
                                   .count());
}

}  // namespace

Result<double> StudyOptions::ParseScale(const std::string& text) {
  char* end = nullptr;
  errno = 0;
  double value = strtod(text.c_str(), &end);
  if (text.empty() || *end != '\0' || errno == ERANGE || !std::isfinite(value)) {
    return Error(ErrorCode::kInvalidArgument, StrFormat("\"%s\" is not a number", text.c_str()));
  }
  if (value <= 0.0 || value > 4.0) {
    return Error(ErrorCode::kInvalidArgument, StrFormat("%s is outside (0, 4]", text.c_str()));
  }
  return value;
}

Result<StudyOptions> StudyOptions::Parse(int argc, char** argv, double default_scale) {
  StudyOptions options;
  options.scale = default_scale;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (StartsWith(arg, "--scale=")) {
      auto scale = ParseScale(arg.substr(8));
      if (!scale.ok()) {
        return scale.TakeError().Wrap("--scale");
      }
      options.scale = *scale;
    } else if (StartsWith(arg, "--seed=")) {
      auto seed = ParseUnsigned(arg.substr(7));
      if (!seed.ok()) {
        return seed.TakeError().Wrap("--seed");
      }
      options.seed = *seed;
    } else {
      return Error(ErrorCode::kInvalidArgument,
                   "unknown argument " + arg + " (accepted: --scale=S --seed=N)");
    }
  }
  return options;
}

StudyOptions StudyOptions::FromArgs(int argc, char** argv, double default_scale) {
  Result<StudyOptions> options = Parse(argc, argv, default_scale);
  if (!options.ok()) {
    std::fprintf(stderr, "depsurf: error: %s\n", options.error().message().c_str());
    std::exit(1);
  }
  return options.TakeValue();
}

Study::Study(const StudyOptions& options)
    : options_(options), programs_(BuildProgramCorpus()) {
  ScriptedCatalog catalog = BuildCuratedCatalog();
  ScriptedCatalog additions = programs_.additions;
  catalog.Merge(std::move(additions));
  model_ = std::make_unique<KernelModel>(options.seed, options.scale, std::move(catalog));
}

Result<std::vector<uint8_t>> Study::BuildImage(const BuildSpec& build) const {
  DEPSURF_ASSIGN_OR_RETURN(kernel, model_->Configure(build));
  DEPSURF_ASSIGN_OR_RETURN(bytes, BuildKernelImage(CompileKernel(options_.seed, std::move(kernel))));
  if (image_mutator_) {
    image_mutator_(build, bytes);
  }
  return bytes;
}

Result<DependencySurface> Study::ExtractSurface(const BuildSpec& build) const {
  DEPSURF_ASSIGN_OR_RETURN(bytes, BuildImage(build));
  return DependencySurface::Extract(std::move(bytes));
}

std::vector<ImageSource> Study::ImageSources(const std::vector<BuildSpec>& corpus) const {
  std::vector<ImageSource> images;
  images.reserve(corpus.size());
  for (const BuildSpec& build : corpus) {
    images.push_back(ImageSource{build.Label(), [this, build] { return BuildImage(build); }});
  }
  return images;
}

Result<Dataset> Study::BuildDataset(
    const std::vector<BuildSpec>& corpus,
    const std::function<void(const ImageProgress&)>& progress,
    const BuildPolicy& policy,
    std::vector<QuarantinedImage>* quarantined) const {
  return BuildDatasetFromImages(ImageSources(corpus), policy, progress, quarantined);
}

Result<Dataset> BuildDatasetFromImages(
    const std::vector<ImageSource>& images, const BuildPolicy& policy,
    const std::function<void(const ImageProgress&)>& progress,
    std::vector<QuarantinedImage>* quarantined, const std::string& report_dir,
    DatasetReportFiles* files) {
  const bool reporting = !report_dir.empty();
  obs::Context& caller = obs::Context::Current();
  if (reporting) {
    // Stray collection from before the build would otherwise end up in a
    // later --metrics-out report of this build.
    caller.spans().Clear();
    caller.metrics().Reset();
    caller.diagnostics().Clear();
  }
  obs::ScopedSpan span("study.build_dataset");
  span.AddAttr("images", static_cast<uint64_t>(images.size()));
  const auto wall_start = std::chrono::steady_clock::now();
  const uint64_t cpu_start_ns = ProcessCpuNs();

  // Loading and extraction are pure, so images run concurrently in a
  // bounded window; distillation happens serially in corpus order (Dataset
  // interning is order-sensitive and must stay deterministic). In report
  // mode each image owns a fresh context: its lane pushes it (the TLS stack
  // does not cross threads), and the consume stage pushes it again to
  // distill, so the image's report holds everything it recorded, exactly
  // as in a serial build. An early return leaves the window to the pool's
  // destructor, which runs every queued task and joins.
  const size_t window = EffectiveWindow(policy);
  // Executor facts depend on the window and on scheduling, so they go to
  // the caller's context, never into a per-image report (whose masked form
  // is the same at any width).
  obs::MetricsRegistry& metrics = caller.metrics();
  obs::Histogram* queue_wait_us = metrics.GetHistogram("study.executor.queue_wait_us");
  obs::Histogram* inflight_us = metrics.GetHistogram("study.executor.inflight_us");
  obs::Histogram* extract_ms = metrics.GetHistogram("study.image_extract_ms");
  std::vector<double> lane_busy_seconds(window, 0.0);
  uint64_t stall_ns = 0;
  Dataset dataset;
  std::vector<obs::LabeledReport> reports;
  WorkerPool pool(window);
  std::deque<InFlight> in_flight;
  size_t next_launch = 0;
  for (size_t next = 0; next < images.size(); ++next) {
    while (next_launch < images.size() && in_flight.size() < window) {
      const ImageSource& source = images[next_launch++];
      InFlight entry;
      if (reporting) {
        entry.context = std::make_shared<obs::Context>();
      }
      const auto enqueue = std::chrono::steady_clock::now();
      entry.future = pool.Submit([&source, context = entry.context, enqueue] {
        std::optional<obs::ScopedContext> scope;
        if (context != nullptr) {
          scope.emplace(*context);
        }
        const auto start = std::chrono::steady_clock::now();
        Result<std::vector<uint8_t>> bytes = source.load();
        const bool load_failed = !bytes.ok();
        Result<DependencySurface> surface =
            load_failed ? Result<DependencySurface>(bytes.TakeError())
                        : DependencySurface::Extract(bytes.TakeValue());
        const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;
        const std::chrono::duration<double> queued = start - enqueue;
        return WorkerResult{std::move(surface), load_failed, elapsed.count(), queued.count()};
      });
      in_flight.push_back(std::move(entry));
    }
    InFlight entry = std::move(in_flight.front());
    in_flight.pop_front();
    stall_ns += ConsumeStallNs(entry.future);
    WorkerResult result = entry.future.get();
    queue_wait_us->Record(static_cast<uint64_t>(result.queue_wait * 1e6));
    inflight_us->Record(static_cast<uint64_t>(result.seconds * 1e6));
    // Launch and consume both walk the window round-robin, so next % window
    // names the executor lane the image occupied.
    lane_busy_seconds[next % window] += result.seconds;
    const std::string& label = images[next].label;
    const bool image_ok = result.surface.ok();
    {
      std::optional<obs::ScopedContext> scope;
      if (entry.context != nullptr) {
        scope.emplace(*entry.context);
      }
      if (!image_ok) {
        const Error& error = result.surface.error();
        if (quarantined != nullptr) {
          quarantined->push_back(QuarantinedImage{label, error, result.load_failed});
        }
        if (!policy.keep_going) {
          return error.Wrap("image " + label);
        }
        // Quarantine: the image stays out of the dataset, the build goes on.
        obs::Context::Current().diagnostics().Add(FatalEntry(error));
        obs::Context::Current().metrics().Incr("study.images_quarantined");
      } else {
        extract_ms->Record(static_cast<uint64_t>(result.seconds * 1e3));
        dataset.AddImage(label, *result.surface);
      }
    }
    if (reporting) {
      std::string json = obs::ContextRunReportJson(*entry.context);
      std::string path = report_dir + "/report_" + label + ".json";
      DEPSURF_RETURN_IF_ERROR(WriteFile(path, json));
      reports.push_back(obs::LabeledReport{label, std::move(json)});
      if (files != nullptr) {
        files->per_image.push_back(path);
      }
    }
    // Progress fires for quarantined images too: callers counting callbacks
    // see every corpus slot exactly once, with the quarantine flagged.
    if (progress) {
      ImageProgress report;
      report.label = label;
      report.seconds = result.seconds;
      report.index = next;
      report.total = images.size();
      report.quarantined = !image_ok;
      progress(report);
    }
  }

  if (reporting) {
    auto aggregate = obs::MergeRunReports(reports);
    if (!aggregate.ok()) {
      return aggregate.TakeError();
    }
    std::string agg_path = report_dir + "/report_agg.json";
    DEPSURF_RETURN_IF_ERROR(WriteFile(agg_path, *aggregate));
    if (files != nullptr) {
      files->aggregate = agg_path;
    }
    metrics.Incr("study.reports_written", images.size() + 1);
  }
  const std::chrono::duration<double> wall = std::chrono::steady_clock::now() - wall_start;
  const uint64_t cpu_ns = ProcessCpuNs() - cpu_start_ns;
  metrics.Incr("study.datasets_built");
  metrics.Set("study.build_dataset.wall_ms", static_cast<int64_t>(wall.count() * 1e3));
  metrics.Set("study.build_dataset.cpu_total_ms", static_cast<int64_t>(cpu_ns / 1000000));
  metrics.Set("study.build_dataset.window", static_cast<int64_t>(window));
  metrics.Incr("study.executor.serialize_stall_us", stall_ns / 1000);
  for (size_t lane = 0; lane < window; ++lane) {
    metrics.Set(StrFormat("study.executor.worker%zu.busy_ms", lane),
                static_cast<int64_t>(lane_busy_seconds[lane] * 1e3));
  }
  span.AddAttr("window", static_cast<uint64_t>(window));
  return dataset;
}

Result<ProgramReport> Study::Analyze(const Dataset& dataset, const std::string& program) const {
  for (const BpfObject& object : programs_.objects) {
    if (object.name == program) {
      return Analyze(dataset, object);
    }
  }
  return Error(ErrorCode::kNotFound, "no program named " + program);
}

Result<ProgramReport> Study::Analyze(const Dataset& dataset, const BpfObject& object) {
  // Round-trip through object bytes: the analyzer sees only what a real
  // compiled .o would carry.
  DEPSURF_ASSIGN_OR_RETURN(bytes, WriteBpfObject(object));
  DEPSURF_ASSIGN_OR_RETURN(parsed, ParseBpfObject(std::move(bytes)));
  DEPSURF_ASSIGN_OR_RETURN(deps, ExtractDependencySet(parsed));
  return AnalyzeProgram(dataset, deps);
}

namespace {

// The health state a ledger entry's subsystem ended extraction in. kBpf
// entries have no surface state; they map to kClean so the silent-salvage
// check below never fires for them on image inputs.
DegradationState SubsystemState(const SurfaceHealth& health, DiagSubsystem subsystem) {
  switch (subsystem) {
    case DiagSubsystem::kElf: return health.elf;
    case DiagSubsystem::kDwarf: return health.dwarf;
    case DiagSubsystem::kBtf: return health.btf;
    case DiagSubsystem::kTracepoint: return health.tracepoint;
    case DiagSubsystem::kSyscall: return health.syscall;
    case DiagSubsystem::kBpf: return DegradationState::kClean;
  }
  return DegradationState::kClean;
}

// Deterministic fingerprint of one extraction run, for the double-run
// nondeterminism check: outcome, health summary, and every ledger line.
std::string ExtractionFingerprint(const Result<DependencySurface>& result) {
  if (!result.ok()) {
    return "fatal: " + result.error().ToString();
  }
  std::string out = "ok " + result->health().Summary();
  for (const DiagnosticEntry& entry : result->health().ledger.entries()) {
    out += "\n" + entry.ToString();
  }
  return out;
}

std::string ObjectFingerprint(const Result<BpfObject>& result,
                              const DiagnosticLedger* ledger) {
  if (!result.ok()) {
    return "fatal: " + result.error().ToString();
  }
  std::string out = StrFormat("ok programs=%zu relocs=%zu", result->programs.size(),
                              result->relocs.size());
  for (const BpfProgram& program : result->programs) {
    out += StrFormat("\n%s insns=%zu", program.name.c_str(), program.insns.size());
  }
  if (ledger != nullptr) {
    for (const DiagnosticEntry& entry : ledger->entries()) {
      out += "\n" + entry.ToString();
    }
  }
  return out;
}

}  // namespace

Study::OracleOutcome Study::RunSalvageStrictOracle(const std::vector<uint8_t>& bytes) {
  OracleOutcome out;
  // Two independent runs over the same bytes: salvage extraction is a pure
  // function of its input, so any divergence is itself a finding.
  auto first = DependencySurface::Extract(bytes);
  auto second = DependencySurface::Extract(bytes);
  const std::string fp1 = ExtractionFingerprint(first);
  const std::string fp2 = ExtractionFingerprint(second);
  if (fp1 != fp2) {
    out.violations.push_back("non-deterministic extraction: run 1 [" + fp1 +
                             "] vs run 2 [" + fp2 + "]");
  }
  if (!first.ok()) {
    // Fatal for both policies; the error must still diagnose itself.
    if (first.error().message().empty()) {
      out.violations.push_back("fatal extraction with an empty error message");
    }
    return out;
  }
  out.salvage_ok = true;
  const SurfaceHealth& health = first->health();
  out.degraded = health.AnyDegraded();
  out.ledger_entries = health.ledger.size();
  out.strict_ok = !out.degraded;
  // The one allowed disagreement — salvage accepts, strict rejects — must
  // be explained: a degraded subsystem without a degraded-severity ledger
  // entry means salvage lost the diagnosis.
  if (out.degraded &&
      health.ledger.CountSeverity(DiagSeverity::kDegraded) == 0) {
    out.violations.push_back("degraded health (" + health.Summary() +
                             ") with no degraded-severity ledger entry");
  }
  for (const DiagnosticEntry& entry : health.ledger.entries()) {
    if (entry.severity == DiagSeverity::kFatal) {
      out.violations.push_back("fatal ledger entry on a surviving surface: " +
                               entry.ToString());
    }
    if (entry.severity == DiagSeverity::kDegraded &&
        SubsystemState(health, entry.subsystem) == DegradationState::kClean) {
      out.violations.push_back(
          "ledger reports degradation but health stayed clean: " + entry.ToString());
    }
    if (entry.message.empty()) {
      out.violations.push_back("ledger entry with an empty message");
    }
  }
  return out;
}

Study::OracleOutcome Study::RunObjectSalvageStrictOracle(const std::vector<uint8_t>& bytes) {
  OracleOutcome out;
  DiagnosticLedger ledger1;
  DiagnosticLedger ledger2;
  auto salvage1 = ParseBpfObject(bytes, &ledger1);
  auto salvage2 = ParseBpfObject(bytes, &ledger2);
  auto strict1 = ParseBpfObject(bytes);
  auto strict2 = ParseBpfObject(bytes);
  const std::string sfp1 = ObjectFingerprint(salvage1, &ledger1);
  const std::string sfp2 = ObjectFingerprint(salvage2, &ledger2);
  if (sfp1 != sfp2) {
    out.violations.push_back("non-deterministic salvage parse: run 1 [" + sfp1 +
                             "] vs run 2 [" + sfp2 + "]");
  }
  if (ObjectFingerprint(strict1, nullptr) != ObjectFingerprint(strict2, nullptr)) {
    out.violations.push_back("non-deterministic strict parse");
  }
  out.salvage_ok = salvage1.ok();
  out.strict_ok = strict1.ok();
  out.ledger_entries = ledger1.size();
  out.degraded = !ledger1.empty();
  if (out.strict_ok && !out.salvage_ok) {
    out.violations.push_back("strict parse accepted what salvage rejected: " +
                             salvage1.error().ToString());
  }
  if (out.salvage_ok && !out.strict_ok && ledger1.empty()) {
    out.violations.push_back("salvage diverged from strict (" +
                             strict1.error().ToString() +
                             ") without any ledger entry explaining it");
  }
  if (out.salvage_ok && out.strict_ok) {
    // No salvage happened, so both parses must see the same object.
    if (!ledger1.empty()) {
      out.violations.push_back(StrFormat(
          "strict parse succeeded but the salvage ledger has %zu entries", ledger1.size()));
    }
    if (ObjectFingerprint(salvage1, nullptr) != ObjectFingerprint(strict1, nullptr)) {
      out.violations.push_back("salvage and strict parses disagree on a clean object");
    }
  }
  for (const DiagnosticEntry& entry : ledger1.entries()) {
    if (entry.message.empty()) {
      out.violations.push_back("ledger entry with an empty message");
    }
  }
  return out;
}

}  // namespace depsurf
