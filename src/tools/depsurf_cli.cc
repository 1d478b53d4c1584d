// depsurf: command-line interface to the analysis library.
//
//   depsurf gen   --version=5.4 [--arch=x86] [--flavor=generic] [--scale=1.0]
//                 [--seed=N] --out=IMAGE          generate a kernel image
//   depsurf surface IMAGE [--func=NAME] [--json]  inspect a dependency surface
//   depsurf stats   IMAGE [--json]                decode an image, report pipeline metrics
//   depsurf doctor  IMAGE [--sweep=N] [--json]    triage a damaged image / fault sweep
//   depsurf fuzz    SEED... [--rounds=N] [--json]  coverage-guided fault fuzzing
//   depsurf diff    OLD NEW                       diff two images (Table 3/4 style)
//   depsurf check   OBJECT IMAGE...               report mismatches for an eBPF object
//   depsurf analyze OBJECT [--against=DS[,DS]]    static analysis of the insn stream
//   depsurf fix     OBJECT [--against=DS[,DS]]    synthesize + verify exists-guards
//   depsurf progs                                 list the bundled 53-program corpus
//   depsurf emit    PROGRAM --out=OBJ             write a bundled program's .o
//   depsurf metrics lint|canon FILE               validate / canonicalize a report
//   depsurf report  merge OUT IN...               merge run reports into an aggregate
//   depsurf report  flame REPORT.json             folded stacks for flamegraph.pl
//   depsurf perf    compare BASE HEAD             perf regression gate over stage timings
//   depsurf profile REPORT.json | --live          self-profile: self-time, critical path
//   depsurf study   build [--versions=..]         build a dataset corpus, with reports
//   depsurf serve   --against=DS[,DS] --oneshot   batched NDJSON dependency queries
//
// Every command accepts --metrics-out=FILE (write a depsurf.run_report.v1
// JSON document on exit), --trace-out=FILE (write a Chrome/Perfetto
// trace_event timeline of the span tree, for ui.perfetto.dev), and --trace
// (stream spans to stderr as they close).
//
// Images and objects are ordinary files; `gen`/`emit` exist because this
// reproduction generates its corpus instead of downloading Ubuntu dbgsym
// packages (see DESIGN.md).
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>

#include "src/analyzer/analyzer.h"
#include "src/analyzer/remediation.h"
#include "src/bpf/bpf_rewriter.h"
#include "src/bpf/core_reloc_engine.h"
#include "src/btf/btf_print.h"
#include "src/core/dataset_io.h"
#include "src/faultgen/fault_injector.h"
#include "src/fuzz/fuzz_campaign.h"
#include "src/kernelgen/rates.h"
#include "src/obs/bench_report.h"
#include "src/obs/diag.h"
#include "src/obs/diagnostics.h"
#include "src/obs/json_lint.h"
#include "src/obs/perf_gate.h"
#include "src/obs/profile.h"
#include "src/obs/report_merge.h"
#include "src/obs/run_report.h"
#include "src/obs/trace_export.h"
#include "src/serve/serve.h"
#include "src/study/study.h"
#include "src/util/str_util.h"

using namespace depsurf;
using obs::DiagError;

namespace {

Result<std::vector<uint8_t>> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Error(ErrorCode::kIoError, "cannot open " + path);
  }
  std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  return bytes;
}

Status WriteFile(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    return Status(ErrorCode::kIoError, "cannot write " + path);
  }
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  return Status::Ok();
}

std::string FlagValue(int argc, char** argv, const char* name, const char* fallback) {
  std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return argv[i] + prefix.size();
    }
  }
  return fallback;
}

bool HasFlag(int argc, char** argv, const char* name) {
  std::string flag = std::string("--") + name;
  for (int i = 1; i < argc; ++i) {
    if (flag == argv[i]) {
      return true;
    }
  }
  return false;
}

std::vector<std::string> Positional(int argc, char** argv) {
  std::vector<std::string> out;
  for (int i = 2; i < argc; ++i) {
    if (strncmp(argv[i], "--", 2) != 0) {
      out.push_back(argv[i]);
    }
  }
  return out;
}

// Strict flag parsing: every --flag must be one of `allowed` or a global
// flag (--metrics-out / --trace-out / --trace); exit 1 naming the flag
// otherwise, matching the PR 9 sweep (a typo'd flag must never be silently
// ignored). Returns 0 when all flags are known.
int RejectUnknownFlags(int argc, char** argv, const char* command,
                       std::initializer_list<const char*> allowed) {
  for (int i = 2; i < argc; ++i) {
    if (strncmp(argv[i], "--", 2) != 0) {
      continue;
    }
    std::string name = argv[i] + 2;
    if (size_t eq = name.find('='); eq != std::string::npos) {
      name = name.substr(0, eq);
    }
    bool known = name == "metrics-out" || name == "trace-out" || name == "trace";
    for (const char* a : allowed) {
      known = known || name == a;
    }
    if (!known) {
      return DiagError(StrFormat("%s: unknown flag --%s", command, name.c_str()));
    }
  }
  return 0;
}

// Loads every dataset named in a comma-separated --against value.
Result<std::vector<Dataset>> LoadAgainstDatasets(const std::string& against) {
  std::vector<std::string> paths;
  for (const std::string& path : SplitString(against, ',')) {
    if (!path.empty()) {
      paths.push_back(path);
    }
  }
  std::vector<Dataset> datasets;
  datasets.reserve(paths.size());
  for (const std::string& path : paths) {
    auto bytes = ReadFile(path);
    if (!bytes.ok()) {
      return bytes.TakeError();
    }
    auto loaded = LoadDatasetV2(*bytes);
    if (!loaded.ok()) {
      return loaded.TakeError().Wrap(path);
    }
    datasets.push_back(loaded.TakeValue());
  }
  return datasets;
}

// A nonnegative integer flag value; empty means the fallback. Anything that
// does not fully parse is an error: the old strtoull path read
// "--sweep=abc" as 0 and silently skipped the sweep (same bug PR 7 fixed
// for --noise-floor).
Result<uint64_t> ParseU64Flag(const std::string& text, uint64_t fallback) {
  if (text.empty()) {
    return fallback;
  }
  char* end = nullptr;
  errno = 0;
  unsigned long long value = strtoull(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0' || errno == ERANGE ||
      text.front() == '-') {
    return Error(ErrorCode::kInvalidArgument,
                 "\"" + text + "\" is not a nonnegative integer");
  }
  return static_cast<uint64_t>(value);
}

// --jobs=N executor-window width: 0 (auto) through 256, strictly parsed.
// The old atoi path read "--jobs=abc" as 0 and silently went auto-wide.
Result<int> ParseJobsFlag(const std::string& text) {
  auto value = ParseU64Flag(text, 0);
  if (!value.ok()) {
    return value.TakeError();
  }
  if (*value > 256) {
    return Error(ErrorCode::kInvalidArgument,
                 "\"" + text + "\" is out of range (0 = auto, max 256)");
  }
  return static_cast<int>(*value);
}

Result<double> ParseSecondsFlag(const std::string& text, double fallback);

// Parses --arch/--flavor flags into enums; false on an unknown name.
bool ParseArchFlavor(int argc, char** argv, Arch* arch, Flavor* flavor) {
  std::string arch_name = FlagValue(argc, argv, "arch", "x86");
  std::string flavor_name = FlagValue(argc, argv, "flavor", "generic");
  bool arch_ok = false;
  for (Arch a : kAllArches) {
    if (arch_name == ArchName(a)) {
      *arch = a;
      arch_ok = true;
    }
  }
  bool flavor_ok = false;
  for (Flavor f : kAllFlavors) {
    if (flavor_name == FlavorName(f)) {
      *flavor = f;
      flavor_ok = true;
    }
  }
  return arch_ok && flavor_ok;
}

int CmdGen(int argc, char** argv) {
  auto version = KernelVersion::Parse(FlagValue(argc, argv, "version", "5.4"));
  if (!version.ok()) {
    return DiagError(version.error().ToString());
  }
  std::string out = FlagValue(argc, argv, "out", "");
  if (out.empty()) {
    return DiagError("gen requires --out=FILE");
  }
  Arch arch = Arch::kX86;
  Flavor flavor = Flavor::kGeneric;
  if (!ParseArchFlavor(argc, argv, &arch, &flavor)) {
    return DiagError("unknown --arch or --flavor");
  }
  auto options = StudyOptions::Parse(argc, argv, /*default_scale=*/1.0);
  if (!options.ok()) {
    return DiagError(options.error());
  }
  Study study(options.TakeValue());
  auto bytes = study.BuildImage(MakeBuild(*version, arch, flavor));
  if (!bytes.ok()) {
    return DiagError(bytes.error().ToString());
  }
  Status written = WriteFile(out, *bytes);
  if (!written.ok()) {
    return DiagError(written.ToString());
  }
  printf("wrote %s (%zu bytes, %s)\n", out.c_str(), bytes->size(),
         MakeBuild(*version, arch, flavor).Label().c_str());
  return 0;
}

int CmdSurface(int argc, char** argv) {
  auto positional = Positional(argc, argv);
  if (positional.empty()) {
    return DiagError("surface requires an IMAGE path");
  }
  auto bytes = ReadFile(positional[0]);
  if (!bytes.ok()) {
    return DiagError(bytes.error().ToString());
  }
  auto surface = DependencySurface::Extract(bytes.TakeValue());
  if (!surface.ok()) {
    return DiagError(surface.error().ToString());
  }
  const SurfaceMeta& meta = surface->meta();
  printf("image: Linux v%d.%d %s/%s gcc%d (%d-bit %s-endian, %u config options)\n",
         meta.version_major, meta.version_minor, meta.arch.c_str(), meta.flavor.c_str(),
         meta.gcc_major, meta.pointer_size * 8,
         meta.endian == Endian::kLittle ? "little" : "big", meta.config_options);
  size_t attachable = 0;
  size_t full = 0;
  size_t selective = 0;
  size_t transformed = 0;
  for (const auto& [name, entry] : surface->functions()) {
    (void)name;
    attachable += entry.status.has_exact_symbol ? 1 : 0;
    full += entry.status.fully_inlined ? 1 : 0;
    selective += entry.status.selectively_inlined ? 1 : 0;
    transformed += entry.status.transformed ? 1 : 0;
  }
  printf("functions:   %zu in debug info; %zu attachable, %zu fully inlined,\n"
         "             %zu selectively inlined, %zu transformed\n",
         surface->functions().size(), attachable, full, selective, transformed);
  printf("structs:     %zu\n", surface->structs().size());
  printf("tracepoints: %zu\n", surface->tracepoints().size());
  printf("syscalls:    %zu (compat 32-bit tracing: %s)\n", surface->syscalls().size(),
         meta.compat_syscalls_traceable ? "supported" : "blind spot");

  std::string func = FlagValue(argc, argv, "func", "");
  if (!func.empty()) {
    const FunctionEntry* entry = surface->FindFunction(func);
    if (entry == nullptr) {
      return DiagError("no function named " + func + " on this surface");
    }
    if (HasFlag(argc, argv, "json")) {
      printf("%s\n", entry->StatusJson().c_str());
    } else {
      printf("\n%s\n", entry->btf_id != 0
                           ? FuncDeclString(surface->btf(), entry->btf_id).c_str()
                           : func.c_str());
      printf("  class: %s\n", entry->status.CollisionClass().c_str());
      printf("  attachable: %s%s%s%s\n", entry->status.has_exact_symbol ? "yes" : "NO",
             entry->status.fully_inlined ? " (fully inlined)" : "",
             entry->status.transformed
                 ? StrFormat(" (transformed%s)", entry->status.transform_suffix.c_str()).c_str()
                 : "",
             entry->status.selectively_inlined ? " (selectively inlined)" : "");
      for (const FunctionInstance& inst : entry->instances) {
        printf("  instance at %s:%u (%s)\n", inst.decl_file.c_str(), inst.decl_line,
               inst.HasCode() ? "has code" : "no code");
        for (const std::string& caller : inst.caller_inline) {
          printf("    inlined into %s\n", caller.c_str());
        }
        for (const std::string& caller : inst.caller_func) {
          printf("    called from  %s\n", caller.c_str());
        }
      }
    }
  }
  return 0;
}

// Decodes an image end to end (ELF, BTF, DWARF, surface extraction) and
// prints the metrics the pipeline collected along the way. The JSON form is
// the same document --metrics-out writes.
int CmdStats(int argc, char** argv) {
  auto positional = Positional(argc, argv);
  if (positional.empty()) {
    return DiagError("stats requires an IMAGE path");
  }
  auto bytes = ReadFile(positional[0]);
  if (!bytes.ok()) {
    return DiagError(bytes.error());
  }
  auto surface = DependencySurface::Extract(bytes.TakeValue());
  if (!surface.ok()) {
    return DiagError(positional[0], surface.error());
  }
  if (HasFlag(argc, argv, "json")) {
    printf("%s\n", obs::GlobalRunReportJson().c_str());
  } else {
    printf("%s", obs::GlobalRunReportText().c_str());
  }
  return 0;
}

// depsurf.diagnostics.v1: the standalone document `doctor --json` emits.
std::string DiagnosticsDocJson(const std::string& image, const SurfaceHealth& health,
                               const Error* fatal_error) {
  std::vector<DiagnosticEntry> entries = health.ledger.entries();
  if (fatal_error != nullptr) {
    DiagnosticEntry fatal;
    fatal.severity = DiagSeverity::kFatal;
    // Errors tagged by an inner layer keep that attribution; untagged ones
    // (unreadable container) are the ELF layer's.
    fatal.subsystem = fatal_error->subsystem().value_or(DiagSubsystem::kElf);
    fatal.code = fatal_error->code();
    if (fatal_error->offset().has_value()) {
      fatal.offset = *fatal_error->offset();
      fatal.has_offset = true;
    }
    fatal.message = fatal_error->message();
    entries.push_back(fatal);
  }
  std::string out = "{\n";
  out += StrFormat("\"schema\": \"%s\",\n", obs::kDiagnosticsSchema);
  out += StrFormat("\"image\": \"%s\",\n", obs::JsonEscape(image).c_str());
  out += StrFormat(
      "\"health\": {\"elf\": \"%s\", \"dwarf\": \"%s\", \"btf\": \"%s\", "
      "\"tracepoint\": \"%s\", \"syscall\": \"%s\"},\n",
      DegradationStateName(health.elf), DegradationStateName(health.dwarf),
      DegradationStateName(health.btf), DegradationStateName(health.tracepoint),
      DegradationStateName(health.syscall));
  out += StrFormat("\"fatal\": %s,\n", fatal_error != nullptr ? "true" : "false");
  out += "\"entries\": " + obs::DiagnosticsJson(std::move(entries));
  out += "\n}\n";
  return out;
}

// Triage for damaged inputs: extract once and report what salvage-mode
// extraction survived, or sweep N seeded mutations over the image and
// assert the crash-free contract corpus-wide. Exit codes mirror `check`:
// 0 clean, 2 salvaged (degraded subsystems), 1 unreadable container.
int CmdDoctor(int argc, char** argv) {
  auto positional = Positional(argc, argv);
  if (positional.empty()) {
    return DiagError("doctor requires an IMAGE path");
  }
  auto bytes = ReadFile(positional[0]);
  if (!bytes.ok()) {
    return DiagError(bytes.error());
  }
  const bool json = HasFlag(argc, argv, "json");
  auto sweep_flag = ParseU64Flag(FlagValue(argc, argv, "sweep", ""), 0);
  if (!sweep_flag.ok()) {
    return DiagError("--sweep: " + sweep_flag.error().message());
  }
  auto seed_flag = ParseU64Flag(FlagValue(argc, argv, "seed", ""), 2025);
  if (!seed_flag.ok()) {
    return DiagError("--seed: " + seed_flag.error().message());
  }
  auto timeout_flag =
      ParseSecondsFlag(FlagValue(argc, argv, "mutation-timeout", ""), 30.0);
  if (!timeout_flag.ok()) {
    return DiagError("--mutation-timeout: " + timeout_flag.error().message());
  }
  const uint64_t sweep = *sweep_flag;
  const uint64_t seed = *seed_flag;
  const uint64_t budget_ms = static_cast<uint64_t>(*timeout_flag * 1000.0);

  if (sweep == 0) {
    auto surface = DependencySurface::Extract(*bytes);
    if (!surface.ok()) {
      if (json) {
        printf("%s", DiagnosticsDocJson(positional[0], SurfaceHealth{}, &surface.error()).c_str());
      } else {
        printf("%s: unreadable (%s)\n", positional[0].c_str(),
               surface.error().ToString().c_str());
      }
      return 1;
    }
    const SurfaceHealth& health = surface->health();
    if (json) {
      printf("%s", DiagnosticsDocJson(positional[0], health, nullptr).c_str());
    } else {
      printf("%s: %s\n", positional[0].c_str(), health.Summary().c_str());
      for (const DiagnosticEntry& entry : health.ledger.entries()) {
        printf("  %s\n", entry.ToString().c_str());
      }
    }
    return health.AnyDegraded() ? 2 : 0;
  }

  // Sweep mode: every mutation must extract without crashing, and damage
  // must never pass silently — a non-clean outcome without ledger entries
  // (or a fatal error) would mean salvage lost the diagnosis. Each
  // extraction runs under the --mutation-timeout wall-clock guard, so a
  // pathological mutation shows up as a named timeout diagnostic (and exit
  // 1) instead of stalling CI.
  size_t clean = 0;
  size_t salvaged = 0;
  size_t fatal = 0;
  size_t timed_out = 0;
  for (uint64_t i = 0; i < sweep; ++i) {
    auto damaged = std::make_shared<std::vector<uint8_t>>(*bytes);
    FaultKind kind = FaultKindForIndex(i);
    std::string what = ApplyFault(*damaged, kind, seed + i);
    // Shared state so a timed-out worker never touches freed stack.
    auto state = std::make_shared<std::pair<bool, bool>>();  // {fatal, degraded}
    const bool finished = RunWithWallClock(budget_ms, [damaged, state] {
      auto surface = DependencySurface::Extract(std::move(*damaged));
      state->first = !surface.ok();
      state->second = surface.ok() && surface->health().AnyDegraded();
    });
    const char* outcome;
    if (!finished) {
      outcome = "TIMEOUT";
      ++timed_out;
    } else if (state->first) {
      outcome = "fatal";
      ++fatal;
    } else if (state->second) {
      outcome = "salvaged";
      ++salvaged;
    } else {
      outcome = "clean";
      ++clean;
    }
    if (!json) {
      printf("[%3llu] %-8s %s\n", static_cast<unsigned long long>(i), outcome, what.c_str());
    }
    if (!finished) {
      obs::Diag(obs::Severity::kError,
                StrFormat("sweep mutation %llu exceeded --mutation-timeout "
                          "(%.1fs): %s",
                          static_cast<unsigned long long>(i), *timeout_flag,
                          what.c_str()));
    }
  }
  printf("sweep: %llu mutations over %s: %zu clean, %zu salvaged, %zu fatal, "
         "%zu timed out, 0 crashes\n",
         static_cast<unsigned long long>(sweep), positional[0].c_str(), clean, salvaged,
         fatal, timed_out);
  return timed_out > 0 ? 1 : 0;
}

// Coverage-guided fault fuzzing over seed images or eBPF objects
// (src/fuzz): mutate, extract under salvage mode, keep candidates whose
// diagnostic signature is novel, cross-check every candidate against the
// salvage-vs-strict oracle. Exit codes: 0 clean campaign, 2 oracle
// disagreements, 1 hangs or infrastructure failure. Deterministic in
// (--seed, seed files): two runs emit byte-identical JSON and corpora.
int CmdFuzz(int argc, char** argv) {
  auto positional = Positional(argc, argv);
  if (positional.empty()) {
    return DiagError("fuzz requires at least one SEED path (image or object)");
  }
  FuzzOptions options;
  auto rounds = ParseU64Flag(FlagValue(argc, argv, "rounds", ""), 64);
  if (!rounds.ok()) {
    return DiagError("--rounds: " + rounds.error().message());
  }
  options.rounds = *rounds;
  auto seed = ParseU64Flag(FlagValue(argc, argv, "seed", ""), 2025);
  if (!seed.ok()) {
    return DiagError("--seed: " + seed.error().message());
  }
  options.seed = *seed;
  auto timeout =
      ParseSecondsFlag(FlagValue(argc, argv, "mutation-timeout", ""), 10.0);
  if (!timeout.ok()) {
    return DiagError("--mutation-timeout: " + timeout.error().message());
  }
  options.time_budget_ms = static_cast<uint64_t>(*timeout * 1000.0);
  auto max_ledger = ParseU64Flag(FlagValue(argc, argv, "max-ledger", ""), 10000);
  if (!max_ledger.ok()) {
    return DiagError("--max-ledger: " + max_ledger.error().message());
  }
  options.max_ledger_entries = static_cast<size_t>(*max_ledger);

  std::vector<FuzzSeed> seeds;
  for (const std::string& path : positional) {
    auto bytes = ReadFile(path);
    if (!bytes.ok()) {
      return DiagError(bytes.error());
    }
    FuzzSeed fuzz_seed;
    // Basename only: the report must not change with the invocation dir.
    fuzz_seed.name = path.substr(path.find_last_of('/') + 1);
    fuzz_seed.bytes = bytes.TakeValue();
    seeds.push_back(std::move(fuzz_seed));
  }

  auto campaign = RunFuzzCampaign(std::move(seeds), options);
  if (!campaign.ok()) {
    return DiagError(campaign.error());
  }
  std::string corpus_dir = FlagValue(argc, argv, "corpus-dir", "");
  if (!corpus_dir.empty()) {
    auto written = WriteFuzzCorpus(*campaign, corpus_dir);
    if (!written.ok()) {
      return DiagError(written.error());
    }
  }
  if (HasFlag(argc, argv, "json")) {
    printf("%s", RenderFuzzCampaignJson(*campaign).c_str());
    return campaign->ExitCode();
  }
  printf("fuzz: %llu rounds over %zu seed(s) [%s mode]: %zu coverage tuples, "
         "corpus %zu (minimized to %zu), %zu oracle disagreements, %zu hangs\n",
         static_cast<unsigned long long>(campaign->rounds),
         campaign->seed_names.size(), SeedModeName(campaign->mode),
         campaign->coverage.size(), campaign->corpus.size(),
         campaign->minimized.size(), campaign->disagreements.size(),
         campaign->hangs.size());
  for (const FuzzKindStats& stats : campaign->kinds) {
    printf("  %-24s attempts=%-4llu novel=%llu\n", stats.kind.c_str(),
           static_cast<unsigned long long>(stats.attempts),
           static_cast<unsigned long long>(stats.novel));
  }
  for (const FuzzOracleDisagreement& d : campaign->disagreements) {
    printf("  ORACLE round=%llu kind=%s fault_seed=%llu: %s\n",
           static_cast<unsigned long long>(d.round), d.kind.c_str(),
           static_cast<unsigned long long>(d.fault_seed), d.violation.c_str());
  }
  for (const FuzzHang& h : campaign->hangs) {
    printf("  HANG round=%llu kind=%s fault_seed=%llu: %s\n",
           static_cast<unsigned long long>(h.round), h.kind.c_str(),
           static_cast<unsigned long long>(h.fault_seed), h.description.c_str());
  }
  return campaign->ExitCode();
}

// Validates or canonicalizes an observability JSON file. `lint` dispatches
// on --kind (run report, aggregate, bench report, perf comparison, trace);
// `canon` re-emits any document in compact form with timing fields masked,
// so two runs over the same inputs can be compared byte for byte.
int CmdMetrics(int argc, char** argv) {
  if (int rc = RejectUnknownFlags(argc, argv, "metrics",
                                  {"kind", "min-spans", "require", "report"})) {
    return rc;
  }
  auto positional = Positional(argc, argv);
  if (positional.size() < 2 || (positional[0] != "lint" && positional[0] != "canon")) {
    return DiagError("metrics requires a subcommand: lint FILE | canon FILE");
  }
  auto bytes = ReadFile(positional[1]);
  if (!bytes.ok()) {
    return DiagError(bytes.error());
  }
  std::string text(bytes->begin(), bytes->end());
  if (positional[0] == "canon") {
    auto json = obs::ParseJson(text);
    if (!json.ok()) {
      return DiagError(positional[1], json.error());
    }
    printf("%s\n", obs::CanonicalMaskedJson(*json).c_str());
    return 0;
  }
  std::string kind = FlagValue(argc, argv, "kind", "report");
  if (kind == "report") {
    auto min_spans_flag = ParseU64Flag(FlagValue(argc, argv, "min-spans", ""), 0);
    if (!min_spans_flag.ok()) {
      return DiagError("--min-spans: " + min_spans_flag.error().message());
    }
    size_t min_spans = static_cast<size_t>(*min_spans_flag);
    std::vector<std::string> required;
    for (const std::string& name : SplitString(FlagValue(argc, argv, "require", ""), ',')) {
      if (!name.empty()) {
        required.push_back(name);
      }
    }
    Status valid = obs::ValidateRunReport(text, min_spans, required);
    if (!valid.ok()) {
      return DiagError(positional[1], valid.error());
    }
    auto json = obs::ParseJson(text);
    for (const std::string& note : obs::RunReportLintNotes(*json)) {
      printf("note: %s: %s\n", positional[1].c_str(), note.c_str());
    }
    printf("%s: valid %s (%zu distinct spans)\n", positional[1].c_str(),
           obs::kRunReportSchema, obs::CollectSpanNames(*json).size());
    return 0;
  }
  if (kind == "agg") {
    Status valid = obs::ValidateAggReport(text);
    if (!valid.ok()) {
      return DiagError(positional[1], valid.error());
    }
    if (auto json = obs::ParseJson(text); json.ok()) {
      for (const std::string& note : obs::RunReportLintNotes(*json)) {
        printf("note: %s: %s\n", positional[1].c_str(), note.c_str());
      }
    }
    printf("%s: valid %s\n", positional[1].c_str(), obs::kRunReportAggSchema);
    return 0;
  }
  if (kind == "profile") {
    Status valid = obs::ValidateProfileDoc(text);
    if (!valid.ok()) {
      return DiagError(positional[1], valid.error());
    }
    printf("%s: valid %s\n", positional[1].c_str(), obs::kProfileSchema);
    return 0;
  }
  if (kind == "bench") {
    Status valid = obs::ValidateBenchReport(text);
    if (!valid.ok()) {
      return DiagError(positional[1], valid.error());
    }
    printf("%s: valid %s\n", positional[1].c_str(), obs::kBenchReportSchema);
    return 0;
  }
  if (kind == "perf") {
    Status valid = obs::ValidatePerfCompare(text);
    if (!valid.ok()) {
      return DiagError(positional[1], valid.error());
    }
    printf("%s: valid %s\n", positional[1].c_str(), obs::kPerfCompareSchema);
    return 0;
  }
  if (kind == "diag") {
    Status valid = obs::ValidateDiagnosticsDoc(text);
    if (!valid.ok()) {
      return DiagError(positional[1], valid.error());
    }
    printf("%s: valid %s\n", positional[1].c_str(), obs::kDiagnosticsSchema);
    return 0;
  }
  if (kind == "analysis") {
    Status valid = obs::ValidateAnalysisDoc(text);
    if (!valid.ok()) {
      return DiagError(positional[1], valid.error());
    }
    printf("%s: valid depsurf.analysis.v1\n", positional[1].c_str());
    return 0;
  }
  if (kind == "remediation") {
    Status valid = obs::ValidateRemediationDoc(text);
    if (!valid.ok()) {
      return DiagError(positional[1], valid.error());
    }
    printf("%s: valid depsurf.remediation.v1\n", positional[1].c_str());
    return 0;
  }
  if (kind == "fuzz") {
    Status valid = obs::ValidateFuzzCampaignDoc(text);
    if (!valid.ok()) {
      return DiagError(positional[1], valid.error());
    }
    printf("%s: valid %s\n", positional[1].c_str(), kFuzzCampaignSchema);
    return 0;
  }
  if (kind == "serve") {
    Status valid = obs::ValidateServeReportDoc(text);
    if (!valid.ok()) {
      return DiagError(positional[1], valid.error());
    }
    printf("%s: valid depsurf.serve_report.v1\n", positional[1].c_str());
    return 0;
  }
  if (kind == "trace") {
    auto json = obs::ParseJson(text);
    if (!json.ok()) {
      return DiagError(positional[1], json.error());
    }
    int64_t expect_events = -1;
    std::string report_path = FlagValue(argc, argv, "report", "");
    if (!report_path.empty()) {
      auto report_bytes = ReadFile(report_path);
      if (!report_bytes.ok()) {
        return DiagError(report_bytes.error());
      }
      auto report = obs::ParseJson(std::string(report_bytes->begin(), report_bytes->end()));
      if (!report.ok()) {
        return DiagError(report_path, report.error());
      }
      expect_events = static_cast<int64_t>(obs::CountReportSpanNodes(*report));
    }
    Status valid = obs::ValidateTrace(*json, expect_events);
    if (!valid.ok()) {
      return DiagError(positional[1], valid.error());
    }
    printf("%s: valid trace_event JSON (%zu events)\n", positional[1].c_str(),
           json->Find("traceEvents")->array.size());
    return 0;
  }
  return DiagError("unknown --kind=" + kind +
                   " (valid kinds: report|agg|bench|perf|trace|diag|analysis|"
                   "remediation|profile|fuzz|serve)");
}

// Merges run reports (per-image documents from a study build, or prior
// aggregates) into one depsurf.run_report_agg.v1 file.
int CmdReport(int argc, char** argv) {
  auto positional = Positional(argc, argv);
  // `report flame REPORT.json [--out=FILE]`: folded stacks
  // (`root;child;leaf self_ns` lines) from a run report or aggregate,
  // directly consumable by flamegraph.pl / speedscope.
  if (!positional.empty() && positional[0] == "flame") {
    if (positional.size() < 2) {
      return DiagError("report flame requires a REPORT.json path");
    }
    auto bytes = ReadFile(positional[1]);
    if (!bytes.ok()) {
      return DiagError(bytes.error());
    }
    auto folded = obs::FoldedStacksFromReportJson(std::string(bytes->begin(), bytes->end()));
    if (!folded.ok()) {
      return DiagError(positional[1], folded.error());
    }
    std::string out_path = FlagValue(argc, argv, "out", "");
    if (out_path.empty()) {
      printf("%s", folded->c_str());
      return 0;
    }
    std::ofstream out(out_path, std::ios::binary);
    out.write(folded->data(), static_cast<std::streamsize>(folded->size()));
    if (!out) {
      return DiagError("cannot write " + out_path);
    }
    printf("wrote %s (%zu bytes)\n", out_path.c_str(), folded->size());
    return 0;
  }
  if (positional.size() < 3 || positional[0] != "merge") {
    return DiagError(
        "report requires a subcommand: merge OUT IN... | flame REPORT.json [--out=FILE]");
  }
  std::vector<obs::LabeledReport> reports;
  for (size_t i = 2; i < positional.size(); ++i) {
    auto bytes = ReadFile(positional[i]);
    if (!bytes.ok()) {
      return DiagError(bytes.error());
    }
    reports.push_back(
        obs::LabeledReport{positional[i], std::string(bytes->begin(), bytes->end())});
  }
  auto merged = obs::MergeRunReports(reports);
  if (!merged.ok()) {
    return DiagError(merged.error());
  }
  std::ofstream out(positional[1], std::ios::binary);
  if (!out) {
    return DiagError("cannot write " + positional[1]);
  }
  out.write(merged->data(), static_cast<std::streamsize>(merged->size()));
  if (!out) {
    return DiagError("short write to " + positional[1]);
  }
  printf("wrote %s (%zu input reports, %zu bytes)\n", positional[1].c_str(), reports.size(),
         merged->size());
  return 0;
}

// Accepts "15%", "15", or "0.15" — all meaning a 15% threshold; empty
// means the fallback. Anything non-numeric is an error: the old atof path
// read "--max-regress=abc" as 0 and turned the gate into a tripwire on
// pure noise.
Result<double> ParseRatioFlag(const std::string& text, double fallback) {
  if (text.empty()) {
    return fallback;
  }
  bool percent = text.back() == '%';
  std::string digits = percent ? text.substr(0, text.size() - 1) : text;
  char* end = nullptr;
  double value = digits.empty() ? 0 : strtod(digits.c_str(), &end);
  if (digits.empty() || end == nullptr || *end != '\0' || !std::isfinite(value) ||
      value <= 0) {
    return Error(ErrorCode::kInvalidArgument,
                 "\"" + text + "\" is not a positive ratio (try 15%, 15, or 0.15)");
  }
  if (percent || value > 1.0) {
    value /= 100.0;
  }
  return value;
}

// A nonnegative seconds value; empty means the fallback, anything that does
// not fully parse as a finite number is an error.
Result<double> ParseSecondsFlag(const std::string& text, double fallback) {
  if (text.empty()) {
    return fallback;
  }
  char* end = nullptr;
  double value = strtod(text.c_str(), &end);
  if (end == nullptr || *end != '\0' || !std::isfinite(value) || value < 0) {
    return Error(ErrorCode::kInvalidArgument,
                 "\"" + text + "\" is not a nonnegative number of seconds");
  }
  return value;
}

// The perf regression gate: exit 0 when no stage regressed beyond the
// threshold, 3 when one did (1 stays "could not compare at all").
int CmdPerfCompare(int argc, char** argv, const std::vector<std::string>& positional) {
  if (int rc = RejectUnknownFlags(argc, argv, "perf compare",
                                  {"max-regress", "noise-floor", "json"})) {
    return rc;
  }
  if (positional.size() < 3) {
    return DiagError("perf compare requires BASE.json and HEAD.json");
  }
  obs::PerfGateOptions options;
  auto ratio = ParseRatioFlag(FlagValue(argc, argv, "max-regress", ""), 0.15);
  if (!ratio.ok()) {
    return DiagError("--max-regress: " + ratio.error().message());
  }
  options.max_regress = *ratio;
  auto floor = ParseSecondsFlag(FlagValue(argc, argv, "noise-floor", ""), 0.005);
  if (!floor.ok()) {
    return DiagError("--noise-floor: " + floor.error().message());
  }
  options.noise_floor_seconds = *floor;
  std::vector<std::vector<obs::StageTiming>> sides;
  for (size_t i = 1; i <= 2; ++i) {
    auto bytes = ReadFile(positional[i]);
    if (!bytes.ok()) {
      return DiagError(bytes.error());
    }
    auto json = obs::ParseJson(std::string(bytes->begin(), bytes->end()));
    if (!json.ok()) {
      return DiagError(positional[i], json.error());
    }
    auto timings = obs::LoadStageTimings(*json);
    if (!timings.ok()) {
      return DiagError(positional[i], timings.error());
    }
    sides.push_back(timings.TakeValue());
  }
  obs::PerfComparison comparison = obs::ComparePerf(sides[0], sides[1], options);
  if (HasFlag(argc, argv, "json")) {
    printf("%s", obs::PerfComparisonJson(comparison, options).c_str());
  } else {
    printf("%s", obs::PerfComparisonText(comparison).c_str());
  }
  return comparison.gate_failed() ? 3 : 0;
}

int CmdPerf(int argc, char** argv) {
  auto positional = Positional(argc, argv);
  if (positional.empty()) {
    return DiagError("perf requires a subcommand: compare");
  }
  if (positional[0] == "compare") {
    return CmdPerfCompare(argc, argv, positional);
  }
  return DiagError("unknown perf subcommand " + positional[0] + " (compare)");
}

// Shared by `study build` and `profile --live`: --versions/--arch/--flavor
// into a build corpus (empty --versions means the bundled LTS set).
Result<std::vector<BuildSpec>> CorpusFromFlags(int argc, char** argv) {
  Arch arch = Arch::kX86;
  Flavor flavor = Flavor::kGeneric;
  if (!ParseArchFlavor(argc, argv, &arch, &flavor)) {
    return Error(ErrorCode::kInvalidArgument, "unknown --arch or --flavor");
  }
  std::vector<BuildSpec> corpus;
  std::string versions = FlagValue(argc, argv, "versions", "");
  if (versions.empty()) {
    for (KernelVersion version : kLtsVersions) {
      corpus.push_back(MakeBuild(version, arch, flavor));
    }
  } else {
    for (const std::string& text : SplitString(versions, ',')) {
      if (text.empty()) {
        continue;
      }
      auto version = KernelVersion::Parse(text);
      if (!version.ok()) {
        return version.TakeError();
      }
      corpus.push_back(MakeBuild(*version, arch, flavor));
    }
  }
  if (corpus.empty()) {
    return Error(ErrorCode::kInvalidArgument, "empty corpus (check --versions)");
  }
  return corpus;
}

// Corpus builds from the CLI: generate + extract + distill a whole version
// corpus, optionally writing per-image run reports and their aggregate.
int CmdStudy(int argc, char** argv) {
  auto positional = Positional(argc, argv);
  if (positional.empty() || positional[0] != "build") {
    return DiagError("study requires a subcommand: build");
  }
  auto corpus_or = CorpusFromFlags(argc, argv);
  if (!corpus_or.ok()) {
    return DiagError("study build: " + corpus_or.error().message());
  }
  std::vector<BuildSpec> corpus = corpus_or.TakeValue();
  auto options = StudyOptions::Parse(argc, argv, /*default_scale=*/1.0);
  if (!options.ok()) {
    return DiagError(options.error());
  }
  Study study(options.TakeValue());
  // Failure policy: --keep-going (the default) quarantines images whose
  // extraction dies outright; --strict aborts the whole build instead.
  BuildPolicy policy;
  policy.keep_going = !HasFlag(argc, argv, "strict");
  // --jobs=N: width of the concurrent generate+extract window (0 = auto).
  auto jobs = ParseJobsFlag(FlagValue(argc, argv, "jobs", ""));
  if (!jobs.ok()) {
    return DiagError("--jobs: " + jobs.error().message());
  }
  policy.jobs = *jobs;
  // --poison=LABEL (testing aid): truncate the named image below the ELF
  // header before extraction, guaranteeing a fatal failure on exactly that
  // image so the quarantine path can be demonstrated end to end.
  std::string poison = FlagValue(argc, argv, "poison", "");
  if (!poison.empty()) {
    study.SetImageMutator([poison](const BuildSpec& build, std::vector<uint8_t>& bytes) {
      if (build.Label() == poison && bytes.size() > 16) {
        bytes.resize(16);
      }
    });
  }
  auto progress = [](const Study::ImageProgress& p) {
    printf("[%zu/%zu] %-28s %.2f s%s\n", p.index + 1, p.total, p.label.c_str(), p.seconds,
           p.quarantined ? "  (quarantined)" : "");
  };
  std::string report_dir = FlagValue(argc, argv, "report-dir", "");
  Study::DatasetReportFiles files;
  std::vector<QuarantinedImage> quarantined;
  auto dataset = report_dir.empty()
                     ? study.BuildDataset(corpus, progress, policy, &quarantined)
                     : study.BuildDatasetWithReports(corpus, report_dir, &files, progress,
                                                     policy, &quarantined);
  if (!dataset.ok()) {
    return DiagError(dataset.error());
  }
  for (const QuarantinedImage& image : quarantined) {
    printf("quarantined %s: %s\n", image.label.c_str(), image.error.ToString().c_str());
  }
  std::string out = FlagValue(argc, argv, "out", "");
  if (!out.empty()) {
    std::vector<uint8_t> bytes = SaveDatasetV2(*dataset);
    Status written = WriteFile(out, bytes);
    if (!written.ok()) {
      return DiagError(written.ToString());
    }
    printf("wrote %s (%zu images, %zu bytes)\n", out.c_str(), dataset->num_images(),
           bytes.size());
  } else {
    printf("built %zu-image dataset (not saved; pass --out=FILE)\n", dataset->num_images());
  }
  if (!report_dir.empty()) {
    printf("wrote %zu per-image reports and %s\n", files.per_image.size(),
           files.aggregate.c_str());
  }
  // --profile-out=FILE: write a depsurf.profile.v1 self-profile of the
  // build that just ran (aggregate tables, critical path, executor stats).
  std::string profile_out = FlagValue(argc, argv, "profile-out", "");
  if (!profile_out.empty()) {
    obs::Profile profile;
    if (!report_dir.empty()) {
      // Report mode resets the root collectors between images; the
      // aggregate on disk is the authoritative span record.
      auto bytes = ReadFile(files.aggregate);
      if (!bytes.ok()) {
        return DiagError(bytes.error());
      }
      auto parsed = obs::ProfileFromReportJson(std::string(bytes->begin(), bytes->end()));
      if (!parsed.ok()) {
        return DiagError(files.aggregate, parsed.error());
      }
      profile = parsed.TakeValue();
    } else {
      profile = obs::BuildProfile(obs::SpanCollector::Global().Snapshot());
    }
    obs::FillExecutorStats(profile, obs::MetricsRegistry::Global());
    std::string json = obs::ProfileJson(profile);
    std::ofstream pout(profile_out, std::ios::binary);
    pout.write(json.data(), static_cast<std::streamsize>(json.size()));
    if (!pout) {
      return DiagError("cannot write " + profile_out);
    }
    printf("wrote %s (%s)\n", profile_out.c_str(), obs::kProfileSchema);
  }
  return 0;
}

// Self-profile of a run: per-name self-time/CPU/alloc aggregates, the
// critical path (the serial distill/serialize share of wall time), and
// executor stats. Input is a run report or aggregate from `study build
// --report-dir`, or a saved depsurf.profile.v1 document to re-render;
// --live instead runs a corpus build in-process and profiles the spans it
// just recorded.
int CmdProfile(int argc, char** argv) {
  auto positional = Positional(argc, argv);
  obs::Profile profile;
  std::string folded;
  if (HasFlag(argc, argv, "live")) {
    auto corpus = CorpusFromFlags(argc, argv);
    if (!corpus.ok()) {
      return DiagError("profile --live: " + corpus.error().message());
    }
    // Small default scale: --live exists to profile the pipeline's shape,
    // not to build a production dataset.
    auto options = StudyOptions::Parse(argc, argv, /*default_scale=*/0.25);
    if (!options.ok()) {
      return DiagError(options.error());
    }
    Study study(options.TakeValue());
    BuildPolicy policy;
    auto jobs = ParseJobsFlag(FlagValue(argc, argv, "jobs", ""));
    if (!jobs.ok()) {
      return DiagError("--jobs: " + jobs.error().message());
    }
    policy.jobs = *jobs;
    auto dataset = study.BuildDataset(*corpus, {}, policy, nullptr);
    if (!dataset.ok()) {
      return DiagError(dataset.error());
    }
    std::vector<obs::SpanNode> roots = obs::SpanCollector::Global().Snapshot();
    profile = obs::BuildProfile(roots);
    obs::FillExecutorStats(profile, obs::MetricsRegistry::Global());
    folded = obs::FoldedStacks(roots);
  } else {
    if (positional.empty()) {
      return DiagError("profile requires a RUN_REPORT.json or PROFILE.json path, or --live");
    }
    auto bytes = ReadFile(positional[0]);
    if (!bytes.ok()) {
      return DiagError(bytes.error());
    }
    std::string text(bytes->begin(), bytes->end());
    auto doc = obs::ParseJson(text);
    if (!doc.ok()) {
      return DiagError(positional[0], doc.error());
    }
    const obs::JsonValue* schema = doc->Find("schema");
    const bool saved = schema != nullptr && schema->string == obs::kProfileSchema;
    // A saved profile keeps per-name aggregates, not the span forest.
    if (saved && !FlagValue(argc, argv, "folded-out", "").empty()) {
      return DiagError(StrFormat("--folded-out: %s has no span stacks (%s documents "
                                 "keep per-name totals only)",
                                 positional[0].c_str(), obs::kProfileSchema));
    }
    auto parsed = saved ? obs::ParseProfileDoc(text) : obs::ProfileFromReportJson(text);
    if (!parsed.ok()) {
      return DiagError(positional[0], parsed.error());
    }
    profile = parsed.TakeValue();
    if (!saved) {
      auto folded_or = obs::FoldedStacksFromReportJson(text);
      if (folded_or.ok()) {
        folded = folded_or.TakeValue();
      }
    }
  }
  std::string out_path = FlagValue(argc, argv, "out", "");
  if (!out_path.empty()) {
    std::string json = obs::ProfileJson(profile);
    std::ofstream out(out_path, std::ios::binary);
    out.write(json.data(), static_cast<std::streamsize>(json.size()));
    if (!out) {
      return DiagError("cannot write " + out_path);
    }
    printf("wrote %s (%s)\n", out_path.c_str(), obs::kProfileSchema);
  }
  std::string folded_path = FlagValue(argc, argv, "folded-out", "");
  if (!folded_path.empty()) {
    std::ofstream out(folded_path, std::ios::binary);
    out.write(folded.data(), static_cast<std::streamsize>(folded.size()));
    if (!out) {
      return DiagError("cannot write " + folded_path);
    }
    printf("wrote %s (%zu bytes folded stacks)\n", folded_path.c_str(), folded.size());
  }
  if (HasFlag(argc, argv, "json")) {
    printf("%s", obs::ProfileJson(profile).c_str());
  } else if (out_path.empty() && folded_path.empty()) {
    printf("%s", obs::ProfileText(profile).c_str());
  }
  return 0;
}

int CmdDiff(int argc, char** argv) {
  auto positional = Positional(argc, argv);
  if (positional.size() < 2) {
    return DiagError("diff requires OLD and NEW image paths");
  }
  auto old_bytes = ReadFile(positional[0]);
  auto new_bytes = ReadFile(positional[1]);
  if (!old_bytes.ok() || !new_bytes.ok()) {
    return DiagError("cannot read images");
  }
  auto old_surface = DependencySurface::Extract(old_bytes.TakeValue());
  if (!old_surface.ok()) {
    return DiagError("old image: " + old_surface.error().ToString());
  }
  auto new_surface = DependencySurface::Extract(new_bytes.TakeValue());
  if (!new_surface.ok()) {
    return DiagError("new image: " + new_surface.error().ToString());
  }
  SurfaceDiff diff = DiffSurfaces(*old_surface, *new_surface);
  printf("functions:   +%zu -%zu changed %zu\n", diff.funcs.added.size(),
         diff.funcs.removed.size(), diff.funcs.changed.size());
  printf("structs:     +%zu -%zu changed %zu\n", diff.structs.added.size(),
         diff.structs.removed.size(), diff.structs.changed.size());
  printf("tracepoints: +%zu -%zu changed %zu\n", diff.tracepoints.added.size(),
         diff.tracepoints.removed.size(), diff.tracepoints.changed.size());
  printf("syscalls:    +%zu -%zu\n", diff.syscalls.added.size(), diff.syscalls.removed.size());
  if (HasFlag(argc, argv, "verbose")) {
    for (const auto& [name, kinds] : diff.funcs.changed) {
      printf("  func %s:", name.c_str());
      for (FuncChangeKind kind : kinds) {
        printf(" [%s]", FuncChangeKindName(kind));
      }
      printf("\n");
    }
    for (const auto& [name, kinds] : diff.structs.changed) {
      printf("  struct %s:", name.c_str());
      for (StructChangeKind kind : kinds) {
        printf(" [%s]", StructChangeKindName(kind));
      }
      printf("\n");
    }
  }
  return 0;
}

int CmdCheck(int argc, char** argv) {
  auto positional = Positional(argc, argv);
  std::string dataset_path = FlagValue(argc, argv, "dataset", "");
  if (positional.empty() || (positional.size() < 2 && dataset_path.empty())) {
    return DiagError("check requires OBJECT and either IMAGE... or --dataset=FILE");
  }
  auto object_bytes = ReadFile(positional[0]);
  if (!object_bytes.ok()) {
    return DiagError(object_bytes.error().ToString());
  }
  auto object = ParseBpfObject(object_bytes.TakeValue());
  if (!object.ok()) {
    return DiagError("object: " + object.error().ToString());
  }
  auto deps = ExtractDependencySet(*object);
  if (!deps.ok()) {
    return DiagError(deps.error().ToString());
  }
  Dataset dataset;
  if (!dataset_path.empty()) {
    auto bytes = ReadFile(dataset_path);
    if (!bytes.ok()) {
      return DiagError(bytes.error().ToString());
    }
    auto loaded = LoadDatasetV2(*bytes);
    if (!loaded.ok()) {
      return DiagError(dataset_path + ": " + loaded.error().ToString());
    }
    dataset = loaded.TakeValue();
  }
  for (size_t i = 1; i < positional.size(); ++i) {
    auto bytes = ReadFile(positional[i]);
    if (!bytes.ok()) {
      return DiagError(bytes.error().ToString());
    }
    auto surface = DependencySurface::Extract(bytes.TakeValue());
    if (!surface.ok()) {
      return DiagError(positional[i] + ": " + surface.error().ToString());
    }
    // Full images carry kernel BTF, so beyond the dataset row check we can
    // replay the object's CO-RE relocations against each one.
    LoadResult load = SimulateLoad(*object, surface->btf());
    size_t resolved = 0;
    for (const RelocResult& r : load.relocs) {
      resolved += r.outcome == RelocOutcome::kResolved ? 1 : 0;
    }
    printf("load %-28s %s (%zu/%zu relocs resolved%s%s)\n", positional[i].c_str(),
           load.loaded ? "ok" : "FAILS", resolved, load.relocs.size(),
           load.loaded ? "" : ": ", load.failure.c_str());
    dataset.AddImage(positional[i], *surface);
  }
  ProgramReport report = AnalyzeProgram(dataset, *deps);
  printf("%s\n", report.RenderMatrix().c_str());
  printf("worst implication: %s\n", ImplicationName(report.WorstImplication()));
  return report.AnyMismatch() ? 2 : 0;  // like grep: 2 = mismatches found
}

// Static analysis of a compiled object's instruction streams (CFG,
// reachability, register provenance, guard dominance). Exit 0 when clean,
// 2 when the analyzer reports findings, 1 when the object is unreadable.
int CmdAnalyze(int argc, char** argv) {
  if (int rc = RejectUnknownFlags(argc, argv, "analyze", {"against", "json"})) {
    return rc;
  }
  auto positional = Positional(argc, argv);
  if (positional.empty()) {
    return DiagError("analyze requires an OBJECT path");
  }
  auto bytes = ReadFile(positional[0]);
  if (!bytes.ok()) {
    return DiagError(bytes.error());
  }
  DiagnosticLedger ledger;
  auto object = ParseBpfObject(bytes.TakeValue(), &ledger);
  if (!object.ok()) {
    return DiagError(positional[0] + ": " + object.error().ToString());
  }
  std::vector<Dataset> datasets;
  AnalyzeOptions opts;
  std::string against = FlagValue(argc, argv, "against", "");
  if (!against.empty()) {
    auto loaded = LoadAgainstDatasets(against);
    if (!loaded.ok()) {
      return DiagError(loaded.error());
    }
    datasets = loaded.TakeValue();
    for (const Dataset& ds : datasets) {
      opts.against_all.push_back(&ds);
    }
  }
  ObjectAnalysis analysis = AnalyzeObject(*object, opts);
  if (HasFlag(argc, argv, "json")) {
    printf("%s", AnalysisToJson(analysis).c_str());
  } else {
    printf("object %s: %zu programs, %zu relocs%s\n", analysis.object_name.c_str(),
           analysis.programs.size(), analysis.relocs.size(),
           analysis.against_dataset
               ? StrFormat(" (against %zu images)", analysis.against_images).c_str()
               : "");
    for (const ProgramAnalysis& program : analysis.programs) {
      printf("  %-28s %s: %zu insns, %zu blocks, %zu reachable, %zu helper calls\n",
             program.name.c_str(), program.section.c_str(), program.insn_count,
             program.block_count, program.reachable_insns, program.helper_calls);
    }
    for (const RelocVerdict& verdict : analysis.relocs) {
      printf("  reloc [%zu] %s %s%s%s %s%s%s\n", verdict.index,
             CoreRelocKindName(verdict.kind), verdict.struct_name.c_str(),
             verdict.field_name.empty() ? "" : "::",
             verdict.field_name.c_str(),
             verdict.bound
                 ? StrFormat("%s+%u", verdict.program.c_str(), verdict.insn_off).c_str()
                 : "(unbound)",
             verdict.unguarded ? "" : " [guarded]",
             verdict.consequence.empty() ? "" : (" -> " + verdict.consequence).c_str());
    }
    for (const Finding& finding : analysis.findings) {
      printf("  %s %s+%u: %s\n", FindingKindName(finding.kind),
             finding.program.c_str(), finding.insn_off, finding.detail.c_str());
      printf("      fix: %s\n", finding.remediation.c_str());
    }
    printf("%zu findings\n", analysis.findings.size());
  }
  // Salvage notes go to stderr so --json output stays machine-clean.
  for (const DiagnosticEntry& entry : ledger.entries()) {
    fprintf(stderr, "note: %s\n", entry.ToString().c_str());
  }
  return analysis.findings.empty() ? 0 : 2;
}

// Remediation: plan a field_exists guard for every fixable finding, splice
// the guards into the object, and self-verify by re-analyzing the result.
// Exit 0 when the fixed object is clean, 2 when unfixable findings remain,
// 1 on error or when verification fails (a targeted finding survived the
// rewrite, or the rewrite introduced a new one).
int CmdFix(int argc, char** argv) {
  if (int rc = RejectUnknownFlags(argc, argv, "fix", {"against", "out", "json"})) {
    return rc;
  }
  auto positional = Positional(argc, argv);
  if (positional.empty()) {
    return DiagError("fix requires an OBJECT path");
  }
  auto bytes = ReadFile(positional[0]);
  if (!bytes.ok()) {
    return DiagError(bytes.error());
  }
  DiagnosticLedger ledger;
  auto object = ParseBpfObject(bytes.TakeValue(), &ledger);
  if (!object.ok()) {
    return DiagError(positional[0] + ": " + object.error().ToString());
  }
  std::vector<Dataset> datasets;
  AnalyzeOptions opts;
  std::string against = FlagValue(argc, argv, "against", "");
  if (!against.empty()) {
    auto loaded = LoadAgainstDatasets(against);
    if (!loaded.ok()) {
      return DiagError(loaded.error());
    }
    datasets = loaded.TakeValue();
    for (const Dataset& ds : datasets) {
      opts.against_all.push_back(&ds);
    }
  }

  ObjectAnalysis before = AnalyzeObject(*object, opts);
  RemediationPlan plan = PlanRemediation(*object, before, opts);

  BpfObject fixed = *object;
  Status applied = InsertFieldExistsGuards(fixed, plan.Insertions(), &ledger);
  if (!applied.ok()) {
    for (const DiagnosticEntry& entry : ledger.entries()) {
      fprintf(stderr, "note: %s\n", entry.ToString().c_str());
    }
    return DiagError(positional[0] + ": " + applied.error().ToString());
  }

  // The fixed object must round-trip through the salvaging decoder and
  // re-analyze with every targeted finding gone and nothing new.
  auto encoded = WriteBpfObject(fixed);
  if (!encoded.ok()) {
    return DiagError(positional[0] + ": fixed object does not encode: " +
                     encoded.error().ToString());
  }
  DiagnosticLedger reparse_ledger;
  auto reparsed = ParseBpfObject(*encoded, &reparse_ledger);
  if (!reparsed.ok()) {
    return DiagError(positional[0] + ": fixed object does not re-parse: " +
                     reparsed.error().ToString());
  }
  ledger.Merge(reparse_ledger);
  ObjectAnalysis after = AnalyzeObject(*reparsed, opts);
  RemediationVerification verification = VerifyRemediation(before, plan, after);

  std::string out_path = FlagValue(argc, argv, "out", "");
  if (!out_path.empty()) {
    Status written = WriteFile(out_path, *encoded);
    if (!written.ok()) {
      return DiagError(written.ToString());
    }
  }
  if (HasFlag(argc, argv, "json")) {
    printf("%s", RemediationToJson(before, plan, &verification).c_str());
  } else {
    printf("object %s: %zu findings, %zu fixable%s\n", before.object_name.c_str(),
           before.findings.size(), plan.FixableCount(),
           before.against_dataset
               ? StrFormat(" (against %zu images)", before.against_images).c_str()
               : "");
    for (size_t i = 0; i < plan.items.size(); ++i) {
      const Finding& finding = before.findings[i];
      printf("  %s %s+%u: %s\n", FindingKindName(finding.kind),
             finding.program.c_str(), finding.insn_off, plan.items[i].Text().c_str());
    }
    printf("after fix: %zu findings (%zu of %zu targeted eliminated, %zu new)\n",
           after.findings.size(), verification.targeted - verification.targeted_remaining,
           verification.targeted, verification.new_findings);
    if (!out_path.empty()) {
      printf("wrote %s (%zu bytes)\n", out_path.c_str(), encoded->size());
    }
  }
  for (const DiagnosticEntry& entry : ledger.entries()) {
    fprintf(stderr, "note: %s\n", entry.ToString().c_str());
  }
  if (!verification.ok) {
    fprintf(stderr,
            "error: fix verification failed: %zu targeted findings remain, "
            "%zu new findings\n",
            verification.targeted_remaining, verification.new_findings);
    return 1;
  }
  return after.findings.empty() ? 0 : 2;
}

int CmdDataset(int argc, char** argv) {
  auto positional = Positional(argc, argv);
  if (positional.empty()) {
    return DiagError("dataset requires a subcommand: build | info");
  }
  if (positional[0] == "build") {
    std::string out = FlagValue(argc, argv, "out", "");
    if (positional.size() < 2 || out.empty()) {
      return DiagError("dataset build requires IMAGE... and --out=FILE");
    }
    Dataset dataset;
    for (size_t i = 1; i < positional.size(); ++i) {
      auto bytes = ReadFile(positional[i]);
      if (!bytes.ok()) {
        return DiagError(bytes.error().ToString());
      }
      auto surface = DependencySurface::Extract(bytes.TakeValue());
      if (!surface.ok()) {
        return DiagError(positional[i] + ": " + surface.error().ToString());
      }
      dataset.AddImage(positional[i], *surface);
      printf("distilled %s\n", positional[i].c_str());
    }
    std::vector<uint8_t> bytes = SaveDatasetV2(dataset);
    Status written = WriteFile(out, bytes);
    if (!written.ok()) {
      return DiagError(written.ToString());
    }
    printf("wrote %s (%zu images, %zu bytes)\n", out.c_str(), dataset.num_images(),
           bytes.size());
    return 0;
  }
  if (positional[0] == "info") {
    if (positional.size() < 2) {
      return DiagError("dataset info requires a FILE");
    }
    auto bytes = ReadFile(positional[1]);
    if (!bytes.ok()) {
      return DiagError(bytes.error().ToString());
    }
    auto dataset = LoadDatasetV2(*bytes);
    if (!dataset.ok()) {
      return DiagError(positional[1] + ": " + dataset.error().ToString());
    }
    printf("format v2: %zu images, %zu interned strings\n", dataset->num_images(),
           dataset->pool_size());
    for (const ImageRecord& image : dataset->images()) {
      printf("  %-28s v%d.%d %s/%s gcc%d: %zu funcs, %zu structs, %zu tracepoints, %zu syscalls\n",
             image.label.c_str(), image.meta.version_major, image.meta.version_minor,
             image.meta.arch.c_str(), image.meta.flavor.c_str(), image.meta.gcc_major,
             image.funcs.size(), image.structs.size(), image.tracepoints.size(),
             image.syscalls.size());
    }
    return 0;
  }
  return DiagError("unknown dataset subcommand " + positional[0] + " (build | info)");
}

// Dataset-as-a-service: open every --against dataset once (zero-copy
// mmap), then answer batched NDJSON dependency-set
// queries. --oneshot reads one batch from stdin and writes one response
// line per request to stdout, in request order. --socket=PATH listens on a
// unix stream socket instead: each connection is one batch (client writes
// request lines then shuts down its write side; the server responds and
// closes). --report-out=FILE writes a depsurf.serve_report.v1 summary.
int CmdServe(int argc, char** argv) {
  std::string against = FlagValue(argc, argv, "against", "");
  if (against.empty()) {
    return DiagError("serve requires --against=DATASET[,DATASET...]");
  }
  std::vector<std::string> paths;
  for (const std::string& path : SplitString(against, ',')) {
    if (!path.empty()) {
      paths.push_back(path);
    }
  }
  ServeOptions options;
  auto jobs = ParseJobsFlag(FlagValue(argc, argv, "jobs", ""));
  if (!jobs.ok()) {
    return DiagError("--jobs: " + jobs.error().message());
  }
  options.jobs = *jobs;
  auto capacity = ParseU64Flag(FlagValue(argc, argv, "cache-capacity", ""), 4096);
  if (!capacity.ok()) {
    return DiagError("--cache-capacity: " + capacity.error().message());
  }
  options.cache_capacity = static_cast<size_t>(*capacity);
  auto max_conns = ParseU64Flag(FlagValue(argc, argv, "max-connections", ""), 0);
  if (!max_conns.ok()) {
    return DiagError("--max-connections: " + max_conns.error().message());
  }
  std::string socket_path = FlagValue(argc, argv, "socket", "");
  const bool oneshot = HasFlag(argc, argv, "oneshot");
  if (oneshot == !socket_path.empty()) {
    return DiagError("serve requires exactly one of --oneshot or --socket=PATH");
  }

  auto engine = ServeEngine::Open(paths, options);
  if (!engine.ok()) {
    return DiagError(engine.error());
  }

  if (oneshot) {
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(std::cin, line)) {
      if (!line.empty()) {
        lines.push_back(line);
      }
    }
    for (const std::string& response : engine->HandleBatch(lines)) {
      printf("%s\n", response.c_str());
    }
  } else {
    Status served = ServeUnixSocket(*engine, socket_path, *max_conns, [&] {
      fprintf(stderr, "serving %zu dataset(s) on %s%s\n", engine->num_datasets(),
              socket_path.c_str(),
              *max_conns > 0
                  ? StrFormat(" (%llu connection(s))",
                              static_cast<unsigned long long>(*max_conns))
                        .c_str()
                  : "");
    });
    if (!served.ok()) {
      return DiagError(served.error().message());
    }
  }

  std::string report_out = FlagValue(argc, argv, "report-out", "");
  if (!report_out.empty()) {
    std::string report = engine->ReportJson();
    std::ofstream out(report_out, std::ios::binary);
    out.write(report.data(), static_cast<std::streamsize>(report.size()));
    if (!out) {
      return DiagError("cannot write " + report_out);
    }
    fprintf(stderr, "wrote %s (%s)\n", report_out.c_str(), kServeReportSchema);
  }
  fprintf(stderr,
          "served %llu request(s): %llu ok, %llu errors, cache %llu hit / %llu miss\n",
          static_cast<unsigned long long>(engine->requests()),
          static_cast<unsigned long long>(engine->ok_responses()),
          static_cast<unsigned long long>(engine->error_responses()),
          static_cast<unsigned long long>(engine->cache_hits()),
          static_cast<unsigned long long>(engine->cache_misses()));
  return 0;
}

int CmdProgs(Study& study) {
  for (const BpfObject& object : study.programs().objects) {
    printf("%s\n", object.name.c_str());
  }
  return 0;
}

int CmdEmit(int argc, char** argv, Study& study) {
  auto positional = Positional(argc, argv);
  std::string out = FlagValue(argc, argv, "out", "");
  if (positional.empty() || out.empty()) {
    return DiagError("emit requires PROGRAM and --out=FILE");
  }
  for (const BpfObject& object : study.programs().objects) {
    if (object.name == positional[0]) {
      auto bytes = WriteBpfObject(object);
      if (!bytes.ok()) {
        return DiagError(bytes.error().ToString());
      }
      Status written = WriteFile(out, *bytes);
      if (!written.ok()) {
        return DiagError(written.ToString());
      }
      printf("wrote %s (%zu bytes)\n", out.c_str(), bytes->size());
      return 0;
    }
  }
  return DiagError("no bundled program named " + positional[0] + " (see `depsurf progs`)");
}

constexpr char kUsage[] =
    "usage: depsurf COMMAND [options]\n"
    "  gen     --version=5.4 [--arch=A] [--flavor=F] [--scale=S] [--seed=N] --out=IMG\n"
    "  surface IMG [--func=NAME] [--json]\n"
    "  stats   IMG [--json]\n"
    "  diff    OLD NEW [--verbose]\n"
    "  check   OBJ [IMG...] [--dataset=FILE] (exit 2 when mismatches are found)\n"
    "  analyze OBJ [--against=DS[,DS...]] [--json] (exit 2 on findings, 1 if unreadable;\n"
    "          worst consequence across all datasets wins)\n"
    "  fix     OBJ [--against=DS[,DS...]] [--out=FILE] [--json]\n"
    "          (synthesize field_exists guards for unguarded relocs, verify by\n"
    "           re-analysis; exit 0 clean, 2 unfixable findings remain, 1 error)\n"
    "  dataset build IMG... --out=FILE | dataset info FILE\n"
    "  serve   --against=DS[,DS...] (--oneshot | --socket=PATH) [--jobs=N]\n"
    "          [--cache-capacity=N] [--max-connections=N] [--report-out=FILE]\n"
    "          (batched NDJSON dependency-set queries; one response line per\n"
    "           request, byte-identical at any --jobs)\n"
    "  progs\n"
    "  emit    PROGRAM --out=OBJ\n"
    "  doctor  IMG [--sweep=N] [--seed=S] [--mutation-timeout=SECS] [--json]\n"
    "          (exit 2 when the image needed salvage, 1 when unreadable\n"
    "           or a sweep mutation timed out)\n"
    "  fuzz    SEED... [--rounds=N] [--seed=S] [--corpus-dir=DIR]\n"
    "          [--mutation-timeout=SECS] [--max-ledger=N] [--json]\n"
    "          (coverage-guided campaign; exit 2 on oracle disagreements,\n"
    "           1 on hangs)\n"
    "  metrics lint FILE [--kind=report|agg|bench|perf|trace|diag|analysis\n"
    "          |remediation|profile|fuzz|serve] [--min-spans=N]\n"
    "          [--require=a,b,c] [--report=FILE] | metrics canon FILE\n"
    "  report  merge OUT IN... | report flame REPORT.json [--out=FILE]\n"
    "  perf    compare BASE.json HEAD.json [--max-regress=15%] [--noise-floor=S]\n"
    "          [--json] (exit 3 when a stage regressed beyond the threshold)\n"
    "  profile RUN_REPORT.json | PROFILE.json | profile --live [study flags]\n"
    "          [--json] [--out=PROFILE.json] [--folded-out=FLAME.folded]\n"
    "  study   build [--versions=5.4,6.8] [--arch=A] [--flavor=F] [--scale=S] [--seed=N]\n"
    "          [--out=DATASET] [--report-dir=DIR] [--profile-out=FILE] [--jobs=N]\n"
    "          [--strict] [--poison=LABEL]\n"
    "global options: --metrics-out=FILE  --trace-out=FILE  --trace\n";

int Dispatch(int argc, char** argv, const std::string& command) {
  if (command == "gen") {
    return CmdGen(argc, argv);
  }
  if (command == "surface") {
    return CmdSurface(argc, argv);
  }
  if (command == "stats") {
    return CmdStats(argc, argv);
  }
  if (command == "doctor") {
    return CmdDoctor(argc, argv);
  }
  if (command == "fuzz") {
    return CmdFuzz(argc, argv);
  }
  if (command == "diff") {
    return CmdDiff(argc, argv);
  }
  if (command == "check") {
    return CmdCheck(argc, argv);
  }
  if (command == "analyze") {
    return CmdAnalyze(argc, argv);
  }
  if (command == "fix") {
    return CmdFix(argc, argv);
  }
  if (command == "dataset") {
    return CmdDataset(argc, argv);
  }
  if (command == "serve") {
    return CmdServe(argc, argv);
  }
  if (command == "metrics") {
    return CmdMetrics(argc, argv);
  }
  if (command == "report") {
    return CmdReport(argc, argv);
  }
  if (command == "perf") {
    return CmdPerf(argc, argv);
  }
  if (command == "profile") {
    return CmdProfile(argc, argv);
  }
  if (command == "study") {
    return CmdStudy(argc, argv);
  }
  if (command == "progs" || command == "emit") {
    auto options = StudyOptions::Parse(argc, argv, /*default_scale=*/0.05);
    if (!options.ok()) {
      return DiagError(options.error());
    }
    Study study(options.TakeValue());
    return command == "progs" ? CmdProgs(study) : CmdEmit(argc, argv, study);
  }
  fputs(kUsage, stderr);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    fputs(kUsage, stderr);
    return 1;
  }
  if (HasFlag(argc, argv, "trace")) {
    obs::SpanCollector::Global().SetLiveTrace(true);
  }
  int code = Dispatch(argc, argv, argv[1]);
  std::string trace_out = FlagValue(argc, argv, "trace-out", "");
  if (!trace_out.empty()) {
    Status written = obs::WriteGlobalTrace(trace_out);
    if (!written.ok()) {
      obs::Diag(obs::Severity::kError, "trace not written", written.error());
      if (code == 0) {
        code = 1;
      }
    }
  }
  std::string metrics_out = FlagValue(argc, argv, "metrics-out", "");
  if (!metrics_out.empty()) {
    // Preserve the command's exit code (check uses 2 for "mismatches
    // found"); a report that cannot be written is its own failure.
    Status written = obs::WriteGlobalRunReport(metrics_out);
    if (!written.ok()) {
      obs::Diag(obs::Severity::kError, "metrics report not written", written.error());
      if (code == 0) {
        code = 1;
      }
    }
  }
  return code;
}
