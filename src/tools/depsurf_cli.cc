// depsurf: command-line interface to the analysis library. Run it with no
// arguments for the usage, generated from the command table at the end of
// this file: each command declares its arguments and flags there once, and
// rejects anything it does not declare.
//
// Every command accepts --metrics-out=FILE (write a depsurf.run_report.v1
// JSON document on exit), --trace-out=FILE (write a Chrome/Perfetto
// trace_event timeline of the span tree, for ui.perfetto.dev), and --trace
// (stream spans to stderr as they close).
//
// Images and objects are ordinary files; `gen`/`emit` exist because this
// reproduction generates its corpus instead of downloading Ubuntu dbgsym
// packages (see DESIGN.md).
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <map>

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

// How a flag's value is read. kBool flags are bare (`--json`); every other
// kind is given as `--name=value`.
enum class Kind : uint8_t {
  kBool,
  kString,
  kU64,      // ParseUnsigned
  kJobs,     // executor width: 0 (auto) through 256
  kSeconds,  // a nonnegative number of seconds
  kRatio,    // "15%", "15" or "0.15"
  kScale,    // StudyOptions::ParseScale
  kEnum,     // one of Flag::choices
};

struct Flag {
  const char* name;
  Kind kind = Kind::kBool;
  // The value when the flag is absent, read like a given one; empty means
  // zero, "" or false.
  const char* fallback = "";
  const char* meta = "";  // usage placeholder for the value, e.g. "FILE"
  const std::vector<std::string>* choices = nullptr;  // kEnum only
};

// One flag's value, given or fallback. A kEnum value also keeps its index
// into the choices in `number`.
struct Value {
  bool given = false;
  std::string text;
  uint64_t number = 0;
  double real = 0;
};

// What a handler receives: its positionals, and the value of every flag its
// table entry declares.
struct Args {
  std::vector<std::string> pos;
  std::map<std::string, Value> values;

  bool Has(const std::string& flag) const { return values.at(flag).given; }
  const std::string& Str(const std::string& flag) const { return values.at(flag).text; }
  uint64_t Num(const std::string& flag) const { return values.at(flag).number; }
  double Real(const std::string& flag) const { return values.at(flag).real; }
};

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

// The items of a comma-separated flag value (--against, --versions,
// --require), or of another `sep`-separated list; empty items are dropped.
std::vector<std::string> SplitList(const std::string& text, char sep = ',') {
  std::vector<std::string> items = SplitString(text, sep);
  items.erase(std::remove(items.begin(), items.end(), ""), items.end());
  return items;
}

// The first of `flags` given on the command line, or nullptr: handlers
// refuse a flag that the mode they were asked for would ignore.
const char* FirstGiven(const Args& args, std::initializer_list<const char*> flags) {
  for (const char* flag : flags) {
    if (args.Has(flag)) {
      return flag;
    }
  }
  return nullptr;
}

// Loads every dataset --against names into `datasets` (sized up front, so
// the pointers `opts` gets stay valid).
Status LoadAgainst(const Args& args, std::vector<Dataset>* datasets, AnalyzeOptions* opts) {
  std::vector<std::string> paths = SplitList(args.Str("against"));
  datasets->reserve(paths.size());
  for (const std::string& path : paths) {
    auto bytes = ReadFile(path);
    if (!bytes.ok()) {
      return bytes.TakeError();
    }
    auto loaded = LoadDatasetV2(*bytes);
    if (!loaded.ok()) {
      return loaded.TakeError().Wrap(path);
    }
    datasets->push_back(loaded.TakeValue());
    opts->against_all.push_back(&datasets->back());
  }
  return Status::Ok();
}

// --jobs=N executor-window width: 0 (auto) through 256, strictly parsed.
// The old atoi path read "--jobs=abc" as 0 and silently went auto-wide.
Result<uint64_t> ParseJobs(const std::string& text) {
  auto value = ParseUnsigned(text);
  if (value.ok() && *value > 256) {
    return Error(ErrorCode::kInvalidArgument,
                 "\"" + text + "\" is out of range (0 = auto, max 256)");
  }
  return value;
}

// Accepts "15%", "15", or "0.15" — all meaning a 15% threshold. Anything
// non-numeric is an error: the old atof path read "--max-regress=abc" as 0
// and turned the gate into a tripwire on pure noise.
Result<double> ParseRatio(const std::string& text) {
  bool percent = !text.empty() && text.back() == '%';
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

// A nonnegative seconds value; anything that does not fully parse as a
// finite number is an error.
Result<double> ParseSeconds(const std::string& text) {
  char* end = nullptr;
  double value = strtod(text.c_str(), &end);
  if (text.empty() || *end != '\0' || !std::isfinite(value) || value < 0) {
    return Error(ErrorCode::kInvalidArgument,
                 "\"" + text + "\" is not a nonnegative number of seconds");
  }
  return value;
}

// Reads `text` into `value` by `flag`'s kind. Errors name the flag.
Status ParseValue(const Flag& flag, const std::string& text, Value* value) {
  Result<uint64_t> number = uint64_t{0};
  Result<double> real = 0.0;
  switch (flag.kind) {
    case Kind::kBool: break;
    case Kind::kString: value->text = text; break;
    case Kind::kEnum: {
      auto it = std::find(flag.choices->begin(), flag.choices->end(), text);
      if (it == flag.choices->end()) {
        return Status(ErrorCode::kInvalidArgument,
                      StrFormat("unknown --%s=%s (valid %ss: %s)", flag.name, text.c_str(),
                                flag.name, JoinStrings(*flag.choices, "|").c_str()));
      }
      value->text = text;
      number = static_cast<uint64_t>(it - flag.choices->begin());
      break;
    }
    case Kind::kU64: number = ParseUnsigned(text); break;
    case Kind::kJobs: number = ParseJobs(text); break;
    case Kind::kSeconds: real = ParseSeconds(text); break;
    case Kind::kRatio: real = ParseRatio(text); break;
    case Kind::kScale: real = StudyOptions::ParseScale(text); break;
  }
  if (!number.ok()) {
    return number.TakeError().Wrap(std::string("--") + flag.name);
  }
  if (!real.ok()) {
    return real.TakeError().Wrap(std::string("--") + flag.name);
  }
  value->number = *number;
  value->real = *real;
  return Status::Ok();
}

StudyOptions StudyOptionsFrom(const Args& args) {
  return StudyOptions{args.Num("seed"), args.Real("scale")};
}

int CmdGen(const Args& args) {
  auto version = KernelVersion::Parse(args.Str("version"));
  if (!version.ok()) {
    return DiagError(version.error().ToString());
  }
  const std::string& out = args.Str("out");
  if (out.empty()) {
    return DiagError("gen requires --out=FILE");
  }
  BuildSpec build =
      MakeBuild(*version, kAllArches[args.Num("arch")], kAllFlavors[args.Num("flavor")]);
  Study study(StudyOptionsFrom(args));
  auto bytes = study.BuildImage(build);
  if (!bytes.ok()) {
    return DiagError(bytes.error().ToString());
  }
  Status written = WriteFile(out, *bytes);
  if (!written.ok()) {
    return DiagError(written.ToString());
  }
  printf("wrote %s (%zu bytes, %s)\n", out.c_str(), bytes->size(), build.Label().c_str());
  return 0;
}

int CmdSurface(const Args& args) {
  auto bytes = ReadFile(args.pos[0]);
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
  for (const FunctionEntry& entry : surface->functions()) {
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

  const std::string& func = args.Str("func");
  if (!func.empty()) {
    const FunctionEntry* entry = surface->FindFunction(func);
    if (entry == nullptr) {
      return DiagError("no function named " + func + " on this surface");
    }
    if (args.Has("json")) {
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
        printf("  instance at %.*s:%u (%s)\n", static_cast<int>(inst.decl_file.size()),
               inst.decl_file.data(), inst.decl_line, inst.HasCode() ? "has code" : "no code");
        for (std::string_view caller : inst.caller_inline) {
          printf("    inlined into %.*s\n", static_cast<int>(caller.size()), caller.data());
        }
        for (std::string_view caller : inst.caller_func) {
          printf("    called from  %.*s\n", static_cast<int>(caller.size()), caller.data());
        }
      }
    }
  }
  return 0;
}

// Decodes an image end to end (ELF, BTF, DWARF, surface extraction) and
// prints the metrics the pipeline collected along the way. The JSON form is
// the same document --metrics-out writes.
int CmdStats(const Args& args) {
  auto bytes = ReadFile(args.pos[0]);
  if (!bytes.ok()) {
    return DiagError(bytes.error());
  }
  auto surface = DependencySurface::Extract(bytes.TakeValue());
  if (!surface.ok()) {
    return DiagError(args.pos[0], surface.error());
  }
  if (args.Has("json")) {
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
int CmdDoctor(const Args& args) {
  const std::string& image = args.pos[0];
  auto bytes = ReadFile(image);
  if (!bytes.ok()) {
    return DiagError(bytes.error());
  }
  const bool json = args.Has("json");
  const uint64_t sweep = args.Num("sweep");
  const uint64_t seed = args.Num("seed");
  const double timeout = args.Real("mutation-timeout");
  const uint64_t budget_ms = static_cast<uint64_t>(timeout * 1000.0);

  if (sweep == 0) {
    auto surface = DependencySurface::Extract(*bytes);
    if (!surface.ok()) {
      if (json) {
        printf("%s", DiagnosticsDocJson(image, SurfaceHealth{}, &surface.error()).c_str());
      } else {
        printf("%s: unreadable (%s)\n", image.c_str(), surface.error().ToString().c_str());
      }
      return 1;
    }
    const SurfaceHealth& health = surface->health();
    if (json) {
      printf("%s", DiagnosticsDocJson(image, health, nullptr).c_str());
    } else {
      printf("%s: %s\n", image.c_str(), health.Summary().c_str());
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
                          static_cast<unsigned long long>(i), timeout, what.c_str()));
    }
  }
  printf("sweep: %llu mutations over %s: %zu clean, %zu salvaged, %zu fatal, "
         "%zu timed out, 0 crashes\n",
         static_cast<unsigned long long>(sweep), image.c_str(), clean, salvaged, fatal,
         timed_out);
  return timed_out > 0 ? 1 : 0;
}

// Coverage-guided fault fuzzing over seed images or eBPF objects
// (src/fuzz): mutate, extract under salvage mode, keep candidates whose
// diagnostic signature is novel, cross-check every candidate against the
// salvage-vs-strict oracle. Exit codes: 0 clean campaign, 2 oracle
// disagreements, 1 hangs or infrastructure failure. Deterministic in
// (--seed, seed files): two runs emit byte-identical JSON and corpora.
int CmdFuzz(const Args& args) {
  FuzzOptions options;
  options.rounds = args.Num("rounds");
  options.seed = args.Num("seed");
  options.time_budget_ms = static_cast<uint64_t>(args.Real("mutation-timeout") * 1000.0);
  options.max_ledger_entries = static_cast<size_t>(args.Num("max-ledger"));

  std::vector<FuzzSeed> seeds;
  for (const std::string& path : args.pos) {
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
  const std::string& corpus_dir = args.Str("corpus-dir");
  if (!corpus_dir.empty()) {
    auto written = WriteFuzzCorpus(*campaign, corpus_dir);
    if (!written.ok()) {
      return DiagError(written.error());
    }
  }
  if (args.Has("json")) {
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

// metrics lint --kind=K: the validator and schema name of each kind.
// `report` and `trace` read extra flags and print more, so CmdMetricsLint
// validates those two itself.
struct LintKind {
  const char* kind;
  Status (*validate)(std::string_view json);
  const char* schema;
};

constexpr LintKind kLintKinds[] = {
    {"report", nullptr, obs::kRunReportSchema},
    {"agg", obs::ValidateAggReport, obs::kRunReportAggSchema},
    {"bench", obs::ValidateBenchReport, obs::kBenchReportSchema},
    {"perf", obs::ValidatePerfCompare, obs::kPerfCompareSchema},
    {"trace", nullptr, "trace_event JSON"},
    {"diag", obs::ValidateDiagnosticsDoc, obs::kDiagnosticsSchema},
    {"analysis", obs::ValidateAnalysisDoc, kAnalysisSchema},
    {"remediation", obs::ValidateRemediationDoc, kRemediationSchema},
    {"profile", obs::ValidateProfileDoc, obs::kProfileSchema},
    {"fuzz", obs::ValidateFuzzCampaignDoc, kFuzzCampaignSchema},
    {"serve", obs::ValidateServeReportDoc, kServeReportSchema},
};

// Validates an observability JSON file as the document --kind names.
int CmdMetricsLint(const Args& args) {
  const LintKind& lint = kLintKinds[args.Num("kind")];
  const std::string& kind = args.Str("kind");
  const char* report_flag = FirstGiven(args, {"min-spans", "require"});
  if (kind != "report" && report_flag != nullptr) {
    return DiagError(StrFormat("metrics lint: --%s applies only to --kind=report", report_flag));
  }
  if (kind != "trace" && args.Has("report")) {
    return DiagError("metrics lint: --report applies only to --kind=trace");
  }
  const std::string& path = args.pos[0];
  auto bytes = ReadFile(path);
  if (!bytes.ok()) {
    return DiagError(bytes.error());
  }
  std::string text(bytes->begin(), bytes->end());
  if (kind == "trace") {
    auto json = obs::ParseJson(text);
    if (!json.ok()) {
      return DiagError(path, json.error());
    }
    int64_t expect_events = -1;
    const std::string& report_path = args.Str("report");
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
      return DiagError(path, valid.error());
    }
    printf("%s: valid trace_event JSON (%zu events)\n", path.c_str(),
           json->Find("traceEvents")->array.size());
    return 0;
  }
  Status valid = kind == "report" ? obs::ValidateRunReport(text, args.Num("min-spans"),
                                                          SplitList(args.Str("require")))
                                   : lint.validate(text);
  if (!valid.ok()) {
    return DiagError(path, valid.error());
  }
  std::string detail;
  if (kind == "report") {
    detail = StrFormat(" (%zu distinct spans)",
                       obs::CollectSpanNames(*obs::ParseJson(text)).size());
  }
  printf("%s: valid %s%s\n", path.c_str(), lint.schema, detail.c_str());
  return 0;
}

// Re-emits any observability document in compact form with timing fields
// masked, so two runs over the same inputs can be compared byte for byte.
int CmdMetricsCanon(const Args& args) {
  auto bytes = ReadFile(args.pos[0]);
  if (!bytes.ok()) {
    return DiagError(bytes.error());
  }
  auto json = obs::ParseJson(std::string(bytes->begin(), bytes->end()));
  if (!json.ok()) {
    return DiagError(args.pos[0], json.error());
  }
  printf("%s\n", obs::CanonicalMaskedJson(*json).c_str());
  return 0;
}

// Merges run reports (per-image documents from a study build, or prior
// aggregates) into one depsurf.run_report_agg.v1 file.
int CmdReportMerge(const Args& args) {
  const std::string& out_path = args.pos[0];
  std::vector<obs::LabeledReport> reports;
  for (size_t i = 1; i < args.pos.size(); ++i) {
    auto bytes = ReadFile(args.pos[i]);
    if (!bytes.ok()) {
      return DiagError(bytes.error());
    }
    reports.push_back(
        obs::LabeledReport{args.pos[i], std::string(bytes->begin(), bytes->end())});
  }
  auto merged = obs::MergeRunReports(reports);
  if (!merged.ok()) {
    return DiagError(merged.error());
  }
  std::ofstream out(out_path, std::ios::binary);
  if (!out) {
    return DiagError("cannot write " + out_path);
  }
  out.write(merged->data(), static_cast<std::streamsize>(merged->size()));
  if (!out) {
    return DiagError("short write to " + out_path);
  }
  printf("wrote %s (%zu input reports, %zu bytes)\n", out_path.c_str(), reports.size(),
         merged->size());
  return 0;
}

// The perf regression gate: exit 0 when no stage regressed beyond the
// threshold, 3 when one did (1 stays "could not compare at all").
int CmdPerfCompare(const Args& args) {
  obs::PerfGateOptions options;
  options.max_regress = args.Real("max-regress");
  options.noise_floor_seconds = args.Real("noise-floor");
  std::vector<std::vector<obs::StageTiming>> sides;
  for (const std::string& path : args.pos) {
    auto bytes = ReadFile(path);
    if (!bytes.ok()) {
      return DiagError(bytes.error());
    }
    auto json = obs::ParseJson(std::string(bytes->begin(), bytes->end()));
    if (!json.ok()) {
      return DiagError(path, json.error());
    }
    auto timings = obs::LoadStageTimings(*json);
    if (!timings.ok()) {
      return DiagError(path, timings.error());
    }
    sides.push_back(timings.TakeValue());
  }
  obs::PerfComparison comparison = obs::ComparePerf(sides[0], sides[1], options);
  if (args.Has("json")) {
    printf("%s", obs::PerfComparisonJson(comparison, options).c_str());
  } else {
    printf("%s", obs::PerfComparisonText(comparison).c_str());
  }
  return comparison.gate_failed() ? 3 : 0;
}

// --versions/--arch/--flavor into a build corpus (empty --versions means
// the bundled LTS set).
Result<std::vector<BuildSpec>> CorpusFromArgs(const Args& args) {
  const Arch arch = kAllArches[args.Num("arch")];
  const Flavor flavor = kAllFlavors[args.Num("flavor")];
  std::vector<BuildSpec> corpus;
  const std::string& versions = args.Str("versions");
  if (versions.empty()) {
    for (KernelVersion version : kLtsVersions) {
      corpus.push_back(MakeBuild(version, arch, flavor));
    }
  } else {
    for (const std::string& text : SplitList(versions)) {
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

// Refuses output locations a build could not write before any image work:
// --out's directory must exist, and --report-dir must be a directory.
Status CheckOutputLocations(const std::string& out, const std::string& report_dir) {
  std::error_code ec;
  const std::filesystem::path out_dir = std::filesystem::path(out).parent_path();
  if (!out_dir.empty() && !std::filesystem::is_directory(out_dir, ec)) {
    return Status(ErrorCode::kNotFound,
                  "--out=" + out + ": " + out_dir.string() + " is not a directory");
  }
  if (!report_dir.empty() && !std::filesystem::is_directory(report_dir, ec)) {
    return Status(ErrorCode::kNotFound, "--report-dir=" + report_dir + " is not a directory");
  }
  return Status::Ok();
}

// Corpus builds from the CLI: generate + extract + distill a whole version
// corpus, optionally writing per-image run reports and their aggregate.
int CmdStudyBuild(const Args& args) {
  auto corpus_or = CorpusFromArgs(args);
  if (!corpus_or.ok()) {
    return DiagError("study build: " + corpus_or.error().message());
  }
  std::vector<BuildSpec> corpus = corpus_or.TakeValue();
  const std::string& out = args.Str("out");
  const std::string& report_dir = args.Str("report-dir");
  Status writable = CheckOutputLocations(out, report_dir);
  if (!writable.ok()) {
    return DiagError(writable.error());
  }
  Study study(StudyOptionsFrom(args));
  // Failure policy: by default an image whose extraction dies outright is
  // quarantined and the build goes on; --strict aborts the whole build.
  BuildPolicy policy;
  policy.keep_going = !args.Has("strict");
  policy.jobs = static_cast<int>(args.Num("jobs"));
  // --poison=LABEL (testing aid): truncate the named image below the ELF
  // header before extraction, guaranteeing a fatal failure on exactly that
  // image so the quarantine path can be demonstrated end to end.
  const std::string& poison = args.Str("poison");
  if (!poison.empty()) {
    std::vector<std::string> labels;
    for (const BuildSpec& build : corpus) {
      labels.push_back(build.Label());
    }
    if (std::find(labels.begin(), labels.end(), poison) == labels.end()) {
      return DiagError("--poison: no image in this corpus is labelled " + poison + " (" +
                       JoinStrings(labels, ", ") + ")");
    }
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
  DatasetReportFiles files;
  std::vector<QuarantinedImage> quarantined;
  auto dataset = BuildDatasetFromImages(study.ImageSources(corpus), policy, progress,
                                        &quarantined, report_dir, &files);
  if (!dataset.ok()) {
    return DiagError(dataset.error());
  }
  for (const QuarantinedImage& image : quarantined) {
    printf("quarantined %s: %s\n", image.label.c_str(), image.error.ToString().c_str());
  }
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
  const std::string& profile_out = args.Str("profile-out");
  if (!profile_out.empty()) {
    obs::Profile profile;
    if (!report_dir.empty()) {
      // Report mode collects each image's spans in its own context; the
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
// --report-dir`, or a saved depsurf.profile.v1 document to re-render
// (`study build --profile-out` saves one of the build it runs).
int CmdProfile(const Args& args) {
  const std::string& path = args.pos[0];
  auto bytes = ReadFile(path);
  if (!bytes.ok()) {
    return DiagError(bytes.error());
  }
  std::string text(bytes->begin(), bytes->end());
  auto doc = obs::ParseJson(text);
  if (!doc.ok()) {
    return DiagError(path, doc.error());
  }
  const obs::JsonValue* schema = doc->Find("schema");
  const bool saved = schema != nullptr && schema->string == obs::kProfileSchema;
  // A saved profile keeps per-name aggregates, not the span forest.
  if (saved && !args.Str("folded-out").empty()) {
    return DiagError(StrFormat("--folded-out: %s has no span stacks (%s documents "
                               "keep per-name totals only)",
                               path.c_str(), obs::kProfileSchema));
  }
  auto parsed = saved ? obs::ParseProfileDoc(text) : obs::ProfileFromReportJson(text);
  if (!parsed.ok()) {
    return DiagError(path, parsed.error());
  }
  const obs::Profile profile = parsed.TakeValue();
  std::string folded;
  if (!saved) {
    auto folded_or = obs::FoldedStacksFromReportJson(text);
    if (folded_or.ok()) {
      folded = folded_or.TakeValue();
    }
  }
  const std::string& out_path = args.Str("out");
  if (!out_path.empty()) {
    std::string json = obs::ProfileJson(profile);
    std::ofstream out(out_path, std::ios::binary);
    out.write(json.data(), static_cast<std::streamsize>(json.size()));
    if (!out) {
      return DiagError("cannot write " + out_path);
    }
    printf("wrote %s (%s)\n", out_path.c_str(), obs::kProfileSchema);
  }
  const std::string& folded_path = args.Str("folded-out");
  if (!folded_path.empty()) {
    std::ofstream out(folded_path, std::ios::binary);
    out.write(folded.data(), static_cast<std::streamsize>(folded.size()));
    if (!out) {
      return DiagError("cannot write " + folded_path);
    }
    printf("wrote %s (%zu bytes folded stacks)\n", folded_path.c_str(), folded.size());
  }
  if (args.Has("json")) {
    printf("%s", obs::ProfileJson(profile).c_str());
  } else if (out_path.empty() && folded_path.empty()) {
    printf("%s", obs::ProfileText(profile).c_str());
  }
  return 0;
}

int CmdDiff(const Args& args) {
  auto old_bytes = ReadFile(args.pos[0]);
  auto new_bytes = ReadFile(args.pos[1]);
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
  if (args.Has("verbose")) {
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

int CmdCheck(const Args& args) {
  const std::vector<std::string>& positional = args.pos;
  const std::string& dataset_path = args.Str("dataset");
  if (positional.size() < 2 && dataset_path.empty()) {
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
int CmdAnalyze(const Args& args) {
  const std::string& path = args.pos[0];
  auto bytes = ReadFile(path);
  if (!bytes.ok()) {
    return DiagError(bytes.error());
  }
  DiagnosticLedger ledger;
  auto object = ParseBpfObject(bytes.TakeValue(), &ledger);
  if (!object.ok()) {
    return DiagError(path + ": " + object.error().ToString());
  }
  std::vector<Dataset> datasets;
  AnalyzeOptions opts;
  if (Status loaded = LoadAgainst(args, &datasets, &opts); !loaded.ok()) {
    return DiagError(loaded.error());
  }
  ObjectAnalysis analysis = AnalyzeObject(*object, opts);
  if (args.Has("json")) {
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
int CmdFix(const Args& args) {
  const std::string& path = args.pos[0];
  auto bytes = ReadFile(path);
  if (!bytes.ok()) {
    return DiagError(bytes.error());
  }
  DiagnosticLedger ledger;
  auto object = ParseBpfObject(bytes.TakeValue(), &ledger);
  if (!object.ok()) {
    return DiagError(path + ": " + object.error().ToString());
  }
  std::vector<Dataset> datasets;
  AnalyzeOptions opts;
  if (Status loaded = LoadAgainst(args, &datasets, &opts); !loaded.ok()) {
    return DiagError(loaded.error());
  }

  ObjectAnalysis before = AnalyzeObject(*object, opts);
  RemediationPlan plan = PlanRemediation(*object, before, opts);

  BpfObject fixed = *object;
  Status applied = InsertFieldExistsGuards(fixed, plan.Insertions(), &ledger);
  if (!applied.ok()) {
    for (const DiagnosticEntry& entry : ledger.entries()) {
      fprintf(stderr, "note: %s\n", entry.ToString().c_str());
    }
    return DiagError(path + ": " + applied.error().ToString());
  }

  // The fixed object must round-trip through the salvaging decoder and
  // re-analyze with every targeted finding gone and nothing new.
  auto encoded = WriteBpfObject(fixed);
  if (!encoded.ok()) {
    return DiagError(path + ": fixed object does not encode: " + encoded.error().ToString());
  }
  DiagnosticLedger reparse_ledger;
  auto reparsed = ParseBpfObject(*encoded, &reparse_ledger);
  if (!reparsed.ok()) {
    return DiagError(path + ": fixed object does not re-parse: " +
                     reparsed.error().ToString());
  }
  ledger.Merge(reparse_ledger);
  ObjectAnalysis after = AnalyzeObject(*reparsed, opts);
  RemediationVerification verification = VerifyRemediation(before, plan, after);

  const std::string& out_path = args.Str("out");
  if (!out_path.empty()) {
    Status written = WriteFile(out_path, *encoded);
    if (!written.ok()) {
      return DiagError(written.ToString());
    }
  }
  if (args.Has("json")) {
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

// Distills image files into a dataset on the build window, in argument
// order, labelled by path. The build is strict: the first file that cannot
// be read or extracted stops it, and no dataset is written.
int CmdDatasetBuild(const Args& args) {
  const std::string& out = args.Str("out");
  if (out.empty()) {
    return DiagError("dataset build requires IMAGE... and --out=FILE");
  }
  Status writable = CheckOutputLocations(out, "");
  if (!writable.ok()) {
    return DiagError(writable.error());
  }
  std::vector<ImageSource> images;
  for (const std::string& path : args.pos) {
    images.push_back(ImageSource{path, [path] { return ReadFile(path); }});
  }
  BuildPolicy strict;
  strict.keep_going = false;
  std::vector<QuarantinedImage> failed;
  auto dataset = BuildDatasetFromImages(
      images, strict,
      [](const ImageProgress& image) { printf("distilled %s\n", image.label.c_str()); },
      &failed);
  if (!dataset.ok()) {
    // A read error names its file already; an extraction error gets the path.
    if (failed.empty()) {
      return DiagError(dataset.error());
    }
    const QuarantinedImage& image = failed.back();
    return image.load_failed ? DiagError(image.error) : DiagError(image.label, image.error);
  }
  std::vector<uint8_t> bytes = SaveDatasetV2(*dataset);
  Status written = WriteFile(out, bytes);
  if (!written.ok()) {
    return DiagError(written.ToString());
  }
  printf("wrote %s (%zu images, %zu bytes)\n", out.c_str(), dataset->num_images(), bytes.size());
  return 0;
}

int CmdDatasetInfo(const Args& args) {
  auto bytes = ReadFile(args.pos[0]);
  if (!bytes.ok()) {
    return DiagError(bytes.error().ToString());
  }
  auto dataset = LoadDatasetV2(*bytes);
  if (!dataset.ok()) {
    return DiagError(args.pos[0] + ": " + dataset.error().ToString());
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

// Dataset-as-a-service: open every --against dataset once (zero-copy
// mmap), then answer batched NDJSON dependency-set
// queries. --oneshot reads one batch from stdin and writes one response
// line per request to stdout, in request order. --socket=PATH listens on a
// unix stream socket instead: each connection is one batch (client writes
// request lines then shuts down its write side; the server responds and
// closes). --report-out=FILE writes a depsurf.serve_report.v1 summary.
int CmdServe(const Args& args) {
  if (args.Str("against").empty()) {
    return DiagError("serve requires --against=DATASET[,DATASET...]");
  }
  ServeOptions options;
  options.jobs = static_cast<int>(args.Num("jobs"));
  options.cache_capacity = static_cast<size_t>(args.Num("cache-capacity"));
  const uint64_t max_conns = args.Num("max-connections");
  const std::string& socket_path = args.Str("socket");
  const bool oneshot = args.Has("oneshot");
  if (oneshot == !socket_path.empty()) {
    return DiagError("serve requires exactly one of --oneshot or --socket=PATH");
  }
  if (oneshot && args.Has("max-connections")) {
    return DiagError("serve: --max-connections applies only to --socket");
  }

  auto engine = ServeEngine::Open(SplitList(args.Str("against")), options);
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
    Status served = ServeUnixSocket(*engine, socket_path, max_conns, [&] {
      fprintf(stderr, "serving %zu dataset(s) on %s%s\n", engine->num_datasets(),
              socket_path.c_str(),
              max_conns > 0
                  ? StrFormat(" (%llu connection(s))", static_cast<unsigned long long>(max_conns))
                        .c_str()
                  : "");
    });
    if (!served.ok()) {
      return DiagError(served.error().message());
    }
  }

  const std::string& report_out = args.Str("report-out");
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

int CmdProgs(const Args& args) {
  Study study(StudyOptionsFrom(args));
  for (const BpfObject& object : study.programs().objects) {
    printf("%s\n", object.name.c_str());
  }
  return 0;
}

int CmdEmit(const Args& args) {
  const std::string& out = args.Str("out");
  if (out.empty()) {
    return DiagError("emit requires PROGRAM and --out=FILE");
  }
  Study study(StudyOptionsFrom(args));
  for (const BpfObject& object : study.programs().objects) {
    if (object.name == args.pos[0]) {
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
  return DiagError("no bundled program named " + args.pos[0] + " (see `depsurf progs`)");
}

// ---- The command table ---------------------------------------------------

// The --arch, --flavor and --kind choices, in the order of the arrays the
// handlers index with a kEnum value.
template <typename T, size_t N, typename NameFn>
std::vector<std::string> Names(const T (&items)[N], NameFn name) {
  std::vector<std::string> names;
  for (const T& item : items) {
    names.push_back(name(item));
  }
  return names;
}

const std::vector<std::string> kArchNames = Names(kAllArches, ArchName);
const std::vector<std::string> kFlavorNames = Names(kAllFlavors, FlavorName);
const std::vector<std::string> kLintKindNames =
    Names(kLintKinds, [](const LintKind& lint) { return lint.kind; });

// Flags several commands declare alike.
const Flag kJson{"json"};
const Flag kSeed{"seed", Kind::kU64, "2025"};
const Flag kJobs{"jobs", Kind::kJobs};
const Flag kAgainst{"against", Kind::kString, "", "DS[,DS...]"};
const Flag kArch{"arch", Kind::kEnum, "x86", "", &kArchNames};
const Flag kFlavor{"flavor", Kind::kEnum, "generic", "", &kFlavorNames};

// Accepted by every command.
const Flag kGlobalFlags[] = {
    {"metrics-out", Kind::kString, "", "FILE"},
    {"trace-out", Kind::kString, "", "FILE"},
    {"trace"},
};

struct Command {
  const char* name;  // "gen", or "dataset build" for a subcommand
  // Positionals, one word each: "[X]" is optional, "X..." any number.
  const char* args;
  std::vector<Flag> flags;
  int (*run)(const Args& args);
  const char* note;  // the rest of the usage line
};

const Command kCommands[] = {
    {"gen", "",
     {{"version", Kind::kString, "5.4"}, kArch, kFlavor, {"scale", Kind::kScale, "1.0"}, kSeed,
      {"out", Kind::kString, "", "IMG"}},
     CmdGen, "generate a kernel image"},
    {"surface", "IMG", {{"func", Kind::kString, "", "NAME"}, kJson}, CmdSurface,
     "inspect a dependency surface"},
    {"stats", "IMG", {kJson}, CmdStats, "decode an image, report pipeline metrics"},
    {"diff", "OLD NEW", {{"verbose"}}, CmdDiff, "diff two images (Table 3/4 style)"},
    {"check", "OBJ [IMG...]", {{"dataset", Kind::kString, "", "FILE"}}, CmdCheck,
     "report mismatches against IMG... or --dataset (exit 2 when mismatches are found)"},
    {"analyze", "OBJ", {kAgainst, kJson}, CmdAnalyze,
     "static analysis of the insn stream (exit 2 on findings, 1 if unreadable; worst "
     "consequence across all datasets wins)"},
    {"fix", "OBJ", {kAgainst, {"out", Kind::kString, "", "FILE"}, kJson}, CmdFix,
     "synthesize field_exists guards for unguarded relocs, verify by re-analysis (exit 0 "
     "clean, 2 unfixable findings remain, 1 error)"},
    {"dataset build", "IMG...", {{"out", Kind::kString, "", "FILE"}}, CmdDatasetBuild,
     "distill images into a dataset"},
    {"dataset info", "FILE", {}, CmdDatasetInfo, "summarize a dataset"},
    {"serve", "",
     {kAgainst, {"oneshot"}, {"socket", Kind::kString, "", "PATH"}, kJobs,
      {"cache-capacity", Kind::kU64, "4096"}, {"max-connections", Kind::kU64},
      {"report-out", Kind::kString, "", "FILE"}},
     CmdServe,
     "batched NDJSON dependency-set queries from stdin (--oneshot) or a unix socket; one "
     "response line per request, byte-identical at any --jobs"},
    {"progs", "", {{"scale", Kind::kScale, "0.05"}, kSeed}, CmdProgs,
     "list the bundled 53-program corpus"},
    {"emit", "PROGRAM",
     {{"out", Kind::kString, "", "OBJ"}, {"scale", Kind::kScale, "0.05"}, kSeed}, CmdEmit,
     "write a bundled program's .o"},
    {"doctor", "IMG",
     {{"sweep", Kind::kU64}, kSeed, {"mutation-timeout", Kind::kSeconds, "30"}, kJson},
     CmdDoctor,
     "triage a damaged image, or sweep N seeded faults (exit 2 when the image needed "
     "salvage, 1 when unreadable or a sweep mutation timed out)"},
    {"fuzz", "SEED...",
     {{"rounds", Kind::kU64, "64"}, kSeed, {"corpus-dir", Kind::kString, "", "DIR"},
      {"mutation-timeout", Kind::kSeconds, "10"}, {"max-ledger", Kind::kU64, "10000"}, kJson},
     CmdFuzz,
     "coverage-guided fuzzing of image or object seeds (exit 2 on oracle disagreements, "
     "1 on hangs)"},
    {"metrics lint", "FILE",
     {{"kind", Kind::kEnum, "report", "", &kLintKindNames}, {"min-spans", Kind::kU64},
      {"require", Kind::kString, "", "a,b,c"}, {"report", Kind::kString, "", "FILE"}},
     CmdMetricsLint, "validate an observability document"},
    {"metrics canon", "FILE", {}, CmdMetricsCanon, "canonical JSON, timings masked"},
    {"report merge", "OUT IN...", {}, CmdReportMerge, "merge run reports into an aggregate"},
    {"perf compare", "BASE.json HEAD.json",
     {{"max-regress", Kind::kRatio, "15%"}, {"noise-floor", Kind::kSeconds, "0.005"}, kJson},
     CmdPerfCompare, "perf regression gate (exit 3 when a stage regressed beyond the threshold)"},
    {"profile", "REPORT.json|PROFILE.json",
     {kJson, {"out", Kind::kString, "", "PROFILE.json"}, {"folded-out", Kind::kString, "", "FILE"}},
     CmdProfile,
     "self-profile of a run report or a saved profile; --folded-out writes folded stacks for "
     "flamegraph.pl"},
    {"study build", "",
     {{"versions", Kind::kString, "", "V[,V...]"}, kArch, kFlavor, {"scale", Kind::kScale, "1.0"},
      kSeed, {"out", Kind::kString, "", "DATASET"}, {"report-dir", Kind::kString, "", "DIR"},
      {"profile-out", Kind::kString, "", "FILE"}, kJobs, {"strict"},
      {"poison", Kind::kString, "", "LABEL"}},
     CmdStudyBuild, "build a dataset corpus, with reports"},
};

// "--json", "--out=FILE", "--rounds=64", "--arch=x86|arm64|...".
std::string FlagSynopsis(const Flag& flag) {
  std::string out = std::string("--") + flag.name;
  if (flag.kind == Kind::kBool) {
    return out;
  }
  if (flag.choices != nullptr) {
    return out + "=" + JoinStrings(*flag.choices, "|");
  }
  const char* value = *flag.meta != '\0' ? flag.meta : flag.fallback;
  return out + "=" + (*value != '\0' ? value : "N");
}

// One entry per table row, wrapped at 80 columns.
std::string Usage() {
  std::string out = "usage: depsurf COMMAND [options]\n";
  for (const Command& command : kCommands) {
    std::string synopsis = command.args;
    for (const Flag& flag : command.flags) {
      synopsis += " [" + FlagSynopsis(flag) + "]";
    }
    std::string line = std::string("  ") + command.name;
    for (const std::string& text : {synopsis, std::string(command.note)}) {
      for (const std::string& word : SplitList(text, ' ')) {
        if (line.size() + 1 + word.size() > 80) {
          out += line + "\n";
          line = std::string(9, ' ');
        }
        line += " " + word;
      }
      out += line + "\n";
      line = std::string(9, ' ');
    }
  }
  out += "global options:";
  for (const Flag& flag : kGlobalFlags) {
    out += "  " + FlagSynopsis(flag);
  }
  return out + "\n";
}

// Checks `argv` (what follows the command words) against `command`, and
// reads the value of every flag it declares, given or fallback.
Result<Args> ParseArgs(const Command& command, const std::vector<std::string>& argv) {
  auto fail = [&command](const std::string& message) {
    return Error(ErrorCode::kInvalidArgument, std::string(command.name) + ": " + message);
  };
  std::map<std::string, const Flag*> flags;
  for (const Flag& flag : command.flags) {
    flags[flag.name] = &flag;
  }
  for (const Flag& flag : kGlobalFlags) {
    flags[flag.name] = &flag;
  }
  Args args;
  for (const auto& [name, flag] : flags) {
    Value& value = args.values[name];
    if (*flag->fallback != '\0') {
      (void)ParseValue(*flag, flag->fallback, &value);
    }
  }
  const std::vector<std::string> words = SplitList(command.args, ' ');
  const size_t min_args =
      std::count_if(words.begin(), words.end(), [](const std::string& w) { return w[0] != '['; });
  const size_t max_args = strstr(command.args, "...") != nullptr ? SIZE_MAX : words.size();
  for (const std::string& arg : argv) {
    if (!StartsWith(arg, "--")) {
      if (args.pos.size() == max_args) {
        return fail("unexpected argument " + arg);
      }
      args.pos.push_back(arg);
      continue;
    }
    const size_t eq = arg.find('=');
    const std::string name = arg.substr(2, eq == std::string::npos ? eq : eq - 2);
    auto it = flags.find(name);
    if (it == flags.end()) {
      return fail("unknown flag --" + name);
    }
    const Flag& flag = *it->second;
    if (flag.kind == Kind::kBool && eq != std::string::npos) {
      return fail("--" + name + " takes no value");
    }
    if (flag.kind != Kind::kBool && eq == std::string::npos) {
      return fail("--" + name + " needs a value: " + FlagSynopsis(flag));
    }
    Value& value = args.values[name];
    if (value.given) {
      return fail("--" + name + " is given twice");
    }
    value.given = true;
    Status parsed = ParseValue(flag, eq == std::string::npos ? "" : arg.substr(eq + 1), &value);
    if (!parsed.ok()) {
      return parsed.TakeError();
    }
  }
  if (args.pos.size() < min_args) {
    return Error(ErrorCode::kInvalidArgument,
                 StrFormat("%s requires %s", command.name, command.args));
  }
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  std::string name = argc >= 2 ? argv[1] : "";
  std::vector<std::string> rest(argv + std::min(argc, 2), argv + argc);
  // A command with subcommands takes its first positional as the
  // subcommand, wherever it stands among the flags.
  std::vector<std::string> subcommands;
  for (const Command& command : kCommands) {
    if (StartsWith(command.name, name + " ")) {
      subcommands.push_back(command.name + name.size() + 1);
    }
  }
  if (!subcommands.empty()) {
    auto sub = std::find_if(rest.begin(), rest.end(),
                            [](const std::string& arg) { return !StartsWith(arg, "--"); });
    const std::string choices = JoinStrings(subcommands, " | ");
    if (sub == rest.end()) {
      return DiagError(name + " requires a subcommand: " + choices);
    }
    if (std::find(subcommands.begin(), subcommands.end(), *sub) == subcommands.end()) {
      return DiagError("unknown " + name + " subcommand " + *sub + " (" + choices + ")");
    }
    name += " " + *sub;
    rest.erase(sub);
  }
  auto command = std::find_if(std::begin(kCommands), std::end(kCommands),
                              [&name](const Command& c) { return name == c.name; });
  if (command == std::end(kCommands)) {
    fputs(Usage().c_str(), stderr);
    return 1;
  }
  auto args = ParseArgs(*command, rest);
  if (!args.ok()) {
    return DiagError(args.error().message());
  }
  if (args->Has("trace")) {
    obs::SpanCollector::Global().SetLiveTrace(true);
  }
  int code = command->run(*args);
  const std::string& trace_out = args->Str("trace-out");
  if (!trace_out.empty()) {
    Status written = obs::WriteGlobalTrace(trace_out);
    if (!written.ok()) {
      obs::Diag(obs::Severity::kError, "trace not written", written.error());
      if (code == 0) {
        code = 1;
      }
    }
  }
  const std::string& metrics_out = args->Str("metrics-out");
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
