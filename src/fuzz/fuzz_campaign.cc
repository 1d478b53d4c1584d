#include "src/fuzz/fuzz_campaign.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <utility>

#include "src/analyzer/analyzer.h"
#include "src/analyzer/remediation.h"
#include "src/bpf/bpf_object.h"
#include "src/bpf/bpf_rewriter.h"
#include "src/core/dependency_surface.h"
#include "src/faultgen/fault_injector.h"
#include "src/obs/context.h"
#include "src/obs/json_writer.h"
#include "src/study/study.h"
#include "src/util/file_util.h"
#include "src/util/prng.h"
#include "src/util/str_util.h"

namespace depsurf {

const char* SeedModeName(SeedMode mode) {
  switch (mode) {
    case SeedMode::kImage: return "image";
    case SeedMode::kObject: return "object";
  }
  return "unknown";
}

int FuzzCampaignResult::ExitCode() const {
  if (!hangs.empty()) return 1;
  if (!disagreements.empty()) return 2;
  return 0;
}

bool RunWithWallClock(uint64_t budget_ms, std::function<void()> work) {
  if (budget_ms == 0) {
    work();
    return true;
  }
  struct Sync {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
  };
  auto sync = std::make_shared<Sync>();
  std::thread([sync, work = std::move(work)] {
    work();
    {
      std::lock_guard<std::mutex> lock(sync->mu);
      sync->done = true;
    }
    sync->cv.notify_all();
  }).detach();
  std::unique_lock<std::mutex> lock(sync->mu);
  return sync->cv.wait_for(lock, std::chrono::milliseconds(budget_ms),
                           [&] { return sync->done; });
}

namespace {

// Key used to fork the per-round decision stream off the campaign seed.
constexpr uint64_t kRoundStreamTag = 0xF0220;

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

void SortUnique(std::vector<std::string>& v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
}

// What one candidate taught us: its coverage tuples plus any oracle
// contract violations.
struct Evaluation {
  std::vector<std::string> tuples;      // sorted distinct
  std::vector<std::string> violations;  // salvage-vs-strict oracle
};

Evaluation EvaluateImage(const std::vector<uint8_t>& bytes, size_t max_ledger,
                         bool run_oracle) {
  Evaluation ev;
  auto surface = DependencySurface::Extract(bytes);
  if (!surface.ok()) {
    ev.tuples.push_back(
        StrFormat("image/fatal/%s", ErrorCodeName(surface.error().code())));
  } else {
    const SurfaceHealth& health = surface->health();
    ev.tuples.push_back(std::string("image/outcome/") +
                        (health.AnyDegraded() ? "degraded" : "clean"));
    for (const DiagnosticEntry& entry : health.ledger.entries()) {
      ev.tuples.push_back(StrFormat(
          "image/%s/%s/%s/%s", DiagSubsystemName(entry.subsystem),
          ErrorCodeName(entry.code), DiagSeverityName(entry.severity),
          DegradationStateName(SubsystemState(health, entry.subsystem))));
    }
    if (health.ledger.size() > max_ledger) {
      ev.tuples.push_back("image/guard/ledger_overflow");
    }
  }
  if (run_oracle) {
    ev.violations = Study::RunSalvageStrictOracle(bytes).violations;
  }
  SortUnique(ev.tuples);
  return ev;
}

Evaluation EvaluateObject(const std::vector<uint8_t>& bytes, size_t max_ledger,
                          bool run_oracle) {
  Evaluation ev;
  DiagnosticLedger ledger;
  auto object = ParseBpfObject(bytes, &ledger);
  for (const DiagnosticEntry& entry : ledger.entries()) {
    ev.tuples.push_back(StrFormat(
        "object/%s/%s/%s", DiagSubsystemName(entry.subsystem),
        ErrorCodeName(entry.code), DiagSeverityName(entry.severity)));
  }
  if (!object.ok()) {
    ev.tuples.push_back(
        StrFormat("object/fatal/%s", ErrorCodeName(object.error().code())));
  } else {
    ev.tuples.push_back(ledger.empty() ? "object/outcome/clean"
                                       : "object/outcome/salvaged");
    ObjectAnalysis analysis = AnalyzeObject(*object);
    for (const Finding& finding : analysis.findings) {
      ev.tuples.push_back(
          StrFormat("object/finding/%s", FindingKindName(finding.kind)));
    }
    // Remediation leg: on every parse survivor the planner must either
    // produce a verified fix or refuse with a ledger entry — never crash.
    if (analysis.findings.empty()) {
      ev.tuples.push_back("object/fix/clean");
    } else {
      RemediationPlan plan = PlanRemediation(*object, analysis);
      if (plan.FixableCount() == 0) {
        ev.tuples.push_back("object/fix/refused");
      } else {
        BpfObject fixed = *object;
        Status applied = InsertFieldExistsGuards(fixed, plan.Insertions(), &ledger);
        if (!applied.ok()) {
          ev.tuples.push_back("object/fix/refused");
        } else {
          auto encoded = WriteBpfObject(fixed);
          auto reparsed = encoded.ok()
                              ? ParseBpfObject(encoded.TakeValue(), &ledger)
                              : Result<BpfObject>(encoded.error());
          if (!reparsed.ok()) {
            ev.tuples.push_back("object/fix/refused");
          } else {
            ObjectAnalysis after = AnalyzeObject(*reparsed);
            RemediationVerification v = VerifyRemediation(analysis, plan, after);
            ev.tuples.push_back(v.ok ? "object/fix/verified"
                                     : "object/fix/unverified");
          }
        }
      }
    }
  }
  if (ledger.size() > max_ledger) {
    ev.tuples.push_back("object/guard/ledger_overflow");
  }
  if (run_oracle) {
    ev.violations = Study::RunObjectSalvageStrictOracle(bytes).violations;
  }
  SortUnique(ev.tuples);
  return ev;
}

Evaluation Evaluate(SeedMode mode, const std::vector<uint8_t>& bytes,
                    size_t max_ledger, bool run_oracle) {
  return mode == SeedMode::kImage ? EvaluateImage(bytes, max_ledger, run_oracle)
                                  : EvaluateObject(bytes, max_ledger, run_oracle);
}

// Evaluates one candidate under its own obs::Context (so candidate-internal
// metrics never leak into the caller's sinks) and the campaign wall-clock
// guard. Returns false on timeout; `out` is untouched then, and the
// orphaned worker owns every byte it can still reach.
bool GuardedEvaluate(SeedMode mode, const std::vector<uint8_t>& bytes,
                     const FuzzOptions& options, Evaluation* out) {
  auto input = std::make_shared<std::vector<uint8_t>>(bytes);
  auto state = std::make_shared<Evaluation>();
  const size_t max_ledger = options.max_ledger_entries;
  const bool done = RunWithWallClock(options.time_budget_ms, [=] {
    obs::Context context;
    obs::ScopedContext scope(context);
    *state = Evaluate(mode, *input, max_ledger, /*run_oracle=*/true);
  });
  if (done) *out = std::move(*state);
  return done;
}

// An object seed is one that parses under salvage, so a damaged object
// stays an object seed.
Result<SeedMode> DetectMode(const FuzzSeed& seed) {
  DiagnosticLedger ledger;
  if (ParseBpfObject(seed.bytes, &ledger).ok()) {
    return SeedMode::kObject;
  }
  auto surface = DependencySurface::Extract(seed.bytes);
  if (surface.ok()) {
    return SeedMode::kImage;
  }
  return Error(ErrorCode::kInvalidArgument,
               "seed '" + seed.name +
                   "' is neither a parseable eBPF object nor an extractable "
                   "kernel image: " +
                   surface.error().message());
}

// Exploit arm of the epsilon-greedy kind choice: highest smoothed novelty
// rate (novel+1)/(attempts+2), ties to the lowest kind index. Deterministic.
FaultKind BestKind(const std::vector<FuzzKindStats>& kinds) {
  size_t best = 0;
  double best_rate = -1.0;
  for (size_t i = 0; i < kinds.size(); ++i) {
    const double rate = (static_cast<double>(kinds[i].novel) + 1.0) /
                        (static_cast<double>(kinds[i].attempts) + 2.0);
    if (rate > best_rate) {
      best = i;
      best_rate = rate;
    }
  }
  return static_cast<FaultKind>(best);
}

// Greedy set cover: repeatedly pick the corpus entry covering the most
// still-uncovered tuples (ties to the earliest index) until the full
// coverage set is covered. Result is in pick order.
std::vector<size_t> MinimizeCorpus(const std::vector<FuzzCorpusEntry>& corpus,
                                   const std::vector<std::string>& coverage) {
  std::set<std::string> uncovered(coverage.begin(), coverage.end());
  std::vector<bool> used(corpus.size(), false);
  std::vector<size_t> picked;
  while (!uncovered.empty()) {
    size_t best = corpus.size();
    size_t best_gain = 0;
    for (size_t i = 0; i < corpus.size(); ++i) {
      if (used[i]) continue;
      size_t gain = 0;
      for (const std::string& t : corpus[i].tuples) {
        gain += uncovered.count(t);
      }
      if (gain > best_gain) {
        best = i;
        best_gain = gain;
      }
    }
    if (best == corpus.size()) break;  // nothing left can help
    used[best] = true;
    picked.push_back(best);
    for (const std::string& t : corpus[best].tuples) {
      uncovered.erase(t);
    }
  }
  return picked;
}

}  // namespace

Result<FuzzCampaignResult> RunFuzzCampaign(std::vector<FuzzSeed> seeds,
                                           const FuzzOptions& options) {
  if (seeds.empty()) {
    return Error(ErrorCode::kInvalidArgument,
                 "fuzz campaign needs at least one seed input");
  }
  DEPSURF_ASSIGN_OR_RETURN(mode, DetectMode(seeds.front()));
  for (size_t i = 1; i < seeds.size(); ++i) {
    DEPSURF_ASSIGN_OR_RETURN(seed_mode, DetectMode(seeds[i]));
    if (seed_mode != mode) {
      return Error(ErrorCode::kInvalidArgument,
                   StrFormat("seed '%s' is an %s but '%s' makes this an %s-mode "
                             "campaign; fuzz images and objects separately",
                             seeds[i].name.c_str(), SeedModeName(seed_mode),
                             seeds.front().name.c_str(), SeedModeName(mode)));
    }
  }

  FuzzCampaignResult result;
  result.mode = mode;
  result.rounds = options.rounds;
  result.seed = options.seed;
  result.time_budget_ms = options.time_budget_ms;
  result.max_ledger_entries = options.max_ledger_entries;
  for (int k = 0; k < kNumFaultKinds; ++k) {
    result.kinds.push_back({FaultKindName(static_cast<FaultKind>(k)), 0, 0});
  }

  auto& metrics = obs::Context::Current().metrics();
  std::set<std::string> coverage;

  // Seeds join the corpus first; their tuples define round-0 coverage, and
  // oracle violations on a pristine seed are findings like any other.
  for (FuzzSeed& seed : seeds) {
    result.seed_names.push_back(seed.name);
    Evaluation ev;
    if (!GuardedEvaluate(mode, seed.bytes, options, &ev)) {
      result.hangs.push_back({0, "", 0, "seed:" + seed.name});
      metrics.Incr("fuzz.hangs");
      continue;
    }
    for (const std::string& violation : ev.violations) {
      result.disagreements.push_back({0, "", 0, violation});
      metrics.Incr("fuzz.oracle_disagreements");
    }
    FuzzCorpusEntry entry;
    entry.index = result.corpus.size();
    entry.name = "seed:" + seed.name;
    entry.is_seed = true;
    entry.tuples = ev.tuples;
    for (const std::string& t : ev.tuples) {
      if (coverage.insert(t).second) entry.new_tuples.push_back(t);
    }
    entry.bytes = std::move(seed.bytes);
    result.corpus.push_back(std::move(entry));
  }
  if (result.corpus.empty()) {
    return Error(ErrorCode::kInternal, "every seed hung under the wall-clock guard");
  }
  result.growth.push_back({0, coverage.size()});

  for (uint64_t round = 0; round < options.rounds; ++round) {
    Prng prng = Prng(options.seed).Fork({kRoundStreamTag, round});
    const size_t parent = static_cast<size_t>(prng.NextBelow(result.corpus.size()));
    // Epsilon-greedy kind choice: half the rounds walk the round-robin so
    // every kind keeps getting sampled, half exploit the kind with the best
    // novelty rate so far.
    const bool explore = prng.NextBool(0.5);
    const FaultKind kind = explore ? FaultKindForIndex(round) : BestKind(result.kinds);
    const uint64_t fault_seed = HashCombine({options.seed, round});

    std::vector<uint8_t> bytes = result.corpus[parent].bytes;
    const std::string description = ApplyFault(bytes, kind, fault_seed);
    ++result.candidates;
    metrics.Incr("fuzz.candidates");
    FuzzKindStats& stats = result.kinds[static_cast<size_t>(kind)];
    ++stats.attempts;

    Evaluation ev;
    if (!GuardedEvaluate(mode, bytes, options, &ev)) {
      result.hangs.push_back({round, FaultKindName(kind), fault_seed, description});
      metrics.Incr("fuzz.hangs");
      continue;
    }
    for (const std::string& violation : ev.violations) {
      result.disagreements.push_back(
          {round, FaultKindName(kind), fault_seed, violation});
      metrics.Incr("fuzz.oracle_disagreements");
    }

    std::vector<std::string> novel;
    for (const std::string& t : ev.tuples) {
      if (!coverage.count(t)) novel.push_back(t);
    }
    if (novel.empty()) continue;
    ++stats.novel;
    metrics.Incr("fuzz.novel");
    coverage.insert(novel.begin(), novel.end());

    FuzzCorpusEntry entry;
    entry.index = result.corpus.size();
    entry.name = StrFormat("round%04llu:%s", static_cast<unsigned long long>(round),
                           FaultKindName(kind));
    entry.round = round;
    entry.kind = FaultKindName(kind);
    entry.fault_seed = fault_seed;
    entry.parent = parent;
    entry.description = description;
    entry.new_tuples = std::move(novel);
    entry.tuples = ev.tuples;
    entry.bytes = std::move(bytes);
    result.corpus.push_back(std::move(entry));
    result.growth.push_back({round + 1, coverage.size()});
  }

  if (result.growth.back().round != options.rounds) {
    result.growth.push_back({options.rounds, coverage.size()});
  }
  result.coverage.assign(coverage.begin(), coverage.end());
  result.minimized = MinimizeCorpus(result.corpus, result.coverage);
  metrics.Set("fuzz.coverage_tuples", static_cast<int64_t>(result.coverage.size()));
  metrics.Set("fuzz.corpus_size", static_cast<int64_t>(result.corpus.size()));
  return result;
}

std::vector<std::string> RunBlindSweep(const std::vector<FuzzSeed>& seeds,
                                       SeedMode mode, uint64_t rounds, uint64_t seed) {
  std::set<std::string> coverage;
  for (const FuzzSeed& s : seeds) {
    Evaluation ev = Evaluate(mode, s.bytes, /*max_ledger=*/SIZE_MAX,
                             /*run_oracle=*/false);
    coverage.insert(ev.tuples.begin(), ev.tuples.end());
  }
  // The doctor --sweep shape: always mutate a pristine seed, round-robin
  // kinds, sequential seeds — no corpus, no feedback.
  for (uint64_t i = 0; i < rounds; ++i) {
    std::vector<uint8_t> bytes = seeds[i % seeds.size()].bytes;
    ApplyFault(bytes, FaultKindForIndex(i), seed + i);
    Evaluation ev = Evaluate(mode, bytes, SIZE_MAX, /*run_oracle=*/false);
    coverage.insert(ev.tuples.begin(), ev.tuples.end());
  }
  return std::vector<std::string>(coverage.begin(), coverage.end());
}

std::string RenderFuzzCampaignJson(const FuzzCampaignResult& result) {
  std::string out;
  obs::JsonWriter writer(out);
  auto strings = [&writer](const std::vector<std::string>& items) {
    writer.BeginArray();
    for (const std::string& item : items) {
      writer.String(item);
    }
    writer.EndArray();
  };
  writer.BeginObject().Break(2).Key("schema").String(kFuzzCampaignSchema);
  writer.Break(2).Key("mode").String(SeedModeName(result.mode));
  writer.Break(2).Key("config").BeginObject().Key("rounds").Uint(result.rounds);
  writer.Key("seed").Uint(result.seed).Key("time_budget_ms").Uint(result.time_budget_ms);
  writer.Key("max_ledger_entries").Uint(result.max_ledger_entries).EndObject();
  writer.Break(2).Key("seeds");
  strings(result.seed_names);
  writer.Break(2).Key("candidates").Uint(result.candidates);
  writer.Break(2).Key("coverage").BeginObject().Key("tuples").Uint(result.coverage.size());
  writer.Key("keys");
  strings(result.coverage);
  writer.EndObject().Break(2).Key("growth").BeginArray();
  for (const FuzzGrowthPoint& point : result.growth) {
    writer.BeginObject().Key("round").Uint(point.round).Key("tuples").Uint(point.tuples);
    writer.EndObject();
  }
  writer.EndArray().Break(2).Key("kinds").BeginArray();
  for (const FuzzKindStats& stats : result.kinds) {
    writer.BeginObject().Key("kind").String(stats.kind).Key("attempts").Uint(stats.attempts);
    writer.Key("novel").Uint(stats.novel).EndObject();
  }
  writer.EndArray().Break(2).Key("corpus").BeginArray();
  for (const FuzzCorpusEntry& e : result.corpus) {
    writer.Break(4).BeginObject().Key("index").Uint(e.index).Key("name").String(e.name);
    writer.Key("seed").Bool(e.is_seed).Key("round").Uint(e.round).Key("kind").String(e.kind);
    writer.Key("fault_seed").Uint(e.fault_seed).Key("parent").Uint(e.parent);
    writer.Key("description").String(e.description).Key("size").Uint(e.bytes.size());
    writer.Key("tuple_count").Uint(e.tuples.size()).Key("new_tuples");
    strings(e.new_tuples);
    writer.EndObject();
  }
  writer.Break(2).EndArray().Break(2).Key("minimized").BeginArray();
  for (size_t index : result.minimized) {
    writer.Uint(index);
  }
  writer.EndArray().Break(2).Key("oracle").BeginObject().Key("disagreements").BeginArray();
  for (const FuzzOracleDisagreement& d : result.disagreements) {
    writer.BeginObject().Key("round").Uint(d.round).Key("kind").String(d.kind);
    writer.Key("fault_seed").Uint(d.fault_seed).Key("violation").String(d.violation);
    writer.EndObject();
  }
  writer.EndArray().EndObject().Break(2).Key("hangs").BeginArray();
  for (const FuzzHang& h : result.hangs) {
    writer.BeginObject().Key("round").Uint(h.round).Key("kind").String(h.kind);
    writer.Key("fault_seed").Uint(h.fault_seed).Key("description").String(h.description);
    writer.EndObject();
  }
  writer.EndArray().Break(2).Key("exit_code").Int(result.ExitCode());
  writer.Break(0).EndObject();
  out += '\n';
  return out;
}

Result<std::vector<std::string>> WriteFuzzCorpus(const FuzzCampaignResult& result,
                                                 const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Error(ErrorCode::kIoError,
                 "cannot create corpus dir '" + dir + "': " + ec.message());
  }
  std::vector<std::string> written;
  for (size_t index : result.minimized) {
    const FuzzCorpusEntry& entry = result.corpus[index];
    const std::string path =
        dir + "/" + StrFormat("fuzz_%04zu_%s.bin", entry.index,
                              entry.is_seed ? "seed" : entry.kind.c_str());
    DEPSURF_RETURN_IF_ERROR(WriteFile(path, entry.bytes));
    written.push_back(path);
  }
  const std::string json_path = dir + "/campaign.json";
  DEPSURF_RETURN_IF_ERROR(WriteFile(json_path, RenderFuzzCampaignJson(result)));
  written.push_back(json_path);
  return written;
}

}  // namespace depsurf
