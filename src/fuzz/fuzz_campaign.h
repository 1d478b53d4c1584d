// Coverage-guided fault-fuzzing campaign over the extraction surface.
//
// The existing `doctor --sweep` applies a fixed round-robin of faults to one
// image and checks nothing crashed — blind mutation, no feedback. This
// engine closes the loop the way BRF does for the eBPF runtime: each
// candidate's *diagnostic signature* — the deduplicated set of (subsystem,
// error code, severity, degradation state) tuples its salvage run emits,
// plus analyzer finding kinds in object mode — is the coverage signal.
// A mutated candidate enters the corpus only when it produces a tuple no
// earlier candidate produced, so later rounds mutate inputs that already
// sit deep in salvage territory and stack damage blind sweeps almost never
// reach.
//
// Everything is deterministic in (seed bytes, FuzzOptions::seed): parent
// choice, fault kind, and fault seed for round r are all keyed off
// Prng(seed).Fork({r}), so any crash, hang, or oracle disagreement replays
// from (kind, fault seed, round) alone — the report records all three.
// Wall-clock guards only affect pathological hangs; a healthy campaign's
// report is byte-identical across runs (no timestamps, no durations).
#ifndef DEPSURF_SRC_FUZZ_FUZZ_CAMPAIGN_H_
#define DEPSURF_SRC_FUZZ_FUZZ_CAMPAIGN_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/util/error.h"

namespace depsurf {

inline constexpr char kFuzzCampaignSchema[] = "depsurf.fuzz_campaign.v1";

// What kind of input the campaign is fuzzing. Auto-detected from the first
// seed: an eBPF object that parses (salvage included) fuzzes the object
// pipeline (ParseBpfObject + analyzer), anything else the image pipeline
// (DependencySurface::Extract). Every other seed must be of the same kind.
enum class SeedMode : uint8_t { kImage, kObject };

// "image" / "object".
const char* SeedModeName(SeedMode mode);

struct FuzzSeed {
  std::string name;  // label in the report (typically the file basename)
  std::vector<uint8_t> bytes;
};

struct FuzzOptions {
  uint64_t rounds = 64;
  uint64_t seed = 2025;
  // Per-candidate wall-clock budget. A candidate that exceeds it is
  // recorded as a hang (exit code 1) with its replay key; 0 disables the
  // guard (tests use this — guarded runs keep a worker thread alive past
  // the timeout).
  uint64_t time_budget_ms = 10000;
  // A salvage run emitting more ledger entries than this is itself a
  // finding (diagnostic explosion); the candidate still counts.
  size_t max_ledger_entries = 10000;
};

// One corpus member: a seed, or a mutant that produced novel coverage.
// (kind, fault_seed) + the parent's bytes replay the mutation exactly;
// parents are corpus members, so the whole lineage replays from the seeds.
struct FuzzCorpusEntry {
  size_t index = 0;        // position in the corpus; seeds come first
  std::string name;        // "seed:<name>" or "round<NNNN>:<kind>"
  bool is_seed = false;
  uint64_t round = 0;      // mutation round that produced it (seeds: 0)
  std::string kind;        // fault kind name (seeds: empty)
  uint64_t fault_seed = 0; // ApplyFault seed (seeds: 0)
  size_t parent = 0;       // corpus index the mutation was applied to
  std::string description; // ApplyFault's one-line damage description
  std::vector<std::string> new_tuples;  // coverage first seen here (sorted)
  std::vector<std::string> tuples;      // full coverage of this input (sorted)
  std::vector<uint8_t> bytes;
};

struct FuzzGrowthPoint {
  uint64_t round = 0;   // 0 = after seed evaluation; r+1 = after round r
  size_t tuples = 0;    // cumulative distinct coverage tuples
};

struct FuzzKindStats {
  std::string kind;
  uint64_t attempts = 0;
  uint64_t novel = 0;  // attempts that grew coverage
};

// One salvage-vs-strict contract violation, with its replay key.
struct FuzzOracleDisagreement {
  uint64_t round = 0;
  std::string kind;        // empty when found on a pristine seed
  uint64_t fault_seed = 0;
  std::string violation;
};

struct FuzzHang {
  uint64_t round = 0;
  std::string kind;
  uint64_t fault_seed = 0;
  std::string description;  // the mutation that hung
};

struct FuzzCampaignResult {
  SeedMode mode = SeedMode::kImage;
  uint64_t rounds = 0;
  uint64_t seed = 0;
  uint64_t time_budget_ms = 0;
  size_t max_ledger_entries = 0;
  std::vector<std::string> seed_names;
  uint64_t candidates = 0;                  // mutants evaluated
  std::vector<std::string> coverage;        // sorted distinct tuples
  std::vector<FuzzGrowthPoint> growth;
  std::vector<FuzzCorpusEntry> corpus;
  std::vector<size_t> minimized;            // corpus indices, greedy cover
  std::vector<FuzzKindStats> kinds;
  std::vector<FuzzOracleDisagreement> disagreements;
  std::vector<FuzzHang> hangs;

  // 0: clean. 2: oracle disagreements. 1: hangs (or infrastructure
  // trouble, reported by the CLI). Hangs dominate disagreements.
  int ExitCode() const;
};

// Runs `work` on a worker thread with a wall-clock deadline; returns true
// when it finished in time. budget_ms == 0 runs inline (no guard, always
// true). On timeout the worker keeps running detached, so everything the
// closure touches must be owned by the closure (shared_ptr state, not
// stack references) — callers then simply never read the orphaned result.
// `depsurf doctor --sweep` reuses this around each mutation.
bool RunWithWallClock(uint64_t budget_ms, std::function<void()> work);

// Runs the campaign. Fails only on infrastructure problems (no seeds, an
// undecodable seed, images and objects mixed); damaged candidates are the
// point, not an error.
Result<FuzzCampaignResult> RunFuzzCampaign(std::vector<FuzzSeed> seeds,
                                           const FuzzOptions& options);

// The pre-campaign baseline: `rounds` blind mutations of the raw seeds
// (round-robin kinds, no corpus feedback — the `doctor --sweep` shape) with
// coverage tuples collected the same way. Returns the sorted distinct
// tuple set; the acceptance test checks the guided campaign beats it.
std::vector<std::string> RunBlindSweep(const std::vector<FuzzSeed>& seeds,
                                       SeedMode mode, uint64_t rounds, uint64_t seed);

// Serializes a depsurf.fuzz_campaign.v1 document. Deterministic: two
// campaigns with identical seeds and options render byte-identical JSON.
std::string RenderFuzzCampaignJson(const FuzzCampaignResult& result);

// Writes the minimized corpus (fuzz_<index>_<kind>.bin per entry) plus
// campaign.json into `dir` (created if needed). Returns the paths written,
// campaign.json last.
Result<std::vector<std::string>> WriteFuzzCorpus(const FuzzCampaignResult& result,
                                                 const std::string& dir);

}  // namespace depsurf

#endif  // DEPSURF_SRC_FUZZ_FUZZ_CAMPAIGN_H_
