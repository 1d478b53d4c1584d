#include "src/analyzer/analyzer.h"

#include <algorithm>
#include <array>
#include <map>
#include <numeric>
#include <set>
#include <tuple>

#include "src/analyzer/cfg.h"
#include "src/analyzer/dominator.h"
#include "src/analyzer/remediation.h"
#include "src/core/report.h"
#include "src/kernelgen/helpers.h"
#include "src/obs/context.h"
#include "src/obs/metrics.h"
#include "src/obs/span.h"
#include "src/util/bucket_index.h"
#include "src/util/str_util.h"

namespace depsurf {

namespace {

// ---- Register provenance lattice ---------------------------------------

enum class Prov : uint8_t {
  kUninit,
  kScalar,
  kCtxPtr,     // the program's context argument (r1 at entry)
  kKernelPtr,  // loaded from kernel memory through a relocated access
  kGuard,      // result of a field_exists/type_exists probe
};

struct Val {
  Prov prov = Prov::kUninit;
  size_t guard_reloc = 0;  // meaningful only when prov == kGuard

  bool operator==(const Val&) const = default;

  bool IsPointer() const { return prov == Prov::kCtxPtr || prov == Prov::kKernelPtr; }

  static Val Meet(const Val& a, const Val& b) {
    if (a == b) {
      return a;
    }
    if (a.prov == Prov::kUninit) {
      return b;
    }
    if (b.prov == Prov::kUninit) {
      return a;
    }
    return Val{Prov::kScalar, 0};
  }
};

// Abstract state at a program point: registers r0..r10. Guard facts are no
// longer part of the lattice — they are derived from the dominator tree
// after the fixpoint (a fact holds in exactly the blocks dominated by the
// guard's exists-edge successor).
struct AbsState {
  std::array<Val, 11> regs;

  bool operator==(const AbsState&) const = default;

  static AbsState Entry() {
    AbsState state;
    state.regs[1] = Val{Prov::kCtxPtr, 0};
    state.regs[10] = Val{Prov::kScalar, 0};  // frame pointer: not a kernel dep
    return state;
  }

  void MergeFrom(const AbsState& other) {
    for (size_t i = 0; i < regs.size(); ++i) {
      regs[i] = Val::Meet(regs[i], other.regs[i]);
    }
  }
};

// Resolved identity of one relocation record.
struct RelocInfo {
  std::string struct_name;
  std::string field_name;
  std::string expected_type;
  bool is_guard_kind = false;  // field_exists / type_exists
};

RelocInfo ResolveRelocInfo(const BpfObject& object, const CoreReloc& reloc) {
  RelocInfo info;
  info.is_guard_kind =
      reloc.kind == CoreRelocKind::kFieldExists || reloc.kind == CoreRelocKind::kTypeExists;
  if (reloc.kind == CoreRelocKind::kTypeExists) {
    const std::optional<BtfTypeView> root =
        object.btf.Get(object.btf.ResolveAliases(reloc.root_type_id));
    if (root) {
      info.struct_name = root->name;
    }
    return info;
  }
  auto chain = ResolveReloc(object.btf, reloc);
  if (chain.ok() && !chain->empty()) {
    const FieldAccess& terminal = chain->back();
    info.struct_name = terminal.struct_name;
    info.field_name = terminal.field_name;
    info.expected_type = terminal.field_type;
  }
  return info;
}

// Transfer function for one instruction. `reloc_at` maps the instruction's
// byte offset to a reloc index (or npos).
constexpr size_t kNoReloc = static_cast<size_t>(-1);

void Transfer(const BpfInsn& insn, size_t reloc_idx, const std::vector<CoreReloc>& relocs,
              AbsState& state) {
  if (insn.opcode == kOpLdImm64) {
    if (reloc_idx != kNoReloc && (relocs[reloc_idx].kind == CoreRelocKind::kFieldExists ||
                                  relocs[reloc_idx].kind == CoreRelocKind::kTypeExists)) {
      state.regs[insn.dst_reg] = Val{Prov::kGuard, reloc_idx};
    } else {
      state.regs[insn.dst_reg] = Val{Prov::kScalar, 0};
    }
    return;
  }
  if (insn.IsLoad()) {
    // A relocated load reads a kernel object; treat the result as a kernel
    // pointer so chained raw derefs keep their provenance. Unrelocated
    // loads yield unknown data.
    state.regs[insn.dst_reg] =
        reloc_idx != kNoReloc ? Val{Prov::kKernelPtr, 0} : Val{Prov::kScalar, 0};
    return;
  }
  if (insn.opcode == kOpMov64Imm) {
    state.regs[insn.dst_reg] = Val{Prov::kScalar, 0};
    return;
  }
  if (insn.IsCall()) {
    // Helpers clobber r0..r5 (r0 = return value).
    for (size_t r = 0; r <= 5; ++r) {
      state.regs[r] = Val{Prov::kScalar, 0};
    }
    return;
  }
  // Stores, jumps, exit: no register effects we track.
}

struct BlockStates {
  std::vector<AbsState> entry;
  std::vector<bool> seen;
};

BlockStates RunDataflow(const Cfg& cfg, const std::vector<BpfInsn>& insns,
                        const std::vector<size_t>& reloc_at,
                        const std::vector<CoreReloc>& relocs) {
  BlockStates states;
  states.entry.resize(cfg.blocks.size());
  states.seen.assign(cfg.blocks.size(), false);
  if (cfg.blocks.empty()) {
    return states;
  }
  states.entry[0] = AbsState::Entry();
  states.seen[0] = true;
  std::vector<size_t> work{0};
  while (!work.empty()) {
    size_t b = work.back();
    work.pop_back();
    const CfgBlock& block = cfg.blocks[b];
    AbsState state = states.entry[b];
    for (size_t i = block.first; i <= block.last; ++i) {
      Transfer(insns[i], reloc_at[i], relocs, state);
    }
    for (size_t pos = 0; pos < block.succs.size(); ++pos) {
      size_t succ = block.succs[pos];
      if (!states.seen[succ]) {
        states.entry[succ] = state;
        states.seen[succ] = true;
        work.push_back(succ);
      } else {
        AbsState merged = states.entry[succ];
        merged.MergeFrom(state);
        if (!(merged == states.entry[succ])) {
          states.entry[succ] = merged;
          work.push_back(succ);
        }
      }
    }
  }
  return states;
}

// Numbers each relocation's (struct, field) pair, so guard facts match by
// integer: two records share a key exactly when both names are equal.
std::vector<uint32_t> FieldKeys(const std::vector<RelocInfo>& infos) {
  auto names = [&](size_t r) { return std::tie(infos[r].struct_name, infos[r].field_name); };
  std::vector<size_t> order(infos.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) { return names(a) < names(b); });
  std::vector<uint32_t> keys(infos.size());
  uint32_t key = 0;
  for (size_t k = 0; k < order.size(); ++k) {
    if (k > 0 && names(order[k - 1]) != names(order[k])) {
      ++key;
    }
    keys[order[k]] = key;
  }
  return keys;
}

// Marks the instructions whose relocation a guard fact covers. A fact
// (E, guard reloc) holds in the blocks E dominates, which are E's subtree of
// the dominator tree, so one preorder walk that counts the facts started on
// the path from the entry, per (struct, field) key, answers every
// relocation: one in block d is guarded exactly when its key's count at d
// is nonzero. O(blocks + insns). The stack is explicit because sequential
// guards make the tree as deep as the program has blocks. `active` holds a
// zero per key on entry, and again on return.
std::vector<uint8_t> GuardedInsns(const Cfg& cfg, const DominatorTree& dom,
                                  const std::vector<std::pair<size_t, size_t>>& facts,
                                  const std::vector<size_t>& reloc_at,
                                  const std::vector<uint32_t>& field_key,
                                  std::vector<uint32_t>& active) {
  constexpr uint32_t kNoFact = static_cast<uint32_t>(-1);
  const size_t n = cfg.blocks.size();
  // E has a single inbound edge, so at most one fact starts at each block.
  std::vector<uint32_t> starts(n, kNoFact);
  for (const auto& [block, guard] : facts) {
    starts[block] = field_key[guard];
  }
  // The entry is the root; unreachable blocks (idom kUnreachable) drop out.
  const BucketIndex children =
      BuildBucketIndex(n, n, [&](size_t b) { return b == 0 ? n : dom.idom[b]; });
  std::vector<uint8_t> guarded(reloc_at.size(), 0);
  std::vector<size_t> stack{0};
  while (!stack.empty()) {
    const size_t d = stack.back();
    stack.pop_back();
    if (d >= n) {  // ~E: the walk leaves E's subtree, where its fact held
      --active[starts[~d]];
      continue;
    }
    if (starts[d] != kNoFact) {
      ++active[starts[d]];
      stack.push_back(~d);
    }
    for (size_t i = cfg.blocks[d].first; i <= cfg.blocks[d].last; ++i) {
      guarded[i] = reloc_at[i] != kNoReloc && active[field_key[reloc_at[i]]] != 0;
    }
    stack.insert(stack.end(), children.order.begin() + children.begin[d],
                 children.order.begin() + children.begin[d + 1]);
  }
  return guarded;
}

const char* ProvName(Prov prov) {
  switch (prov) {
    case Prov::kCtxPtr:
      return "ctx";
    case Prov::kKernelPtr:
      return "kernel";
    default:
      return "scalar";
  }
}

int FindingRank(FindingKind kind) { return static_cast<int>(kind); }

}  // namespace

const char* FindingKindName(FindingKind kind) {
  switch (kind) {
    case FindingKind::kRawOffsetDeref:
      return "raw-offset-deref";
    case FindingKind::kUnguardedReloc:
      return "unguarded-reloc";
    case FindingKind::kUnknownHelper:
      return "unknown-helper";
    case FindingKind::kUnreachableReloc:
      return "unreachable-reloc";
  }
  return "?";
}

size_t ObjectAnalysis::CountKind(FindingKind kind) const {
  size_t n = 0;
  for (const Finding& finding : findings) {
    if (finding.kind == kind) {
      ++n;
    }
  }
  return n;
}

ObjectAnalysis AnalyzeObject(const BpfObject& object, const AnalyzeOptions& opts) {
  obs::ScopedSpan span("analyze.object");
  span.AddAttr("object", object.name);
  ObjectAnalysis analysis;
  analysis.object_name = object.name;
  // The datasets to check against: `against_all` wins, else `against`.
  std::vector<const Dataset*> views;
  for (const Dataset* ds : opts.against_all) {
    if (ds != nullptr) {
      views.push_back(ds);
    }
  }
  if (views.empty() && opts.against != nullptr) {
    views.push_back(opts.against);
  }
  analysis.against_dataset = !views.empty();
  analysis.against_images = 0;
  for (const Dataset* ds : views) {
    analysis.against_images += ds->num_images();
  }

  // Resolve every relocation once.
  std::vector<RelocInfo> infos;
  infos.reserve(object.relocs.size());
  for (const CoreReloc& reloc : object.relocs) {
    infos.push_back(ResolveRelocInfo(object, reloc));
  }

  // Guards that statically resolve false: the guarded field is absent on
  // every dataset image, so the loader patches the probe to 0 everywhere
  // and the exists path can never run.
  std::set<size_t> static_false;
  if (analysis.against_images > 0) {
    for (size_t r = 0; r < object.relocs.size(); ++r) {
      if (object.relocs[r].kind != CoreRelocKind::kFieldExists ||
          infos[r].field_name.empty()) {
        continue;
      }
      bool absent_everywhere = true;
      for (const Dataset* ds : views) {
        auto cells = ds->CheckField(infos[r].struct_name, infos[r].field_name,
                                    infos[r].expected_type, /*guarded=*/false);
        for (const auto& cell : cells) {
          if (cell.count(MismatchKind::kAbsent) == 0) {
            absent_everywhere = false;
            break;
          }
        }
        if (!absent_everywhere) {
          break;
        }
      }
      if (absent_everywhere) {
        static_false.insert(r);
      }
    }
  }

  // Verdict skeletons.
  for (size_t r = 0; r < object.relocs.size(); ++r) {
    const CoreReloc& reloc = object.relocs[r];
    RelocVerdict verdict;
    verdict.index = r;
    verdict.kind = reloc.kind;
    verdict.struct_name = infos[r].struct_name;
    verdict.field_name = infos[r].field_name;
    verdict.expected_type = infos[r].expected_type;
    verdict.bound = reloc.prog_index != kRelocUnbound;
    if (verdict.bound) {
      verdict.program = object.programs[reloc.prog_index].name;
      verdict.insn_off = reloc.insn_off;
    }
    // Guard-kind records need no guarding themselves.
    verdict.unguarded = !infos[r].is_guard_kind;
    analysis.relocs.push_back(std::move(verdict));
  }

  // ---- Per-program passes.
  BucketIndex by_program =
      BuildBucketIndex(object.programs.size(), object.relocs.size(),
                       [&](size_t r) { return object.relocs[r].prog_index; });
  // Built at the first program with a guard fact: the (struct, field) key of
  // every relocation, and per key the facts active at the walked block.
  std::vector<uint32_t> field_key;
  std::vector<uint32_t> active_facts;
  for (size_t p = 0; p < object.programs.size(); ++p) {
    const BpfProgram& program = object.programs[p];
    obs::ScopedSpan prog_span("analyze.program");
    prog_span.AddAttr("program", program.name);

    ProgramAnalysis pa;
    pa.name = program.name;
    pa.section = HookSectionName(program.hook);
    pa.insn_count = program.insns.size();

    Cfg cfg = BuildCfg(program.insns);
    pa.block_count = cfg.blocks.size();

    std::vector<bool> reachable = ReachableInsns(cfg, program.insns);
    // Reloc index per instruction: this program's records, sorted by byte
    // offset, meet the ascending instruction offsets in one merge. Of two
    // records at one offset the later binds and gets the reachability
    // verdict; the earlier keeps its skeleton. A binding past the decoded
    // prefix (salvaged stream) or inside an instruction is unreachable.
    std::vector<size_t> reloc_at(program.insns.size(), kNoReloc);
    const auto first = by_program.order.begin() + by_program.begin[p];
    const auto last = by_program.order.begin() + by_program.begin[p + 1];
    std::sort(first, last, [&](size_t a, size_t b) {
      return std::pair(object.relocs[a].insn_off, a) < std::pair(object.relocs[b].insn_off, b);
    });
    size_t at = 0;
    for (auto it = first; it != last; ++it) {
      const uint32_t off = object.relocs[*it].insn_off;
      if (it + 1 != last && object.relocs[it[1]].insn_off == off) {
        continue;
      }
      while (at < reloc_at.size() && cfg.insn_byte_off[at] < off) {
        ++at;
      }
      const bool bound = at < reloc_at.size() && cfg.insn_byte_off[at] == off;
      if (bound) {
        reloc_at[at] = *it;
      }
      analysis.relocs[*it].reachable = bound && reachable[at];
    }
    pa.reachable_insns =
        static_cast<size_t>(std::count(reachable.begin(), reachable.end(), true));

    BlockStates states = RunDataflow(cfg, program.insns, reloc_at, object.relocs);

    // Block-end states: which register each block's terminator tests.
    std::vector<AbsState> end_states(cfg.blocks.size());
    for (size_t b = 0; b < cfg.blocks.size(); ++b) {
      if (!states.seen[b]) {
        continue;
      }
      AbsState s = states.entry[b];
      for (size_t i = cfg.blocks[b].first; i <= cfg.blocks[b].last; ++i) {
        Transfer(program.insns[i], reloc_at[i], object.relocs, s);
      }
      end_states[b] = s;
    }

    // Guard facts via dominance: a conditional testing a guard register
    // against 0 proves the field exists on its exists-edge successor E, and
    // the fact holds in exactly the blocks E dominates — provided E is
    // reached by no other edge (a side entry would bypass the check) and is
    // not also the branch's other successor (both arms landing on one block
    // proves nothing). A program with no such guard builds no tree.
    std::vector<std::pair<size_t, size_t>> facts;  // (E, guard reloc)
    for (size_t b = 0; b < cfg.blocks.size(); ++b) {
      if (!states.seen[b] || cfg.blocks[b].succs.size() != 2) {
        continue;
      }
      const BpfInsn& term = program.insns[cfg.blocks[b].last];
      if (!term.IsCondJump() || term.imm != 0) {
        continue;
      }
      const Val& v = end_states[b].regs[term.dst_reg];
      if (v.prov != Prov::kGuard) {
        continue;
      }
      // The guard register is 1 when the field exists, 0 when patched
      // absent. JEQ r,0: fall-through = exists path; JNE r,0: taken edge.
      size_t exists_pos = term.opcode == kOpJeqImm ? 1 : 0;
      size_t exists_succ = cfg.blocks[b].succs[exists_pos];
      size_t other_succ = cfg.blocks[b].succs[1 - exists_pos];
      if (exists_succ != other_succ) {
        facts.push_back({exists_succ, v.guard_reloc});
      }
    }
    std::vector<uint8_t> guarded_at;  // per insn; empty when no fact holds
    if (!facts.empty()) {
      DominatorTree dom = BuildDominatorTree(cfg);
      std::erase_if(facts, [&](const auto& fact) { return dom.pred_edges[fact.first] != 1; });
      if (!facts.empty()) {
        if (field_key.empty()) {
          field_key = FieldKeys(infos);
          active_facts.assign(infos.size(), 0);
        }
        guarded_at = GuardedInsns(cfg, dom, facts, reloc_at, field_key, active_facts);
      }
    }

    // Guard-pruned reachability: drop edges into statically-false guard
    // regions, then see which relocated instructions went dark.
    std::vector<bool> pruned = reachable;
    if (!static_false.empty()) {
      pruned = ReachableInsns(cfg, program.insns, [&](size_t b, size_t pos) {
        const CfgBlock& block = cfg.blocks[b];
        if (block.succs.size() != 2 || !states.seen[b]) {
          return false;
        }
        const BpfInsn& term = program.insns[block.last];
        if (!term.IsCondJump() || term.imm != 0) {
          return false;
        }
        const Val& v = end_states[b].regs[term.dst_reg];
        if (v.prov != Prov::kGuard || static_false.count(v.guard_reloc) == 0) {
          return false;
        }
        bool exists_edge = (term.opcode == kOpJeqImm) ? (pos == 1) : (pos == 0);
        return exists_edge;
      });
    }

    // Final pass: findings and verdict refinement, block by block.
    for (size_t b = 0; b < cfg.blocks.size(); ++b) {
      if (!states.seen[b]) {
        continue;
      }
      AbsState state = states.entry[b];
      for (size_t i = cfg.blocks[b].first; i <= cfg.blocks[b].last; ++i) {
        const BpfInsn& insn = program.insns[i];
        uint32_t byte_off = cfg.insn_byte_off[i];
        size_t reloc_idx = reloc_at[i];

        if (insn.IsLoad() && reloc_idx == kNoReloc &&
            state.regs[insn.src_reg].IsPointer()) {
          Finding finding;
          finding.kind = FindingKind::kRawOffsetDeref;
          finding.program = program.name;
          finding.insn_off = byte_off;
          finding.detail = StrFormat(
              "%s: load from %s pointer at hardcoded offset %+d with no CO-RE relocation",
              insn.ToString().c_str(), ProvName(state.regs[insn.src_reg].prov), insn.offset);
          analysis.findings.push_back(std::move(finding));
        }

        if (insn.IsCall()) {
          ++pa.helper_calls;
          uint32_t id = static_cast<uint32_t>(insn.imm);
          const HelperSpec* spec = FindHelper(id);
          if (spec == nullptr) {
            Finding finding;
            finding.kind = FindingKind::kUnknownHelper;
            finding.program = program.name;
            finding.insn_off = byte_off;
            finding.detail = StrFormat("call %u: helper id not in the catalog", id);
            analysis.findings.push_back(std::move(finding));
          } else if (!views.empty()) {
            size_t missing = 0;
            for (const Dataset* ds : views) {
              for (const ImageRecord& image : ds->images()) {
                KernelVersion v{image.meta.version_major, image.meta.version_minor};
                if (!HelperAvailable(id, v)) {
                  ++missing;
                }
              }
            }
            if (missing > 0) {
              Finding finding;
              finding.kind = FindingKind::kUnknownHelper;
              finding.program = program.name;
              finding.insn_off = byte_off;
              finding.detail = StrFormat(
                  "call %u (%s): introduced in v%d.%d, unavailable on %zu/%zu images", id,
                  spec->name, spec->introduced.major, spec->introduced.minor, missing,
                  analysis.against_images);
              analysis.findings.push_back(std::move(finding));
            }
          }
        }

        if (reloc_idx != kNoReloc && !infos[reloc_idx].is_guard_kind) {
          RelocVerdict& verdict = analysis.relocs[reloc_idx];
          // Dominated by a matching exists-guard (the walk above)?
          const bool guarded = !guarded_at.empty() && guarded_at[i] != 0;
          verdict.unguarded = !guarded;
          if (!guarded && reachable[i]) {
            Finding finding;
            finding.kind = FindingKind::kUnguardedReloc;
            finding.program = program.name;
            finding.insn_off = byte_off;
            finding.reloc_index = static_cast<int32_t>(reloc_idx);
            finding.detail = StrFormat(
                "field reloc %s::%s not dominated by a field_exists check",
                infos[reloc_idx].struct_name.c_str(), infos[reloc_idx].field_name.c_str());
            analysis.findings.push_back(std::move(finding));
          }
          if (reachable[i] && !pruned[i]) {
            Finding finding;
            finding.kind = FindingKind::kUnreachableReloc;
            finding.program = program.name;
            finding.insn_off = byte_off;
            finding.reloc_index = static_cast<int32_t>(reloc_idx);
            finding.detail = StrFormat(
                "field reloc %s::%s only reachable through a guard that is statically "
                "false against all %zu images",
                infos[reloc_idx].struct_name.c_str(), infos[reloc_idx].field_name.c_str(),
                analysis.against_images);
            analysis.findings.push_back(std::move(finding));
          }
        }

        Transfer(insn, reloc_idx, object.relocs, state);
      }
    }

    prog_span.AddAttr("insns", static_cast<uint64_t>(pa.insn_count));
    prog_span.AddAttr("blocks", static_cast<uint64_t>(pa.block_count));
    analysis.programs.push_back(std::move(pa));
  }

  // ---- Per-reloc consequences against the datasets (worst across all),
  // guard-refined.
  if (analysis.against_images > 0) {
    for (RelocVerdict& verdict : analysis.relocs) {
      if (verdict.kind == CoreRelocKind::kFieldExists ||
          verdict.kind == CoreRelocKind::kTypeExists) {
        verdict.consequence = ConsequenceName(Consequence::kNone);
        continue;
      }
      if (verdict.field_name.empty()) {
        continue;
      }
      bool absent = false;
      bool changed = false;
      for (const Dataset* ds : views) {
        auto cells = ds->CheckField(verdict.struct_name, verdict.field_name,
                                    verdict.expected_type, /*guarded=*/false);
        for (const auto& cell : cells) {
          absent = absent || cell.count(MismatchKind::kAbsent) != 0;
          changed = changed || cell.count(MismatchKind::kChanged) != 0;
        }
      }
      Consequence consequence = Consequence::kNone;
      if (absent) {
        consequence = ConsequenceOf(DepKind::kField, MismatchKind::kAbsent,
                                    /*guarded=*/!verdict.unguarded);
      } else if (changed) {
        consequence = ConsequenceOf(DepKind::kField, MismatchKind::kChanged);
      }
      verdict.consequence = ConsequenceName(consequence);
    }
  }

  // Deterministic ordering for output and goldens.
  std::sort(analysis.findings.begin(), analysis.findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.program != b.program) {
                return a.program < b.program;
              }
              if (a.insn_off != b.insn_off) {
                return a.insn_off < b.insn_off;
              }
              if (a.kind != b.kind) {
                return FindingRank(a.kind) < FindingRank(b.kind);
              }
              return a.detail < b.detail;
            });

  // Attach remediation text to every finding (the planner reads the sorted
  // findings list and never re-runs the analyzer).
  RemediationPlan plan = PlanRemediation(object, analysis, opts);
  for (size_t i = 0; i < analysis.findings.size(); ++i) {
    analysis.findings[i].remediation = plan.items[i].Text();
  }

  obs::MetricsRegistry& metrics = obs::Context::Current().metrics();
  metrics.Incr("analyzer.objects");
  metrics.Incr("analyzer.programs", analysis.programs.size());
  metrics.Incr("analyzer.findings", analysis.findings.size());
  size_t guarded_relocs = 0;
  for (const RelocVerdict& verdict : analysis.relocs) {
    if (!verdict.unguarded && verdict.kind == CoreRelocKind::kFieldByteOffset) {
      ++guarded_relocs;
    }
  }
  metrics.Incr("analyzer.guarded_relocs", guarded_relocs);
  span.AddAttr("programs", static_cast<uint64_t>(analysis.programs.size()));
  span.AddAttr("findings", static_cast<uint64_t>(analysis.findings.size()));
  return analysis;
}

void ApplyGuardFacts(const ObjectAnalysis& analysis, DependencySet& deps) {
  // A field is guard-dominated when every read reloc of it carries
  // unguarded=false (a lone exists-record already sets guarded at
  // extraction; dominance upgrades direct reads the extractor had to
  // assume unguarded).
  std::map<std::pair<std::string, std::string>, std::pair<size_t, size_t>> reads;
  for (const RelocVerdict& verdict : analysis.relocs) {
    if (verdict.kind != CoreRelocKind::kFieldByteOffset &&
        verdict.kind != CoreRelocKind::kFieldSize) {
      continue;
    }
    if (verdict.field_name.empty()) {
      continue;
    }
    auto& counts = reads[{verdict.struct_name, verdict.field_name}];
    ++counts.first;
    if (!verdict.unguarded) {
      ++counts.second;
    }
  }
  for (const auto& [key, counts] : reads) {
    if (counts.first == 0 || counts.first != counts.second) {
      continue;
    }
    auto struct_it = deps.fields.find(key.first);
    if (struct_it == deps.fields.end()) {
      continue;
    }
    auto field_it = struct_it->second.find(key.second);
    if (field_it != struct_it->second.end()) {
      field_it->second.guarded = true;
    }
  }
}

}  // namespace depsurf
