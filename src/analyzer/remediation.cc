#include "src/analyzer/remediation.h"

#include <map>
#include <set>
#include <utility>

#include "src/analyzer/cfg.h"
#include "src/analyzer/liveness.h"
#include "src/core/dataset.h"
#include "src/obs/json_writer.h"
#include "src/util/str_util.h"

namespace depsurf {

namespace {

// Per-program state the planner needs, built once on demand.
struct ProgramView {
  Cfg cfg;
  std::vector<LiveMask> live_in;
  std::map<uint32_t, size_t> insn_at_off;  // byte offset -> insn index
};

const ProgramView& ViewOf(const BpfObject& object, uint32_t p,
                          std::map<uint32_t, ProgramView>& cache) {
  auto it = cache.find(p);
  if (it != cache.end()) {
    return it->second;
  }
  ProgramView view;
  const std::vector<BpfInsn>& insns = object.programs[p].insns;
  view.cfg = BuildCfg(insns);
  view.live_in = ComputeLiveness(view.cfg, insns);
  for (size_t i = 0; i < insns.size(); ++i) {
    view.insn_at_off[view.cfg.insn_byte_off[i]] = i;
  }
  return cache.emplace(p, std::move(view)).first->second;
}

// Matching key for before/after finding comparison: byte offsets shift
// when guards are spliced in, detail strings do not.
std::string FindingKey(const Finding& finding) {
  std::string key = FindingKindName(finding.kind);
  key += '\0';
  key += finding.program;
  key += '\0';
  key += finding.detail;
  return key;
}

}  // namespace

std::string Remediation::Text() const {
  if (!fixable) {
    return "not fixable: " + reason;
  }
  return StrFormat("insert field_exists(%s::%s) guard before insn_off %u (scratch r%d)",
                   struct_name.c_str(), field_name.c_str(), insn_off, scratch_reg);
}

size_t RemediationPlan::FixableCount() const {
  size_t n = 0;
  for (const Remediation& item : items) {
    if (item.fixable) {
      ++n;
    }
  }
  return n;
}

std::vector<GuardInsertion> RemediationPlan::Insertions() const {
  std::vector<GuardInsertion> out;
  for (const Remediation& item : items) {
    if (!item.fixable) {
      continue;
    }
    GuardInsertion ins;
    ins.prog_index = item.prog_index;
    ins.insn_off = item.insn_off;
    ins.scratch_reg = static_cast<uint8_t>(item.scratch_reg);
    ins.reloc_index = static_cast<uint32_t>(item.reloc_index);
    out.push_back(ins);
  }
  return out;
}

RemediationPlan PlanRemediation(const BpfObject& object,
                                const ObjectAnalysis& analysis,
                                const AnalyzeOptions& opts) {
  RemediationPlan plan;
  plan.items.reserve(analysis.findings.size());

  std::vector<const Dataset*> views;
  for (const Dataset* ds : opts.against_all) {
    if (ds != nullptr) {
      views.push_back(ds);
    }
  }
  if (views.empty() && opts.against != nullptr) {
    views.push_back(opts.against);
  }

  std::map<uint32_t, ProgramView> cache;
  // reloc index -> would an exists-guard on this field be statically false?
  std::map<int32_t, bool> static_false;

  for (const Finding& finding : analysis.findings) {
    Remediation item;
    switch (finding.kind) {
      case FindingKind::kRawOffsetDeref:
        item.reason =
            "no CO-RE relocation; a guard cannot be synthesized without "
            "source-level CO-RE conversion";
        break;
      case FindingKind::kUnknownHelper:
        item.reason = "helper availability cannot be patched into the object";
        break;
      case FindingKind::kUnreachableReloc:
        item.reason = "dead code against the dataset";
        break;
      case FindingKind::kUnguardedReloc: {
        if (finding.reloc_index < 0 ||
            static_cast<size_t>(finding.reloc_index) >= object.relocs.size()) {
          item.reason = "relocation is not bound to an instruction";
          break;
        }
        const CoreReloc& reloc = object.relocs[finding.reloc_index];
        if (reloc.prog_index == kRelocUnbound ||
            reloc.prog_index >= object.programs.size()) {
          item.reason = "relocation is not bound to an instruction";
          break;
        }
        const ProgramView& view = ViewOf(object, reloc.prog_index, cache);
        if (view.cfg.dangling_edges > 0) {
          item.reason = "program has unresolvable jump targets";
          break;
        }
        auto insn_it = view.insn_at_off.find(finding.insn_off);
        if (insn_it == view.insn_at_off.end()) {
          item.reason = "relocation is not bound to an instruction";
          break;
        }
        const RelocVerdict& verdict = analysis.relocs[finding.reloc_index];
        if (!views.empty()) {
          auto sf = static_false.find(finding.reloc_index);
          if (sf == static_false.end()) {
            bool absent_everywhere = true;
            for (const Dataset* ds : views) {
              auto cells = ds->CheckField(verdict.struct_name, verdict.field_name,
                                          verdict.expected_type, /*guarded=*/false);
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
            sf = static_false.emplace(finding.reloc_index, absent_everywhere).first;
          }
          if (sf->second) {
            item.reason = "an exists-guard would be statically false (dead code)";
            break;
          }
        }
        int scratch = PickScratchRegister(view.live_in[insn_it->second]);
        if (scratch < 0) {
          item.reason = "no dead register at the insertion point";
          break;
        }
        item.fixable = true;
        item.prog_index = reloc.prog_index;
        item.insn_off = finding.insn_off;
        item.scratch_reg = scratch;
        item.reloc_index = finding.reloc_index;
        item.struct_name = verdict.struct_name;
        item.field_name = verdict.field_name;
        size_t slots = object.programs[reloc.prog_index].insns[insn_it->second].Slots();
        item.guard = StrFormat("r%d = field_exists(%s::%s); if r%d == 0 goto +%zu",
                               scratch, verdict.struct_name.c_str(),
                               verdict.field_name.c_str(), scratch, slots);
        break;
      }
    }
    plan.items.push_back(std::move(item));
  }
  return plan;
}

RemediationVerification VerifyRemediation(const ObjectAnalysis& before,
                                          const RemediationPlan& plan,
                                          const ObjectAnalysis& after) {
  RemediationVerification v;
  v.findings_before = before.findings.size();
  v.findings_after = after.findings.size();

  // Multisets keyed by (kind, program, detail).
  std::map<std::string, size_t> targeted;
  std::map<std::string, size_t> expected_remaining;
  for (size_t i = 0; i < before.findings.size(); ++i) {
    bool is_targeted = i < plan.items.size() && plan.items[i].fixable;
    if (is_targeted) {
      ++targeted[FindingKey(before.findings[i])];
      ++v.targeted;
    } else {
      ++expected_remaining[FindingKey(before.findings[i])];
    }
  }
  for (const Finding& finding : after.findings) {
    std::string key = FindingKey(finding);
    auto it = expected_remaining.find(key);
    if (it != expected_remaining.end() && it->second > 0) {
      --it->second;
      continue;
    }
    auto t = targeted.find(key);
    if (t != targeted.end() && t->second > 0) {
      --t->second;
      ++v.targeted_remaining;
      continue;
    }
    ++v.new_findings;
  }
  v.ok = v.targeted_remaining == 0 && v.new_findings == 0;
  return v;
}

std::string RemediationToJson(const ObjectAnalysis& analysis,
                              const RemediationPlan& plan,
                              const RemediationVerification* verification) {
  std::string out;
  obs::JsonWriter writer(out);
  WriteAnalysisHead(writer, kRemediationSchema, analysis);
  // One remediation per line, closed as AnalysisToJson closes its arrays.
  writer.Break(2).Key("remediations").BeginArray();
  for (size_t i = 0; i < plan.items.size(); ++i) {
    const Remediation& item = plan.items[i];
    writer.Break(4).BeginObject().Key("finding").BeginObject();
    WriteFindingMembers(writer, analysis.findings[i]);
    writer.EndObject().Key("fixable").Bool(item.fixable);
    if (item.fixable) {
      writer.Key("insn_off").Uint(item.insn_off).Key("scratch_reg").Int(item.scratch_reg);
      writer.Key("struct").String(item.struct_name).Key("field").String(item.field_name);
      writer.Key("guard").String(item.guard);
    } else {
      writer.Key("reason").String(item.reason);
    }
    writer.EndObject().Break(2);
  }
  writer.EndArray().Break(2).Key("verification");
  if (verification != nullptr) {
    writer.BeginObject().Key("findings_before").Uint(verification->findings_before);
    writer.Key("targeted").Uint(verification->targeted);
    writer.Key("findings_after").Uint(verification->findings_after);
    writer.Key("targeted_remaining").Uint(verification->targeted_remaining);
    writer.Key("new_findings").Uint(verification->new_findings);
    writer.Key("ok").Bool(verification->ok).EndObject();
  } else {
    writer.Null();
  }
  writer.Break(2).Key("summary").BeginObject().Key("findings").Uint(plan.items.size());
  writer.Key("fixable").Uint(plan.FixableCount());
  writer.Key("unfixable").Uint(plan.items.size() - plan.FixableCount());
  writer.EndObject().Break(0).EndObject();
  out += '\n';
  return out;
}

}  // namespace depsurf
