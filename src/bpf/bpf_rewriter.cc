#include "src/bpf/bpf_rewriter.h"

#include <algorithm>
#include <cstddef>
#include <map>
#include <string>
#include <utility>

#include "src/bpf/bpf_insn.h"
#include "src/util/bucket_index.h"
#include "src/util/str_util.h"

namespace depsurf {

namespace {

// Slots a guard occupies: LD_IMM64 (2) + conditional jump (1).
constexpr size_t kGuardSlots = 3;
constexpr uint32_t kGuardBytes = kGuardSlots * 8;

}  // namespace

Status InsertFieldExistsGuards(BpfObject& object,
                               std::vector<GuardInsertion> insertions,
                               DiagnosticLedger* ledger) {
  auto fail = [&](std::string msg) -> Status {
    if (ledger != nullptr) {
      ledger->Add(DiagSeverity::kDegraded, DiagSubsystem::kBpf,
                  ErrorCode::kInvalidArgument, msg);
    }
    return Status(ErrorCode::kInvalidArgument, std::move(msg));
  };

  if (insertions.empty()) {
    return Status::Ok();
  }
  for (const GuardInsertion& ins : insertions) {
    if (ins.prog_index >= object.programs.size()) {
      return fail(StrFormat("guard insertion names program %u of %zu",
                            ins.prog_index, object.programs.size()));
    }
    if (ins.reloc_index >= object.relocs.size()) {
      return fail(StrFormat("guard insertion names relocation %u of %zu",
                            ins.reloc_index, object.relocs.size()));
    }
    if (ins.scratch_reg > 9) {
      return fail(StrFormat("guard insertion scratch register r%u is not a "
                            "general-purpose register",
                            ins.scratch_reg));
    }
  }
  std::sort(insertions.begin(), insertions.end(),
            [](const GuardInsertion& a, const GuardInsertion& b) {
              return std::pair(a.prog_index, a.insn_off) <
                     std::pair(b.prog_index, b.insn_off);
            });
  for (size_t i = 1; i < insertions.size(); ++i) {
    if (insertions[i].prog_index == insertions[i - 1].prog_index &&
        insertions[i].insn_off == insertions[i - 1].insn_off) {
      return fail(StrFormat("duplicate guard insertion at program %u insn_off %u",
                            insertions[i].prog_index, insertions[i].insn_off));
    }
  }

  // All-or-nothing: rewrite copies, commit only if every step succeeds.
  const BucketIndex by_program =
      BuildBucketIndex(object.programs.size(), object.relocs.size(),
                       [&](size_t r) { return object.relocs[r].prog_index; });
  std::vector<std::vector<BpfInsn>> new_streams(object.programs.size());
  std::vector<CoreReloc> new_relocs = object.relocs;
  std::vector<CoreReloc> appended;
  appended.reserve(insertions.size());

  size_t cursor = 0;
  for (uint32_t p = 0; p < object.programs.size(); ++p) {
    size_t begin = cursor;
    while (cursor < insertions.size() && insertions[cursor].prog_index == p) {
      ++cursor;
    }
    if (cursor == begin) {
      continue;  // program untouched
    }
    const std::vector<BpfInsn>& insns = object.programs[p].insns;
    const std::string& pname = object.programs[p].name;

    // Slot layout of the original stream.
    std::vector<size_t> old_slot(insns.size(), 0);
    std::map<size_t, size_t> slot_to_insn;  // boundary slot -> insn index
    size_t total_slots = 0;
    for (size_t i = 0; i < insns.size(); ++i) {
      old_slot[i] = total_slots;
      slot_to_insn[total_slots] = i;
      total_slots += insns[i].Slots();
    }

    // Resolve each insertion's byte offset to an instruction boundary.
    std::vector<bool> has(insns.size(), false);
    std::vector<uint8_t> scratch(insns.size(), 0);
    for (size_t k = begin; k < cursor; ++k) {
      const GuardInsertion& ins = insertions[k];
      auto it = ins.insn_off % 8 == 0 ? slot_to_insn.find(ins.insn_off / 8)
                                      : slot_to_insn.end();
      if (it == slot_to_insn.end()) {
        return fail(StrFormat("%s: guard insertion at byte %u is not on an "
                              "instruction boundary",
                              pname.c_str(), ins.insn_off));
      }
      has[it->second] = true;
      scratch[it->second] = ins.scratch_reg;
    }
    const size_t inserted_here = cursor - begin;

    // New slot of every original instruction, and of the guard (when any)
    // that now precedes it.
    std::vector<size_t> new_slot(insns.size(), 0);
    size_t shift = 0;
    for (size_t i = 0; i < insns.size(); ++i) {
      if (has[i]) {
        shift += kGuardSlots;
      }
      new_slot[i] = old_slot[i] + shift;
    }
    const size_t new_total_slots = total_slots + inserted_here * kGuardSlots;

    // Jump targets route through an inserted guard: an edge that reached the
    // covered instruction must still be forced through its exists-check, or
    // the guard would no longer dominate the access.
    auto new_target_slot = [&](size_t old_target) -> size_t {
      if (old_target == total_slots) {
        return new_total_slots;
      }
      size_t t = slot_to_insn.at(old_target);
      return has[t] ? new_slot[t] - kGuardSlots : new_slot[t];
    };

    // Emit the rewritten stream, re-patching every jump displacement.
    std::vector<BpfInsn> out;
    out.reserve(insns.size() + inserted_here * 2);
    for (size_t i = 0; i < insns.size(); ++i) {
      if (has[i]) {
        out.push_back(LoadImm64(scratch[i], 1));
        out.push_back(JumpEqImm(scratch[i], 0,
                                static_cast<int16_t>(insns[i].Slots())));
      }
      BpfInsn insn = insns[i];
      if (insn.IsJump()) {
        int64_t old_target =
            static_cast<int64_t>(old_slot[i]) + 1 + insn.offset;
        if (old_target < 0 || old_target > static_cast<int64_t>(total_slots) ||
            (old_target < static_cast<int64_t>(total_slots) &&
             slot_to_insn.find(static_cast<size_t>(old_target)) ==
                 slot_to_insn.end())) {
          return fail(StrFormat("%s: jump at slot %zu targets slot %lld, "
                                "which is not an instruction boundary",
                                pname.c_str(), old_slot[i],
                                static_cast<long long>(old_target)));
        }
        int64_t new_delta =
            static_cast<int64_t>(new_target_slot(static_cast<size_t>(old_target))) -
            (static_cast<int64_t>(new_slot[i]) + 1);
        if (new_delta < INT16_MIN || new_delta > INT16_MAX) {
          return fail(StrFormat("%s: re-patched jump at slot %zu needs delta "
                                "%lld, beyond the 16-bit displacement range",
                                pname.c_str(), new_slot[i],
                                static_cast<long long>(new_delta)));
        }
        insn.offset = static_cast<int16_t>(new_delta);
      }
      out.push_back(insn);
    }

    // Shift the .BTF.ext view: every relocation bound to this program moves
    // with the instruction it patches.
    for (size_t k = by_program.begin[p]; k < by_program.begin[p + 1]; ++k) {
      CoreReloc& reloc = new_relocs[by_program.order[k]];
      if (reloc.insn_off % 8 == 0 &&
          slot_to_insn.count(reloc.insn_off / 8) != 0) {
        reloc.insn_off =
            static_cast<uint32_t>(new_slot[slot_to_insn.at(reloc.insn_off / 8)] * 8);
      } else if (reloc.insn_off >= total_slots * 8) {
        // Bound past the stream (salvaged prefix): keep it past the stream.
        reloc.insn_off += static_cast<uint32_t>(inserted_here) * kGuardBytes;
      } else {
        return fail(StrFormat("%s: relocation bound mid-instruction at byte %u "
                              "cannot be shifted",
                              pname.c_str(), reloc.insn_off));
      }
    }

    // One field_exists record per guard, bound at its LD_IMM64 and naming
    // the same access chain as the relocation it protects.
    for (size_t k = begin; k < cursor; ++k) {
      const GuardInsertion& ins = insertions[k];
      size_t i = slot_to_insn.at(ins.insn_off / 8);
      const CoreReloc& covered = object.relocs[ins.reloc_index];
      CoreReloc guard;
      guard.root_type_id = covered.root_type_id;
      guard.access_str = covered.access_str;
      guard.kind = CoreRelocKind::kFieldExists;
      guard.prog_index = p;
      guard.insn_off = static_cast<uint32_t>((new_slot[i] - kGuardSlots) * 8);
      appended.push_back(guard);
    }

    new_streams[p] = std::move(out);
  }

  // Commit.
  for (uint32_t p = 0; p < object.programs.size(); ++p) {
    if (!new_streams[p].empty()) {
      object.programs[p].insns = std::move(new_streams[p]);
    }
  }
  new_relocs.insert(new_relocs.end(), appended.begin(), appended.end());
  object.relocs = std::move(new_relocs);
  return Status::Ok();
}

}  // namespace depsurf
