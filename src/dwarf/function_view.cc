#include "src/dwarf/function_view.h"

namespace depsurf {

Result<std::map<std::string, std::vector<FunctionInstance>>> CollectFunctionInstances(
    const DwarfDocument& document) {
  // Pass 1: record every subprogram in the result, and its slot in a table
  // indexed by DIE index. The slot points at the result map's vector, which
  // stays put as the map grows (map nodes are stable).
  struct Slot {
    std::vector<FunctionInstance>* list = nullptr;
    size_t index = 0;
  };
  std::map<std::string, std::vector<FunctionInstance>> instances;
  std::vector<Slot> slots(static_cast<size_t>(document.num_dies()) + 1);
  static const std::string kNoName;

  for (uint32_t root : document.roots()) {
    const Die& cu = document.die(root);
    if (cu.tag != DwTag::kCompileUnit) {
      return Error(ErrorCode::kMalformedData, "top-level DIE is not a compile unit");
    }
    const DwarfAttrValue* cu_name = cu.Find(DwAttr::kName);
    const std::string& cu_file = cu_name != nullptr ? cu_name->str : kNoName;
    for (uint32_t child : cu.children) {
      const Die& die = document.die(child);
      if (die.tag != DwTag::kSubprogram) {
        continue;
      }
      const DwarfAttrValue* name = die.Find(DwAttr::kName);
      if (name == nullptr || name->str.empty()) {
        return Error(ErrorCode::kMalformedData, "subprogram without a name");
      }
      auto it = instances.lower_bound(name->str);
      if (it == instances.end() || it->first != name->str) {
        it = instances.emplace_hint(it, name->str, std::vector<FunctionInstance>());
      }
      std::vector<FunctionInstance>& list = it->second;
      slots[child] = Slot{&list, list.size()};
      FunctionInstance& inst = list.emplace_back();
      inst.name = it->first;
      const DwarfAttrValue* decl_file = die.Find(DwAttr::kDeclFile);
      inst.decl_file = decl_file != nullptr ? decl_file->str : cu_file;
      inst.decl_line = static_cast<uint32_t>(die.GetNumber(DwAttr::kDeclLine).value_or(0));
      inst.external = die.GetFlag(DwAttr::kExternal);
      inst.inline_attr =
          static_cast<DwInl>(die.GetNumber(DwAttr::kInline).value_or(0));
      if (auto pc = die.GetNumber(DwAttr::kLowPc); pc.has_value()) {
        inst.low_pc = *pc;
      }
    }
  }

  // Pass 2: attribute inlined_subroutine / call_site records to their
  // origin instances.
  Status bad = Status::Ok();
  for (uint32_t root : document.roots()) {
    const Die& cu = document.die(root);
    const DwarfAttrValue* cu_name = cu.Find(DwAttr::kName);
    const std::string& cu_file = cu_name != nullptr ? cu_name->str : kNoName;
    for (uint32_t sub_index : cu.children) {
      const Die& sub = document.die(sub_index);
      if (sub.tag != DwTag::kSubprogram || sub.children.empty()) {
        continue;
      }
      // Pass 1 rejected unnamed subprograms.
      const std::string caller = cu_file + ":" + sub.Find(DwAttr::kName)->str;
      document.Walk(sub_index, [&](uint32_t index, const Die& die) {
        if (index == sub_index) {
          return;
        }
        uint64_t origin = 0;
        bool is_inline_site = false;
        if (die.tag == DwTag::kInlinedSubroutine) {
          origin = die.GetNumber(DwAttr::kAbstractOrigin).value_or(0);
          is_inline_site = true;
        } else if (die.tag == DwTag::kCallSite) {
          origin = die.GetNumber(DwAttr::kCallOrigin).value_or(0);
        } else {
          return;
        }
        // Compare the full 64-bit reference before indexing: narrowing it
        // first would let (1 << 32) | i resolve to DIE i.
        if (origin >= slots.size() || slots[origin].list == nullptr) {
          bad = Status(ErrorCode::kMalformedData, "call origin is not a subprogram");
          return;
        }
        const Slot& slot = slots[origin];
        FunctionInstance& target = (*slot.list)[slot.index];
        if (is_inline_site) {
          target.caller_inline.push_back(caller);
        } else {
          target.caller_func.push_back(caller);
        }
      });
    }
  }
  DEPSURF_RETURN_IF_ERROR(bad);
  return instances;
}

}  // namespace depsurf
