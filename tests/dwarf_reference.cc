#include "tests/dwarf_reference.h"

#include "src/util/leb128.h"
#include "src/util/str_util.h"

namespace depsurf {

Result<DwarfDocument> DecodeDwarf(const std::vector<uint8_t>& abbrev,
                                  const std::vector<uint8_t>& info, Endian endian) {
  struct AbbrevEntry {
    uint16_t tag = 0;
    bool has_children = false;
    std::vector<std::pair<DwAttr, DwForm>> attrs;
  };

  // Parse the abbreviation table.
  std::vector<AbbrevEntry> entries;  // index = code - 1
  {
    ByteReader r(abbrev, endian);
    while (true) {
      DEPSURF_ASSIGN_OR_RETURN(code, ReadUleb128(r));
      if (code == 0) {
        break;
      }
      if (code != entries.size() + 1) {
        return Error(ErrorCode::kMalformedData, "abbrev codes not sequential")
            .WithOffset(r.offset());
      }
      AbbrevEntry entry;
      DEPSURF_ASSIGN_OR_RETURN(tag, ReadUleb128(r));
      entry.tag = static_cast<uint16_t>(tag);
      DEPSURF_ASSIGN_OR_RETURN(has_children, r.ReadU8());
      entry.has_children = has_children != 0;
      while (true) {
        DEPSURF_ASSIGN_OR_RETURN(attr, ReadUleb128(r));
        DEPSURF_ASSIGN_OR_RETURN(form, ReadUleb128(r));
        if (attr == 0 && form == 0) {
          break;
        }
        DwForm parsed_form = static_cast<DwForm>(form);
        DwAttr parsed_attr = static_cast<DwAttr>(attr);
        if (parsed_form != FormOf(parsed_attr)) {
          return Error(ErrorCode::kMalformedData,
                       StrFormat("attr 0x%x has unexpected form %u", (unsigned)attr,
                                 (unsigned)form))
              .WithOffset(r.offset());
        }
        entry.attrs.emplace_back(parsed_attr, parsed_form);
      }
      entries.push_back(std::move(entry));
    }
  }

  // Parse the info stream.
  DwarfDocument document;
  ByteReader r(info, endian);
  std::vector<uint32_t> stack;  // parent DIE indices

  while (!r.AtEnd()) {
    DEPSURF_ASSIGN_OR_RETURN(code, ReadUleb128(r));
    if (code == 0) {
      if (stack.empty()) {
        return Error(ErrorCode::kMalformedData, "end-of-children with empty stack")
            .WithOffset(r.offset());
      }
      stack.pop_back();
      continue;
    }
    if (code > entries.size()) {
      return Error(ErrorCode::kMalformedData, "abbrev code out of range")
          .WithOffset(r.offset());
    }
    const AbbrevEntry& entry = entries[code - 1];
    uint32_t parent = stack.empty() ? 0 : stack.back();
    uint32_t die_index = document.AddDie(static_cast<DwTag>(entry.tag), parent);
    for (const auto& [attr, form] : entry.attrs) {
      switch (form) {
        case DwForm::kString: {
          DEPSURF_ASSIGN_OR_RETURN(s, r.ReadCString());
          document.SetString(die_index, attr, std::move(s));
          break;
        }
        case DwForm::kUdata:
        case DwForm::kRef: {
          DEPSURF_ASSIGN_OR_RETURN(n, ReadUleb128(r));
          document.SetNumber(die_index, attr, n);
          break;
        }
        case DwForm::kFlag: {
          DEPSURF_RETURN_IF_ERROR(r.Skip(1));
          document.SetFlag(die_index, attr);
          break;
        }
        case DwForm::kAddr: {
          DEPSURF_ASSIGN_OR_RETURN(n, r.ReadU64());
          document.SetNumber(die_index, attr, n);
          break;
        }
      }
    }
    if (entry.has_children) {
      stack.push_back(die_index);
    }
  }
  if (!stack.empty()) {
    return Error(ErrorCode::kMalformedData, "unterminated children list")
        .WithOffset(r.offset());
  }
  // Validate references point at real DIEs.
  Status ref_status = Status::Ok();
  document.WalkAll([&](uint32_t, const Die& die) {
    for (const DwarfAttrValue& v : die.attrs) {
      if (FormOf(v.attr) == DwForm::kRef && v.num > document.num_dies()) {
        ref_status = Status(ErrorCode::kMalformedData, "DIE reference out of range");
      }
    }
  });
  DEPSURF_RETURN_IF_ERROR(ref_status);
  return document;
}

Result<InstanceMap> CollectFunctionInstances(const DwarfDocument& document) {
  // Pass 1: record every subprogram in the result, and its slot in a table
  // indexed by DIE index. The slot points at the result map's vector, which
  // stays put as the map grows (map nodes are stable).
  struct Slot {
    std::vector<OwnedInstance>* list = nullptr;
    size_t index = 0;
  };
  InstanceMap instances;
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
        it = instances.emplace_hint(it, name->str, std::vector<OwnedInstance>());
      }
      std::vector<OwnedInstance>& list = it->second;
      slots[child] = Slot{&list, list.size()};
      OwnedInstance& inst = list.emplace_back();
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
        OwnedInstance& target = (*slot.list)[slot.index];
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

Result<InstanceMap> ToInstanceMap(const Result<FunctionInstances>& flat) {
  if (!flat.ok()) {
    return flat.error();
  }
  InstanceMap out;
  std::string_view previous;
  for (const FunctionInstance& inst : flat->instances) {
    if (inst.name < previous) {
      return Error(ErrorCode::kInternal,
                   "instances out of name order at " + std::string(inst.name));
    }
    previous = inst.name;
    OwnedInstance& owned = out[std::string(inst.name)].emplace_back();
    owned.name = inst.name;
    owned.decl_file = inst.decl_file;
    owned.decl_line = inst.decl_line;
    owned.external = inst.external;
    owned.inline_attr = inst.inline_attr;
    owned.low_pc = inst.low_pc;
    owned.caller_inline.assign(inst.caller_inline.begin(), inst.caller_inline.end());
    owned.caller_func.assign(inst.caller_func.begin(), inst.caller_func.end());
  }
  return out;
}

Result<InstanceMap> ReferenceFunctionInstances(const std::vector<uint8_t>& abbrev,
                                               const std::vector<uint8_t>& info, Endian endian) {
  DEPSURF_ASSIGN_OR_RETURN(document, DecodeDwarf(abbrev, info, endian));
  return CollectFunctionInstances(document);
}

std::string InstanceMapDifference(const Result<InstanceMap>& a, const Result<InstanceMap>& b) {
  auto outcome = [](const Result<InstanceMap>& r) {
    return r.ok() ? StrFormat("%zu names", r->size()) : r.error().ToString();
  };
  if (!a.ok() || !b.ok()) {
    if (a.ok() == b.ok() && a.error().ToString() == b.error().ToString()) {
      return "";
    }
    return outcome(a) + " vs " + outcome(b);
  }
  if (a->size() != b->size()) {
    return outcome(a) + " vs " + outcome(b);
  }
  for (auto ia = a->begin(), ib = b->begin(); ia != a->end(); ++ia, ++ib) {
    if (ia->first != ib->first) {
      return "name " + ia->first + " vs " + ib->first;
    }
    if (ia->second.size() != ib->second.size()) {
      return StrFormat("%s: %zu vs %zu instances", ia->first.c_str(), ia->second.size(),
                       ib->second.size());
    }
    for (size_t i = 0; i < ia->second.size(); ++i) {
      const OwnedInstance& x = ia->second[i];
      const OwnedInstance& y = ib->second[i];
      if (x.name != y.name || x.decl_file != y.decl_file || x.decl_line != y.decl_line ||
          x.external != y.external || x.inline_attr != y.inline_attr || x.low_pc != y.low_pc ||
          x.caller_inline != y.caller_inline || x.caller_func != y.caller_func) {
        return StrFormat("%s: instance %zu differs", ia->first.c_str(), i);
      }
    }
  }
  return "";
}

DwarfDocument RandomDwarfForest(Prng& prng) {
  DwarfDocument doc;
  size_t num_cus = 1 + prng.NextBelow(4);
  std::vector<uint32_t> subprograms;
  for (size_t cu_index = 0; cu_index < num_cus; ++cu_index) {
    uint32_t cu = doc.AddDie(DwTag::kCompileUnit, 0);
    doc.SetString(cu, DwAttr::kName, StrFormat("dir/file%zu.c", cu_index));
    size_t num_subs = prng.NextBelow(12);
    for (size_t s = 0; s < num_subs; ++s) {
      uint32_t sub = doc.AddDie(DwTag::kSubprogram, cu);
      doc.SetString(sub, DwAttr::kName, StrFormat("fn_%zu_%zu", cu_index, s));
      doc.SetNumber(sub, DwAttr::kDeclLine, prng.NextBelow(5000));
      if (prng.NextBool(0.5)) {
        doc.SetFlag(sub, DwAttr::kExternal);
      }
      if (prng.NextBool(0.8)) {
        doc.SetNumber(sub, DwAttr::kLowPc, prng.NextU64());
      }
      if (prng.NextBool(0.3) && !subprograms.empty()) {
        uint32_t site = doc.AddDie(DwTag::kInlinedSubroutine, sub);
        doc.SetNumber(site, DwAttr::kAbstractOrigin,
                      subprograms[prng.NextBelow(subprograms.size())]);
      }
      if (prng.NextBool(0.3) && !subprograms.empty()) {
        uint32_t site = doc.AddDie(DwTag::kCallSite, sub);
        doc.SetNumber(site, DwAttr::kCallOrigin,
                      subprograms[prng.NextBelow(subprograms.size())]);
      }
      subprograms.push_back(sub);
    }
  }
  return doc;
}

}  // namespace depsurf
