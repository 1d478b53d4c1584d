#include "src/dwarf/function_view.h"

#include <algorithm>
#include <string_view>

#include "src/obs/context.h"
#include "src/obs/metrics.h"
#include "src/obs/span.h"
#include "src/util/leb128.h"
#include "src/util/str_util.h"

namespace depsurf {

namespace {

// The attributes the reader keeps; every other one is read and dropped.
enum Field : uint8_t {
  kSkip,
  kName,
  kDeclFile,
  kDeclLine,
  kExternal,
  kInline,
  kLowPc,
  kAbstractOrigin,
  kCallOrigin,
  kNumFields,
};

Field FieldOf(DwAttr attr) {
  switch (attr) {
    case DwAttr::kName:
      return kName;
    case DwAttr::kDeclFile:
      return kDeclFile;
    case DwAttr::kDeclLine:
      return kDeclLine;
    case DwAttr::kExternal:
      return kExternal;
    case DwAttr::kInline:
      return kInline;
    case DwAttr::kLowPc:
      return kLowPc;
    case DwAttr::kAbstractOrigin:
      return kAbstractOrigin;
    case DwAttr::kCallOrigin:
      return kCallOrigin;
  }
  return kSkip;
}

struct AbbrevAttr {
  DwForm form;
  Field field;
};

struct Abbrev {
  uint16_t tag = 0;
  bool has_children = false;
  std::vector<AbbrevAttr> attrs;
};

// The abbreviation table, index = code - 1. Codes must run 1, 2, ... and
// each attribute must use its fixed form.
Result<std::vector<Abbrev>> ReadAbbrevTable(ByteReader& r) {
  std::vector<Abbrev> entries;
  while (true) {
    DEPSURF_ASSIGN_OR_RETURN(code, ReadUleb128(r));
    if (code == 0) {
      return entries;
    }
    if (code != entries.size() + 1) {
      return Error(ErrorCode::kMalformedData, "abbrev codes not sequential")
          .WithOffset(r.offset());
    }
    Abbrev entry;
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
      entry.attrs.push_back(AbbrevAttr{parsed_form, FieldOf(parsed_attr)});
    }
    entries.push_back(std::move(entry));
  }
}

// The kept attributes of one DIE. The first occurrence of each counts.
struct DieFields {
  uint32_t seen = 0;
  std::string_view str[kNumFields];
  uint64_t num[kNumFields] = {};

  bool Has(Field field) const { return (seen & (1u << field)) != 0; }
  // True, and marks `field` seen, the first time only.
  bool Claim(Field field) {
    if (field == kSkip || Has(field)) {
      return false;
    }
    seen |= 1u << field;
    return true;
  }
  std::string_view Str(Field field) const { return Has(field) ? str[field] : std::string_view(); }
  uint64_t Num(Field field) const { return Has(field) ? num[field] : 0; }
};

// A named subprogram under a top-level compile unit, as the pass reads it.
// Its strings view the info section.
struct InstanceRecord {
  uint64_t die;  // DIE index
  std::string_view name;
  std::string_view decl_file;
  uint64_t decl_line;
  uint64_t inline_attr;
  std::optional<uint64_t> low_pc;
  bool external;
  size_t inline_sites = 0;  // sites resolved to this instance, by kind
  size_t call_sites = 0;
};

// An inlined_subroutine or call_site below an instance, resolved after the
// pass because its origin may come later in the stream.
struct Site {
  uint64_t origin;
  size_t caller;  // index into the caller strings
  bool is_inline;
  size_t target = 0;  // index of the origin's InstanceRecord, once resolved
};

constexpr size_t kNone = static_cast<size_t>(-1);

}  // namespace

Result<std::map<std::string, std::vector<FunctionInstance>>> ReadFunctionInstances(
    ByteReader abbrev, ByteReader info) {
  obs::ScopedSpan span("dwarf.decode");
  span.AddAttr("abbrev_bytes", static_cast<uint64_t>(abbrev.size()));
  span.AddAttr("info_bytes", static_cast<uint64_t>(info.size()));
  DEPSURF_ASSIGN_OR_RETURN(abbrevs, ReadAbbrevTable(abbrev));

  std::vector<InstanceRecord> found;  // in DIE order
  std::vector<Site> sites;
  std::vector<std::string> callers;
  // The first shape error, reported only once the bytes, the nesting and
  // the references have checked out.
  std::optional<Error> shape_error;

  uint64_t dies = 0;     // DIEs read; a DIE's index is its 1-based position
  uint64_t depth = 0;    // open parents
  uint64_t max_ref = 0;  // largest reference of any form-ref attribute
  bool root_is_cu = false;
  std::string_view cu_name;       // first name of the current top-level DIE
  size_t owner = kNone;           // instance whose subtree is being read
  size_t owner_caller = kNone;    // its "file:caller" string, once built
  DieFields die;                  // reset per DIE: `seen` guards every read
  ByteReader& r = info;
  while (!r.AtEnd()) {
    DEPSURF_ASSIGN_OR_RETURN(code, ReadUleb128(r));
    if (code == 0) {
      if (depth == 0) {
        return Error(ErrorCode::kMalformedData, "end-of-children with empty stack")
            .WithOffset(r.offset());
      }
      --depth;
      continue;
    }
    if (code > abbrevs.size()) {
      return Error(ErrorCode::kMalformedData, "abbrev code out of range")
          .WithOffset(r.offset());
    }
    const Abbrev& entry = abbrevs[code - 1];
    ++dies;
    die.seen = 0;
    for (const AbbrevAttr& attr : entry.attrs) {
      switch (attr.form) {
        case DwForm::kString: {
          DEPSURF_ASSIGN_OR_RETURN(s, r.ReadCStringView());
          if (die.Claim(attr.field)) {
            die.str[attr.field] = s;
          }
          break;
        }
        case DwForm::kUdata:
        case DwForm::kRef: {
          DEPSURF_ASSIGN_OR_RETURN(n, ReadUleb128(r));
          if (attr.form == DwForm::kRef) {
            max_ref = std::max(max_ref, n);
          }
          if (die.Claim(attr.field)) {
            die.num[attr.field] = n;
          }
          break;
        }
        case DwForm::kFlag: {
          DEPSURF_RETURN_IF_ERROR(r.Skip(1));
          die.Claim(attr.field);
          break;
        }
        case DwForm::kAddr: {
          DEPSURF_ASSIGN_OR_RETURN(n, r.ReadU64());
          if (die.Claim(attr.field)) {
            die.num[attr.field] = n;
          }
          break;
        }
      }
    }
    const uint64_t level = depth;
    if (entry.has_children) {
      ++depth;
    }
    const DwTag tag = static_cast<DwTag>(entry.tag);
    if (level == 0) {
      root_is_cu = tag == DwTag::kCompileUnit;
      cu_name = die.Str(kName);
      owner = kNone;
      if (!root_is_cu && !shape_error.has_value()) {
        shape_error = Error(ErrorCode::kMalformedData, "top-level DIE is not a compile unit");
      }
    } else if (level == 1) {
      owner = kNone;
      if (!root_is_cu || tag != DwTag::kSubprogram) {
        continue;
      }
      std::string_view name = die.Str(kName);
      if (name.empty()) {
        if (!shape_error.has_value()) {
          shape_error = Error(ErrorCode::kMalformedData, "subprogram without a name");
        }
        continue;
      }
      owner = found.size();
      owner_caller = kNone;
      found.push_back(InstanceRecord{dies, name,
                                     die.Has(kDeclFile) ? die.str[kDeclFile] : cu_name,
                                     die.Num(kDeclLine), die.Num(kInline),
                                     die.Has(kLowPc) ? std::optional(die.num[kLowPc])
                                                     : std::nullopt,
                                     die.Has(kExternal)});
    } else if (owner != kNone &&
               (tag == DwTag::kInlinedSubroutine || tag == DwTag::kCallSite)) {
      if (owner_caller == kNone) {
        std::string_view sub = found[owner].name;
        std::string& caller = callers.emplace_back();
        caller.reserve(cu_name.size() + 1 + sub.size());
        caller.append(cu_name).append(":").append(sub);
        owner_caller = callers.size() - 1;
      }
      bool is_inline = tag == DwTag::kInlinedSubroutine;
      sites.push_back(
          Site{die.Num(is_inline ? kAbstractOrigin : kCallOrigin), owner_caller, is_inline});
    }
  }
  if (depth != 0) {
    return Error(ErrorCode::kMalformedData, "unterminated children list")
        .WithOffset(r.offset());
  }
  if (max_ref > dies) {
    return Error(ErrorCode::kMalformedData, "DIE reference out of range");
  }
  span.AddAttr("abbrevs", static_cast<uint64_t>(abbrevs.size()));
  span.AddAttr("dies", dies);
  // No static counter caching: the current context differs per image in
  // report-mode builds, so pointers must be re-resolved each decode.
  obs::MetricsRegistry& metrics = obs::Context::Current().metrics();
  metrics.Counter("dwarf.documents_decoded")->fetch_add(1, std::memory_order_relaxed);
  metrics.Counter("dwarf.abbrevs_decoded")
      ->fetch_add(abbrevs.size(), std::memory_order_relaxed);
  metrics.Counter("dwarf.dies_decoded")->fetch_add(dies, std::memory_order_relaxed);
  metrics.Counter("dwarf.bytes_decoded")
      ->fetch_add(abbrev.size() + info.size(), std::memory_order_relaxed);
  if (shape_error.has_value()) {
    return *std::move(shape_error);
  }

  // Resolve every origin first, so each caller list is allocated once.
  for (Site& site : sites) {
    auto it = std::lower_bound(
        found.begin(), found.end(), site.origin,
        [](const InstanceRecord& record, uint64_t die) { return record.die < die; });
    if (it == found.end() || it->die != site.origin) {
      return Error(ErrorCode::kMalformedData, "call origin is not a subprogram");
    }
    site.target = static_cast<size_t>(it - found.begin());
    ++(site.is_inline ? it->inline_sites : it->call_sites);
  }

  // Group by name, keeping DIE order within a name; each group lands at the
  // end of the map.
  std::vector<std::pair<std::string_view, size_t>> by_name;
  by_name.reserve(found.size());
  for (size_t i = 0; i < found.size(); ++i) {
    by_name.emplace_back(found[i].name, i);
  }
  std::sort(by_name.begin(), by_name.end(), [](const auto& a, const auto& b) {
    int c = a.first.compare(b.first);
    return c != 0 ? c < 0 : a.second < b.second;
  });
  std::map<std::string, std::vector<FunctionInstance>> instances;
  std::vector<FunctionInstance*> built(found.size());
  for (size_t begin = 0; begin < by_name.size();) {
    std::string_view name = by_name[begin].first;
    size_t end = begin + 1;
    while (end < by_name.size() && by_name[end].first == name) {
      ++end;
    }
    std::vector<FunctionInstance>& list =
        instances.emplace_hint(instances.end(), name, std::vector<FunctionInstance>())->second;
    list.reserve(end - begin);
    for (; begin < end; ++begin) {
      const InstanceRecord& record = found[by_name[begin].second];
      FunctionInstance& inst = list.emplace_back();
      inst.name = name;
      inst.decl_file = record.decl_file;
      inst.decl_line = static_cast<uint32_t>(record.decl_line);
      inst.external = record.external;
      inst.inline_attr = static_cast<DwInl>(record.inline_attr);
      inst.low_pc = record.low_pc;
      inst.caller_inline.reserve(record.inline_sites);
      inst.caller_func.reserve(record.call_sites);
      built[by_name[begin].second] = &inst;
    }
  }
  // Sites in stream order, so each caller list keeps DIE order.
  for (const Site& site : sites) {
    FunctionInstance& target = *built[site.target];
    (site.is_inline ? target.caller_inline : target.caller_func).push_back(callers[site.caller]);
  }
  return instances;
}

}  // namespace depsurf
