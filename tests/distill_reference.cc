#include "tests/distill_reference.h"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <tuple>

#include "src/btf/btf_print.h"
#include "src/util/prng.h"

namespace depsurf {

StrId ReferenceDistill::Intern(const std::string& s) {
  auto [it, inserted] = index_.try_emplace(s, static_cast<StrId>(pool_.size()));
  if (inserted) {
    ++intern_misses_;
    pool_.push_back(s);
  } else {
    ++intern_hits_;
  }
  return it->second;
}

void ReferenceDistill::AddImage(const std::string& label, const DependencySurface& surface) {
  // Each kind is keyed in a std::map or std::set and copied into the
  // record's run at the end, so the runs' order comes from the tree, not
  // from Dataset's sort.
  std::map<StrId, FuncRecord> funcs;
  std::map<StrId, StructRecord> structs;
  std::map<StrId, TracepointRecord> tracepoints;
  std::set<StrId> syscalls;
  ImageRecord record;
  record.label = label;
  record.meta = surface.meta();
  record.health = surface.health();
  const TypeGraph& graph = surface.btf();

  auto decl_hash = [&](BtfTypeId func_id) -> uint64_t {
    const std::optional<BtfTypeView> func = graph.Get(func_id);
    const std::optional<BtfTypeView> proto = func ? graph.Get(func->ref_type_id) : std::nullopt;
    if (!proto || proto->kind != BtfKind::kFuncProto) {
      return 0;
    }
    uint64_t h = HashString(TypeString(graph, proto->ref_type_id));
    for (const BtfParamView p : proto->params) {
      h = HashCombine({h, HashString(p.name), HashString(TypeString(graph, p.type_id))});
    }
    return h;
  };
  // (name id, type id) of one member or parameter, type string first.
  auto intern_pair = [&](std::string_view name, BtfTypeId type_id) {
    StrId type = Intern(TypeString(graph, type_id));
    StrId name_id = Intern(std::string(name));
    return std::make_pair(name_id, type);
  };

  for (const FunctionEntry& entry : surface.functions()) {
    FuncRecord fr;
    fr.status = entry.status;
    if (entry.btf_id != 0) {
      fr.decl_hash = decl_hash(entry.btf_id);
      fr.decl = Intern(FuncDeclString(graph, entry.btf_id));
    }
    StrId name_id = Intern(std::string(entry.name));
    funcs.emplace(name_id, std::move(fr));
  }
  for (const auto& [name, id] : surface.structs()) {
    StructRecord sr;
    if (const std::optional<BtfTypeView> st = graph.Get(id)) {
      for (const BtfMemberView m : st->members) {
        sr.fields.push_back(intern_pair(m.name, m.type_id));
      }
      std::sort(sr.fields.begin(), sr.fields.end());
    }
    StrId name_id = Intern(name);
    structs.emplace(name_id, std::move(sr));
  }
  for (const auto& [name, tp] : surface.tracepoints()) {
    TracepointRecord tr;
    if (tp.func_btf_id != 0) {
      const std::optional<BtfTypeView> func = graph.Get(tp.func_btf_id);
      const std::optional<BtfTypeView> proto =
          func ? graph.Get(func->ref_type_id) : std::nullopt;
      if (proto) {
        for (const BtfParamView p : proto->params) {
          tr.func_params.push_back(intern_pair(p.name, p.type_id));
        }
      }
    }
    if (tp.struct_btf_id != 0) {
      if (const std::optional<BtfTypeView> st = graph.Get(tp.struct_btf_id)) {
        for (const BtfMemberView m : st->members) {
          tr.event_fields.push_back(intern_pair(m.name, m.type_id));
        }
        std::sort(tr.event_fields.begin(), tr.event_fields.end());
      }
    }
    StrId name_id = Intern(name);
    tracepoints.emplace(name_id, std::move(tr));
  }
  for (const auto& [name, entry] : surface.syscalls()) {
    (void)entry;
    syscalls.insert(Intern(name));
  }
  record.funcs.assign(funcs.begin(), funcs.end());
  record.structs.assign(structs.begin(), structs.end());
  record.tracepoints.assign(tracepoints.begin(), tracepoints.end());
  record.syscalls.assign(syscalls.begin(), syscalls.end());
  if (auto pt_regs = surface.FindStruct("pt_regs"); pt_regs.has_value()) {
    uint64_t h = 0x9e11;
    const std::optional<BtfTypeView> st = graph.Get(*pt_regs);
    for (const BtfMemberView m : st->members) {
      h = HashCombine({h, HashString(m.name)});
    }
    record.pt_regs_hash = h;
  }
  images_.push_back(std::move(record));
}

Dataset ReferenceDistill::ToDataset() const {
  Dataset dataset;
  for (const std::string& s : pool_) {
    dataset.Intern(s);
  }
  for (const ImageRecord& image : images_) {
    dataset.RestoreImage(image);
  }
  return dataset;
}

namespace {

auto StatusTuple(const FunctionStatus& s) {
  return std::tie(s.has_exact_symbol, s.fully_inlined, s.selectively_inlined, s.transformed,
                  s.transform_suffix, s.duplicated, s.collided, s.external);
}

auto MetaTuple(const SurfaceMeta& m) {
  return std::tie(m.has_debug_info, m.version_major, m.version_minor, m.flavor, m.gcc_major,
                  m.arch, m.pointer_size, m.endian, m.config_options,
                  m.compat_syscalls_traceable);
}

std::string LedgerText(const DiagnosticLedger& ledger) {
  std::string out;
  for (const DiagnosticEntry& entry : ledger.entries()) {
    out += entry.ToString() + "\n";
  }
  return out;
}

// The first key whose records differ, or whose presence differs.
template <typename Run, typename Equal>
std::string RunDifference(const char* what, const Run& a, const Run& b, Equal equal) {
  auto ia = a.begin();
  auto ib = b.begin();
  for (; ia != a.end() && ib != b.end(); ++ia, ++ib) {
    if (ia->first != ib->first || !equal(ia->second, ib->second)) {
      std::ostringstream out;
      out << what << " differ at id " << std::min(ia->first, ib->first);
      return out.str();
    }
  }
  if (ia != a.end() || ib != b.end()) {
    return std::string(what) + " differ in count";
  }
  return "";
}

}  // namespace

std::string ImageRecordDifference(const ImageRecord& a, const ImageRecord& b) {
  if (a.label != b.label) {
    return "label: " + a.label + " vs " + b.label;
  }
  if (MetaTuple(a.meta) != MetaTuple(b.meta)) {
    return "meta";
  }
  if (a.health.Summary() != b.health.Summary() ||
      LedgerText(a.health.ledger) != LedgerText(b.health.ledger)) {
    return "health";
  }
  if (a.pt_regs_hash != b.pt_regs_hash) {
    return "pt_regs_hash";
  }
  if (a.syscalls != b.syscalls) {
    return "syscalls";
  }
  std::string diff = RunDifference("funcs", a.funcs, b.funcs, [](const auto& x, const auto& y) {
    return StatusTuple(x.status) == StatusTuple(y.status) && x.decl_hash == y.decl_hash &&
           x.decl == y.decl;
  });
  if (diff.empty()) {
    diff = RunDifference("structs", a.structs, b.structs,
                         [](const auto& x, const auto& y) { return x.fields == y.fields; });
  }
  if (diff.empty()) {
    diff = RunDifference("tracepoints", a.tracepoints, b.tracepoints,
                         [](const auto& x, const auto& y) {
                           return x.func_params == y.func_params &&
                                  x.event_fields == y.event_fields;
                         });
  }
  return diff;
}

HostileBtf BuildHostileBtf() {
  HostileBtf out;
  TypeGraph& graph = out.graph;
  BtfTypeId int_id = graph.Int("int", 4);
  out.chain = {int_id};
  for (int k = 1; k <= 40; ++k) {
    out.chain.push_back(graph.Ptr(out.chain.back()));
  }
  out.loop_ptr = graph.Ptr(graph.num_types() + 2);
  out.loop_const = graph.Const(out.loop_ptr);
  // The capped chain comes first, so its inner nodes are visited deep
  // before the same nodes are rendered at the top of a later member.
  graph.Struct("deep", 16, {{"capped", out.chain[40], 0}, {"inner", out.chain[30], 64}});
  graph.Struct("looped", 8, {{"loop", out.loop_ptr, 0}, {"loop_const", out.loop_const, 32}});
  BtfTypeId proto = graph.FuncProto(
      int_id, {{"capped", out.chain[40]}, {"inner", out.chain[30]}, {"loop", out.loop_const}});
  graph.Func("hostile_fn", proto);
  return out;
}

}  // namespace depsurf
