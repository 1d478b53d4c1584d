#include "src/core/dependency_surface.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string_view>
#include <unordered_map>

#include "src/btf/btf_codec.h"
#include "src/elf/elf_reader.h"
#include "src/obs/diagnostics.h"
#include "src/obs/context.h"
#include "src/obs/json_writer.h"
#include "src/obs/metrics.h"
#include "src/obs/span.h"
#include "src/util/str_util.h"

namespace depsurf {

namespace {

// Section/symbol names shared with the image layout (and real kernels).
constexpr char kBtfSection[] = ".BTF";
constexpr char kDwarfAbbrevSection[] = ".sdwarf_abbrev";
constexpr char kDwarfInfoSection[] = ".sdwarf_info";
constexpr char kStartFtrace[] = "__start_ftrace_events";
constexpr char kStopFtrace[] = "__stop_ftrace_events";
constexpr char kSyscallTable[] = "sys_call_table";
constexpr char kTraceFuncPrefix[] = "trace_event_raw_event_";
constexpr char kTraceStructPrefix[] = "trace_event_raw_";

// Known per-architecture syscall entry-point prefixes; tried longest first.
constexpr const char* kSyscallPrefixes[] = {"__x64_sys_", "__arm64_sys_", "__riscv_sys_",
                                            "sys_"};

// Known compiler transformation suffix markers.
constexpr const char* kTransformSuffixes[] = {".isra.", ".constprop.", ".part.", ".cold"};

// "name" for "name.isra.0": the symbol up to the first marker (in list
// order) it contains, or the whole symbol when unsuffixed. The suffix is the
// rest, symbol.substr(base.size()).
std::string_view BaseName(std::string_view symbol) {
  for (const char* marker : kTransformSuffixes) {
    size_t pos = symbol.find(marker);
    if (pos != std::string_view::npos) {
      return symbol.substr(0, pos);
    }
  }
  return symbol;
}

// Identity facts that cannot fail once the ELF container parsed.
SurfaceMeta MetaFromIdent(const ElfReader& reader) {
  SurfaceMeta meta;
  meta.arch = ElfMachineName(reader.ident().machine);
  meta.pointer_size = reader.pointer_size();
  meta.endian = reader.endian();
  return meta;
}

Status ParseBanner(const ElfReader& reader, SurfaceMeta& meta) {
  auto banner_sym = reader.FindSymbol("linux_banner");
  if (!banner_sym.has_value()) {
    return Status::Ok();  // tolerated: version/gcc stay unknown
  }
  DEPSURF_ASSIGN_OR_RETURN(at, reader.ReadAtAddress(banner_sym->value));
  DEPSURF_ASSIGN_OR_RETURN(banner, at.ReadCString());
  // "Linux version 5.4.0-26-generic (...) (gcc (Ubuntu) 9.4.0) ..."
  int major = 0;
  int minor = 0;
  char flavor[64] = {0};
  int gcc = 0;
  if (sscanf(banner.c_str(), "Linux version %d.%d.0-26-%63[^ ] (buildd@lcy02) (gcc (Ubuntu) %d",
             &major, &minor, flavor, &gcc) >= 3) {
    meta.version_major = major;
    meta.version_minor = minor;
    meta.flavor = flavor;
    meta.gcc_major = gcc;
  }
  return Status::Ok();
}

}  // namespace

const char* DegradationStateName(DegradationState state) {
  switch (state) {
    case DegradationState::kClean:
      return "clean";
    case DegradationState::kDegraded:
      return "degraded";
    case DegradationState::kMissing:
      return "missing";
  }
  return "unknown";
}

bool SurfaceHealth::AnyDegraded() const {
  return elf == DegradationState::kDegraded || dwarf == DegradationState::kDegraded ||
         btf == DegradationState::kDegraded ||
         tracepoint == DegradationState::kDegraded ||
         syscall == DegradationState::kDegraded;
}

std::string SurfaceHealth::Summary() const {
  std::string out;
  auto add = [&out](const char* name, DegradationState state) {
    if (state == DegradationState::kClean) {
      return;
    }
    if (!out.empty()) {
      out += ' ';
    }
    out += name;
    out += '=';
    out += DegradationStateName(state);
  };
  add("elf", elf);
  add("dwarf", dwarf);
  add("btf", btf);
  add("tracepoint", tracepoint);
  add("syscall", syscall);
  return out.empty() ? "clean" : out;
}

std::string FunctionStatus::CollisionClass() const {
  if (collided) {
    return external ? "Static-Global Collision" : "Static-Static Collision";
  }
  if (duplicated) {
    return "Static Duplication";
  }
  return external ? "Unique Global" : "Unique Static";
}

std::string FunctionEntry::StatusJson() const {
  const char* inline_type = status.fully_inlined          ? "Fully inlined"
                            : status.selectively_inlined  ? "Partially inlined"
                                                          : "Not inlined";
  std::string out;
  obs::JsonWriter writer(out);
  auto strings = [&writer](const char* key, std::span<const std::string_view> items) {
    writer.Key(key).BeginArray();
    for (std::string_view item : items) {
      writer.String(item);
    }
    writer.EndArray();
  };
  writer.BeginObject().Key("name").String(name);
  writer.Key("collision_type").String(status.CollisionClass());
  writer.Key("inline_type").String(inline_type).Key("funcs").BeginArray();
  for (const FunctionInstance& inst : instances) {
    writer.BeginObject().Key("name").String(inst.name).Key("external").Bool(inst.external);
    writer.Key("loc").String(std::string(inst.decl_file) + ":" + std::to_string(inst.decl_line));
    strings("caller_inline", inst.caller_inline);
    strings("caller_func", inst.caller_func);
    writer.EndObject();
  }
  writer.EndArray().Key("symbols").BeginArray();
  for (const ElfSymbol* symbol : symbols) {
    writer.BeginObject().Key("name").String(symbol->name).Key("addr").Uint(symbol->value);
    writer.Key("bind").String(symbol->bind == SymBind::kGlobal ? "STB_GLOBAL" : "STB_LOCAL");
    writer.Key("size").Uint(symbol->size).EndObject();
  }
  writer.EndArray().EndObject();
  return out;
}

// The image and what the function entries view. Built by Extract, then
// shared read-only by every copy of the surface.
struct DependencySurface::Kept {
  explicit Kept(ElfReader reader) : elf(std::move(reader)) {}

  ElfReader elf;  // the image bytes and the symbol table
  TypeGraph btf;
  FunctionInstances instances;  // views elf's DWARF section
  // FUNC symbols by base name, ties in symbol-table order: each entry's
  // symbols are one run of it.
  std::vector<const ElfSymbol*> func_symbols;
  std::vector<FunctionEntry> functions;  // by name
};

Result<DependencySurface> DependencySurface::Extract(std::vector<uint8_t> image_bytes) {
  obs::ScopedSpan span("surface.extract");
  span.AddAttr("image_bytes", static_cast<uint64_t>(image_bytes.size()));
  // The ELF container is the one hard requirement: without sections and
  // symbols there is nothing to salvage from.
  DEPSURF_ASSIGN_OR_RETURN(parsed, ElfReader::Parse(std::move(image_bytes)));
  auto kept = std::make_shared<Kept>(std::move(parsed));
  const ElfReader& reader = kept->elf;
  TypeGraph& btf = kept->btf;
  DependencySurface surface;
  SurfaceHealth& health = surface.health_;
  DiagnosticLedger& ledger = health.ledger;
  surface.meta_ = MetaFromIdent(reader);

  // Banner and .config are metadata; unreadable copies cost version/config
  // facts but never the surface itself.
  if (Status st = ParseBanner(reader, surface.meta_); !st.ok()) {
    ledger.AddError(DiagSeverity::kWarning, DiagSubsystem::kElf,
                    st.error().Wrap("linux_banner unreadable"));
  }
  if (const ElfSectionView* config = reader.SectionByName(".config")) {
    auto parse_config = [&]() -> Status {
      DEPSURF_ASSIGN_OR_RETURN(data, reader.SectionData(*config));
      DEPSURF_ASSIGN_OR_RETURN(raw, data.ReadBytes(data.size()));
      std::string text(raw.begin(), raw.end());
      unsigned options = 0;
      char traceable = 'y';
      if (size_t pos = text.find("CONFIG_OPTIONS="); pos != std::string::npos) {
        sscanf(text.c_str() + pos, "CONFIG_OPTIONS=%u", &options);
      }
      if (size_t pos = text.find("CONFIG_COMPAT_TRACEABLE="); pos != std::string::npos) {
        sscanf(text.c_str() + pos, "CONFIG_COMPAT_TRACEABLE=%c", &traceable);
      }
      surface.meta_.config_options = options;
      surface.meta_.compat_syscalls_traceable = traceable == 'y';
      return Status::Ok();
    };
    if (Status st = parse_config(); !st.ok()) {
      ledger.AddError(DiagSeverity::kWarning, DiagSubsystem::kElf,
                      st.error().Wrap(".config unreadable"));
    }
  }

  // ---- BTF: declarations of functions and structs. A corrupt .BTF costs
  // the type graph (declarations, struct layouts) but not the symbol-table,
  // tracepoint, or syscall views.
  // Name indexes filled by the one pass over the graph below; the first id
  // wins, as in TypeGraph::FindByKindAndName. btf_funcs is every FUNC as
  // (name, id) sorted, so a name's first entry holds its first id
  // (collisions share names). btf_structs holds every STRUCT,
  // trace_event_raw_* and anonymous ones included. Names are views into
  // `btf`, which is not modified after this block.
  std::vector<std::pair<std::string_view, BtfTypeId>> btf_funcs;
  std::unordered_map<std::string_view, BtfTypeId> btf_structs;
  // The first FUNC id named `name`; 0 when there is none.
  auto find_btf_func = [&btf_funcs](std::string_view name) -> BtfTypeId {
    auto it = std::lower_bound(btf_funcs.begin(), btf_funcs.end(), std::make_pair(name, 0u));
    return it != btf_funcs.end() && it->first == name ? it->second : 0;
  };
  {
    obs::ScopedSpan btf_span("surface.btf");
    auto decode_btf = [&]() -> Status {
      DEPSURF_ASSIGN_OR_RETURN(btf_data, reader.SectionDataByName(kBtfSection));
      DEPSURF_ASSIGN_OR_RETURN(graph, DecodeBtf(btf_data));
      btf = std::move(graph);
      return Status::Ok();
    };
    if (Status st = decode_btf(); !st.ok()) {
      if (st.error().code() == ErrorCode::kNotFound) {
        health.btf = DegradationState::kMissing;
        ledger.AddError(DiagSeverity::kWarning, DiagSubsystem::kBtf, st.error());
      } else {
        health.btf = DegradationState::kDegraded;
        ledger.AddError(DiagSeverity::kDegraded, DiagSubsystem::kBtf,
                        st.error().Wrap(".BTF decode failed"));
      }
      btf = TypeGraph();  // queries see an empty, valid graph
    }
    for (BtfTypeId id = 1; id <= btf.num_types(); ++id) {
      const std::optional<BtfTypeView> t = btf.Get(id);
      if (t->kind == BtfKind::kStruct) {
        btf_structs.emplace(t->name, id);
        if (!t->name.empty() && !StartsWith(t->name, kTraceStructPrefix)) {
          surface.structs_.emplace(t->name, id);
        }
      } else if (t->kind == BtfKind::kFunc) {
        btf_funcs.emplace_back(t->name, id);
      }
    }
    std::sort(btf_funcs.begin(), btf_funcs.end());
    uint64_t distinct_funcs = 0;
    for (size_t i = 0; i < btf_funcs.size(); ++i) {
      distinct_funcs += i == 0 || btf_funcs[i].first != btf_funcs[i - 1].first ? 1 : 0;
    }
    btf_span.AddAttr("structs", static_cast<uint64_t>(surface.structs_.size()));
    btf_span.AddAttr("funcs", distinct_funcs);
  }

  // ---- DWARF: function instances and inline structure. Absent debug
  // sections degrade to a BTF+symtab-only surface (distro kernels without
  // dbgsym packages): declarations remain, compilation status is unknown.
  // `named` is every name read, in order and distinct, with its run of
  // instances (empty without debug info).
  FunctionInstances& instances = kept->instances;
  std::vector<std::pair<std::string_view, std::span<const FunctionInstance>>> named;
  surface.meta_.has_debug_info = reader.SectionByName(kDwarfInfoSection) != nullptr &&
                                 reader.SectionByName(kDwarfAbbrevSection) != nullptr;
  {
    obs::ScopedSpan dwarf_span("surface.dwarf");
    dwarf_span.AddAttr("has_debug_info", surface.meta_.has_debug_info ? "true" : "false");
    auto decode_dwarf = [&]() -> Status {
      DEPSURF_ASSIGN_OR_RETURN(abbrev_reader, reader.SectionDataByName(kDwarfAbbrevSection));
      DEPSURF_ASSIGN_OR_RETURN(info_reader, reader.SectionDataByName(kDwarfInfoSection));
      DEPSURF_ASSIGN_OR_RETURN(collected, ReadFunctionInstances(abbrev_reader, info_reader));
      instances = std::move(collected);
      return Status::Ok();
    };
    if (!surface.meta_.has_debug_info) {
      health.dwarf = DegradationState::kMissing;
    } else if (Status st = decode_dwarf(); !st.ok()) {
      // Broken DWARF costs inline/duplication status, not the surface: fall
      // back to the same BTF+symtab path used for images without dbgsym.
      // health records the truth (kDegraded, vs kMissing for absent
      // sections); meta_.has_debug_info drops to false so the status
      // classifier below stays consistent with what it can actually see.
      health.dwarf = DegradationState::kDegraded;
      ledger.AddError(DiagSeverity::kDegraded, DiagSubsystem::kDwarf,
                      st.error().Wrap("DWARF decode failed"));
      surface.meta_.has_debug_info = false;
    }
    if (surface.meta_.has_debug_info) {
      const std::span<const FunctionInstance> all = instances.instances;
      for (size_t begin = 0, end = 0; begin < all.size(); begin = end) {
        for (end = begin + 1; end < all.size() && all[end].name == all[begin].name; ++end) {
        }
        named.emplace_back(all[begin].name, all.subspan(begin, end - begin));
      }
    } else {
      // Name the functions after BTF FUNC declarations; instances stay
      // empty and the status classifier sees only the symbol table.
      for (const auto& [name, id] : btf_funcs) {
        if (!StartsWith(name, kTraceFuncPrefix) && (named.empty() || named.back().first != name)) {
          named.emplace_back(name, std::span<const FunctionInstance>());
        }
      }
      if (named.empty()) {
        // Both DWARF and BTF are gone; the symbol table alone still names
        // the attachable functions.
        for (const ElfSymbol& sym : reader.symbols()) {
          if (sym.type != SymType::kFunc) {
            continue;
          }
          std::string_view base = BaseName(sym.name);
          if (!base.empty() && !StartsWith(base, kTraceFuncPrefix)) {
            named.emplace_back(base, std::span<const FunctionInstance>());
          }
        }
        auto by_name = [](const auto& a, const auto& b) { return a.first < b.first; };
        auto same_name = [](const auto& a, const auto& b) { return a.first == b.first; };
        std::sort(named.begin(), named.end(), by_name);
        named.erase(std::unique(named.begin(), named.end(), same_name), named.end());
      }
    }
    dwarf_span.AddAttr("function_instances", static_cast<uint64_t>(named.size()));
    dwarf_span.AddAttr("health", DegradationStateName(health.dwarf));
  }

  // Symbol indexes over FUNC symbols, sorted arrays built once: by base name
  // (strips transformation suffixes) and by address (for tracepoint/syscall
  // reverse lookup). Both point into the reader and break ties by pointer,
  // which is symbol-table order: a name's symbols stay in table order, and
  // the first symbol at an address wins. The base-name order is kept as
  // kept->func_symbols, which the entries' symbol spans view.
  std::vector<std::pair<std::string_view, const ElfSymbol*>> symbols_by_base;
  std::vector<std::pair<uint64_t, const ElfSymbol*>> symbols_by_addr;
  auto func_sym_at = [&symbols_by_addr](uint64_t addr) -> const ElfSymbol* {
    auto it = std::lower_bound(symbols_by_addr.begin(), symbols_by_addr.end(), addr,
                               [](const auto& entry, uint64_t key) { return entry.first < key; });
    return it != symbols_by_addr.end() && it->first == addr ? it->second : nullptr;
  };
  {
  obs::ScopedSpan classify_span("surface.classify_functions");
  classify_span.AddAttr("instances", static_cast<uint64_t>(named.size()));
  size_t num_funcs = std::count_if(reader.symbols().begin(), reader.symbols().end(),
                                   [](const ElfSymbol& sym) { return sym.type == SymType::kFunc; });
  symbols_by_base.reserve(num_funcs);
  symbols_by_addr.reserve(num_funcs);
  for (const ElfSymbol& sym : reader.symbols()) {
    if (sym.type == SymType::kFunc) {
      symbols_by_base.emplace_back(BaseName(sym.name), &sym);
      symbols_by_addr.emplace_back(sym.value, &sym);
    }
  }
  std::sort(symbols_by_base.begin(), symbols_by_base.end(), [](const auto& a, const auto& b) {
    int c = a.first.compare(b.first);
    return c != 0 ? c < 0 : a.second < b.second;
  });
  std::sort(symbols_by_addr.begin(), symbols_by_addr.end());
  kept->func_symbols.reserve(num_funcs);
  for (const auto& [base, sym] : symbols_by_base) {
    kept->func_symbols.push_back(sym);
  }
  const std::span<const ElfSymbol* const> func_symbols = kept->func_symbols;

  // `named` is in ascending order, so the entries land in name order and
  // the base-name and FUNC cursors advance in the same order.
  size_t base_at = 0;
  auto func_it = btf_funcs.begin();
  std::vector<FunctionEntry>& functions = kept->functions;
  functions.reserve(named.size());
  for (const auto& [name, run] : named) {
    // Functions that are really tracepoint machinery must not pollute the
    // function surface (they are reachable through their own table below).
    // Our DWARF only covers source functions, but scripted syscall
    // implementations like __x64_sys_fsync legitimately appear in both
    // tables; keep them.
    if (StartsWith(name, kTraceFuncPrefix)) {
      continue;
    }
    FunctionEntry& entry = functions.emplace_back();
    entry.name = name;
    entry.instances = run;
    while (func_it != btf_funcs.end() && func_it->first < name) {
      ++func_it;
    }
    if (func_it != btf_funcs.end() && func_it->first == name) {
      entry.btf_id = func_it->second;
    }
    while (base_at < symbols_by_base.size() && symbols_by_base[base_at].first < name) {
      ++base_at;
    }
    size_t base_end = base_at;
    while (base_end < symbols_by_base.size() && symbols_by_base[base_end].first == name) {
      ++base_end;
    }
    entry.symbols = func_symbols.subspan(base_at, base_end - base_at);
    base_at = base_end;

    FunctionStatus& status = entry.status;
    bool any_code = false;
    bool any_inline_site = false;
    // Whether all instances share one declaration site (decl_file,
    // decl_line); vacuously true without instances.
    bool one_decl_site = true;
    for (const FunctionInstance& inst : entry.instances) {
      any_code |= inst.HasCode();
      any_inline_site |= !inst.caller_inline.empty();
      status.external |= inst.external;
      const FunctionInstance& first = entry.instances.front();
      one_decl_site &= inst.decl_line == first.decl_line && inst.decl_file == first.decl_file;
    }
    // Every symbol here has base name `name`; the rest is its suffix.
    for (const ElfSymbol* sym : entry.symbols) {
      if (sym->name == name) {
        status.has_exact_symbol = true;
      } else {
        status.transform_suffix = sym->name.substr(name.size());
      }
    }
    status.transformed = !status.has_exact_symbol && !status.transform_suffix.empty();
    if (surface.meta_.has_debug_info) {
      status.fully_inlined = !any_code;
      status.selectively_inlined = any_code && any_inline_site;
      // Duplication counts debug-info instances (a fully-inlined header
      // static is still duplicated across its including TUs).
      status.duplicated = entry.instances.size() >= 2 && one_decl_site;
      status.collided = !one_decl_site;
    } else {
      // Without DWARF only the symbol table speaks: a BTF function with no
      // symbol at all was compiled away (inlined); selective inlining,
      // duplication, and collisions are undetectable.
      status.fully_inlined = !status.has_exact_symbol && !status.transformed;
      status.external = !entry.symbols.empty() &&
                        entry.symbols.front()->bind == SymBind::kGlobal;
    }
  }
  }

  // ---- Tracepoints: walk the __start/__stop_ftrace_events pointer array,
  // dereferencing records and strings through the data sections.
  {
  obs::ScopedSpan tp_span("surface.tracepoints");
  auto start_sym = reader.FindSymbol(kStartFtrace);
  auto stop_sym = reader.FindSymbol(kStopFtrace);
  if (!start_sym.has_value() || !stop_sym.has_value()) {
    health.tracepoint = DegradationState::kMissing;
  } else {
    int ptr = reader.pointer_size();
    uint64_t skipped = 0;
    auto walk = [&]() -> Status {
      if (stop_sym->value < start_sym->value ||
          (stop_sym->value - start_sym->value) % ptr != 0) {
        return Status(Error(ErrorCode::kMalformedData, "bad ftrace_events bounds")
                          .WithOffset(start_sym->value));
      }
      uint64_t count = (stop_sym->value - start_sym->value) / ptr;
      DEPSURF_ASSIGN_OR_RETURN(array, reader.ReadAtAddress(start_sym->value));
      // Each record stands alone: a dangling pointer or unterminated string
      // skips that tracepoint, not the registry.
      auto parse_record = [&](uint64_t rec_addr) -> Status {
        DEPSURF_ASSIGN_OR_RETURN(rec, reader.ReadAtAddress(rec_addr));
        TracepointEntry tp;
        DEPSURF_ASSIGN_OR_RETURN(event_addr, rec.ReadAddr(ptr));
        DEPSURF_ASSIGN_OR_RETURN(class_addr, rec.ReadAddr(ptr));
        DEPSURF_ASSIGN_OR_RETURN(struct_addr, rec.ReadAddr(ptr));
        DEPSURF_ASSIGN_OR_RETURN(fmt_addr, rec.ReadAddr(ptr));
        DEPSURF_ASSIGN_OR_RETURN(func_addr, rec.ReadAddr(ptr));
        DEPSURF_ASSIGN_OR_RETURN(event_reader, reader.ReadAtAddress(event_addr));
        DEPSURF_ASSIGN_OR_RETURN(event_name, event_reader.ReadCString());
        tp.event_name = std::move(event_name);
        DEPSURF_ASSIGN_OR_RETURN(class_reader, reader.ReadAtAddress(class_addr));
        DEPSURF_ASSIGN_OR_RETURN(class_name, class_reader.ReadCString());
        tp.class_name = std::move(class_name);
        DEPSURF_ASSIGN_OR_RETURN(struct_reader, reader.ReadAtAddress(struct_addr));
        DEPSURF_ASSIGN_OR_RETURN(struct_name, struct_reader.ReadCString());
        tp.struct_name = std::move(struct_name);
        DEPSURF_ASSIGN_OR_RETURN(fmt_reader, reader.ReadAtAddress(fmt_addr));
        DEPSURF_ASSIGN_OR_RETURN(fmt, fmt_reader.ReadCString());
        tp.fmt = std::move(fmt);
        if (const ElfSymbol* func = func_sym_at(func_addr)) {
          tp.func_name = func->name;
        }
        if (auto it = btf_structs.find(tp.struct_name); it != btf_structs.end()) {
          tp.struct_btf_id = it->second;
        }
        tp.func_btf_id = find_btf_func(tp.func_name);
        surface.tracepoints_.emplace(tp.event_name, std::move(tp));
        return Status::Ok();
      };
      for (uint64_t i = 0; i < count; ++i) {
        // Losing the pointer array itself ends the walk; a bad record only
        // costs the record.
        DEPSURF_ASSIGN_OR_RETURN(rec_addr, array.ReadAddr(ptr));
        if (Status st = parse_record(rec_addr); !st.ok()) {
          health.tracepoint = DegradationState::kDegraded;
          ledger.AddError(
              DiagSeverity::kDegraded, DiagSubsystem::kTracepoint,
              st.error().Wrap(StrFormat("ftrace_events record %llu unreadable",
                                        (unsigned long long)i)));
          ++skipped;
        }
      }
      return Status::Ok();
    };
    if (Status st = walk(); !st.ok()) {
      health.tracepoint = DegradationState::kDegraded;
      ledger.AddError(DiagSeverity::kDegraded, DiagSubsystem::kTracepoint,
                      st.error().Wrap("ftrace_events walk aborted"));
    }
    tp_span.AddAttr("skipped", skipped);
  }
  tp_span.AddAttr("records", static_cast<uint64_t>(surface.tracepoints_.size()));
  }

  // ---- System calls: read sys_call_table, reverse-map entry addresses.
  {
  obs::ScopedSpan sys_span("surface.syscalls");
  auto table_sym = reader.FindSymbol(kSyscallTable);
  if (!table_sym.has_value()) {
    health.syscall = DegradationState::kMissing;
  } else {
    auto walk = [&]() -> Status {
      int ptr = reader.pointer_size();
      uint64_t slots = table_sym->size / ptr;
      uint64_t ni_addr = 0;
      if (auto ni = reader.FindSymbol("sys_ni_syscall"); ni.has_value()) {
        ni_addr = ni->value;
      }
      DEPSURF_ASSIGN_OR_RETURN(table, reader.ReadAtAddress(table_sym->value));
      for (uint64_t nr = 0; nr < slots; ++nr) {
        DEPSURF_ASSIGN_OR_RETURN(addr, table.ReadAddr(ptr));
        if (addr == ni_addr || addr == 0) {
          continue;
        }
        const ElfSymbol* func = func_sym_at(addr);
        if (func == nullptr) {
          continue;
        }
        for (const char* prefix : kSyscallPrefixes) {
          if (StartsWith(func->name, prefix)) {
            SyscallEntry entry;
            entry.name = func->name.substr(strlen(prefix));
            entry.nr = static_cast<int>(nr);
            surface.syscalls_.emplace(entry.name, std::move(entry));
            break;
          }
        }
      }
      return Status::Ok();
    };
    if (Status st = walk(); !st.ok()) {
      // The table reader is sequential, so a truncated table keeps every
      // entry decoded before the break.
      health.syscall = DegradationState::kDegraded;
      ledger.AddError(DiagSeverity::kDegraded, DiagSubsystem::kSyscall,
                      st.error().Wrap("sys_call_table walk aborted"));
    }
  }
  sys_span.AddAttr("entries", static_cast<uint64_t>(surface.syscalls_.size()));
  }

  // ---- kfuncs: registered via BTF id sets in .BTF_ids. Entries that do
  // not resolve to a FUNC (stale ids, or a degraded type graph) are skipped
  // individually.
  if (const ElfSectionView* ids_section = reader.SectionByName(".BTF_ids")) {
    auto walk = [&]() -> Status {
      DEPSURF_ASSIGN_OR_RETURN(ids, reader.SectionData(*ids_section));
      while (ids.remaining() >= 4) {
        DEPSURF_ASSIGN_OR_RETURN(id, ids.ReadU32());
        const std::optional<BtfTypeView> t = btf.Get(id);
        if (!t || t->kind != BtfKind::kFunc) {
          if (health.btf == DegradationState::kClean) {
            health.btf = DegradationState::kDegraded;
          }
          ledger.AddAt(DiagSeverity::kDegraded, DiagSubsystem::kBtf,
                       ErrorCode::kMalformedData, ids.offset() - 4,
                       StrFormat("BTF_ids entry %u is not a FUNC", id));
          continue;
        }
        surface.kfuncs_.emplace(t->name);
      }
      return Status::Ok();
    };
    if (Status st = walk(); !st.ok()) {
      if (health.btf == DegradationState::kClean) {
        health.btf = DegradationState::kDegraded;
      }
      ledger.AddError(DiagSeverity::kDegraded, DiagSubsystem::kBtf,
                      st.error().Wrap(".BTF_ids unreadable"));
    }
  }

  // ---- BPF helper ids (.bpf_helpers, written by kernelgen; name kept in
  // sync with kBpfHelpersSection there). A truncated table keeps every id
  // decoded before the break.
  if (const ElfSectionView* helpers_section = reader.SectionByName(".bpf_helpers")) {
    auto walk = [&]() -> Status {
      DEPSURF_ASSIGN_OR_RETURN(ids, reader.SectionData(*helpers_section));
      while (ids.remaining() >= 4) {
        DEPSURF_ASSIGN_OR_RETURN(id, ids.ReadU32());
        surface.helpers_.insert(id);
      }
      return Status::Ok();
    };
    if (Status st = walk(); !st.ok()) {
      if (health.btf == DegradationState::kClean) {
        health.btf = DegradationState::kDegraded;
      }
      ledger.AddError(DiagSeverity::kDegraded, DiagSubsystem::kBtf,
                      st.error().Wrap(".bpf_helpers unreadable"));
    }
  }

  uint64_t fully_inlined = 0;
  uint64_t selectively_inlined = 0;
  uint64_t transformed = 0;
  uint64_t duplicated = 0;
  uint64_t collided = 0;
  for (const FunctionEntry& entry : kept->functions) {
    fully_inlined += entry.status.fully_inlined ? 1 : 0;
    selectively_inlined += entry.status.selectively_inlined ? 1 : 0;
    transformed += entry.status.transformed ? 1 : 0;
    duplicated += entry.status.duplicated ? 1 : 0;
    collided += entry.status.collided ? 1 : 0;
  }
  obs::MetricsRegistry& metrics = obs::Context::Current().metrics();
  metrics.Incr("surface.extracted");
  if (health.AnyDegraded()) {
    metrics.Incr("surface.salvaged");
  }
  if (!ledger.empty()) {
    metrics.Incr("surface.diagnostics", ledger.size());
  }
  metrics.Incr("surface.functions", kept->functions.size());
  metrics.Incr("surface.structs", surface.structs_.size());
  metrics.Incr("surface.tracepoints", surface.tracepoints_.size());
  metrics.Incr("surface.syscalls", surface.syscalls_.size());
  metrics.Incr("surface.kfuncs", surface.kfuncs_.size());
  metrics.Incr("surface.helpers", surface.helpers_.size());
  metrics.Incr("surface.funcs_fully_inlined", fully_inlined);
  metrics.Incr("surface.funcs_selectively_inlined", selectively_inlined);
  metrics.Incr("surface.funcs_transformed", transformed);
  metrics.Incr("surface.funcs_duplicated", duplicated);
  metrics.Incr("surface.funcs_collided", collided);
  span.AddAttr("functions", static_cast<uint64_t>(kept->functions.size()));
  span.AddAttr("structs", static_cast<uint64_t>(surface.structs_.size()));
  span.AddAttr("tracepoints", static_cast<uint64_t>(surface.tracepoints_.size()));
  span.AddAttr("syscalls", static_cast<uint64_t>(surface.syscalls_.size()));
  span.AddAttr("health", health.Summary());
  // Publish the ledger so run reports carry a per-run diagnostics section.
  if (!ledger.empty()) {
    obs::Context::Current().diagnostics().AddAll(ledger);
  }
  surface.kept_ = std::move(kept);
  return surface;
}

bool DependencySurface::IsLsmHook(std::string_view name) {
  return StartsWith(name, "security_");
}

const TypeGraph& DependencySurface::btf() const {
  static const TypeGraph kEmpty;
  return kept_ != nullptr ? kept_->btf : kEmpty;
}

std::span<const FunctionEntry> DependencySurface::functions() const {
  return kept_ != nullptr ? std::span<const FunctionEntry>(kept_->functions)
                          : std::span<const FunctionEntry>();
}

const FunctionEntry* DependencySurface::FindFunction(std::string_view name) const {
  const std::span<const FunctionEntry> functions = this->functions();
  auto it = std::lower_bound(
      functions.begin(), functions.end(), name,
      [](const FunctionEntry& entry, std::string_view key) { return entry.name < key; });
  return it != functions.end() && it->name == name ? &*it : nullptr;
}

std::optional<BtfTypeId> DependencySurface::FindStruct(const std::string& name) const {
  auto it = structs_.find(name);
  if (it == structs_.end()) {
    return std::nullopt;
  }
  return it->second;
}

const TracepointEntry* DependencySurface::FindTracepoint(const std::string& event) const {
  auto it = tracepoints_.find(event);
  return it == tracepoints_.end() ? nullptr : &it->second;
}

bool DependencySurface::HasSyscall(const std::string& name) const {
  return syscalls_.count(name) != 0;
}

}  // namespace depsurf
