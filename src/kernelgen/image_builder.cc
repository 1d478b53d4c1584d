#include "src/kernelgen/image_builder.h"

#include <algorithm>
#include <map>
#include <set>

#include "src/btf/btf_codec.h"
#include "src/dwarf/dwarf_codec.h"
#include "src/elf/elf_writer.h"
#include "src/kernelgen/helpers.h"
#include "src/kernelgen/syscalls.h"
#include "src/kmodel/type_lang.h"
#include "src/obs/context.h"
#include "src/obs/metrics.h"
#include "src/obs/span.h"
#include "src/util/str_util.h"

namespace depsurf {

namespace {

// Deduplicating string pool living at a fixed virtual address.
class StringPool {
 public:
  StringPool(uint64_t base, Endian endian) : base_(base), writer_(endian) {}

  uint64_t Intern(const std::string& s) {
    auto it = addrs_.find(s);
    if (it != addrs_.end()) {
      return it->second;
    }
    uint64_t addr = base_ + writer_.size();
    writer_.WriteCString(s);
    addrs_[s] = addr;
    return addr;
  }

  std::vector<uint8_t> TakeBytes() { return writer_.TakeBytes(); }

 private:
  uint64_t base_;
  ByteWriter writer_;
  std::map<std::string, uint64_t> addrs_;
};

}  // namespace

Result<std::vector<uint8_t>> BuildKernelImage(const CompiledImage& image) {
  obs::ScopedSpan span("kernelgen.build_image");
  span.AddAttr("build", image.kernel.build.Label());
  const ConfiguredKernel& kernel = image.kernel;
  const BuildSpec& build = kernel.build;
  const ElfIdent ident = ElfIdentFor(build.arch);
  const int ptr = ident.pointer_size();
  const Endian endian = ident.endian;

  // ---- Address layout. Functions got addresses from the compiler; find
  // the top and place data regions above it.
  uint64_t text_base = ident.klass == ElfClass::k32 ? 0xc0008000ull : 0xffffffff81000000ull;
  uint64_t top = text_base;
  for (const CompiledFunction& func : image.funcs) {
    for (const CompiledInstance& inst : func.instances) {
      top = std::max(top, inst.address + 256);
    }
  }
  // Extra symbols (syscall stubs, tracing funcs) are allocated from here.
  uint64_t stub_cursor = (top + 0xfff) & ~uint64_t{0xfff};

  ElfWriter writer(ident);

  // ---- BTF: structs (including tracepoint event structs) and functions.
  TypeGraph graph;
  TypeLowering lowering(graph, ptr, ptr == 4 ? 4 : 8);
  for (const StructSpec& spec : kernel.structs) {
    auto lowered = lowering.DefineStruct(spec);
    if (!lowered.ok()) {
      return lowered.TakeError();
    }
  }
  auto lower_func = [&](const std::string& name, const TypeStr& ret,
                        const std::vector<ParamSpec>& params) -> Result<BtfTypeId> {
    DEPSURF_ASSIGN_OR_RETURN(ret_id, lowering.Lower(ret));
    std::vector<BtfParam> btf_params;
    btf_params.reserve(params.size());
    for (const ParamSpec& p : params) {
      DEPSURF_ASSIGN_OR_RETURN(type_id, lowering.Lower(p.type));
      btf_params.push_back(BtfParam{p.name, type_id});
    }
    BtfTypeId proto = graph.FuncProto(ret_id, btf_params);
    return graph.Func(name, proto);
  };
  for (const CompiledFunction& func : image.funcs) {
    DEPSURF_ASSIGN_OR_RETURN(ignored,
                             lower_func(func.spec.name, func.spec.return_type,
                                        func.spec.params));
    (void)ignored;
  }

  // Tracepoints: one event struct + tracing function per class.
  std::set<std::string> classes_done;
  std::map<std::string, uint64_t> extra_symbols;  // name -> address
  auto alloc_stub = [&](const std::string& name) {
    auto it = extra_symbols.find(name);
    if (it != extra_symbols.end()) {
      return it->second;
    }
    stub_cursor += 64;
    extra_symbols[name] = stub_cursor;
    return stub_cursor;
  };
  for (const TracepointSpec& tp : kernel.tracepoints) {
    if (!classes_done.insert(tp.class_name).second) {
      continue;
    }
    StructSpec event_struct;
    event_struct.name = std::string(kTraceStructPrefix) + tp.class_name;
    event_struct.fields.push_back({"ent", "struct trace_entry"});
    for (const FieldSpec& field : tp.event_fields) {
      event_struct.fields.push_back(field);
    }
    auto lowered = lowering.DefineStruct(event_struct);
    if (!lowered.ok()) {
      return lowered.TakeError();
    }
    std::vector<ParamSpec> params = {{"__data", "void *"}};
    params.insert(params.end(), tp.func_params.begin(), tp.func_params.end());
    DEPSURF_ASSIGN_OR_RETURN(ignored,
                             lower_func(std::string(kTraceFuncPrefix) + tp.class_name, "void",
                                        params));
    (void)ignored;
  }

  // ---- DWARF: one CU per translation unit.
  DwarfDocument dwarf;
  std::map<std::string, uint32_t> cu_by_file;
  auto cu_for = [&](const std::string& file) {
    auto it = cu_by_file.find(file);
    if (it != cu_by_file.end()) {
      return it->second;
    }
    uint32_t cu = dwarf.AddDie(DwTag::kCompileUnit, 0);
    dwarf.SetString(cu, DwAttr::kName, file);
    cu_by_file[file] = cu;
    return cu;
  };
  // Pass 1: create subprogram DIEs.
  std::map<std::string, uint32_t> die_by_file_func;  // "file:func" -> DIE
  struct PendingSites {
    uint32_t die;
    const CompiledInstance* inst;
  };
  std::vector<PendingSites> pending;
  for (const CompiledFunction& func : image.funcs) {
    for (const CompiledInstance& inst : func.instances) {
      uint32_t cu = cu_for(inst.tu_file);
      uint32_t die = dwarf.AddDie(DwTag::kSubprogram, cu);
      dwarf.SetString(die, DwAttr::kName, func.spec.name);
      dwarf.SetString(die, DwAttr::kDeclFile, func.spec.decl_file);
      dwarf.SetNumber(die, DwAttr::kDeclLine, func.spec.decl_line);
      if (inst.external) {
        dwarf.SetFlag(die, DwAttr::kExternal);
      }
      if (inst.inline_attr != DwInl::kNotInlined) {
        dwarf.SetNumber(die, DwAttr::kInline, static_cast<uint64_t>(inst.inline_attr));
      }
      if (inst.HasCode()) {
        dwarf.SetNumber(die, DwAttr::kLowPc, inst.address);
      }
      for (const ParamSpec& param : func.spec.params) {
        uint32_t pdie = dwarf.AddDie(DwTag::kFormalParameter, die);
        dwarf.SetString(pdie, DwAttr::kName, param.name);
      }
      // First instance wins the file:func slot (callers reference by name).
      die_by_file_func.emplace(inst.tu_file + ":" + func.spec.name, die);
      die_by_file_func.emplace(func.spec.decl_file + ":" + func.spec.name, die);
      pending.push_back(PendingSites{die, &inst});
    }
  }
  // Pass 2: materialize inline/call sites under the caller subprograms.
  auto find_caller = [&](const std::string& caller) -> uint32_t {
    auto it = die_by_file_func.find(caller);
    if (it != die_by_file_func.end()) {
      return it->second;
    }
    // Fall back to a name-only match (the caller may live in another TU).
    size_t colon = caller.find(':');
    if (colon == std::string::npos) {
      return 0;
    }
    std::string name = caller.substr(colon + 1);
    for (const auto& [key, die] : die_by_file_func) {
      size_t k = key.find(':');
      if (k != std::string::npos && key.compare(k + 1, std::string::npos, name) == 0) {
        return die;
      }
    }
    return 0;
  };
  for (const PendingSites& p : pending) {
    for (const std::string& caller : p.inst->inline_callers) {
      uint32_t caller_die = find_caller(caller);
      if (caller_die == 0) {
        continue;  // caller dropped by configuration
      }
      uint32_t site = dwarf.AddDie(DwTag::kInlinedSubroutine, caller_die);
      dwarf.SetNumber(site, DwAttr::kAbstractOrigin, p.die);
    }
    for (const std::string& caller : p.inst->call_callers) {
      uint32_t caller_die = find_caller(caller);
      if (caller_die == 0) {
        continue;
      }
      uint32_t site = dwarf.AddDie(DwTag::kCallSite, caller_die);
      dwarf.SetNumber(site, DwAttr::kCallOrigin, p.die);
    }
  }

  // ---- Symbols for compiled functions.
  uint64_t data_base = ((stub_cursor + 0x200000) + 0xffff) & ~uint64_t{0xffff};
  // .text covers [text_base, data_base).
  // Function address resolution goes through the symbol table, never the
  // section body, so .text carries no bytes.
  uint32_t text_idx = writer.AddSection(".text", SectionType::kNobits, {}, text_base,
                                        kShfAlloc | kShfExecinstr);
  std::set<std::string> symbol_names_emitted;
  for (const CompiledFunction& func : image.funcs) {
    for (const CompiledInstance& inst : func.instances) {
      if (!inst.HasCode() || inst.symbol_name.empty()) {
        continue;
      }
      ElfSymbol sym;
      sym.name = inst.symbol_name;
      sym.value = inst.address;
      sym.size = 64;
      sym.bind = inst.external ? SymBind::kGlobal : SymBind::kLocal;
      sym.type = SymType::kFunc;
      sym.shndx = static_cast<uint16_t>(text_idx);
      writer.AddSymbol(sym);
      symbol_names_emitted.insert(inst.symbol_name);
    }
  }

  // ---- Tracepoint machinery symbols and records.
  uint64_t str_base = data_base;
  StringPool strings(str_base, endian);
  struct TracepointRecord {
    uint64_t event_name;
    uint64_t class_name;
    uint64_t struct_name;
    uint64_t fmt;
    uint64_t func_addr;
  };
  std::vector<TracepointRecord> records;
  for (const TracepointSpec& tp : kernel.tracepoints) {
    std::string func_name = std::string(kTraceFuncPrefix) + tp.class_name;
    uint64_t func_addr = alloc_stub(func_name);
    records.push_back(TracepointRecord{
        strings.Intern(tp.event_name), strings.Intern(tp.class_name),
        strings.Intern(std::string(kTraceStructPrefix) + tp.class_name),
        strings.Intern(tp.fmt), func_addr});
  }

  // ---- Syscall table and entry stubs.
  const char* prefix = SyscallSymbolPrefix(build.arch);
  uint64_t ni_addr = alloc_stub("sys_ni_syscall");
  int max_nr = -1;
  for (const SyscallSpec& spec : kernel.syscalls) {
    max_nr = std::max(max_nr, spec.nr);
  }
  std::vector<uint64_t> slots(static_cast<size_t>(max_nr + 1), ni_addr);
  for (const SyscallSpec& spec : kernel.syscalls) {
    std::string stub = prefix + spec.name;
    // Scripted functions may already define the stub (e.g. __x64_sys_fsync).
    uint64_t addr;
    if (symbol_names_emitted.count(stub) != 0) {
      addr = 0;  // resolved below via existing symbol
      for (const CompiledFunction& func : image.funcs) {
        for (const CompiledInstance& inst : func.instances) {
          if (inst.symbol_name == stub) {
            addr = inst.address;
          }
        }
      }
      if (addr == 0) {
        addr = alloc_stub(stub);
      }
    } else {
      addr = alloc_stub(stub);
    }
    slots[static_cast<size_t>(spec.nr)] = addr;
    if (spec.has_compat && CompatSyscallsTraceable(build.arch)) {
      // Compat entry points are only materialized where traceable; their
      // absence elsewhere is the paper's 32-bit blind spot.
      alloc_stub(std::string("__compat_sys_") + spec.name);
    }
  }

  // Emit extra symbols (stubs + tracing functions).
  for (const auto& [name, addr] : extra_symbols) {
    ElfSymbol sym;
    sym.name = name;
    sym.value = addr;
    sym.size = 64;
    sym.bind = SymBind::kGlobal;
    sym.type = SymType::kFunc;
    sym.shndx = static_cast<uint16_t>(text_idx);
    writer.AddSymbol(sym);
  }

  // ---- Data sections. Layout: strings | records | ftrace ptr array |
  // syscall table, at increasing addresses.
  std::vector<uint8_t> string_bytes = strings.TakeBytes();
  uint64_t records_base = (str_base + string_bytes.size() + 63) & ~uint64_t{63};
  uint64_t record_size = static_cast<uint64_t>(5 * ptr);
  uint64_t ftrace_base = (records_base + records.size() * record_size + 63) & ~uint64_t{63};
  uint64_t ftrace_size = records.size() * static_cast<uint64_t>(ptr);
  uint64_t syscall_base = (ftrace_base + ftrace_size + 63) & ~uint64_t{63};

  ByteWriter record_bytes(endian);
  for (const TracepointRecord& rec : records) {
    record_bytes.WriteAddr(rec.event_name, ptr);
    record_bytes.WriteAddr(rec.class_name, ptr);
    record_bytes.WriteAddr(rec.struct_name, ptr);
    record_bytes.WriteAddr(rec.fmt, ptr);
    record_bytes.WriteAddr(rec.func_addr, ptr);
  }
  ByteWriter ftrace_bytes(endian);
  for (size_t i = 0; i < records.size(); ++i) {
    ftrace_bytes.WriteAddr(records_base + i * record_size, ptr);
  }
  ByteWriter syscall_bytes(endian);
  for (uint64_t slot : slots) {
    syscall_bytes.WriteAddr(slot, ptr);
  }

  writer.AddSection(".tracepoint_str", SectionType::kProgbits, std::move(string_bytes), str_base,
                    kShfAlloc);
  writer.AddSection(".tracepoint_rec", SectionType::kProgbits, record_bytes.TakeBytes(),
                    records_base, kShfAlloc);
  uint32_t ftrace_idx = writer.AddSection(kSectionFtraceEvents, SectionType::kProgbits,
                                          ftrace_bytes.TakeBytes(), ftrace_base, kShfAlloc);
  uint32_t rodata_idx = writer.AddSection(".rodata", SectionType::kProgbits,
                                          syscall_bytes.TakeBytes(), syscall_base, kShfAlloc);

  ElfSymbol start_sym;
  start_sym.name = kSymStartFtrace;
  start_sym.value = ftrace_base;
  start_sym.bind = SymBind::kGlobal;
  start_sym.type = SymType::kObject;
  start_sym.shndx = static_cast<uint16_t>(ftrace_idx);
  writer.AddSymbol(start_sym);
  ElfSymbol stop_sym = start_sym;
  stop_sym.name = kSymStopFtrace;
  stop_sym.value = ftrace_base + ftrace_size;
  writer.AddSymbol(stop_sym);
  ElfSymbol table_sym;
  table_sym.name = kSymSyscallTable;
  table_sym.value = syscall_base;
  table_sym.size = slots.size() * static_cast<uint64_t>(ptr);
  table_sym.bind = SymBind::kGlobal;
  table_sym.type = SymType::kObject;
  table_sym.shndx = static_cast<uint16_t>(rodata_idx);
  writer.AddSymbol(table_sym);

  // ---- linux_banner: the analyzer recovers version/flavor/compiler from
  // this string, exactly like reading a real image's banner.
  std::string banner = StrFormat(
      "Linux version %d.%d.0-26-%s (buildd@lcy02) (gcc (Ubuntu) %d.4.0) #26-Ubuntu SMP\n",
      build.version.major, build.version.minor, FlavorName(build.flavor), build.gcc_major);
  uint64_t banner_base = syscall_base + 0x10000;
  ByteWriter banner_bytes(endian);
  banner_bytes.WriteCString(banner);
  uint32_t banner_idx = writer.AddSection(".rodata.banner", SectionType::kProgbits,
                                          banner_bytes.TakeBytes(), banner_base, kShfAlloc);
  ElfSymbol banner_sym;
  banner_sym.name = "linux_banner";
  banner_sym.value = banner_base;
  banner_sym.size = banner.size() + 1;
  banner_sym.bind = SymBind::kGlobal;
  banner_sym.type = SymType::kObject;
  banner_sym.shndx = static_cast<uint16_t>(banner_idx);
  writer.AddSymbol(banner_sym);

  // ---- .BTF_ids: the kfunc id set (as real kernels register kfuncs with
  // the verifier via BTF id sets).
  {
    ByteWriter ids(endian);
    for (const CompiledFunction& func : image.funcs) {
      if (!func.spec.is_kfunc) {
        continue;
      }
      if (auto id = graph.FindFunc(func.spec.name); id.has_value()) {
        ids.WriteU32(*id);
      }
    }
    writer.AddSection(".BTF_ids", SectionType::kProgbits, ids.TakeBytes());
  }

  // ---- .bpf_helpers: the BPF helper ids this kernel version exports
  // (stand-in for the real kernel's bpf_tracing_func_proto switch). The
  // surface extractor reads this into helpers(); the analyzer checks call
  // sites against it.
  {
    ByteWriter ids(endian);
    for (uint32_t id : AvailableHelperIds(build.version)) {
      ids.WriteU32(id);
    }
    writer.AddSection(kBpfHelpersSection, SectionType::kProgbits, ids.TakeBytes());
  }

  // ---- Embedded configuration summary (like Ubuntu's /boot config or the
  // IKCONFIG section): the analyzer reads option counts from here.
  {
    ByteWriter config_bytes(endian);
    std::string config = StrFormat(
        "# depsurf synthetic kernel configuration\nCONFIG_OPTIONS=%u\nCONFIG_ARCH=%s\n"
        "CONFIG_COMPAT_TRACEABLE=%c\n",
        kernel.config_options, ArchName(build.arch),
        CompatSyscallsTraceable(build.arch) ? 'y' : 'n');
    config_bytes.WriteString(config);
    writer.AddSection(".config", SectionType::kProgbits, config_bytes.TakeBytes());
  }

  // ---- Debug sections.
  DwarfSections dwarf_sections = EncodeDwarf(dwarf, endian);
  const uint64_t dwarf_abbrev_bytes = dwarf_sections.abbrev.size();
  const uint64_t dwarf_info_bytes = dwarf_sections.info.size();
  writer.AddSection(kSectionDwarfAbbrev, SectionType::kProgbits,
                    std::move(dwarf_sections.abbrev));
  writer.AddSection(kSectionDwarfInfo, SectionType::kProgbits, std::move(dwarf_sections.info));
  std::vector<uint8_t> btf_bytes = EncodeBtf(graph, endian);
  const uint64_t btf_section_bytes = btf_bytes.size();
  writer.AddSection(kSectionBtf, SectionType::kProgbits, std::move(btf_bytes));

  auto finished = writer.Finish();
  obs::MetricsRegistry& metrics = obs::Context::Current().metrics();
  metrics.Incr("kernelgen.images_built");
  metrics.Incr("kernelgen.btf_bytes", btf_section_bytes);
  metrics.Incr("kernelgen.dwarf_bytes", dwarf_abbrev_bytes + dwarf_info_bytes);
  span.AddAttr("btf_bytes", btf_section_bytes);
  span.AddAttr("dwarf_abbrev_bytes", dwarf_abbrev_bytes);
  span.AddAttr("dwarf_info_bytes", dwarf_info_bytes);
  if (finished.ok()) {
    metrics.Incr("kernelgen.image_bytes", finished->size());
    metrics.GetHistogram("kernelgen.image_bytes_hist")->Record(finished->size());
    span.AddAttr("image_bytes", static_cast<uint64_t>(finished->size()));
  }
  return finished;
}

}  // namespace depsurf
