// ELF serialization of BpfObject (WriteBpfObject / ParseBpfObject).
#include <map>

#include "src/bpf/bpf_insn.h"
#include "src/bpf/bpf_object.h"
#include "src/btf/btf_codec.h"
#include "src/elf/elf_reader.h"
#include "src/elf/elf_writer.h"
#include "src/util/str_util.h"

namespace depsurf {

namespace {

// .BTF.ext layout (simplified but binary): u32 magic, u32 reloc count,
// u32 string-section length, then per record {u32 type_id, u32 kind,
// u32 access offset, u32 prog_index, u32 insn_off}, then the string
// section. prog_index/insn_off bind the record to the instruction it
// patches (kRelocUnbound when the record has no instruction).
constexpr size_t kBtfExtRecordSize = 20;

std::vector<uint8_t> EncodeBtfExt(const std::vector<CoreReloc>& relocs) {
  ByteWriter strings(Endian::kLittle);
  strings.WriteU8(0);
  std::map<std::string, uint32_t> offsets;
  auto intern = [&](const std::string& s) {
    auto it = offsets.find(s);
    if (it != offsets.end()) {
      return it->second;
    }
    uint32_t off = static_cast<uint32_t>(strings.size());
    strings.WriteCString(s);
    offsets[s] = off;
    return off;
  };
  ByteWriter records(Endian::kLittle);
  for (const CoreReloc& reloc : relocs) {
    records.WriteU32(reloc.root_type_id);
    records.WriteU32(static_cast<uint32_t>(reloc.kind));
    records.WriteU32(intern(reloc.access_str));
    records.WriteU32(reloc.prog_index);
    records.WriteU32(reloc.insn_off);
  }
  ByteWriter out(Endian::kLittle);
  out.WriteU32(kBtfExtMagic);
  out.WriteU32(static_cast<uint32_t>(relocs.size()));
  out.WriteU32(static_cast<uint32_t>(strings.size()));
  const auto& rec_bytes = records.bytes();
  out.WriteBytes(rec_bytes.data(), rec_bytes.size());
  const auto& str_bytes = strings.bytes();
  out.WriteBytes(str_bytes.data(), str_bytes.size());
  return out.TakeBytes();
}

Result<std::vector<CoreReloc>> DecodeBtfExt(ByteReader reader) {
  DEPSURF_ASSIGN_OR_RETURN(magic, reader.ReadU32());
  if (magic != kBtfExtMagic) {
    return Error(ErrorCode::kMalformedData, "BTF.ext magic mismatch");
  }
  DEPSURF_ASSIGN_OR_RETURN(count, reader.ReadU32());
  DEPSURF_ASSIGN_OR_RETURN(str_len, reader.ReadU32());
  uint64_t records_size = static_cast<uint64_t>(count) * kBtfExtRecordSize;
  if (records_size + str_len + 12 > reader.size()) {
    return Error(ErrorCode::kMalformedData, "BTF.ext truncated");
  }
  DEPSURF_ASSIGN_OR_RETURN(strings, reader.Slice(12 + records_size, str_len));
  std::vector<CoreReloc> out;
  out.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    CoreReloc reloc;
    DEPSURF_ASSIGN_OR_RETURN(type_id, reader.ReadU32());
    reloc.root_type_id = type_id;
    DEPSURF_ASSIGN_OR_RETURN(kind, reader.ReadU32());
    if (kind != 0 && kind != 1 && kind != 3 && kind != 8) {
      return Error(ErrorCode::kUnsupported, StrFormat("reloc kind %u", kind));
    }
    reloc.kind = static_cast<CoreRelocKind>(kind);
    DEPSURF_ASSIGN_OR_RETURN(str_off, reader.ReadU32());
    DEPSURF_ASSIGN_OR_RETURN(access, strings.ReadCStringAt(str_off));
    reloc.access_str = std::move(access);
    DEPSURF_ASSIGN_OR_RETURN(prog_index, reader.ReadU32());
    reloc.prog_index = prog_index;
    DEPSURF_ASSIGN_OR_RETURN(insn_off, reader.ReadU32());
    reloc.insn_off = insn_off;
    out.push_back(std::move(reloc));
  }
  return out;
}

}  // namespace

Result<std::vector<uint8_t>> WriteBpfObject(const BpfObject& object) {
  // eBPF objects are always little-endian 64-bit in this corpus (built on
  // the dev machine; CO-RE is what makes them portable).
  ElfWriter writer(ElfIdent{ElfClass::k64, Endian::kLittle, ElfMachine::kX86_64});
  for (const BpfProgram& program : object.programs) {
    // A program with no recorded stream still gets a well-formed body: a
    // single exit so the section decodes cleanly.
    std::vector<uint8_t> insns = program.insns.empty() ? EncodeInsns({ExitInsn()})
                                                       : EncodeInsns(program.insns);
    uint32_t section = writer.AddSection(HookSectionName(program.hook), SectionType::kProgbits,
                                         std::move(insns), 0, kShfAlloc | kShfExecinstr);
    ElfSymbol sym;
    sym.name = program.name;
    sym.bind = SymBind::kGlobal;
    sym.type = SymType::kFunc;
    sym.shndx = static_cast<uint16_t>(section);
    writer.AddSymbol(sym);
  }
  writer.AddSection(".rodata.name", SectionType::kProgbits,
                    std::vector<uint8_t>(object.name.begin(), object.name.end()));
  writer.AddSection(kBtfSection, SectionType::kProgbits, EncodeBtf(object.btf));
  writer.AddSection(kBtfExtSection, SectionType::kProgbits, EncodeBtfExt(object.relocs));
  return writer.Finish();
}

Result<BpfObject> ParseBpfObject(std::vector<uint8_t> bytes, DiagnosticLedger* ledger) {
  // Without a caller ledger the parse is strict: salvage records into a
  // local one, and its first entry is returned as the error below.
  DiagnosticLedger strict;
  if (ledger == nullptr) {
    ledger = &strict;
  }
  DEPSURF_ASSIGN_OR_RETURN(reader, ElfReader::Parse(std::move(bytes)));
  BpfObject object;
  // Program sections -> hooks; the section's first FUNC symbol names the
  // program. One pass over the symbols finds each section's.
  std::vector<const ElfSymbol*> first_func(reader.sections().size(), nullptr);
  for (const ElfSymbol& sym : reader.symbols()) {
    if (sym.type == SymType::kFunc && sym.shndx < first_func.size() &&
        first_func[sym.shndx] == nullptr) {
      first_func[sym.shndx] = &sym;
    }
  }
  for (size_t i = 0; i < reader.sections().size(); ++i) {
    const ElfSectionView& section = reader.sections()[i];
    std::optional<Hook> hook = ParseHookSection(section.name);
    if (!hook.has_value()) {
      continue;
    }
    BpfProgram program;
    program.hook = *hook;
    if (first_func[i] != nullptr) {
      program.name = first_func[i]->name;
    }
    // Decode the instruction stream. A garbage stream degrades this one
    // program (keeping its decoded prefix) rather than failing the object.
    Result<ByteReader> data = reader.SectionData(section);
    if (data.ok()) {
      program.insns = DecodeInsns(*data, ledger);
    } else {
      ledger->AddError(DiagSeverity::kDegraded, DiagSubsystem::kBpf, data.error());
    }
    object.programs.push_back(std::move(program));
  }
  if (const ElfSectionView* name_sec = reader.SectionByName(".rodata.name")) {
    DEPSURF_ASSIGN_OR_RETURN(data, reader.SectionData(*name_sec));
    DEPSURF_ASSIGN_OR_RETURN(raw, data.ReadBytes(data.size()));
    object.name.assign(raw.begin(), raw.end());
  }
  DEPSURF_ASSIGN_OR_RETURN(btf_data, reader.SectionDataByName(kBtfSection));
  DEPSURF_ASSIGN_OR_RETURN(btf, DecodeBtf(btf_data));
  object.btf = std::move(btf);
  DEPSURF_ASSIGN_OR_RETURN(ext_data, reader.SectionDataByName(kBtfExtSection));
  DEPSURF_ASSIGN_OR_RETURN(relocs, DecodeBtfExt(ext_data));
  object.relocs = std::move(relocs);
  // Clamp dangling program bindings (written by a different tool or mangled
  // in transit) back to "unbound" so downstream indexing stays safe.
  for (CoreReloc& reloc : object.relocs) {
    if (reloc.prog_index != kRelocUnbound && reloc.prog_index >= object.programs.size()) {
      ledger->Add(DiagSeverity::kWarning, DiagSubsystem::kBpf, ErrorCode::kMalformedData,
                  StrFormat("reloc bound to missing program %u; treating as unbound",
                            reloc.prog_index));
      reloc.prog_index = kRelocUnbound;
      reloc.insn_off = 0;
    }
  }
  if (!strict.empty()) {
    const DiagnosticEntry& first = strict.entries().front();
    Error error = Error(first.code, first.message).WithSubsystem(DiagSubsystem::kBpf);
    return first.has_offset ? std::move(error).WithOffset(first.offset) : error;
  }
  return object;
}

}  // namespace depsurf
