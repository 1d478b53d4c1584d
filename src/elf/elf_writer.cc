#include "src/elf/elf_writer.h"

#include "src/util/string_table.h"

namespace depsurf {

namespace {

struct ShdrFields {
  uint32_t name = 0;
  uint32_t type = 0;
  uint64_t flags = 0;
  uint64_t addr = 0;
  uint64_t offset = 0;
  uint64_t size = 0;
  uint32_t link = 0;
  uint32_t info = 0;
  uint64_t addralign = 1;
  uint64_t entsize = 0;
};

void WriteShdr(ByteWriter& w, const ShdrFields& s, ElfClass klass) {
  int ptr = klass == ElfClass::k64 ? 8 : 4;
  w.WriteU32(s.name);
  w.WriteU32(s.type);
  w.WriteAddr(s.flags, ptr);
  w.WriteAddr(s.addr, ptr);
  w.WriteAddr(s.offset, ptr);
  w.WriteAddr(s.size, ptr);
  w.WriteU32(s.link);
  w.WriteU32(s.info);
  w.WriteAddr(s.addralign, ptr);
  w.WriteAddr(s.entsize, ptr);
}

void WriteSym(ByteWriter& w, const ElfSymbol& sym, uint32_t name_off, ElfClass klass) {
  uint8_t info =
      static_cast<uint8_t>((static_cast<uint8_t>(sym.bind) << 4) | static_cast<uint8_t>(sym.type));
  if (klass == ElfClass::k64) {
    w.WriteU32(name_off);
    w.WriteU8(info);
    w.WriteU8(0);  // st_other
    w.WriteU16(sym.shndx);
    w.WriteU64(sym.value);
    w.WriteU64(sym.size);
  } else {
    w.WriteU32(name_off);
    w.WriteU32(static_cast<uint32_t>(sym.value));
    w.WriteU32(static_cast<uint32_t>(sym.size));
    w.WriteU8(info);
    w.WriteU8(0);
    w.WriteU16(sym.shndx);
  }
}

}  // namespace

uint32_t ElfWriter::AddSection(std::string name, SectionType type, std::vector<uint8_t> data,
                               uint64_t addr, uint64_t flags, uint64_t entsize) {
  sections_.push_back(Section{std::move(name), type, std::move(data), addr, flags, entsize});
  return static_cast<uint32_t>(sections_.size());  // +1 for the null section
}

void ElfWriter::AddSymbol(const ElfSymbol& symbol) { symbols_.push_back(symbol); }

Result<std::vector<uint8_t>> ElfWriter::Finish() const {
  const bool is64 = ident_.klass == ElfClass::k64;
  const size_t ehsize = is64 ? 64 : 52;
  const size_t shentsize = is64 ? 64 : 40;
  const size_t symentsize = is64 ? 24 : 16;

  // Assemble the full section list: user sections, then (optionally)
  // .symtab/.strtab, then .shstrtab.
  std::vector<Section> sections = sections_;
  uint32_t symtab_index = 0;
  if (!symbols_.empty()) {
    StringTableBuilder strtab;
    ByteWriter symdata(ident_.endian);
    // Entry 0 is the mandatory null symbol.
    WriteSym(symdata, ElfSymbol{}, 0, ident_.klass);
    // ELF requires local symbols before globals; honor it so the file is
    // valid for external tooling too.
    std::vector<const ElfSymbol*> ordered;
    ordered.reserve(symbols_.size());
    for (const ElfSymbol& s : symbols_) {
      if (s.bind == SymBind::kLocal) {
        ordered.push_back(&s);
      }
    }
    uint32_t first_global = static_cast<uint32_t>(ordered.size()) + 1;
    for (const ElfSymbol& s : symbols_) {
      if (s.bind != SymBind::kLocal) {
        ordered.push_back(&s);
      }
    }
    for (const ElfSymbol* s : ordered) {
      WriteSym(symdata, *s, strtab.Add(s->name), ident_.klass);
    }
    symtab_index = static_cast<uint32_t>(sections.size()) + 1;
    Section symtab{".symtab", SectionType::kSymtab, symdata.TakeBytes(), 0, 0, symentsize};
    symtab.link = symtab_index + 1;  // the .strtab that follows
    symtab.info = first_global;      // sh_info: one past the last local symbol
    sections.push_back(std::move(symtab));
    sections.push_back(Section{".strtab", SectionType::kStrtab, strtab.TakeBytes(), 0, 0, 0});
  }

  StringTableBuilder shstrtab;
  std::vector<uint32_t> name_offsets;
  name_offsets.reserve(sections.size() + 1);
  for (const Section& s : sections) {
    name_offsets.push_back(shstrtab.Add(s.name));
  }
  uint32_t shstrtab_name = shstrtab.Add(".shstrtab");
  std::vector<uint8_t> shstrtab_bytes = shstrtab.TakeBytes();
  uint32_t shstrtab_index = static_cast<uint32_t>(sections.size()) + 1;

  // Compute file offsets for section bodies.
  std::vector<uint64_t> offsets(sections.size());
  uint64_t cursor = ehsize;
  for (size_t i = 0; i < sections.size(); ++i) {
    cursor = (cursor + 7) & ~uint64_t{7};
    offsets[i] = cursor;
    cursor += sections[i].data.size();
  }
  cursor = (cursor + 7) & ~uint64_t{7};
  uint64_t shstrtab_offset = cursor;
  cursor += shstrtab_bytes.size();
  cursor = (cursor + 7) & ~uint64_t{7};
  uint64_t shoff = cursor;
  uint64_t shnum = sections.size() + 2;  // + null + shstrtab

  ByteWriter w(ident_.endian);
  // e_ident
  w.WriteU8(0x7f);
  w.WriteString("ELF");
  w.WriteU8(static_cast<uint8_t>(ident_.klass));
  w.WriteU8(ident_.endian == Endian::kLittle ? 1 : 2);
  w.WriteU8(1);  // EV_CURRENT
  w.WriteZeros(9);
  w.WriteU16(2);  // ET_EXEC: kernel images are executables
  w.WriteU16(static_cast<uint16_t>(ident_.machine));
  w.WriteU32(1);  // e_version
  int ptr = ident_.pointer_size();
  w.WriteAddr(0, ptr);      // e_entry
  w.WriteAddr(0, ptr);      // e_phoff
  w.WriteAddr(shoff, ptr);  // e_shoff
  w.WriteU32(0);            // e_flags
  w.WriteU16(static_cast<uint16_t>(ehsize));
  w.WriteU16(0);  // e_phentsize
  w.WriteU16(0);  // e_phnum
  w.WriteU16(static_cast<uint16_t>(shentsize));
  w.WriteU16(static_cast<uint16_t>(shnum));
  w.WriteU16(static_cast<uint16_t>(shstrtab_index));
  if (w.size() != ehsize) {
    return Error(ErrorCode::kInternal, "ELF header size mismatch");
  }

  for (size_t i = 0; i < sections.size(); ++i) {
    w.AlignTo(8);
    if (w.size() != offsets[i]) {
      return Error(ErrorCode::kInternal, "section offset mismatch");
    }
    w.WriteBytes(sections[i].data.data(), sections[i].data.size());
  }
  w.AlignTo(8);
  w.WriteBytes(shstrtab_bytes.data(), shstrtab_bytes.size());
  w.AlignTo(8);
  if (w.size() != shoff) {
    return Error(ErrorCode::kInternal, "shoff mismatch");
  }

  // Section header table: null, user sections, shstrtab.
  WriteShdr(w, ShdrFields{}, ident_.klass);
  for (size_t i = 0; i < sections.size(); ++i) {
    const Section& s = sections[i];
    ShdrFields f;
    f.name = name_offsets[i];
    f.type = static_cast<uint32_t>(s.type);
    f.flags = s.flags;
    f.offset = offsets[i];
    f.size = s.data.size();
    f.entsize = s.entsize;
    f.link = s.link;
    f.info = s.info;
    f.addr = s.addr;
    WriteShdr(w, f, ident_.klass);
  }
  ShdrFields shstr;
  shstr.name = shstrtab_name;
  shstr.type = static_cast<uint32_t>(SectionType::kStrtab);
  shstr.offset = shstrtab_offset;
  shstr.size = shstrtab_bytes.size();
  WriteShdr(w, shstr, ident_.klass);

  (void)symtab_index;
  return w.TakeBytes();
}

}  // namespace depsurf
