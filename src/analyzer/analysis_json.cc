// Deterministic depsurf.analysis.v1 serialization. Key order is fixed and
// every collection is pre-sorted by AnalyzeObject, so two runs over the
// same object produce byte-identical documents (golden-testable).
#include "src/analyzer/analyzer.h"
#include "src/obs/json_writer.h"

namespace depsurf {

void WriteAnalysisHead(obs::JsonWriter& writer, const char* schema,
                       const ObjectAnalysis& analysis) {
  writer.BeginObject().Break(2).Key("schema").String(schema);
  writer.Break(2).Key("object").String(analysis.object_name).Break(2).Key("against");
  if (analysis.against_dataset) {
    writer.BeginObject().Key("images").Uint(analysis.against_images).EndObject();
  } else {
    writer.Null();
  }
}

void WriteFindingMembers(obs::JsonWriter& writer, const Finding& finding) {
  writer.Key("kind").String(FindingKindName(finding.kind)).Key("program").String(finding.program);
  writer.Key("insn_off").Uint(finding.insn_off);
  if (finding.reloc_index >= 0) {
    writer.Key("reloc").Int(finding.reloc_index);
  }
  writer.Key("detail").String(finding.detail);
}

std::string AnalysisToJson(const ObjectAnalysis& analysis) {
  std::string out;
  obs::JsonWriter writer(out);
  WriteAnalysisHead(writer, kAnalysisSchema, analysis);
  // One element per line. Each leaves a Break(2) pending, so a non-empty
  // array closes on a line of its own.
  writer.Break(2).Key("programs").BeginArray();
  for (const ProgramAnalysis& pa : analysis.programs) {
    writer.Break(4).BeginObject().Key("name").String(pa.name).Key("section").String(pa.section);
    writer.Key("insns").Uint(pa.insn_count).Key("blocks").Uint(pa.block_count);
    writer.Key("reachable_insns").Uint(pa.reachable_insns);
    writer.Key("helper_calls").Uint(pa.helper_calls).EndObject().Break(2);
  }
  writer.EndArray().Break(2).Key("relocs").BeginArray();
  for (const RelocVerdict& verdict : analysis.relocs) {
    writer.Break(4).BeginObject().Key("index").Uint(verdict.index);
    writer.Key("kind").String(CoreRelocKindName(verdict.kind));
    writer.Key("struct").String(verdict.struct_name).Key("field").String(verdict.field_name);
    if (verdict.bound) {
      writer.Key("program").String(verdict.program).Key("insn_off").Uint(verdict.insn_off);
    } else {
      writer.Key("program").Null();
    }
    writer.Key("reachable").Bool(verdict.reachable).Key("unguarded").Bool(verdict.unguarded);
    if (analysis.against_dataset) {
      writer.Key("consequence").String(verdict.consequence);
    }
    writer.EndObject().Break(2);
  }
  writer.EndArray().Break(2).Key("findings").BeginArray();
  for (const Finding& finding : analysis.findings) {
    writer.Break(4).BeginObject();
    WriteFindingMembers(writer, finding);
    writer.Key("remediation").String(finding.remediation).EndObject().Break(2);
  }
  writer.EndArray().Break(2).Key("summary").BeginObject();
  writer.Key("findings").Uint(analysis.findings.size());
  writer.Key("raw_offset_deref").Uint(analysis.CountKind(FindingKind::kRawOffsetDeref));
  writer.Key("unguarded_reloc").Uint(analysis.CountKind(FindingKind::kUnguardedReloc));
  writer.Key("unknown_helper").Uint(analysis.CountKind(FindingKind::kUnknownHelper));
  writer.Key("unreachable_reloc").Uint(analysis.CountKind(FindingKind::kUnreachableReloc));
  writer.EndObject().Break(0).EndObject();
  out += '\n';
  return out;
}

}  // namespace depsurf
