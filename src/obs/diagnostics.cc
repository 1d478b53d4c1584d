#include "src/obs/diagnostics.h"

#include <algorithm>
#include <tuple>

#include "src/obs/json_writer.h"

namespace depsurf {
namespace obs {

DiagnosticsCollector& DiagnosticsCollector::Global() {
  static DiagnosticsCollector* collector = new DiagnosticsCollector();
  return *collector;
}

void DiagnosticsCollector::Add(const DiagnosticEntry& entry) {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.push_back(entry);
}

void DiagnosticsCollector::AddAll(const DiagnosticLedger& ledger) {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.insert(entries_.end(), ledger.entries().begin(), ledger.entries().end());
}

std::vector<DiagnosticEntry> DiagnosticsCollector::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_;
}

size_t DiagnosticsCollector::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

void DiagnosticsCollector::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
}

bool DiagnosticEntryLess(const DiagnosticEntry& a, const DiagnosticEntry& b) {
  int64_t a_off = a.has_offset ? static_cast<int64_t>(a.offset) : -1;
  int64_t b_off = b.has_offset ? static_cast<int64_t>(b.offset) : -1;
  return std::tie(a.severity, a.subsystem, a.code, a_off, a.message) <
         std::tie(b.severity, b.subsystem, b.code, b_off, b.message);
}

std::string DiagnosticsJson(std::vector<DiagnosticEntry> entries) {
  std::sort(entries.begin(), entries.end(), DiagnosticEntryLess);
  std::string out;
  JsonWriter writer(out);
  writer.BeginArray();
  for (const DiagnosticEntry& e : entries) {
    writer.BeginObject();
    writer.Key("severity").String(DiagSeverityName(e.severity));
    writer.Key("subsystem").String(DiagSubsystemName(e.subsystem));
    writer.Key("code").String(ErrorCodeName(e.code));
    writer.Key("offset").Int(e.has_offset ? static_cast<int64_t>(e.offset) : -1);
    writer.Key("message").String(e.message);
    writer.EndObject();
  }
  writer.EndArray();
  return out;
}

}  // namespace obs
}  // namespace depsurf
