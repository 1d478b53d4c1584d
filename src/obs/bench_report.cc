#include "src/obs/bench_report.h"

#include <cstdlib>

#include "src/obs/diag.h"
#include "src/obs/json_writer.h"
#include "src/util/file_util.h"

namespace depsurf {
namespace obs {

StageTimer::StageTimer(BenchReporter* reporter, std::string name)
    : reporter_(reporter), name_(std::move(name)), start_(std::chrono::steady_clock::now()) {}

StageTimer::StageTimer(StageTimer&& other) noexcept
    : reporter_(other.reporter_),
      name_(std::move(other.name_)),
      items_(other.items_),
      bytes_(other.bytes_),
      start_(other.start_) {
  other.reporter_ = nullptr;
}

StageTimer::~StageTimer() {
  if (reporter_ == nullptr) {
    return;
  }
  double seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
                       .count();
  reporter_->AddStage(BenchStage{std::move(name_), seconds, items_, bytes_});
}

BenchReporter::BenchReporter(std::string name) : name_(std::move(name)) {}

BenchReporter::~BenchReporter() {
  if (!written_) {
    WriteJson();
  }
}

void BenchReporter::AddNote(const std::string& key, const std::string& value) {
  notes_.emplace_back(key, value);
}

void BenchReporter::AddStage(BenchStage stage) { stages_.push_back(std::move(stage)); }

std::string BenchReporter::path() const {
  const char* dir = getenv("DEPSURF_BENCH_DIR");
  std::string prefix = dir != nullptr && dir[0] != '\0' ? std::string(dir) + "/" : "";
  return prefix + "BENCH_" + name_ + ".json";
}

Status BenchReporter::WriteJson() {
  written_ = true;
  std::string out;
  JsonWriter writer(out);
  writer.BeginObject().Break(0).Key("schema").String(kBenchReportSchema);
  writer.Break(0).Key("bench").String(name_);
  writer.Break(0).Key("notes").BeginObject();
  for (const auto& [key, value] : notes_) {
    writer.Key(key).String(value);
  }
  writer.EndObject().Break(0).Key("stages").BeginArray();
  for (const BenchStage& stage : stages_) {
    auto per_sec = [&stage](uint64_t n) {
      return stage.seconds > 0 ? static_cast<double>(n) / stage.seconds : 0.0;
    };
    writer.Break(2).BeginObject().Key("name").String(stage.name);
    writer.Key("seconds").Fixed(stage.seconds, 6).Key("items").Uint(stage.items);
    writer.Key("items_per_sec").Fixed(per_sec(stage.items), 3).Key("bytes").Uint(stage.bytes);
    writer.Key("bytes_per_sec").Fixed(per_sec(stage.bytes), 1).EndObject();
  }
  writer.Break(0).EndArray().Break(0).EndObject();
  out += '\n';

  Status written = WriteFile(path(), out);
  if (!written.ok()) {
    Diag(Severity::kWarning, "bench report", written.error());
  }
  return written;
}

}  // namespace obs
}  // namespace depsurf
