// Read-side interface over a mismatch dataset. Two implementations exist:
// `Dataset` (the in-memory pool built by distillation or a full parse) and
// `MmapDataset` (zero-copy views over a mmap'd `.dds` file, see
// dataset_io.h). Report building and the `serve` query loop are written
// against this interface so a long-lived server never pays a full parse.
#ifndef DEPSURF_SRC_CORE_DATASET_VIEW_H_
#define DEPSURF_SRC_CORE_DATASET_VIEW_H_

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/dependency_surface.h"

namespace depsurf {

// Everything that can go wrong for one dependency on one image.
enum class MismatchKind : uint8_t {
  kAbsent,           // Ø  construct not on the surface
  kChanged,          // Δ  definition differs (vs baseline or expectation)
  kFullInline,       // F
  kSelectiveInline,  // S
  kTransformed,      // T
  kDuplicated,       // D
  kCollision,        // C (the paper's "name collision")
  kNotTraceable,     // 32-bit syscall blind spot
};

const char* MismatchKindName(MismatchKind kind);
// One-letter code used in report matrices (Ø rendered as '-').
char MismatchKindCode(MismatchKind kind);

using StrId = uint32_t;

class DatasetView {
 public:
  virtual ~DatasetView();

  virtual size_t num_images() const = 0;
  virtual std::vector<std::string> labels() const = 0;
  // Surface metadata / salvage-health summary for one image. Out-of-range
  // indices return defaults (implementations never throw).
  virtual SurfaceMeta MetaAt(size_t image_index) const = 0;
  virtual std::string HealthSummaryAt(size_t image_index) const = 0;
  virtual bool AnyDegradedAt(size_t image_index) const = 0;

  // All queries return one mismatch set per image, in insertion order.
  // Baselines (for Changed) are the construct's definition on the earliest
  // image where it is present.
  virtual std::vector<std::set<MismatchKind>> CheckFunc(const std::string& name) const = 0;
  virtual std::vector<std::set<MismatchKind>> CheckStruct(const std::string& name) const = 0;
  // `expected_type` is the program-side expectation (empty: fall back to
  // the baseline image's type). Guarded accesses never report kAbsent.
  virtual std::vector<std::set<MismatchKind>> CheckField(const std::string& struct_name,
                                                         const std::string& field_name,
                                                         const std::string& expected_type,
                                                         bool guarded) const = 0;
  virtual std::vector<std::set<MismatchKind>> CheckTracepoint(const std::string& event) const = 0;
  virtual std::vector<std::set<MismatchKind>> CheckSyscall(const std::string& name) const = 0;
  // Register-layout mismatch vs the first image (Table 5's "Register Δ").
  virtual std::vector<std::set<MismatchKind>> CheckRegisters() const = 0;

  // Rendered function declaration on one image; nullopt when absent there.
  // Views stay valid as long as the implementation object does.
  virtual std::optional<std::string_view> FuncDeclAt(const std::string& name,
                                                     size_t image_index) const = 0;
  // Field type string on one image; nullopt when absent.
  virtual std::optional<std::string_view> FieldTypeAt(const std::string& struct_name,
                                                      const std::string& field_name,
                                                      size_t image_index) const = 0;
};

}  // namespace depsurf

#endif  // DEPSURF_SRC_CORE_DATASET_VIEW_H_
