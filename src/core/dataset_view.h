// Read-side interface over a mismatch dataset. Two implementations exist:
// `Dataset` (the in-memory pool built by distillation or a full parse) and
// `MmapDataset` (zero-copy views over a mmap'd `.dds` file, see
// dataset_io.h). Report building and the `serve` query loop are written
// against this interface so a long-lived server never pays a full parse.
#ifndef DEPSURF_SRC_CORE_DATASET_VIEW_H_
#define DEPSURF_SRC_CORE_DATASET_VIEW_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <optional>
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

// The mismatch kinds of one dependency on one image: one bit per kind, so a
// cell costs one byte and no allocation. It keeps the part of
// std::set<MismatchKind>'s interface callers use: insert, erase, count,
// empty, size, iteration in kind order and ==.
class MismatchSet {
 public:
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = MismatchKind;
    using difference_type = std::ptrdiff_t;
    using pointer = const MismatchKind*;
    using reference = MismatchKind;

    const_iterator() = default;
    MismatchKind operator*() const { return static_cast<MismatchKind>(std::countr_zero(rest_)); }
    const_iterator& operator++() {
      rest_ &= static_cast<uint8_t>(rest_ - 1);  // drop the lowest kind
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator before = *this;
      ++*this;
      return before;
    }
    bool operator==(const const_iterator&) const = default;

   private:
    friend class MismatchSet;
    explicit const_iterator(uint8_t rest) : rest_(rest) {}
    uint8_t rest_ = 0;  // the kinds not yet visited
  };
  using iterator = const_iterator;

  void insert(MismatchKind kind) { bits_ |= Bit(kind); }
  // Returns how many kinds it removed (0 or 1), like std::set::erase.
  size_t erase(MismatchKind kind) {
    const size_t had = count(kind);
    bits_ &= static_cast<uint8_t>(~Bit(kind));
    return had;
  }
  size_t count(MismatchKind kind) const { return (bits_ & Bit(kind)) != 0 ? 1 : 0; }
  bool empty() const { return bits_ == 0; }
  size_t size() const { return static_cast<size_t>(std::popcount(bits_)); }
  const_iterator begin() const { return const_iterator(bits_); }
  const_iterator end() const { return const_iterator(0); }
  bool operator==(const MismatchSet&) const = default;

 private:
  static uint8_t Bit(MismatchKind kind) {
    return static_cast<uint8_t>(1u << static_cast<unsigned>(kind));
  }
  uint8_t bits_ = 0;
};
static_assert(sizeof(MismatchSet) == 1);

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
  virtual std::vector<MismatchSet> CheckFunc(const std::string& name) const = 0;
  virtual std::vector<MismatchSet> CheckStruct(const std::string& name) const = 0;
  // `expected_type` is the program-side expectation (empty: fall back to
  // the baseline image's type). Guarded accesses never report kAbsent.
  virtual std::vector<MismatchSet> CheckField(const std::string& struct_name,
                                              const std::string& field_name,
                                              const std::string& expected_type,
                                              bool guarded) const = 0;
  virtual std::vector<MismatchSet> CheckTracepoint(const std::string& event) const = 0;
  virtual std::vector<MismatchSet> CheckSyscall(const std::string& name) const = 0;
  // Register-layout mismatch vs the first image (Table 5's "Register Δ").
  virtual std::vector<MismatchSet> CheckRegisters() const = 0;

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
