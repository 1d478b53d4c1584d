// Serialization of the mismatch dataset. The paper publishes its dataset
// as a standalone artifact so dependency-set analysis can run without the
// (64 GB of) kernel images; this is the equivalent: distill images once
// with `depsurf dataset build`, query the compact file forever after.
//
// The on-disk format ("DDS2") uses page-aligned sections, an offset-based
// interned string table, and flat per-image record arrays sorted by name
// id, so a file opens via mmap in O(pages touched) and `MmapDataset`
// answers queries with zero-copy string/record views (see docs/FORMATS.md
// §6). Files in the retired sequential "DDS1" layout are refused; rebuild
// them from their images.
#ifndef DEPSURF_SRC_CORE_DATASET_IO_H_
#define DEPSURF_SRC_CORE_DATASET_IO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/dataset.h"
#include "src/core/dataset_view.h"

namespace depsurf {

inline constexpr uint32_t kDatasetMagicV2 = 0x32534444;  // "DDS2"
// Every v2 section starts on a page boundary so a query touches only the
// pages its binary searches land on.
inline constexpr uint32_t kDatasetV2PageSize = 4096;

// Emits the dataset file, byte-deterministically. The string pool is the
// dataset's own pool in id order, followed by labels, arch/flavor, function
// suffixes and diagnostic messages in first-use order.
std::vector<uint8_t> SaveDatasetV2(const Dataset& dataset);

// Full strict parse into an in-memory Dataset (the path for `dataset info`,
// `check`, `analyze` and `fix`; servers use MmapDataset). Besides bounds and
// ids it enforces every order the mmap view binary-searches, so a file this
// accepts answers the same through either reader. Saving the result of
// loading a file SaveDatasetV2 wrote reproduces that file's bytes.
Result<Dataset> LoadDatasetV2(const std::vector<uint8_t>& bytes);

// Zero-copy read view over a `.dds` file. Open() maps the file and
// validates the header + section table once (O(sections)); every query then
// touches only the pages its lookups land on. Record accessors re-check
// bounds on every access, so a truncated or bit-flipped file degrades to
// "absent" answers instead of crashing — corruption found at open time is
// reported as an error, corruption found later yields empty views.
class MmapDataset : public DatasetView {
 public:
  static Result<MmapDataset> Open(const std::string& path);
  // Adopts an in-memory buffer instead of a file mapping (tests, sockets).
  static Result<MmapDataset> FromBytes(std::vector<uint8_t> bytes);

  MmapDataset(MmapDataset&& other) noexcept;
  MmapDataset& operator=(MmapDataset&& other) noexcept;
  MmapDataset(const MmapDataset&) = delete;
  MmapDataset& operator=(const MmapDataset&) = delete;
  ~MmapDataset() override;

  size_t num_images() const override { return image_count_; }
  std::vector<std::string> labels() const override;
  SurfaceMeta MetaAt(size_t image_index) const override;
  std::string HealthSummaryAt(size_t image_index) const override;
  bool AnyDegradedAt(size_t image_index) const override;

  std::vector<MismatchSet> CheckFunc(const std::string& name) const override;
  std::vector<MismatchSet> CheckStruct(const std::string& name) const override;
  std::vector<MismatchSet> CheckField(const std::string& struct_name,
                                      const std::string& field_name,
                                      const std::string& expected_type,
                                      bool guarded) const override;
  std::vector<MismatchSet> CheckTracepoint(const std::string& event) const override;
  std::vector<MismatchSet> CheckSyscall(const std::string& name) const override;
  std::vector<MismatchSet> CheckRegisters() const override;

  std::optional<std::string_view> FuncDeclAt(const std::string& name,
                                             size_t image_index) const override;
  std::optional<std::string_view> FieldTypeAt(const std::string& struct_name,
                                              const std::string& field_name,
                                              size_t image_index) const override;

  // Interned-pool introspection (stats/debugging).
  uint32_t string_count() const { return string_count_; }
  size_t byte_size() const { return size_; }
  // Zero-copy string view; nullopt for out-of-range ids or corrupt offsets.
  std::optional<std::string_view> StringViewAt(StrId id) const;
  // Binary search over the lexicographically sorted id index.
  StrId LookupId(std::string_view s) const;

 private:
  struct Section {
    uint64_t offset = 0;
    uint64_t size = 0;
  };

  MmapDataset() = default;
  Status Attach(const uint8_t* data, size_t size);
  const uint8_t* ImageHeader(size_t image_index) const;
  const Section& SectionOf(uint32_t kind) const { return sections_[kind]; }

  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
  void* map_base_ = nullptr;  // non-null when backed by mmap
  size_t map_len_ = 0;
  std::vector<uint8_t> owned_;  // non-empty when backed by FromBytes
  uint32_t image_count_ = 0;
  uint32_t string_count_ = 0;
  std::vector<Section> sections_;  // indexed by section kind (1..10)
};

}  // namespace depsurf

#endif  // DEPSURF_SRC_CORE_DATASET_IO_H_
