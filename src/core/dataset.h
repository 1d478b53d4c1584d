// The dependency-mismatch dataset: compact per-image records distilled from
// dependency surfaces, queryable per construct. This is the artifact
// DepSurf publishes (paper §3.1): images are processed once, surfaces are
// dropped, and dependency-set analysis runs against these records.
//
// Records are heavily interned: at paper scale an image contributes ~70k
// functions and ~8k structs, and the corpus holds 25 images, so names and
// type strings are stored once in a shared pool and referenced by id; the
// pool's index is a flat table of ids, not a second copy of the strings.
// Function declarations are kept as fingerprints (hashes); benches that
// need change *kinds* (Table 4) diff full surfaces pairwise instead.
//
// The heap layout is the v2 file's (dataset_io.h): each image's records are
// runs strictly ascending by name id, and the pool is one block of
// NUL-terminated strings in id order plus their start offsets, so distill
// appends to arrays and saving or loading copies them. A pool string is read
// as a View into that block, valid until the next Intern.
#ifndef DEPSURF_SRC_CORE_DATASET_H_
#define DEPSURF_SRC_CORE_DATASET_H_

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/core/dataset_view.h"
#include "src/core/dependency_surface.h"

namespace depsurf {

struct FuncRecord {
  FunctionStatus status;
  uint64_t decl_hash = 0;  // fingerprint of (return type, param names+types)
  // Rendered declaration ("int vfs_fsync(struct file *file, int datasync)"),
  // interned — declarations repeat across images, so this is cheap.
  uint32_t decl = 0xffffffff;
};

struct StructRecord {
  // (field name id, field type id), sorted by name id.
  std::vector<std::pair<StrId, StrId>> fields;

  const StrId* FindField(StrId name) const;
};

struct TracepointRecord {
  std::vector<std::pair<StrId, StrId>> func_params;  // ordered
  std::vector<std::pair<StrId, StrId>> event_fields;  // sorted by name id
};

struct ImageRecord {
  std::string label;
  SurfaceMeta meta;
  // Record runs, each strictly ascending by name id (names are distinct
  // within a kind): the order of the v2 sections and of the binary search.
  std::vector<std::pair<StrId, FuncRecord>> funcs;
  std::vector<std::pair<StrId, StructRecord>> structs;
  std::vector<std::pair<StrId, TracepointRecord>> tracepoints;
  std::vector<StrId> syscalls;
  uint64_t pt_regs_hash = 0;
  // Salvage provenance, persisted with the record (see dataset_io.cc):
  // per-subsystem degradation states plus the extraction ledger, so report
  // consumers can tell which conclusions rest on partial data.
  SurfaceHealth health;

  bool AnyDegraded() const { return health.AnyDegraded(); }
};

class Dataset : public DatasetView {
 public:
  // Distills one surface; images are queried in insertion order.
  void AddImage(const std::string& label, const DependencySurface& surface);

  size_t num_images() const override { return images_.size(); }
  const std::vector<ImageRecord>& images() const { return images_; }
  std::vector<std::string> labels() const override;
  SurfaceMeta MetaAt(size_t image_index) const override;
  std::string HealthSummaryAt(size_t image_index) const override;
  bool AnyDegradedAt(size_t image_index) const override;

  // All queries return one mismatch set per image, in insertion order.
  // Baselines (for Changed) are the construct's definition on the earliest
  // image where it is present.
  std::vector<MismatchSet> CheckFunc(const std::string& name) const override;
  std::vector<MismatchSet> CheckStruct(const std::string& name) const override;
  // `expected_type` is the program-side expectation (empty: fall back to
  // the baseline image's type). Guarded accesses never report kAbsent.
  std::vector<MismatchSet> CheckField(const std::string& struct_name,
                                      const std::string& field_name,
                                      const std::string& expected_type,
                                      bool guarded) const override;
  std::vector<MismatchSet> CheckTracepoint(const std::string& event) const override;
  std::vector<MismatchSet> CheckSyscall(const std::string& name) const override;
  // Register-layout mismatch vs the first image (Table 5's "Register Δ").
  std::vector<MismatchSet> CheckRegisters() const override;

  // Rendered function declaration on one image; nullopt when absent there.
  std::optional<std::string_view> FuncDeclAt(const std::string& name,
                                             size_t image_index) const override;
  // Field type string on one image; nullopt when absent.
  std::optional<std::string_view> FieldTypeAt(const std::string& struct_name,
                                              const std::string& field_name,
                                              size_t image_index) const override;

  // Appends a pre-built record (deserialization path; see dataset_io.h).
  // String ids inside the record must already be interned in this dataset,
  // and its runs must be ascending by name id.
  void RestoreImage(ImageRecord record) { images_.push_back(std::move(record)); }

  // Interning accessors (exposed for benches and serialization).
  size_t pool_size() const { return offsets_.size(); }
  // The id of `s`, appending it to the pool on first use. `s` may view a
  // whole pool string (a View): that is a hit and leaves the block as it
  // is, where appending from the block's own storage would be undefined.
  // It must not view part of a pool string.
  StrId Intern(std::string_view s);
  // kNoStr if the string was never interned.
  static constexpr StrId kNoStr = 0xffffffff;
  StrId Lookup(std::string_view s) const;
  // Pool string `id`, valid until the next Intern (which may move the block).
  std::string_view View(StrId id) const {
    const uint64_t end = id + 1 < offsets_.size() ? offsets_[id + 1] : block_.size();
    return std::string_view(block_.data() + offsets_[id], end - offsets_[id] - 1);
  }
  std::string StringAt(StrId id) const { return std::string(View(id)); }
  // The pool as the v2 string sections begin: every string followed by a
  // NUL, in id order, and the offset at which each starts.
  const std::vector<char>& pool_block() const { return block_; }
  const std::vector<uint64_t>& pool_offsets() const { return offsets_; }

  // Publishes intern hit/miss counts accumulated since the last flush to the
  // current obs::Context. Intern() itself only bumps plain members — it is
  // the hot path of distillation, and resolving a registry counter per string
  // (or caching one across per-image contexts) would be wrong or slow.
  // Counts are per string occurrence: a miss adds a string to the pool, and
  // AddImage counts each type string its per-image memo answers as a hit.
  // AddImage flushes automatically; LoadDatasetV2 flushes after the pool read.
  void FlushInternMetrics();

 private:
  // One slot of the index over the pool: a pool id (kNoStr when empty) and the
  // low 32 bits of its string's hash, which also place the slot. Linear
  // probing in a power-of-two table kept at most half full; growing moves
  // slots by their tags, so no string is hashed twice.
  struct PoolSlot {
    StrId id = kNoStr;
    uint32_t tag = 0;
  };
  // The slot holding `s`, or the empty slot where it belongs. The index
  // must not be empty.
  size_t FindSlot(std::string_view s, uint32_t tag) const;
  void GrowIndex();

  std::vector<ImageRecord> images_;
  std::vector<char> block_;
  std::vector<uint64_t> offsets_;
  std::vector<PoolSlot> index_;
  uint64_t intern_hits_ = 0;
  uint64_t intern_misses_ = 0;
  uint64_t intern_hits_flushed_ = 0;
  uint64_t intern_misses_flushed_ = 0;
};

}  // namespace depsurf

#endif  // DEPSURF_SRC_CORE_DATASET_H_
