// The distill Dataset::AddImage must reproduce, kept as an oracle: every
// occurrence of a name or type string is rendered with the uncached
// TypeString/FuncDeclString and interned through a std::unordered_map, in
// AddImage's order (each declaration before its function's name, a
// (name, type) pair's type string before its name).
#ifndef DEPSURF_TESTS_DISTILL_REFERENCE_H_
#define DEPSURF_TESTS_DISTILL_REFERENCE_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "src/btf/btf.h"
#include "src/core/dataset.h"

namespace depsurf {

class ReferenceDistill {
 public:
  StrId Intern(const std::string& s);
  void AddImage(const std::string& label, const DependencySurface& surface);

  const std::vector<std::string>& pool() const { return pool_; }
  const std::vector<ImageRecord>& images() const { return images_; }
  uint64_t intern_hits() const { return intern_hits_; }
  uint64_t intern_misses() const { return intern_misses_; }

  // A Dataset holding this pool, id for id, and these records.
  Dataset ToDataset() const;

 private:
  std::vector<std::string> pool_;
  std::unordered_map<std::string, StrId> index_;
  std::vector<ImageRecord> images_;
  uint64_t intern_hits_ = 0;
  uint64_t intern_misses_ = 0;
};

// "" when the records are equal, else the first difference found.
std::string ImageRecordDifference(const ImageRecord& a, const ImageRecord& b);

// A type graph no real kernel has: a 40-pointer chain past the renderer's
// 32-level cap and a PTR/CONST cycle whose PTR refers forward to the CONST,
// used by the struct members, a FUNC's parameters and its return type.
struct HostileBtf {
  TypeGraph graph;
  std::vector<BtfTypeId> chain;  // chain[k]: k pointers to int
  BtfTypeId loop_ptr = 0;
  BtfTypeId loop_const = 0;
};
HostileBtf BuildHostileBtf();

}  // namespace depsurf

#endif  // DEPSURF_TESTS_DISTILL_REFERENCE_H_
