#include "src/core/dataset.h"

#include <algorithm>
#include <functional>

#include "src/btf/btf_print.h"
#include "src/obs/context.h"
#include "src/obs/metrics.h"
#include "src/obs/span.h"
#include "src/util/prng.h"

namespace depsurf {

DatasetView::~DatasetView() = default;

const char* MismatchKindName(MismatchKind kind) {
  switch (kind) {
    case MismatchKind::kAbsent:
      return "absent";
    case MismatchKind::kChanged:
      return "changed";
    case MismatchKind::kFullInline:
      return "full_inline";
    case MismatchKind::kSelectiveInline:
      return "selective_inline";
    case MismatchKind::kTransformed:
      return "transformed";
    case MismatchKind::kDuplicated:
      return "duplicated";
    case MismatchKind::kCollision:
      return "collision";
    case MismatchKind::kNotTraceable:
      return "not_traceable";
  }
  return "?";
}

char MismatchKindCode(MismatchKind kind) {
  switch (kind) {
    case MismatchKind::kAbsent:
      return '-';
    case MismatchKind::kChanged:
      return 'C';
    case MismatchKind::kFullInline:
      return 'F';
    case MismatchKind::kSelectiveInline:
      return 'S';
    case MismatchKind::kTransformed:
      return 'T';
    case MismatchKind::kDuplicated:
      return 'D';
    case MismatchKind::kCollision:
      return 'N';
    case MismatchKind::kNotTraceable:
      return 'U';
  }
  return '?';
}

namespace {

// The value of the first entry named `name` in a run ascending by name id,
// or nullptr. kNoStr is above every id, so it finds nothing.
template <typename Value>
const Value* FindInRun(const std::vector<std::pair<StrId, Value>>& run, StrId name) {
  auto it = std::lower_bound(run.begin(), run.end(), name,
                             [](const auto& entry, StrId key) { return entry.first < key; });
  return it != run.end() && it->first == name ? &it->second : nullptr;
}

// Sorts a run appended in surface order by name id.
template <typename Value>
void SortRun(std::vector<std::pair<StrId, Value>>& run) {
  std::sort(run.begin(), run.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
}

uint32_t PoolTag(std::string_view s) {
  return static_cast<uint32_t>(std::hash<std::string_view>{}(s));
}

}  // namespace

const StrId* StructRecord::FindField(StrId name) const { return FindInRun(fields, name); }

size_t Dataset::FindSlot(std::string_view s, uint32_t tag) const {
  const size_t mask = index_.size() - 1;
  for (size_t i = tag & mask;; i = (i + 1) & mask) {
    const PoolSlot& slot = index_[i];
    if (slot.id == kNoStr || (slot.tag == tag && View(slot.id) == s)) {
      return i;
    }
  }
}

void Dataset::GrowIndex() {
  std::vector<PoolSlot> old = std::move(index_);
  index_.assign(std::max<size_t>(64, old.size() * 2), PoolSlot{});
  const size_t mask = index_.size() - 1;
  for (const PoolSlot& slot : old) {
    if (slot.id == kNoStr) {
      continue;
    }
    size_t i = slot.tag & mask;
    while (index_[i].id != kNoStr) {
      i = (i + 1) & mask;
    }
    index_[i] = slot;
  }
}

StrId Dataset::Intern(std::string_view s) {
  if ((pool_size() + 1) * 2 > index_.size()) {
    GrowIndex();
  }
  const uint32_t tag = PoolTag(s);
  PoolSlot& slot = index_[FindSlot(s, tag)];
  if (slot.id != kNoStr) {
    ++intern_hits_;
    return slot.id;
  }
  ++intern_misses_;
  offsets_.push_back(block_.size());
  block_.insert(block_.end(), s.begin(), s.end());
  block_.push_back('\0');
  slot = {static_cast<StrId>(pool_size() - 1), tag};
  return slot.id;
}

void Dataset::FlushInternMetrics() {
  obs::MetricsRegistry& metrics = obs::Context::Current().metrics();
  if (intern_hits_ > intern_hits_flushed_) {
    metrics.Incr("dataset.intern_hits", intern_hits_ - intern_hits_flushed_);
    intern_hits_flushed_ = intern_hits_;
  }
  if (intern_misses_ > intern_misses_flushed_) {
    metrics.Incr("dataset.intern_misses", intern_misses_ - intern_misses_flushed_);
    intern_misses_flushed_ = intern_misses_;
  }
}

StrId Dataset::Lookup(std::string_view s) const {
  return index_.empty() ? kNoStr : index_[FindSlot(s, PoolTag(s))].id;
}

void Dataset::AddImage(const std::string& label, const DependencySurface& surface) {
  obs::ScopedSpan span("dataset.distill");
  span.AddAttr("image", label);
  ImageRecord record;
  record.label = label;
  record.meta = surface.meta();
  record.health = surface.health();
  const TypeGraph& graph = surface.btf();
  // Each top-level type is rendered once per image and shared by the decl
  // hash, the declaration and every field or parameter that uses it. The
  // memo also keeps, by type id, the render's HashString and pool id: a
  // pool id it answers counts as the intern hit it replaces, so pool ids
  // and counters are those of interning every occurrence.
  TypeStringMemo type_string(graph);
  struct TypeMemo {
    StrId id = kNoStr;
    bool hashed = false;
    uint64_t hash = 0;
  };
  // Ids past the graph have no node and all render as void: they share
  // the last entry.
  std::vector<TypeMemo> memo(static_cast<size_t>(graph.num_types()) + 2);
  auto memo_at = [&memo](BtfTypeId id) -> TypeMemo& {
    return memo[std::min<size_t>(id, memo.size() - 1)];
  };
  auto intern_type = [&](BtfTypeId id) -> StrId {
    StrId& pool_id = memo_at(id).id;
    if (pool_id == kNoStr) {
      pool_id = Intern(type_string.Get(id));
    } else {
      ++intern_hits_;
    }
    return pool_id;
  };
  auto hash_type = [&](BtfTypeId id) -> uint64_t {
    TypeMemo& m = memo_at(id);
    if (!m.hashed) {
      m.hash = HashString(type_string.Get(id));
      m.hashed = true;
    }
    return m.hash;
  };

  auto decl_hash = [&](BtfTypeId func_id) -> uint64_t {
    const std::optional<BtfTypeView> func = graph.Get(func_id);
    const std::optional<BtfTypeView> proto = func ? graph.Get(func->ref_type_id) : std::nullopt;
    if (!proto || proto->kind != BtfKind::kFuncProto) {
      return 0;
    }
    uint64_t h = hash_type(proto->ref_type_id);
    for (const BtfParamView p : proto->params) {
      h = HashCombine({h, HashString(p.name), hash_type(p.type_id)});
    }
    return h;
  };

  // Pool ids are handed out in first-intern order, so the order of Intern
  // calls is part of the .dds bytes. A (name, type) pair interns its type
  // string first, in its own statement: as two arguments of one call the
  // order would be the compiler's choice.
  // Each run is appended in surface order and sorted by name id once.
  std::string decl;  // every declaration is rendered into this one buffer
  record.funcs.reserve(surface.functions().size());
  for (const FunctionEntry& entry : surface.functions()) {
    FuncRecord fr;
    fr.status = entry.status;
    if (entry.btf_id != 0) {
      fr.decl_hash = decl_hash(entry.btf_id);
      FuncDeclString(type_string, entry.btf_id, decl);
      fr.decl = Intern(decl);
    }
    record.funcs.emplace_back(Intern(entry.name), std::move(fr));
  }
  SortRun(record.funcs);

  record.structs.reserve(surface.structs().size());
  for (const auto& [name, id] : surface.structs()) {
    StructRecord sr;
    const std::optional<BtfTypeView> st = graph.Get(id);
    if (st) {
      sr.fields.reserve(st->members.size());
      for (const BtfMemberView m : st->members) {
        StrId type = intern_type(m.type_id);
        sr.fields.emplace_back(Intern(m.name), type);
      }
      std::sort(sr.fields.begin(), sr.fields.end());
    }
    record.structs.emplace_back(Intern(name), std::move(sr));
  }
  SortRun(record.structs);

  record.tracepoints.reserve(surface.tracepoints().size());
  for (const auto& [name, tp] : surface.tracepoints()) {
    TracepointRecord tr;
    if (tp.func_btf_id != 0) {
      const std::optional<BtfTypeView> func = graph.Get(tp.func_btf_id);
      const std::optional<BtfTypeView> proto = func ? graph.Get(func->ref_type_id) : std::nullopt;
      if (proto) {
        for (const BtfParamView p : proto->params) {
          StrId type = intern_type(p.type_id);
          tr.func_params.emplace_back(Intern(p.name), type);
        }
      }
    }
    if (tp.struct_btf_id != 0) {
      const std::optional<BtfTypeView> st = graph.Get(tp.struct_btf_id);
      if (st) {
        for (const BtfMemberView m : st->members) {
          StrId type = intern_type(m.type_id);
          tr.event_fields.emplace_back(Intern(m.name), type);
        }
        std::sort(tr.event_fields.begin(), tr.event_fields.end());
      }
    }
    record.tracepoints.emplace_back(Intern(name), std::move(tr));
  }
  SortRun(record.tracepoints);

  record.syscalls.reserve(surface.syscalls().size());
  for (const auto& [name, entry] : surface.syscalls()) {
    (void)entry;
    record.syscalls.push_back(Intern(name));
  }
  std::sort(record.syscalls.begin(), record.syscalls.end());
  if (auto pt_regs = surface.FindStruct("pt_regs"); pt_regs.has_value()) {
    const std::optional<BtfTypeView> st = graph.Get(*pt_regs);
    uint64_t h = 0x9e11;
    for (const BtfMemberView m : st->members) {
      h = HashCombine({h, HashString(m.name)});
    }
    record.pt_regs_hash = h;
  }
  FlushInternMetrics();
  obs::MetricsRegistry& metrics = obs::Context::Current().metrics();
  metrics.Incr("dataset.images_distilled");
  metrics.Incr("dataset.funcs_distilled", record.funcs.size());
  metrics.Incr("dataset.structs_distilled", record.structs.size());
  metrics.Set("dataset.pool_strings", static_cast<int64_t>(pool_size()));
  span.AddAttr("funcs", static_cast<uint64_t>(record.funcs.size()));
  span.AddAttr("structs", static_cast<uint64_t>(record.structs.size()));
  span.AddAttr("pool_strings", static_cast<uint64_t>(pool_size()));
  images_.push_back(std::move(record));
}

std::vector<std::string> Dataset::labels() const {
  std::vector<std::string> out;
  out.reserve(images_.size());
  for (const ImageRecord& image : images_) {
    out.push_back(image.label);
  }
  return out;
}

std::vector<MismatchSet> Dataset::CheckFunc(const std::string& name) const {
  std::vector<MismatchSet> out(images_.size());
  StrId id = Lookup(name);
  const FuncRecord* baseline = nullptr;
  for (size_t i = 0; i < images_.size(); ++i) {
    const FuncRecord* fr = FindInRun(images_[i].funcs, id);
    if (fr == nullptr) {
      out[i].insert(MismatchKind::kAbsent);
      continue;
    }
    if (baseline == nullptr) {
      baseline = fr;
    } else if (fr->decl_hash != baseline->decl_hash) {
      out[i].insert(MismatchKind::kChanged);
    }
    if (fr->status.fully_inlined) {
      out[i].insert(MismatchKind::kFullInline);
    }
    if (fr->status.selectively_inlined) {
      out[i].insert(MismatchKind::kSelectiveInline);
    }
    if (fr->status.transformed) {
      out[i].insert(MismatchKind::kTransformed);
    }
    if (fr->status.duplicated) {
      out[i].insert(MismatchKind::kDuplicated);
    }
    if (fr->status.collided) {
      out[i].insert(MismatchKind::kCollision);
    }
  }
  return out;
}

std::vector<MismatchSet> Dataset::CheckStruct(const std::string& name) const {
  std::vector<MismatchSet> out(images_.size());
  StrId id = Lookup(name);
  const StructRecord* baseline = nullptr;
  for (size_t i = 0; i < images_.size(); ++i) {
    const StructRecord* sr = FindInRun(images_[i].structs, id);
    if (sr == nullptr) {
      out[i].insert(MismatchKind::kAbsent);
      continue;
    }
    if (baseline == nullptr) {
      baseline = sr;
    } else if (sr->fields != baseline->fields) {
      out[i].insert(MismatchKind::kChanged);
    }
  }
  return out;
}

std::vector<MismatchSet> Dataset::CheckField(const std::string& struct_name,
                                             const std::string& field_name,
                                             const std::string& expected_type,
                                             bool guarded) const {
  std::vector<MismatchSet> out(images_.size());
  StrId sid = Lookup(struct_name);
  StrId fid = Lookup(field_name);
  StrId expected = expected_type.empty() ? kNoStr : Lookup(expected_type);
  bool expectation_fixed = !expected_type.empty();
  for (size_t i = 0; i < images_.size(); ++i) {
    const StructRecord* sr = FindInRun(images_[i].structs, sid);
    const StrId* actual = sr != nullptr ? sr->FindField(fid) : nullptr;
    if (actual == nullptr) {
      if (!guarded) {
        out[i].insert(MismatchKind::kAbsent);
      }
      continue;
    }
    if (expected == kNoStr && !expectation_fixed) {
      expected = *actual;  // baseline fallback
    } else if (*actual != expected) {
      out[i].insert(MismatchKind::kChanged);
    }
  }
  return out;
}

std::vector<MismatchSet> Dataset::CheckTracepoint(const std::string& event) const {
  std::vector<MismatchSet> out(images_.size());
  StrId id = Lookup(event);
  const TracepointRecord* baseline = nullptr;
  for (size_t i = 0; i < images_.size(); ++i) {
    const TracepointRecord* tr = FindInRun(images_[i].tracepoints, id);
    if (tr == nullptr) {
      out[i].insert(MismatchKind::kAbsent);
      continue;
    }
    if (baseline == nullptr) {
      baseline = tr;
    } else if (tr->func_params != baseline->func_params ||
               tr->event_fields != baseline->event_fields) {
      out[i].insert(MismatchKind::kChanged);
    }
  }
  return out;
}

std::vector<MismatchSet> Dataset::CheckSyscall(const std::string& name) const {
  std::vector<MismatchSet> out(images_.size());
  StrId id = Lookup(name);
  for (size_t i = 0; i < images_.size(); ++i) {
    const std::vector<StrId>& syscalls = images_[i].syscalls;
    if (!std::binary_search(syscalls.begin(), syscalls.end(), id)) {
      out[i].insert(MismatchKind::kAbsent);
    }
    // Compat (32-bit) traceability is a per-image property reported by the
    // configuration analysis (Table 5), not a per-dependency mismatch.
  }
  return out;
}

std::optional<std::string_view> Dataset::FuncDeclAt(const std::string& name,
                                                    size_t image_index) const {
  if (image_index >= images_.size()) {
    return std::nullopt;
  }
  const FuncRecord* fr = FindInRun(images_[image_index].funcs, Lookup(name));
  if (fr == nullptr || fr->decl == kNoStr) {
    return std::nullopt;
  }
  return View(fr->decl);
}

std::optional<std::string_view> Dataset::FieldTypeAt(const std::string& struct_name,
                                                     const std::string& field_name,
                                                     size_t image_index) const {
  if (image_index >= images_.size()) {
    return std::nullopt;
  }
  const StructRecord* sr = FindInRun(images_[image_index].structs, Lookup(struct_name));
  const StrId* type = sr != nullptr ? sr->FindField(Lookup(field_name)) : nullptr;
  if (type == nullptr) {
    return std::nullopt;
  }
  return View(*type);
}

SurfaceMeta Dataset::MetaAt(size_t image_index) const {
  return image_index < images_.size() ? images_[image_index].meta : SurfaceMeta{};
}

std::string Dataset::HealthSummaryAt(size_t image_index) const {
  return image_index < images_.size() ? images_[image_index].health.Summary() : std::string("clean");
}

bool Dataset::AnyDegradedAt(size_t image_index) const {
  return image_index < images_.size() && images_[image_index].AnyDegraded();
}

std::vector<MismatchSet> Dataset::CheckRegisters() const {
  std::vector<MismatchSet> out(images_.size());
  for (size_t i = 1; i < images_.size(); ++i) {
    if (images_[i].pt_regs_hash != images_[0].pt_regs_hash) {
      out[i].insert(MismatchKind::kChanged);
    }
  }
  return out;
}

}  // namespace depsurf
