#include "src/core/dataset.h"

#include <algorithm>

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

const StrId* StructRecord::FindField(StrId name) const {
  auto it = std::lower_bound(fields.begin(), fields.end(), name,
                             [](const auto& field, StrId key) { return field.first < key; });
  if (it == fields.end() || it->first != name) {
    return nullptr;
  }
  return &it->second;
}

StrId Dataset::Intern(const std::string& s) {
  auto it = pool_index_.find(s);
  if (it != pool_index_.end()) {
    ++intern_hits_;
    return it->second;
  }
  ++intern_misses_;
  StrId id = static_cast<StrId>(pool_.size());
  pool_.push_back(s);
  pool_index_.emplace(s, id);
  return id;
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

StrId Dataset::Lookup(const std::string& s) const {
  auto it = pool_index_.find(s);
  return it == pool_index_.end() ? kNoStr : it->second;
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
  // hash, the declaration and every field or parameter that uses it.
  TypeStringMemo type_string(graph);

  auto decl_hash = [&](BtfTypeId func_id) -> uint64_t {
    const BtfType* func = graph.Get(func_id);
    const BtfType* proto = func != nullptr ? graph.Get(func->ref_type_id) : nullptr;
    if (proto == nullptr || proto->kind != BtfKind::kFuncProto) {
      return 0;
    }
    uint64_t h = HashString(type_string.Get(proto->ref_type_id));
    for (const BtfParam& p : proto->params) {
      h = HashCombine({h, HashString(p.name), HashString(type_string.Get(p.type_id))});
    }
    return h;
  };

  for (const auto& [name, entry] : surface.functions()) {
    FuncRecord fr;
    fr.status = entry.status;
    if (entry.btf_id != 0) {
      fr.decl_hash = decl_hash(entry.btf_id);
      fr.decl = Intern(FuncDeclString(type_string, entry.btf_id));
    }
    record.funcs.emplace(Intern(name), std::move(fr));
  }

  for (const auto& [name, id] : surface.structs()) {
    StructRecord sr;
    const BtfType* st = graph.Get(id);
    if (st != nullptr) {
      sr.fields.reserve(st->members.size());
      for (const BtfMember& m : st->members) {
        sr.fields.emplace_back(Intern(m.name), Intern(type_string.Get(m.type_id)));
      }
      std::sort(sr.fields.begin(), sr.fields.end());
    }
    record.structs.emplace(Intern(name), std::move(sr));
  }

  for (const auto& [name, tp] : surface.tracepoints()) {
    TracepointRecord tr;
    if (tp.func_btf_id != 0) {
      const BtfType* func = graph.Get(tp.func_btf_id);
      const BtfType* proto = func != nullptr ? graph.Get(func->ref_type_id) : nullptr;
      if (proto != nullptr) {
        for (const BtfParam& p : proto->params) {
          tr.func_params.emplace_back(Intern(p.name), Intern(type_string.Get(p.type_id)));
        }
      }
    }
    if (tp.struct_btf_id != 0) {
      const BtfType* st = graph.Get(tp.struct_btf_id);
      if (st != nullptr) {
        for (const BtfMember& m : st->members) {
          tr.event_fields.emplace_back(Intern(m.name), Intern(type_string.Get(m.type_id)));
        }
        std::sort(tr.event_fields.begin(), tr.event_fields.end());
      }
    }
    record.tracepoints.emplace(Intern(name), std::move(tr));
  }

  for (const auto& [name, entry] : surface.syscalls()) {
    (void)entry;
    record.syscalls.insert(Intern(name));
  }
  record.compat_syscalls_traceable = record.meta.compat_syscalls_traceable;
  if (auto pt_regs = surface.FindStruct("pt_regs"); pt_regs.has_value()) {
    const BtfType* st = graph.Get(*pt_regs);
    uint64_t h = 0x9e11;
    for (const BtfMember& m : st->members) {
      h = HashCombine({h, HashString(m.name)});
    }
    record.pt_regs_hash = h;
  }
  FlushInternMetrics();
  obs::MetricsRegistry& metrics = obs::Context::Current().metrics();
  metrics.Incr("dataset.images_distilled");
  metrics.Incr("dataset.funcs_distilled", record.funcs.size());
  metrics.Incr("dataset.structs_distilled", record.structs.size());
  metrics.Set("dataset.pool_strings", static_cast<int64_t>(pool_.size()));
  span.AddAttr("funcs", static_cast<uint64_t>(record.funcs.size()));
  span.AddAttr("structs", static_cast<uint64_t>(record.structs.size()));
  span.AddAttr("pool_strings", static_cast<uint64_t>(pool_.size()));
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

std::vector<std::set<MismatchKind>> Dataset::CheckFunc(const std::string& name) const {
  std::vector<std::set<MismatchKind>> out(images_.size());
  StrId id = Lookup(name);
  const FuncRecord* baseline = nullptr;
  for (size_t i = 0; i < images_.size(); ++i) {
    const FuncRecord* fr = nullptr;
    if (id != kNoStr) {
      auto it = images_[i].funcs.find(id);
      if (it != images_[i].funcs.end()) {
        fr = &it->second;
      }
    }
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

std::vector<std::set<MismatchKind>> Dataset::CheckStruct(const std::string& name) const {
  std::vector<std::set<MismatchKind>> out(images_.size());
  StrId id = Lookup(name);
  const StructRecord* baseline = nullptr;
  for (size_t i = 0; i < images_.size(); ++i) {
    const StructRecord* sr = nullptr;
    if (id != kNoStr) {
      auto it = images_[i].structs.find(id);
      if (it != images_[i].structs.end()) {
        sr = &it->second;
      }
    }
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

std::vector<std::set<MismatchKind>> Dataset::CheckField(const std::string& struct_name,
                                                        const std::string& field_name,
                                                        const std::string& expected_type,
                                                        bool guarded) const {
  std::vector<std::set<MismatchKind>> out(images_.size());
  StrId sid = Lookup(struct_name);
  StrId fid = Lookup(field_name);
  StrId expected = expected_type.empty() ? kNoStr : Lookup(expected_type);
  bool expectation_fixed = !expected_type.empty();
  for (size_t i = 0; i < images_.size(); ++i) {
    const StrId* actual = nullptr;
    if (sid != kNoStr && fid != kNoStr) {
      auto it = images_[i].structs.find(sid);
      if (it != images_[i].structs.end()) {
        actual = it->second.FindField(fid);
      }
    }
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

std::vector<std::set<MismatchKind>> Dataset::CheckTracepoint(const std::string& event) const {
  std::vector<std::set<MismatchKind>> out(images_.size());
  StrId id = Lookup(event);
  const TracepointRecord* baseline = nullptr;
  for (size_t i = 0; i < images_.size(); ++i) {
    const TracepointRecord* tr = nullptr;
    if (id != kNoStr) {
      auto it = images_[i].tracepoints.find(id);
      if (it != images_[i].tracepoints.end()) {
        tr = &it->second;
      }
    }
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

std::vector<std::set<MismatchKind>> Dataset::CheckSyscall(const std::string& name) const {
  std::vector<std::set<MismatchKind>> out(images_.size());
  StrId id = Lookup(name);
  for (size_t i = 0; i < images_.size(); ++i) {
    if (id == kNoStr || images_[i].syscalls.count(id) == 0) {
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
  StrId id = Lookup(name);
  if (id == kNoStr) {
    return std::nullopt;
  }
  auto it = images_[image_index].funcs.find(id);
  if (it == images_[image_index].funcs.end() || it->second.decl == kNoStr) {
    return std::nullopt;
  }
  return std::string_view(pool_[it->second.decl]);
}

std::optional<std::string_view> Dataset::FieldTypeAt(const std::string& struct_name,
                                                     const std::string& field_name,
                                                     size_t image_index) const {
  if (image_index >= images_.size()) {
    return std::nullopt;
  }
  StrId sid = Lookup(struct_name);
  StrId fid = Lookup(field_name);
  if (sid == kNoStr || fid == kNoStr) {
    return std::nullopt;
  }
  auto it = images_[image_index].structs.find(sid);
  if (it == images_[image_index].structs.end()) {
    return std::nullopt;
  }
  const StrId* type = it->second.FindField(fid);
  if (type == nullptr) {
    return std::nullopt;
  }
  return std::string_view(pool_[*type]);
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

std::vector<std::set<MismatchKind>> Dataset::CheckRegisters() const {
  std::vector<std::set<MismatchKind>> out(images_.size());
  for (size_t i = 1; i < images_.size(); ++i) {
    if (images_[i].pt_regs_hash != images_[0].pt_regs_hash) {
      out[i].insert(MismatchKind::kChanged);
    }
  }
  return out;
}

}  // namespace depsurf
