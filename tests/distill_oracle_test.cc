// Dataset's string pool and AddImage's per-image type memo against the
// per-occurrence distill in tests/distill_reference.h: over whole kernelgen
// images of two seeds and over hostile type graphs, both must build the
// same pool (every id), the same records, the same intern counters and the
// same SaveDatasetV2 bytes. The pool alone is checked against a
// std::unordered_map over 200,000 seeded strings, interning a view of a
// pool string must be a hit that leaves the block as it is, and the v2
// loader must still refuse a pool that holds one string twice.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/btf/btf_codec.h"
#include "src/core/dataset_io.h"
#include "src/elf/elf_writer.h"
#include "src/kernelgen/compiler.h"
#include "src/kernelgen/configurator.h"
#include "src/kernelgen/corpus.h"
#include "src/kernelgen/image_builder.h"
#include "src/kernelgen/rates.h"
#include "src/obs/context.h"
#include "src/obs/metrics.h"
#include "src/util/prng.h"
#include "src/util/str_util.h"
#include "tests/distill_reference.h"

namespace depsurf {
namespace {

uint64_t CounterValue(obs::Context& context, const char* name) {
  return context.metrics().Counter(name)->load();
}

// Distills each surface into a Dataset and into the reference, in order,
// then compares everything the two built.
class DistillBothWays {
 public:
  DistillBothWays() : scope_(context_) {}

  void Add(const std::string& label, const DependencySurface& surface) {
    dataset_.AddImage(label, surface);
    reference_.AddImage(label, surface);
  }

  void ExpectAlike() {
    EXPECT_EQ(CounterValue(context_, "dataset.intern_hits"), reference_.intern_hits());
    EXPECT_EQ(CounterValue(context_, "dataset.intern_misses"), reference_.intern_misses());
    ASSERT_EQ(dataset_.pool_size(), reference_.pool().size());
    for (StrId id = 0; id < reference_.pool().size(); ++id) {
      ASSERT_EQ(dataset_.StringAt(id), reference_.pool()[id]) << "pool id " << id;
    }
    ASSERT_EQ(dataset_.num_images(), reference_.images().size());
    for (size_t i = 0; i < dataset_.num_images(); ++i) {
      EXPECT_EQ(ImageRecordDifference(dataset_.images()[i], reference_.images()[i]), "")
          << dataset_.images()[i].label;
    }
    EXPECT_TRUE(SaveDatasetV2(dataset_) == SaveDatasetV2(reference_.ToDataset()));
  }

 private:
  obs::Context context_;
  obs::ScopedContext scope_;
  Dataset dataset_;
  ReferenceDistill reference_;
};

DependencySurface ExtractOrDie(std::vector<uint8_t> bytes) {
  auto surface = DependencySurface::Extract(std::move(bytes));
  EXPECT_TRUE(surface.ok()) << surface.error().ToString();
  return surface.ok() ? surface.TakeValue() : DependencySurface();
}

TEST(DistillOracleTest, LtsImagesOfTwoSeedsMatchReference) {
  DistillBothWays both;
  for (uint64_t seed : {2025u, 601u}) {
    KernelModel model(seed, 0.05, BuildCuratedCatalog());
    for (KernelVersion version : kLtsVersions) {
      auto kernel = model.Configure(MakeBuild(version));
      ASSERT_TRUE(kernel.ok());
      auto image = BuildKernelImage(CompileKernel(seed, kernel.TakeValue()));
      ASSERT_TRUE(image.ok());
      DependencySurface surface = ExtractOrDie(image.TakeValue());
      ASSERT_FALSE(surface.tracepoints().empty());
      both.Add(StrFormat("seed%llu-v%s", static_cast<unsigned long long>(seed),
                         version.ToString().c_str()),
               surface);
    }
  }
  both.ExpectAlike();
}

// An image whose only section is the .BTF of `graph`.
DependencySurface BtfOnlySurface(const TypeGraph& graph) {
  EXPECT_TRUE(graph.Validate().ok());
  ElfWriter writer(ElfIdent{});
  writer.AddSection(".BTF", SectionType::kProgbits, EncodeBtf(graph));
  auto image = writer.Finish();
  EXPECT_TRUE(image.ok());
  return ExtractOrDie(image.TakeValue());
}

// Decoded graphs never refer past their last id (DecodeBtf validates), so
// the hostile cases are forward references, the PTR/CONST cycle, the depth
// cap, references to the last id, and the same strings under other ids in
// a later image, which a memo kept across images would get wrong.
TEST(DistillOracleTest, HostileGraphsMatchReference) {
  HostileBtf hostile = BuildHostileBtf();
  const DependencySurface plain = BtfOnlySurface(hostile.graph);
  ASSERT_NE(plain.FindFunction("hostile_fn"), nullptr);

  // Every id shifted by three, one struct member referring forward to the
  // last id, a FUNC whose type is not a FUNC_PROTO, and a second FUNC of an
  // existing name.
  HostileBtf base = BuildHostileBtf();
  TypeGraph shifted;
  shifted.Int("long", 8);
  shifted.Int("char", 1);
  shifted.Ptr(2);
  const BtfTypeId offset = shifted.num_types();
  for (BtfTypeId id = 1; id <= base.graph.num_types(); ++id) {
    const BtfTypeView t = *base.graph.Get(id);
    auto move = [offset](BtfTypeId ref) { return ref == 0 ? 0 : ref + offset; };
    std::vector<BtfMember> members;
    for (const BtfMemberView m : t.members) {
      members.push_back({std::string(m.name), move(m.type_id), m.bits_offset});
    }
    std::vector<BtfParam> params;
    for (const BtfParamView p : t.params) {
      params.push_back({std::string(p.name), move(p.type_id)});
    }
    BtfTypeId copied = kBtfVoid;
    switch (t.kind) {
      case BtfKind::kInt:
        copied = shifted.Int(t.name, t.size);
        break;
      case BtfKind::kPtr:
        copied = shifted.Ptr(move(t.ref_type_id));
        break;
      case BtfKind::kConst:
        copied = shifted.Const(move(t.ref_type_id));
        break;
      case BtfKind::kStruct:
        copied = shifted.Struct(t.name, t.size, members);
        break;
      case BtfKind::kFuncProto:
        copied = shifted.FuncProto(move(t.ref_type_id), params);
        break;
      case BtfKind::kFunc:
        copied = shifted.Func(t.name, move(t.ref_type_id));
        break;
      default:
        FAIL() << "unexpected kind " << BtfKindName(t.kind);
    }
    ASSERT_EQ(copied, id + offset);
  }
  const BtfTypeId last = shifted.num_types() + 5;
  shifted.Struct("tail", 8, {{"last", last, 0}, {"loop", base.loop_ptr + offset, 32}});
  shifted.Func("not_a_proto", 1);
  shifted.Func("hostile_fn", shifted.FuncProto(1, {{"x", 3}}));
  ASSERT_EQ(shifted.Ptr(last - 1), last);
  const DependencySurface moved = BtfOnlySurface(shifted);
  ASSERT_NE(moved.FindStruct("tail"), std::nullopt);
  // Of two FUNCs sharing a name, the first one's declaration is distilled.
  const FunctionEntry* twice = moved.FindFunction("hostile_fn");
  ASSERT_NE(twice, nullptr);
  EXPECT_EQ(twice->btf_id, shifted.FindFunc("hostile_fn").value_or(0));

  DistillBothWays both;
  both.Add("plain", plain);
  both.Add("shifted", moved);
  both.Add("plain-again", plain);
  both.ExpectAlike();
}

TEST(StringPoolTest, InternMatchesUnorderedMapThroughGrowths) {
  obs::Context context;
  obs::ScopedContext scope(context);
  Dataset dataset;
  EXPECT_EQ(dataset.Lookup(""), Dataset::kNoStr);
  EXPECT_EQ(dataset.Lookup("absent"), Dataset::kNoStr);

  Prng prng(2026);
  auto letters = [&prng](size_t n) {
    std::string s;
    for (size_t i = 0; i < n; ++i) {
      s += static_cast<char>('a' + prng.NextBelow(26));
    }
    return s;
  };
  const std::string prefix = "trace_event_raw_" + letters(48);
  std::unordered_map<std::string, StrId> reference;
  std::vector<std::string> seen;
  constexpr int kStrings = 200000;
  for (int i = 0; i < kStrings; ++i) {
    uint64_t kind = prng.NextBelow(1000);
    std::string s;
    if (kind < 5) {
      // empty
    } else if (kind < 50) {
      s.assign(1, static_cast<char>(prng.NextBelow(256)));  // NUL included
    } else if (kind < 52) {
      s = letters(4096);
    } else if (kind < 450) {
      s = prefix + std::to_string(prng.NextBelow(100000));
    } else if (kind < 700 || seen.empty()) {
      s = letters(1 + prng.NextBelow(24));
    } else {
      s = seen[prng.NextBelow(seen.size())];  // a repeat
    }
    auto [it, inserted] = reference.try_emplace(s, static_cast<StrId>(reference.size()));
    if (inserted) {
      seen.push_back(s);
    }
    ASSERT_EQ(dataset.Intern(s), it->second) << "string " << i << " of size " << s.size();
  }
  // Two strings whose slot tags (the low 32 bits of std::hash) are equal
  // share a home slot, and only the string compare tells them apart.
  std::unordered_map<uint32_t, std::string> by_tag;
  for (int i = 0;; ++i) {
    std::string s = "tag_" + std::to_string(i);
    auto [it, inserted] =
        by_tag.try_emplace(static_cast<uint32_t>(std::hash<std::string_view>{}(s)), s);
    if (!inserted) {
      for (const std::string& colliding : {it->second, s}) {
        auto [ref, added] = reference.try_emplace(colliding, static_cast<StrId>(reference.size()));
        ASSERT_TRUE(added);
        ASSERT_EQ(dataset.Intern(colliding), ref->second);
      }
      break;
    }
  }
  ASSERT_EQ(dataset.pool_size(), reference.size());
  for (const auto& [s, id] : reference) {
    ASSERT_EQ(dataset.View(id), s);
    ASSERT_EQ(dataset.Lookup(s), id);
  }
  for (size_t i = 0; i < 1000; ++i) {
    std::string absent = seen[prng.NextBelow(seen.size())] + '\x01';
    if (reference.count(absent) == 0) {
      ASSERT_EQ(dataset.Lookup(absent), Dataset::kNoStr) << absent;
    }
  }
  dataset.FlushInternMetrics();
  EXPECT_EQ(CounterValue(context, "dataset.intern_misses"), reference.size());
  EXPECT_EQ(CounterValue(context, "dataset.intern_hits"), kStrings + 2 - reference.size());
}

// A View of a pool string interns as a hit and leaves the block as it is:
// appending a string from the block's own storage would be undefined, and
// the hit is what rules it out. Views of the empty string and of a string
// holding a NUL end where their NUL terminator starts.
TEST(StringPoolTest, InterningAViewOfThePoolIsAHit) {
  obs::Context context;
  obs::ScopedContext scope(context);
  Dataset dataset;
  std::vector<StrId> ids = {dataset.Intern(""), dataset.Intern(std::string_view("\0", 1))};
  for (int i = 0; i < 1000; ++i) {
    ids.push_back(dataset.Intern("pool_string_" + std::to_string(i)));
  }
  ASSERT_EQ(dataset.View(ids[0]), "");
  ASSERT_EQ(dataset.View(ids[1]), std::string_view("\0", 1));
  const std::vector<char> block = dataset.pool_block();
  const std::vector<uint64_t> offsets = dataset.pool_offsets();
  for (StrId id : ids) {
    ASSERT_EQ(dataset.Intern(dataset.View(id)), id) << "pool id " << id;
  }
  EXPECT_EQ(dataset.pool_size(), ids.size());
  EXPECT_EQ(dataset.pool_block(), block);
  EXPECT_EQ(dataset.pool_offsets(), offsets);
  dataset.FlushInternMetrics();
  EXPECT_EQ(CounterValue(context, "dataset.intern_misses"), ids.size());
  EXPECT_EQ(CounterValue(context, "dataset.intern_hits"), ids.size());
}

TEST(StringPoolTest, LoadRejectsADuplicatedPoolString) {
  Dataset dataset;
  dataset.Intern("pool_string_one");
  dataset.Intern("pool_string_two");
  ImageRecord record;
  record.label = "v0";
  dataset.RestoreImage(record);
  std::vector<uint8_t> bytes = SaveDatasetV2(dataset);
  ASSERT_TRUE(LoadDatasetV2(bytes).ok());

  const std::string two("pool_string_two\0", 16);
  auto at = std::search(bytes.begin(), bytes.end(), two.begin(), two.end());
  ASSERT_NE(at, bytes.end());
  std::copy_n("pool_string_one", 15, at);
  auto loaded = LoadDatasetV2(bytes);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.error().ToString().find("duplicate string in pool"), std::string::npos)
      << loaded.error().ToString();
}

}  // namespace
}  // namespace depsurf
