// Dataset-as-a-service tests: batched NDJSON queries against mmap'd
// datasets, response determinism across --jobs values, cache accounting,
// and the depsurf.serve_report.v1 contract.
#include "src/serve/serve.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "src/bpf/bpf_object.h"
#include "src/bpfgen/program_corpus.h"
#include "src/core/dataset_io.h"
#include "src/core/depsurf.h"
#include "src/kernelgen/compiler.h"
#include "src/kernelgen/configurator.h"
#include "src/kernelgen/corpus.h"
#include "src/kernelgen/image_builder.h"
#include "src/obs/json_lint.h"

namespace depsurf {
namespace {

struct ServeFixture {
  std::string dir;
  std::string v2_path;
  std::string object_path;
};

const ServeFixture& Fixture() {
  static const ServeFixture fixture = [] {
    ServeFixture out;
    char tmpl[] = "/tmp/depsurf_serve_test_XXXXXX";
    const char* dir = mkdtemp(tmpl);
    EXPECT_NE(dir, nullptr);
    out.dir = dir != nullptr ? dir : ".";

    Dataset dataset;
    KernelModel model(2025, 0.01, BuildCuratedCatalog());
    for (KernelVersion version : {KernelVersion(5, 4), KernelVersion(6, 2)}) {
      auto kernel = model.Configure(MakeBuild(version));
      EXPECT_TRUE(kernel.ok());
      auto bytes = BuildKernelImage(CompileKernel(2025, kernel.TakeValue()));
      EXPECT_TRUE(bytes.ok());
      auto surface = DependencySurface::Extract(bytes.TakeValue());
      EXPECT_TRUE(surface.ok());
      dataset.AddImage(version.Tag(), *surface);
    }
    out.v2_path = out.dir + "/ds_v2.dds";
    std::vector<uint8_t> bytes = SaveDatasetV2(dataset);
    std::ofstream file(out.v2_path, std::ios::binary);
    file.write(reinterpret_cast<const char*>(bytes.data()),
               static_cast<std::streamsize>(bytes.size()));

    out.object_path = out.dir + "/biotop.o";
    for (const BpfObject& object : BuildProgramCorpus().objects) {
      if (object.name == "biotop") {
        auto object_bytes = WriteBpfObject(object);
        EXPECT_TRUE(object_bytes.ok());
        std::ofstream file(out.object_path, std::ios::binary);
        file.write(reinterpret_cast<const char*>(object_bytes->data()),
                   static_cast<std::streamsize>(object_bytes->size()));
      }
    }
    return out;
  }();
  return fixture;
}

std::vector<std::string> RequestBatch() {
  const std::string inline_query =
      "{\"id\": 1, \"program\": \"biotop\", \"funcs\": [\"vfs_read\"],"
      " \"fields\": {\"request\": {\"rq_disk\": {\"type\": \"struct gendisk *\","
      " \"guarded\": false}}}, \"tracepoints\": [\"block_rq_issue\"],"
      " \"syscalls\": [\"openat\"]}";
  return {
      inline_query,
      // Same dependency set, different id: in-batch duplicate, must share.
      "{\"id\": 2, \"program\": \"biotop\", \"funcs\": [\"vfs_read\"],"
      " \"fields\": {\"request\": {\"rq_disk\": {\"type\": \"struct gendisk *\","
      " \"guarded\": false}}}, \"tracepoints\": [\"block_rq_issue\"],"
      " \"syscalls\": [\"openat\"]}",
      "{\"id\": 3, \"program\": \"q3\", \"funcs\": [\"vfs_fsync\", \"get_order\"]}",
      "{\"id\": 4, \"object\": \"" + Fixture().object_path + "\"}",
      "{\"id\": 5, \"syscalls\": [\"openat2\"], \"tracepoints\": [\"no_such_event\"]}",
      "{\"id\": \"bad-1\", \"object\": \"" + Fixture().dir + "/missing.o\"}",
      "{\"id\": 6, not json",
      "[1, 2, 3]",
  };
}

TEST(ServeTest, AnswersBatchAgainstV2Dataset) {
  auto engine = ServeEngine::Open({Fixture().v2_path}, ServeOptions{});
  ASSERT_TRUE(engine.ok()) << engine.error().ToString();
  EXPECT_EQ(engine->num_datasets(), 1u);

  std::vector<std::string> responses = engine->HandleBatch(RequestBatch());
  ASSERT_EQ(responses.size(), 8u);
  // First dispatch computes; the in-batch duplicate is a hit with the same
  // body but its own id.
  EXPECT_NE(responses[0].find("\"id\": 1, \"cache\": \"miss\""), std::string::npos)
      << responses[0];
  EXPECT_NE(responses[1].find("\"id\": 2, \"cache\": \"hit\""), std::string::npos)
      << responses[1];
  EXPECT_EQ(responses[0].substr(responses[0].find("\"ok\"")),
            responses[1].substr(responses[1].find("\"ok\"")));
  EXPECT_NE(responses[0].find("\"any_mismatch\": true"), std::string::npos);
  EXPECT_NE(responses[0].find("\"format\": \"v2\""), std::string::npos);
  EXPECT_NE(responses[3].find("\"ok\": true"), std::string::npos) << responses[3];
  // Malformed requests answer with errors, in position, and never cache.
  for (size_t bad : {5u, 6u, 7u}) {
    EXPECT_NE(responses[bad].find("\"ok\": false"), std::string::npos) << responses[bad];
  }
  EXPECT_NE(responses[5].find("\"id\": \"bad-1\""), std::string::npos);

  EXPECT_EQ(engine->requests(), 8u);
  EXPECT_EQ(engine->ok_responses(), 5u);
  EXPECT_EQ(engine->error_responses(), 3u);
  EXPECT_EQ(engine->cache_hits(), 1u);
  EXPECT_EQ(engine->cache_misses(), 4u);
  EXPECT_EQ(engine->cache_entries(), 4u);

  // A second batch of the same lines is all persistent-cache hits.
  std::vector<std::string> again = engine->HandleBatch(RequestBatch());
  EXPECT_EQ(again[0].substr(again[0].find("\"ok\"")),
            responses[0].substr(responses[0].find("\"ok\"")));
  EXPECT_NE(again[0].find("\"cache\": \"hit\""), std::string::npos);
  EXPECT_EQ(engine->cache_hits(), 6u);
  EXPECT_EQ(engine->cache_misses(), 4u);
  EXPECT_EQ(engine->cache_entries(), 4u);
}

TEST(ServeTest, ResponsesAreByteIdenticalAcrossJobs) {
  std::vector<std::vector<std::string>> all_responses;
  std::vector<std::string> all_reports;
  for (int jobs : {1, 8}) {
    ServeOptions options;
    options.jobs = jobs;
    auto engine = ServeEngine::Open({Fixture().v2_path, Fixture().v2_path}, options);
    ASSERT_TRUE(engine.ok()) << engine.error().ToString();
    all_responses.push_back(engine->HandleBatch(RequestBatch()));
    std::string report = engine->ReportJson();
    // Reports differ only in the jobs field; mask it for comparison.
    size_t jobs_pos = report.find("\"jobs\": ");
    ASSERT_NE(jobs_pos, std::string::npos);
    report.erase(jobs_pos, report.find('\n', jobs_pos) - jobs_pos);
    all_reports.push_back(report);
  }
  EXPECT_EQ(all_responses[0], all_responses[1]);
  EXPECT_EQ(all_reports[0], all_reports[1]);
}

TEST(ServeTest, ReportJsonIsValidAndAccountsForEverything) {
  ServeOptions options;
  options.cache_capacity = 2;  // force the admission bound to bind
  auto engine = ServeEngine::Open({Fixture().v2_path}, options);
  ASSERT_TRUE(engine.ok());
  engine->HandleBatch(RequestBatch());
  std::string report = engine->ReportJson();
  Status valid = obs::ValidateServeReportDoc(report);
  EXPECT_TRUE(valid.ok()) << valid.ToString() << "\n" << report;
  // 4 distinct computed results, capacity 2: admission stops at the cap.
  EXPECT_EQ(engine->cache_entries(), 2u);
  EXPECT_NE(report.find("\"entries\": 2, \"capacity\": 2"), std::string::npos) << report;

  // The validator rejects documents whose counters do not reconcile.
  std::string broken = report;
  size_t pos = broken.find("\"requests\": 8");
  ASSERT_NE(pos, std::string::npos);
  broken.replace(pos, 13, "\"requests\": 9");
  EXPECT_FALSE(obs::ValidateServeReportDoc(broken).ok());
  EXPECT_FALSE(obs::ValidateServeReportDoc("{}").ok());
  EXPECT_FALSE(obs::ValidateServeReportDoc("not json").ok());
}

TEST(ServeTest, OpenFailsLoudly) {
  EXPECT_FALSE(ServeEngine::Open({}, ServeOptions{}).ok());
  auto missing = ServeEngine::Open({Fixture().dir + "/nope.dds"}, ServeOptions{});
  ASSERT_FALSE(missing.ok());
  EXPECT_NE(missing.error().message().find("nope.dds"), std::string::npos);
  // A file in the retired v1 layout is refused by name, not misread.
  const std::string v1_path = Fixture().dir + "/old.dds";
  {
    std::ofstream file(v1_path, std::ios::binary);
    file << "DDS1" << std::string(60, '\0');
  }
  auto v1 = ServeEngine::Open({Fixture().v2_path, v1_path}, ServeOptions{});
  ASSERT_FALSE(v1.ok());
  EXPECT_NE(v1.error().message().find("v1 dataset"), std::string::npos) << v1.error().ToString();
  std::remove(v1_path.c_str());
}

}  // namespace
}  // namespace depsurf
