// Dataset-as-a-service tests: batched NDJSON queries against mmap'd
// datasets, response determinism across --jobs values, cache accounting,
// the depsurf.serve_report.v1 contract, the request reader's grammar and
// key rules, hostile lines, and the unix-socket loop.
#include "src/serve/serve.h"

#include <gtest/gtest.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "src/bpf/bpf_object.h"
#include "src/bpfgen/program_corpus.h"
#include "src/core/dataset_io.h"
#include "src/core/depsurf.h"
#include "src/kernelgen/compiler.h"
#include "src/kernelgen/configurator.h"
#include "src/kernelgen/corpus.h"
#include "src/kernelgen/image_builder.h"
#include "src/obs/context.h"
#include "src/obs/json_lint.h"
#include "src/obs/run_report.h"
#include "tests/json_mutants.h"

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
    // The directory and everything the tests write into it go when the
    // test binary exits.
    static struct Cleanup {
      std::string dir;
      ~Cleanup() {
        std::error_code ec;  // best effort
        std::filesystem::remove_all(dir, ec);
      }
    } cleanup;
    if (dir != nullptr) {
      cleanup.dir = dir;
    }

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

void RenderSpanTree(const obs::SpanNode& span, std::string& out) {
  out += span.name + "{";
  for (const auto& [key, value] : span.attrs) {
    out += key + "=" + value + ";";
  }
  for (const obs::SpanNode& child : span.children) {
    RenderSpanTree(child, out);
  }
  out += "}";
}

// Everything a batch decides is decided in request order, so which thread
// answered which miss cannot show. The batch has more distinct misses than
// any window, inline and object duplicates, lines the cache already holds,
// error lines, and fewer cache slots than distinct misses.
TEST(ServeTest, DispatchIsIndependentOfJobs) {
  const std::string second_object = Fixture().dir + "/dispatch_second.o";
  {
    auto bytes = WriteBpfObject(BuildGuardedProbe());
    ASSERT_TRUE(bytes.ok());
    std::ofstream file(second_object, std::ios::binary);
    file.write(reinterpret_cast<const char*>(bytes->data()),
               static_cast<std::streamsize>(bytes->size()));
  }
  auto object_line = [](const std::string& id, const std::string& path) {
    return "{\"id\": \"" + id + "\", \"object\": \"" + path + "\"}";
  };
  auto inline_line = [](const std::string& id, int k, bool reversed) {
    const std::string name = "\"dispatch_fn_" + std::to_string(k) + "\"";
    const std::string funcs = reversed ? "\"vfs_read\", " + name : name + ", \"vfs_read\"";
    return "{\"id\": \"" + id + "\", \"program\": \"p\", \"funcs\": [" + funcs +
           "], \"syscalls\": [\"openat\"]}";
  };
  const std::vector<std::string> warm = {object_line("w0", Fixture().object_path),
                                         inline_line("w1", 100, false)};
  std::vector<std::string> batch;
  for (int k = 0; k < 12; ++k) {
    batch.push_back(inline_line("m" + std::to_string(k), k, false));
    if (k == 2) {
      batch.push_back(object_line("cached-object", Fixture().object_path));
      batch.push_back(object_line("new-object", second_object));
      batch.push_back("{\"id\": \"bad-json\", not json");
    }
    if (k == 5) {
      batch.push_back(inline_line("dup-3-respelled", 3, true));
      batch.push_back(object_line("dup-object", second_object));
      batch.push_back(inline_line("cached-inline", 100, true));
    }
    if (k == 9) {
      batch.push_back(inline_line("dup-0", 0, false));
      batch.push_back(object_line("missing", Fixture().dir + "/missing.o"));
      batch.push_back("[1, 2]");
      batch.push_back(object_line("cached-object-again", Fixture().object_path));
    }
  }

  struct Run {
    std::vector<std::string> responses;
    std::vector<std::string> replay;
    std::vector<uint64_t> counters;
    std::string report;
    std::vector<std::pair<std::string, uint64_t>> metrics;
    std::string spans;
  };
  std::vector<Run> runs;
  for (int jobs : {1, 2, 3, 8}) {
    ServeOptions options;
    options.jobs = jobs;
    options.cache_capacity = 6;  // 2 from the warm batch, then 4 of 13 misses
    auto engine = ServeEngine::Open({Fixture().v2_path}, options);
    ASSERT_TRUE(engine.ok()) << engine.error().ToString();
    engine->HandleBatch(warm);
    Run run;
    obs::Context context;
    {
      obs::ScopedContext scoped(context);
      run.responses = engine->HandleBatch(batch);
    }
    run.counters = {engine->requests(),     engine->ok_responses(), engine->error_responses(),
                    engine->cache_hits(),   engine->cache_misses(),
                    engine->cache_entries()};
    run.metrics = context.metrics().CounterSnapshot();
    for (const obs::SpanNode& root : context.spans().Snapshot()) {
      RenderSpanTree(root, run.spans);
    }
    run.replay = engine->HandleBatch(batch);
    run.report = engine->ReportJson();
    run.report.erase(run.report.find("\"jobs\": "), std::string_view("\"jobs\": 1").size());
    runs.push_back(std::move(run));
  }

  // The counts the rules give: 13 distinct misses (12 inline sets and one
  // object), 4 hits on what the warm batch cached, 2 in-batch duplicates,
  // 3 errors; 4 of the misses fill the cache.
  const Run& first = runs[0];
  ASSERT_EQ(first.responses.size(), batch.size());
  EXPECT_EQ(first.counters,
            (std::vector<uint64_t>{2 + batch.size(), 2 + 19, 3, 4 + 2, 2 + 13, 6}));
  auto marker = [](const std::string& response) {
    return response.find("\"cache\": \"hit\"") != std::string::npos    ? "hit"
           : response.find("\"cache\": \"miss\"") != std::string::npos ? "miss"
                                                                         : "error";
  };
  std::string markers;
  std::string replay_markers;
  for (size_t i = 0; i < batch.size(); ++i) {
    markers += std::string(marker(first.responses[i])) + " ";
    replay_markers += std::string(marker(first.replay[i])) + " ";
  }
  EXPECT_EQ(markers,
            "miss miss miss hit miss error miss miss miss hit hit hit miss miss miss miss "
            "hit error error hit miss miss ");
  // The four misses admitted first, in request order, hit on replay.
  EXPECT_EQ(replay_markers,
            "hit hit hit hit hit error miss miss miss hit hit hit miss miss miss miss "
            "hit error error hit miss miss ");
  EXPECT_NE(first.spans.find("serve.batch{requests=22;cache_hits=6;cache_misses=13;errors=3;"),
            std::string::npos)
      << first.spans;
  // Rows of the 13 misses only, 3 for each: a repeat of a miss is a hit.
  // This once read 42 at --jobs=1 to 3 and 45 at --jobs=8, since a repeat
  // counted its rows whenever its first occurrence was not yet cached.
  const auto rows = std::find_if(first.metrics.begin(), first.metrics.end(),
                                 [](const auto& m) { return m.first == "serve.rows_checked"; });
  ASSERT_NE(rows, first.metrics.end());
  EXPECT_EQ(rows->second, 13u * 3);

  for (size_t r = 1; r < runs.size(); ++r) {
    EXPECT_EQ(runs[r].responses, first.responses) << "run " << r;
    EXPECT_EQ(runs[r].replay, first.replay) << "run " << r;
    EXPECT_EQ(runs[r].counters, first.counters) << "run " << r;
    EXPECT_EQ(runs[r].report, first.report) << "run " << r;
    EXPECT_EQ(runs[r].metrics, first.metrics) << "run " << r;
    EXPECT_EQ(runs[r].spans, first.spans) << "run " << r;
  }
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

std::string ReplaceAll(std::string text, const std::string& from, const std::string& to) {
  for (size_t pos = text.find(from); pos != std::string::npos;
       pos = text.find(from, pos + to.size())) {
    text.replace(pos, from.size(), to);
  }
  return text;
}

TEST(ServeTest, HostileRequestLinesGetAnswers) {
  auto engine = ServeEngine::Open({Fixture().v2_path}, ServeOptions{});
  ASSERT_TRUE(engine.ok()) << engine.error().ToString();
  // 100,000 levels once overflowed the stack of the recursive parser.
  const std::string deep = std::string(100000, '[') + std::string(100000, ']');
  const std::string unclosed = "{\"id\": 5, \"funcs\": " + std::string(100000, '[') + "}";
  std::vector<std::string> responses = engine->HandleBatch({
      "{\"id\": 1, \"funcs\": " + deep + "}",
      "{\"id\": 1, \"funcs\": [[[]]]}",
      "{\"id\": 2, \"deep\": " + deep + ", \"funcs\": [\"vfs_read\"]}",
      "{\"id\": 2, \"funcs\": [\"vfs_read\"]}",
      // A directory opens but cannot be read; it once escaped as an
      // uncaught std::ios_base::failure.
      "{\"id\": 3, \"object\": \"" + Fixture().dir + "\"}",
      "{\"id\": 4, \"object\": \"" + Fixture().dir + "/missing.o\"}",
      unclosed,
  });
  ASSERT_EQ(responses.size(), 7u);
  EXPECT_EQ(responses[0], "{\"id\": 1, \"ok\": false, \"error\": \"funcs must contain only strings\"}");
  EXPECT_EQ(responses[1], responses[0]);
  EXPECT_NE(responses[2].find("{\"id\": 2, \"cache\": \"miss\", \"ok\": true"), std::string::npos)
      << responses[2];
  EXPECT_EQ(responses[3], ReplaceAll(responses[2], "\"cache\": \"miss\"", "\"cache\": \"hit\""));
  EXPECT_EQ(responses[4], "{\"id\": 3, \"ok\": false, \"error\": \"cannot read object file: " +
                              Fixture().dir + "\"}");
  EXPECT_EQ(responses[5], "{\"id\": 4, \"ok\": false, \"error\": \"cannot read object file: " +
                              Fixture().dir + "/missing.o\"}");
  EXPECT_EQ(responses[6],
            "{\"id\": null, \"ok\": false, \"error\": \"bad request JSON: JSON: expected a value at "
            "offset " + std::to_string(unclosed.size() - 1) + "\"}");
}

// Seeded byte mutations of request lines: serve must answer exactly the
// lines ParseJson rejects with a syntax error, carrying ParseJson's text.
// Both read obs::JsonReader's grammar, so this checks serve's side (the
// "bad request JSON: " wrapping and the null id); the grammar itself is
// pinned by JsonLintTest.GrammarMatchesTheGolden. Mutations add at most a
// few brackets, so nesting stays far below ParseJson's limit.
TEST(ServeTest, ReaderMatchesLintGrammar) {
  auto engine = ServeEngine::Open({Fixture().v2_path}, ServeOptions{});
  ASSERT_TRUE(engine.ok()) << engine.error().ToString();
  std::vector<std::string> seeds = RequestBatch();
  seeds.push_back(
      R"({"id": -1.5e3, "x": {"a": [true, false, null, "\u00e9\n\/é"]}, "funcs": ["a\"b"]})");
  seeds.push_back(R"({"id": "s", "fields": {"request": {"rq_disk": {"type": "int",)"
                  R"( "guarded": true}, "q": null}}, "lsm_hooks": [], "program": "p"})");
  seeds.push_back(" \t{\"id\":+1,\"tracepoints\":[\"a\",\"b\"]}\r ");
  const std::vector<std::string> lines = JsonMutants(seeds, 12000, 2025);
  std::vector<std::string> responses = engine->HandleBatch(lines);
  ASSERT_EQ(responses.size(), lines.size());
  size_t rejected = 0;
  for (size_t i = 0; i < lines.size(); ++i) {
    Result<obs::JsonValue> lint = obs::ParseJson(lines[i]);
    if (!lint.ok()) {
      ++rejected;
      EXPECT_EQ(responses[i], "{\"id\": null, \"ok\": false, \"error\": \"" +
                                  obs::JsonEscape("bad request JSON: " + lint.error().message()) +
                                  "\"}")
          << "line: " << lines[i];
    } else {
      EXPECT_EQ(responses[i].find("bad request JSON"), std::string::npos)
          << "line: " << lines[i] << "\nresponse: " << responses[i];
    }
  }
  // Both outcomes are well represented.
  EXPECT_GT(rejected, lines.size() / 4);
  EXPECT_LT(rejected, lines.size() * 9 / 10);
}

// The request key rules, as a table of lines and the responses the
// DOM-based reader that preceded the one-pass reader gave them. OBJECT
// stands for the fixture's biotop.o and DATASET for its dataset path.
TEST(ServeTest, RequestKeySemantics) {
  const std::pair<const char*, const char*> table[] = {
      // The first id, program and list member wins.
      {R"({"id": 1, "id": 2, "program": "first", "program": "second", "funcs": ["vfs_read"], "funcs": ["vfs_write"]})",
       R"json({"id": 1, "cache": "miss", "ok": true, "results": [{"dataset": "DATASET", "format": "v2", "images": 2, "any_mismatch": true, "worst_implication": "explicit error (before execution)", "rows": [{"kind": "function", "name": "vfs_read", "cells": ["-","-"]}]}]})json"},
      {R"({"id": 2, "funcs": 5, "funcs": ["vfs_read"]})",
       R"json({"id": 2, "ok": false, "error": "funcs must be an array"})json"},
      // The first fields member wins.
      {R"({"id": 3, "fields": {"request": {"rq_disk": "int"}}, "fields": {"task_struct": {"pid": "int"}}})",
       R"json({"id": 3, "cache": "miss", "ok": true, "results": [{"dataset": "DATASET", "format": "v2", "images": 2, "any_mismatch": true, "worst_implication": "incorrect result (might be detectable)", "rows": [{"kind": "struct", "name": "request", "cells": [".","."]},{"kind": "field", "name": "request::rq_disk", "cells": ["C","-"]}]}]})json"},
      // Repeated struct entries merge; a repeated field's last entry wins.
      {R"({"id": 4, "fields": {"request": {"rq_disk": "int", "cmd_flags": null}, "request": {"rq_disk": {"guarded": true}}}})",
       R"json({"id": 4, "cache": "miss", "ok": true, "results": [{"dataset": "DATASET", "format": "v2", "images": 2, "any_mismatch": true, "worst_implication": "incorrect result (might be detectable)", "rows": [{"kind": "struct", "name": "request", "cells": [".","."]},{"kind": "field", "name": "request::cmd_flags", "cells": [".","C"]},{"kind": "field", "name": "request::rq_disk", "cells": [".","."]}]}]})json"},
      // In an expectation, the first type and the first guarded win ...
      {R"({"id": 5, "fields": {"request": {"rq_disk": {"type": "struct gendisk *", "type": "int", "guarded": true, "guarded": false}}}})",
       R"json({"id": 5, "cache": "miss", "ok": true, "results": [{"dataset": "DATASET", "format": "v2", "images": 2, "any_mismatch": false, "worst_implication": "none", "rows": [{"kind": "struct", "name": "request", "cells": [".","."]},{"kind": "field", "name": "request::rq_disk", "cells": [".","."]}]}]})json"},
      // ... and a first value of the wrong kind is ignored.
      {R"({"id": 6, "fields": {"request": {"rq_disk": {"type": 1, "type": "int", "guarded": "no", "guarded": true, "other": [{}]}}}})",
       R"json({"id": 6, "cache": "miss", "ok": true, "results": [{"dataset": "DATASET", "format": "v2", "images": 2, "any_mismatch": true, "worst_implication": "explicit error (before execution)", "rows": [{"kind": "struct", "name": "request", "cells": [".","."]},{"kind": "field", "name": "request::rq_disk", "cells": [".","-"]}]}]})json"},
      // An object line ignores the inline keys, malformed or not.
      {R"({"id": 7, "funcs": 5, "object": "OBJECT", "object": 7, "fields": [], "program": null})",
       R"json({"id": 7, "cache": "miss", "ok": true, "results": [{"dataset": "DATASET", "format": "v2", "images": 2, "any_mismatch": true, "worst_implication": "incorrect result (might be detectable)", "rows": [{"kind": "function", "name": "__blk_account_io_done", "cells": ["-","."]},{"kind": "function", "name": "__blk_account_io_start", "cells": ["-","F"]},{"kind": "function", "name": "blk_account_io_done", "cells": [".","CF"]},{"kind": "function", "name": "blk_account_io_start", "cells": [".","CF"]},{"kind": "function", "name": "blk_mq_start_request", "cells": [".","."]},{"kind": "struct", "name": "gendisk", "cells": [".","."]},{"kind": "field", "name": "gendisk::disk_name", "cells": [".","."]},{"kind": "struct", "name": "request", "cells": [".","."]},{"kind": "field", "name": "request::__data_len", "cells": [".","."]},{"kind": "field", "name": "request::__sector", "cells": [".","."]},{"kind": "field", "name": "request::cmd_flags", "cells": [".","C"]},{"kind": "field", "name": "request::rq_disk", "cells": [".","-"]},{"kind": "field", "name": "request::start_time_ns", "cells": [".","."]},{"kind": "struct", "name": "request_queue", "cells": [".","."]},{"kind": "field", "name": "request_queue::disk", "cells": ["-","."]},{"kind": "tracepoint", "name": "block_io_done", "cells": ["-","-"]},{"kind": "tracepoint", "name": "block_io_start", "cells": ["-","-"]}]}]})json"},
      {R"({"id": 8, "object": 7, "object": "OBJECT"})",
       R"json({"id": 8, "ok": false, "error": "object must be a file path string"})json"},
      // Errors come in a fixed order, whatever the member order.
      {R"({"id": 9, "fields": 1, "lsm_hooks": 2, "syscalls": 3, "tracepoints": 4, "funcs": 5, "program": 6})",
       R"json({"id": 9, "ok": false, "error": "program must be a string"})json"},
      {R"({"id": 10, "fields": {"a": 1}, "lsm_hooks": [2], "syscalls": ["x", 3]})",
       R"json({"id": 10, "ok": false, "error": "syscalls must contain only strings"})json"},
      // Inside fields, the first error in document order.
      {R"({"id": 11, "fields": {"request": {"rq_disk": 5}, "request": "x"}})",
       R"json({"id": 11, "ok": false, "error": "fields.request.rq_disk must be a type string, an object, or null"})json"},
      {R"({"id": 12, "fields": {"request": "x", "task_struct": {"pid": 5}}})",
       R"json({"id": 12, "ok": false, "error": "fields.request must be an object"})json"},
      // A syntax error anywhere beats every key error.
      {R"({"id": 13, "funcs": 5, "x": [1, 2,]})",
       R"json({"id": null, "ok": false, "error": "bad request JSON: JSON: expected a value at offset 34"})json"},
      // Escaped keys and names; code points at 0x80 or above read as '?'.
      {R"({"\u0069d": 14, "f\u0075ncs": ["vfs_\u0072ead", "caf\u00e9"]})",
       R"json({"id": 14, "cache": "miss", "ok": true, "results": [{"dataset": "DATASET", "format": "v2", "images": 2, "any_mismatch": true, "worst_implication": "explicit error (before execution)", "rows": [{"kind": "function", "name": "caf?", "cells": ["-","-"]},{"kind": "function", "name": "vfs_read", "cells": ["-","-"]}]}]})json"},
      // Ids of each kind.
      {R"({"id": "a\u0041\u00e9\"\n", "syscalls": ["openat"]})",
       R"json({"id": "aA?\"\n", "cache": "miss", "ok": true, "results": [{"dataset": "DATASET", "format": "v2", "images": 2, "any_mismatch": false, "worst_implication": "none", "rows": [{"kind": "syscall", "name": "openat", "cells": [".","."]}]}]})json"},
      {R"({"id": 1.5, "syscalls": ["openat"]})",
       R"json({"id": 1.5, "cache": "hit", "ok": true, "results": [{"dataset": "DATASET", "format": "v2", "images": 2, "any_mismatch": false, "worst_implication": "none", "rows": [{"kind": "syscall", "name": "openat", "cells": [".","."]}]}]})json"},
      {R"({"id": -0, "syscalls": ["openat"]})",
       R"json({"id": 0, "cache": "hit", "ok": true, "results": [{"dataset": "DATASET", "format": "v2", "images": 2, "any_mismatch": false, "worst_implication": "none", "rows": [{"kind": "syscall", "name": "openat", "cells": [".","."]}]}]})json"},
      {R"({"id": 1e2, "syscalls": ["openat"]})",
       R"json({"id": 100, "cache": "hit", "ok": true, "results": [{"dataset": "DATASET", "format": "v2", "images": 2, "any_mismatch": false, "worst_implication": "none", "rows": [{"kind": "syscall", "name": "openat", "cells": [".","."]}]}]})json"},
      {R"({"id": true, "syscalls": ["openat"]})",
       R"json({"id": true, "cache": "hit", "ok": true, "results": [{"dataset": "DATASET", "format": "v2", "images": 2, "any_mismatch": false, "worst_implication": "none", "rows": [{"kind": "syscall", "name": "openat", "cells": [".","."]}]}]})json"},
      {R"({"id": [1], "syscalls": ["openat"]})",
       R"json({"id": null, "cache": "hit", "ok": true, "results": [{"dataset": "DATASET", "format": "v2", "images": 2, "any_mismatch": false, "worst_implication": "none", "rows": [{"kind": "syscall", "name": "openat", "cells": [".","."]}]}]})json"},
      // An empty field map is a struct-only dependency.
      {R"({"id": 15, "tracepoints": ["block_rq_issue"], "lsm_hooks": [], "fields": {"request": {}}})",
       R"json({"id": 15, "cache": "miss", "ok": true, "results": [{"dataset": "DATASET", "format": "v2", "images": 2, "any_mismatch": true, "worst_implication": "incorrect result (might be detectable)", "rows": [{"kind": "struct", "name": "request", "cells": [".","."]},{"kind": "tracepoint", "name": "block_rq_issue", "cells": [".","C"]}]}]})json"},
  };
  auto engine = ServeEngine::Open({Fixture().v2_path}, ServeOptions{});
  ASSERT_TRUE(engine.ok()) << engine.error().ToString();
  std::vector<std::string> lines;
  for (const auto& [line, response] : table) {
    lines.push_back(ReplaceAll(line, "OBJECT", Fixture().object_path));
  }
  std::vector<std::string> responses = engine->HandleBatch(lines);
  ASSERT_EQ(responses.size(), lines.size());
  for (size_t i = 0; i < lines.size(); ++i) {
    EXPECT_EQ(ReplaceAll(responses[i], Fixture().v2_path, "DATASET"), table[i].second)
        << "line: " << table[i].first;
  }
}

// A numeric id is echoed as JSON at any size. Past long long's range it
// prints through %g with no cast: that cast is undefined, which the
// sanitizers' float-cast-overflow check reports. An id that reads as
// infinity, which JSON cannot spell, is echoed as null.
TEST(ServeTest, NumericIdsEchoAsJson) {
  const std::pair<const char*, const char*> ids[] = {
      {"1e300", "1e+300"},
      {"-1e300", "-1e+300"},
      {"9.3e18", "9.3e+18"},
      {"1e999", "null"},
      {"-1e999", "null"},
      // The edges of the range: -2^63 is a long long, 2^63 is not.
      {"-9223372036854775808", "-9223372036854775808"},
      {"9223372036854775808", "9.22337e+18"},
      {"-9.2233720368547758e18", "-9223372036854775808"},
  };
  auto engine = ServeEngine::Open({Fixture().v2_path}, ServeOptions{});
  ASSERT_TRUE(engine.ok()) << engine.error().ToString();
  std::vector<std::string> lines;
  for (const auto& [id, echoed] : ids) {
    lines.push_back(std::string("{\"id\": ") + id + ", \"syscalls\": [\"openat\"]}");
  }
  std::vector<std::string> responses = engine->HandleBatch(lines);
  ASSERT_EQ(responses.size(), lines.size());
  for (size_t i = 0; i < lines.size(); ++i) {
    const std::string want = std::string("{\"id\": ") + ids[i].second + ", \"cache\": ";
    EXPECT_EQ(responses[i].substr(0, want.size()), want) << "line: " << lines[i];
  }
}

int ConnectUnix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd >= 0 && connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return -1;
  }
  return fd;
}

bool WriteAll(int fd, const std::string& data) {
  for (size_t sent = 0; sent < data.size();) {
    const ssize_t n = write(fd, data.data() + sent, data.size() - sent);
    if (n <= 0) {
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

// A client that sends a batch and hangs up without reading its answers
// once killed the server with SIGPIPE, and the next client found nobody
// listening.
TEST(ServeTest, SocketLoopSurvivesAClientThatHangsUp) {
  auto engine = ServeEngine::Open({Fixture().v2_path}, ServeOptions{});
  ASSERT_TRUE(engine.ok()) << engine.error().ToString();
  const std::string path = Fixture().dir + "/serve.sock";
  std::promise<bool> listening;
  Status served;
  std::thread server([&] {
    bool told = false;
    served = ServeUnixSocket(*engine, path, 2, [&] {
      told = true;
      listening.set_value(true);
    });
    if (!told) {
      listening.set_value(false);
    }
  });
  if (!listening.get_future().get()) {
    server.join();
    FAIL() << served.ToString();
  }

  // 200 lines of 120 functions each: well over 1 MB of answers, more than
  // the socket buffers hold, so the server blocks writing them.
  std::string funcs;
  for (int f = 0; f < 120; ++f) {
    funcs += (f == 0 ? "\"func_" : ", \"func_") + std::to_string(f) + "\"";
  }
  std::string batch;
  for (int i = 0; i < 200; ++i) {
    batch += "{\"id\": " + std::to_string(i) + ", \"funcs\": [" + funcs + "]}\n";
  }
  const int first = ConnectUnix(path);
  ASSERT_GE(first, 0) << strerror(errno);
  ASSERT_TRUE(WriteAll(first, batch));
  shutdown(first, SHUT_WR);
  pollfd answered{first, POLLIN, 0};
  EXPECT_EQ(poll(&answered, 1, 30000), 1);  // the server is writing
  close(first);

  const int second = ConnectUnix(path);
  ASSERT_GE(second, 0) << strerror(errno);
  ASSERT_TRUE(WriteAll(second, "{\"id\": \"second\", \"syscalls\": [\"openat\"]}\n"));
  shutdown(second, SHUT_WR);
  std::string reply;
  char buffer[4096];
  for (ssize_t n; (n = read(second, buffer, sizeof(buffer))) > 0;) {
    reply.append(buffer, static_cast<size_t>(n));
  }
  close(second);
  server.join();

  EXPECT_TRUE(served.ok()) << served.ToString();
  EXPECT_EQ(reply.rfind("{\"id\": \"second\", \"cache\": \"miss\", \"ok\": true", 0), 0u) << reply;
  EXPECT_EQ(reply.back(), '\n');
  EXPECT_EQ(engine->requests(), 201u);
  EXPECT_NE(access(path.c_str(), F_OK), 0);  // the loop removed its socket
}

}  // namespace
}  // namespace depsurf
