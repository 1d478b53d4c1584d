// The lint mutation oracle. One document per `depsurf metrics lint` kind is
// built in process from fixed inputs. Every object member and the first
// element of every array is then deleted, and replaced in turn by null,
// false, 0, -1, 0.5, "", "x", [] and {}. tests/golden/lint_mutations.txt
// holds the validator's accept/reject answer for each mutation, one line per
// (document, path), so any change to what a schema accepts shows up here as
// a changed golden line. tests/golden/json_documents.txt holds the raw bytes
// of the same documents, plus a function's surface status and an unmasked
// run report, so any change to how a document is written shows up there.
// tests/golden/json_grammar.txt holds obs::ParseJson's answer for seeded
// mutants of serve request lines and hand-written edges of the grammar, so
// any change to what the one JSON grammar accepts, builds or reports shows
// up there.
#include <gtest/gtest.h>
#include <stdlib.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "src/analyzer/analyzer.h"
#include "src/analyzer/remediation.h"
#include "src/bpf/bpf_builder.h"
#include "src/bpf/bpf_object.h"
#include "src/bpf/bpf_rewriter.h"
#include "src/bpfgen/program_corpus.h"
#include "src/core/dataset_io.h"
#include "src/core/depsurf.h"
#include "src/fuzz/fuzz_campaign.h"
#include "src/kernelgen/compiler.h"
#include "src/kernelgen/configurator.h"
#include "src/kernelgen/corpus.h"
#include "src/kernelgen/image_builder.h"
#include "src/obs/bench_report.h"
#include "src/obs/json_lint.h"
#include "src/obs/perf_gate.h"
#include "src/obs/profile.h"
#include "src/obs/report_merge.h"
#include "src/obs/run_report.h"
#include "src/obs/trace_export.h"
#include "src/serve/serve.h"
#include "src/util/str_util.h"
#include "tests/json_mutants.h"

namespace depsurf {
namespace {

using obs::JsonValue;

// The replacement values, in golden column order after the deletion.
constexpr const char* kReplacements[] = {"null", "false", "0",  "-1", "0.5",
                                         "\"\"", "\"x\"", "[]", "{}"};

struct LintDoc {
  std::string name;  // lint kind, plus the variant when a kind has two
  std::string json;
  std::function<Status(std::string_view)> validate;
};

// Removes the directory tree at process exit.
struct TempDir {
  std::string path;
  TempDir() {
    char tmpl[] = "/tmp/depsurf_lint_mutation_XXXXXX";
    const char* made = mkdtemp(tmpl);
    EXPECT_NE(made, nullptr);
    path = made != nullptr ? made : ".";
  }
  ~TempDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path, ignored);
  }
};

const std::string& TestDir() {
  static const TempDir dir;
  return dir.path;
}

std::string ReadText(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

// Compact JSON; numbers print with full precision, so parsing the output
// gives back the same values.
void Serialize(const JsonValue& value, std::string& out) {
  switch (value.kind) {
    case JsonValue::Kind::kNull:
      out += "null";
      return;
    case JsonValue::Kind::kBool:
      out += value.boolean ? "true" : "false";
      return;
    case JsonValue::Kind::kNumber:
      out += StrFormat("%.17g", value.number);
      return;
    case JsonValue::Kind::kString:
      out += "\"" + obs::JsonEscape(value.string) + "\"";
      return;
    case JsonValue::Kind::kArray:
      out += "[";
      for (size_t i = 0; i < value.array.size(); ++i) {
        out += i != 0 ? "," : "";
        Serialize(value.array[i], out);
      }
      out += "]";
      return;
    case JsonValue::Kind::kObject:
      out += "{";
      for (size_t i = 0; i < value.object.size(); ++i) {
        out += i != 0 ? "," : "";
        out += "\"" + obs::JsonEscape(value.object[i].first) + "\":";
        Serialize(value.object[i].second, out);
      }
      out += "}";
      return;
  }
}

// The v5.4 and v6.8 surfaces: rq_disk is present on one and absent on the
// other, so analysis against their dataset carries consequences and findings.
const std::vector<DependencySurface>& MixedSurfaces() {
  static const std::vector<DependencySurface> surfaces = [] {
    std::vector<DependencySurface> out;
    KernelModel model(2025, 0.01, BuildCuratedCatalog());
    for (KernelVersion version : {KernelVersion(5, 4), KernelVersion(6, 8)}) {
      auto kernel = model.Configure(MakeBuild(version));
      EXPECT_TRUE(kernel.ok());
      auto bytes = BuildKernelImage(CompileKernel(2025, kernel.TakeValue()));
      EXPECT_TRUE(bytes.ok());
      auto surface = DependencySurface::Extract(bytes.TakeValue());
      EXPECT_TRUE(surface.ok());
      out.push_back(surface.TakeValue());
    }
    return out;
  }();
  return surfaces;
}

const Dataset& MixedDataset() {
  static const Dataset dataset = [] {
    Dataset out;
    out.AddImage(KernelVersion(5, 4).Tag(), MixedSurfaces()[0]);
    out.AddImage(KernelVersion(6, 8).Tag(), MixedSurfaces()[1]);
    return out;
  }();
  return dataset;
}

// Reads request::rq_disk without a guard: its one finding is fixable, where
// BuildRawOffsetProbe's is refused.
BpfObject LintProbe() {
  BpfObjectBuilder builder("lint_probe");
  builder.AttachKprobe("blk_account_io_start");
  EXPECT_TRUE(builder.AccessField("request", "rq_disk", "struct gendisk *").ok());
  return builder.Build();
}

AnalyzeOptions Against(const Dataset* dataset) {
  AnalyzeOptions options;
  options.against = dataset;
  return options;
}

std::string AnalysisDoc(const BpfObject& object, const Dataset* against) {
  return AnalysisToJson(AnalyzeObject(object, Against(against)));
}

// `fix --json` as the CLI writes it: plan, apply, round-trip the object
// through the codec, re-analyze and verify.
std::string RemediationDoc(const BpfObject& object, const Dataset* against) {
  const AnalyzeOptions options = Against(against);
  ObjectAnalysis before = AnalyzeObject(object, options);
  RemediationPlan plan = PlanRemediation(object, before, options);
  BpfObject fixed = object;
  EXPECT_TRUE(InsertFieldExistsGuards(fixed, plan.Insertions()).ok());
  auto bytes = WriteBpfObject(fixed);
  EXPECT_TRUE(bytes.ok());
  auto reparsed = ParseBpfObject(bytes.TakeValue());
  EXPECT_TRUE(reparsed.ok());
  RemediationVerification verification =
      VerifyRemediation(before, plan, AnalyzeObject(*reparsed, options));
  return RemediationToJson(before, plan, &verification);
}

std::vector<obs::SpanNode> SpanForest() {
  obs::SpanNode child;
  child.name = "lint.child";
  child.start_ns = 2000;
  child.dur_ns = 1000;
  child.cpu_ns = 900;
  child.tid = 1;
  obs::SpanNode root;
  root.name = "lint.root";
  root.start_ns = 1000;
  root.dur_ns = 5000;
  root.cpu_ns = 4000;
  root.alloc_count = 3;
  root.alloc_bytes = 96;
  root.tid = 1;
  root.attrs = {{"label", "v5.4"}, {"wall_ms", "3"}};
  root.children.push_back(child);
  obs::SpanNode lane;
  lane.name = "lint.lane";
  lane.start_ns = 1500;
  lane.dur_ns = 2000;
  lane.tid = 2;
  return {root, lane};
}

// TraceEventJson leads with the thread-name metadata events. This copy
// drops them, so that the first event, the one the oracle mutates, is a span.
std::string SpanEventsOnly(const std::string& trace_json) {
  JsonValue trace = obs::ParseJson(trace_json).TakeValue();
  for (auto& [key, events] : trace.object) {
    if (key == "traceEvents") {
      std::erase_if(events.array,
                    [](const JsonValue& event) { return event.Find("ph")->string == "M"; });
    }
  }
  std::string out;
  Serialize(trace, out);
  return out;
}

std::string RunReportDoc(bool mask_timings) {
  obs::SpanCollector spans;
  for (const obs::SpanNode& root : SpanForest()) {
    spans.AddRoot(root);
  }
  obs::MetricsRegistry metrics;
  metrics.Incr("lint.counter", 3);
  metrics.Set("lint.gauge", -2);
  metrics.Record("lint.hist", 5);
  DiagnosticEntry entry;
  entry.severity = DiagSeverity::kDegraded;
  entry.subsystem = DiagSubsystem::kDwarf;
  entry.offset = 0x1c4;
  entry.has_offset = true;
  entry.message = "ran off the end of .sdwarf_info";
  const std::vector<DiagnosticEntry> diagnostics = {entry};
  obs::RunReportOptions options;
  options.mask_timings = mask_timings;
  return RunReportJson(spans, metrics, options, &diagnostics);
}

std::string BenchDoc() {
  setenv("DEPSURF_BENCH_DIR", TestDir().c_str(), 1);
  obs::BenchReporter reporter("lint");
  reporter.AddNote("scale", "0.01");
  reporter.AddStage(obs::BenchStage{"extract", 1.5, 10, 4096});
  reporter.AddStage(obs::BenchStage{"distill", 0.25, 10, 0});
  EXPECT_TRUE(reporter.WriteJson().ok());
  return ReadText(reporter.path());
}

std::string PerfDoc() {
  const std::vector<obs::StageTiming> base = {
      {"extract", 1.0, 5}, {"distill", 0.5, 5}, {"retired", 0.2, 1}};
  const std::vector<obs::StageTiming> head = {
      {"extract", 2.0, 5}, {"distill", 0.5, 5}, {"fresh", 0.1, 1}};
  const obs::PerfGateOptions options;
  return PerfComparisonJson(obs::ComparePerf(base, head, options), options);
}

std::string ProfileDoc() {
  obs::Profile profile = obs::BuildProfile(SpanForest());
  obs::MetricsRegistry metrics;
  metrics.Set("study.build_dataset.window", 2);
  metrics.Set("study.build_dataset.wall_ms", 120);
  metrics.Set("study.executor.worker0.busy_ms", 91);
  metrics.Incr("study.executor.serialize_stall_us", 5000);
  metrics.Record("study.executor.queue_wait_us", 10);
  obs::FillExecutorStats(profile, metrics);
  return obs::ProfileJson(profile);
}

// A campaign with every array non-empty: a seed and one mutant in the
// corpus, an oracle disagreement and a hang (so exit code 1).
std::string FuzzDoc() {
  FuzzCampaignResult result;
  result.rounds = 4;
  result.seed = 9;
  result.time_budget_ms = 10000;
  result.max_ledger_entries = 10000;
  result.seed_names = {"img54"};
  result.candidates = 4;
  result.coverage = {"btf:ok", "dwarf:ok", "elf:ok"};
  result.growth = {{0, 2}, {1, 2}, {2, 3}};
  result.kinds = {{"flip_byte", 3, 1}, {"truncate", 1, 0}};
  FuzzCorpusEntry seed;
  seed.name = "seed:img54";
  seed.is_seed = true;
  seed.tuples = {"btf:ok", "elf:ok"};
  seed.new_tuples = seed.tuples;
  seed.bytes.resize(64);
  FuzzCorpusEntry mutant;
  mutant.index = 1;
  mutant.name = "round0002:flip_byte";
  mutant.round = 2;
  mutant.kind = "flip_byte";
  mutant.fault_seed = 77;
  mutant.description = "flipped byte 12";
  mutant.tuples = {"btf:ok", "dwarf:ok", "elf:ok"};
  mutant.new_tuples = {"dwarf:ok"};
  mutant.bytes.resize(64);
  result.corpus = {seed, mutant};
  result.minimized = {0, 1};
  result.disagreements = {{3, "truncate", 81, "strict accepted what salvage refused"}};
  result.hangs = {{1, "flip_byte", 12, "flipped byte 40"}};
  return RenderFuzzCampaignJson(result);
}

std::string ServeDoc() {
  const std::string path = TestDir() + "/mixed.dds";
  std::vector<uint8_t> bytes = SaveDatasetV2(MixedDataset());
  std::ofstream(path, std::ios::binary)
      .write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
  ServeOptions options;
  options.jobs = 1;
  auto engine = ServeEngine::Open({path}, options);
  EXPECT_TRUE(engine.ok());
  const std::string query =
      "{\"id\": 1, \"program\": \"biotop\", \"funcs\": [\"vfs_read\"],"
      " \"syscalls\": [\"openat\"]}";
  engine->HandleBatch({query, query, "{\"id\": 3, not json"});
  return engine->ReportJson();
}

// The document DiagnosticsTest.DoctorDocValidation accepts: `doctor
// --json` is built in the CLI, so there is no library producer to call.
constexpr char kDoctorDoc[] =
    "{\"schema\": \"depsurf.diagnostics.v1\", \"image\": \"img.bin\", "
    "\"health\": {\"elf\": \"clean\", \"dwarf\": \"degraded\", \"btf\": \"clean\", "
    "\"tracepoint\": \"clean\", \"syscall\": \"missing\"}, \"fatal\": false, "
    "\"entries\": [{\"severity\": \"degraded\", \"subsystem\": \"dwarf\", "
    "\"code\": \"malformed_data\", \"offset\": 452, \"message\": \"boom\"}]}";

const std::vector<LintDoc>& Docs() {
  static const std::vector<LintDoc> docs = [] {
    const BpfObject probe = LintProbe();
    const Dataset* mixed = &MixedDataset();
    const std::string report = RunReportDoc(/*mask_timings=*/true);
    auto agg = obs::MergeRunReports({{"img-a", report}, {"img-b", report}});
    EXPECT_TRUE(agg.ok());
    const size_t trace_events = obs::CountSpanNodes(SpanForest());
    auto trace = [trace_events](std::string_view json) -> Status {
      auto parsed = obs::ParseJson(json);
      if (!parsed.ok()) {
        return parsed.TakeError();
      }
      return obs::ValidateTrace(*parsed, static_cast<int64_t>(trace_events));
    };
    auto run_report = [](std::string_view json) { return obs::ValidateRunReport(json); };
    return std::vector<LintDoc>{
        {"report", report, run_report},
        {"agg", agg.ok() ? *agg : "", obs::ValidateAggReport},
        {"bench", BenchDoc(), obs::ValidateBenchReport},
        {"perf", PerfDoc(), obs::ValidatePerfCompare},
        {"trace", obs::TraceEventJson(SpanForest()), trace},
        {"trace/spans", SpanEventsOnly(obs::TraceEventJson(SpanForest())), trace},
        {"diag", kDoctorDoc, obs::ValidateDiagnosticsDoc},
        {"analysis/local", AnalysisDoc(probe, nullptr), obs::ValidateAnalysisDoc},
        {"analysis/against", AnalysisDoc(probe, mixed), obs::ValidateAnalysisDoc},
        {"remediation/local", RemediationDoc(probe, nullptr), obs::ValidateRemediationDoc},
        {"remediation/against", RemediationDoc(BuildRawOffsetProbe(), mixed),
         obs::ValidateRemediationDoc},
        {"profile", ProfileDoc(), obs::ValidateProfileDoc},
        {"fuzz", FuzzDoc(), obs::ValidateFuzzCampaignDoc},
        {"serve", ServeDoc(), obs::ValidateServeReportDoc},
    };
  }();
  return docs;
}

// A mutable location: its path as validators print it, the index taken at
// each level (into `object` or `array`, whichever the parent holds), whether
// it is an object member, and the kind of the value it holds.
struct Site {
  std::string path;
  std::vector<size_t> steps;
  bool member = false;
  JsonValue::Kind kind = JsonValue::Kind::kNull;
};

void CollectSites(const JsonValue& value, const Site& at, std::vector<Site>& out) {
  auto visit = [&](size_t index, std::string path, const JsonValue& child) {
    Site site{std::move(path), at.steps, value.kind == JsonValue::Kind::kObject, child.kind};
    site.steps.push_back(index);
    out.push_back(site);
    CollectSites(child, site, out);
  };
  if (value.kind == JsonValue::Kind::kObject) {
    for (size_t i = 0; i < value.object.size(); ++i) {
      const std::string& key = value.object[i].first;
      visit(i, at.path.empty() ? key : at.path + "." + key, value.object[i].second);
    }
  } else if (value.kind == JsonValue::Kind::kArray && !value.array.empty()) {
    visit(0, at.path + "[0]", value.array[0]);
  }
}

// The document with the value at `site` deleted (replacement == nullptr) or
// replaced.
std::string Mutate(const JsonValue& doc, const Site& site, const JsonValue* replacement) {
  JsonValue copy = doc;
  JsonValue* parent = &copy;
  for (size_t level = 0; level + 1 < site.steps.size(); ++level) {
    size_t i = site.steps[level];
    parent = parent->kind == JsonValue::Kind::kObject ? &parent->object[i].second
                                                      : &parent->array[i];
  }
  const size_t last = site.steps.back();
  const bool in_object = parent->kind == JsonValue::Kind::kObject;
  if (replacement == nullptr && in_object) {
    parent->object.erase(parent->object.begin() + static_cast<ptrdiff_t>(last));
  } else if (replacement == nullptr) {
    parent->array.erase(parent->array.begin() + static_cast<ptrdiff_t>(last));
  } else {
    (in_object ? parent->object[last].second : parent->array[last]) = *replacement;
  }
  std::string out;
  Serialize(copy, out);
  return out;
}

// Calls `each(site, column, mutated)` for every site of `doc` and every
// mutation, column 0 being the deletion.
void ForEachMutation(
    const LintDoc& doc,
    const std::function<void(const Site&, size_t, const std::string&)>& each) {
  auto parsed = obs::ParseJson(doc.json);
  ASSERT_TRUE(parsed.ok()) << doc.name << ": " << parsed.error().ToString();
  std::vector<JsonValue> replacements;
  for (const char* text : kReplacements) {
    replacements.push_back(obs::ParseJson(text).TakeValue());
  }
  std::vector<Site> sites;
  CollectSites(*parsed, Site{}, sites);
  for (const Site& site : sites) {
    each(site, 0, Mutate(*parsed, site, nullptr));
    for (size_t r = 0; r < replacements.size(); ++r) {
      each(site, r + 1, Mutate(*parsed, site, &replacements[r]));
    }
  }
}

std::string AnswerTable() {
  std::string table =
      "# lint mutation oracle (tests/lint_mutation_test.cc): one line per\n"
      "# document and path, one answer per mutation, a = accepted, r = rejected:\n"
      "# delete, then null false 0 -1 0.5 \"\" \"x\" [] {}\n";
  for (const LintDoc& doc : Docs()) {
    ForEachMutation(doc, [&](const Site& site, size_t column, const std::string& mutated) {
      if (column == 0) {
        table += doc.name + " " + site.path + " ";
      }
      table += doc.validate(mutated).ok() ? 'a' : 'r';
      if (column == std::size(kReplacements)) {
        table += '\n';
      }
    });
  }
  return table;
}

TEST(LintMutationTest, EveryDocumentLintsClean) {
  for (const LintDoc& doc : Docs()) {
    Status valid = doc.validate(doc.json);
    EXPECT_TRUE(valid.ok()) << doc.name << ": " << valid.ToString() << "\n" << doc.json;
  }
}

// Compares `actual` with the golden file `name` line by line. On a
// difference it writes `actual` to gtest's temp dir and names the file.
void ExpectGolden(const std::string& name, const std::string& actual) {
  const std::string golden = ReadText(DEPSURF_GOLDEN_DIR "/" + name);
  if (actual == golden) {
    return;
  }
  const std::string out = ::testing::TempDir() + name;
  std::ofstream(out, std::ios::binary) << actual;
  std::istringstream want(golden);
  std::istringstream got(actual);
  while (want || got) {
    std::string want_line;
    std::string got_line;
    std::getline(want, want_line);
    std::getline(got, got_line);
    EXPECT_EQ(got_line, want_line);
  }
  ADD_FAILURE() << "output differs from tests/golden/" << name << "; the computed file is in "
                << out;
}

TEST(LintMutationTest, AnswersMatchTheGolden) {
  ExpectGolden("lint_mutations.txt", AnswerTable());
}

// Every document's raw bytes, each under a "== NAME (N bytes)" line and
// followed by one newline, so N shows whether it ends in a newline of its
// own. The serve report names the test's temp dir, which is replaced by a
// fixed token.
std::string DocumentBytes() {
  std::string out;
  auto add = [&out](const std::string& name, const std::string& json) {
    out += StrFormat("== %s (%zu bytes)\n", name.c_str(), json.size());
    out += json;
    out += "\n";
  };
  for (const LintDoc& doc : Docs()) {
    std::string json = doc.json;
    for (size_t at = json.find(TestDir()); at != std::string::npos;
         at = json.find(TestDir(), at)) {
      json.replace(at, TestDir().size(), "TEMPDIR");
    }
    add(doc.name, json);
  }
  const FunctionEntry* fsync = MixedSurfaces()[0].FindFunction("vfs_fsync");
  EXPECT_NE(fsync, nullptr);
  add("surface/vfs_fsync", fsync != nullptr ? fsync->StatusJson() : "");
  add("report/unmasked", RunReportDoc(/*mask_timings=*/false));
  return out;
}

TEST(LintMutationTest, DocumentsMatchTheGolden) {
  ExpectGolden("json_documents.txt", DocumentBytes());
}

// The grammar's inputs: seeded mutants of serve request lines (the seeds of
// ServeTest.ReaderMatchesLintGrammar, with fixed paths), then hand-written
// edges of each rule.
std::vector<std::string> GrammarInputs() {
  const std::string inline_query =
      "{\"id\": 1, \"program\": \"biotop\", \"funcs\": [\"vfs_read\"],"
      " \"fields\": {\"request\": {\"rq_disk\": {\"type\": \"struct gendisk *\","
      " \"guarded\": false}}}, \"tracepoints\": [\"block_rq_issue\"],"
      " \"syscalls\": [\"openat\"]}";
  const std::vector<std::string> seeds = {
      inline_query,
      "{\"id\": 3, \"program\": \"q3\", \"funcs\": [\"vfs_fsync\", \"get_order\"]}",
      "{\"id\": 4, \"object\": \"/data/biotop.o\"}",
      "{\"id\": 5, \"syscalls\": [\"openat2\"], \"tracepoints\": [\"no_such_event\"]}",
      "{\"id\": \"bad-1\", \"object\": \"/data/missing.o\"}",
      "{\"id\": 6, not json",
      "[1, 2, 3]",
      R"({"id": -1.5e3, "x": {"a": [true, false, null, "\u00e9\n\/é"]}, "funcs": ["a\"b"]})",
      R"({"id": "s", "fields": {"request": {"rq_disk": {"type": "int",)"
      R"( "guarded": true}, "q": null}}, "lsm_hooks": [], "program": "p"})",
      " \t{\"id\":+1,\"tracepoints\":[\"a\",\"b\"]}\r ",
  };
  std::vector<std::string> inputs = JsonMutants(seeds, 1000, 2025);
  const char* const edges[] = {
      // Each escape, \u below and at 0x80, and the malformed ones.
      R"("\"")", R"("\\")", R"("\/")", R"("\b")", R"("\f")", R"("\n")", R"("\r")", R"("\t")",
      R"("\u0041")", R"("\u0000")", R"("\u007f")", R"("\u007F")", R"("\u0080")", R"("\u00e9")",
      R"("\uFFFF")", R"("\uD83D\uDE00")", R"("\x")", R"("\a")", R"("\U0041")", R"("\'")",
      // Truncated strings and escapes.
      R"(")", R"("abc)", R"("\)", R"("\u)", R"("\u12)", R"("\u123)", R"("\u12g4")",
      R"("\u 123")", R"("a\"b)",
      // The lenient number run: anything strtod consumes whole.
      "0", "-0", "1", "-1", "+1", "1e", "1e+", "1E5", "1e-5", ".5", "5.", "1.2.3", "--1", "-",
      "1-2", "1e999", "-1e999", "1e-999", "01", "0x10", "1.5e3.2", "9007199254740993",
      "123456789012345678901234567890", "-.5e-0",
      // Keywords.
      "tru", "nul", "fals", "true", "false", "null", "nulll", "True", "t", "[tru]", "truefalse",
      // \v and \f are not whitespace.
      "\v1", "1\v", "[1,\v2]", "\f1", " \t\r\n1 \t\r\n",
      // Empty, blank, and trailing bytes.
      "", " ", " \t\r\n", "1 2", "{} x", "[]]", "{}}", "\"a\"\"b\"", "null,",
      // Structure.
      "{", "[", "}", "]", ":", ",", "{\"a\"", "{\"a\":", "{\"a\" 1}", "{1:2}", "{a:1}", "[1 2]",
      "{\"a\":1,}", "[1,]", "[,1]", "{,}", "{\"a\":1 \"b\":2}", "{\"a\":1,\"a\":2}",
      "[[],{},\"\",0,true,false,null]", "{\"\":{\"\":[]}}", "{ \"a\" : [ 1 , 2 ] }",
      // Raw bytes: UTF-8, invalid UTF-8 and control bytes inside strings.
      "\"\xc3\xa9\"", "\"\xff\"", "\xff", "\"a\tb\"", "\"a\nb\"", "\"\x01\x7f\"",
  };
  for (const char* edge : edges) {
    inputs.emplace_back(edge);
  }
  inputs.push_back(std::string("1\0", 2));
  // The nesting cap: 256 levels parse, the 257th fails at its own offset,
  // also after whitespace and when the document never closes.
  for (int levels : {256, 257}) {
    inputs.push_back(std::string(levels, '[') + std::string(levels, ']'));
    std::string objects;
    for (int i = 0; i < levels; ++i) {
      objects += "{\"k\": ";
    }
    inputs.push_back(objects + "1" + std::string(levels, '}'));
    std::string spaced;
    for (int i = 0; i < levels; ++i) {
      spaced += i % 2 == 0 ? " [" : "\t{\"\":";
    }
    inputs.push_back(spaced);
  }
  inputs.push_back(std::string(300, '['));
  return inputs;
}

// One line per input: its index, then the parser's error text or the tree
// it built, unmasked, with numbers as %.17g.
std::string GrammarAnswers() {
  std::string out =
      "# JSON grammar golden (tests/lint_mutation_test.cc): one line per input,\n"
      "# its index, then obs::ParseJson's error text or the tree it built\n";
  const std::vector<std::string> inputs = GrammarInputs();
  for (size_t i = 0; i < inputs.size(); ++i) {
    Result<JsonValue> parsed = obs::ParseJson(inputs[i]);
    out += StrFormat("%zu ", i);
    if (parsed.ok()) {
      Serialize(*parsed, out);
    } else {
      out += parsed.error().message();
    }
    out += '\n';
  }
  return out;
}

// The grammar both JSON readers share: what it accepts, the tree it builds
// and every error text and offset.
TEST(JsonLintTest, GrammarMatchesTheGolden) {
  ExpectGolden("json_grammar.txt", GrammarAnswers());
}

// A rejection caused by deleting a member, or by changing the JSON kind of
// a value, names the path of what was changed.
TEST(LintMutationTest, RejectionsNameTheMember) {
  std::vector<JsonValue::Kind> kinds;
  for (const char* text : kReplacements) {
    kinds.push_back(obs::ParseJson(text)->kind);
  }
  for (const LintDoc& doc : Docs()) {
    ForEachMutation(doc, [&](const Site& site, size_t column, const std::string& mutated) {
      const bool deleted_member = column == 0 && site.member;
      const bool retyped = column != 0 && kinds[column - 1] != site.kind;
      Status valid = doc.validate(mutated);
      if ((deleted_member || retyped) && !valid.ok()) {
        EXPECT_NE(valid.error().message().find(site.path), std::string::npos)
            << doc.name << " mutation " << column << ": " << valid.error().message();
      }
    });
  }
}

// ParseProfileDoc reads the members ValidateProfileDoc vouched for without
// checking them again, so the two must agree on every mutation (and under
// ASan a validator rule that went missing shows up as a bad read).
TEST(LintMutationTest, ProfileParserAgreesWithItsValidator) {
  for (const LintDoc& doc : Docs()) {
    if (doc.name != "profile") {
      continue;
    }
    ForEachMutation(doc, [](const Site& site, size_t column, const std::string& mutated) {
      EXPECT_EQ(obs::ParseProfileDoc(mutated).ok(), obs::ValidateProfileDoc(mutated).ok())
          << site.path << " mutation " << column;
    });
  }
}

}  // namespace
}  // namespace depsurf
