// Unit tests for tools/mtm_analyze: each pass has at least one true
// positive and one rejected near-miss in the fixture tree under
// tools/mtm_analyze/testdata/, plus a golden --json report and a --fix
// before/after golden with an idempotence round-trip.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "tools/mtm_analyze/mtm_analyze.h"

namespace mtm::analyze {
namespace {

std::string TestdataRoot() { return MTM_ANALYZE_TESTDATA; }

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::vector<std::string> FixtureSeeds() {
  return {
      "proj/liba/unused_inc.cc", "proj/liba/transitive.cc", "proj/liba/upward.cc",
      "proj/liba/cycle_x.h",     "proj/det/sink_loop.cc",   "proj/det/mutate_loop.cc",
      "proj/det/clock.cc",       "proj/det/sim_clock.cc",   "proj/det/seed.cc",
      "proj/det/seeded_ok.cc",   "proj/det/suppressed.cc",  "proj/det/nojust.cc",
      "proj/err/discard.cc",     "proj/err/unwrap.cc",      "proj/err/rawret.cc",
      "proj/conc/tasks.cc",      "proj/conc/named.cc",      "proj/conc/serial.cc",
      "proj/conc/delta.cc",      "proj/conc/capture.cc",    "proj/conc/capture_ok.cc",
      "proj/conc/xtu_impl.cc",   "proj/conc/xtu_caller.cc", "proj/conc/ambig_one.cc",
      "proj/conc/ambig_two.cc",  "proj/conc/ambig_caller.cc", "proj/lock/guarded.cc",
      "proj/lock/guarded_ok.cc", "proj/lock/order_a.cc",    "proj/lock/order_b.cc",
      "proj/lock/order_ok.cc",
  };
}

class AnalyzeFixtureTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::string error;
    ASSERT_TRUE(ParseConfig(ReadFileOrDie(TestdataRoot() + "/layers.toml"), &config_, &error))
        << error;
    project_ = Project::Load(TestdataRoot(), FixtureSeeds());
    findings_ = Analyze(project_, config_);
  }

  bool HasFinding(const std::string& check, const std::string& file) const {
    for (const Finding& f : findings_) {
      if (f.check == check && f.file == file) {
        return true;
      }
    }
    return false;
  }

  bool AnyFindingIn(const std::string& file) const {
    for (const Finding& f : findings_) {
      if (f.file == file) {
        return true;
      }
    }
    return false;
  }

  // Lines of every `check` finding in `file`, in report order.
  std::vector<int> FindingLines(const std::string& check, const std::string& file) const {
    std::vector<int> lines;
    for (const Finding& f : findings_) {
      if (f.check == check && f.file == file) {
        lines.push_back(f.line);
      }
    }
    return lines;
  }

  Config config_;
  Project project_;
  std::vector<Finding> findings_;
};

// ------------------------------------------------------ include-graph pass

TEST_F(AnalyzeFixtureTest, FlagsUnusedDirectInclude) {
  EXPECT_TRUE(HasFinding("unused-include", "proj/liba/unused_inc.cc"));
}

TEST_F(AnalyzeFixtureTest, DoesNotFlagUsedInclude) {
  // unused_inc.cc's only finding is the unused extra.h; the used base.h
  // include stays silent.
  int count = 0;
  for (const Finding& f : findings_) {
    if (f.file == "proj/liba/unused_inc.cc") {
      ++count;
      EXPECT_EQ(f.check, "unused-include");
      EXPECT_NE(f.message.find("extra.h"), std::string::npos);
    }
  }
  EXPECT_EQ(count, 1);
}

TEST_F(AnalyzeFixtureTest, FlagsTransitiveIncludeReliance) {
  EXPECT_TRUE(HasFinding("transitive-include", "proj/liba/transitive.cc"));
}

TEST_F(AnalyzeFixtureTest, DoesNotFlagDirectUseAsUnusedOrTransitive) {
  // transitive.cc uses ExtraThing directly: extra.h is neither unused nor
  // a transitive-reliance target.
  for (const Finding& f : findings_) {
    if (f.file == "proj/liba/transitive.cc") {
      EXPECT_EQ(f.check, "transitive-include");
      EXPECT_NE(f.message.find("BaseThing"), std::string::npos);
    }
  }
  EXPECT_FALSE(HasFinding("unused-include", "proj/liba/transitive.cc"));
}

TEST_F(AnalyzeFixtureTest, FlagsIncludeCycleOnce) {
  int cycles = 0;
  for (const Finding& f : findings_) {
    if (f.check == "include-cycle") {
      ++cycles;
      EXPECT_NE(f.message.find("cycle_x.h"), std::string::npos);
      EXPECT_NE(f.message.find("cycle_y.h"), std::string::npos);
    }
  }
  EXPECT_EQ(cycles, 1);
}

// ----------------------------------------------------------- layering pass

TEST_F(AnalyzeFixtureTest, FlagsUpwardLayerEdge) {
  EXPECT_TRUE(HasFinding("layering", "proj/liba/upward.cc"));
}

TEST_F(AnalyzeFixtureTest, AllowsDeclaredDownwardEdge) {
  EXPECT_FALSE(AnyFindingIn("proj/libb/top.h"));
}

// -------------------------------------------------------- determinism pass

TEST_F(AnalyzeFixtureTest, FlagsUnorderedIterationReachingSink) {
  EXPECT_TRUE(HasFinding("unordered-iteration", "proj/det/sink_loop.cc"));
}

TEST_F(AnalyzeFixtureTest, DoesNotFlagMutateOnlyUnorderedLoop) {
  EXPECT_FALSE(AnyFindingIn("proj/det/mutate_loop.cc"));
}

TEST_F(AnalyzeFixtureTest, FlagsWallClockOutsideSanctionedSites) {
  EXPECT_TRUE(HasFinding("wall-clock", "proj/det/clock.cc"));
}

TEST_F(AnalyzeFixtureTest, AllowsSanctionedWallClockSite) {
  EXPECT_FALSE(AnyFindingIn("proj/det/sim_clock.cc"));
}

TEST_F(AnalyzeFixtureTest, FlagsRandomDevice) {
  EXPECT_TRUE(HasFinding("raw-random", "proj/det/seed.cc"));
}

TEST_F(AnalyzeFixtureTest, DoesNotFlagRandSubstrings) {
  EXPECT_FALSE(AnyFindingIn("proj/det/seeded_ok.cc"));
}

// --------------------------------------------------- error-discipline pass

TEST_F(AnalyzeFixtureTest, FlagsDiscardedStatusCall) {
  // FireAndForget drops SubmitOrder's Status; the ok()-checked call in
  // SubmitAndCount stays silent.
  EXPECT_EQ(FindingLines("discarded-status", "proj/err/discard.cc"), (std::vector<int>{9}));
}

TEST_F(AnalyzeFixtureTest, FlagsUncheckedResultUnwraps) {
  // Both the never-checked variable unwrap and the temporary unwrap are
  // flagged; CheckedUnwrap's ok()-dominated unwrap is not.
  EXPECT_EQ(FindingLines("unchecked-result-unwrap", "proj/err/unwrap.cc"),
            (std::vector<int>{10, 13}));
}

TEST_F(AnalyzeFixtureTest, FlagsRawErrorReturnOnFallibleVerb) {
  // Only bool TryReserve trips: the Status variant, Trylock (verb is a
  // prefix fragment only), and IsReady (no verb) are near-misses.
  EXPECT_EQ(FindingLines("raw-error-return", "proj/err/rawret.cc"), (std::vector<int>{9}));
  int total = 0;
  for (const Finding& f : findings_) {
    if (f.file == "proj/err/rawret.cc") {
      ++total;
    }
  }
  EXPECT_EQ(total, 1);
}

// -------------------------------------------------------- concurrency pass

TEST_F(AnalyzeFixtureTest, FlagsTaskWritesToGlobalAndMember) {
  // The RunShards lambda writes a namespace-scope counter and a member.
  EXPECT_EQ(FindingLines("task-static-write", "proj/conc/tasks.cc"),
            (std::vector<int>{17, 31}));
  EXPECT_EQ(FindingLines("task-member-write", "proj/conc/tasks.cc"),
            (std::vector<int>{13, 18}));
}

TEST_F(AnalyzeFixtureTest, FlagsMemberWriteReachedThroughCallGraph) {
  // Line 13 is Worker::BumpHits, reached only via RunIndirect's lambda.
  std::vector<int> lines = FindingLines("task-member-write", "proj/conc/tasks.cc");
  EXPECT_NE(std::find(lines.begin(), lines.end(), 13), lines.end());
}

TEST_F(AnalyzeFixtureTest, FlagsStaticLocalInTaskEntry) {
  // ShardEntry is seeded by task_entries; its mutable static local at
  // line 31 is shared across shards.
  std::vector<int> lines = FindingLines("task-static-write", "proj/conc/tasks.cc");
  EXPECT_NE(std::find(lines.begin(), lines.end(), 31), lines.end());
}

TEST_F(AnalyzeFixtureTest, FlagsNamedLambdaPassedByIdentifier) {
  EXPECT_EQ(FindingLines("task-static-write", "proj/conc/named.cc"), (std::vector<int>{11}));
}

TEST_F(AnalyzeFixtureTest, DoesNotFlagSerialMutation) {
  EXPECT_FALSE(AnyFindingIn("proj/conc/serial.cc"));
}

TEST_F(AnalyzeFixtureTest, AllowlistedMergePointStopsTheWalk) {
  EXPECT_FALSE(AnyFindingIn("proj/conc/delta.cc"));
}

TEST_F(AnalyzeFixtureTest, FlagsCaptureWrites) {
  // Line 14 writes an enclosing local through a by-reference capture;
  // line 19 writes a pointee through a pointer captured by value.
  EXPECT_EQ(FindingLines("task-capture-write", "proj/conc/capture.cc"),
            (std::vector<int>{14, 19}));
}

TEST_F(AnalyzeFixtureTest, DoesNotFlagShardLocalCapturePatterns) {
  // Shard-indexed subscripts, lambda-local scratch, and mutable by-value
  // copies are all private to a shard.
  EXPECT_FALSE(AnyFindingIn("proj/conc/capture_ok.cc"));
}

TEST_F(AnalyzeFixtureTest, WalksAcrossTranslationUnits) {
  // xtu_caller.cc's lambda calls CrossBump, whose body (and the flagged
  // global write) lives in a different TU.
  EXPECT_EQ(FindingLines("task-static-write", "proj/conc/xtu_impl.cc"), (std::vector<int>{9}));
  EXPECT_FALSE(AnyFindingIn("proj/conc/xtu_caller.cc"));
}

TEST_F(AnalyzeFixtureTest, AmbiguousCallWalksEveryCandidate) {
  // AmbigBump(shard) matches one-argument definitions in two TUs: both
  // bodies are walked (conservative multi-target edge), while the
  // two-argument overload at ambig_two.cc:13 is arity-filtered out.
  EXPECT_EQ(FindingLines("task-static-write", "proj/conc/ambig_one.cc"), (std::vector<int>{8}));
  EXPECT_EQ(FindingLines("task-static-write", "proj/conc/ambig_two.cc"),
            (std::vector<int>{11}));
}

// ---------------------------------------------------- lock-discipline pass

TEST_F(AnalyzeFixtureTest, FlagsUnguardedMemberWrite) {
  // The shard lambda writes the guarded_by(mu_) member with no lock held;
  // the guarded-member interplay keeps task-member-write out of the way.
  EXPECT_EQ(FindingLines("unguarded-member-write", "proj/lock/guarded.cc"),
            (std::vector<int>{10}));
  EXPECT_FALSE(HasFinding("task-member-write", "proj/lock/guarded.cc"));
}

TEST_F(AnalyzeFixtureTest, LockScopeAndRequiresAnnotationAreClean) {
  EXPECT_FALSE(AnyFindingIn("proj/lock/guarded_ok.cc"));
}

TEST_F(AnalyzeFixtureTest, FlagsInconsistentLockOrderAcrossTUs) {
  // LockBoth holds mu_a_ while the cross-TU call to AcquireB takes mu_b_;
  // ReverseOrder nests them the other way round — one finding per
  // direction, at each direction's first acquisition site.
  EXPECT_TRUE(HasFinding("lock-order", "proj/lock/order_a.cc"));
  EXPECT_TRUE(HasFinding("lock-order", "proj/lock/order_b.cc"));
}

TEST_F(AnalyzeFixtureTest, SequentialAndScopedLockImposeNoOrder) {
  EXPECT_FALSE(AnyFindingIn("proj/lock/order_ok.cc"));
}

// ------------------------------------------------------------------ stats

TEST_F(AnalyzeFixtureTest, StatsCountFilesAndCallEdges) {
  AnalyzeStats stats;
  Analyze(project_, config_, &stats);
  EXPECT_EQ(stats.files_checked, project_.files().size());
  EXPECT_GT(stats.edges.resolved_edges, 0u);
  // The AmbigBump call is the fixture tree's multi-target edge.
  EXPECT_GT(stats.edges.multi_target_edges, 0u);
  EXPECT_EQ(stats.findings_by_check.count("task-capture-write"), 1u);
  std::string text = FormatStats(stats);
  EXPECT_NE(text.find("call edges:"), std::string::npos);
  EXPECT_NE(text.find("files analyzed:"), std::string::npos);
}

// ----------------------------------------------------------- suppressions

TEST_F(AnalyzeFixtureTest, JustifiedSuppressionSilencesFinding) {
  EXPECT_FALSE(AnyFindingIn("proj/det/suppressed.cc"));
}

TEST_F(AnalyzeFixtureTest, UnjustifiedSuppressionIsReported) {
  EXPECT_TRUE(HasFinding("suppression", "proj/det/nojust.cc"));
  EXPECT_FALSE(HasFinding("unordered-iteration", "proj/det/nojust.cc"));
}

// ----------------------------------------------------------------- report

TEST_F(AnalyzeFixtureTest, JsonReportMatchesGolden) {
  EXPECT_EQ(FormatJson(findings_, project_.files().size()),
            ReadFileOrDie(TestdataRoot() + "/golden_report.json"));
}

TEST_F(AnalyzeFixtureTest, TextReportUsesLintFormat) {
  std::string text = FormatText(findings_);
  EXPECT_NE(text.find("proj/liba/upward.cc:2: [layering]"), std::string::npos);
}

// ------------------------------------------------------------- fix engine

class FixProjTest : public ::testing::Test {
 protected:
  void SetUp() override {
    project_ = Project::Load(TestdataRoot(), {"fixproj/order.cc"});
    config_.check_system_includes = true;
    findings_ = RunIncludeGraphPass(project_, config_);
  }

  Config config_;
  Project project_;
  std::vector<Finding> findings_;
};

TEST_F(FixProjTest, DeadSystemIncludeIsOptInAndSpecific) {
  // <vector> is dead, <cstring> is alive through strlen; the check only
  // exists behind check_system_includes.
  int dead = 0;
  for (const Finding& f : findings_) {
    if (f.check == "dead-system-include") {
      ++dead;
      EXPECT_EQ(f.subject, "vector");
    }
  }
  EXPECT_EQ(dead, 1);

  Config off;
  for (const Finding& f : RunIncludeGraphPass(project_, off)) {
    EXPECT_NE(f.check, "dead-system-include");
  }
}

TEST_F(FixProjTest, FixOutputMatchesGolden) {
  // One pass repairs all three defects: dead <vector> deleted, <cstring>
  // hoisted above the quoted block, base.h promoted to a direct include.
  std::map<std::string, std::string> fixed = ComputeFixedContents(project_, findings_);
  ASSERT_EQ(fixed.size(), 1u);
  ASSERT_EQ(fixed.begin()->first, "fixproj/order.cc");
  EXPECT_EQ(fixed.begin()->second, ReadFileOrDie(TestdataRoot() + "/fixproj/order.cc.golden"));
}

TEST_F(FixProjTest, FixIsIdempotent) {
  // Applying the fixed contents and re-running the analysis+fixer yields
  // no further edits: --fix twice == --fix once.
  std::map<std::string, std::string> fixed = ComputeFixedContents(project_, findings_);
  ASSERT_EQ(fixed.size(), 1u);

  namespace fs = std::filesystem;
  fs::path tmp = fs::path(::testing::TempDir()) / "mtm_analyze_fixproj";
  fs::create_directories(tmp / "fixproj");
  for (const char* header : {"fixproj/order.h", "fixproj/dep.h", "fixproj/base.h"}) {
    fs::copy_file(fs::path(TestdataRoot()) / header, tmp / header,
                  fs::copy_options::overwrite_existing);
  }
  std::ofstream out(tmp / "fixproj/order.cc", std::ios::binary);
  out << fixed.begin()->second;
  out.close();

  Project reloaded = Project::Load(tmp.string(), {"fixproj/order.cc"});
  std::vector<Finding> refindings = RunIncludeGraphPass(reloaded, config_);
  EXPECT_TRUE(ComputeFixedContents(reloaded, refindings).empty());
}

// ----------------------------------------------------- function model unit

SourceFile ParseSnippet(const std::string& text) {
  SourceFile f;
  f.path = "snippet.cc";
  f.raw = SplitLines(text);
  f.code = SplitLines(StripCommentsAndStrings(text));
  BuildFunctionModel(&f);
  return f;
}

TEST(FunctionModelTest, QualifiesMembersAndRecordsReturnTypes) {
  SourceFile f = ParseSnippet("Status Engine::Submit(Order o) { return OkStatus(); }\n");
  ASSERT_EQ(f.functions.size(), 1u);
  EXPECT_EQ(f.functions[0].qualified, "Engine::Submit");
  EXPECT_EQ(f.functions[0].return_type, "Status");
  EXPECT_TRUE(f.functions[0].has_body);
}

TEST(FunctionModelTest, AttributesLambdaToCallbackCallee) {
  SourceFile f = ParseSnippet(
      "void Engine::Run() {\n"
      "  ParallelFor(2, [&](int s) { hits_ += s; });\n"
      "}\n");
  ASSERT_EQ(f.functions.size(), 2u);
  const FunctionInfo& lambda = f.functions[1];
  EXPECT_TRUE(lambda.is_lambda);
  EXPECT_EQ(lambda.callback_of, "ParallelFor");
  ASSERT_EQ(lambda.writes.size(), 1u);
  EXPECT_EQ(lambda.writes[0].name, "hits_");
  EXPECT_EQ(lambda.writes[0].kind, WriteSite::Kind::kMember);
}

TEST(FunctionModelTest, RecordsDiscardedWholeStatementCallsOnly) {
  SourceFile f = ParseSnippet(
      "void F() {\n"
      "  Submit(o);\n"
      "  Status s = Submit(o);\n"
      "  if (Submit(o).ok()) {\n"
      "  }\n"
      "}\n");
  ASSERT_EQ(f.functions.size(), 1u);
  ASSERT_EQ(f.functions[0].discarded_calls.size(), 1u);
  EXPECT_EQ(f.functions[0].discarded_calls[0].name, "Submit");
  EXPECT_EQ(f.functions[0].discarded_calls[0].line, 2);
}

TEST(FunctionModelTest, ReplaysResultFlowEvents) {
  SourceFile f = ParseSnippet(
      "int F() {\n"
      "  Result<int> r = Look(1);\n"
      "  if (!r.ok()) { return 0; }\n"
      "  return r.value();\n"
      "}\n");
  ASSERT_EQ(f.functions.size(), 1u);
  std::vector<VarEvent::Kind> kinds;
  for (const VarEvent& ev : f.functions[0].var_events) {
    kinds.push_back(ev.kind);
  }
  EXPECT_EQ(kinds, (std::vector<VarEvent::Kind>{VarEvent::Kind::kResultDecl,
                                                VarEvent::Kind::kOkCheck,
                                                VarEvent::Kind::kUnwrap}));
}

TEST(FunctionModelTest, RecordsMutableStaticLocalButNotConst) {
  SourceFile f = ParseSnippet(
      "void F() {\n"
      "  static int counter = 0;\n"
      "  static const int kLimit = 8;\n"
      "  counter += kLimit;\n"
      "}\n");
  ASSERT_EQ(f.functions.size(), 1u);
  int static_decls = 0;
  for (const WriteSite& w : f.functions[0].writes) {
    if (w.kind == WriteSite::Kind::kStaticLocalDecl) {
      ++static_decls;
      EXPECT_EQ(w.name, "counter");
    }
  }
  EXPECT_EQ(static_decls, 1);
}

TEST(FunctionModelTest, RecordsLambdaCapturesParamsAndLocals) {
  SourceFile f = ParseSnippet(
      "void F() {\n"
      "  int total = 0;\n"
      "  ParallelFor(2, [&total, this](int s) { total += s; });\n"
      "}\n");
  ASSERT_EQ(f.functions.size(), 2u);
  const FunctionInfo& lambda = f.functions[1];
  EXPECT_EQ(lambda.capture_refs, std::vector<std::string>{"total"});
  EXPECT_TRUE(lambda.captures_this);
  EXPECT_EQ(lambda.locals.count("s"), 1u);
  EXPECT_EQ(lambda.locals.count("total"), 0u);
  EXPECT_EQ(f.functions[0].locals.count("total"), 1u);
}

TEST(FunctionModelTest, RecordsLockGuardScopes) {
  SourceFile f = ParseSnippet(
      "void Engine::Tick() {\n"
      "  std::lock_guard<std::mutex> lock(mu_);\n"
      "  count_ += 1;\n"
      "}\n");
  ASSERT_EQ(f.functions.size(), 1u);
  ASSERT_EQ(f.functions[0].locks.size(), 1u);
  EXPECT_EQ(f.functions[0].locks[0].mutex, "mu_");
  EXPECT_EQ(f.functions[0].locks[0].line, 2);
  EXPECT_GE(f.functions[0].locks[0].end_line, 3);
}

// ------------------------------------------------------------- lexer unit

TEST(StripTest, RemovesCommentsAndStringsPreservingLines) {
  std::string stripped = StripCommentsAndStrings("a /* x\n y */ b // tail\n\"s\" 'c'\n");
  std::vector<std::string> lines = SplitLines(stripped);
  ASSERT_GE(lines.size(), 3u);
  EXPECT_EQ(lines[0], "a ");
  EXPECT_EQ(lines[1], " b ");
  EXPECT_EQ(lines[2], "\"\" ''");
}

TEST(StripTest, DigitSeparatorIsNotACharLiteral) {
  std::string stripped = StripCommentsAndStrings("u64 x = 1'000'000; int y = 2;");
  EXPECT_NE(stripped.find("y = 2"), std::string::npos);
}

TEST(StripTest, RawStringWithCustomDelimiterKeepsLineNumbers) {
  // R"x(...)x" must close on )x", not on the first )" inside the body, and
  // the newline inside the literal must survive so lines stay aligned.
  std::string stripped =
      StripCommentsAndStrings("auto s = R\"x(one \"two\" )\"\nthree)x\";\nint z = 3;\n");
  std::vector<std::string> lines = SplitLines(stripped);
  ASSERT_GE(lines.size(), 3u);
  EXPECT_EQ(lines[2], "int z = 3;");
  EXPECT_EQ(stripped.find("two"), std::string::npos);
  EXPECT_EQ(stripped.find("three"), std::string::npos);
}

TEST(StripTest, BackslashContinuedStringKeepsLineNumbers) {
  std::string stripped = StripCommentsAndStrings("const char* s = \"ab\\\ncd\";\nint q = 7;\n");
  std::vector<std::string> lines = SplitLines(stripped);
  ASSERT_GE(lines.size(), 3u);
  EXPECT_EQ(lines[2], "int q = 7;");
  EXPECT_EQ(stripped.find("cd"), std::string::npos);
}

TEST(StripTest, BackslashContinuedLineCommentKeepsLineNumbers) {
  std::string stripped = StripCommentsAndStrings("// first \\\nstill comment\nint w = 9;\n");
  std::vector<std::string> lines = SplitLines(stripped);
  ASSERT_GE(lines.size(), 3u);
  EXPECT_EQ(lines[2], "int w = 9;");
  EXPECT_EQ(stripped.find("still"), std::string::npos);
}

TEST(ContainsWordTest, RespectsBoundaries) {
  EXPECT_TRUE(ContainsWord("x = rand();", "rand"));
  EXPECT_FALSE(ContainsWord("x = randomize();", "rand"));
  EXPECT_FALSE(ContainsWord("x = my_rand;", "rand"));
}

TEST(ConfigTest, RejectsMalformedInput) {
  Config config;
  std::string error;
  EXPECT_FALSE(ParseConfig("[layers]\nbroken line\n", &config, &error));
  EXPECT_NE(error.find("expected key = value"), std::string::npos);
}

TEST(ConfigTest, ParsesLayersAndAllowlists) {
  Config config;
  std::string error;
  ASSERT_TRUE(ParseConfig("[layers]\n\"a\" = [\"b\", \"c\"]\n\n[determinism]\n"
                          "wallclock_allow = [\"x.cc\"]\nrandom_allow = []\n",
                          &config, &error))
      << error;
  ASSERT_EQ(config.layers.count("a"), 1u);
  EXPECT_EQ(config.layers["a"], (std::vector<std::string>{"b", "c"}));
  EXPECT_EQ(config.wallclock_allow, std::vector<std::string>{"x.cc"});
  EXPECT_TRUE(config.random_allow.empty());
}

TEST(ConfigTest, ParsesErrorDisciplineAndConcurrencySections) {
  Config config;
  std::string error;
  ASSERT_TRUE(ParseConfig("[error_discipline]\nstatus_paths = [\"src/migration\"]\n"
                          "fallible_verbs = [\"Try\"]\n\n[concurrency]\n"
                          "task_callbacks = [\"ParallelFor\"]\ntask_entries = []\n"
                          "mutation_allow = [\"ShardDelta::*\"]\n",
                          &config, &error))
      << error;
  EXPECT_EQ(config.status_paths, std::vector<std::string>{"src/migration"});
  EXPECT_EQ(config.fallible_verbs, std::vector<std::string>{"Try"});
  EXPECT_EQ(config.task_callbacks, std::vector<std::string>{"ParallelFor"});
  EXPECT_TRUE(config.task_entries.empty());
  EXPECT_EQ(config.mutation_allow, std::vector<std::string>{"ShardDelta::*"});
}

TEST(CompileCommandsTest, ExtractsFileEntries) {
  std::vector<std::string> files = ParseCompileCommands(
      "[{\"directory\": \"/b\", \"command\": \"g++ -c a.cc\", \"file\": \"/r/a.cc\"},\n"
      " {\"file\": \"/r/b.cc\", \"output\": \"b.o\"}]\n");
  EXPECT_EQ(files, (std::vector<std::string>{"/r/a.cc", "/r/b.cc"}));
}

TEST(CompileCommandsTest, ExtractsIncludeDirs) {
  CompileDb db = ParseCompileDb(
      "[{\"directory\": \"/b\", \"command\": \"g++ -I/r/include -isystem /r/sys -I /r/alt "
      "-c a.cc\", \"file\": \"/r/a.cc\"}]\n");
  EXPECT_EQ(db.files, std::vector<std::string>{"/r/a.cc"});
  EXPECT_EQ(db.include_dirs, (std::vector<std::string>{"/r/include", "/r/sys", "/r/alt"}));
}

// ------------------------------------------------------------ known checks

TEST(KnownChecksTest, CoversEveryCheckAndPassName) {
  // mtm_lint's unknown-suppression check hardcodes this list; its
  // suppression-targets sync check parses passes.cc to keep them aligned.
  for (const char* check :
       {"unused-include", "transitive-include", "include-cycle", "dead-system-include",
        "layering", "unordered-iteration", "wall-clock", "raw-random", "discarded-status",
        "raw-error-return", "unchecked-result-unwrap", "task-member-write", "task-static-write",
        "task-capture-write", "unguarded-member-write", "lock-order", "include-graph",
        "determinism", "error-discipline", "concurrency", "lock-discipline", "suppression"}) {
    EXPECT_EQ(KnownChecks().count(check), 1u) << check;
  }
  EXPECT_EQ(KnownChecks().size(), 22u);
}

}  // namespace
}  // namespace mtm::analyze
