// End-to-end golden and determinism tests. A seeded gups/mtm run must
// reproduce the metrics JSONL, Chrome trace and report JSON checked into
// tests/golden/ byte for byte, seeded bfs/sssp runs must reproduce their
// CSV report rows, and a seeded chaos run must reproduce itself.
//
// The goldens were captured before the sharded PTE scan and the staged
// migration copy existed; the suite names record which stage each test
// anchors.
#include <gtest/gtest.h>

#include <fstream>
#include <ostream>
#include <sstream>
#include <string>

#include "src/core/driver.h"
#include "src/core/experiment.h"
#include "src/core/report.h"
#include "src/core/solution.h"
#include "src/migration/admission/admission.h"
#include "src/migration/migration_engine.h"
#include "src/obs/obs.h"

namespace mtm {
namespace {

struct RunArtifacts {
  std::string metrics_jsonl;
  std::string trace_json;
  std::string report_json;
  MigrationStats migration;
};

// Mirrors the CI observability smoke invocation of mtmsim:
//   mtmsim --workload=gups --solution=mtm --intervals=12 --accesses=3000000
RunArtifacts RunGups(const std::string& fault_spec = "") {
  ExperimentConfig config;
  config.num_intervals = 12;
  config.target_accesses = 3'000'000;
  config.fault_spec = fault_spec;
  Observability obs;
  RunOptions options;
  options.obs = &obs;
  RunResult result = RunExperiment("gups", SolutionKind::kMtm, config, options);

  RunArtifacts artifacts;
  std::ostringstream metrics;
  obs.timeline.WriteJsonl(metrics, obs.metrics);
  artifacts.metrics_jsonl = metrics.str();
  std::ostringstream trace;
  obs.trace.WriteChromeTrace(trace);
  artifacts.trace_json = trace.str();
  // mtmsim prints the report with a trailing newline; the goldens carry it.
  artifacts.report_json = Render(result, ReportFormat::kJson) + "\n";
  artifacts.migration = result.migration_stats;
  return artifacts;
}

std::string ReadGolden(const std::string& name) {
  std::ifstream in(std::string(MTM_TESTS_GOLDEN_DIR) + "/" + name, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing golden file: " << name;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void ExpectSameCopyStats(const MigrationStats& a, const MigrationStats& b) {
  EXPECT_EQ(a.async_copies, b.async_copies);
  EXPECT_EQ(a.copy_shards, b.copy_shards);
  EXPECT_EQ(a.async_copy_bytes, b.async_copy_bytes);
  EXPECT_EQ(a.fallback_copy_bytes, b.fallback_copy_bytes);
  EXPECT_EQ(a.copy_checksum, b.copy_checksum);
  EXPECT_EQ(a.sync_fallbacks, b.sync_fallbacks);
}

TEST(ParallelScanTest, MatchesPreParallelSerialGolden) {
  RunArtifacts artifacts = RunGups();
  EXPECT_EQ(artifacts.metrics_jsonl, ReadGolden("scan_gups_metrics.jsonl"));
  EXPECT_EQ(artifacts.trace_json, ReadGolden("scan_gups_trace.json"));
  EXPECT_EQ(artifacts.report_json, ReadGolden("scan_gups_report.json"));
}

TEST(ParallelMigrationTest, SerialRunMatchesPreAsyncGoldens) {
  // Staging real copies must not move a byte of output. The run has to
  // exercise both copy paths, staged commits and §7.2 write-fault
  // fallbacks, or the golden match proves nothing about them.
  RunArtifacts artifacts = RunGups();
  EXPECT_GT(artifacts.migration.async_copies, 0u);
  EXPECT_GT(artifacts.migration.sync_fallbacks, 0u);
  EXPECT_GT(artifacts.migration.copy_shards, 0u);
  EXPECT_NE(artifacts.migration.copy_checksum, 0u);
  EXPECT_EQ(artifacts.metrics_jsonl, ReadGolden("scan_gups_metrics.jsonl"));
  EXPECT_EQ(artifacts.trace_json, ReadGolden("scan_gups_trace.json"));
  EXPECT_EQ(artifacts.report_json, ReadGolden("scan_gups_report.json"));
}

struct GraphCase {
  const char* workload;
  SolutionKind solution;
  const char* golden;
};

// Names each case by its golden; gtest would otherwise print raw bytes.
void PrintTo(const GraphCase& c, std::ostream* os) { *os << c.golden; }

class GraphGoldenTest : public ::testing::TestWithParam<GraphCase> {};

TEST_P(GraphGoldenTest, CsvRowMatchesGolden) {
  // Pins the CSR graph's construction and traversal: any change to the
  // generated graph or to the emitted access stream moves these rows.
  const GraphCase& c = GetParam();
  ExperimentConfig config;
  config.num_intervals = 400;
  config.target_accesses = 2'000'000;
  RunOptions options;
  RunResult result = RunExperiment(c.workload, c.solution, config, options);
  EXPECT_EQ(Render(result, ReportFormat::kCsv) + "\n", ReadGolden(c.golden));
}

INSTANTIATE_TEST_SUITE_P(
    Graph, GraphGoldenTest,
    ::testing::Values(GraphCase{"bfs", SolutionKind::kMtm, "graph_bfs_mtm.csv"},
                      GraphCase{"bfs", SolutionKind::kHemem, "graph_bfs_hemem.csv"},
                      GraphCase{"sssp", SolutionKind::kMtm, "graph_sssp_mtm.csv"},
                      GraphCase{"sssp", SolutionKind::kHemem, "graph_sssp_hemem.csv"}));

TEST(ChaosDeterminismTest, GupsChaosRunReproducesItself) {
  // Injected copy/remap/alloc faults drive every discard path of the staged
  // copy (rollbacks, retries, abandons); a second run in the same process
  // must still produce the same bytes.
  const std::string spec = "copy_fail:p=0.02;remap_fail:p=0.01;alloc_fail:p=0.01";
  RunArtifacts first = RunGups(spec);
  EXPECT_GT(first.migration.rollbacks, 0u);
  EXPECT_GT(first.migration.async_copies, 0u);
  RunArtifacts second = RunGups(spec);
  EXPECT_EQ(first.metrics_jsonl, second.metrics_jsonl);
  EXPECT_EQ(first.trace_json, second.trace_json);
  EXPECT_EQ(first.report_json, second.report_json);
  ExpectSameCopyStats(first.migration, second.migration);
}

TEST(ChaosDeterminismTest, PingpongPptChaosReproducesItself) {
  // The adversarial combination: a ping-ponging workload under the ppt
  // admission controller with injected faults, so staged commits, §7.2
  // fallbacks and retries after transient allocation failures interleave.
  auto run = [] {
    ExperimentConfig config;
    config.num_intervals = 10;
    config.target_accesses = 1'500'000;
    config.mtm.admission = AdmissionKind::kPpt;
    config.fault_spec = "copy_fail:p=0.02;alloc_fail:p=0.01";
    RunOptions options;
    return RunExperiment("pingpong", SolutionKind::kMtm, config, options);
  };
  RunResult first = run();
  EXPECT_GT(first.migration_stats.async_copies, 0u);
  EXPECT_GT(first.migration_stats.sync_fallbacks, 0u);
  EXPECT_GT(first.migration_stats.retries, 0u);
  RunResult second = run();
  EXPECT_EQ(Render(first, ReportFormat::kJson), Render(second, ReportFormat::kJson));
  EXPECT_EQ(Render(first, ReportFormat::kCsv), Render(second, ReportFormat::kCsv));
  ExpectSameCopyStats(first.migration_stats, second.migration_stats);
}

}  // namespace
}  // namespace mtm
