// End-to-end integration tests: the §8 daemon loop over every solution.
#include <gtest/gtest.h>
#include <memory>
#include <ostream>

#include "src/common/types.h"
#include "src/core/driver.h"
#include "src/core/experiment.h"
#include "src/core/solution.h"
#include "src/mem/address_space.h"
#include "src/migration/mechanism.h"
#include "src/workloads/workload.h"
#include "src/workloads/workload_factory.h"

namespace mtm {
namespace {

ExperimentConfig TinyConfig() {
  ExperimentConfig config;
  config.sim_scale = 4096;  // GUPS at 128 MiB: fast tests
  config.num_intervals = 10;
  config.seed = 7;
  return config;
}

TEST(SolutionTest, NamesRoundTrip) {
  for (SolutionKind kind :
       {SolutionKind::kFirstTouch, SolutionKind::kHmc, SolutionKind::kVanillaTieredAutoNuma,
        SolutionKind::kTieredAutoNuma, SolutionKind::kAutoTiering, SolutionKind::kHemem,
        SolutionKind::kMtm, SolutionKind::kThermostatProfilerMtmMigration,
        SolutionKind::kAutoNumaProfilerMtmMigration}) {
    EXPECT_EQ(SolutionKindFromName(SolutionKindName(kind)), kind);
  }
  EXPECT_EQ(Figure4Solutions().size(), 6u);
}

TEST(SolutionTest, TrackerRegisteredOnlyForThermostat) {
  // Only Thermostat reads exact per-page counts, so only its solution pays
  // for the tracker's arrays and per-access bump.
  const ExperimentConfig config = TinyConfig();
  for (SolutionKind kind : AllSolutionKinds()) {
    std::unique_ptr<Workload> workload =
        MakeWorkload("gups", config.sim_scale, config.num_threads, config.seed);
    Solution solution(kind, config, *workload);
    u64 vma_pages = 0;
    for (const Vma& vma : solution.address_space().vmas()) {
      vma_pages += NumPages(vma.len);
    }
    ASSERT_GT(vma_pages, 0u);
    const u64 expected = kind == SolutionKind::kThermostatProfilerMtmMigration ? vma_pages : 0;
    EXPECT_EQ(solution.tracker().TotalPages(), expected) << SolutionKindName(kind);
  }
}

TEST(DriverTest, FirstTouchNeverMigrates) {
  RunResult r = RunExperiment("gups", SolutionKind::kFirstTouch, TinyConfig());
  EXPECT_EQ(r.migration_stats.bytes_migrated, Bytes{});
  EXPECT_EQ(r.profiling_ns, SimNanos{});
  EXPECT_GT(r.app_ns, SimNanos{});
  EXPECT_GT(r.total_accesses, 0u);
}

TEST(DriverTest, MtmProfilesAndMigrates) {
  RunResult r = RunExperiment("gups", SolutionKind::kMtm, TinyConfig());
  EXPECT_GT(r.profiling_ns, SimNanos{});
  EXPECT_GT(r.migration_stats.bytes_migrated, Bytes{});
  EXPECT_GT(r.profiler_memory_bytes, Bytes{});
  EXPECT_GT(r.avg_num_regions, 0.0);
}

TEST(DriverTest, BreakdownSumsToTotal) {
  RunResult r = RunExperiment("voltdb", SolutionKind::kMtm, TinyConfig());
  EXPECT_EQ(r.total_ns(), r.app_ns + r.profiling_ns + r.migration_ns);
}

TEST(DriverTest, ProfilingWithinOverheadConstraint) {
  // §5.3: profiling stays within the 5% target (small slack for PEBS).
  RunResult r = RunExperiment("gups", SolutionKind::kMtm, TinyConfig());
  EXPECT_LT(static_cast<double>(r.profiling_ns.value()),
            0.07 * static_cast<double>(r.app_ns.value()) + 1e6);
}

TEST(DriverTest, FixedWorkStopsEarly) {
  ExperimentConfig config = TinyConfig();
  config.num_intervals = 1000;
  config.target_accesses = 500'000;
  RunResult r = RunExperiment("gups", SolutionKind::kFirstTouch, config);
  EXPECT_GE(r.total_accesses, 500'000u);
  EXPECT_LT(r.total_accesses, 1'500'000u);
}

TEST(DriverTest, IntervalRecordsCollected) {
  ExperimentConfig config = TinyConfig();
  RunOptions options;
  options.record_intervals = true;
  options.evaluate_quality = true;
  RunResult r = RunExperiment("gups", SolutionKind::kMtm, config, options);
  ASSERT_EQ(r.intervals.size(), config.num_intervals);
  // GUPS has ground truth; late-interval recall should be meaningful.
  EXPECT_GT(r.intervals.back().quality.true_hot_bytes, Bytes{});
  EXPECT_GE(r.intervals.back().quality.recall, 0.0);
  EXPECT_LE(r.intervals.back().quality.recall, 1.0);
}

TEST(DriverTest, TierAccountingCoversAllAccesses) {
  RunResult r = RunExperiment("voltdb", SolutionKind::kFirstTouch, TinyConfig());
  u64 sum = 0;
  for (u64 c : r.component_app_accesses) {
    sum += c;
  }
  // Init prefault also counts app accesses at components; totals must cover
  // at least the batch accesses.
  EXPECT_GE(sum, r.total_accesses);
}

struct SolutionCase {
  SolutionKind kind;
  const char* workload;
};

// gtest names each case by its printed parameter. Without this it prints the
// object's raw bytes, which hold padding and a string address that change from
// run to run, so the test names would too.
void PrintTo(const SolutionCase& c, std::ostream* os) {
  *os << SolutionKindName(c.kind) << " on " << c.workload;
}

class AllSolutionsTest : public ::testing::TestWithParam<SolutionCase> {};

TEST_P(AllSolutionsTest, RunsToCompletion) {
  const SolutionCase& param = GetParam();
  ExperimentConfig config = TinyConfig();
  config.num_intervals = 6;
  RunResult r = RunExperiment(param.workload, param.kind, config);
  EXPECT_GT(r.total_accesses, 0u);
  EXPECT_GT(r.app_ns, SimNanos{});
  EXPECT_EQ(r.solution, SolutionKindName(param.kind));
  EXPECT_EQ(r.workload, param.workload);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, AllSolutionsTest,
    ::testing::Values(SolutionCase{SolutionKind::kFirstTouch, "gups"},
                      SolutionCase{SolutionKind::kHmc, "gups"},
                      SolutionCase{SolutionKind::kVanillaTieredAutoNuma, "gups"},
                      SolutionCase{SolutionKind::kTieredAutoNuma, "gups"},
                      SolutionCase{SolutionKind::kAutoTiering, "gups"},
                      SolutionCase{SolutionKind::kMtm, "gups"},
                      SolutionCase{SolutionKind::kThermostatProfilerMtmMigration, "gups"},
                      SolutionCase{SolutionKind::kAutoNumaProfilerMtmMigration, "gups"},
                      SolutionCase{SolutionKind::kMtm, "voltdb"},
                      SolutionCase{SolutionKind::kMtm, "cassandra"},
                      SolutionCase{SolutionKind::kMtm, "bfs"},
                      SolutionCase{SolutionKind::kMtm, "sssp"},
                      SolutionCase{SolutionKind::kMtm, "spark"},
                      SolutionCase{SolutionKind::kTieredAutoNuma, "voltdb"},
                      SolutionCase{SolutionKind::kAutoTiering, "spark"}));

TEST(DriverTest, TwoTierHememRuns) {
  ExperimentConfig config = TinyConfig();
  config.two_tier = true;
  RunResult r = RunExperiment("gups", SolutionKind::kHemem, config);
  EXPECT_EQ(r.component_app_accesses.size(), 2u);
  EXPECT_GT(r.total_accesses, 0u);
}

TEST(DriverTest, TwoTierMtmRuns) {
  ExperimentConfig config = TinyConfig();
  config.two_tier = true;
  RunResult r = RunExperiment("gups", SolutionKind::kMtm, config);
  EXPECT_GT(r.migration_stats.bytes_migrated, Bytes{});
}

TEST(DriverTest, MtmAblationsRun) {
  ExperimentConfig config = TinyConfig();
  config.num_intervals = 5;
  config.mtm.adaptive_regions = false;
  RunResult no_amr = RunExperiment("gups", SolutionKind::kMtm, config);
  EXPECT_GT(no_amr.total_accesses, 0u);

  config = TinyConfig();
  config.num_intervals = 5;
  config.mtm.use_pebs = false;
  RunResult no_pebs = RunExperiment("gups", SolutionKind::kMtm, config);
  EXPECT_GT(no_pebs.total_accesses, 0u);

  config = TinyConfig();
  config.num_intervals = 5;
  config.mtm.mechanism = MechanismKind::kMmrSync;
  RunResult no_async = RunExperiment("gups", SolutionKind::kMtm, config);
  EXPECT_GT(no_async.total_accesses, 0u);
  EXPECT_EQ(no_async.migration_stats.sync_fallbacks, 0u);
}

TEST(DriverTest, SlowTierFirstPlacementUsed) {
  // MTM starts in the slow tier; the very first interval's fast-tier
  // accesses should be near zero under slow-tier-first.
  ExperimentConfig config = TinyConfig();
  RunOptions options;
  options.record_intervals = true;
  RunResult r = RunExperiment("gups", SolutionKind::kMtm, config, options);
  ASSERT_FALSE(r.intervals.empty());
  EXPECT_LT(r.intervals.front().fast_tier_accesses, r.total_accesses / 20);
}

TEST(DriverTest, MemoryOverheadTinyVsFootprint) {
  // Table 5: MTM metadata is a vanishing fraction of the working set.
  RunResult r = RunExperiment("gups", SolutionKind::kMtm, TinyConfig());
  EXPECT_LT(static_cast<double>(r.profiler_memory_bytes.value()),
            0.01 * static_cast<double>(r.footprint_bytes.value()));
}

// Every write-track fault must belong to an in-flight move_memory_regions
// order and force its §7.2 fallback, which disarms the order's range: a
// fault is paid once and causes exactly one fallback. A count read from
// outside the engines, so it holds whatever the engine's internals.
struct WriteTrackCase {
  const char* workload;
  const char* fault_spec;
  const char* name;
};

void PrintTo(const WriteTrackCase& c, std::ostream* os) { *os << c.name; }

class WriteTrackInvariantTest : public ::testing::TestWithParam<WriteTrackCase> {};

TEST_P(WriteTrackInvariantTest, EveryFaultForcesExactlyOneFallback) {
  const WriteTrackCase& param = GetParam();
  ExperimentConfig config;
  config.num_intervals = 400;
  // Long enough that orders cover partly resident regions (pages already on
  // the target), which only the commit-time disarm keeps untracked.
  config.target_accesses = 20'000'000;
  config.fault_spec = param.fault_spec;
  std::unique_ptr<Workload> workload =
      MakeWorkload(param.workload, config.sim_scale, config.num_threads, config.seed);
  Solution solution(SolutionKind::kMtm, config, *workload);
  RunResult r = RunSimulation(*workload, solution, config);
  ASSERT_NE(solution.migration(), nullptr);
  EXPECT_EQ(r.faults.invariant_violations, 0u) << r.faults.first_violation;
  EXPECT_GT(solution.migration()->stats().sync_fallbacks, 0u);  // the path is exercised
  EXPECT_EQ(solution.engine().write_track_faults(), solution.migration()->stats().sync_fallbacks);
}

const WriteTrackCase kWriteTrackCases[] = {
    {"gups", "", "gups"},
    {"voltdb", "", "voltdb"},
    {"pingpong", "", "pingpong"},
    {"voltdb", "copy_fail:p=0.05;tier_offline:c=2,at=100ms", "voltdb_chaos"},
};

INSTANTIATE_TEST_SUITE_P(Mtm, WriteTrackInvariantTest, ::testing::ValuesIn(kWriteTrackCases),
                         ::testing::PrintToStringParamName());

TEST(DriverTest, DeterministicAcrossRuns) {
  RunResult a = RunExperiment("cassandra", SolutionKind::kMtm, TinyConfig());
  RunResult b = RunExperiment("cassandra", SolutionKind::kMtm, TinyConfig());
  EXPECT_EQ(a.total_ns(), b.total_ns());
  EXPECT_EQ(a.total_accesses, b.total_accesses);
  EXPECT_EQ(a.migration_stats.bytes_migrated, b.migration_stats.bytes_migrated);
}

}  // namespace
}  // namespace mtm
