// perfbench_harness: one set-up and one run of a benchmark workload,
// reported as a single JSON line on stdout for perfbench/run.py.
//
//   perfbench_harness --mode=e2e --workload=gups --seed=42
//   perfbench_harness --mode=trace --workload=bfs --seed=42 --spans-out=spans.csv
//   perfbench_harness --mode=probe
//
// Every run simulates the given workload under MTM (mtm::SolutionKind::kMtm).
//
// e2e   times MakeWorkload + Solution construction (set-up) and the public
//       mtm::RunSimulation (access phase) in host CPU time, with no timer
//       inside either.
// trace replays the driver loop from outside (traced_run.h) and reports the
//       host CPU time of each layer plus the per-batch and per-interval
//       samples; the spans are written to --spans-out after the run.
// probe runs a fixed amount of integer work on 1 and on 4 threads and
//       reports the wall time of each, so thread-scaling numbers can be read
//       against the host's real parallelism.
//
// Both run modes read every layer's public counters after the run and check
// the outputs (conservation of accesses, the clock identity, the fixed-work
// target, MigrationEngine::VerifyInvariants after Flush).
#include <chrono>
#include <cstdio>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/traced_run.h"
#include "src/common/flags.h"
#include "src/common/status.h"
#include "src/common/types.h"
#include "src/core/driver.h"
#include "src/core/experiment.h"
#include "src/core/report.h"
#include "src/core/solution.h"
#include "src/sim/access_engine.h"
#include "src/sim/page_table.h"
#include "src/sim/pebs.h"
#include "src/workloads/workload_factory.h"

namespace perfbench {
namespace {

using mtm::u64;

// mtmsim's defaults: scale 512, 8 threads, 30M accesses of fixed work with
// a 400-interval cap, 1 scan thread, 1 migrate thread. run.py compares one
// row per invocation with `mtmsim --format=csv`, so a drift between these
// and mtmsim's flag defaults fails the benchmark's checks.
mtm::ExperimentConfig BenchConfig(u64 seed) {
  mtm::ExperimentConfig config;
  config.num_intervals = 400;
  config.target_accesses = 30'000'000;
  config.seed = seed;
  return config;
}

std::string Quote(const std::string& s) {
  std::string quoted = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      quoted += '\\';
    }
    quoted += c;
  }
  return quoted + "\"";
}

// Builds a JSON object one member at a time.
class JsonObject {
 public:
  void Int(const char* key, u64 v) { Raw(key, std::to_string(v)); }
  void Num(const char* key, double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    Raw(key, buf);
  }
  void Str(const std::string& key, const std::string& v) { Raw(key, Quote(v)); }
  void Raw(const std::string& key, const std::string& json) {
    body_ += body_.empty() ? "{" : ",";
    body_ += "\"" + key + "\":" + json;
  }
  std::string Close() const { return (body_.empty() ? "{" : body_) + "}"; }

 private:
  std::string body_;
};

std::string JsonArray(const std::vector<double>& values) {
  std::string out = "[";
  char buf[32];
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s%.4f", i == 0 ? "" : ",", values[i]);
    out += buf;
  }
  return out + "]";
}

// Deterministic work counters of every layer, read after the run ends.
// Two runs of one seed must report identical values.
std::string LayerCounts(const mtm::RunResult& r, mtm::Solution& solution, u64 init_accesses) {
  const mtm::MigrationStats& ms = r.migration_stats;
  JsonObject c;
  c.Int("total_accesses", r.total_accesses);
  c.Int("init_accesses", init_accesses);
  c.Int("sim.app_ns", r.app_ns.value());
  c.Int("profiling.ns", r.profiling_ns.value());
  c.Int("migration.ns", r.migration_ns.value());
  c.Int("sim.pt_generation_bumps", solution.page_table().generation());
  c.Int("sim.pt_nodes", solution.page_table().page_table_pages());
  c.Int("sim.hint_faults", solution.engine().hint_faults());
  c.Int("sim.write_track_faults", solution.engine().write_track_faults());
  c.Int("sim.pebs_samples", solution.pebs() != nullptr ? solution.pebs()->samples_taken() : 0);
  c.Int("mem.page_faults", solution.engine().page_faults());
  c.Int("profiling.memory_bytes", r.profiler_memory_bytes.value());
  c.Num("profiling.avg_regions", r.avg_num_regions);
  c.Int("migration.bytes_migrated", ms.bytes_migrated.value());
  c.Int("migration.bytes_failed", ms.bytes_failed.value());
  c.Int("migration.bytes_abandoned", ms.bytes_abandoned.value());
  c.Int("migration.sync_fallbacks", ms.sync_fallbacks);
  c.Int("migration.reclaim_demotions", ms.reclaim_demotions);
  c.Int("migration.async_copies", ms.async_copies);
  return c.Close();
}

// Output checks that do not depend on how the simulator computes its
// numbers. Returns one message per failed check.
std::vector<std::string> CheckOutputs(const mtm::RunResult& r, mtm::Solution& solution,
                                      const mtm::ExperimentConfig& config, u64 init_accesses) {
  std::vector<std::string> failures;
  // Every Apply is counted on exactly one component. The per-component
  // counts include the initialization loop; total_accesses does not.
  const u64 component_sum = std::accumulate(r.component_app_accesses.begin(),
                                            r.component_app_accesses.end(), u64{0});
  if (component_sum != r.total_accesses + init_accesses) {
    failures.push_back("sum of component_app_accesses " + std::to_string(component_sum) +
                       " != total_accesses + init accesses " +
                       std::to_string(r.total_accesses + init_accesses));
  }
  const mtm::SimNanos parts = r.app_ns + r.profiling_ns + r.migration_ns;
  if (parts != r.total_ns() || parts != solution.clock().now()) {
    failures.push_back("app + profiling + migration sim-ns != total");
  }
  if (r.total_accesses < config.target_accesses) {
    failures.push_back("total_accesses " + std::to_string(r.total_accesses) + " below target");
  }
  if (r.faults.invariant_violations != 0) {
    failures.push_back("run reported invariant violations");
  }
  if (solution.migration() != nullptr) {
    mtm::Status audit = solution.migration()->VerifyInvariants();
    if (!audit.ok()) {
      failures.push_back("VerifyInvariants after Flush: " + audit.ToString());
    }
  }
  return failures;
}

std::string JsonStrings(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    out += (i == 0 ? "" : ",") + Quote(items[i]);
  }
  return out + "]";
}

// Peak resident set of this process image, from VmHWM. getrusage's
// ru_maxrss is not used: it carries over the parent's peak across exec, so
// a small run spawned by a larger parent would report the parent's size.
double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return 0.0;
  }
  char line[256];
  unsigned long long kib = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %llu kB", &kib) == 1) {
      break;
    }
  }
  std::fclose(f);
  return static_cast<double>(kib) / 1024.0;
}

double Seconds(std::int64_t ns) { return static_cast<double>(ns) / 1e9; }

int RunE2e(const std::string& workload_name, u64 seed) {
  const mtm::ExperimentConfig config = BenchConfig(seed);
  const std::int64_t setup_start = CpuNowNs();
  std::unique_ptr<mtm::Workload> workload =
      mtm::MakeWorkload(workload_name, config.sim_scale, config.num_threads, config.seed);
  mtm::Solution solution(mtm::SolutionKind::kMtm, config, *workload);
  const std::int64_t run_start = CpuNowNs();
  mtm::RunResult result = mtm::RunSimulation(*workload, solution, config);
  const std::int64_t run_end = CpuNowNs();

  const u64 init_accesses = InitAccesses(solution.address_space());
  JsonObject out;
  out.Str("mode", "e2e");
  out.Str("csv", mtm::CsvRow(result));
  out.Num("setup_cpu_s", Seconds(run_start - setup_start));
  out.Num("run_cpu_s", Seconds(run_end - run_start));
  const double peak_rss_mb = PeakRssMb();
  out.Num("peak_rss_mb", peak_rss_mb);
  out.Int("sim_total_ns", result.total_ns().value());
  out.Raw("counts", LayerCounts(result, solution, init_accesses));
  std::vector<std::string> failures = CheckOutputs(result, solution, config, init_accesses);
  if (peak_rss_mb <= 0.0) {
    failures.push_back("cannot read VmHWM from /proc/self/status");
  }
  out.Raw("failures", JsonStrings(failures));
  std::printf("%s\n", out.Close().c_str());
  return 0;
}

int RunTrace(const std::string& workload_name, u64 seed, const std::string& spans_out) {
  const mtm::ExperimentConfig config = BenchConfig(seed);
  const std::int64_t make_start = CpuNowNs();
  std::unique_ptr<mtm::Workload> workload =
      mtm::MakeWorkload(workload_name, config.sim_scale, config.num_threads, config.seed);
  const std::int64_t make_end = CpuNowNs();
  BuildTimedWorkload timed(*workload);
  mtm::Solution solution(mtm::SolutionKind::kMtm, config, timed);
  const std::int64_t setup_end = CpuNowNs();
  TracedResult traced = RunTraced(timed, solution, config);
  const mtm::RunResult& result = traced.result;

  const std::vector<std::int64_t> total = traced.trace.TotalNs();
  const std::vector<std::int64_t> self = traced.trace.SelfNs();
  auto layer_s = [&](Layer l) { return Seconds(total[static_cast<std::size_t>(l)]); };
  const std::int64_t run_ns = total[static_cast<std::size_t>(Layer::kRun)];
  std::int64_t layer_self_ns = 0;
  for (std::size_t l = 0; l < self.size(); ++l) {
    if (!IsCoreLayer(static_cast<Layer>(l))) {
      layer_self_ns += self[l];
    }
  }
  std::vector<double> batch_us;
  std::vector<double> interval_ms;
  batch_us.reserve(traced.trace.spans().size() / 3);
  for (const Span& s : traced.trace.spans()) {
    if (s.layer == Layer::kBatch) {
      batch_us.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    } else if (s.layer == Layer::kInterval) {
      interval_ms.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
    }
  }

  const u64 init_accesses = InitAccesses(solution.address_space());
  std::vector<std::string> failures = CheckOutputs(result, solution, config, init_accesses);
  const double unattributed_pct =
      100.0 * static_cast<double>(run_ns - layer_self_ns) / static_cast<double>(run_ns);
  if (unattributed_pct > 5.0) {
    failures.push_back("layer self times leave " + std::to_string(unattributed_pct) +
                       "% of the traced run unattributed (limit 5%)");
  }

  JsonObject layers;
  layers.Num("workloads.build_cpu_s",
             Seconds(make_end - make_start) + Seconds(timed.build_ns()));
  layers.Num("core.solution_build_cpu_s", Seconds(setup_end - make_end - timed.build_ns()));
  layers.Num("sim.prefault_cpu_s", layer_s(Layer::kPrefault));
  layers.Num("workloads.next_batch_cpu_s", layer_s(Layer::kNextBatch));
  layers.Num("sim.apply_cpu_s", layer_s(Layer::kApply));
  layers.Num("profiling.scan_tick_cpu_s", layer_s(Layer::kScanTick));
  layers.Num("profiling.interval_end_cpu_s", layer_s(Layer::kIntervalEnd));
  layers.Num("migration.decide_cpu_s", layer_s(Layer::kDecide));
  layers.Num("migration.submit_cpu_s", layer_s(Layer::kSubmit));
  layers.Num("migration.poll_cpu_s", layer_s(Layer::kPoll));
  layers.Num("migration.flush_cpu_s", layer_s(Layer::kFlush));
  layers.Num("core.unattributed_pct", unattributed_pct);

  JsonObject out;
  out.Str("mode", "trace");
  out.Str("csv", mtm::CsvRow(result));
  out.Num("run_cpu_s", Seconds(run_ns));
  out.Int("sim_total_ns", result.total_ns().value());
  out.Int("migration_orders", traced.migration_orders);
  out.Raw("layers", layers.Close());
  out.Raw("batch_cpu_us", JsonArray(batch_us));
  out.Raw("interval_cpu_ms", JsonArray(interval_ms));
  out.Raw("counts", LayerCounts(result, solution, init_accesses));
  out.Raw("failures", JsonStrings(failures));
  if (!spans_out.empty() && !traced.trace.WriteCsv(spans_out)) {
    std::fprintf(stderr, "cannot write %s\n", spans_out.c_str());
    return 1;
  }
  std::printf("%s\n", out.Close().c_str());
  return 0;
}

int RunProbe() {
  constexpr u64 kWork = u64{1} << 26;  // xorshift steps, split evenly over threads
  auto wall_ms = [](unsigned threads) {
    std::vector<u64> sinks(threads, 0);
    const auto start = std::chrono::steady_clock::now();
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads; ++t) {
      pool.emplace_back([&sinks, t, threads] {
        u64 x = 0x9e3779b97f4a7c15ULL + t;
        for (u64 i = 0; i < kWork / threads; ++i) {
          x ^= x << 13;
          x ^= x >> 7;
          x ^= x << 17;
        }
        sinks[t] = x;
      });
    }
    for (std::thread& th : pool) {
      th.join();
    }
    const auto end = std::chrono::steady_clock::now();
    if (std::accumulate(sinks.begin(), sinks.end(), u64{0}) == 42) {
      std::fprintf(stderr, "unlikely\n");  // keeps the loops observable
    }
    return std::chrono::duration<double, std::milli>(end - start).count();
  };
  const double one = wall_ms(1);
  const double four = wall_ms(4);
  JsonObject out;
  out.Str("mode", "probe");
  out.Int("hardware_concurrency", std::thread::hardware_concurrency());
  out.Num("wall_ms_1_thread", one);
  out.Num("wall_ms_4_threads", four);
  out.Num("speedup_4_over_1", one / four);
  std::printf("%s\n", out.Close().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  mtm::FlagSet flags(argc, argv);
  const std::string mode = flags.GetString("mode", "e2e");
  if (mode == "probe") {
    return perfbench::RunProbe();
  }
  const std::string workload = flags.GetString("workload", "gups");
  const mtm::u64 seed = flags.GetU64("seed", 42);
  if (mode == "e2e") {
    return perfbench::RunE2e(workload, seed);
  }
  if (mode == "trace") {
    return perfbench::RunTrace(workload, seed, flags.GetString("spans-out", ""));
  }
  std::fprintf(stderr, "unknown --mode=%s (want e2e|trace|probe)\n", mode.c_str());
  return 2;
}
