// mtmsim — command-line runner for the MTM simulation framework.
//
// Runs one workload under one page-management solution and reports the
// result in human, CSV, or JSON form.
//
// Usage:
//   mtmsim --workload=gups --solution=mtm
//   mtmsim --workload=voltdb --solution=tiered-autonuma --format=csv
//   mtmsim --workload=gups --solution=mtm --two-tier --threads=16
//
// Flags (defaults in brackets):
//   --workload=NAME     gups|voltdb|cassandra|bfs|sssp|spark|
//                       pingpong (adversarial admission microbench)  [gups]
//   --solution=NAME     first-touch|hmc|vanilla-tiered-autonuma|
//                       tiered-autonuma|autotiering|hemem|mtm|
//                       thermostat+mtm-migration|autonuma+mtm-migration [mtm]
//   --scale=N           capacity/interval scale divisor              [512]
//   --threads=N         application threads                          [8]
//   --intervals=N       max profiling intervals                      [400]
//   --accesses=N        fixed work (0 = run all intervals)           [30000000]
//   --overhead=F        profiling overhead target                    [0.05]
//   --alpha=F           EMA weight (Equation 2)                      [0.5]
//   --num-scans=N       PTE scans per sample per interval            [3]
//   --two-tier          use the single-socket DRAM+PM machine        [false]
//   --spread-threads    spread threads over both sockets             [false]
//   --no-pebs           disable performance-counter assistance       [false]
//   --sync-migration    disable asynchronous page copy               [false]
//   --admission=NAME    migration admission controller               [vanilla]
//                       vanilla: admit-all (byte-identical to no stage)
//                       ppt: ping-pong throttling, exponential
//                       re-promotion backoff; bandwidth: per-interval
//                       byte budget, hottest promotions first
//   --admission-budget-mb=N  bandwidth budget per interval
//                       (0 = the promote batch N)                     [0]
//   --policy=NAME       override the solution's tiering policy with any
//                       registered one: none|mtm|mtm-feature|logistic|
//                       autonuma|vanilla-autonuma|autotiering|hemem  [default]
//   --policy-features-out=PATH  per-region training rows (JSONL):
//                       features + policy action + next-interval label [off]
//   --heatmap-out=PATH  per-interval region hotness heatmap (JSONL)   [off]
//   --seed=N            deterministic seed                           [42]
//   --fault_spec=S      chaos spec, ';'-separated clauses            [none]
//                       copy_fail:p=P | remap_fail:p=P | alloc_fail:p=P |
//                       pebs_drop:p=P | tier_derate:c=C,at=T,f=F |
//                       tier_offline:c=C,at=T   (T accepts ns/us/ms/s)
//                       e.g. "copy_fail:p=0.01;tier_offline:c=3,at=100ms"
//   --format=F          human|csv|json                               [human]
//   --record-intervals  include per-interval records (json)          [false]
//   --metrics-out=PATH  write per-interval metrics timeline (JSONL)  [off]
//   --trace-out=PATH    write Chrome trace_event JSON (Perfetto)     [off]
//   --trace-flows       add async-flow arrows linking migrate_arm to
//                       the matching finish span (needs --trace-out) [false]
//
// A malformed command line — an unknown or repeated flag (giving both
// spellings of a flag, such as --fault_spec and --fault-spec, repeats it),
// a positional argument, a value that does not parse or is out of range
// (booleans take true|false|1|0|yes|no), an unknown name — prints one line
// to stderr and exits with status 2 before anything runs (--admission,
// --policy and --fault_spec errors exit 1; a tier_* component must exist on
// the machine --two-tier selects).
#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/common/fault_injection.h"
#include "src/common/flags.h"
#include "src/common/status.h"
#include "src/common/units.h"
#include "src/core/driver.h"
#include "src/core/experiment.h"
#include "src/core/report.h"
#include "src/core/solution.h"
#include "src/migration/admission/admission.h"
#include "src/migration/features.h"
#include "src/migration/mechanism.h"
#include "src/migration/policy_registry.h"
#include "src/obs/obs.h"
#include "src/sim/machine.h"
#include "src/workloads/workload_factory.h"

namespace {

// Exit status for a malformed command line.
constexpr int kUsageError = 2;

// Joins names as "a|b|c" for error messages.
std::string JoinNames(const std::vector<std::string>& names) {
  std::string joined;
  for (const std::string& name : names) {
    joined += joined.empty() ? name : "|" + name;
  }
  return joined;
}

// Reports flag names as "flag: --a" or "flags: --a --b" after `what`, and
// returns the usage-error exit status.
int ReportFlags(const char* what, const std::vector<std::string>& names, const char* hint) {
  std::string list;
  for (const std::string& name : names) {
    list += (list.empty() ? "--" : " --") + name;
  }
  std::fprintf(stderr, "%s %s: %s (%s)\n", what, names.size() == 1 ? "flag" : "flags",
               list.c_str(), hint);
  return kUsageError;
}

// Reads --name as a decimal integer in [min, max], or `fallback` when the
// flag is absent. Prints one error line and returns nullopt otherwise.
std::optional<mtm::u64> ReadInt(const mtm::FlagSet& flags, const char* name, mtm::u64 fallback,
                                mtm::u64 min, mtm::u64 max) {
  const std::optional<std::string> text = flags.Get(name);
  if (!text) {
    return fallback;
  }
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text->c_str(), &end, 10);
  if (text->empty() || (*text)[0] < '0' || (*text)[0] > '9' || *end != '\0' ||
      errno == ERANGE || value < min || value > max) {
    const std::string want = max == ~mtm::u64{0}
                                 ? "an integer >= " + std::to_string(min)
                                 : "an integer in [" + std::to_string(min) + ", " +
                                       std::to_string(max) + "]";
    std::fprintf(stderr, "bad --%s: '%s' (want %s)\n", name, text->c_str(), want.c_str());
    return std::nullopt;
  }
  return value;
}

// Reads --name as a boolean (FlagSet::ParseBool's spellings), or
// `fallback` when the flag is absent. Prints one error line and returns
// nullopt otherwise.
std::optional<bool> ReadBool(const mtm::FlagSet& flags, const char* name, bool fallback) {
  const std::optional<std::string> text = flags.Get(name);
  if (!text) {
    return fallback;
  }
  const std::optional<bool> value = mtm::FlagSet::ParseBool(*text);
  if (!value) {
    std::fprintf(stderr, "bad --%s: '%s' (want true|false|1|0|yes|no)\n", name, text->c_str());
  }
  return value;
}

// Reads --name as a number in [min, max], or `fallback` when the
// flag is absent. Prints one error line and returns nullopt otherwise.
std::optional<double> ReadReal(const mtm::FlagSet& flags, const char* name, double fallback,
                               double min, double max) {
  const std::optional<std::string> text = flags.Get(name);
  if (!text) {
    return fallback;
  }
  char* end = nullptr;
  const double value = std::strtod(text->c_str(), &end);
  // Written so NaN fails the range test too.
  if (text->empty() || *end != '\0' || !(value >= min && value <= max)) {
    std::fprintf(stderr, "bad --%s: '%s' (want a number in [%g, %g])\n", name, text->c_str(),
                 min, max);
    return std::nullopt;
  }
  return value;
}

}  // namespace

int main(int argc, char** argv) {
  mtm::FlagSet flags(argc, argv);
  if (!flags.Repeated().empty()) {
    return ReportFlags("repeated", flags.Repeated(), "give each flag once");
  }
  // Flags with two spellings: giving both repeats the flag under two names.
  constexpr std::pair<const char*, const char*> kAliases[] = {
      {"fault_spec", "fault-spec"},
      {"metrics-out", "metrics_out"},
      {"trace-out", "trace_out"},
      {"trace-flows", "trace_flows"},
      {"policy-features-out", "policy_features_out"},
      {"heatmap-out", "heatmap_out"},
  };
  for (const auto& [name, alias] : kAliases) {
    if (flags.Get(name) && flags.Get(alias)) {
      return ReportFlags("repeated", {name, alias}, "two spellings of one flag; give one");
    }
  }
  const std::optional<bool> help = ReadBool(flags, "help", false);
  if (!help) {
    return kUsageError;
  }
  if (*help) {
    std::printf("see the header of tools/mtmsim.cc for flag documentation\n");
    return 0;
  }

  constexpr mtm::u64 kU32Max = 0xffff'ffffull;
  constexpr mtm::u64 kU64Max = ~mtm::u64{0};
  const std::optional<mtm::u64> scale = ReadInt(flags, "scale", 512, 1, kU64Max);
  const std::optional<mtm::u64> threads = ReadInt(flags, "threads", 8, 1, kU32Max);
  const std::optional<mtm::u64> intervals = ReadInt(flags, "intervals", 400, 0, kU32Max);
  const std::optional<mtm::u64> accesses = ReadInt(flags, "accesses", 30'000'000, 0, kU64Max);
  const std::optional<mtm::u64> seed = ReadInt(flags, "seed", 42, 0, kU64Max);
  const std::optional<mtm::u64> num_scans = ReadInt(flags, "num-scans", 3, 1, kU32Max);
  const std::optional<mtm::u64> budget_mb = ReadInt(flags, "admission-budget-mb", 0, 0, kU32Max);
  const std::optional<double> overhead = ReadReal(flags, "overhead", 0.05, 0.0, 1.0);
  const std::optional<double> alpha = ReadReal(flags, "alpha", 0.5, 0.0, 1.0);
  const std::optional<bool> two_tier = ReadBool(flags, "two-tier", false);
  const std::optional<bool> spread_threads = ReadBool(flags, "spread-threads", false);
  const std::optional<bool> no_pebs = ReadBool(flags, "no-pebs", false);
  const std::optional<bool> sync_migration = ReadBool(flags, "sync-migration", false);
  const std::optional<bool> record_intervals = ReadBool(flags, "record-intervals", false);
  const std::optional<bool> trace_flows = ReadBool(flags, "trace-flows", false);
  const std::optional<bool> trace_flows_alias = ReadBool(flags, "trace_flows", false);
  if (!scale || !threads || !intervals || !accesses || !seed || !num_scans || !budget_mb ||
      !overhead || !alpha || !two_tier || !spread_threads || !no_pebs || !sync_migration ||
      !record_intervals || !trace_flows || !trace_flows_alias) {
    return kUsageError;
  }

  mtm::ExperimentConfig config;
  config.sim_scale = *scale;
  config.num_threads = static_cast<mtm::u32>(*threads);
  config.num_intervals = static_cast<mtm::u32>(*intervals);
  config.target_accesses = *accesses;
  config.seed = *seed;
  config.two_tier = *two_tier;
  config.spread_threads = *spread_threads;
  config.mtm.overhead_fraction = *overhead;
  config.mtm.alpha = *alpha;
  config.mtm.num_scans = static_cast<mtm::u32>(*num_scans);
  config.mtm.use_pebs = !*no_pebs;
  if (*sync_migration) {
    config.mtm.mechanism = mtm::MechanismKind::kMmrSync;
  }
  std::string admission_name = flags.GetString("admission", "vanilla");
  if (!mtm::AdmissionKindFromName(admission_name, &config.mtm.admission)) {
    std::fprintf(stderr, "bad --admission: %s (want vanilla|ppt|bandwidth)\n",
                 admission_name.c_str());
    return 1;
  }
  config.mtm.admission_budget_bytes = mtm::MiB(*budget_mb);
  config.policy_override = flags.GetString("policy", "");
  if (!config.policy_override.empty() && !mtm::IsKnownPolicy(config.policy_override)) {
    std::fprintf(stderr, "bad --policy: %s (want %s)\n", config.policy_override.c_str(),
                 JoinNames(mtm::KnownPolicyNames()).c_str());
    return 1;
  }
  config.fault_spec = flags.GetString("fault_spec", flags.GetString("fault-spec", ""));
  if (!config.fault_spec.empty()) {
    // Validate up front for a friendly error instead of a mid-run check.
    mtm::Result<mtm::FaultInjector> parsed =
        mtm::FaultInjector::Parse(config.fault_spec, config.seed);
    if (!parsed.ok()) {
      std::fprintf(stderr, "bad --fault_spec: %s\n", parsed.status().ToString().c_str());
      return 1;
    }
    // Component numbers index the machine --two-tier selects.
    const mtm::Machine machine = config.two_tier ? mtm::Machine::TwoTier(config.sim_scale)
                                                 : mtm::Machine::OptaneFourTier(config.sim_scale);
    for (const mtm::TierFaultEvent& event : parsed.value().schedule()) {
      if (event.component >= machine.end_component()) {
        std::fprintf(stderr, "bad --fault_spec: component %u out of range (the machine has %u)\n",
                     event.component.value(), machine.num_components());
        return 1;
      }
    }
  }

  std::string workload = flags.GetString("workload", "gups");
  const std::vector<std::string> workloads = mtm::KnownWorkloadNames();
  if (std::find(workloads.begin(), workloads.end(), workload) == workloads.end()) {
    std::fprintf(stderr, "bad --workload: %s (want %s)\n", workload.c_str(),
                 JoinNames(workloads).c_str());
    return kUsageError;
  }
  std::string solution_name = flags.GetString("solution", "mtm");
  const std::optional<mtm::SolutionKind> solution = mtm::ParseSolutionKind(solution_name);
  if (!solution) {
    std::vector<std::string> solutions;
    for (mtm::SolutionKind kind : mtm::AllSolutionKinds()) {
      solutions.push_back(mtm::SolutionKindName(kind));
    }
    std::fprintf(stderr, "bad --solution: %s (want %s)\n", solution_name.c_str(),
                 JoinNames(solutions).c_str());
    return kUsageError;
  }
  std::string format_name = flags.GetString("format", "human");
  mtm::ReportFormat format = mtm::ReportFormat::kHuman;
  if (format_name == "csv") {
    format = mtm::ReportFormat::kCsv;
  } else if (format_name == "json") {
    format = mtm::ReportFormat::kJson;
  } else if (format_name != "human") {
    std::fprintf(stderr, "bad --format: %s (want human|csv|json)\n", format_name.c_str());
    return kUsageError;
  }

  mtm::RunOptions options;
  options.record_intervals = *record_intervals;
  options.evaluate_quality = options.record_intervals;

  std::string metrics_out = flags.GetString("metrics-out", flags.GetString("metrics_out", ""));
  std::string trace_out = flags.GetString("trace-out", flags.GetString("trace_out", ""));
  mtm::Observability obs;
  obs.async_flows = *trace_flows || *trace_flows_alias;
  if (!metrics_out.empty() || !trace_out.empty()) {
    options.obs = &obs;
  }
  std::string features_out =
      flags.GetString("policy-features-out", flags.GetString("policy_features_out", ""));
  std::string heatmap_out = flags.GetString("heatmap-out", flags.GetString("heatmap_out", ""));
  mtm::FeatureExporter feature_export;
  mtm::HeatmapExporter heatmap_export;
  if (!features_out.empty()) {
    options.feature_export = &feature_export;
  }
  if (!heatmap_out.empty()) {
    options.heatmap_export = &heatmap_export;
  }

  // Every flag mtmsim knows has been read by now; anything left is a typo
  // or a retired option, and running without it would silently ignore it.
  if (!flags.Unqueried().empty()) {
    return ReportFlags("unknown", flags.Unqueried(), "see the header of tools/mtmsim.cc");
  }
  if (!flags.positional().empty()) {
    std::fprintf(stderr, "unexpected argument: %s (flags take the form --name=value)\n",
                 flags.positional()[0].c_str());
    return kUsageError;
  }

  mtm::RunResult result = mtm::RunExperiment(workload, *solution, config, options);

  if (options.obs != nullptr) {
    mtm::Status status = mtm::WriteObservabilityFiles(obs, metrics_out, trace_out);
    if (!status.ok()) {
      std::fprintf(stderr, "observability export failed: %s\n", status.ToString().c_str());
      return 1;
    }
  }
  if (!features_out.empty()) {
    mtm::Status status = feature_export.WriteFile(features_out);
    if (!status.ok()) {
      std::fprintf(stderr, "feature export failed: %s\n", status.ToString().c_str());
      return 1;
    }
  }
  if (!heatmap_out.empty()) {
    mtm::Status status = heatmap_export.WriteFile(heatmap_out);
    if (!status.ok()) {
      std::fprintf(stderr, "heatmap export failed: %s\n", status.ToString().c_str());
      return 1;
    }
  }

  if (format == mtm::ReportFormat::kCsv) {
    std::printf("%s\n", mtm::CsvHeader().c_str());
  }
  std::printf("%s\n", mtm::Render(result, format).c_str());
  return 0;
}
