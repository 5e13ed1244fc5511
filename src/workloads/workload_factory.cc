#include "src/workloads/workload_factory.h"

#include "src/common/logging.h"
#include "src/workloads/cassandra.h"
#include "src/workloads/gups.h"
#include "src/workloads/graph.h"
#include "src/workloads/pingpong.h"
#include "src/workloads/spark.h"
#include "src/workloads/voltdb.h"

namespace mtm {

std::unique_ptr<Workload> MakeWorkload(const std::string& name, u64 sim_scale,
                                       u32 num_threads, u64 seed) {
  MTM_CHECK_GT(sim_scale, 0ull);
  Workload::Params params;
  params.num_threads = num_threads;
  params.seed = seed;
  if (name == "gups") {
    params.footprint_bytes = kGupsFootprint / sim_scale;
    GupsWorkload::Options options;
    // Hot set drifts every ~8M updates so profilers face pattern variance.
    options.phase_ops = 8'000'000;
    return std::make_unique<GupsWorkload>(params, options);
  }
  if (name == "voltdb") {
    params.footprint_bytes = kVoltDbFootprint / sim_scale;
    return std::make_unique<VoltDbWorkload>(params);
  }
  if (name == "cassandra") {
    params.footprint_bytes = kCassandraFootprint / sim_scale;
    return std::make_unique<CassandraWorkload>(params);
  }
  if (name == "bfs" || name == "sssp") {
    params.footprint_bytes = kGraphFootprint / sim_scale;
    GraphWorkload::Options options;
    options.algorithm =
        name == "bfs" ? GraphWorkload::Algorithm::kBfs : GraphWorkload::Algorithm::kSssp;
    return std::make_unique<GraphWorkload>(params, options);
  }
  if (name == "spark") {
    params.footprint_bytes = kSparkFootprint / sim_scale;
    return std::make_unique<SparkTeraSortWorkload>(params);
  }
  if (name == "pingpong") {
    params.footprint_bytes = kPingPongFootprint / sim_scale;
    return std::make_unique<PingPongWorkload>(params);
  }
  MTM_CHECK(false) << "unknown workload: " << name;
  return nullptr;
}

std::vector<std::string> AllWorkloadNames() {
  return {"gups", "voltdb", "cassandra", "bfs", "sssp", "spark"};
}

std::vector<std::string> KnownWorkloadNames() {
  std::vector<std::string> names = AllWorkloadNames();
  names.push_back("pingpong");
  return names;
}

}  // namespace mtm
