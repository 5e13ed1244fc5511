// Tests for the Table 2 workload generators.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <vector>

#include "src/common/rng.h"
#include "src/common/types.h"
#include "src/common/units.h"
#include "src/mem/address_space.h"
#include "src/profiling/oracle.h"
#include "src/workloads/cassandra.h"
#include "src/workloads/graph.h"
#include "src/workloads/gups.h"
#include "src/workloads/pingpong.h"
#include "src/workloads/spark.h"
#include "src/workloads/voltdb.h"
#include "src/workloads/workload.h"
#include "src/workloads/workload_factory.h"

namespace mtm {
namespace {

Workload::Params SmallParams(Bytes footprint) {
  Workload::Params p;
  p.footprint_bytes = footprint;
  p.num_threads = 8;
  p.seed = 42;
  return p;
}

// Runs a batch and checks every address lies inside some VMA.
void CheckAddressesInVmas(Workload& w, AddressSpace& as, u32 n = 4096) {
  std::vector<MemAccess> buf(n);
  ASSERT_EQ(w.NextBatch(buf.data(), n), n);
  for (const MemAccess& a : buf) {
    EXPECT_NE(as.FindVma(a.addr), nullptr) << std::hex << a.addr;
    EXPECT_LT(a.thread, w.params().num_threads);
  }
}

double MeasuredWriteFraction(Workload& w, u32 n = 65536) {
  std::vector<MemAccess> buf(n);
  w.NextBatch(buf.data(), n);
  u32 writes = 0;
  for (const MemAccess& a : buf) {
    writes += a.is_write;
  }
  return static_cast<double>(writes) / n;
}

TEST(GupsTest, BuildAndAddresses) {
  GupsWorkload gups(SmallParams(MiB(64)));
  AddressSpace as;
  gups.Build(as);
  EXPECT_EQ(as.vmas().size(), 3u);  // table, index, info — Figure 6's C/A/B
  CheckAddressesInVmas(gups, as);
}

TEST(GupsTest, ReadWriteOneToOne) {
  GupsWorkload gups(SmallParams(MiB(64)));
  AddressSpace as;
  gups.Build(as);
  // Updates are read+write pairs; A/B object reads pull the ratio slightly
  // below 0.5 writes.
  double wf = MeasuredWriteFraction(gups);
  EXPECT_GT(wf, 0.35);
  EXPECT_LT(wf, 0.5);
}

TEST(GupsTest, HotSetReceivesMostAccesses) {
  GupsWorkload::Options options;
  GupsWorkload gups(SmallParams(MiB(64)), options);
  AddressSpace as;
  gups.Build(as);
  std::vector<HotRange> truth = gups.TrueHotRanges();
  ASSERT_EQ(truth.size(), 3u);
  std::vector<MemAccess> buf(65536);
  gups.NextBatch(buf.data(), buf.size());
  u64 hot = 0;
  for (const MemAccess& a : buf) {
    for (const HotRange& r : truth) {
      if (a.addr >= r.start && a.addr < r.end()) {
        ++hot;
        break;
      }
    }
  }
  // 80% of table updates + A/B traffic land in declared-hot ranges.
  EXPECT_GT(static_cast<double>(hot) / buf.size(), 0.75);
}

TEST(GupsTest, HotSetDriftsAcrossPhases) {
  GupsWorkload::Options options;
  options.phase_ops = 10000;
  GupsWorkload gups(SmallParams(MiB(64)), options);
  AddressSpace as;
  gups.Build(as);
  HotRange before = gups.object_c();
  std::vector<MemAccess> buf(4096);
  for (int i = 0; i < 20; ++i) {
    gups.NextBatch(buf.data(), buf.size());
  }
  HotRange after = gups.object_c();
  EXPECT_NE(before.start, after.start);
  EXPECT_EQ(before.len, after.len);
}

TEST(GupsTest, StaticHotSetWithoutPhases) {
  GupsWorkload::Options options;
  options.phase_ops = 0;
  GupsWorkload gups(SmallParams(MiB(64)), options);
  AddressSpace as;
  gups.Build(as);
  HotRange before = gups.object_c();
  std::vector<MemAccess> buf(8192);
  for (int i = 0; i < 10; ++i) {
    gups.NextBatch(buf.data(), buf.size());
  }
  EXPECT_EQ(before.start, gups.object_c().start);
}

TEST(VoltDbTest, BuildAndAddresses) {
  VoltDbWorkload voltdb(SmallParams(MiB(64)));
  AddressSpace as;
  voltdb.Build(as);
  EXPECT_EQ(as.vmas().size(), 4u);  // tables, index, order log, history
  // History grows at runtime rather than during initialization.
  EXPECT_FALSE(as.vma(3).prefault);
  CheckAddressesInVmas(voltdb, as);
}

TEST(VoltDbTest, WarehouseSkew) {
  VoltDbWorkload::Options options;
  options.num_warehouses = 64;
  VoltDbWorkload voltdb(SmallParams(MiB(64)), options);
  AddressSpace as;
  voltdb.Build(as);
  const Vma& tables = as.vma(0);
  std::vector<MemAccess> buf(65536);
  voltdb.NextBatch(buf.data(), buf.size());
  // Count accesses per warehouse block; zipf should concentrate them.
  u64 wh_bytes = (HugeAlignDown(tables.len) / 64).value();
  std::map<u64, u64> per_wh;
  for (const MemAccess& a : buf) {
    if (tables.Contains(a.addr)) {
      per_wh[(a.addr - tables.start) / wh_bytes]++;
    }
  }
  u64 max_count = 0;
  u64 total = 0;
  for (auto& [wh, count] : per_wh) {
    max_count = std::max(max_count, count);
    total += count;
  }
  EXPECT_GT(max_count, total / 64 * 3);  // hottest warehouse >> average
}

TEST(VoltDbTest, ReadWriteMix) {
  VoltDbWorkload voltdb(SmallParams(MiB(64)));
  AddressSpace as;
  voltdb.Build(as);
  double wf = MeasuredWriteFraction(voltdb);
  EXPECT_GT(wf, 0.35);
  EXPECT_LT(wf, 0.6);
}

TEST(CassandraTest, BuildAndAddresses) {
  CassandraWorkload cassandra(SmallParams(MiB(64)));
  AddressSpace as;
  cassandra.Build(as);
  EXPECT_EQ(as.vmas().size(), 3u);  // rows, memtable, commit log
  CheckAddressesInVmas(cassandra, as);
}

TEST(CassandraTest, UpdateHeavyMix) {
  CassandraWorkload cassandra(SmallParams(MiB(64)));
  AddressSpace as;
  cassandra.Build(as);
  double wf = MeasuredWriteFraction(cassandra);
  EXPECT_GT(wf, 0.3);  // YCSB-A: ~50% updates plus memtable/commitlog writes
  EXPECT_LT(wf, 0.65);
}

TEST(CassandraTest, ZipfKeysCluster) {
  CassandraWorkload cassandra(SmallParams(MiB(64)));
  AddressSpace as;
  cassandra.Build(as);
  const Vma& rows = as.vma(0);
  std::vector<MemAccess> buf(65536);
  cassandra.NextBatch(buf.data(), buf.size());
  std::map<u64, u64> per_block;  // 4 MiB blocks
  u64 total = 0;
  for (const MemAccess& a : buf) {
    if (rows.Contains(a.addr)) {
      per_block[(a.addr - rows.start) / MiB(4).value()]++;
      ++total;
    }
  }
  u64 max_count = 0;
  for (auto& [b, count] : per_block) {
    max_count = std::max(max_count, count);
  }
  u64 blocks = rows.len / MiB(4);
  EXPECT_GT(max_count, total / blocks * 2);
}

TEST(CsrGraphTest, StructureValid) {
  CsrGraph graph(10000, 15.5, 0.6, 7);
  EXPECT_EQ(graph.num_vertices(), 10000u);
  EXPECT_NEAR(static_cast<double>(graph.num_edges()), 155000.0, 155000.0 * 0.02);
  u64 prev = 0;
  for (u64 v = 0; v < graph.num_vertices(); ++v) {
    EXPECT_GE(graph.OffsetOf(v), prev);
    prev = graph.OffsetOf(v);
    EXPECT_EQ(graph.OffsetOf(v) + graph.DegreeOf(v), graph.OffsetOf(v + 1));
  }
  for (u64 i = 0; i < std::min<u64>(graph.num_edges(), 10000); ++i) {
    EXPECT_LT(graph.Edge(i), graph.num_vertices());
  }
}

// The CSR graph as built before its arrays were byte-packed: u64 offsets,
// u32 edge targets, the same rng stream. The packed graph must match it
// entry for entry.
struct UnpackedCsr {
  std::vector<u64> offsets;
  std::vector<u32> edges;

  UnpackedCsr(u64 num_vertices, double avg_degree, double skew_theta, u64 seed) {
    const u64 target_edges = static_cast<u64>(static_cast<double>(num_vertices) * avg_degree);
    std::vector<u32> degree(num_vertices, 0);
    double norm = 0.0;
    for (u64 r = 0; r < num_vertices; ++r) {
      norm += 1.0 / std::pow(static_cast<double>(r + 1), skew_theta);
    }
    u64 assigned = 0;
    for (u64 r = 0; r < num_vertices; ++r) {
      double share = (1.0 / std::pow(static_cast<double>(r + 1), skew_theta)) / norm;
      u32 d = static_cast<u32>(share * static_cast<double>(target_edges));
      degree[r] += d;
      assigned += d;
    }
    Rng rng(seed);
    while (assigned < target_edges) {
      ++degree[rng.NextBounded(num_vertices)];
      ++assigned;
    }
    offsets.resize(num_vertices + 1);
    offsets[0] = 0;
    for (u64 v = 0; v < num_vertices; ++v) {
      offsets[v + 1] = offsets[v] + degree[v];
    }
    edges.resize(offsets[num_vertices]);
    for (u64 i = 0; i < edges.size(); ++i) {
      edges[i] = static_cast<u32>(rng.NextBounded(num_vertices));
    }
  }
};

class PackedCsrTest : public ::testing::TestWithParam<u64> {};

TEST_P(PackedCsrTest, MatchesUnpackedReference) {
  // Vertex counts 2 and 200 pack edge targets in 1 byte, 60,000 in 2 and
  // 70,000 in 3; offsets take 1, 2, 3 and 3 bytes.
  const u64 n = GetParam();
  const CsrGraph graph(n, 4.0, 0.6, 11);
  const UnpackedCsr reference(n, 4.0, 0.6, 11);
  ASSERT_EQ(graph.num_vertices(), n);
  ASSERT_EQ(graph.num_edges(), reference.edges.size());
  for (u64 v = 0; v < n; ++v) {
    ASSERT_EQ(graph.OffsetOf(v), reference.offsets[v]) << "vertex " << v;
    ASSERT_EQ(graph.DegreeOf(v), reference.offsets[v + 1] - reference.offsets[v])
        << "vertex " << v;
  }
  ASSERT_EQ(graph.OffsetOf(n), reference.offsets[n]);
  for (u64 i = 0; i < reference.edges.size(); ++i) {
    ASSERT_EQ(graph.Edge(i), reference.edges[i]) << "edge " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(EdgeWidths, PackedCsrTest,
                         ::testing::Values(u64{2}, u64{200}, u64{60'000}, u64{70'000}));

TEST(CsrGraphTest, DegreeSkewHubsAtLowIds) {
  CsrGraph graph(10000, 15.5, 0.6, 7);
  u64 head_degree = 0;
  for (u64 v = 0; v < 100; ++v) {
    head_degree += graph.DegreeOf(v);
  }
  u64 tail_degree = 0;
  for (u64 v = 9000; v < 9100; ++v) {
    tail_degree += graph.DegreeOf(v);
  }
  EXPECT_GT(head_degree, tail_degree * 5);
}

TEST(GraphWorkloadTest, BfsEmitsValidReadOnlyAccesses) {
  GraphWorkload::Options options;
  options.algorithm = GraphWorkload::Algorithm::kBfs;
  GraphWorkload bfs(SmallParams(MiB(64)), options);
  AddressSpace as;
  bfs.Build(as);
  EXPECT_EQ(as.vmas().size(), 3u);  // offsets, edges, state
  std::vector<MemAccess> buf(8192);
  ASSERT_EQ(bfs.NextBatch(buf.data(), buf.size()), buf.size());
  for (const MemAccess& a : buf) {
    EXPECT_NE(as.FindVma(a.addr), nullptr);
    EXPECT_FALSE(a.is_write);  // Table 2: read-only
  }
  EXPECT_DOUBLE_EQ(bfs.read_fraction(), 1.0);
}

TEST(GraphWorkloadTest, SsspRuns) {
  GraphWorkload::Options options;
  options.algorithm = GraphWorkload::Algorithm::kSssp;
  GraphWorkload sssp(SmallParams(MiB(64)), options);
  AddressSpace as;
  sssp.Build(as);
  EXPECT_EQ(sssp.name(), "sssp");
  std::vector<MemAccess> buf(8192);
  for (int i = 0; i < 10; ++i) {
    ASSERT_EQ(sssp.NextBatch(buf.data(), buf.size()), buf.size());
  }
}

TEST(GraphWorkloadTest, EdgeArrayDominatesTraffic) {
  GraphWorkload::Options options;
  GraphWorkload bfs(SmallParams(MiB(64)), options);
  AddressSpace as;
  bfs.Build(as);
  const Vma* edges = nullptr;
  for (const Vma& v : as.vmas()) {
    if (v.name == "graph.edges") {
      edges = &v;
    }
  }
  ASSERT_NE(edges, nullptr);
  std::vector<MemAccess> buf(65536);
  bfs.NextBatch(buf.data(), buf.size());
  u64 edge_hits = 0;
  for (const MemAccess& a : buf) {
    edge_hits += edges->Contains(a.addr);
  }
  EXPECT_GT(edge_hits, buf.size() / 12);
}

TEST(SparkTest, PhasesAlternate) {
  SparkTeraSortWorkload spark(SmallParams(MiB(32)));
  AddressSpace as;
  spark.Build(as);
  ASSERT_EQ(as.vmas().size(), 3u);  // input, shuffle, output
  const Vma& input = as.vma(0);
  const Vma& shuffle = as.vma(1);
  const Vma& output = as.vma(2);
  // Run long enough to cross map -> reduce -> map.
  std::vector<MemAccess> buf(8192);
  u64 input_hits = 0;
  u64 shuffle_hits = 0;
  u64 output_hits = 0;
  for (int i = 0; i < 200; ++i) {
    spark.NextBatch(buf.data(), buf.size());
    for (const MemAccess& a : buf) {
      input_hits += input.Contains(a.addr);
      shuffle_hits += shuffle.Contains(a.addr);
      output_hits += output.Contains(a.addr);
    }
  }
  EXPECT_GT(input_hits, 0u);
  EXPECT_GT(shuffle_hits, 0u);
  EXPECT_GT(output_hits, 0u);
}

TEST(SparkTest, ReadWriteMix) {
  SparkTeraSortWorkload spark(SmallParams(MiB(32)));
  AddressSpace as;
  spark.Build(as);
  double wf = MeasuredWriteFraction(spark);
  EXPECT_GT(wf, 0.25);
  EXPECT_LT(wf, 0.65);
}

TEST(PingPongTest, BuildAndAddresses) {
  PingPongWorkload pp(SmallParams(MiB(64)));
  AddressSpace as;
  pp.Build(as);
  EXPECT_EQ(as.vmas().size(), 1u);  // one table; the two sets live inside it
  CheckAddressesInVmas(pp, as);
}

TEST(PingPongTest, ReadWriteOneToOne) {
  PingPongWorkload pp(SmallParams(MiB(64)));
  AddressSpace as;
  pp.Build(as);
  EXPECT_DOUBLE_EQ(MeasuredWriteFraction(pp), 0.5);  // pure read+write updates
}

TEST(PingPongTest, ActiveSetReceivesMostAccesses) {
  PingPongWorkload::Options options;
  options.flip_ops = 0;  // hold set A hot for the whole measurement
  PingPongWorkload pp(SmallParams(MiB(64)), options);
  AddressSpace as;
  pp.Build(as);
  std::vector<HotRange> truth = pp.TrueHotRanges();
  ASSERT_EQ(truth.size(), 1u);
  EXPECT_EQ(truth[0].start, pp.set_a().start);
  std::vector<MemAccess> buf(65536);
  pp.NextBatch(buf.data(), buf.size());
  u64 active = 0;
  u64 inactive = 0;
  for (const MemAccess& a : buf) {
    active += a.addr >= truth[0].start && a.addr < truth[0].end();
    inactive += a.addr >= pp.set_b().start && a.addr < pp.set_b().end();
  }
  // ~90% of updates hit the active set; the cold set only sees its share of
  // the uniform background (hot_fraction of the remaining 10%).
  EXPECT_GT(static_cast<double>(active) / buf.size(), 0.8);
  EXPECT_LT(static_cast<double>(inactive) / buf.size(), 0.05);
}

TEST(PingPongTest, HotSetFlipsEachEpoch) {
  PingPongWorkload::Options options;
  options.flip_ops = 1000;
  PingPongWorkload pp(SmallParams(MiB(64)), options);
  AddressSpace as;
  pp.Build(as);
  ASSERT_EQ(pp.TrueHotRanges()[0].start, pp.set_a().start);
  std::vector<MemAccess> buf(2048);  // 1024 updates = one epoch boundary
  pp.NextBatch(buf.data(), buf.size());
  EXPECT_EQ(pp.epoch(), 1u);
  EXPECT_EQ(pp.TrueHotRanges()[0].start, pp.set_b().start);
  pp.NextBatch(buf.data(), buf.size());
  EXPECT_EQ(pp.epoch(), 2u);
  EXPECT_EQ(pp.TrueHotRanges()[0].start, pp.set_a().start);
}

TEST(PingPongTest, SetsAreDisjoint) {
  PingPongWorkload pp(SmallParams(MiB(64)));
  AddressSpace as;
  pp.Build(as);
  EXPECT_LT(pp.set_a().end(), pp.set_b().start);
  EXPECT_EQ(pp.set_a().len, pp.set_b().len);
}

TEST(WorkloadFactoryTest, PingPongRegistered) {
  auto w = MakeWorkload("pingpong", /*sim_scale=*/4096, 8, 1);
  ASSERT_NE(w, nullptr);
  EXPECT_EQ(w->name(), "pingpong");
  EXPECT_EQ(w->params().footprint_bytes, GiB(400) / 4096);
  AddressSpace as;
  w->Build(as);
  std::vector<MemAccess> buf(1024);
  EXPECT_EQ(w->NextBatch(buf.data(), 1024), 1024u);
}

TEST(WorkloadFactoryTest, AllNamesBuild) {
  for (const std::string& name : AllWorkloadNames()) {
    auto w = MakeWorkload(name, /*sim_scale=*/4096, 8, 1);
    ASSERT_NE(w, nullptr) << name;
    EXPECT_EQ(w->name(), name);
    AddressSpace as;
    w->Build(as);
    EXPECT_GT(as.total_bytes(), Bytes{});
    std::vector<MemAccess> buf(1024);
    EXPECT_EQ(w->NextBatch(buf.data(), 1024), 1024u);
  }
}

TEST(WorkloadFactoryTest, FootprintsMatchTable2Scaled) {
  const u64 scale = 4096;
  EXPECT_EQ(MakeWorkload("gups", scale, 8, 1)->params().footprint_bytes, GiB(512) / scale);
  EXPECT_EQ(MakeWorkload("voltdb", scale, 8, 1)->params().footprint_bytes, GiB(300) / scale);
  EXPECT_EQ(MakeWorkload("cassandra", scale, 8, 1)->params().footprint_bytes,
            GiB(400) / scale);
  EXPECT_EQ(MakeWorkload("bfs", scale, 8, 1)->params().footprint_bytes, GiB(525) / scale);
  EXPECT_EQ(MakeWorkload("spark", scale, 8, 1)->params().footprint_bytes, GiB(350) / scale);
}

TEST(WorkloadDeterminismTest, SameSeedSameStream) {
  auto a = MakeWorkload("voltdb", 4096, 8, 99);
  auto b = MakeWorkload("voltdb", 4096, 8, 99);
  AddressSpace as_a;
  AddressSpace as_b;
  a->Build(as_a);
  b->Build(as_b);
  std::vector<MemAccess> buf_a(4096);
  std::vector<MemAccess> buf_b(4096);
  a->NextBatch(buf_a.data(), 4096);
  b->NextBatch(buf_b.data(), 4096);
  for (u32 i = 0; i < 4096; ++i) {
    EXPECT_EQ(buf_a[i].addr, buf_b[i].addr);
    EXPECT_EQ(buf_a[i].is_write, buf_b[i].is_write);
  }
}

}  // namespace
}  // namespace mtm
