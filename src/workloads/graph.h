// Graph analytics workloads: BFS and SSSP over a synthetic skewed graph
// (Table 2: parallel traversal/shortest-path on a 0.9B-node, 14B-edge graph,
// 525 GB, read-only).
//
// A real CSR graph is generated (power-law-ish degrees via zipf-sampled
// endpoints, RMAT-like skew) and real BFS / Bellman-Ford-style SSSP rounds
// are executed over it; the traversal's loads of the offset, edge, and
// per-vertex state arrays are emitted as simulated memory accesses at the
// arrays' simulated addresses. Hot structure emerges naturally: high-degree
// vertices' adjacency lists and the frontier state are touched far more
// often than the long tail.
#pragma once

#include <cstring>
#include <deque>
#include <memory>
#include <vector>

#include "src/common/types.h"
#include "src/mem/address_space.h"
#include "src/workloads/workload.h"

namespace mtm {

// Compressed-sparse-row graph with skewed degree distribution.
//
// Offsets and edge targets are stored byte-packed: each array entry takes
// the fewest whole bytes that hold the array's largest value (num_edges for
// offsets, num_vertices - 1 for edges), little-endian, back to back. At the
// default scale that is 4 B per offset and 3 B per edge.
class CsrGraph {
 public:
  // Builds a graph with ~avg_degree * num_vertices edges; hub vertices are
  // chosen by zipf so degree mass concentrates (RMAT-like skew).
  CsrGraph(u64 num_vertices, double avg_degree, double skew_theta, u64 seed);

  u64 num_vertices() const { return num_vertices_; }
  u64 num_edges() const { return num_edges_; }
  u64 OffsetOf(u64 v) const { return offsets_.Get(v); }
  u64 DegreeOf(u64 v) const { return offsets_.Get(v + 1) - offsets_.Get(v); }
  u32 Edge(u64 index) const { return static_cast<u32>(edges_.Get(index)); }

 private:
  // `size` unsigned integers, each `width_` bytes. A read is one unaligned
  // 8-byte load masked to the width; `bytes_` carries 7 bytes of tail slack
  // so the last entry's load stays in bounds.
  class PackedArray {
   public:
    PackedArray() = default;
    PackedArray(u64 size, u64 max_value);

    u64 Get(u64 i) const {
      u64 word;
      std::memcpy(&word, bytes_.data() + i * width_, sizeof(word));
      return word & mask_;
    }
    // An 8-byte store whose high bytes spill into the entries after i:
    // entries must be written in ascending order, so that each store
    // overwrites the previous one's spill.
    void Set(u64 i, u64 value) {
      std::memcpy(bytes_.data() + i * width_, &value, sizeof(value));
    }

   private:
    u64 width_ = 0;
    u64 mask_ = 0;
    std::vector<u8> bytes_;
  };

  u64 num_vertices_;
  u64 num_edges_;
  PackedArray offsets_;  // num_vertices + 1 entries
  PackedArray edges_;    // num_edges entries
};

class GraphWorkload : public Workload {
 public:
  enum class Algorithm { kBfs, kSssp };

  struct Options {
    Algorithm algorithm = Algorithm::kBfs;
    double avg_degree = 15.5;  // 14B edges / 0.9B nodes
    double skew_theta = 0.6;
    u32 edges_per_access = 2;  // 64B line covers two 32B edge records
  };

  GraphWorkload(Params params, Options options);

  std::string name() const override {
    return options_.algorithm == Algorithm::kBfs ? "bfs" : "sssp";
  }
  void Build(AddressSpace& address_space) override;
  u32 NextBatch(MemAccess* out, u32 n) override;
  double read_fraction() const override { return 1.0; }  // Table 2: read-only

 private:
  void StartTraversal();
  // Expands one vertex, appending its accesses; returns accesses emitted.
  u32 ExpandVertex(u32 v, MemAccess* out, u32 capacity);

  Options options_;
  std::unique_ptr<CsrGraph> graph_;
  u64 num_vertices_ = 0;

  VirtAddr offsets_start_;
  VirtAddr edges_start_;
  VirtAddr state_start_;  // visited/distance array

  // Each algorithm holds only the state it reads: BFS a visited flag per
  // vertex, SSSP a distance per vertex; the other vector stays empty.
  std::vector<u8> visited_;
  std::vector<u32> dist_;
  std::deque<u32> frontier_;
};

}  // namespace mtm
