#include "src/workloads/graph.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/common/types.h"
#include "src/mem/address_space.h"

namespace mtm {
namespace {

// Simulated storage strides: an edge record carries the target plus weight
// and property payload (32 B), a vertex offset is 8 B, per-vertex state
// (distance, visited flag, padding) is 8 B. The simulated footprint is
// therefore ~512 B per vertex at the default average degree.
constexpr u64 kOffsetStride = 8;
constexpr u64 kEdgeStride = 32;
constexpr u64 kStateStride = 8;

}  // namespace

CsrGraph::PackedArray::PackedArray(u64 size, u64 max_value) {
  // The masked 8-byte load reads entries as little-endian integers.
  static_assert(std::endian::native == std::endian::little);
  width_ = std::max<u64>(1, (std::bit_width(max_value) + 7) / 8);
  mask_ = width_ == sizeof(u64) ? ~u64{0} : (u64{1} << (8 * width_)) - 1;
  bytes_.resize(size * width_ + sizeof(u64) - 1);
}

CsrGraph::CsrGraph(u64 num_vertices, double avg_degree, double skew_theta, u64 seed)
    : num_vertices_(num_vertices) {
  MTM_CHECK_GT(num_vertices, 1ull);
  // Edge targets are u32 vertex ids.
  MTM_CHECK_LE(num_vertices, u64{0xffff'ffff});
  const u64 target_edges = static_cast<u64>(static_cast<double>(num_vertices) * avg_degree);

  // Analytic power-law degrees: deg(rank r) ~ 1/(r+1)^theta, scaled to the
  // edge target. Vertex id == degree rank: hubs occupy low ids, as in
  // degree-ordered CSR layouts; their offsets, adjacency runs, and state
  // cluster.
  std::vector<u32> degree(num_vertices, 0);
  u64 assigned = 0;
  {
    std::vector<double> weight(num_vertices);
    double norm = 0.0;
    for (u64 r = 0; r < num_vertices; ++r) {
      weight[r] = 1.0 / std::pow(static_cast<double>(r + 1), skew_theta);
      norm += weight[r];
    }
    for (u64 r = 0; r < num_vertices; ++r) {
      degree[r] = static_cast<u32>(weight[r] / norm * static_cast<double>(target_edges));
      assigned += degree[r];
    }
  }
  // Distribute rounding remainder one edge at a time.
  Rng rng(seed);
  while (assigned < target_edges) {
    ++degree[rng.NextBounded(num_vertices)];
    ++assigned;
  }
  num_edges_ = assigned;

  offsets_ = PackedArray(num_vertices + 1, num_edges_);
  u64 offset = 0;
  offsets_.Set(0, 0);
  for (u64 v = 0; v < num_vertices; ++v) {
    offset += degree[v];
    offsets_.Set(v + 1, offset);
  }
  // Free the degrees before the largest array is allocated, so that graph
  // construction never holds both.
  std::vector<u32>().swap(degree);
  edges_ = PackedArray(num_edges_, num_vertices - 1);
  for (u64 i = 0; i < num_edges_; ++i) {
    edges_.Set(i, rng.NextBounded(num_vertices));
  }
}

GraphWorkload::GraphWorkload(Params params, Options options)
    : Workload(params), options_(options) {
  // footprint = n*(kOffsetStride + kStateStride) + n*avg_degree*kEdgeStride.
  double per_vertex = static_cast<double>(kOffsetStride + kStateStride) +
                      options_.avg_degree * static_cast<double>(kEdgeStride);
  num_vertices_ =
      static_cast<u64>(static_cast<double>(params_.footprint_bytes.value()) / per_vertex);
  MTM_CHECK_GT(num_vertices_, 16ull);
  graph_ = std::make_unique<CsrGraph>(num_vertices_, options_.avg_degree, options_.skew_theta,
                                      params_.seed ^ 0x9a4a9);
  if (options_.algorithm == Algorithm::kBfs) {
    visited_.resize(num_vertices_);
  } else {
    dist_.resize(num_vertices_);
  }
}

void GraphWorkload::Build(AddressSpace& address_space) {
  u32 off = address_space.Allocate(Bytes(num_vertices_ * kOffsetStride), true, "graph.offsets");
  u32 edg =
      address_space.Allocate(Bytes(graph_->num_edges() * kEdgeStride), true, "graph.edges");
  u32 st = address_space.Allocate(Bytes(num_vertices_ * kStateStride), true, "graph.state");
  offsets_start_ = address_space.vma(off).start;
  edges_start_ = address_space.vma(edg).start;
  state_start_ = address_space.vma(st).start;
  StartTraversal();
}

void GraphWorkload::StartTraversal() {
  frontier_.clear();
  // Bias sources toward hubs so traversals overlap: the hot adjacency lists
  // stay hot across restarts, as in repeated-query graph serving.
  u32 src = static_cast<u32>(rng_.NextBounded(std::max<u64>(1, num_vertices_ / 16)));
  if (options_.algorithm == Algorithm::kBfs) {
    std::fill(visited_.begin(), visited_.end(), 0);
    visited_[src] = 1;
  } else {
    std::fill(dist_.begin(), dist_.end(), ~u32{0});
    dist_[src] = 0;
  }
  frontier_.push_back(src);
}

u32 GraphWorkload::ExpandVertex(u32 v, MemAccess* out, u32 capacity) {
  // Real traversal with emitted loads: offset lookup, edge-array scan (one
  // access per cache line of edge records), and per-neighbor state checks.
  // Expansion stops when `capacity` runs out; the vertex's remaining edges
  // are dropped, never read by this or a later traversal.
  const bool bfs = options_.algorithm == Algorithm::kBfs;
  u32 filled = 0;
  u32 thread = NextThread();
  if (filled < capacity) {
    out[filled++] = MemAccess{offsets_start_ + v * kOffsetStride, thread, false};
  }
  u64 off = graph_->OffsetOf(v);
  u64 deg = graph_->DegreeOf(v);
  // A frontier vertex's distance is always set, so `relaxed` >= 1 for SSSP.
  const u64 relaxed = bfs ? 0 : u64{dist_[v]} + 1;
  for (u64 i = 0; i < deg && filled < capacity; ++i) {
    if (i % options_.edges_per_access == 0) {
      out[filled++] = MemAccess{edges_start_ + (off + i) * kEdgeStride, thread, false};
      if (filled >= capacity) {
        break;
      }
    }
    u32 w = graph_->Edge(off + i);
    out[filled++] = MemAccess{state_start_ + w * kStateStride, thread, false};
    if (bfs) {
      if (!visited_[w]) {
        visited_[w] = 1;
        frontier_.push_back(w);
      }
    } else {
      if (relaxed < dist_[w]) {
        dist_[w] = static_cast<u32>(relaxed);
        frontier_.push_back(w);
      }
    }
  }
  return filled;
}

u32 GraphWorkload::NextBatch(MemAccess* out, u32 n) {
  u32 filled = 0;
  while (filled < n) {
    if (frontier_.empty()) {
      StartTraversal();
    }
    u32 v = frontier_.front();
    frontier_.pop_front();
    filled += ExpandVertex(v, out + filled, n - filled);
  }
  return filled;
}

}  // namespace mtm
