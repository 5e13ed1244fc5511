// Content model of the move_memory_regions copy stage (§7, DESIGN.md §14).
//
// The paper's mechanism wins because allocation and copy run on helper
// threads off the application's critical path. The simulator models that
// overlap in simulated time (the cost's background time and write
// tracking); this file models what the copy moves:
//
//   * when the migration engine arms a region, it snapshots one
//     PageCopyRecord per still-to-move page (address, size, source
//     component, payload word);
//   * CopyRegion() plans copy shards over the snapshot — contiguous record
//     slices that break only at 2 MiB huge-page boundaries, the helper
//     threads' work units — copies each shard into its own checksum, and
//     folds the shard checksums in shard order;
//   * the engine keeps the result until the move commits, and drops it for
//     the §7.2 write-fault fallback (the staged pages are stale and "must be
//     copied again") and for aborted transactions.
//
// The copy runs on the simulation thread at submit time. The in-flight
// order owns write tracking: it arms its range at submit and disarms it at
// every exit, page moves leave the bit alone, and a fault is matched by
// mapping. So every write to a staged page faults in AccessEngine::Apply and
// reaches the engine before it changes page contents, and a staged result
// that commits always matches the snapshot it was taken from.
#pragma once

#include <cstddef>
#include <vector>

#include "src/common/types.h"

namespace mtm {

// Snapshot of one still-to-move page, taken when the copy is staged.
struct PageCopyRecord {
  VirtAddr addr;
  Bytes size;                            // 4 KiB base or 2 MiB huge
  ComponentId src = kInvalidComponent;   // resident component at staging time
  u64 payload = 0;                       // simulated contents (Pte::payload)
};

// One copy work unit: records [first, first + count) of a plan.
struct CopyShard {
  std::size_t first = 0;
  std::size_t count = 0;
  Bytes bytes;  // payload bytes covered by the shard
};

// Merged outcome of one region copy (shard-order fold of the shard checksums).
struct RegionCopyResult {
  u64 checksum = 0;
  Bytes bytes;
  u64 shards = 0;
};

// Seed of every checksum fold (FNV-1a offset basis).
inline constexpr u64 kCopyChecksumSeed = 0xcbf29ce484222325ull;

// One non-commutative fold step: order changes the result, so a merge that
// ignores shard order (or drops a shard) is detectable.
inline constexpr u64 FoldCopyChecksum(u64 acc, u64 piece) {
  return (acc ^ piece) * 0x100000001b3ull;
}

// The actual per-page copy work: expands the page's payload word into its
// cache lines and returns their folded checksum. Pure function of the
// record.
u64 CopyPageContent(const PageCopyRecord& page);

// Plans shards over `pages` (which ForEachMapping produced in address
// order): contiguous slices of at least one huge frame's bytes, with
// boundaries only where the next record starts a new 2 MiB huge frame —
// the clean-break rule that keeps a huge page's base-page remnants in one
// shard. Deterministic.
std::vector<CopyShard> PlanCopyShards(const std::vector<PageCopyRecord>& pages);

// Copies one region's snapshot: plans its shards, folds every shard's pages
// into its own checksum, and merges the shard checksums in shard order.
RegionCopyResult CopyRegion(const std::vector<PageCopyRecord>& pages);

}  // namespace mtm
