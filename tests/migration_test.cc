// Tests for migration mechanisms and the migration engine (§7), the staged
// copy's shard plan and checksum model (src/migration/async_copy.h), and
// the §7.2 write-fault fallback: a write inside an in-flight window forces
// sync fallback exactly once, loses no update, and re-copies the live
// contents; write tracking lives and dies with the in-flight order.
#include <gtest/gtest.h>

#include <vector>

#include "src/common/fault_injection.h"
#include "src/common/rng.h"
#include "src/common/types.h"
#include "src/common/units.h"
#include "src/mem/address_space.h"
#include "src/mem/frame_allocator.h"
#include "src/migration/admission/admission.h"
#include "src/migration/async_copy.h"
#include "src/migration/cost_model.h"
#include "src/migration/mechanism.h"
#include "src/migration/migration_engine.h"
#include "src/sim/access_engine.h"
#include "src/sim/clock.h"
#include "src/sim/counters.h"
#include "src/sim/machine.h"
#include "src/sim/page_table.h"

namespace mtm {
namespace {

class MigrationTest : public ::testing::Test {
 protected:
  MigrationTest()
      : machine_(Machine::OptaneFourTier(512)),
        frames_(machine_),
        counters_(machine_.num_components()),
        t1_(machine_.TierOrder(0)[0]),
        t2_(machine_.TierOrder(0)[1]),
        t3_(machine_.TierOrder(0)[2]),
        t4_(machine_.TierOrder(0)[3]) {}

  VirtAddr BuildMapped(Bytes bytes, ComponentId component, bool huge) {
    u32 vma = address_space_.Allocate(bytes, huge, "w");
    VirtAddr start = address_space_.vma(vma).start;
    EXPECT_TRUE(page_table_.MapRange(start, address_space_.vma(vma).len, component, huge).ok());
    EXPECT_TRUE(frames_.Reserve(component, address_space_.vma(vma).len).ok());
    return start;
  }

  MigrationEngine MakeEngine(MechanismKind kind) {
    return MigrationEngine(machine_, page_table_, frames_, address_space_, counters_, clock_,
                           kind);
  }

  ComponentId ComponentAt(VirtAddr addr) {
    Pte* pte = page_table_.Find(addr);
    return pte == nullptr ? kInvalidComponent : pte->component;
  }

  Machine machine_;
  SimClock clock_;
  PageTable page_table_;
  AddressSpace address_space_;
  FrameAllocator frames_;
  MemCounters counters_;
  ComponentId t1_, t2_, t3_, t4_;
};

// ------------------------------------------------------- mechanism costs --

TEST_F(MigrationTest, MovePagesCopyDominates) {
  // Figure 3: "Copying pages is the most time-consuming step".
  MigrationCostModel model;
  MechanismCost cost = ComputeMechanismCost(MechanismKind::kMovePages, model, machine_, 0,
                                            t1_, t4_, 0, /*huge_pages=*/1);
  EXPECT_GT(cost.critical.copy_ns, cost.critical.allocate_ns);
  EXPECT_GT(cost.critical.copy_ns, cost.critical.unmap_remap_ns / 2);
  double share = static_cast<double>(cost.critical.copy_ns.value()) /
                 static_cast<double>(cost.CriticalNs().value());
  EXPECT_GT(share, 0.3);
  EXPECT_EQ(cost.BackgroundNs(), SimNanos{});
}

TEST_F(MigrationTest, MmrCriticalPathMuchCheaper) {
  // Figure 3: move_memory_regions() is ~4.4x faster than move_pages() on
  // the exposed path (copy and allocation run on helper threads).
  MigrationCostModel model;
  // A 2 MiB region of base pages, as move_pages() handles it.
  MechanismCost mp = ComputeMechanismCost(MechanismKind::kMovePages, model, machine_, 0, t1_,
                                          t4_, kPagesPerHugePage, 0);
  MechanismCost mmr = ComputeMechanismCost(MechanismKind::kMoveMemoryRegions, model, machine_,
                                           0, t1_, t4_, kPagesPerHugePage, 0);
  double ratio =
      static_cast<double>(mp.CriticalNs().value()) / static_cast<double>(mmr.CriticalNs().value());
  EXPECT_GT(ratio, 3.0);
  EXPECT_LT(ratio, 15.0);
  EXPECT_GT(mmr.BackgroundNs(), SimNanos{});
  EXPECT_EQ(mmr.critical.copy_ns, SimNanos{});
}

TEST_F(MigrationTest, NimbleBetweenMovePagesAndMmr) {
  MigrationCostModel model;
  MechanismCost mp = ComputeMechanismCost(MechanismKind::kMovePages, model, machine_, 0, t1_,
                                          t3_, 0, 4);
  MechanismCost nb = ComputeMechanismCost(MechanismKind::kNimble, model, machine_, 0, t1_,
                                          t3_, 0, 4);
  MechanismCost mmr = ComputeMechanismCost(MechanismKind::kMoveMemoryRegions, model, machine_,
                                           0, t1_, t3_, 0, 4);
  EXPECT_LT(nb.CriticalNs(), mp.CriticalNs());
  EXPECT_GT(nb.CriticalNs(), mmr.CriticalNs());
}

TEST_F(MigrationTest, MmrSyncExposesCopy) {
  MigrationCostModel model;
  MechanismCost sync = ComputeMechanismCost(MechanismKind::kMmrSync, model, machine_, 0, t1_,
                                            t3_, 0, 1);
  EXPECT_GT(sync.critical.copy_ns, SimNanos{});
  EXPECT_EQ(sync.BackgroundNs(), SimNanos{});
}

TEST_F(MigrationTest, SlowerLinkCostsMore) {
  MigrationCostModel model;
  MechanismCost to_t3 = ComputeMechanismCost(MechanismKind::kMovePages, model, machine_, 0,
                                             t1_, t3_, 0, 1);
  MechanismCost to_t4 = ComputeMechanismCost(MechanismKind::kMovePages, model, machine_, 0,
                                             t1_, t4_, 0, 1);
  EXPECT_GT(to_t4.critical.copy_ns, to_t3.critical.copy_ns);
}

// --------------------------------------------------------------- engine --

TEST_F(MigrationTest, SyncSubmitCommitsImmediately) {
  VirtAddr start = BuildMapped(MiB(4), t3_, false);
  MigrationEngine engine = MakeEngine(MechanismKind::kMovePages);
  (void)engine.Submit(MigrationOrder{start, MiB(2), t1_, 0});
  EXPECT_EQ(ComponentAt(start), t1_);
  EXPECT_EQ(ComponentAt(start + MiB(2).value()), t3_);  // outside the order
  EXPECT_EQ(engine.stats().bytes_migrated, MiB(2));
  EXPECT_EQ(frames_.used(t1_), MiB(2));
  EXPECT_EQ(frames_.used(t3_), MiB(4) - MiB(2));
  EXPECT_GT(clock_.migration_ns(), SimNanos{});
  EXPECT_GT(counters_.migration_bytes(t1_), Bytes{});
}

TEST_F(MigrationTest, AsyncDefersUntilPoll) {
  VirtAddr start = BuildMapped(MiB(4), t3_, false);
  MigrationEngine engine = MakeEngine(MechanismKind::kMoveMemoryRegions);
  (void)engine.Submit(MigrationOrder{start, MiB(2), t1_, 0});
  // Copy is in flight: pages still on the source, write tracking armed.
  EXPECT_EQ(engine.pending(), 1u);
  EXPECT_EQ(ComponentAt(start), t3_);
  EXPECT_TRUE(page_table_.Find(start)->write_tracked());
  // The copy window passes (advance app time), Poll completes the move.
  clock_.AdvanceApp(Seconds(1));
  engine.Poll();
  EXPECT_EQ(engine.pending(), 0u);
  EXPECT_EQ(ComponentAt(start), t1_);
  EXPECT_FALSE(page_table_.Find(start)->write_tracked());
  EXPECT_EQ(engine.stats().sync_fallbacks, 0u);
}

TEST_F(MigrationTest, WriteDuringAsyncSwitchesToSync) {
  // §7.2: "whenever any page in the region for migration is written after
  // the asynchronous page copy starts, MTM switches to the synchronous page
  // copy immediately".
  VirtAddr start = BuildMapped(MiB(4), t3_, false);
  MigrationEngine engine = MakeEngine(MechanismKind::kMoveMemoryRegions);
  (void)engine.Submit(MigrationOrder{start, MiB(2), t1_, 0});
  SimNanos before = clock_.migration_ns();
  engine.OnWriteTrackFault(start + kPageSize, 0);
  EXPECT_EQ(engine.pending(), 0u);
  EXPECT_EQ(engine.stats().sync_fallbacks, 1u);
  EXPECT_EQ(ComponentAt(start), t1_);  // committed immediately
  EXPECT_GT(clock_.migration_ns(), before);  // remaining copy exposed
}

TEST_F(MigrationTest, FlushCompletesPending) {
  VirtAddr start = BuildMapped(MiB(4), t3_, false);
  MigrationEngine engine = MakeEngine(MechanismKind::kMoveMemoryRegions);
  (void)engine.Submit(MigrationOrder{start, MiB(2), t1_, 0});
  engine.Flush();
  EXPECT_EQ(engine.pending(), 0u);
  EXPECT_EQ(ComponentAt(start), t1_);
}

TEST_F(MigrationTest, OverlappingAsyncOrderDropped) {
  VirtAddr start = BuildMapped(MiB(4), t3_, false);
  MigrationEngine engine = MakeEngine(MechanismKind::kMoveMemoryRegions);
  (void)engine.Submit(MigrationOrder{start, MiB(2), t1_, 0});
  (void)engine.Submit(MigrationOrder{start + MiB(1).value(), MiB(2), t2_, 0});
  EXPECT_EQ(engine.pending(), 1u);
}

TEST_F(MigrationTest, NoopOrderIgnored) {
  VirtAddr start = BuildMapped(MiB(2), t1_, false);
  MigrationEngine engine = MakeEngine(MechanismKind::kMoveMemoryRegions);
  (void)engine.Submit(MigrationOrder{start, MiB(2), t1_, 0});  // already there
  EXPECT_EQ(engine.pending(), 0u);
  EXPECT_EQ(engine.stats().bytes_migrated, Bytes{});
}

TEST_F(MigrationTest, HugeMappingsMigrateWhole) {
  VirtAddr start = BuildMapped(MiB(4), t3_, /*huge=*/true);
  MigrationEngine engine = MakeEngine(MechanismKind::kNimble);
  (void)engine.Submit(MigrationOrder{start, kHugePageBytes, t1_, 0});
  Bytes size;
  ASSERT_NE(page_table_.Find(start, &size), nullptr);
  EXPECT_EQ(size, kHugePageBytes);
  EXPECT_EQ(ComponentAt(start), t1_);
  EXPECT_EQ(ComponentAt(start + kHugePageSize), t3_);
}

TEST_F(MigrationTest, ReclaimDemotesWhenDestinationFull) {
  // Fill t1 with cold pages; a promotion then demotes them down-class.
  VirtAddr cold = BuildMapped(frames_.capacity(t1_), t1_, false);
  VirtAddr hot = BuildMapped(MiB(2), t3_, false);
  ASSERT_EQ(frames_.free_bytes(t1_), Bytes{});
  MigrationEngine engine = MakeEngine(MechanismKind::kMovePages);
  (void)engine.Submit(MigrationOrder{hot, MiB(2), t1_, 0});
  EXPECT_EQ(ComponentAt(hot), t1_);
  EXPECT_GT(engine.stats().reclaim_demotions, 0u);
  // Victims went to a strictly slower class (PM), never laterally to DRAM1.
  int on_dram1 = 0;
  page_table_.ForEachMapping(cold, frames_.capacity(t1_), [&](VirtAddr, Bytes, Pte& pte) {
    on_dram1 += pte.component == t2_;
  });
  EXPECT_EQ(on_dram1, 0);
}

TEST_F(MigrationTest, ReclaimPrefersInactivePages) {
  VirtAddr cold = BuildMapped(frames_.capacity(t1_), t1_, false);
  VirtAddr hot = BuildMapped(MiB(2), t3_, false);
  // Mark the first half of t1's pages accessed (active).
  page_table_.ForEachMapping(cold, frames_.capacity(t1_) / 2,
                             [](VirtAddr, Bytes, Pte& pte) { pte.Set(Pte::kAccessed); });
  MigrationEngine engine = MakeEngine(MechanismKind::kMovePages);
  (void)engine.Submit(MigrationOrder{hot, MiB(2), t1_, 0});
  // Active pages survive: count demotions from the active half.
  int demoted_active = 0;
  page_table_.ForEachMapping(cold, frames_.capacity(t1_) / 2, [&](VirtAddr, Bytes, Pte& pte) {
    demoted_active += pte.component != t1_;
  });
  EXPECT_EQ(demoted_active, 0);
}

TEST_F(MigrationTest, StepBreakdownAccumulates) {
  VirtAddr start = BuildMapped(MiB(4), t3_, false);
  MigrationEngine engine = MakeEngine(MechanismKind::kMovePages);
  (void)engine.Submit(MigrationOrder{start, MiB(2), t1_, 0});
  const MigrationStepBreakdown& steps = engine.stats().steps;
  EXPECT_GT(steps.allocate_ns, SimNanos{});
  EXPECT_GT(steps.unmap_remap_ns, SimNanos{});
  EXPECT_GT(steps.copy_ns, SimNanos{});
  EXPECT_EQ(steps.Total(), engine.stats().critical_ns);
}

TEST_F(MigrationTest, MixedSourceRegionsHandled) {
  // A range straddling two components migrates everything to the target.
  VirtAddr start = BuildMapped(MiB(4), t3_, false);
  MigrationEngine engine = MakeEngine(MechanismKind::kMovePages);
  (void)engine.Submit(MigrationOrder{start, MiB(1), t4_, 0});
  ASSERT_EQ(ComponentAt(start), t4_);
  (void)engine.Submit(MigrationOrder{start, MiB(2), t1_, 0});
  EXPECT_EQ(ComponentAt(start), t1_);
  EXPECT_EQ(ComponentAt(start + MiB(1).value()), t1_);
}

// ------------------------------------------------ shard-plan properties --

// Random still-to-move snapshot: huge frames in address order, each either
// one 2 MiB record or a random subset of its 4 KiB base pages (a region
// mid-split), with random gaps between frames (pages already on dst).
std::vector<PageCopyRecord> RandomSnapshot(Rng& rng) {
  std::vector<PageCopyRecord> pages;
  const u64 frames = 1 + rng.NextBounded(24);
  VirtAddr frame = VirtAddr(GiB(1).value());
  for (u64 f = 0; f < frames; ++f) {
    frame = frame + (1 + rng.NextBounded(3)) * kHugePageBytes;
    if (rng.NextBounded(2) == 0) {
      pages.push_back(PageCopyRecord{frame, kHugePageBytes, ComponentId{2}, rng.Next()});
    } else {
      for (u64 p = 0; p < kPagesPerHugePage; ++p) {
        if (rng.NextBounded(4) == 0) {
          pages.push_back(PageCopyRecord{frame + p * kPageBytes.value(), kPageBytes,
                                         ComponentId{3}, rng.Next()});
        }
      }
    }
  }
  return pages;
}

TEST(CopyShardPlanTest, ShardsPartitionTheSnapshot) {
  Rng rng(0xC0FFEE);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<PageCopyRecord> pages = RandomSnapshot(rng);
    std::vector<CopyShard> shards = PlanCopyShards(pages);
    if (pages.empty()) {
      EXPECT_TRUE(shards.empty());
      continue;
    }
    // Disjoint full coverage: shard index ranges are contiguous, in order,
    // and cover [0, pages.size()) exactly once.
    std::size_t next = 0;
    Bytes total;
    for (const CopyShard& shard : shards) {
      EXPECT_EQ(shard.first, next);
      EXPECT_GT(shard.count, 0u);
      Bytes bytes;
      for (std::size_t i = 0; i < shard.count; ++i) {
        bytes += pages[shard.first + i].size;
      }
      EXPECT_EQ(bytes, shard.bytes);
      next = shard.first + shard.count;
      total += shard.bytes;
    }
    EXPECT_EQ(next, pages.size());
    Bytes expected;
    for (const PageCopyRecord& page : pages) {
      expected += page.size;
    }
    EXPECT_EQ(total, expected);
  }
}

TEST(CopyShardPlanTest, ShardsBreakOnlyAtHugeFrameBoundaries) {
  Rng rng(0xBEEF);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<PageCopyRecord> pages = RandomSnapshot(rng);
    std::vector<CopyShard> shards = PlanCopyShards(pages);
    for (std::size_t s = 1; s < shards.size(); ++s) {
      // Clean break: the first record of a shard starts a new 2 MiB huge
      // frame, so one huge page's base-page remnants never split.
      const PageCopyRecord& head = pages[shards[s].first];
      const PageCopyRecord& prev = pages[shards[s].first - 1];
      EXPECT_NE(HugeAlignDown(head.addr), HugeAlignDown(prev.addr))
          << "shard " << s << " splits a huge frame";
    }
  }
}

TEST(CopyShardPlanTest, CopyRegionMatchesShardMergeReference) {
  Rng rng(0xFEED);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<PageCopyRecord> pages = RandomSnapshot(rng);
    // Shard-order merge reference, built from the plan by hand.
    std::vector<CopyShard> shards = PlanCopyShards(pages);
    u64 expected = kCopyChecksumSeed;
    Bytes bytes;
    for (const CopyShard& shard : shards) {
      u64 piece = kCopyChecksumSeed;
      for (std::size_t i = 0; i < shard.count; ++i) {
        piece = FoldCopyChecksum(piece, CopyPageContent(pages[shard.first + i]));
      }
      expected = FoldCopyChecksum(expected, piece);
      bytes += shard.bytes;
    }
    RegionCopyResult result = CopyRegion(pages);
    EXPECT_EQ(result.checksum, expected);
    EXPECT_EQ(result.shards, shards.size());
    EXPECT_EQ(result.bytes, bytes);
  }
}

// ------------------------------------------- write-fault fallback (§7.2) --

class AsyncFallbackTest : public ::testing::Test {
 protected:
  AsyncFallbackTest()
      : machine_(Machine::OptaneFourTier(512)),
        frames_(machine_),
        counters_(machine_.num_components()),
        t1_(machine_.TierOrder(0)[0]),
        t3_(machine_.TierOrder(0)[2]) {}

  VirtAddr BuildMapped(Bytes bytes, ComponentId component, bool huge) {
    u32 vma = address_space_.Allocate(bytes, huge, "w");
    VirtAddr start = address_space_.vma(vma).start;
    EXPECT_TRUE(page_table_.MapRange(start, address_space_.vma(vma).len, component, huge).ok());
    EXPECT_TRUE(frames_.Reserve(component, address_space_.vma(vma).len).ok());
    return start;
  }

  MigrationEngine MakeEngine() {
    return MigrationEngine(machine_, page_table_, frames_, address_space_, counters_, clock_,
                           MechanismKind::kMoveMemoryRegions);
  }

  ComponentId ComponentAt(VirtAddr addr) {
    Pte* pte = page_table_.Find(addr);
    return pte == nullptr ? kInvalidComponent : pte->component;
  }

  // Still-to-move snapshot of [start, len) toward dst, the engine's own
  // staging rule re-derived for reference checksums.
  std::vector<PageCopyRecord> LiveRecords(VirtAddr start, Bytes len, ComponentId dst) {
    std::vector<PageCopyRecord> records;
    const PageTable& pt = page_table_;
    pt.ForEachMapping(start, len, [&](VirtAddr addr, Bytes size, const Pte& pte) {
      if (pte.component == dst) {
        return;
      }
      records.push_back(PageCopyRecord{addr, size, pte.component, pte.payload});
    });
    return records;
  }

  // What stats().copy_checksum holds after one staged (async) commit.
  static u64 StagedChecksum(const std::vector<PageCopyRecord>& records) {
    std::vector<CopyShard> shards = PlanCopyShards(records);
    u64 region = kCopyChecksumSeed;
    for (const CopyShard& shard : shards) {
      u64 piece = kCopyChecksumSeed;
      for (std::size_t i = 0; i < shard.count; ++i) {
        piece = FoldCopyChecksum(piece, CopyPageContent(records[shard.first + i]));
      }
      region = FoldCopyChecksum(region, piece);
    }
    return FoldCopyChecksum(0, region);
  }

  // What stats().copy_checksum holds after one §7.2 serial re-copy (flat
  // fold, no shard structure: the fallback is a single synchronous pass).
  static u64 SerialChecksum(const std::vector<PageCopyRecord>& records) {
    u64 region = kCopyChecksumSeed;
    for (const PageCopyRecord& record : records) {
      region = FoldCopyChecksum(region, CopyPageContent(record));
    }
    return FoldCopyChecksum(0, region);
  }

  Machine machine_;
  SimClock clock_;
  PageTable page_table_;
  AddressSpace address_space_;
  FrameAllocator frames_;
  MemCounters counters_;
  ComponentId t1_, t3_;
};

TEST_F(AsyncFallbackTest, WriteInWindowForcesSyncFallbackExactlyOnce) {
  VirtAddr start = BuildMapped(MiB(4), t3_, false);
  MigrationEngine engine = MakeEngine();
  ASSERT_TRUE(engine.Submit(MigrationOrder{start, MiB(2), t1_, 0}).ok());
  EXPECT_EQ(engine.pending(), 1u);
  engine.OnWriteTrackFault(start + kPageSize, 0);
  EXPECT_EQ(engine.pending(), 0u);
  EXPECT_EQ(engine.stats().sync_fallbacks, 1u);
  EXPECT_EQ(engine.stats().fallback_copy_bytes, MiB(2));
  EXPECT_EQ(engine.stats().async_copies, 0u);
  // A second fault against the same (now committed) region is a no-op: the
  // fallback fires exactly once per in-flight window.
  engine.OnWriteTrackFault(start + kPageSize, 0);
  EXPECT_EQ(engine.stats().sync_fallbacks, 1u);
  EXPECT_EQ(engine.stats().fallback_copy_bytes, MiB(2));
}

TEST_F(AsyncFallbackTest, FallbackChecksumMatchesSerialReference) {
  VirtAddr start = BuildMapped(MiB(4), t3_, false);
  MigrationEngine engine = MakeEngine();
  ASSERT_TRUE(engine.Submit(MigrationOrder{start, MiB(2), t1_, 0}).ok());
  // No write mutated any payload between submit and fault, so the serial
  // re-copy reads exactly the staged contents — and must still discard the
  // staged result and re-fold flat (§7.2 "must be copied again").
  u64 expected = SerialChecksum(LiveRecords(start, MiB(2), t1_));
  engine.OnWriteTrackFault(start, 0);
  EXPECT_EQ(engine.stats().copy_checksum, expected);
}

TEST_F(AsyncFallbackTest, AsyncCommitChecksumMatchesShardMergeReference) {
  VirtAddr start = BuildMapped(MiB(8), t3_, true);
  MigrationEngine engine = MakeEngine();
  ASSERT_TRUE(engine.Submit(MigrationOrder{start, MiB(8), t1_, 0}).ok());
  u64 expected = StagedChecksum(LiveRecords(start, MiB(8), t1_));
  clock_.AdvanceApp(Seconds(1));
  engine.Poll();
  EXPECT_EQ(engine.pending(), 0u);
  EXPECT_EQ(engine.stats().async_copies, 1u);
  EXPECT_EQ(engine.stats().copy_shards, 4u);  // one shard per huge frame
  EXPECT_EQ(engine.stats().async_copy_bytes, MiB(8));
  EXPECT_EQ(engine.stats().copy_checksum, expected);
}

TEST_F(AsyncFallbackTest, NoLostUpdates) {
  // The faulting write must land on the destination page: the fault joins
  // the copy *before* the write's effect, the serial re-copy commits the
  // pre-write contents, and the write then mutates the (moved) page — the
  // same end state as the real mechanism, where the blocked store retires
  // against the destination after the synchronous copy.
  VirtAddr start = BuildMapped(MiB(4), t3_, false);
  AccessEngine::Config config;
  config.num_threads = 1;
  AccessEngine access(machine_, page_table_, clock_, counters_, config);
  MigrationEngine engine = MakeEngine();
  access.set_write_track_observer(&engine);

  ASSERT_TRUE(engine.Submit(MigrationOrder{start, MiB(2), t1_, 0}).ok());
  const VirtAddr target = start + 3 * kPageSize;
  const u64 payload_before = page_table_.Find(target)->payload;
  access.Apply(target, /*is_write=*/true, 0);

  EXPECT_EQ(access.write_track_faults(), 1u);
  EXPECT_EQ(engine.stats().sync_fallbacks, 1u);
  Pte* pte = page_table_.Find(target);
  ASSERT_NE(pte, nullptr);
  EXPECT_EQ(pte->component, t1_);  // committed by the fallback
  EXPECT_EQ(pte->payload, MixPayload(payload_before, target));  // write survived
  EXPECT_FALSE(pte->write_tracked());
}

TEST_F(AsyncFallbackTest, FallbackCounterMonotone) {
  Rng rng(0x5EED);
  MigrationEngine engine = MakeEngine();
  u64 last = 0;
  for (int round = 0; round < 12; ++round) {
    VirtAddr start = BuildMapped(MiB(2), t3_, false);
    ASSERT_TRUE(engine.Submit(MigrationOrder{start, MiB(2), t1_, 0}).ok());
    if (rng.NextBounded(2) == 0) {
      engine.OnWriteTrackFault(start + rng.NextBounded(512) * kPageSize, 0);
    } else {
      clock_.AdvanceApp(Seconds(1));
      engine.Poll();
    }
    EXPECT_GE(engine.stats().sync_fallbacks, last);
    last = engine.stats().sync_fallbacks;
    EXPECT_EQ(engine.pending(), 0u);
  }
  EXPECT_EQ(engine.stats().async_copies + engine.stats().sync_fallbacks, 12u);
}

// ------------------------------------ write tracking owned by the order --
//
// An in-flight order arms the mappings of its range at submit and disarms
// them at every exit; page moves never touch the bit; a fault is matched by
// the faulting mapping. So a tracked write always belongs to an in-flight
// order and forces its §7.2 fallback.

TEST_F(AsyncFallbackTest, CommitDisarmsPagesAlreadyOnTarget) {
  VirtAddr start = BuildMapped(MiB(2), t3_, false);
  AccessEngine::Config config;
  config.num_threads = 1;
  AccessEngine access(machine_, page_table_, clock_, counters_, config);
  MigrationEngine engine = MakeEngine();
  access.set_write_track_observer(&engine);
  ASSERT_TRUE(engine.Submit(MigrationOrder{start, MiB(1), t1_, 0}).ok());
  engine.Flush();  // the first half is now resident on t1
  ASSERT_EQ(ComponentAt(start), t1_);

  ASSERT_TRUE(engine.Submit(MigrationOrder{start, MiB(2), t1_, 0}).ok());
  clock_.AdvanceApp(Seconds(1));
  engine.Poll();
  ASSERT_EQ(engine.pending(), 0u);
  u64 tracked = 0;
  page_table_.ForEachMapping(start, MiB(2),
                             [&](VirtAddr, Bytes, Pte& pte) { tracked += pte.write_tracked(); });
  EXPECT_EQ(tracked, 0u);
  access.Apply(start + kPageSize, /*is_write=*/true, 0);  // a page that was already on t1
  EXPECT_EQ(access.write_track_faults(), 0u);
  EXPECT_EQ(engine.stats().sync_fallbacks, 0u);
}

TEST_F(AsyncFallbackTest, WritePastOrderEndInArmedHugePageForcesFallback) {
  VirtAddr start = BuildMapped(MiB(4), t3_, /*huge=*/true);
  AccessEngine::Config config;
  config.num_threads = 1;
  AccessEngine access(machine_, page_table_, clock_, counters_, config);
  MigrationEngine engine = MakeEngine();
  access.set_write_track_observer(&engine);
  // The order ends inside its first huge mapping, which it arms and moves
  // whole.
  ASSERT_TRUE(engine.Submit(MigrationOrder{start, KiB(512), t1_, 0}).ok());
  const VirtAddr past_end = start + MiB(1).value();
  ASSERT_TRUE(page_table_.Find(past_end)->write_tracked());
  const u64 payload_before = page_table_.Find(past_end)->payload;

  access.Apply(past_end, /*is_write=*/true, 0);
  EXPECT_EQ(access.write_track_faults(), 1u);
  EXPECT_EQ(engine.stats().sync_fallbacks, 1u);
  EXPECT_EQ(engine.stats().async_copies, 0u);  // the stale staged copy never commits
  EXPECT_EQ(engine.pending(), 0u);
  EXPECT_EQ(ComponentAt(past_end), t1_);
  EXPECT_EQ(page_table_.Find(past_end)->payload, MixPayload(payload_before, past_end));
}

TEST_F(AsyncFallbackTest, WriteAfterSourceTierDrainStillForcesFallback) {
  VirtAddr start = BuildMapped(MiB(2), t3_, false);
  AccessEngine::Config config;
  config.num_threads = 1;
  AccessEngine access(machine_, page_table_, clock_, counters_, config);
  MigrationEngine engine = MakeEngine();
  access.set_write_track_observer(&engine);
  ASSERT_TRUE(engine.Submit(MigrationOrder{start, MiB(2), t1_, 0}).ok());

  // The order's source tier dies mid-copy: the drain moves its pages
  // elsewhere, but the order is still in flight and still tracks them.
  machine_.SetOffline(t3_, true);
  TierFaultEvent event;
  event.component = t3_;
  event.offline = true;
  engine.OnTierFault(event);
  ASSERT_EQ(engine.pending(), 1u);
  ASSERT_NE(ComponentAt(start), t3_);
  EXPECT_TRUE(page_table_.Find(start)->write_tracked());

  const VirtAddr target = start + 3 * kPageSize;
  const u64 payload_before = page_table_.Find(target)->payload;
  access.Apply(target, /*is_write=*/true, 0);
  EXPECT_EQ(access.write_track_faults(), 1u);
  EXPECT_EQ(engine.stats().sync_fallbacks, 1u);
  EXPECT_EQ(engine.stats().async_copies, 0u);
  EXPECT_EQ(engine.pending(), 0u);
  EXPECT_EQ(ComponentAt(target), t1_);
  EXPECT_EQ(page_table_.Find(target)->payload, MixPayload(payload_before, target));
  EXPECT_TRUE(engine.VerifyInvariants().ok());
}

}  // namespace
}  // namespace mtm
