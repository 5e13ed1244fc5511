#include "src/sim/page_table.h"

namespace mtm {

PageTable::Dir* PageTable::WalkToDir(VirtAddr addr, bool create) {
  static_assert(kLevels == 5, "Root spans levels 4..2 above the level-1 Dir");
  auto* level3 = Step(root_.children[IndexAt(addr, 4)], create);
  if (level3 == nullptr) {
    return nullptr;
  }
  auto* level2 = Step(level3->children[IndexAt(addr, 3)], create);
  if (level2 == nullptr) {
    return nullptr;
  }
  return Step(level2->children[IndexAt(addr, 2)], create);
}

Status PageTable::MapOne(VirtAddr addr, ComponentId component, bool huge) {
  Dir* dir = WalkToDir(addr, /*create=*/true);
  const u64 index = IndexAt(addr, 1);
  Pte& dir_pte = dir->huge[index];
  std::unique_ptr<Leaf>& leaf = dir->leaves[index];
  if (huge) {
    if (dir_pte.present()) {
      return AlreadyExistsError("huge page already mapped");
    }
    if (leaf != nullptr) {
      // A leaf table may linger after all its base pages were unmapped;
      // only live entries block a huge mapping.
      for (const Pte& entry : leaf->entries) {
        if (entry.present()) {
          return AlreadyExistsError("base pages already mapped under huge range");
        }
      }
      leaf.reset();
      --node_count_;
    }
    dir_pte = Pte{};
    dir_pte.Set(Pte::kPresent);
    dir_pte.Set(Pte::kHuge);
    dir_pte.component = component;
    mapped_bytes_ += kHugePageBytes;
    ++mapped_huge_pages_;
    return OkStatus();
  }
  if (dir_pte.present() && dir_pte.huge()) {
    return AlreadyExistsError("huge page already mapped at this address");
  }
  Pte& pte = Step(leaf, /*create=*/true)->entries[IndexAt(addr, 0)];
  if (pte.present()) {
    return AlreadyExistsError("page already mapped");
  }
  pte = Pte{};
  pte.Set(Pte::kPresent);
  pte.component = component;
  mapped_bytes_ += kPageBytes;
  ++mapped_base_pages_;
  return OkStatus();
}

Status PageTable::MapRange(VirtAddr start, Bytes len, ComponentId component, bool huge) {
  if (len.IsZero()) {
    return InvalidArgumentError("zero-length map");
  }
  const u64 page = huge ? kHugePageSize : kPageSize;
  if (!start.IsAligned(page) || (len.value() & (page - 1)) != 0) {
    return InvalidArgumentError("unaligned map range");
  }
  for (VirtAddr addr = start; addr < start + len; addr += page) {
    MTM_RETURN_IF_ERROR(MapOne(addr, component, huge));
  }
  ++generation_;
  return OkStatus();
}

Status PageTable::UnmapRange(VirtAddr start, Bytes len) {
  if (!start.IsAligned(kPageSize) || (len.value() & (kPageSize - 1)) != 0) {
    return InvalidArgumentError("unaligned unmap range");
  }
  VirtAddr addr = start;
  const VirtAddr end = start + len;
  while (addr < end) {
    Bytes size;
    Pte* pte = Find(addr, &size);
    if (pte == nullptr) {
      addr += kPageSize;
      continue;
    }
    VirtAddr mapping_start = addr.AlignDown(size.value());
    if (mapping_start < start || mapping_start + size > end) {
      return InvalidArgumentError("unmap range splits a mapping");
    }
    if (size == kHugePageBytes) {
      mapped_bytes_ -= kHugePageBytes;
      --mapped_huge_pages_;
    } else {
      mapped_bytes_ -= kPageBytes;
      --mapped_base_pages_;
    }
    *pte = Pte{};
    addr = mapping_start + size;
  }
  ++generation_;
  return OkStatus();
}

Status PageTable::SplitHuge(VirtAddr addr) {
  Dir* dir = WalkToDir(addr, /*create=*/false);
  if (dir == nullptr) {
    return NotFoundError("no mapping");
  }
  const u64 index = IndexAt(addr, 1);
  Pte& dir_pte = dir->huge[index];
  if (!dir_pte.present() || !dir_pte.huge()) {
    return FailedPreconditionError("not a huge mapping");
  }
  Pte copy = dir_pte;
  dir_pte = Pte{};
  Leaf* leaf = Step(dir->leaves[index], /*create=*/true);
  for (u64 i = 0; i < kPagesPerHugePage; ++i) {
    Pte& pte = leaf->entries[i];
    pte = copy;
    pte.Clear(Pte::kHuge);
  }
  --mapped_huge_pages_;
  mapped_base_pages_ += kPagesPerHugePage;
  ++generation_;
  return OkStatus();
}

Pte* PageTable::Find(VirtAddr addr, Bytes* mapping_size) {
  Dir* dir = WalkToDir(addr, /*create=*/false);
  if (dir == nullptr) {
    return nullptr;
  }
  const u64 index = IndexAt(addr, 1);
  Pte& dir_pte = dir->huge[index];
  if (dir_pte.present()) {
    if (mapping_size != nullptr) {
      *mapping_size = kHugePageBytes;
    }
    return &dir_pte;
  }
  Leaf* leaf = dir->leaves[index].get();
  if (leaf == nullptr) {
    return nullptr;
  }
  Pte& pte = leaf->entries[IndexAt(addr, 0)];
  if (!pte.present()) {
    return nullptr;
  }
  if (mapping_size != nullptr) {
    *mapping_size = kPageBytes;
  }
  return &pte;
}

const Pte* PageTable::Find(VirtAddr addr, Bytes* mapping_size) const {
  return const_cast<PageTable*>(this)->Find(addr, mapping_size);
}

PageTable::TouchResult PageTable::Touch(VirtAddr addr, bool is_write, Pte** entry_out) {
  Pte* pte = Find(addr);
  if (pte == nullptr) {
    return TouchResult::kNotPresent;
  }
  if (entry_out != nullptr) {
    *entry_out = pte;
  }
  if (is_write && pte->write_tracked()) {
    return TouchResult::kWriteTrackFault;
  }
  pte->Set(Pte::kAccessed);
  if (is_write) {
    pte->Set(Pte::kDirty);
  }
  return TouchResult::kOk;
}

bool PageTable::ScanAccessed(VirtAddr addr, bool* accessed_out) {
  Pte* pte = Find(addr);
  if (pte == nullptr) {
    return false;
  }
  *accessed_out = pte->accessed();
  pte->Clear(Pte::kAccessed);
  return true;
}

void PageTable::ForEachMapping(VirtAddr start, Bytes len,
                               const std::function<void(VirtAddr, Bytes, Pte&)>& fn) {
  VirtAddr addr = PageAlignDown(start);
  const VirtAddr end = start + len;
  while (addr < end) {
    Bytes size;
    Pte* pte = Find(addr, &size);
    if (pte == nullptr) {
      // Skip to the next base page; large sparse holes could be skipped at
      // directory granularity, but profilers only scan mapped VMAs.
      addr += kPageSize;
      continue;
    }
    VirtAddr mapping_start = addr.AlignDown(size.value());
    if (mapping_start >= start) {
      fn(mapping_start, size, *pte);
    }
    addr = mapping_start + size;
  }
}

void PageTable::ForEachMapping(
    VirtAddr start, Bytes len,
    const std::function<void(VirtAddr, Bytes, const Pte&)>& fn) const {
  const_cast<PageTable*>(this)->ForEachMapping(
      start, len, [&fn](VirtAddr a, Bytes s, Pte& p) { fn(a, s, p); });
}

u64 PageTable::ArmWriteTracking(VirtAddr start, Bytes len) {
  u64 armed = 0;
  ForEachMapping(start, len, [&armed](VirtAddr, Bytes, Pte& pte) {
    pte.Set(Pte::kWriteTracked);
    ++armed;
  });
  BumpGeneration();  // the one TLB flush the arming step pays (§7.2)
  return armed;
}

u64 PageTable::DisarmWriteTracking(VirtAddr start, Bytes len) {
  u64 disarmed = 0;
  ForEachMapping(start, len, [&disarmed](VirtAddr, Bytes, Pte& pte) {
    pte.Clear(Pte::kWriteTracked);
    ++disarmed;
  });
  BumpGeneration();
  return disarmed;
}

}  // namespace mtm
