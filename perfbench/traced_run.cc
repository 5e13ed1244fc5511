#include "perfbench/traced_run.h"

#include <time.h>

#include <algorithm>
#include <array>
#include <cstdio>

#include "src/common/logging.h"
#include "src/common/stats.h"
#include "src/common/strong_types.h"
#include "src/common/units.h"
#include "src/migration/policy.h"
#include "src/profiling/profiler.h"
#include "src/sim/access_engine.h"
#include "src/sim/clock.h"
#include "src/sim/counters.h"
#include "src/sim/page_table.h"

namespace perfbench {

using mtm::u32;
using mtm::u64;

std::int64_t CpuNowNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

const char* LayerName(Layer layer) {
  static constexpr std::array<const char*, static_cast<std::size_t>(Layer::kCount)> kNames = {
      "core.run",          "sim.prefault",           "core.interval",
      "core.batch",        "workloads.next_batch",   "sim.apply",
      "migration.poll",    "profiling.scan_tick",    "profiling.interval_end",
      "migration.decide",  "migration.submit",       "migration.flush",
  };
  return kNames[static_cast<std::size_t>(layer)];
}

bool IsCoreLayer(Layer layer) {
  return layer == Layer::kRun || layer == Layer::kInterval || layer == Layer::kBatch;
}

std::uint32_t SpanTrace::Add(Layer layer, std::uint32_t id, std::uint32_t parent,
                             std::int64_t start_ns, std::int64_t end_ns) {
  spans_.push_back(Span{layer, id, parent, start_ns, end_ns});
  return static_cast<std::uint32_t>(spans_.size() - 1);
}

std::uint32_t SpanTrace::Open(Layer layer, std::uint32_t id, std::uint32_t parent) {
  const std::int64_t now = CpuNowNs();
  return Add(layer, id, parent, now, now);
}

void SpanTrace::Close(std::uint32_t index) { spans_[index].end_ns = CpuNowNs(); }

std::vector<std::int64_t> SpanTrace::TotalNs() const {
  std::vector<std::int64_t> total(static_cast<std::size_t>(Layer::kCount), 0);
  for (const Span& s : spans_) {
    total[static_cast<std::size_t>(s.layer)] += s.end_ns - s.start_ns;
  }
  return total;
}

std::vector<std::int64_t> SpanTrace::SelfNs() const {
  std::vector<std::int64_t> self = TotalNs();
  for (const Span& s : spans_) {
    if (s.parent != Span::kNone) {
      self[static_cast<std::size_t>(spans_[s.parent].layer)] -= s.end_ns - s.start_ns;
    }
  }
  return self;
}

bool SpanTrace::WriteCsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "index,name,id,parent,start_ns,end_ns\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu,%s,%lld,%lld,%lld,%lld\n", i, LayerName(s.layer),
                 s.id == Span::kNone ? -1LL : static_cast<long long>(s.id),
                 s.parent == Span::kNone ? -1LL : static_cast<long long>(s.parent),
                 static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

void BuildTimedWorkload::Build(mtm::AddressSpace& address_space) {
  const std::int64_t start = CpuNowNs();
  inner_.Build(address_space);
  build_ns_ += CpuNowNs() - start;
}

u64 InitAccesses(const mtm::AddressSpace& address_space) {
  u64 accesses = 0;
  for (const mtm::Vma& vma : address_space.vmas()) {
    if (vma.prefault) {
      const u64 step = vma.thp ? mtm::kHugePageSize : mtm::kPageSize;
      accesses += (vma.len.value() + step - 1) / step;
    }
  }
  return accesses;
}

// Mirrors RunSimulation (src/core/driver.cc) statement for statement on the
// path a fault-free run without observability or exporters takes. A change
// to that path must be repeated here; the benchmark's CSV comparison fails
// until it is.
TracedResult RunTraced(mtm::Workload& workload, mtm::Solution& solution,
                       const mtm::ExperimentConfig& config) {
  MTM_CHECK(solution.fault_injector() == nullptr) << "the traced replica models fault-free runs";
  TracedResult out;
  mtm::RunResult& result = out.result;
  SpanTrace& trace = out.trace;
  result.solution = solution.name();
  result.workload = workload.name();
  result.footprint_bytes = workload.params().footprint_bytes;
  if (solution.policy() != nullptr) {
    result.policy = solution.policy()->name();
    result.policy_overridden = solution.policy_overridden();
  }

  const mtm::SimNanos interval_ns = config.IntervalNs();
  const u32 ticks = std::max<u32>(1, config.mtm.num_scans);
  mtm::SimClock& clock = solution.clock();
  mtm::AccessEngine& engine = solution.engine();
  mtm::Profiler* profiler = solution.profiler();
  mtm::TieringPolicy* policy = solution.policy();
  mtm::MigrationEngine* migration = solution.migration();

  mtm::PolicyContext ctx;
  ctx.machine = &solution.machine();
  ctx.page_table = &solution.page_table();
  ctx.frames = &solution.frames();
  ctx.interval_ns = interval_ns;
  if (migration != nullptr) {
    ctx.history = &migration->history();
  }

  constexpr u32 kBatch = 2048;
  std::array<mtm::MemAccess, kBatch> batch;

  const std::uint32_t run = trace.Open(Layer::kRun, Span::kNone, Span::kNone);
  {
    const std::uint32_t prefault = trace.Open(Layer::kPrefault, Span::kNone, run);
    u32 rr = 0;
    for (const mtm::Vma& vma : solution.address_space().vmas()) {
      if (!vma.prefault) {
        continue;
      }
      const u64 step = vma.thp ? mtm::kHugePageSize : mtm::kPageSize;
      for (mtm::VirtAddr addr = vma.start; addr < vma.end(); addr += step) {
        engine.Apply(addr, /*is_write=*/true, solution.SocketOfThread(rr++));
      }
    }
    solution.tracker().ResetEpoch();
    for (const mtm::Vma& vma : solution.address_space().vmas()) {
      solution.page_table().ForEachMapping(vma.start, vma.len,
                                           [](mtm::VirtAddr, mtm::Bytes, mtm::Pte& pte) {
                                             pte.Clear(mtm::Pte::kAccessed);
                                             pte.Clear(mtm::Pte::kDirty);
                                           });
    }
    trace.Close(prefault);
  }

  mtm::RunningStats hot_bytes_stats;
  mtm::RunningStats regions_stats;

  for (u32 interval = 0; interval < config.num_intervals; ++interval) {
    if (config.target_accesses != 0 && result.total_accesses >= config.target_accesses) {
      break;
    }
    const std::uint32_t iv = trace.Open(Layer::kInterval, interval, run);
    if (profiler != nullptr) {
      profiler->OnIntervalStart();
    }
    if (migration != nullptr) {
      migration->BeginInterval();
    }
    const mtm::SimNanos interval_start = clock.now();
    for (u32 tick = 0; tick < ticks; ++tick) {
      const mtm::SimNanos tick_end =
          interval_start + (static_cast<u64>(tick) + 1) * interval_ns / ticks;
      while (clock.now() < tick_end) {
        const std::int64_t t0 = CpuNowNs();
        const u32 n = workload.NextBatch(batch.data(), kBatch);
        const std::int64_t t1 = CpuNowNs();
        for (u32 i = 0; i < n; ++i) {
          engine.Apply(batch[i].addr, batch[i].is_write,
                       solution.SocketOfThread(batch[i].thread));
        }
        const std::int64_t t2 = CpuNowNs();
        result.total_accesses += n;
        if (migration != nullptr) {
          migration->Poll();
        }
        const std::int64_t t3 = CpuNowNs();
        const std::uint32_t b = trace.Add(Layer::kBatch, interval, iv, t0, t3);
        trace.Add(Layer::kNextBatch, interval, b, t0, t1);
        trace.Add(Layer::kApply, interval, b, t1, t2);
        if (migration != nullptr) {
          trace.Add(Layer::kPoll, interval, b, t2, t3);
        }
      }
      if (profiler != nullptr) {
        const std::uint32_t s = trace.Open(Layer::kScanTick, interval, iv);
        profiler->OnScanTick(tick);
        trace.Close(s);
      }
    }

    if (profiler != nullptr) {
      const std::uint32_t end_span = trace.Open(Layer::kIntervalEnd, interval, iv);
      mtm::ProfileOutput profile = profiler->OnIntervalEnd();
      clock.AdvanceProfiling(profile.profiling_cost_ns);
      trace.Close(end_span);
      hot_bytes_stats.Add(static_cast<double>(profile.hot_bytes.value()));
      regions_stats.Add(static_cast<double>(profile.num_regions));

      ctx.now = clock.now();
      if (policy != nullptr && migration != nullptr) {
        const std::uint32_t decide = trace.Open(Layer::kDecide, interval, iv);
        std::vector<mtm::MigrationOrder> orders = policy->Decide(profile, ctx);
        trace.Close(decide);
        out.migration_orders += orders.size();
        const std::uint32_t submit = trace.Open(Layer::kSubmit, interval, iv);
        migration->SubmitAll(orders);
        trace.Close(submit);
      }
    }
    solution.tracker().ResetEpoch();
    trace.Close(iv);
  }

  if (migration != nullptr) {
    const std::uint32_t flush = trace.Open(Layer::kFlush, Span::kNone, run);
    migration->Flush();
    trace.Close(flush);
    result.migration_stats = migration->stats();
    result.admission_stats = migration->admission_stats();
    if (migration->admission() != nullptr) {
      result.admission = migration->admission()->name();
    }
  }
  trace.Close(run);

  result.app_ns = clock.app_ns();
  result.profiling_ns = clock.profiling_ns();
  result.migration_ns = clock.migration_ns();
  for (mtm::ComponentId c{0}; c < solution.machine().end_component(); ++c) {
    result.component_app_accesses.push_back(solution.counters().app_accesses(c));
  }
  if (profiler != nullptr) {
    result.profiler_memory_bytes = profiler->MemoryOverheadBytes();
  }
  result.avg_hot_bytes = hot_bytes_stats.mean();
  result.avg_num_regions = regions_stats.mean();
  return out;
}

}  // namespace perfbench
