// Outside-in traced replica of mtm::RunSimulation.
//
// RunTraced replays the driver loop of src/core/driver.cc for the
// configuration the benchmark runs (fault-free, no observability bundle, no
// feature or heatmap export) and times every call it makes into a layer's
// public functions: Workload::NextBatch, AccessEngine::Apply,
// Profiler::OnScanTick / OnIntervalEnd, TieringPolicy::Decide and
// MigrationEngine::SubmitAll / Poll / Flush. The simulator itself carries no
// timers. The replica fills the RunResult fields that CsvRow prints, so the
// benchmark can prove it ran the same program by comparing CSV rows byte for
// byte with RunSimulation's.
//
// Timing uses host CPU time of the process. No timer is finer than one
// 2048-access batch: a batch records one NextBatch span, one span around its
// Apply loop and one Poll span.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/types.h"
#include "src/core/driver.h"
#include "src/core/experiment.h"
#include "src/core/solution.h"
#include "src/mem/address_space.h"
#include "src/workloads/workload.h"

namespace perfbench {

// Host CPU time of this process, in nanoseconds.
std::int64_t CpuNowNs();

// Named spans. The prefix is the module under src/ whose function the span
// times; core.* spans are the driver loop's own structure.
enum class Layer : std::uint8_t {
  kRun,            // core.run: prefault through Flush
  kPrefault,       // sim.prefault: the initialization loop
  kInterval,       // core.interval: one profiling interval
  kBatch,          // core.batch: one NextBatch + Apply + Poll step
  kNextBatch,      // workloads.next_batch
  kApply,          // sim.apply: the Apply loop over one batch
  kPoll,           // migration.poll
  kScanTick,       // profiling.scan_tick
  kIntervalEnd,    // profiling.interval_end
  kDecide,         // migration.decide
  kSubmit,         // migration.submit
  kFlush,          // migration.flush
  kCount,
};

const char* LayerName(Layer layer);

// True for spans that are the driver loop's structure rather than a call
// into a simulator layer.
bool IsCoreLayer(Layer layer);

struct Span {
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};
  Layer layer = Layer::kRun;
  std::uint32_t id = kNone;      // interval index; kNone outside intervals
  std::uint32_t parent = kNone;  // index of the enclosing span
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

// In-memory span store; written out only after the run ends.
class SpanTrace {
 public:
  // About four spans per 2048-access batch: 30M accesses need ~60k.
  SpanTrace() { spans_.reserve(1 << 17); }

  // Adds a closed span and returns its index.
  std::uint32_t Add(Layer layer, std::uint32_t id, std::uint32_t parent, std::int64_t start_ns,
                    std::int64_t end_ns);
  // Opens a span whose end is set later by Close; children may name it as
  // their parent in between.
  std::uint32_t Open(Layer layer, std::uint32_t id, std::uint32_t parent);
  void Close(std::uint32_t index);

  const std::vector<Span>& spans() const { return spans_; }

  // Sum of span durations per layer, and the same minus the time covered
  // by each span's direct children (self time).
  std::vector<std::int64_t> TotalNs() const;
  std::vector<std::int64_t> SelfNs() const;

  // One line per span: index,name,id,parent,start_ns,end_ns.
  bool WriteCsv(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

// Times Workload::Build, which Solution's constructor calls, by standing in
// for the real workload; every other call is forwarded unchanged.
class BuildTimedWorkload final : public mtm::Workload {
 public:
  explicit BuildTimedWorkload(mtm::Workload& inner) : Workload(inner.params()), inner_(inner) {}

  std::string name() const override { return inner_.name(); }
  void Build(mtm::AddressSpace& address_space) override;
  mtm::u32 NextBatch(mtm::MemAccess* out, mtm::u32 n) override {
    return inner_.NextBatch(out, n);
  }
  std::vector<mtm::HotRange> TrueHotRanges() const override { return inner_.TrueHotRanges(); }
  double read_fraction() const override { return inner_.read_fraction(); }

  std::int64_t build_ns() const { return build_ns_; }

 private:
  mtm::Workload& inner_;
  std::int64_t build_ns_ = 0;
};

struct TracedResult {
  mtm::RunResult result;  // the fields CsvRow prints, as RunSimulation fills them
  mtm::u64 migration_orders = 0;  // orders returned by TieringPolicy::Decide
  SpanTrace trace;
};

// Accesses the driver's initialization loop makes: one per base page, or
// per huge page on THP VMAs, over every prefaulted VMA.
mtm::u64 InitAccesses(const mtm::AddressSpace& address_space);

TracedResult RunTraced(mtm::Workload& workload, mtm::Solution& solution,
                       const mtm::ExperimentConfig& config);

}  // namespace perfbench
