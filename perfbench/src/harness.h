// Shared machinery of the perfbench workloads: command-line arguments, the
// result line, wall/CPU/RSS probes, latency statistics, the in-memory span
// log of the traced run, registry delta readers and graph renaming.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "planner/execution_plan.h"
#include "telemetry/metrics_registry.h"
#include "workflow/workflow_graph.h"

namespace ires {
class IresServer;
}  // namespace ires

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its spans; empty writes nothing.
  std::string trace_out;
};

/// One named metric with its unit, printed in the result line.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What a workload run reports. `failures` holds one line per failed
/// output check; `correct` is true when it is empty. `known_faults` names
/// what made the operations counted in `failed` fail, when that is a
/// known fault of the program on fixed inputs rather than a failed check.
struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;
  std::set<std::string> known_faults;
  /// End-to-end metrics (printed with --trace 0).
  std::map<std::string, Metric> end_to_end;
  /// Per-layer metrics (printed with --trace 1).
  std::map<std::string, Metric> per_layer;
};

double NowSeconds();
/// User + system CPU seconds of this process.
double CpuSeconds();
/// High-water resident set size of this process image, in MB (VmHWM:
/// unlike getrusage's ru_maxrss it does not inherit the peak of the
/// process that exec'd this one).
double PeakRssMb();

/// Linear-interpolated quantile of `values` (q in [0,1]); sorts a copy.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

/// A run measures whole rounds until it has both timed `seconds` of work
/// and completed kMinRequests requests, so p90 has at least 10 samples
/// beyond it. plan_est_s averages the plans of a prefix every run
/// completes (the first kMinRequests timed requests, or plan_cold's first
/// round), so it repeats exactly for a seed however long the run.
constexpr size_t kMinRequests = 100;

/// Set-ups per run; setup_s is their median.
constexpr int kSetUps = 3;
/// Threads that import the offline profiles in set-up (at most; no more
/// than the host's hardware threads).
constexpr unsigned kSetUpThreads = 4;

/// Builds the workload's stack kSetUps times with `build` (which returns a
/// std::unique_ptr) and returns the last one; `*setup_s` receives the
/// median build time. Tearing down an earlier stack is not timed.
template <typename Build>
auto SetUp(Build&& build, double* setup_s) -> decltype(build()) {
  std::vector<double> times;
  decltype(build()) stack;
  for (int i = 0; i < kSetUps; ++i) {
    stack.reset();
    const double start = NowSeconds();
    stack = build();
    times.push_back(NowSeconds() - start);
  }
  *setup_s = Median(times);
  return stack;
}

/// Timed closed-loop measurements. Rounds are grouped into blocks of whole
/// rounds holding at least kMinRequests requests; each end-to-end loop
/// metric is computed per block and reported as the median over blocks,
/// so a burst of interference from outside the process moves one block,
/// not the result. A run with one block reports plain whole-run figures.
class LoopStats {
 public:
  void AddRound(const std::vector<double>& latencies_ms, double wall_seconds,
                double cpu_seconds);
  bool KeepMeasuring(double seconds) const {
    return wall_seconds_ < seconds || requests_ < kMinRequests;
  }
  /// throughput_rps, p50_ms, p90_ms, cpu_ms_per_req and peak_rss_mb.
  void AddMetrics(RunResult* result) const;

 private:
  struct Block {
    std::vector<double> latencies_ms;
    double wall_seconds = 0.0;
    double cpu_seconds = 0.0;
  };
  std::vector<Block> blocks_;
  double wall_seconds_ = 0.0;
  size_t requests_ = 0;
};

/// Spans recorded by the benchmark around its calls into the program.
/// Append-only, kept in memory until the run ends.
class SpanLog {
 public:
  struct Span {
    std::string name;
    uint64_t request = 0;
    int thread = 0;
    double start_us = 0.0;
    double duration_us = 0.0;
    std::string detail;
  };

  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  /// Times `fn` (which returns a value) as span `name` of `request` when
  /// enabled; always runs it.
  template <typename Fn>
  auto Record(const std::string& name, uint64_t request, int thread,
              Fn&& fn) -> decltype(fn()) {
    if (!enabled_) return fn();
    const double start = NowSeconds();
    auto out = fn();
    Add(name, request, thread, start, NowSeconds() - start);
    return out;
  }

  void Add(const std::string& name, uint64_t request, int thread,
           double start_s, double duration_s, std::string detail = "");
  /// Mean duration (ms) of spans named `name`, 0 when none.
  double MeanMs(const std::string& name) const;
  /// Writes every span as a JSON array to `path` (one object per span).
  bool WriteJson(const std::string& path) const;

 private:
  const bool enabled_;
  const double epoch_ = NowSeconds();
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Sum of every child of counter family `name`.
uint64_t CounterSum(const ires::MetricsRegistry& metrics,
                    const std::string& name);
/// Summed count and sum of every child of histogram family `name`.
struct HistogramTotals {
  uint64_t count = 0;
  double sum = 0.0;
};
HistogramTotals HistogramSum(const ires::MetricsRegistry& metrics,
                             const std::string& name);

/// Rebuilds `graph` node by node (same ids, ports and target) with every
/// node name passed through `rename`.
ires::WorkflowGraph RenameGraph(
    const ires::WorkflowGraph& graph,
    const std::function<std::string(const ires::WorkflowGraph::Node&)>&
        rename);

/// Offline profiling (the paper's profiler, deliverable §2.2.1) of every
/// (algorithm, engine) pair the server's library can run: `samples`
/// feasible runs per pair, input sizes log-uniform in [min_bytes,
/// max_bytes], resources drawn from the provisioner's search space. The
/// runs are imported into the pair's three estimators, one refit each, so
/// a `samples` of 256 leaves every window full. Up to kSetUpThreads
/// threads import different pairs at once.
/// Returns the pairs whose windows could not be filled (an engine that
/// cannot run the algorithm at any drawn size).
std::vector<std::string> ProfileModelPairs(ires::IresServer* server,
                                           size_t samples, double min_bytes,
                                           double max_bytes, uint64_t seed);

/// Appends one line per PlanAnalyzer error of `plan`, checked against the
/// server's library, engines and cluster capacity.
void CheckPlanAnalyzer(ires::IresServer& server,
                       const ires::ExecutionPlan& plan, const std::string& who,
                       std::vector<std::string>* failures);

/// Appends one line per operator node of `graph` that is not run by
/// exactly one operator step of `plan` (steps are mapped to the node that
/// produces their output datasets).
void CheckOperatorCoverage(const ires::WorkflowGraph& graph,
                           const ires::ExecutionPlan& plan,
                           const std::string& who,
                           std::vector<std::string>* failures);

/// Every per-layer metric name with its unit. A workload whose path does
/// not cross a layer reports that layer's metrics as 0.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

/// Ratio helper that reports 0 for an empty base.
inline double Ratio(double part, double whole) {
  return whole > 0.0 ? part / whole : 0.0;
}

RunResult RunDagAdaptive(const Args& args);
RunResult RunSqlTpch(const Args& args);
RunResult RunPlanCold(const Args& args);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
