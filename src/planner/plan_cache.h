#ifndef IRES_PLANNER_PLAN_CACHE_H_
#define IRES_PLANNER_PLAN_CACHE_H_

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <tuple>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "planner/execution_plan.h"
#include "telemetry/metrics_registry.h"

namespace ires {

/// Thread-safe cache of DP-planner outputs. Concurrent submissions of the
/// same workflow under the same policy hit the cache instead of re-running
/// the O(op·m²·k) dynamic program. Entries are keyed on everything the
/// planner's answer depends on — the workflow-graph fingerprint, the policy,
/// and version counters of the operator library, model library and engine
/// availability — so any registration, model refit or engine ON/OFF flip
/// naturally invalidates stale plans (their keys stop being produced).
///
/// Hit/miss/insertion/eviction accounting lives on `ires_plan_cache_*`
/// counters in the server's MetricsRegistry; stats() is a thin read over
/// those counters, so the REST stats route and /apiv1/metrics report from
/// one source.
class PlanCache {
 public:
  struct Key {
    uint64_t graph_fingerprint = 0;
    std::string policy;          // OptimizationPolicy::ToString()
    uint64_t library_version = 0;
    uint64_t model_version = 0;
    uint64_t engine_epoch = 0;

    bool operator<(const Key& other) const {
      return std::tie(graph_fingerprint, policy, library_version,
                      model_version, engine_epoch) <
             std::tie(other.graph_fingerprint, other.policy,
                      other.library_version, other.model_version,
                      other.engine_epoch);
    }
  };

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t insertions = 0;
    uint64_t evictions = 0;
    size_t entries = 0;
  };

  /// Plans held before FIFO eviction.
  static constexpr size_t kCapacity = 128;

  explicit PlanCache(MetricsRegistry& metrics);

  /// Returns a copy of the cached plan for `key`, counting a hit/miss.
  std::optional<ExecutionPlan> Lookup(const Key& key) EXCLUDES(mu_);

  /// Stores `plan` under `key` (no-op if already present), evicting the
  /// oldest entry when full.
  void Insert(const Key& key, const ExecutionPlan& plan) EXCLUDES(mu_);

  void Clear() EXCLUDES(mu_);
  Stats stats() const EXCLUDES(mu_);

 private:
  Counter* hits_;
  Counter* misses_;
  Counter* insertions_;
  Counter* evictions_;
  Gauge* entries_gauge_;
  mutable Mutex mu_{LockRank::kPlanCache, "planner.plan_cache"};
  std::map<Key, ExecutionPlan> entries_ GUARDED_BY(mu_);
  std::deque<Key> insertion_order_ GUARDED_BY(mu_);  // FIFO eviction
};

}  // namespace ires

#endif  // IRES_PLANNER_PLAN_CACHE_H_
