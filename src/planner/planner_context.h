#ifndef IRES_PLANNER_PLANNER_CONTEXT_H_
#define IRES_PLANNER_PLANNER_CONTEXT_H_

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "engines/engine_registry.h"
#include "operators/operator_library.h"
#include "planner/planner_common.h"
#include "telemetry/metrics_registry.h"

namespace ires {

/// One materialized implementation of an abstract workflow node, resolved
/// and pre-digested for the planner hot loop: an owning copy of the
/// operator (immune to concurrent RemoveByEngine), the engine it binds to,
/// and the per-port I/O requirements plus run parameters that the DP inner
/// loop would otherwise re-extract from the metadata tree on every
/// (candidate × port × entry) visit.
struct ResolvedCandidate {
  MaterializedOperator op;
  std::string engine_name;   // Constraints.Engine
  std::string algorithm;     // Constraints.OpSpecification.Algorithm.name
  /// Registry entry for engine_name (stable — engines are never erased);
  /// null when the engine is not deployed.
  const SimulatedEngine* engine = nullptr;
  /// Availability sampled at snapshot time; snapshots are keyed on the
  /// registry's availability epoch, so a flip makes the snapshot stale
  /// rather than wrong.
  bool engine_available = false;
  /// Optimization.params.* leaves, ready for OperatorRunRequest::params.
  std::map<std::string, double> params;
  std::vector<planner_internal::IoRequirement> input_reqs;
  std::vector<planner_internal::IoRequirement> output_reqs;

  /// Requirement for input/output port `i`; ports beyond the declared
  /// Constraints.Input<i>/Output<i> subtrees are unconstrained, matching
  /// RequirementFromSpec(nullptr).
  const planner_internal::IoRequirement& InputReq(size_t i) const;
  const planner_internal::IoRequirement& OutputReq(size_t i) const;
};

/// The version-stamped result of resolving one abstract node: a shared,
/// immutable candidate list. Copies are cheap (one shared_ptr); the data
/// stays alive as long as any snapshot references it, independent of
/// library mutation.
class CandidateSnapshot {
 public:
  CandidateSnapshot() = default;

  size_t size() const { return set_ == nullptr ? 0 : set_->candidates.size(); }
  bool empty() const { return size() == 0; }
  const ResolvedCandidate& operator[](size_t i) const {
    return set_->candidates[i];
  }
  const std::vector<ResolvedCandidate>& candidates() const {
    static const std::vector<ResolvedCandidate> kEmpty;
    return set_ == nullptr ? kEmpty : set_->candidates;
  }

  /// Operator-library version / engine-availability epoch the candidates
  /// were resolved at.
  uint64_t library_version() const {
    return set_ == nullptr ? 0 : set_->library_version;
  }
  uint64_t engine_epoch() const {
    return set_ == nullptr ? 0 : set_->engine_epoch;
  }

 private:
  friend class PlannerContext;
  struct Set {
    uint64_t library_version = 0;
    uint64_t engine_epoch = 0;
    std::vector<ResolvedCandidate> candidates;
  };
  explicit CandidateSnapshot(std::shared_ptr<const Set> set)
      : set_(std::move(set)) {}

  std::shared_ptr<const Set> set_;
};

/// Shared planner state for one (operator library, engine registry) pair:
/// the memoized candidate-resolution index that lets repeated jobs skip
/// abstract→materialized tree matching entirely. DpPlanner, ParetoPlanner
/// and BuildMaterializationReport all resolve through it.
///
/// Entries are keyed by abstract node name and validated against the
/// library version and engine-availability epoch, so any registration,
/// removal or ON/OFF flip invalidates exactly the stale entries (they
/// rebuild on next use). The cache is sharded: lookups take a per-shard
/// shared lock, so concurrent planners scale reads while rebuilds only
/// contend within one shard.
///
/// Telemetry (when a registry is supplied, else a private one):
///   ires_planner_candidate_cache_hits_total / _misses_total
///   ires_planner_candidate_match_seconds (miss-path resolution latency)
class PlannerContext {
 public:
  PlannerContext(const OperatorLibrary* library, const EngineRegistry* engines,
                 MetricsRegistry* metrics = nullptr);

  PlannerContext(const PlannerContext&) = delete;
  PlannerContext& operator=(const PlannerContext&) = delete;

  /// Candidates for the abstract node `name`: the library's abstract
  /// operator of that name, or — when none is registered — a synthesized
  /// abstract whose algorithm is the node name itself (workflows may
  /// reference operators that exist only inline). Thread-safe.
  CandidateSnapshot Resolve(const std::string& name) const;

  const OperatorLibrary* library() const { return library_; }
  const EngineRegistry* engines() const { return engines_; }

 private:
  static constexpr size_t kShards = 8;

  /// All shards share kPlannerContextShard: Resolve touches exactly one
  /// shard, and the resolution itself (library matching, engine lookups)
  /// runs *between* the shared-lock probe and the unique-lock store, so no
  /// two shard locks are ever held at once.
  struct Shard {
    mutable SharedMutex mu{LockRank::kPlannerContextShard, "planner.shard"};
    std::unordered_map<std::string,
                       std::shared_ptr<const CandidateSnapshot::Set>>
        entries GUARDED_BY(mu);
  };

  std::shared_ptr<const CandidateSnapshot::Set> Build(
      const std::string& name, uint64_t engine_epoch) const;

  const OperatorLibrary* library_;
  const EngineRegistry* engines_;
  std::unique_ptr<MetricsRegistry> owned_metrics_;  // fallback registry
  Counter* hits_;
  Counter* misses_;
  Histogram* match_seconds_;
  mutable std::array<Shard, kShards> shards_;
};

}  // namespace ires

#endif  // IRES_PLANNER_PLANNER_CONTEXT_H_
