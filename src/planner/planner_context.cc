#include "planner/planner_context.h"

#include <chrono>
#include <cstddef>
#include <functional>
#include <utility>

#include "metadata/metadata_tree.h"

namespace ires {

namespace {

using planner_internal::IoRequirement;
using planner_internal::ReadParams;
using planner_internal::RequirementFromSpec;

const IoRequirement kUnconstrained;

/// Highest numeric suffix among `Constraints.<prefix><i>` children, or -1
/// when none exist. "Input" (the arity leaf) has no suffix and is skipped.
int MaxPortIndex(const MetadataTree& meta, const std::string& prefix) {
  const MetadataTree::Node* constraints = meta.Find("Constraints");
  if (constraints == nullptr) return -1;
  int max_index = -1;
  for (const auto& [label, child] : constraints->children) {
    if (label.size() <= prefix.size() || label.compare(0, prefix.size(), prefix) != 0) {
      continue;
    }
    int index = 0;
    bool numeric = true;
    for (size_t i = prefix.size(); i < label.size(); ++i) {
      if (label[i] < '0' || label[i] > '9') {
        numeric = false;
        break;
      }
      index = index * 10 + (label[i] - '0');
    }
    if (numeric && index > max_index) max_index = index;
  }
  return max_index;
}

}  // namespace

const IoRequirement& ResolvedCandidate::InputReq(size_t i) const {
  return i < input_reqs.size() ? input_reqs[i] : kUnconstrained;
}

const IoRequirement& ResolvedCandidate::OutputReq(size_t i) const {
  return i < output_reqs.size() ? output_reqs[i] : kUnconstrained;
}

PlannerContext::PlannerContext(const OperatorLibrary* library,
                               const EngineRegistry* engines,
                               MetricsRegistry* metrics)
    : library_(library), engines_(engines) {
  if (metrics == nullptr) {
    owned_metrics_ = std::make_unique<MetricsRegistry>();
    metrics = owned_metrics_.get();
  }
  hits_ = metrics->GetCounter(
      "ires_planner_candidate_cache_hits_total",
      "Candidate resolutions served from the memoized index.");
  misses_ = metrics->GetCounter(
      "ires_planner_candidate_cache_misses_total",
      "Candidate resolutions that ran abstract->materialized matching.");
  match_seconds_ = metrics->GetHistogram(
      "ires_planner_candidate_match_seconds",
      "Latency of one miss-path candidate resolution (tree matching plus "
      "snapshot construction).",
      {},
      {1e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 5e-3, 1e-2,
       0.1});
}

CandidateSnapshot PlannerContext::Resolve(const std::string& name) const {
  const uint64_t library_version = library_->version();
  const uint64_t engine_epoch = engines_->availability_epoch();
  Shard& shard = shards_[std::hash<std::string>{}(name) % kShards];
  {
    ReaderLock lock(shard.mu);
    auto it = shard.entries.find(name);
    if (it != shard.entries.end() &&
        it->second->library_version == library_version &&
        it->second->engine_epoch == engine_epoch) {
      hits_->Increment();
      return CandidateSnapshot(it->second);
    }
  }

  misses_->Increment();
  const auto t0 = std::chrono::steady_clock::now();
  std::shared_ptr<const CandidateSnapshot::Set> set =
      Build(name, engine_epoch);
  match_seconds_->Observe(
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count());
  {
    WriterLock lock(shard.mu);
    // Concurrent rebuilds of the same entry race benignly: every built set
    // is self-consistent, the last writer wins.
    shard.entries[name] = set;
  }
  return CandidateSnapshot(std::move(set));
}

std::shared_ptr<const CandidateSnapshot::Set> PlannerContext::Build(
    const std::string& name, uint64_t engine_epoch) const {
  // Abstract operators are only ever added, never erased, so the pointer
  // stays valid past the library's internal lock (std::map node stability).
  const AbstractOperator* abstract = library_->FindAbstractByName(name);
  AbstractOperator synthesized;
  if (abstract == nullptr) {
    MetadataTree meta;
    meta.Set("Constraints.OpSpecification.Algorithm.name", name);
    synthesized = AbstractOperator(name, std::move(meta));
    abstract = &synthesized;
  }

  OperatorLibrary::MatchSnapshot match =
      library_->FindMaterializedSnapshot(*abstract);

  auto set = std::make_shared<CandidateSnapshot::Set>();
  // Stamp with the version the operators were actually read at (it may be
  // newer than the version sampled before the lookup — still consistent).
  set->library_version = match.version;
  set->engine_epoch = engine_epoch;
  set->candidates.reserve(match.operators.size());
  for (MaterializedOperator& op : match.operators) {
    ResolvedCandidate candidate;
    candidate.engine_name = op.engine();
    candidate.algorithm = op.algorithm();
    candidate.engine = engines_->Find(candidate.engine_name);
    candidate.engine_available =
        candidate.engine != nullptr && candidate.engine->available();
    candidate.params = ReadParams(op);
    const int max_in = MaxPortIndex(op.meta(), "Input");
    candidate.input_reqs.reserve(max_in + 1);
    for (int i = 0; i <= max_in; ++i) {
      candidate.input_reqs.push_back(RequirementFromSpec(op.InputSpec(i)));
    }
    const int max_out = MaxPortIndex(op.meta(), "Output");
    candidate.output_reqs.reserve(max_out + 1);
    for (int i = 0; i <= max_out; ++i) {
      candidate.output_reqs.push_back(RequirementFromSpec(op.OutputSpec(i)));
    }
    candidate.op = std::move(op);
    set->candidates.push_back(std::move(candidate));
  }
  return set;
}

}  // namespace ires
