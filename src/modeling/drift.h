#ifndef IRES_MODELING_DRIFT_H_
#define IRES_MODELING_DRIFT_H_

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "telemetry/metrics_registry.h"

namespace ires {

/// Cost-model drift observatory: per (operator algorithm, engine) residual
/// tracking of *predicted* versus *simulated-actual* execution time for
/// every executed step. The paper's adaptive loop (profile → plan → execute
/// → refine) needs exactly this signal to decide when refinement is due:
/// a pair whose exponentially weighted relative error exceeds the flag
/// threshold is surfaced as a refinement candidate, and the server reacts
/// by forcing an immediate refit of that pair's online estimator.
///
/// Thread-safe: one mutex guards the pair map; observations are O(buckets)
/// under it. This is an off-hot-path structure (one call per executed plan
/// step, orders of magnitude rarer than metric increments).
class DriftObservatory {
 public:
  /// EWMA smoothing factor for the drift score (higher = more reactive).
  static constexpr double kEwmaAlpha = 0.2;
  /// A pair whose EWMA relative error crosses this is flagged.
  static constexpr double kFlagThreshold = 0.5;
  /// Hysteresis: a flagged pair unflags only below this.
  static constexpr double kClearThreshold = 0.25;
  /// Minimum observations before a pair can be flagged.
  static constexpr uint64_t kMinObservations = 5;
  /// Exemplar job ids retained per pair (worst recent residuals).
  static constexpr size_t kMaxExemplars = 4;
  /// Relative-error histogram bucket upper bounds, ascending.
  static constexpr std::array<double, 9> kResidualBounds = {
      0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0};

  explicit DriftObservatory(MetricsRegistry* metrics = nullptr);

  DriftObservatory(const DriftObservatory&) = delete;
  DriftObservatory& operator=(const DriftObservatory&) = delete;

  /// Records one executed step's (predicted, actual) execution time.
  /// Returns true when this observation *newly* flagged the pair as a
  /// refinement candidate (the caller's hook to trigger a refit).
  bool Observe(const std::string& op, const std::string& engine,
               double predicted_seconds, double actual_seconds,
               const std::string& job_id) EXCLUDES(mu_);

  struct PairSnapshot {
    std::string op;
    std::string engine;
    uint64_t observations = 0;
    double drift_score = 0.0;     // EWMA relative error
    double mean_rel_error = 0.0;  // lifetime mean
    double last_rel_error = 0.0;
    bool flagged = false;
    std::vector<uint64_t> residual_counts;  // bounds.size() + 1 buckets
    /// Job ids of the worst recent residuals — the replay starting points.
    std::vector<std::string> exemplar_jobs;
  };

  /// All tracked pairs, sorted by (op, engine).
  std::vector<PairSnapshot> Snapshot() const EXCLUDES(mu_);

  /// Currently flagged (op, engine) pairs, sorted.
  std::vector<std::pair<std::string, std::string>> RefinementCandidates()
      const EXCLUDES(mu_);

  /// The GET /apiv1/models/drift body: thresholds, every pair's residual
  /// summary, and the refinement-candidate list.
  std::string ToJson() const EXCLUDES(mu_);

 private:
  struct PairState {
    uint64_t observations = 0;
    double ewma = 0.0;
    double sum_rel_error = 0.0;
    double last_rel_error = 0.0;
    bool flagged = false;
    std::vector<uint64_t> residual_counts;
    /// (relative error, job id), kept sorted worst-first, bounded.
    std::vector<std::pair<double, std::string>> exemplars;
  };

  MetricsRegistry* metrics_;

  /// Observe publishes to the metrics registry after dropping this lock,
  /// so no nesting under kDriftObservatory is ever needed.
  mutable Mutex mu_{LockRank::kDriftObservatory, "drift.pairs"};
  std::map<std::pair<std::string, std::string>, PairState> pairs_
      GUARDED_BY(mu_);
};

}  // namespace ires

#endif  // IRES_MODELING_DRIFT_H_
