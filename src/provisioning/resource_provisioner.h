#ifndef IRES_PROVISIONING_RESOURCE_PROVISIONER_H_
#define IRES_PROVISIONING_RESOURCE_PROVISIONER_H_

#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "planner/dp_planner.h"
#include "provisioning/nsga2.h"

namespace ires {

/// Elastic resource provisioning (deliverable §2.2.4): searches the
/// (#containers, cores/container, GB/container) space with NSGA-II over the
/// engine's cost/performance model, producing the Pareto front of
/// (execution time, execution cost) and picking the front point that best
/// serves the user policy. Centralized engines are pinned to one container.
class NsgaResourceProvisioner : public ResourceAdvisor {
 public:
  struct Limits {
    int max_containers = 8;
    int max_cores_per_container = 4;
    double max_memory_gb_per_container = 6.75;
  };

  NsgaResourceProvisioner() = default;
  NsgaResourceProvisioner(Limits limits, Nsga2::Options ga)
      : limits_(limits), ga_(ga) {}

  /// Thread-safe. The GA runs entirely on call-local state; mu_ is only
  /// taken afterwards to publish the computed front, so concurrent jobs
  /// never serialize on each other's GA.
  Resources Advise(const SimulatedEngine& engine,
                   const OperatorRunRequest& request,
                   const OptimizationPolicy& policy) override EXCLUDES(mu_);

  /// The full Pareto front computed by the most recent Advise call
  /// (time, cost) pairs with their decoded resources; used by the Fig. 17
  /// bench. Returns a copy: concurrent Advise calls replace the stored
  /// front wholesale.
  struct FrontPoint {
    Resources resources;
    double seconds = 0.0;
    double cost = 0.0;
  };
  std::vector<FrontPoint> last_front() const EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return last_front_;
  }

  /// When minimizing time, accept up to this relative slowdown versus the
  /// fastest front point in exchange for a cheaper allocation (the "right
  /// amount of resources" knee of Fig. 17).
  void set_time_tolerance(double tolerance) { time_tolerance_ = tolerance; }

 private:
  mutable Mutex mu_{LockRank::kResourceProvisioner, "provisioner.front"};
  Limits limits_;
  Nsga2::Options ga_;
  double time_tolerance_ = 0.05;
  std::vector<FrontPoint> last_front_ GUARDED_BY(mu_);
};

}  // namespace ires

#endif  // IRES_PROVISIONING_RESOURCE_PROVISIONER_H_
