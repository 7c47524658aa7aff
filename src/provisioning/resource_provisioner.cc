#include "provisioning/resource_provisioner.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace ires {

namespace {

Resources Decode(const Vector& genes, bool centralized,
                 const NsgaResourceProvisioner::Limits& limits) {
  Resources r;
  r.containers = centralized
                     ? 1
                     : std::clamp(static_cast<int>(std::lround(genes[0])), 1,
                                  limits.max_containers);
  r.cores = std::clamp(static_cast<int>(std::lround(genes[1])), 1,
                       limits.max_cores_per_container);
  r.memory_gb = std::clamp(genes[2], 0.5, limits.max_memory_gb_per_container);
  return r;
}

}  // namespace

Resources NsgaResourceProvisioner::Advise(const SimulatedEngine& engine,
                                          const OperatorRunRequest& request,
                                          const OptimizationPolicy& policy) {
  const bool centralized = engine.kind() == EngineKind::kCentralized;
  const std::vector<std::pair<double, double>> bounds = {
      {1.0, static_cast<double>(limits_.max_containers)},
      {1.0, static_cast<double>(limits_.max_cores_per_container)},
      {0.5, limits_.max_memory_gb_per_container},
  };

  auto evaluate = [&](const Vector& genes) -> Vector {
    OperatorRunRequest probe = request;
    probe.resources = Decode(genes, centralized, limits_);
    auto estimate = engine.Estimate(probe);
    if (!estimate.ok()) {
      // Infeasible allocation: push it to the far corner of both objectives.
      return {1e12, 1e12};
    }
    return {estimate.value().exec_seconds, estimate.value().cost};
  };

  // The GA runs entirely on locals; mu_ is only taken at the end to
  // publish the front.
  Nsga2 ga(ga_);
  std::vector<Nsga2::Individual> raw_front = ga.Optimize(bounds, evaluate);

  std::vector<FrontPoint> front;
  for (const Nsga2::Individual& ind : raw_front) {
    if (ind.objectives[0] >= 1e12) continue;  // infeasible sentinel
    FrontPoint point;
    point.resources = Decode(ind.genes, centralized, limits_);
    point.seconds = ind.objectives[0];
    point.cost = ind.objectives[1];
    front.push_back(point);
  }
  {
    MutexLock lock(mu_);
    last_front_ = front;
  }
  if (front.empty()) return request.resources;  // keep the default

  switch (policy.objective) {
    case OptimizationPolicy::Objective::kMinimizeCost: {
      const auto best = std::min_element(
          front.begin(), front.end(),
          [](const FrontPoint& a, const FrontPoint& b) {
            return a.cost < b.cost;
          });
      return best->resources;
    }
    case OptimizationPolicy::Objective::kMinimizeTime: {
      // Fastest point, then the cheapest allocation within the tolerance
      // band — the model's local minima flatten out once parallelism stops
      // paying, so this lands on the knee instead of max resources.
      double best_time = std::numeric_limits<double>::infinity();
      for (const FrontPoint& p : front) {
        best_time = std::min(best_time, p.seconds);
      }
      const double limit = best_time * (1.0 + time_tolerance_);
      const FrontPoint* chosen = nullptr;
      for (const FrontPoint& p : front) {
        if (p.seconds > limit) continue;
        if (chosen == nullptr || p.cost < chosen->cost) chosen = &p;
      }
      return chosen != nullptr ? chosen->resources : request.resources;
    }
    case OptimizationPolicy::Objective::kWeighted: {
      const auto best = std::min_element(
          front.begin(), front.end(),
          [&](const FrontPoint& a, const FrontPoint& b) {
            return policy.Metric(a.seconds, a.cost) <
                   policy.Metric(b.seconds, b.cost);
          });
      return best->resources;
    }
  }
  return request.resources;
}

}  // namespace ires
