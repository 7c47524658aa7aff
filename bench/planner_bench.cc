// Planner hot-path bench: measures DP planning throughput (plans/sec)
// across Pegasus DAG shapes (deep chains vs. wide fans), workflow sizes
// and operator-library sizes (the paper's m), comparing a cold candidate
// cache (fresh PlannerContext per plan) against the warm repeated-workflow
// path (one shared context, as the server runs it). Dumps the grid to
// BENCH_planner.json; CI runs `planner_bench --smoke` and archives the
// file. The acceptance bar for the memoized candidate index is
// repeated_workflow.warm_speedup >= 3.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "planner/dp_planner.h"
#include "planner/planner_context.h"
#include "workloadgen/pegasus.h"

namespace {

using namespace ires;

struct ScenarioResult {
  std::string workflow;
  int operators = 0;
  int engines_per_operator = 0;
  int plan_steps = 0;
  int iterations = 0;
  double cold_plans_per_sec = 0.0;
  double warm_plans_per_sec = 0.0;
  double warm_speedup = 0.0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
};

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

ScenarioResult RunScenario(PegasusType type, int operators, int m,
                           int cold_iters, int warm_iters) {
  PegasusGenerator gen(1234);
  GeneratedWorkload w = gen.Generate(type, operators, m);
  EngineRegistry registry;
  PegasusGenerator::RegisterSyntheticEngines(&registry, m);

  DpPlanner::Options options;
  ScenarioResult result;
  result.workflow = PegasusTypeName(type);
  result.operators = operators;
  result.engines_per_operator = m;
  result.iterations = warm_iters;

  // Cold: every plan resolves candidates from scratch, as a process that
  // plans each workflow exactly once would.
  const double cold_start = Now();
  for (int i = 0; i < cold_iters; ++i) {
    PlannerContext context(&w.library, &registry);
    DpPlanner planner(&w.library, &registry, &context);
    auto plan = planner.Plan(w.graph, options);
    if (!plan.ok()) {
      std::fprintf(stderr, "cold plan failed (%s): %s\n",
                   result.workflow.c_str(), plan.status().ToString().c_str());
      std::exit(1);
    }
    result.plan_steps = static_cast<int>(plan.value().steps.size());
  }
  const double cold_elapsed = Now() - cold_start;

  // Warm: one shared context across repeated plans of the same workflow —
  // the server's steady state. One untimed plan populates the index.
  MetricsRegistry metrics;
  PlannerContext context(&w.library, &registry, &metrics);
  DpPlanner planner(&w.library, &registry, &context);
  (void)planner.Plan(w.graph, options);
  const double warm_start = Now();
  for (int i = 0; i < warm_iters; ++i) {
    auto plan = planner.Plan(w.graph, options);
    if (!plan.ok()) {
      std::fprintf(stderr, "warm plan failed (%s): %s\n",
                   result.workflow.c_str(), plan.status().ToString().c_str());
      std::exit(1);
    }
  }
  const double warm_elapsed = Now() - warm_start;

  result.cold_plans_per_sec = cold_iters / cold_elapsed;
  result.warm_plans_per_sec = warm_iters / warm_elapsed;
  result.warm_speedup = result.warm_plans_per_sec / result.cold_plans_per_sec;
  result.cache_hits =
      metrics.GetCounter("ires_planner_candidate_cache_hits_total", "")
          ->Value();
  result.cache_misses =
      metrics.GetCounter("ires_planner_candidate_cache_misses_total", "")
          ->Value();
  return result;
}

void AppendScenarioJson(std::string* out, const ScenarioResult& r) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "    {\"workflow\": \"%s\", \"operators\": %d, "
                "\"engines_per_operator\": %d, \"plan_steps\": %d, "
                "\"iterations\": %d, \"cold_plans_per_sec\": %.1f, "
                "\"warm_plans_per_sec\": %.1f, \"warm_speedup\": %.2f, "
                "\"cache_hits\": %llu, \"cache_misses\": %llu}",
                r.workflow.c_str(), r.operators, r.engines_per_operator,
                r.plan_steps, r.iterations, r.cold_plans_per_sec,
                r.warm_plans_per_sec, r.warm_speedup,
                static_cast<unsigned long long>(r.cache_hits),
                static_cast<unsigned long long>(r.cache_misses));
  *out += buf;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const int cold_iters = smoke ? 3 : 20;
  const int warm_iters = smoke ? 15 : 200;

  // Deep chains (Epigenomics), dense fan-in/out (Montage) and a wide fan
  // (Sipht), each at two sizes and two library sizes.
  struct Scenario {
    PegasusType type;
    int operators;
    int m;
  };
  std::vector<Scenario> grid;
  if (smoke) {
    grid = {{PegasusType::kEpigenomics, 24, 8}};
  } else {
    for (PegasusType type : {PegasusType::kEpigenomics, PegasusType::kMontage,
                             PegasusType::kSipht}) {
      for (int operators : {24, 64}) {
        for (int m : {4, 12}) grid.push_back({type, operators, m});
      }
    }
  }

  std::string json = "{\n  \"benchmark\": \"planner_candidate_cache\",\n";
  json += smoke ? "  \"mode\": \"smoke\",\n" : "  \"mode\": \"full\",\n";
  json += "  \"scenarios\": [\n";
  bool first = true;
  for (const Scenario& s : grid) {
    const ScenarioResult r =
        RunScenario(s.type, s.operators, s.m, cold_iters, warm_iters);
    std::printf("%-12s ops=%-3d m=%-3d cold=%8.1f/s warm=%8.1f/s  x%.2f\n",
                r.workflow.c_str(), r.operators, r.engines_per_operator,
                r.cold_plans_per_sec, r.warm_plans_per_sec, r.warm_speedup);
    if (!first) json += ",\n";
    first = false;
    AppendScenarioJson(&json, r);
  }
  json += "\n  ],\n";

  // The repeated-workflow scenario the candidate index targets: the same
  // chain-heavy workflow planned over and over (plan-per-job, cache-on).
  const ScenarioResult repeated =
      RunScenario(PegasusType::kEpigenomics, smoke ? 24 : 64, smoke ? 8 : 12,
                  cold_iters, warm_iters);
  std::printf("repeated     ops=%-3d m=%-3d cold=%8.1f/s warm=%8.1f/s  x%.2f\n",
              repeated.operators, repeated.engines_per_operator,
              repeated.cold_plans_per_sec, repeated.warm_plans_per_sec,
              repeated.warm_speedup);
  json += "  \"repeated_workflow\":\n";
  AppendScenarioJson(&json, repeated);
  json += "\n}\n";

  const char* out_path = "BENCH_planner.json";
  std::FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path);
    return 1;
  }
  std::fputs(json.c_str(), f);
  std::fclose(f);
  std::printf("wrote %s\n", out_path);
  return 0;
}
