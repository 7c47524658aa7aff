// plan_cold: 4 concurrent clients plan Pegasus DAGs the plan cache has never
// seen, through IresServer::ValidateWorkflow + MaterializeWorkflow (the
// materialize route's calls). The server runs adaptive planning over
// offline-trained models that are never refitted: DP, candidate
// resolution, lint and model reads do all the work; nothing executes.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/ires_server.h"
#include "harness.h"
#include "planner/dp_planner.h"
#include "workloadgen/pegasus.h"

namespace perfbench {
namespace {

using namespace ires;

constexpr int kClients = 4;
/// Synthetic engines Eng0..Eng5; a DAG's m picks how many of them its
/// operators have implementations on.
constexpr int kEngines = 6;
/// Seeded pool: every Pegasus family at every size, kCopies base DAGs
/// each with seeded m and input scale: 5 x 4 x 2 = 40 base DAGs.
const std::vector<PegasusType> kFamilies = {
    PegasusType::kMontage, PegasusType::kCyberShake,
    PegasusType::kEpigenomics, PegasusType::kInspiral, PegasusType::kSipht};
const std::vector<int> kSizes = {16, 24, 32, 48};
constexpr int kCopies = 2;
/// Requests per base DAG per round: 41 x 5 = 205 plans.
constexpr int kRepeatsPerRound = 5;
/// Offline training runs per (algorithm, engine) pair.
constexpr size_t kTrainingRuns = 24;
/// Brute-force check: chains of 3-4 operators over m = 3 engines.
constexpr int kChains = 6;
constexpr int kChainEngines = 3;
/// Source size of the fixed fork DAG (see AddForkDag).
constexpr double kForkSourceGb = 3.0;

const char kVariantPath[] = "Constraints.OpSpecification.Variant";

std::string Variant(int m) {
  return std::string("m").append(std::to_string(m));
}

/// The Pegasus generator's implementation of `task` on engine `e`, tagged
/// with the library variant (`m<m>` for the generated DAGs) so DAGs with
/// different m share one library without seeing each other's
/// implementations.
MaterializedOperator SyntheticImpl(const std::string& task,
                                   const std::string& variant, int e) {
  MetadataTree meta;
  const std::string engine = "Eng" + std::to_string(e);
  const std::string store = "Store" + std::to_string(e);
  meta.Set("Constraints.Engine", engine);
  meta.Set("Constraints.OpSpecification.Algorithm.name", task);
  meta.Set(kVariantPath, variant);
  for (int port = 0; port < 24; ++port) {
    meta.Set("Constraints.Input" + std::to_string(port) + ".Engine.FS", store);
  }
  meta.Set("Constraints.Output0.Engine.FS", store);
  meta.Set("Constraints.Output0.type", "bin");
  return MaterializedOperator(task + "_" + variant + "_" + engine,
                              std::move(meta));
}

AbstractOperator VariantAbstract(const std::string& name,
                                 const std::string& task,
                                 const std::string& variant) {
  MetadataTree meta;
  meta.Set("Constraints.OpSpecification.Algorithm.name", task);
  meta.Set(kVariantPath, variant);
  return AbstractOperator(name, std::move(meta));
}

Dataset SourceDataset(const std::string& name, double gigabytes) {
  MetadataTree meta;
  meta.Set("Constraints.Engine.FS", "Store0");
  meta.Set("Constraints.type", "bin");
  meta.Set("Execution.path", "sim://" + name);
  meta.Set("Optimization.size", std::to_string(gigabytes * 1e9));
  meta.Set("Optimization.documents", std::to_string(gigabytes * 1e6));
  return Dataset(name, std::move(meta));
}

bool IsSource(const WorkflowGraph::Node& node) {
  return node.kind == WorkflowGraph::NodeKind::kDataset &&
         node.outputs.empty();
}

struct BaseDag {
  std::string name;  // prefix of its operator and source names
  WorkflowGraph graph;
  bool fixed = false;  // the same DAG for every seed
};

struct Stack {
  std::vector<std::string> unfilled_windows;
  std::unique_ptr<IresServer> server;
  std::vector<BaseDag> dags;
};

/// Generates a Pegasus DAG and registers it under its own name prefix:
/// sources scaled by `scale`, operators bound to the variant-`m`
/// implementations.
BaseDag AddBaseDag(PegasusType family, int size, int m, double scale,
                   const std::string& name, OperatorLibrary* library) {
  const GeneratedWorkload w = PegasusGenerator().Generate(family, size, m);
  const std::string prefix = name + ".";
  for (const auto& [ds_name, dataset] : w.library.datasets()) {
    MetadataTree meta = dataset.meta();
    for (const char* key : {"Optimization.size", "Optimization.documents"}) {
      const double value = std::strtod(meta.GetOr(key, "0").c_str(), nullptr);
      meta.Set(key, std::to_string(value * scale));
    }
    (void)library->AddDataset(Dataset(prefix + ds_name, std::move(meta)));
  }
  for (const auto& [op_name, op] : w.library.abstract()) {
    const std::string task =
        op.meta().GetOr("Constraints.OpSpecification.Algorithm.name", "");
    (void)library->AddAbstract(
        VariantAbstract(prefix + op_name, task, Variant(m)));
    for (int e = 0; e < m; ++e) {
      MaterializedOperator impl = SyntheticImpl(task, Variant(m), e);
      if (library->FindMaterializedByName(impl.name()) == nullptr) {
        (void)library->AddMaterialized(std::move(impl));
      }
    }
  }
  BaseDag dag;
  dag.name = name;
  dag.graph = RenameGraph(w.graph, [&](const WorkflowGraph::Node& n) {
    return n.kind == WorkflowGraph::NodeKind::kOperator || IsSource(n)
               ? prefix + n.name
               : n.name;
  });
  return dag;
}

/// The fixed fork, the same for every seed: `split` (on Eng2 or Eng5)
/// reads a kForkSourceGb source and feeds `left` (Eng2 only) and `right`
/// (Eng5 only), which `merge` (Eng2) joins: the smallest shape of
/// Montage's shared intermediates. The DP planner prices each consumer's
/// input on its own, so `left` takes split's Eng2 output and `right` its
/// Eng5 output (priced no higher than moving the Eng2 one): the plan runs
/// `split` in two steps, and fails the one-step-per-operator check on
/// every request. The planner picks the duplicate from about 2 GB (at
/// 1.2 GB it runs `split` once); 3 GB keeps clear of that edge.
BaseDag AddForkDag(OperatorLibrary* library) {
  const std::string prefix = "fork.";
  const std::string variant = "fork";
  struct Op {
    std::string name;
    std::string task;
    std::vector<int> engines;
  };
  const std::vector<Op> ops = {{"split", "mProjectPP", {2, 5}},
                               {"left", "mDiffFit", {2}},
                               {"right", "mBackground", {5}},
                               {"merge", "mAdd", {2}}};
  (void)library->AddDataset(SourceDataset(prefix + "src", kForkSourceGb));
  for (const Op& op : ops) {
    (void)library->AddAbstract(
        VariantAbstract(prefix + op.name, op.task, variant));
    for (int e : op.engines) {
      (void)library->AddMaterialized(SyntheticImpl(op.task, variant, e));
    }
  }
  BaseDag dag;
  dag.name = "fork";
  dag.fixed = true;
  WorkflowGraph& g = dag.graph;
  for (const Op& op : ops) g.AddOperator(prefix + op.name);
  for (const char* ds : {"src", "split.out", "left.out", "right.out", "out"}) {
    g.AddDataset(prefix + ds);
  }
  (void)g.Connect(prefix + "src", prefix + "split");
  (void)g.Connect(prefix + "split", prefix + "split.out");
  (void)g.Connect(prefix + "split.out", prefix + "left");
  (void)g.Connect(prefix + "split.out", prefix + "right");
  (void)g.Connect(prefix + "left", prefix + "left.out");
  (void)g.Connect(prefix + "right", prefix + "right.out");
  (void)g.Connect(prefix + "left.out", prefix + "merge", 0);
  (void)g.Connect(prefix + "right.out", prefix + "merge", 1);
  (void)g.Connect(prefix + "merge", prefix + "out");
  (void)g.SetTarget(prefix + "out");
  return dag;
}

std::unique_ptr<Stack> BuildStack(uint64_t seed) {
  auto stack = std::make_unique<Stack>();
  IresServer::Config config;
  config.use_refined_models = true;
  config.scheduler_workers = 4;
  stack->server = std::make_unique<IresServer>(config);
  IresServer& server = *stack->server;
  PegasusGenerator::RegisterSyntheticEngines(&server.engines(), kEngines);

  Rng rng(seed);
  for (PegasusType family : kFamilies) {
    for (int size : kSizes) {
      for (int copy = 0; copy < kCopies; ++copy) {
        const int m = static_cast<int>(rng.UniformInt(3, 5));
        const double scale = rng.Uniform(0.97, 1.03);
        const std::string name =
            std::string("d").append(std::to_string(stack->dags.size()));
        stack->dags.push_back(
            AddBaseDag(family, size, m, scale, name, &server.library()));
      }
    }
  }
  stack->dags.push_back(AddForkDag(&server.library()));
  // Offline-trained models for every (task, engine) pair; nothing refits
  // them afterwards because nothing executes.
  stack->unfilled_windows =
      ProfileModelPairs(&server, kTrainingRuns, 1e8, 5e9, 2015);
  return stack;
}

/// A never-seen copy of `dag`: its intermediate and target dataset names
/// carry the request number, which changes the graph fingerprint (and so
/// the plan-cache key) without touching the library.
WorkflowGraph FreshCopy(const BaseDag& dag, uint64_t request) {
  const std::string suffix = std::string("#").append(std::to_string(request));
  return RenameGraph(dag.graph, [&](const WorkflowGraph::Node& n) {
    return n.kind == WorkflowGraph::NodeKind::kOperator || IsSource(n)
               ? n.name
               : n.name + suffix;
  });
}

/// On seeded chains of 3-4 distinct operators with m = 3, the DP optimum
/// must equal the optimum over every implementation assignment, each
/// assignment priced by planning a library that offers only it (same
/// engines, same model-based estimator).
void CheckDpAgainstBruteForce(IresServer& server, uint64_t seed,
                              std::vector<std::string>* failures) {
  static const std::vector<std::string> kTasks = {
      "fastQSplit", "filterContams", "sol2sanger", "fastq2bfq",
      "map",        "mapMerge",      "maqIndex"};
  ModelBasedCostEstimator estimator(&server.models());
  DpPlanner::Options options;
  options.estimator = &estimator;
  Rng rng(seed * 31 + 5);
  for (int c = 0; c < kChains; ++c) {
    std::vector<std::string> tasks = kTasks;
    rng.Shuffle(&tasks);
    tasks.resize(static_cast<size_t>(rng.UniformInt(3, 4)));
    const std::string prefix = "chain" + std::to_string(c) + ".";

    WorkflowGraph chain;
    std::string previous = prefix + "src";
    chain.AddDataset(previous);
    for (size_t i = 0; i < tasks.size(); ++i) {
      const std::string op = prefix + "op" + std::to_string(i);
      const std::string out = prefix + "d" + std::to_string(i);
      chain.AddOperator(op);
      (void)chain.Connect(previous, op);
      chain.AddDataset(out);
      (void)chain.Connect(op, out);
      previous = out;
    }
    (void)chain.SetTarget(previous);

    const double source_gb = rng.Uniform(0.5, 2.0);
    auto make_library = [&](const std::vector<int>& only_engine) {
      OperatorLibrary library;
      (void)library.AddDataset(SourceDataset(prefix + "src", source_gb));
      for (size_t i = 0; i < tasks.size(); ++i) {
        (void)library.AddAbstract(VariantAbstract(
            prefix + "op" + std::to_string(i), tasks[i],
            Variant(kChainEngines)));
        for (int e = 0; e < kChainEngines; ++e) {
          if (only_engine.empty() || only_engine[i] == e) {
            (void)library.AddMaterialized(
                SyntheticImpl(tasks[i], Variant(kChainEngines), e));
          }
        }
      }
      return library;
    };
    auto plan_metric = [&](const std::vector<int>& only_engine,
                           double* metric) {
      const OperatorLibrary library = make_library(only_engine);
      auto plan = DpPlanner(&library, &server.engines()).Plan(chain, options);
      if (!plan.ok()) return false;
      *metric = plan.value().metric;
      return true;
    };

    double dp = 0.0;
    if (!plan_metric({}, &dp)) {
      failures->push_back(prefix + " DP found no plan");
      continue;
    }
    double best = -1.0;
    std::vector<int> assignment(tasks.size(), 0);
    for (;;) {
      double metric = 0.0;
      if (plan_metric(assignment, &metric) && (best < 0.0 || metric < best)) {
        best = metric;
      }
      size_t i = 0;
      while (i < assignment.size() && ++assignment[i] == kChainEngines) {
        assignment[i++] = 0;
      }
      if (i == assignment.size()) break;
    }
    if (std::abs(dp - best) > 1e-9 * std::max(1.0, std::abs(best))) {
      failures->push_back(prefix + " DP optimum " + std::to_string(dp) +
                          " != brute-force optimum " + std::to_string(best));
    }
  }
}

struct Outcome {
  double latency_ms = -1.0;
  ExecutionPlan plan;
  std::string error;
};

/// One request as the materialize route makes it: lint, then plan.
Outcome PlanOne(IresServer& server, const WorkflowGraph& graph,
                uint64_t request, int thread, SpanLog* spans) {
  Outcome out;
  const double start = NowSeconds();
  const std::vector<Diagnostic> findings =
      spans->Record("analysis.lint", request, thread,
                    [&] { return server.ValidateWorkflow(graph); });
  if (HasErrors(findings)) {
    out.error = "lint rejects it: " + findings[0].message;
    return out;
  }
  auto plan = spans->Record("planner.materialize", request, thread,
                            [&] { return server.MaterializeWorkflow(graph); });
  if (!plan.ok()) {
    out.error = plan.status().ToString();
    return out;
  }
  out.latency_ms = (NowSeconds() - start) * 1e3;
  out.plan = std::move(plan).value();
  return out;
}

/// Checks one request's plan and counts it in `result`. Returns true when
/// the request failed: it was refused, or it planned a fixed DAG with an
/// operator in more than one step (the known planner fault, which is
/// listed in `result->known_faults` and leaves `correct` alone). On a
/// seeded DAG that same finding is a failed check.
bool Judge(IresServer& server, const BaseDag& dag, const WorkflowGraph& graph,
           const Outcome& out, const std::string& who, RunResult* result) {
  ++result->attempted;
  if (!out.error.empty()) {
    ++result->failed;
    result->failures.push_back(who + ": " + out.error);
    return true;
  }
  CheckPlanAnalyzer(server, out.plan, who, &result->failures);
  std::vector<std::string> coverage;
  CheckOperatorCoverage(graph, out.plan, dag.name, &coverage);
  if (coverage.empty()) return false;
  if (!dag.fixed) {
    for (const std::string& line : coverage) {
      result->failures.push_back(who + ": " + line);
    }
    return false;
  }
  ++result->failed;
  result->known_faults.insert(coverage.begin(), coverage.end());
  return true;
}

}  // namespace

RunResult RunPlanCold(const Args& args) {
  RunResult result;
  double setup_s = 0.0;
  const std::unique_ptr<Stack> stack =
      SetUp([&] { return BuildStack(args.seed); }, &setup_s);
  result.end_to_end["setup_s"] = {setup_s, "s"};
  for (const std::string& pair : stack->unfilled_windows) {
    result.failures.push_back("offline profiling left " + pair + " short");
  }
  IresServer& server = *stack->server;
  SpanLog spans(args.trace);
  auto who = [&](uint64_t request, int dag) {
    return "request " + std::to_string(request) + " (" +
           stack->dags[dag].name + ")";
  };

  // A round plans every base DAG kRepeatsPerRound times, in a seeded order.
  std::vector<int> order;
  for (int r = 0; r < kRepeatsPerRound; ++r) {
    for (size_t d = 0; d < stack->dags.size(); ++d) {
      order.push_back(static_cast<int>(d));
    }
  }
  Rng order_rng(args.seed * 7919 + 3);

  // Warm-up: one checked plan per base DAG, untimed, so the candidate
  // index is built before timing (the long-lived server's state).
  uint64_t request_seq = 0;
  for (size_t d = 0; d < stack->dags.size(); ++d) {
    const uint64_t id = ++request_seq;
    const WorkflowGraph graph = FreshCopy(stack->dags[d], id);
    (void)Judge(server, stack->dags[d], graph,
                PlanOne(server, graph, id, 0, &spans),
                who(id, static_cast<int>(d)), &result);
  }

  MetricsRegistry& metrics = server.metrics();
  const HistogramTotals dp_before =
      HistogramSum(metrics, "ires_planner_plan_seconds");
  const uint64_t candidate_hits_before =
      CounterSum(metrics, "ires_planner_candidate_cache_hits_total");
  const uint64_t candidate_misses_before =
      CounterSum(metrics, "ires_planner_candidate_cache_misses_total");
  const PlanCache::Stats cache_before = server.plan_cache().stats();

  LoopStats loop;
  // plan_est_s averages the first timed round, which every run completes:
  // each base DAG five times, so it does not hang on which DAGs come
  // first in the seeded order.
  std::vector<double> estimates;
  bool first_round = true;
  while (loop.KeepMeasuring(args.seconds)) {
    order_rng.Shuffle(&order);
    std::vector<WorkflowGraph> graphs;
    std::vector<uint64_t> ids;
    for (int d : order) {
      ids.push_back(++request_seq);
      graphs.push_back(FreshCopy(stack->dags[d], ids.back()));
    }
    std::vector<Outcome> outcomes(graphs.size());
    std::atomic<size_t> next{0};
    auto client = [&](int thread) {
      for (size_t i; (i = next.fetch_add(1)) < graphs.size();) {
        outcomes[i] = PlanOne(server, graphs[i], ids[i], thread, &spans);
      }
    };
    const double cpu0 = CpuSeconds();
    const double wall0 = NowSeconds();
    std::vector<std::thread> clients;
    for (int t = 0; t < kClients; ++t) clients.emplace_back(client, t);
    for (std::thread& t : clients) t.join();
    const double wall = NowSeconds() - wall0;
    const double cpu = CpuSeconds() - cpu0;

    std::vector<double> latencies;
    for (size_t i = 0; i < outcomes.size(); ++i) {
      const BaseDag& dag = stack->dags[order[i]];
      if (Judge(server, dag, graphs[i], outcomes[i], who(ids[i], order[i]),
                &result)) {
        continue;
      }
      latencies.push_back(outcomes[i].latency_ms);
      if (first_round) estimates.push_back(outcomes[i].plan.estimated_seconds);
    }
    loop.AddRound(latencies, wall, cpu);
    first_round = false;
  }

  const PlanCache::Stats cache = server.plan_cache().stats();
  const HistogramTotals dp = HistogramSum(metrics, "ires_planner_plan_seconds");
  const uint64_t candidate_hits =
      CounterSum(metrics, "ires_planner_candidate_cache_hits_total") -
      candidate_hits_before;
  const uint64_t candidate_misses =
      CounterSum(metrics, "ires_planner_candidate_cache_misses_total") -
      candidate_misses_before;
  if (cache.hits != cache_before.hits) {
    result.failures.push_back("the plan cache served a never-seen DAG");
  }
  CheckDpAgainstBruteForce(server, args.seed, &result.failures);

  loop.AddMetrics(&result);
  result.end_to_end["plan_est_s"] = {Mean(estimates), "s"};

  auto& layer = result.per_layer;
  layer["planner.plan_ms"] = {spans.MeanMs("planner.materialize"), "ms"};
  layer["planner.dp_ms"] = {
      Ratio((dp.sum - dp_before.sum) * 1e3,
            static_cast<double>(dp.count - dp_before.count)),
      "ms"};
  layer["planner.candidate_cache_hit_ratio"] = {
      Ratio(static_cast<double>(candidate_hits),
            static_cast<double>(candidate_hits + candidate_misses)),
      "ratio"};
  layer["planner.plan_cache_hit_ratio"] = {
      Ratio(static_cast<double>(cache.hits - cache_before.hits),
            static_cast<double>((cache.hits - cache_before.hits) +
                                (cache.misses - cache_before.misses))),
      "ratio"};
  layer["analysis.lint_ms"] = {spans.MeanMs("analysis.lint"), "ms"};
  if (args.trace && !args.trace_out.empty()) spans.WriteJson(args.trace_out);
  return result;
}

}  // namespace perfbench
