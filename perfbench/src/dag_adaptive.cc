// dag_adaptive: one closed-loop client submits the paper's §4 evaluation
// workflows (graph, text and relational analytics) through
// ControlPlane::Submit and waits for each terminal state. The server runs
// the paper's adaptive mode (planner reads the refined models) with
// NSGA-II provisioning, and every model window starts full, so each timed
// refit fits a window of constant size.

#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/ires_server.h"
#include "harness.h"
#include "service/control_plane.h"
#include "service/job_journal.h"
#include "workloadgen/asap_workflows.h"

namespace perfbench {
namespace {

using namespace ires;

/// One registered workflow instance: a §4 workflow at one input size,
/// its source datasets renamed so every size lives in one library.
struct Instance {
  std::string name;
  WorkflowGraph graph;
};

/// Input sizes spanning each workflow's engine crossovers (Figures 11-13);
/// the seed jitters each by up to +-3%. A round runs 19 graph sizes,
/// log-spaced over [kMinEdges, kMaxEdges], 2 text sizes and 1 relational
/// one. Latencies fall into bands: jobs that do not refit (graph about
/// 7 ms, text 9, relational 20) and jobs that refit (graph about 500 ms,
/// text 500-950, relational 1000-1500). About 78% of graph jobs do not
/// refit, against about half of the text and relational ones, so this mix
/// puts about 67% of the jobs in the non-refitting graph band, which holds
/// p50 well inside it, and leaves text and relational refits about 7% of
/// the jobs, so p90 falls inside the graph refit band (about 19%).
constexpr int kGraphSizes = 19;
constexpr double kMinEdges = 3e4;
constexpr double kMaxEdges = 8e7;
const std::vector<double> kTextDocuments = {3e3, 1.5e5};
const std::vector<double> kRelationalScaleGb = {3.0};
constexpr size_t kWindow = 256;
/// Scheduler workers of the measured server. One, not the default of one
/// per hardware thread: with parallel NSGA-II fan-out the jobs that do not
/// refit (where p50 lies) got slower, and their p50 followed the host's
/// load from run to run (see README.md). The traced run measures the
/// default worker count beside it (planner.plan_ms_default_workers).
constexpr int kSchedulerWorkers = 1;
/// Rounds of the traced run's default-worker planning probe.
constexpr int kProbeRounds = 5;

struct Stack {
  std::vector<std::string> unfilled_windows;
  std::unique_ptr<IresServer> server;
  std::unique_ptr<ControlPlane> plane;
  std::vector<Instance> instances;
};

void AddInstance(const GeneratedWorkload& workload, const std::string& name,
                 Stack* stack) {
  OperatorLibrary& library = stack->server->library();
  // Operators are size-independent: register them once per workflow kind.
  for (const auto& [op_name, op] : workload.library.abstract()) {
    if (library.FindAbstractByName(op_name) == nullptr) {
      (void)library.AddAbstract(op);
    }
  }
  for (const auto& [op_name, op] : workload.library.materialized()) {
    if (library.FindMaterializedByName(op_name) == nullptr) {
      (void)library.AddMaterialized(op);
    }
  }
  // Source datasets carry the size: rename them per instance.
  for (const auto& [ds_name, dataset] : workload.library.datasets()) {
    (void)library.AddDataset(Dataset(ds_name + "@" + name, dataset.meta()));
  }
  Instance instance;
  instance.name = name;
  instance.graph = RenameGraph(workload.graph, [&](const auto& node) {
    return workload.library.FindDatasetByName(node.name) != nullptr
               ? node.name + "@" + name
               : node.name;
  });
  stack->instances.push_back(std::move(instance));
}

/// `scheduler_workers` 0 is the server's default (one per hardware thread).
std::unique_ptr<Stack> BuildStack(uint64_t seed, int scheduler_workers) {
  auto stack = std::make_unique<Stack>();
  IresServer::Config config;
  config.use_refined_models = true;
  config.provision_resources = true;
  config.scheduler_workers = scheduler_workers;
  stack->server = std::make_unique<IresServer>(config);
  Rng rng(seed);
  auto jitter = [&](double anchor) {
    return anchor * rng.Uniform(0.97, 1.03);
  };
  for (int i = 0; i < kGraphSizes; ++i) {
    const double edges =
        kMinEdges * std::pow(kMaxEdges / kMinEdges,
                             static_cast<double>(i) / (kGraphSizes - 1));
    AddInstance(MakeGraphAnalyticsWorkflow(jitter(edges)),
                "graph" + std::to_string(i), stack.get());
  }
  for (size_t i = 0; i < kTextDocuments.size(); ++i) {
    AddInstance(MakeTextAnalyticsWorkflow(jitter(kTextDocuments[i])),
                "text" + std::to_string(i), stack.get());
  }
  for (size_t i = 0; i < kRelationalScaleGb.size(); ++i) {
    AddInstance(MakeRelationalWorkflow(jitter(kRelationalScaleGb[i])),
                "relational" + std::to_string(i), stack.get());
  }
  // The long-lived server's state: every pair's window already full.
  stack->unfilled_windows =
      ProfileModelPairs(stack->server.get(), kWindow, 1e5, 1e11, 2015);
  ControlPlane::Options options;
  options.replicas = 1;
  options.replica_options.workers = 4;
  stack->plane = std::make_unique<ControlPlane>(stack->server.get(), options);
  return stack;
}

/// The output checks of a job that SUCCEEDED; appends one line per
/// violation.
void CheckJob(Stack& stack, const Instance& instance,
              const JobRecord& record, std::vector<std::string>* failures) {
  const std::string who = record.id + " (" + instance.name + ")";
  const ExecutionPlan& plan = record.outcome.final_plan;
  const ExecutionReport& report = record.outcome.final_report;

  CheckPlanAnalyzer(*stack.server, plan, who, failures);
  CheckOperatorCoverage(instance.graph, plan, who, failures);

  // No step starts before its predecessors finish (simulated clock).
  for (const PlanStep& step : plan.steps) {
    if (step.id < 0 || step.id >= static_cast<int>(report.steps.size())) {
      failures->push_back(who + " step " + std::to_string(step.id) +
                          " has no result");
      continue;
    }
    for (int dep : step.deps) {
      // Out-of-range dependencies are PlanAnalyzer's PL002.
      if (dep < 0 || dep >= static_cast<int>(report.steps.size())) continue;
      if (report.steps[step.id].start_seconds + 1e-9 <
          report.steps[dep].finish_seconds) {
        failures->push_back(who + " step " + std::to_string(step.id) +
                            " starts before step " + std::to_string(dep) +
                            " finishes");
      }
    }
  }
}

int CompletedOperatorSteps(const JobRecord& record) {
  int steps = 0;
  const ExecutionReport& report = record.outcome.final_report;
  for (const PlanStep& step : record.outcome.final_plan.steps) {
    if (step.kind == PlanStep::Kind::kOperator && step.id >= 0 &&
        step.id < static_cast<int>(report.steps.size()) &&
        report.steps[step.id].status.ok()) {
      ++steps;
    }
  }
  return steps;
}

/// Per-job span totals read from the job's own TraceContext.
struct JobSpans {
  double execute_ms = 0.0;
  double refine_ms = 0.0;
  double dp_ms = 0.0;
};

JobSpans ReadSpans(const JobRecord& record) {
  JobSpans spans;
  if (!record.trace) return spans;
  for (const TraceSpan& span : record.trace->Snapshot()) {
    if (span.timeline != TraceContext::kWallTimeline || !span.finished()) {
      continue;
    }
    const double ms = span.duration_us / 1e3;
    if (span.name == "job.execute") spans.execute_ms += ms;
    if (span.name == "model.refine") spans.refine_ms += ms;
    if (span.name == "plan.dp") spans.dp_ms += ms;
  }
  return spans;
}

/// Plans every instance kProbeRounds times on a server with the default
/// scheduler worker count, through IresServer::MaterializeWorkflow (DP
/// with NSGA-II provisioning, nothing executes), and returns the median
/// planning time in ms. Each request renames the instance's produced
/// datasets, so the plan cache never serves it.
double ProbeDefaultWorkers(uint64_t seed, std::vector<std::string>* failures) {
  const std::unique_ptr<Stack> stack = BuildStack(seed, 0);
  OperatorLibrary& library = stack->server->library();
  std::vector<double> plan_ms;
  uint64_t copy = 0;
  for (int round = 0; round < kProbeRounds; ++round) {
    for (const Instance& instance : stack->instances) {
      const std::string suffix =
          std::string("#").append(std::to_string(++copy));
      const WorkflowGraph graph =
          RenameGraph(instance.graph, [&](const WorkflowGraph::Node& n) {
            return n.kind == WorkflowGraph::NodeKind::kDataset &&
                           library.FindDatasetByName(n.name) == nullptr
                       ? n.name + suffix
                       : n.name;
          });
      const double start = NowSeconds();
      auto plan = stack->server->MaterializeWorkflow(graph);
      plan_ms.push_back((NowSeconds() - start) * 1e3);
      if (!plan.ok()) {
        failures->push_back("default-worker probe: " + instance.name +
                            " did not plan: " + plan.status().ToString());
      }
    }
  }
  return Median(plan_ms);
}

}  // namespace

RunResult RunDagAdaptive(const Args& args) {
  RunResult result;
  double setup_s = 0.0;
  const std::unique_ptr<Stack> stack =
      SetUp([&] { return BuildStack(args.seed, kSchedulerWorkers); },
            &setup_s);
  for (const std::string& pair : stack->unfilled_windows) {
    result.failures.push_back("offline profiling left " + pair + " short");
  }
  IresServer& server = *stack->server;
  ControlPlane& plane = *stack->plane;
  SpanLog spans(args.trace);

  // A round submits every instance once, in a seeded order.
  std::vector<int> order;
  for (size_t i = 0; i < stack->instances.size(); ++i) {
    order.push_back(static_cast<int>(i));
  }
  Rng order_rng(args.seed * 7919 + 1);

  ControlPlane::SubmitRequest request;
  request.workflow_name = "dag_adaptive";
  std::vector<std::string> job_ids;
  uint64_t request_seq = 0;
  uint64_t completed_operator_steps = 0;

  // Runs one request; returns its latency (ms), or a negative value when
  // it was refused, did not finish or did not succeed. Every job that
  // ran joins the journal and refinement checks.
  auto run_one = [&](const Instance& instance, JobRecord* record) {
    const uint64_t seq = ++request_seq;
    const double start = NowSeconds();
    auto id = spans.Record("service.submit", seq, 0, [&] {
      return plane.Submit(instance.graph, request);
    });
    if (!id.ok()) {
      result.failures.push_back("submit refused: " + id.status().ToString());
      return -1.0;
    }
    const bool idle = spans.Record("client.wait", seq, 0,
                                   [&] { return plane.WaitForIdle(120.0); });
    const double latency_ms = (NowSeconds() - start) * 1e3;
    auto got = plane.Get(id.value());
    if (!idle || !got.ok()) {
      result.failures.push_back("job " + id.value() + " did not finish");
      return -1.0;
    }
    job_ids.push_back(id.value());
    *record = std::move(got).value();
    completed_operator_steps += CompletedOperatorSteps(*record);
    if (record->state != JobState::kSucceeded) {
      result.failures.push_back(record->id + " (" + instance.name +
                                ") ended " + JobStateName(record->state) +
                                ": " + record->error);
      return -1.0;
    }
    if (spans.enabled()) {
      spans.Add("client.request", seq, 0, start, latency_ms / 1e3,
                instance.name);
      // The job's own wall-clock spans, placed on the benchmark's clock.
      for (const TraceSpan& span : record->trace->Snapshot()) {
        if (span.timeline != TraceContext::kWallTimeline ||
            !span.finished()) {
          continue;
        }
        spans.Add(span.name, seq, 0, start + span.start_us / 1e6,
                  span.duration_us / 1e6);
      }
    }
    return latency_ms;
  };

  const uint64_t refinements_start =
      CounterSum(server.metrics(), "ires_model_refinements_total");
  // Warm-up: each instance once, untimed but checked.
  for (const Instance& instance : stack->instances) {
    JobRecord record;
    ++result.attempted;
    if (run_one(instance, &record) < 0.0) {
      ++result.failed;
      continue;
    }
    CheckJob(*stack, instance, record, &result.failures);
  }

  const uint64_t refinements_before =
      CounterSum(server.metrics(), "ires_model_refinements_total");
  const uint64_t forced_before =
      CounterSum(server.metrics(), "ires_model_refit_forced_total");
  const uint64_t tasks_before =
      CounterSum(server.metrics(), "ires_sched_tasks_total");
  const HistogramTotals task_wait_before =
      HistogramSum(server.metrics(), "ires_sched_task_wait_seconds");
  const PlanCache::Stats cache_before = server.plan_cache().stats();
  const uint64_t events_before = server.journal().stats().appended;
  const uint64_t journal_before = plane.journal().stats().appended;

  LoopStats loop;
  std::vector<double> estimates;
  std::vector<double> plan_ms, queue_ms, refine_ms, exec_ms, dp_ms, steps;
  uint64_t timed_jobs = 0;
  while (loop.KeepMeasuring(args.seconds)) {
    order_rng.Shuffle(&order);
    std::vector<std::pair<int, JobRecord>> records;
    records.reserve(order.size());
    std::vector<double> latencies;
    const double cpu0 = CpuSeconds();
    const double wall0 = NowSeconds();
    for (int index : order) {
      JobRecord record;
      ++result.attempted;
      const double latency_ms = run_one(stack->instances[index], &record);
      if (latency_ms < 0.0) {
        ++result.failed;
        continue;
      }
      latencies.push_back(latency_ms);
      records.emplace_back(index, std::move(record));
    }
    loop.AddRound(latencies, NowSeconds() - wall0, CpuSeconds() - cpu0);

    for (const auto& [index, record] : records) {
      CheckJob(*stack, stack->instances[index], record, &result.failures);
      ++timed_jobs;
      if (estimates.size() < kMinRequests) {
        estimates.push_back(record.estimated_seconds);
      }
      plan_ms.push_back(record.plan_seconds * 1e3);
      queue_ms.push_back(record.queue_seconds * 1e3);
      steps.push_back(
          static_cast<double>(record.outcome.final_plan.steps.size()));
      if (args.trace) {
        const JobSpans job = ReadSpans(record);
        refine_ms.push_back(job.refine_ms);
        exec_ms.push_back(job.execute_ms);
        dp_ms.push_back(job.dp_ms);
      }
    }
  }

  // Journal: exactly one TERMINAL record per job, and it says SUCCEEDED.
  const JobJournal::DecodeResult decoded =
      JobJournal::Decode(plane.journal().Encode());
  std::map<std::string, int> terminals;
  for (const JobJournalRecord& rec : decoded.records) {
    if (rec.phase != JournalPhase::kTerminal) continue;
    ++terminals[rec.job];
    if (rec.state != "SUCCEEDED") {
      result.failures.push_back("journal: " + rec.job + " terminal " +
                                rec.state);
    }
  }
  for (const std::string& id : job_ids) {
    if (terminals[id] != 1) {
      result.failures.push_back("journal holds " +
                                std::to_string(terminals[id]) +
                                " TERMINAL records for " + id);
    }
  }
  if (terminals.size() != job_ids.size()) {
    result.failures.push_back("journal has terminal records for unknown jobs");
  }

  // Every completed operator step refines the models exactly once.
  const uint64_t refinements_end =
      CounterSum(server.metrics(), "ires_model_refinements_total");
  if (refinements_end - refinements_start != completed_operator_steps) {
    result.failures.push_back(
        "ires_model_refinements_total grew by " +
        std::to_string(refinements_end - refinements_start) + " for " +
        std::to_string(completed_operator_steps) +
        " completed operator steps");
  }

  loop.AddMetrics(&result);
  result.end_to_end["plan_est_s"] = {Mean(estimates), "s"};
  result.end_to_end["setup_s"] = {setup_s, "s"};

  const double jobs = static_cast<double>(timed_jobs);
  const PlanCache::Stats cache = server.plan_cache().stats();
  const double lookups = static_cast<double>(
      (cache.hits - cache_before.hits) + (cache.misses - cache_before.misses));
  const HistogramTotals task_wait =
      HistogramSum(server.metrics(), "ires_sched_task_wait_seconds");
  auto& layer = result.per_layer;
  layer["modeling.refine_ms"] = {Mean(refine_ms), "ms"};
  layer["modeling.observations_per_req"] = {
      Ratio(static_cast<double>(refinements_end - refinements_before), jobs),
      "count"};
  layer["modeling.forced_refits"] = {
      static_cast<double>(
          CounterSum(server.metrics(), "ires_model_refit_forced_total") -
          forced_before),
      "count"};
  layer["planner.plan_cache_hit_ratio"] = {
      Ratio(static_cast<double>(cache.hits - cache_before.hits), lookups),
      "ratio"};
  layer["planner.plan_ms"] = {Mean(plan_ms), "ms"};
  if (args.trace) {
    layer["planner.plan_ms_default_workers"] = {
        ProbeDefaultWorkers(args.seed, &result.failures), "ms"};
  }
  layer["planner.dp_ms"] = {Mean(dp_ms), "ms"};
  layer["service.submit_ms"] = {spans.MeanMs("service.submit"), "ms"};
  layer["service.queue_wait_ms"] = {Mean(queue_ms), "ms"};
  layer["threading.task_wait_ms"] = {
      Ratio((task_wait.sum - task_wait_before.sum) * 1e3,
            static_cast<double>(task_wait.count - task_wait_before.count)),
      "ms"};
  layer["threading.tasks_per_req"] = {
      Ratio(static_cast<double>(
                CounterSum(server.metrics(), "ires_sched_tasks_total") -
                tasks_before),
            jobs),
      "count"};
  layer["executor.exec_ms"] = {Mean(exec_ms), "ms"};
  layer["executor.steps_per_req"] = {Mean(steps), "count"};
  layer["service.journal_records_per_job"] = {
      Ratio(static_cast<double>(plane.journal().stats().appended -
                                journal_before),
            jobs),
      "count"};
  layer["telemetry.events_per_req"] = {
      Ratio(static_cast<double>(server.journal().stats().appended -
                                events_before),
            jobs),
      "count"};
  if (args.trace && !args.trace_out.empty()) spans.WriteJson(args.trace_out);
  return result;
}

}  // namespace perfbench
