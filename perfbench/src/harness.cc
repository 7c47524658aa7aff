#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <set>
#include <thread>

#include "analysis/plan_analyzer.h"
#include "core/ires_server.h"
#include "profiling/profiler.h"

namespace perfbench {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kib / 1024.0;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

void LoopStats::AddRound(const std::vector<double>& latencies_ms,
                         double wall_seconds, double cpu_seconds) {
  if (blocks_.empty() || blocks_.back().latencies_ms.size() >= kMinRequests) {
    blocks_.emplace_back();
  }
  Block& block = blocks_.back();
  block.latencies_ms.insert(block.latencies_ms.end(), latencies_ms.begin(),
                            latencies_ms.end());
  block.wall_seconds += wall_seconds;
  block.cpu_seconds += cpu_seconds;
  wall_seconds_ += wall_seconds;
  requests_ += latencies_ms.size();
}

void LoopStats::AddMetrics(RunResult* result) const {
  std::vector<Block> blocks = blocks_;
  // A short last block joins the one before it.
  if (blocks.size() > 1 && blocks.back().latencies_ms.size() < kMinRequests) {
    Block last = std::move(blocks.back());
    blocks.pop_back();
    Block& into = blocks.back();
    into.latencies_ms.insert(into.latencies_ms.end(),
                             last.latencies_ms.begin(),
                             last.latencies_ms.end());
    into.wall_seconds += last.wall_seconds;
    into.cpu_seconds += last.cpu_seconds;
  }
  std::vector<double> throughput, p50, p90, cpu;
  for (const Block& block : blocks) {
    const double n = static_cast<double>(block.latencies_ms.size());
    throughput.push_back(Ratio(n, block.wall_seconds));
    p50.push_back(Quantile(block.latencies_ms, 0.5));
    p90.push_back(Quantile(block.latencies_ms, 0.9));
    cpu.push_back(Ratio(block.cpu_seconds * 1e3, n));
  }
  result->end_to_end["throughput_rps"] = {Median(throughput), "1/s"};
  result->end_to_end["p50_ms"] = {Median(p50), "ms"};
  result->end_to_end["p90_ms"] = {Median(p90), "ms"};
  result->end_to_end["cpu_ms_per_req"] = {Median(cpu), "ms"};
  result->end_to_end["peak_rss_mb"] = {PeakRssMb(), "MB"};
}

void SpanLog::Add(const std::string& name, uint64_t request, int thread,
                  double start_s, double duration_s, std::string detail) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, request, thread, (start_s - epoch_) * 1e6,
                    duration_s * 1e6, std::move(detail)});
}

double SpanLog::MeanMs(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  double total = 0.0;
  size_t n = 0;
  for (const Span& span : spans_) {
    if (span.name != name) continue;
    total += span.duration_us;
    ++n;
  }
  return n == 0 ? 0.0 : total / static_cast<double>(n) / 1e3;
}

bool SpanLog::WriteJson(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("[\n", f);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"request\":%llu,\"thread\":%d,"
                 "\"start_us\":%.1f,\"duration_us\":%.1f,"
                 "\"detail\":\"%s\"}%s\n",
                 s.name.c_str(), static_cast<unsigned long long>(s.request),
                 s.thread, s.start_us, s.duration_us, s.detail.c_str(),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fputs("]\n", f);
  return std::fclose(f) == 0;
}

uint64_t CounterSum(const ires::MetricsRegistry& metrics,
                    const std::string& name) {
  uint64_t total = 0;
  metrics.VisitCounters(name, [&](const ires::LabelSet&, uint64_t value) {
    total += value;
  });
  return total;
}

HistogramTotals HistogramSum(const ires::MetricsRegistry& metrics,
                             const std::string& name) {
  HistogramTotals totals;
  metrics.VisitHistograms(
      name, [&](const ires::LabelSet&, const ires::Histogram& histogram) {
        totals.count += histogram.Count();
        totals.sum += histogram.Sum();
      });
  return totals;
}

ires::WorkflowGraph RenameGraph(
    const ires::WorkflowGraph& graph,
    const std::function<std::string(const ires::WorkflowGraph::Node&)>&
        rename) {
  using Node = ires::WorkflowGraph::Node;
  ires::WorkflowGraph out;
  std::vector<std::string> names;
  names.reserve(graph.size());
  for (size_t id = 0; id < graph.size(); ++id) {
    const Node& node = graph.node(static_cast<int>(id));
    names.push_back(rename(node));
    if (node.kind == ires::WorkflowGraph::NodeKind::kOperator) {
      out.AddOperator(names.back());
    } else {
      out.AddDataset(names.back());
    }
  }
  for (size_t id = 0; id < graph.size(); ++id) {
    const Node& node = graph.node(static_cast<int>(id));
    if (node.kind != ires::WorkflowGraph::NodeKind::kOperator) continue;
    for (size_t port = 0; port < node.inputs.size(); ++port) {
      (void)out.Connect(names[node.inputs[port]], names[id],
                        static_cast<int>(port));
    }
    for (size_t port = 0; port < node.outputs.size(); ++port) {
      (void)out.Connect(names[id], names[node.outputs[port]],
                        static_cast<int>(port));
    }
  }
  if (graph.target() >= 0) (void)out.SetTarget(names[graph.target()]);
  return out;
}

void CheckPlanAnalyzer(ires::IresServer& server,
                       const ires::ExecutionPlan& plan, const std::string& who,
                       std::vector<std::string>* failures) {
  ires::PlanAnalyzer::Options options;
  options.library = &server.library();
  options.engines = &server.engines();
  options.cluster_total_cores = server.cluster().total_cores();
  options.cluster_total_memory_gb = server.cluster().total_memory_gb();
  for (const ires::Diagnostic& d :
       ires::PlanAnalyzer(options).Analyze(plan)) {
    if (d.severity == ires::DiagSeverity::kError) {
      failures->push_back(who + " plan fails " + d.code + ": " + d.message);
    }
  }
}

void CheckOperatorCoverage(const ires::WorkflowGraph& graph,
                           const ires::ExecutionPlan& plan,
                           const std::string& who,
                           std::vector<std::string>* failures) {
  std::map<int, int> runs;
  for (size_t id = 0; id < graph.size(); ++id) {
    if (graph.node(static_cast<int>(id)).kind ==
        ires::WorkflowGraph::NodeKind::kOperator) {
      runs[static_cast<int>(id)] = 0;
    }
  }
  for (const ires::PlanStep& step : plan.steps) {
    if (step.kind != ires::PlanStep::Kind::kOperator) continue;
    std::set<int> producers;
    for (const ires::DatasetInstance& out : step.outputs) {
      const int ds = graph.node_id(out.dataset_node);
      if (ds < 0 || graph.node(ds).outputs.empty()) continue;
      producers.insert(graph.node(ds).outputs[0]);
    }
    if (producers.size() != 1) {
      failures->push_back(who + " step " + std::to_string(step.id) +
                          " maps to " + std::to_string(producers.size()) +
                          " operator nodes");
      continue;
    }
    ++runs[*producers.begin()];
  }
  for (const auto& [node, count] : runs) {
    if (count != 1) {
      failures->push_back(who + " operator " + graph.node(node).name +
                          " runs in " + std::to_string(count) + " steps");
    }
  }
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"modeling.refine_ms", "ms"},
      {"modeling.observations_per_req", "count"},
      {"modeling.forced_refits", "count"},
      {"planner.plan_cache_hit_ratio", "ratio"},
      {"planner.plan_ms", "ms"},
      {"planner.plan_ms_default_workers", "ms"},
      {"planner.dp_ms", "ms"},
      {"planner.candidate_cache_hit_ratio", "ratio"},
      {"analysis.lint_ms", "ms"},
      {"core.rest_ms", "ms"},
      {"sql.prepare_ms", "ms"},
      {"sql.shape_cache_hit_ratio", "ratio"},
      {"service.submit_ms", "ms"},
      {"service.queue_wait_ms", "ms"},
      {"threading.task_wait_ms", "ms"},
      {"threading.tasks_per_req", "count"},
      {"executor.exec_ms", "ms"},
      {"executor.steps_per_req", "count"},
      {"service.journal_records_per_job", "count"},
      {"telemetry.events_per_req", "count"},
  };
  return kMetrics;
}

std::vector<std::string> ProfileModelPairs(ires::IresServer* server,
                                           size_t samples, double min_bytes,
                                           double max_bytes, uint64_t seed) {
  using ires::OnlineEstimator;
  std::set<std::pair<std::string, std::string>> pairs;
  for (const auto& [name, op] : server->library().materialized()) {
    pairs.insert({op.algorithm(), op.engine()});
  }
  const double log_min = std::log(min_bytes);
  const double log_max = std::log(max_bytes);
  struct Drawn {
    ires::ModelLibrary::OperatorModels* models = nullptr;
    std::vector<OnlineEstimator::Sample> exec, bytes, records;
  };
  std::vector<Drawn> drawn;
  std::vector<std::string> short_pairs;
  // The profiling runs, pair by pair (cheap: the engines are simulated).
  for (const auto& [algorithm, engine_name] : pairs) {
    // Each pair draws from its own stream, so its window does not depend
    // on which other pairs the library holds.
    uint64_t pair_seed = seed;
    for (char c : algorithm + "/" + engine_name) {
      pair_seed =
          (pair_seed ^ static_cast<unsigned char>(c)) * 1099511628211ull;
    }
    ires::Rng rng(pair_seed);
    const ires::SimulatedEngine* engine =
        server->engines().Find(engine_name);
    if (engine == nullptr) {
      short_pairs.push_back(algorithm + "/" + engine_name);
      continue;
    }
    const bool centralized = engine->kind() == ires::EngineKind::kCentralized;
    ires::Profiler profiler(engine, pair_seed + 1);
    Drawn d;
    d.models = server->models().Get(algorithm, engine_name);
    for (size_t attempt = 0; attempt < samples * 64 && d.exec.size() < samples;
         ++attempt) {
      ires::OperatorRunRequest request;
      request.algorithm = algorithm;
      request.input_bytes = std::exp(rng.Uniform(log_min, log_max));
      request.input_records = request.input_bytes * 1e-3;
      request.resources.containers =
          centralized ? 1 : static_cast<int>(rng.UniformInt(1, 8));
      request.resources.cores = static_cast<int>(rng.UniformInt(1, 4));
      request.resources.memory_gb = rng.Uniform(1.0, 6.75);
      auto run = profiler.RunOnce(request);
      if (!run.ok()) continue;
      const ires::ProfileRecord& record = run.value();
      d.exec.push_back({record.features, record.exec_seconds});
      d.bytes.push_back({record.features, record.metrics.at("outputBytes")});
      d.records.push_back(
          {record.features, record.metrics.at("outputCount")});
    }
    if (d.exec.size() < samples) {
      short_pairs.push_back(algorithm + "/" + engine_name);
    }
    drawn.push_back(std::move(d));
  }
  // Importing fits each estimator (cross-validated model selection), which
  // is nearly all of the cost. Pairs are independent, so a few threads
  // import them side by side; each fit is seeded, so the models do not
  // depend on the order.
  std::atomic<size_t> next{0};
  auto import = [&] {
    for (size_t i; (i = next.fetch_add(1)) < drawn.size();) {
      Drawn& d = drawn[i];
      ires::MutexLock lock(d.models->mu);
      (void)d.models->exec_time.ImportSamples(d.exec);
      (void)d.models->output_bytes.ImportSamples(d.bytes);
      (void)d.models->output_records.ImportSamples(d.records);
    }
  };
  const unsigned threads =
      std::clamp(std::thread::hardware_concurrency(), 1u, kSetUpThreads);
  std::vector<std::thread> importers;
  for (unsigned t = 0; t < threads; ++t) importers.emplace_back(import);
  for (std::thread& t : importers) t.join();
  return short_pairs;
}

}  // namespace perfbench
