// sql_tpch: one closed-loop client sends the 18 MuSQLE TPC-H queries, each
// with seeded literals, to POST /apiv1/sql (synchronous: optimize, lower,
// plan, execute, refine, respond). Planning is analytic, so the refined
// models are written on every request but never read by the planner; the
// model windows start full.

#include <map>
#include <memory>
#include <regex>
#include <string>
#include <vector>

#include "common/json.h"
#include "core/ires_server.h"
#include "core/rest_api.h"
#include "harness.h"
#include "sql/catalog.h"
#include "sql/lowering.h"
#include "sql/musqle_optimizer.h"
#include "sql/sql_engine.h"
#include "sql/sql_parser.h"
#include "sql/tpch_queries.h"

namespace perfbench {
namespace {

using namespace ires;

constexpr size_t kWindow = 256;
/// The SqlService's default catalog scale.
constexpr double kTpchScaleGb = 10.0;

struct Stack {
  std::vector<std::string> unfilled_windows;
  std::unique_ptr<IresServer> server;
  std::unique_ptr<RestApi> api;
};

std::unique_ptr<Stack> BuildStack() {
  auto stack = std::make_unique<Stack>();
  IresServer::Config config;
  config.scheduler_workers = 4;
  stack->server = std::make_unique<IresServer>(config);
  // The REST front door owns the SqlService, which registers the
  // SqlScan/SqlJoin/SqlMove implementations the lowered plans run.
  stack->api = std::make_unique<RestApi>(stack->server.get());
  stack->unfilled_windows =
      ProfileModelPairs(stack->server.get(), kWindow, 1e3, 1e11, 2015);
  return stack;
}

/// Replaces every `column <op> literal` predicate's literal with a seeded
/// value from that column's domain. Join predicates (column = column) are
/// left alone. MuSQLE's estimates do not depend on literal values, so the
/// plans do not change with the seed; the parser and the shape cache see a
/// new text on every request.
std::string SeedLiterals(const std::string& query, Rng* rng) {
  static const std::vector<std::string> kNations = {
      "GERMANY", "FRANCE", "BRAZIL", "CHINA", "JAPAN", "KENYA", "PERU"};
  static const std::vector<std::string> kRegions = {"AFRICA", "AMERICA",
                                                    "ASIA", "EUROPE"};
  static const std::regex kPredicate(R"((\w+) ([=<>]) ('[^']*'|[0-9.]+))");
  std::string out;
  auto begin = query.cbegin();
  std::smatch m;
  while (std::regex_search(begin, query.cend(), m, kPredicate)) {
    out.append(begin, m[0].first);
    const std::string column = m[1];
    std::string literal = m[3];
    auto pick = [&](const std::vector<std::string>& domain) {
      return "'" + domain[rng->UniformInt(0, domain.size() - 1)] + "'";
    };
    if (column == "n_name") {
      literal = pick(kNations);
    } else if (column == "r_name") {
      literal = pick(kRegions);
    } else if (column == "c_acctbal") {
      literal = std::to_string(rng->UniformInt(8000, 9900));
    } else if (column == "p_retailprice") {
      literal = std::to_string(rng->UniformInt(2000, 2099));
    } else if (column == "l_quantity" || column == "p_size") {
      literal = std::to_string(rng->UniformInt(1, 50));
    } else if (column == "l_shipdate") {
      char date[16];
      std::snprintf(date, sizeof(date), "'1995-%02d-%02d'",
                    static_cast<int>(rng->UniformInt(1, 12)),
                    static_cast<int>(rng->UniformInt(1, 28)));
      literal = date;
    }
    out += column + " " + std::string(m[2]) + " " + literal;
    begin = m[0].second;
  }
  out.append(begin, query.cend());
  return out;
}

/// Tables in the query's FROM list, counted from the text.
int CountFromTables(const std::string& query) {
  const size_t from = query.find(" FROM ");
  const size_t where = query.find(" WHERE ");
  if (from == std::string::npos) return 0;
  const std::string list =
      query.substr(from + 6, where == std::string::npos
                                 ? std::string::npos
                                 : where - from - 6);
  int tables = 1;
  for (char c : list) tables += c == ',' ? 1 : 0;
  return tables;
}

struct Response {
  bool ok = false;
  std::string shape_id;
  bool shape_cache_hit = false;
  double estimated_seconds = 0.0;
  int scans = -1;
  int joins = -1;
};

Response ParseResponse(const ApiResponse& response) {
  Response out;
  if (response.code != 200) return out;
  auto json = JsonValue::Parse(response.body);
  if (!json.ok()) return out;
  const JsonValue& body = json.value();
  const JsonValue* shape = body.Find("shapeId");
  const JsonValue* hit = body.Find("shapeCacheHit");
  const JsonValue* est = body.Find("estimatedSeconds");
  const JsonValue* scans = body.Find("scans");
  const JsonValue* joins = body.Find("joins");
  if (shape == nullptr || hit == nullptr || est == nullptr ||
      scans == nullptr || joins == nullptr) {
    return out;
  }
  out.ok = true;
  out.shape_id = shape->string_value();
  out.shape_cache_hit = hit->bool_value();
  out.estimated_seconds = est->number_value();
  out.scans = static_cast<int>(scans->number_value());
  out.joins = static_cast<int>(joins->number_value());
  return out;
}

/// Best single-engine MuSQLE cost of `query`, from the benchmark's own
/// optimizer over the same catalog and engine fleet the SqlService uses.
/// Negative when no single engine can run it.
double BestSingleEngineSeconds(const std::string& query) {
  static const sql::Catalog catalog = sql::MakeTpchCatalog(
      kTpchScaleGb, "PostgreSQL", "MemSQL", "SparkSQL");
  static const auto engines = sql::MakeStandardSqlEngines();
  const sql::MusqleOptimizer optimizer(&catalog, &engines);
  auto parsed = sql::SqlParser::Parse(query);
  if (!parsed.ok()) return -1.0;
  double best = -1.0;
  for (const auto& [name, engine] : engines) {
    auto plan = optimizer.PlanSingleEngine(parsed.value(), name);
    if (!plan.ok()) continue;
    if (best < 0.0 || plan.value().total_seconds < best) {
      best = plan.value().total_seconds;
    }
  }
  return best;
}

}  // namespace

RunResult RunSqlTpch(const Args& args) {
  RunResult result;
  double setup_s = 0.0;
  const std::unique_ptr<Stack> stack = SetUp(BuildStack, &setup_s);
  for (const std::string& pair : stack->unfilled_windows) {
    result.failures.push_back("offline profiling left " + pair + " short");
  }
  IresServer& server = *stack->server;
  RestApi& api = *stack->api;
  SpanLog spans(args.trace);

  const std::vector<std::string> queries = sql::MusqleQuerySet();
  // A round sends every query once, in a seeded order.
  std::vector<int> order;
  for (size_t q = 0; q < queries.size(); ++q) {
    order.push_back(static_cast<int>(q));
  }
  Rng rng(args.seed * 7919 + 2);

  // Per shape: the text of its first sighting and the MuSQLE cost the
  // service reported for it.
  struct ShapeSeen {
    std::string first_text;
    double estimated_seconds = 0.0;
  };
  std::map<std::string, ShapeSeen> shapes;
  uint64_t seq = 0;

  // Sends one query; returns its latency (ms), negative when it failed.
  auto run_one = [&](int q, Response* out) {
    const std::string text = SeedLiterals(queries[q], &rng);
    const uint64_t id = ++seq;
    const double start = NowSeconds();
    const ApiResponse response = api.Handle("POST", "/apiv1/sql", text);
    const double latency_ms = (NowSeconds() - start) * 1e3;
    if (spans.enabled()) {
      spans.Add("core.rest", id, 0, start, latency_ms / 1e3,
                std::string("Q").append(std::to_string(q)));
    }
    if (args.trace) {
      spans.Record("sql.parse_shape", id, 0, [&] {
        auto parsed = sql::SqlParser::Parse(text);
        return parsed.ok() ? sql::QueryShape(parsed.value()) : std::string();
      });
    }
    *out = ParseResponse(response);
    const std::string who = "Q" + std::to_string(q);
    if (!out->ok) {
      result.failures.push_back(who + " answered " +
                                std::to_string(response.code) + ": " +
                                response.body);
      return -1.0;
    }
    const int tables = CountFromTables(text);
    if (out->scans != tables || out->joins != tables - 1) {
      result.failures.push_back(
          who + " reports scans=" + std::to_string(out->scans) +
          " joins=" + std::to_string(out->joins) + " for " +
          std::to_string(tables) + " tables");
    }
    auto seen = shapes.find(out->shape_id);
    if (seen == shapes.end()) {
      if (out->shape_cache_hit) {
        result.failures.push_back(who + " hit the shape cache on first sight");
      }
      shapes[out->shape_id] = {text, out->estimated_seconds};
    } else if (!out->shape_cache_hit) {
      result.failures.push_back(who + " missed the shape cache after " +
                                "its first sighting");
    }
    return latency_ms;
  };

  // Warm-up: every query once (each shape's first sighting), untimed.
  for (size_t q = 0; q < queries.size(); ++q) {
    Response response;
    ++result.attempted;
    if (run_one(static_cast<int>(q), &response) < 0.0) ++result.failed;
  }

  MetricsRegistry& metrics = server.metrics();
  const uint64_t refinements_before =
      CounterSum(metrics, "ires_model_refinements_total");
  const uint64_t forced_before =
      CounterSum(metrics, "ires_model_refit_forced_total");
  const uint64_t steps_before = CounterSum(metrics, "ires_engine_steps_total");
  const uint64_t shape_hits_before =
      CounterSum(metrics, "ires_sql_shape_cache_hits_total");
  const uint64_t shape_misses_before =
      CounterSum(metrics, "ires_sql_shape_cache_misses_total");
  const HistogramTotals plan_before =
      HistogramSum(metrics, "ires_planner_plan_seconds");
  const PlanCache::Stats cache_before = server.plan_cache().stats();

  LoopStats loop;
  std::vector<double> estimates;
  uint64_t timed = 0;
  while (loop.KeepMeasuring(args.seconds)) {
    rng.Shuffle(&order);
    std::vector<double> latencies;
    const double cpu0 = CpuSeconds();
    const double wall0 = NowSeconds();
    for (int q : order) {
      Response response;
      ++result.attempted;
      const double latency_ms = run_one(q, &response);
      if (latency_ms < 0.0) {
        ++result.failed;
        continue;
      }
      ++timed;
      latencies.push_back(latency_ms);
      if (estimates.size() < kMinRequests) {
        estimates.push_back(response.estimated_seconds);
      }
    }
    loop.AddRound(latencies, NowSeconds() - wall0, CpuSeconds() - cpu0);
  }

  // Multi-engine MuSQLE never costs more than the best single engine
  // (estimates are printed to 3 decimals).
  for (const auto& [shape, seen] : shapes) {
    const double single = BestSingleEngineSeconds(seen.first_text);
    if (single >= 0.0 && seen.estimated_seconds > single + 5e-4) {
      result.failures.push_back("shape " + shape + " costs " +
                                std::to_string(seen.estimated_seconds) +
                                " s, best single engine " +
                                std::to_string(single) + " s");
    }
  }

  loop.AddMetrics(&result);
  result.end_to_end["plan_est_s"] = {Mean(estimates), "s"};
  result.end_to_end["setup_s"] = {setup_s, "s"};

  const double requests = static_cast<double>(timed);
  const uint64_t shape_hits =
      CounterSum(metrics, "ires_sql_shape_cache_hits_total") -
      shape_hits_before;
  const uint64_t shape_misses =
      CounterSum(metrics, "ires_sql_shape_cache_misses_total") -
      shape_misses_before;
  const PlanCache::Stats cache = server.plan_cache().stats();
  const HistogramTotals plan =
      HistogramSum(metrics, "ires_planner_plan_seconds");
  auto& layer = result.per_layer;
  layer["core.rest_ms"] = {spans.MeanMs("core.rest"), "ms"};
  layer["sql.prepare_ms"] = {spans.MeanMs("sql.parse_shape"), "ms"};
  layer["sql.shape_cache_hit_ratio"] = {
      Ratio(static_cast<double>(shape_hits),
            static_cast<double>(shape_hits + shape_misses)),
      "ratio"};
  layer["modeling.observations_per_req"] = {
      Ratio(static_cast<double>(
                CounterSum(metrics, "ires_model_refinements_total") -
                refinements_before),
            requests),
      "count"};
  layer["modeling.forced_refits"] = {
      static_cast<double>(
          CounterSum(metrics, "ires_model_refit_forced_total") -
          forced_before),
      "count"};
  layer["executor.steps_per_req"] = {
      Ratio(static_cast<double>(
                CounterSum(metrics, "ires_engine_steps_total") - steps_before),
            requests),
      "count"};
  layer["planner.plan_ms"] = {
      Ratio((plan.sum - plan_before.sum) * 1e3, requests), "ms"};
  layer["planner.plan_cache_hit_ratio"] = {
      Ratio(static_cast<double>(cache.hits - cache_before.hits),
            static_cast<double>((cache.hits - cache_before.hits) +
                                (cache.misses - cache_before.misses))),
      "ratio"};
  if (args.trace && !args.trace_out.empty()) spans.WriteJson(args.trace_out);
  return result;
}

}  // namespace perfbench
