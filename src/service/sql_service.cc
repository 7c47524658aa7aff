#include "service/sql_service.h"

#include <chrono>
#include <utility>

#include "sql/sql_parser.h"

namespace ires {

namespace {

/// Maps a front-end failure to its stable SQxxx code. Status codes line up
/// with the optimizer's contract: NotFound = unknown table/column/engine,
/// InvalidArgument = parse error or unsupported query (too many tables,
/// disconnected join graph), ResourceExhausted/FailedPrecondition = no
/// engine can hold the working set.
const char* SqlDiagCode(StatusCode code, bool parsed) {
  if (!parsed) return diag::kSqlParseError;
  switch (code) {
    case StatusCode::kNotFound: return diag::kSqlUnknownName;
    case StatusCode::kInvalidArgument: return diag::kSqlUnsupportedQuery;
    default: return diag::kSqlNoFeasiblePlan;
  }
}

const char* SqlOutcomeLabel(StatusCode code, bool parsed) {
  if (!parsed) return "parse_error";
  switch (code) {
    case StatusCode::kNotFound: return "unknown_name";
    case StatusCode::kInvalidArgument: return "unsupported";
    default: return "infeasible";
  }
}

}  // namespace

SqlService::SqlService(IresServer* server)
    : server_(server),
      catalog_(sql::MakeTpchCatalog(kTpchScaleGb, "PostgreSQL", "MemSQL",
                                    "SparkSQL")),
      engines_(sql::MakeStandardSqlEngines()) {
  optimizer_ = std::make_unique<sql::MusqleOptimizer>(&catalog_, &engines_);
  MetricsRegistry& metrics = server_->metrics();
  shape_hits_ = metrics.GetCounter(
      "ires_sql_shape_cache_hits_total",
      "SQL submissions whose parameterized shape was already prepared");
  shape_misses_ = metrics.GetCounter(
      "ires_sql_shape_cache_misses_total",
      "SQL submissions that required a fresh optimize+lower pass");
  optimize_seconds_ = metrics.GetHistogram(
      "ires_sql_optimize_seconds",
      "Wall-clock latency of one MuSQLE optimize+lower pass");
  // Pre-register the shared SqlScan/SqlJoin/SqlMove implementations once at
  // construction: the library version settles before the first query, so
  // consecutive same-shape submissions hit the plan cache warm.
  (void)sql::EnsureSqlOperators(&server_->library());
}

Result<SqlService::PreparedQuery> SqlService::Prepare(
    const std::string& sql_text, std::vector<Diagnostic>* diagnostics) {
  MetricsRegistry& metrics = server_->metrics();
  auto count_outcome = [&](const char* outcome) {
    metrics
        .GetCounter("ires_sql_queries_total",
                    "SQL submissions by outcome", {{"outcome", outcome}})
        ->Increment();
  };
  auto reject = [&](const Status& status, bool parsed) -> Status {
    count_outcome(SqlOutcomeLabel(status.code(), parsed));
    if (diagnostics != nullptr) {
      Diagnostic diag;
      diag.code = SqlDiagCode(status.code(), parsed);
      diag.severity = DiagSeverity::kError;
      diag.message = status.message();
      diag.fix_hint = parsed
                          ? "check table/column names against the TPC-H "
                            "catalog and keep the join graph connected"
                          : "the SQL subset is SELECT cols FROM tables "
                            "[WHERE col = col AND col <op> literal ...]";
      diagnostics->push_back(std::move(diag));
    }
    return status;
  };

  auto parsed = sql::SqlParser::Parse(sql_text);
  if (!parsed.ok()) return reject(parsed.status(), /*parsed=*/false);
  const sql::Query& query = parsed.value();
  const std::string shape = sql::QueryShape(query);

  {
    MutexLock lock(mu_);
    auto it = shape_cache_.find(shape);
    if (it != shape_cache_.end()) {
      shape_hits_->Increment();
      count_outcome("ok");
      PreparedQuery out = it->second;
      out.shape_cache_hit = true;
      return out;
    }
  }
  shape_misses_->Increment();

  const auto start = std::chrono::steady_clock::now();
  auto plan = optimizer_->Optimize(query);
  if (!plan.ok()) return reject(plan.status(), /*parsed=*/true);

  auto lowered = sql::LowerSqlPlan(query, plan.value(), catalog_,
                                   &server_->library());
  if (!lowered.ok()) {
    count_outcome("error");
    return lowered.status();
  }
  optimize_seconds_->Observe(
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count());

  const sql::LoweredWorkflow& low = lowered.value();
  auto count_kind = [&](const char* kind, int n) {
    if (n > 0) {
      metrics
          .GetCounter("ires_sql_lowered_nodes_total",
                      "Workflow operators produced by SQL plan lowering",
                      {{"kind", kind}})
          ->Increment(static_cast<uint64_t>(n));
    }
  };
  count_kind("scan", low.scan_ops);
  count_kind("join", low.join_ops);
  count_kind("move", low.move_ops);

  PreparedQuery out;
  out.shape_id = low.shape_id;
  out.shape = low.shape;
  out.result_engine = low.result_engine;
  out.estimated_seconds = plan.value().total_seconds;
  out.scan_ops = low.scan_ops;
  out.join_ops = low.join_ops;
  out.move_ops = low.move_ops;
  out.shape_cache_hit = false;
  out.graph = low.graph;

  {
    MutexLock lock(mu_);
    shape_cache_.emplace(shape, out);
  }
  count_outcome("ok");
  return out;
}

size_t SqlService::shape_cache_size() const {
  MutexLock lock(mu_);
  return shape_cache_.size();
}

}  // namespace ires
