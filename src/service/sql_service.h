#ifndef IRES_SERVICE_SQL_SERVICE_H_
#define IRES_SERVICE_SQL_SERVICE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "analysis/diagnostics.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "core/ires_server.h"
#include "sql/catalog.h"
#include "sql/lowering.h"
#include "sql/musqle_optimizer.h"
#include "sql/sql_engine.h"
#include "telemetry/metrics_registry.h"

namespace ires {

/// The SQL front door of the serving stack: parses a query, runs the MuSQLE
/// multi-engine optimizer over the federated fleet, and lowers the winning
/// plan onto the server's workflow stack — so a SQL submission flows through
/// the exact same admission control, static analysis, plan cache, tracing
/// and recovery machinery as any other workflow.
///
/// Repeated query *shapes* (same query modulo literal values) are served
/// from an internal shape cache: parse/optimize/lower are skipped and — more
/// importantly — no library artefact is re-registered, so the operator
/// library version stays put and the planner-level PlanCache returns the
/// previously computed ExecutionPlan warm.
///
/// Telemetry (in the server's registry):
///   ires_sql_queries_total{outcome=...}   accepted / rejected submissions
///   ires_sql_shape_cache_hits_total / ires_sql_shape_cache_misses_total
///   ires_sql_optimize_seconds             MuSQLE enumeration latency
///   ires_sql_lowered_nodes_total{kind=scan|join|move}
class SqlService {
 public:
  /// TPC-H catalog scale (GB) behind the federated fleet.
  static constexpr double kTpchScaleGb = 10.0;

  explicit SqlService(IresServer* server);

  SqlService(const SqlService&) = delete;
  SqlService& operator=(const SqlService&) = delete;

  /// A query made ready for submission: optimized, lowered and with its
  /// workflow artefacts registered in the server's library.
  struct PreparedQuery {
    std::string shape_id;       // sqlq_<hash> — doubles as the workflow name
    std::string shape;          // canonical parameterized form
    std::string result_engine;  // engine holding the final result
    double estimated_seconds = 0.0;  // MuSQLE's plan cost estimate
    int scan_ops = 0;
    int join_ops = 0;
    int move_ops = 0;
    bool shape_cache_hit = false;
    WorkflowGraph graph;
  };

  /// Parses + optimizes + lowers `sql_text`. On a user error (bad SQL,
  /// unknown table/column, unsupported or infeasible query) the returned
  /// status is the underlying failure and `diagnostics` receives one SQxxx
  /// finding describing it — the REST layer renders those as the structured
  /// 422 envelope. Internal errors leave `diagnostics` empty.
  Result<PreparedQuery> Prepare(const std::string& sql_text,
                                std::vector<Diagnostic>* diagnostics)
      EXCLUDES(mu_);

  const sql::Catalog& catalog() const { return catalog_; }

  /// Entries currently held by the shape cache.
  size_t shape_cache_size() const EXCLUDES(mu_);

 private:
  IresServer* server_;
  sql::Catalog catalog_;
  std::map<std::string, std::unique_ptr<sql::SqlEngine>> engines_;
  std::unique_ptr<sql::MusqleOptimizer> optimizer_;

  /// Guards only the shape cache; the miss path (parse, optimize, lower)
  /// runs between the probe and the insert, so concurrent misses on
  /// different shapes optimize in parallel.
  mutable Mutex mu_{LockRank::kSqlShapeCache, "sql.shape_cache"};
  std::map<std::string, PreparedQuery> shape_cache_ GUARDED_BY(mu_);

  Counter* shape_hits_;
  Counter* shape_misses_;
  Histogram* optimize_seconds_;
};

}  // namespace ires

#endif  // IRES_SERVICE_SQL_SERVICE_H_
