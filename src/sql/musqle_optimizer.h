#ifndef IRES_SQL_MUSQLE_OPTIMIZER_H_
#define IRES_SQL_MUSQLE_OPTIMIZER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "sql/catalog.h"
#include "sql/sql_engine.h"
#include "sql/sql_parser.h"

namespace ires::sql {

/// One node of a multi-engine SQL execution plan.
struct SqlPlanNode {
  enum class Kind { kScan, kJoin, kMove };

  int id = -1;
  Kind kind = Kind::kScan;
  std::string engine;          // where the node runs / where data lands
  std::string table;           // scans: base table name
  std::vector<int> children;   // node ids (0 for scan, 1 for move, 2 join)
  RelationStats output;
  double seconds = 0.0;        // this node's estimated seconds
};

/// A complete multi-engine SQL plan.
struct SqlPlan {
  std::vector<SqlPlanNode> nodes;
  int root = -1;
  double total_seconds = 0.0;  // sum of node estimates
  std::string result_engine;

  std::string ToString() const;
  int CountKind(SqlPlanNode::Kind kind) const;
};

/// Optimization-time accounting mirroring MuSQLE Figures 4-5: how much of
/// the optimization was plan enumeration versus external engine API calls.
struct OptimizerStats {
  int explain_calls = 0;   // JoinSeconds/ScanSeconds estimates requested
  int inject_calls = 0;    // statistics injections for shipped temps
  int load_cost_calls = 0; // getLoadCost queries
  double enumeration_wall_seconds = 0.0;
  /// Modeled API latency (per-call round-trips; see DESIGN.md): the wall
  /// clock an out-of-process EXPLAIN/inject endpoint would have added.
  double modeled_explain_seconds = 0.0;
  double modeled_inject_seconds = 0.0;
};

/// MuSQLE's location-aware join-order optimizer: DPccp-style dynamic
/// programming over connected subgraphs of the join graph, with one dpTable
/// row per (subgraph, engine). emitCsgCmp considers executing every
/// csg-cmp-pair's join on every engine, shipping whichever side is
/// elsewhere (move + injectStats) — Algorithm 1 of the MuSQLE paper.
class MusqleOptimizer {
 public:
  /// How csg-cmp pairs are generated.
  enum class Enumeration {
    /// Submask enumeration with connectivity filters (simple, O(3^n)).
    kSubmask,
    /// DPccp neighborhood expansion (Moerkotte & Neumann): emits each pair
    /// exactly once without touching disconnected subsets — the algorithm
    /// the MuSQLE paper builds on.
    kDpccp,
    /// Left-deep trees only (one side of every join is a base relation) —
    /// the classic System-R restriction, kept as an ablation baseline:
    /// cheaper enumeration, potentially worse plans on bushy-friendly
    /// queries.
    kLeftDeep,
  };

  /// Modeled per-call latency of external estimation endpoints.
  static constexpr double kExplainCallSeconds = 2e-3;
  static constexpr double kInjectCallSeconds = 5e-4;

  struct Options {
    Enumeration enumeration = Enumeration::kDpccp;
  };

  MusqleOptimizer(const Catalog* catalog,
                  const std::map<std::string, std::unique_ptr<SqlEngine>>*
                      engines)
      : MusqleOptimizer(catalog, engines, Options()) {}
  MusqleOptimizer(const Catalog* catalog,
                  const std::map<std::string, std::unique_ptr<SqlEngine>>*
                      engines,
                  Options options);

  /// Optimizes a parsed query. Fails when a referenced table/column is
  /// unknown or the join graph is disconnected (cartesian products are not
  /// enumerated).
  Result<SqlPlan> Optimize(const Query& query,
                           OptimizerStats* stats = nullptr) const;

  /// Baseline: run the whole query on `engine_name`, first shipping in
  /// every table that is not already resident. Fails (ResourceExhausted)
  /// when the engine cannot hold the working set — the "OOM" markers of
  /// MuSQLE Figures 9-10.
  Result<SqlPlan> PlanSingleEngine(const Query& query,
                                   const std::string& engine_name) const;

  /// Cardinality model: estimated output rows of joining the given subset
  /// of the query's tables (with filters applied). Exposed for tests.
  Result<RelationStats> EstimateSubset(const Query& query,
                                       uint32_t table_mask) const;

 private:
  const Catalog* catalog_;
  const std::map<std::string, std::unique_ptr<SqlEngine>>* engines_;
  Options options_;
};

/// Outcome of simulating a plan execution.
struct SqlExecutionOutcome {
  /// Total engine-busy seconds (sum over nodes) — what a serial executor
  /// would take and what resource accounting charges.
  double busy_seconds = 0.0;
  /// End-to-end latency when independent subtrees run concurrently (Spark
  /// as the orchestrator overlaps the per-engine subqueries).
  double makespan_seconds = 0.0;
};

/// Simulates executing a plan: each node's estimate is scaled by its
/// engine's ground-truth factor (systematic bias x noise); a node starts
/// when all its children finished.
SqlExecutionOutcome SimulateSqlPlan(
    const SqlPlan& plan,
    const std::map<std::string, std::unique_ptr<SqlEngine>>& engines,
    Rng* rng);

/// Convenience: the busy-seconds of SimulateSqlPlan (the metric the TPC-H
/// figures report).
double ExecutePlanGroundTruth(
    const SqlPlan& plan,
    const std::map<std::string, std::unique_ptr<SqlEngine>>& engines,
    Rng* rng);

}  // namespace ires::sql

#endif  // IRES_SQL_MUSQLE_OPTIMIZER_H_
