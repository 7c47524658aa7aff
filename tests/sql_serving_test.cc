// End-to-end suite for the SQL front door: POST /apiv1/sql parses a TPC-H
// query, runs the MuSQLE optimizer, lowers the federated plan onto the
// workflow stack and executes it through the ordinary serving machinery —
// admission control, static analysis, plan cache, metrics and the jobs
// surface all apply. Also covers the structured request-options body shared
// with the execute route, and the JSON request parser behind both.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/json.h"
#include "core/request_options.h"
#include "core/rest_api.h"
#include "service/control_plane.h"
#include "service/sql_service.h"
#include "sql/lowering.h"
#include "sql/sql_parser.h"
#include "sql/tpch_queries.h"

namespace ires {
namespace {

// ------------------------------------------------------------ JSON parser

TEST(JsonValueTest, ParsesNestedDocument) {
  auto parsed = JsonValue::Parse(
      "{\"a\": 1.5, \"b\": [true, null, \"x\\ny\"], \"c\": {\"d\": -2e3}}");
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  const JsonValue& v = parsed.value();
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.GetNumber("a", 0), 1.5);
  const JsonValue* b = v.Find("b");
  ASSERT_NE(b, nullptr);
  ASSERT_TRUE(b->is_array());
  ASSERT_EQ(b->array().size(), 3u);
  EXPECT_TRUE(b->array()[0].bool_value());
  EXPECT_TRUE(b->array()[1].is_null());
  EXPECT_EQ(b->array()[2].string_value(), "x\ny");
  const JsonValue* c = v.Find("c");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->GetNumber("d", 0), -2000.0);
}

TEST(JsonValueTest, DecodesUnicodeEscapes) {
  auto parsed = JsonValue::Parse("\"caf\\u00e9\"");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().string_value(), "caf\xc3\xa9");
}

TEST(JsonValueTest, RejectsMalformedDocuments) {
  EXPECT_FALSE(JsonValue::Parse("").ok());
  EXPECT_FALSE(JsonValue::Parse("{\"a\":}").ok());
  EXPECT_FALSE(JsonValue::Parse("{\"a\":1,}").ok());
  EXPECT_FALSE(JsonValue::Parse("{} trailing").ok());
  EXPECT_FALSE(JsonValue::Parse("{'single':1}").ok());
  EXPECT_FALSE(JsonValue::Parse("01").ok());
}

TEST(JsonValueTest, RejectsPathologicalNesting) {
  std::string deep(100, '[');
  deep += std::string(100, ']');
  auto parsed = JsonValue::Parse(deep);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
}

// ------------------------------------------------------- shape fingerprint

TEST(QueryShapeTest, LiteralsNormalizeToSameShape) {
  auto a = sql::SqlParser::Parse(
      "SELECT * FROM customer, orders WHERE c_custkey = o_custkey AND "
      "c_acctbal > 9000");
  auto b = sql::SqlParser::Parse(
      "SELECT * FROM customer, orders WHERE c_custkey = o_custkey AND "
      "c_acctbal > 17");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(sql::QueryShape(a.value()), sql::QueryShape(b.value()));
  EXPECT_EQ(sql::QueryShapeId(a.value()), sql::QueryShapeId(b.value()));
}

TEST(QueryShapeTest, StructureChangesTheShape) {
  auto base = sql::SqlParser::Parse(
      "SELECT * FROM customer, orders WHERE c_custkey = o_custkey AND "
      "c_acctbal > 9000");
  auto different_op = sql::SqlParser::Parse(
      "SELECT * FROM customer, orders WHERE c_custkey = o_custkey AND "
      "c_acctbal < 9000");
  auto different_tables = sql::SqlParser::Parse(
      "SELECT * FROM orders, lineitem WHERE o_orderkey = l_orderkey");
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(different_op.ok());
  ASSERT_TRUE(different_tables.ok());
  EXPECT_NE(sql::QueryShape(base.value()),
            sql::QueryShape(different_op.value()));
  EXPECT_NE(sql::QueryShape(base.value()),
            sql::QueryShape(different_tables.value()));
}

// ---------------------------------------------------------------- lowering

TEST(SqlLoweringTest, EnsureSqlOperatorsIsIdempotent) {
  IresServer server;
  EXPECT_EQ(sql::EnsureSqlOperators(&server.library()), 9);
  EXPECT_EQ(sql::EnsureSqlOperators(&server.library()), 0);
}

TEST(SqlLoweringTest, LoweredGraphPassesTheWorkflowLinter) {
  IresServer server;
  SqlService svc(&server);
  std::vector<Diagnostic> diagnostics;
  auto prepared = svc.Prepare(
      "SELECT * FROM customer, orders, lineitem WHERE "
      "c_custkey = o_custkey AND o_orderkey = l_orderkey",
      &diagnostics);
  ASSERT_TRUE(prepared.ok()) << prepared.status().message();
  EXPECT_TRUE(diagnostics.empty());
  const SqlService::PreparedQuery& pq = prepared.value();
  // Three base relations -> at least 2 joins; the exact split between
  // scans and moves is the optimizer's call.
  EXPECT_EQ(pq.join_ops, 2);
  EXPECT_GE(pq.scan_ops + pq.move_ops, 3);
  EXPECT_FALSE(pq.shape_cache_hit);
  const std::vector<Diagnostic> findings = server.ValidateWorkflow(pq.graph);
  EXPECT_FALSE(HasErrors(findings)) << RenderJson(findings);
}

TEST(SqlServiceTest, ShapeCacheHitsOnDifferentLiterals) {
  IresServer server;
  SqlService svc(&server);
  std::vector<Diagnostic> diagnostics;
  auto first = svc.Prepare(
      "SELECT * FROM customer, orders WHERE c_custkey = o_custkey AND "
      "c_acctbal > 9000",
      &diagnostics);
  ASSERT_TRUE(first.ok()) << first.status().message();
  EXPECT_FALSE(first.value().shape_cache_hit);
  auto second = svc.Prepare(
      "SELECT * FROM customer, orders WHERE c_custkey = o_custkey AND "
      "c_acctbal > 42",
      &diagnostics);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.value().shape_cache_hit);
  EXPECT_EQ(second.value().shape_id, first.value().shape_id);
  EXPECT_EQ(svc.shape_cache_size(), 1u);
}

TEST(SqlServiceTest, RejectionsCarryStructuredDiagnostics) {
  IresServer server;
  SqlService svc(&server);
  std::vector<Diagnostic> diagnostics;
  auto bad_syntax = svc.Prepare("SELEC * FRM nowhere", &diagnostics);
  ASSERT_FALSE(bad_syntax.ok());
  ASSERT_EQ(diagnostics.size(), 1u);
  EXPECT_EQ(diagnostics[0].code, diag::kSqlParseError);

  diagnostics.clear();
  auto bad_table = svc.Prepare(
      "SELECT * FROM nosuchtable, orders WHERE x_key = o_custkey",
      &diagnostics);
  ASSERT_FALSE(bad_table.ok());
  ASSERT_EQ(diagnostics.size(), 1u);
  EXPECT_EQ(diagnostics[0].code, diag::kSqlUnknownName);
}

// --------------------------------------------------------- REST: /apiv1/sql

class SqlApiTest : public ::testing::Test {
 protected:
  SqlApiTest() : plane_(&server_), api_(&server_, &plane_) {}

  /// Registers the one-operator workflow `lc` (LineCount on Spark).
  void RegisterLineCount() {
    ASSERT_EQ(api_.Handle("POST", "/apiv1/datasets/asapServerLog",
                          "Constraints.Engine.FS=HDFS\n"
                          "Execution.path=hdfs:///log\n"
                          "Optimization.size=5e8\n")
                  .code,
              201);
    ASSERT_EQ(api_.Handle("POST", "/apiv1/abstractOperators/LineCount",
                          "Constraints.OpSpecification.Algorithm.name="
                          "LineCount\n")
                  .code,
              201);
    ASSERT_EQ(api_.Handle("POST", "/apiv1/operators/LineCount_Spark",
                          "Constraints.Engine=Spark\n"
                          "Constraints.OpSpecification.Algorithm.name="
                          "LineCount\n"
                          "Constraints.Input0.Engine.FS=HDFS\n"
                          "Constraints.Output0.Engine.FS=HDFS\n")
                  .code,
              201);
    ASSERT_EQ(api_.Handle("POST", "/apiv1/workflows/lc",
                          "asapServerLog,LineCount,0\n"
                          "LineCount,d1,0\n"
                          "d1,$$target\n")
                  .code,
              201);
  }

  IresServer server_;
  ControlPlane plane_;
  RestApi api_;
};

TEST_F(SqlApiTest, RunsTpchQueriesSynchronously) {
  const std::vector<std::string> queries = sql::MusqleQuerySet();
  // Q0 (2-way), Q5 (3-way) and Q11 (join + filter) — small enough to keep
  // the suite fast, together covering scans, joins and moves.
  for (const int q : {0, 5, 11}) {
    ApiResponse response = api_.Handle("POST", "/apiv1/sql", queries[q]);
    ASSERT_EQ(response.code, 200) << "Q" << q << ": " << response.body;
    EXPECT_NE(response.body.find("\"shapeId\":\"sqlq_"), std::string::npos);
    EXPECT_NE(response.body.find("\"executionSeconds\":"), std::string::npos);
    EXPECT_NE(response.body.find("\"resultEngine\":"), std::string::npos);
  }
}

TEST_F(SqlApiTest, AsyncSubmissionRunsThroughTheJobsSurface) {
  ApiResponse response = api_.Handle(
      "POST", "/apiv1/sql?mode=async",
      "SELECT * FROM customer, nation WHERE c_nationkey = n_nationkey");
  ASSERT_EQ(response.code, 202) << response.body;
  const size_t at = response.body.find("\"jobId\":\"");
  ASSERT_NE(at, std::string::npos) << response.body;
  const size_t start = at + 9;
  const std::string job_id =
      response.body.substr(start, response.body.find('"', start) - start);
  ASSERT_TRUE(plane_.WaitForIdle(30.0));

  ApiResponse record = api_.Handle("GET", "/apiv1/jobs/" + job_id);
  ASSERT_EQ(record.code, 200);
  EXPECT_NE(record.body.find("\"state\":\"SUCCEEDED\""), std::string::npos)
      << record.body;
  // The job is named after the query shape, so SQL work is recognizable in
  // the job listing.
  EXPECT_NE(record.body.find("\"workflow\":\"sqlq_"), std::string::npos);
  ApiResponse listing = api_.Handle("GET", "/apiv1/jobs");
  EXPECT_NE(listing.body.find(job_id), std::string::npos);
}

TEST_F(SqlApiTest, ModeCanComeFromTheOptionsBody) {
  ApiResponse response = api_.Handle(
      "POST", "/apiv1/sql",
      "{\"query\":\"SELECT * FROM nation, region WHERE "
      "n_regionkey = r_regionkey\","
      "\"options\":{\"execution\":{\"mode\":\"async\"},"
      "\"retry\":{\"attempts\":2}}}");
  ASSERT_EQ(response.code, 202) << response.body;
  EXPECT_NE(response.body.find("\"jobId\":\""), std::string::npos);
  ASSERT_TRUE(plane_.WaitForIdle(30.0));
}

TEST_F(SqlApiTest, MalformedSqlYieldsStructured422) {
  ApiResponse response =
      api_.Handle("POST", "/apiv1/sql", "SELEC oops FRM nowhere");
  ASSERT_EQ(response.code, 422) << response.body;
  EXPECT_NE(response.body.find("\"diagnostics\":["), std::string::npos);
  EXPECT_NE(response.body.find("\"SQ001\""), std::string::npos);
}

TEST_F(SqlApiTest, UnknownTableYields422WithUnknownNameCode) {
  ApiResponse response = api_.Handle(
      "POST", "/apiv1/sql",
      "SELECT * FROM martians, orders WHERE m_key = o_custkey");
  ASSERT_EQ(response.code, 422) << response.body;
  EXPECT_NE(response.body.find("\"SQ002\""), std::string::npos);
}

TEST_F(SqlApiTest, EmptyQueryIsRejected) {
  EXPECT_EQ(api_.Handle("POST", "/apiv1/sql", "   ").code, 400);
  EXPECT_EQ(api_.Handle("POST", "/apiv1/sql", "{\"options\":{}}").code, 400);
}

TEST_F(SqlApiTest, RepeatedShapeHitsBothCachesWarm) {
  ApiResponse cold = api_.Handle(
      "POST", "/apiv1/sql",
      "SELECT * FROM customer, orders WHERE c_custkey = o_custkey AND "
      "c_acctbal > 9000");
  ASSERT_EQ(cold.code, 200) << cold.body;
  EXPECT_NE(cold.body.find("\"shapeCacheHit\":false"), std::string::npos);
  EXPECT_NE(cold.body.find("\"planCacheHit\":false"), std::string::npos);

  // Same shape, different literal: optimize/lower are skipped (shape cache)
  // and no artefact registration moved the library version, so the DP
  // planner's PlanCache serves the execution plan warm too.
  ApiResponse warm = api_.Handle(
      "POST", "/apiv1/sql",
      "SELECT * FROM customer, orders WHERE c_custkey = o_custkey AND "
      "c_acctbal > 123");
  ASSERT_EQ(warm.code, 200) << warm.body;
  EXPECT_NE(warm.body.find("\"shapeCacheHit\":true"), std::string::npos);
  EXPECT_NE(warm.body.find("\"planCacheHit\":true"), std::string::npos);
}

TEST_F(SqlApiTest, SqlTrafficShowsUpInMetrics) {
  ASSERT_EQ(api_.Handle("POST", "/apiv1/sql",
                        "SELECT * FROM nation, region WHERE "
                        "n_regionkey = r_regionkey")
                .code,
            200);
  ApiResponse metrics = api_.Handle("GET", "/apiv1/metrics");
  ASSERT_EQ(metrics.code, 200);
  EXPECT_NE(metrics.body.find("ires_sql_queries_total"), std::string::npos);
  EXPECT_NE(metrics.body.find("ires_sql_shape_cache_misses_total"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("ires_sql_optimize_seconds"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("ires_sql_lowered_nodes_total"),
            std::string::npos);
}

// ------------------------------------------- structured execution options

TEST_F(SqlApiTest, RemovedFlatQueryParametersAreRejected) {
  // The flat tuning parameters of the pre-options API are gone: each is
  // now an unknown query key, rejected rather than silently ignored.
  for (const char* key :
       {"strategy=ires", "maxReplans=2", "retryAttempts=2",
        "retryBackoffSeconds=0", "stragglerMultiplier=2", "chaosSeed=1",
        "chaosTransient=0.1", "chaosTimeout=0.1", "chaosCrash=0.1",
        "chaosCrashEngine=Spark"}) {
    ApiResponse response = api_.Handle(
        "POST", std::string("/apiv1/sql?") + key,
        "SELECT * FROM nation, region WHERE n_regionkey = r_regionkey");
    EXPECT_EQ(response.code, 400) << key << ": " << response.body;
    EXPECT_NE(response.body.find("unsupported execute query key"),
              std::string::npos)
        << response.body;
  }
  // The same parameter next to a structured body is the same 400.
  ApiResponse mixed = api_.Handle(
      "POST", "/apiv1/sql?maxReplans=2",
      "{\"query\":\"SELECT * FROM nation, region WHERE "
      "n_regionkey = r_regionkey\","
      "\"options\":{\"retry\":{\"attempts\":2}}}");
  EXPECT_EQ(mixed.code, 400);
  EXPECT_NE(mixed.body.find("unsupported execute query key: maxReplans"),
            std::string::npos)
      << mixed.body;
}

TEST_F(SqlApiTest, UnknownOptionKeysAreRejectedNotIgnored) {
  ApiResponse typo_section = api_.Handle(
      "POST", "/apiv1/sql",
      "{\"query\":\"SELECT * FROM nation, region WHERE "
      "n_regionkey = r_regionkey\",\"options\":{\"retyr\":{}}}");
  EXPECT_EQ(typo_section.code, 400);
  ApiResponse typo_key = api_.Handle(
      "POST", "/apiv1/sql",
      "{\"query\":\"SELECT * FROM nation, region WHERE "
      "n_regionkey = r_regionkey\","
      "\"options\":{\"retry\":{\"atempts\":3}}}");
  EXPECT_EQ(typo_key.code, 400);
  ApiResponse out_of_range = api_.Handle(
      "POST", "/apiv1/sql",
      "{\"query\":\"SELECT * FROM nation, region WHERE "
      "n_regionkey = r_regionkey\","
      "\"options\":{\"chaos\":{\"transient\":1.5}}}");
  EXPECT_EQ(out_of_range.code, 400);
  ApiResponse bad_query_key =
      api_.Handle("POST", "/apiv1/sql?chaosBanana=1",
                  "SELECT * FROM nation, region WHERE "
                  "n_regionkey = r_regionkey");
  EXPECT_EQ(bad_query_key.code, 400);
}

TEST_F(SqlApiTest, ExecuteRouteSharesTheOptionsParser) {
  // The workflow execute route accepts the same structured body and
  // rejects a flat tuning parameter with the same 400.
  RegisterLineCount();

  ApiResponse flat =
      api_.Handle("POST", "/apiv1/workflows/lc/execute?maxReplans=1");
  EXPECT_EQ(flat.code, 400) << flat.body;
  EXPECT_NE(flat.body.find("unsupported execute query key: maxReplans"),
            std::string::npos)
      << flat.body;

  ApiResponse structured = api_.Handle(
      "POST", "/apiv1/workflows/lc/execute",
      "{\"options\":{\"execution\":{\"maxReplans\":1},"
      "\"retry\":{\"attempts\":2,\"backoffSeconds\":0}}}");
  ASSERT_EQ(structured.code, 200) << structured.body;

  ApiResponse conflict = api_.Handle(
      "POST", "/apiv1/workflows/lc/execute?maxReplans=1",
      "{\"options\":{\"retry\":{\"attempts\":2}}}");
  EXPECT_EQ(conflict.code, 400);
}

TEST_F(SqlApiTest, AdmissionParametersNeedAsyncMode) {
  // A sync request runs on the caller's thread, outside the control plane:
  // a tenant (and its quota) or a dedupe key would be silently dropped, so
  // both are rejected unless the request is async.
  const std::string query =
      "SELECT * FROM nation, region WHERE n_regionkey = r_regionkey";
  for (const char* params : {"tenant=acme", "idempotencyKey=req-1",
                             "mode=sync&tenant=acme&idempotencyKey=req-1"}) {
    ApiResponse response =
        api_.Handle("POST", std::string("/apiv1/sql?") + params, query);
    EXPECT_EQ(response.code, 400) << params << ": " << response.body;
    EXPECT_NE(response.body.find("tenant and idempotencyKey need mode=async"),
              std::string::npos)
        << response.body;
  }
  RegisterLineCount();
  ApiResponse execute =
      api_.Handle("POST", "/apiv1/workflows/lc/execute?tenant=acme");
  EXPECT_EQ(execute.code, 400) << execute.body;

  // Async via the query string or the options body keeps both.
  ApiResponse query_async = api_.Handle(
      "POST", "/apiv1/sql?mode=async&tenant=acme&idempotencyKey=req-1",
      query);
  ASSERT_EQ(query_async.code, 202) << query_async.body;
  ApiResponse body_async = api_.Handle(
      "POST", "/apiv1/workflows/lc/execute?tenant=acme",
      "{\"options\":{\"execution\":{\"mode\":\"async\"}}}");
  ASSERT_EQ(body_async.code, 202) << body_async.body;
  ASSERT_TRUE(plane_.WaitForIdle(30.0));
  for (const JobRecord& record : plane_.List()) {
    EXPECT_EQ(record.tenant, "acme") << record.id;
    EXPECT_EQ(record.state, JobState::kSucceeded) << record.id;
  }
}

// ---------------------------------------------------- metric-name contract

TEST_F(SqlApiTest, BenchmarkMetricFamiliesAreExposed) {
  // The benchmark's per-layer probes sum these families by name and read a
  // missing family as 0, so a rename would zero a reading without failing
  // anything. After one served DAG job and one SQL query, each must be in
  // the exposition.
  RegisterLineCount();
  ASSERT_EQ(
      api_.Handle("POST", "/apiv1/workflows/lc/execute?mode=async").code,
      202);
  ASSERT_TRUE(plane_.WaitForIdle(30.0));
  ASSERT_EQ(api_.Handle("POST", "/apiv1/sql",
                        "SELECT * FROM nation, region WHERE "
                        "n_regionkey = r_regionkey")
                .code,
            200);
  const std::string metrics = api_.Handle("GET", "/apiv1/metrics").body;
  for (const char* family :
       {"ires_engine_steps_total counter",
        "ires_model_refinements_total counter",
        "ires_model_refit_forced_total counter",
        "ires_planner_candidate_cache_hits_total counter",
        "ires_planner_candidate_cache_misses_total counter",
        "ires_planner_plan_seconds histogram",
        "ires_sched_tasks_total counter",
        "ires_sched_task_wait_seconds histogram",
        "ires_sched_parks_total counter",
        "ires_sql_shape_cache_hits_total counter",
        "ires_sql_shape_cache_misses_total counter"}) {
    EXPECT_NE(metrics.find(std::string("# TYPE ") + family + "\n"),
              std::string::npos)
        << family;
  }
}

// ------------------------------------------------- route label cardinality

TEST_F(SqlApiTest, UnknownActionSegmentsCollapseInRouteLabels) {
  // Arbitrary trailing segments must not mint new metric label values:
  // only the fixed action vocabulary passes through NormalizeRoute.
  (void)api_.Handle("GET", "/apiv1/jobs/nope/trace");
  (void)api_.Handle("GET", "/apiv1/jobs/nope/fuzzer-crafted-suffix");
  ApiResponse metrics = api_.Handle("GET", "/apiv1/metrics");
  EXPECT_NE(metrics.body.find("route=\"/apiv1/jobs/{id}/trace\""),
            std::string::npos);
  EXPECT_NE(metrics.body.find("route=\"/apiv1/jobs/{id}/{action}\""),
            std::string::npos);
  EXPECT_EQ(metrics.body.find("fuzzer-crafted-suffix"), std::string::npos);
}

TEST_F(SqlApiTest, ObservabilityRoutesNormalizeWithoutMintingLabels) {
  // The namespaced observability resources keep their fixed sub-resource
  // names in the route label; anything else under debug/ or models/
  // collapses to {name}.
  (void)api_.Handle("GET", "/apiv1/debug/events");
  (void)api_.Handle("GET", "/apiv1/models/drift");
  (void)api_.Handle("GET", "/apiv1/debug/fuzzer-minted-sub");
  (void)api_.Handle("GET", "/apiv1/models/fuzzer-minted-sub");
  ApiResponse metrics = api_.Handle("GET", "/apiv1/metrics");
  EXPECT_NE(metrics.body.find("route=\"/apiv1/debug/events\""),
            std::string::npos);
  EXPECT_NE(metrics.body.find("route=\"/apiv1/models/drift\""),
            std::string::npos);
  EXPECT_NE(metrics.body.find("route=\"/apiv1/debug/{name}\""),
            std::string::npos);
  EXPECT_NE(metrics.body.find("route=\"/apiv1/models/{name}\""),
            std::string::npos);
  EXPECT_EQ(metrics.body.find("fuzzer-minted-sub"), std::string::npos);
}

}  // namespace
}  // namespace ires
