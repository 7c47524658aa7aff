#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <string>
#include <thread>

#include "core/rest_api.h"

namespace ires {
namespace {

class RestApiTest : public ::testing::Test {
 protected:
  RestApiTest() : api_(&server_) {}

  // Registers the LineCount artefacts of the §3.3 walkthrough via the API.
  void RegisterLineCount() {
    ASSERT_EQ(api_.Handle("POST", "/apiv1/datasets/asapServerLog",
                          "Constraints.Engine.FS=HDFS\n"
                          "Execution.path=hdfs:///log\n"
                          "Optimization.size=5e8\n"
                          "Optimization.documents=1000\n")
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
  }

  IresServer server_;
  RestApi api_;
};

TEST_F(RestApiTest, UnknownRoutesReturn404) {
  EXPECT_EQ(api_.Handle("GET", "/nope").code, 404);
  EXPECT_EQ(api_.Handle("GET", "/apiv1/unicorns").code, 404);
  EXPECT_EQ(api_.Handle("DELETE", "/apiv1/operators/x").code, 404);
}

TEST_F(RestApiTest, EnginesListAndToggle) {
  ApiResponse list = api_.Handle("GET", "/apiv1/engines");
  ASSERT_EQ(list.code, 200);
  EXPECT_NE(list.body.find("\"Spark\":\"ON\""), std::string::npos);

  EXPECT_EQ(api_.Handle("PUT", "/apiv1/engines/Spark/availability", "off")
                .code,
            200);
  list = api_.Handle("GET", "/apiv1/engines");
  EXPECT_NE(list.body.find("\"Spark\":\"OFF\""), std::string::npos);

  EXPECT_EQ(api_.Handle("PUT", "/apiv1/engines/Spark/availability", "maybe")
                .code,
            400);
  EXPECT_EQ(api_.Handle("PUT", "/apiv1/engines/NoSuch/availability", "on")
                .code,
            404);
}

TEST_F(RestApiTest, DescriptionCrud) {
  RegisterLineCount();
  // Listing.
  ApiResponse list = api_.Handle("GET", "/apiv1/operators");
  EXPECT_NE(list.body.find("LineCount_Spark"), std::string::npos);
  // Fetch round-trips the description.
  ApiResponse get = api_.Handle("GET", "/apiv1/operators/LineCount_Spark");
  ASSERT_EQ(get.code, 200);
  EXPECT_NE(get.body.find("Constraints.Engine=Spark"), std::string::npos);
  // Missing + duplicate.
  EXPECT_EQ(api_.Handle("GET", "/apiv1/operators/none").code, 404);
  EXPECT_EQ(api_.Handle("POST", "/apiv1/operators/LineCount_Spark",
                        "Constraints.Engine=Spark\n")
                .code,
            409);
  // Malformed description.
  EXPECT_EQ(api_.Handle("POST", "/apiv1/datasets/bad", "no equals").code,
            400);
}

TEST_F(RestApiTest, WorkflowLifecycle) {
  RegisterLineCount();
  const std::string graph =
      "asapServerLog,LineCount,0\n"
      "LineCount,d1,0\n"
      "d1,$$target\n";
  ASSERT_EQ(api_.Handle("POST", "/apiv1/workflows/LineCountWorkflow", graph)
                .code,
            201);
  EXPECT_EQ(api_.Handle("POST", "/apiv1/workflows/LineCountWorkflow", graph)
                .code,
            409);
  ApiResponse list = api_.Handle("GET", "/apiv1/workflows");
  EXPECT_NE(list.body.find("LineCountWorkflow"), std::string::npos);

  ApiResponse plan =
      api_.Handle("POST", "/apiv1/workflows/LineCountWorkflow/materialize");
  ASSERT_EQ(plan.code, 200) << plan.body;
  EXPECT_NE(plan.body.find("\"estimatedSeconds\":"), std::string::npos);
  EXPECT_NE(plan.body.find("LineCount_Spark"), std::string::npos);

  ApiResponse run =
      api_.Handle("POST", "/apiv1/workflows/LineCountWorkflow/execute");
  ASSERT_EQ(run.code, 200) << run.body;
  EXPECT_NE(run.body.find("\"executionSeconds\":"), std::string::npos);
  EXPECT_NE(run.body.find("\"replans\":0"), std::string::npos);
}

TEST_F(RestApiTest, MaterializeFailsCleanlyWithoutEngines) {
  RegisterLineCount();
  (void)api_.Handle("POST", "/apiv1/workflows/wf",
                    "asapServerLog,LineCount,0\nLineCount,d1,0\n"
                    "d1,$$target\n");
  (void)api_.Handle("PUT", "/apiv1/engines/Spark/availability", "off");
  ApiResponse plan = api_.Handle("POST", "/apiv1/workflows/wf/materialize");
  EXPECT_EQ(plan.code, 422);
}

TEST_F(RestApiTest, InvalidWorkflowRejected) {
  RegisterLineCount();
  // No $$target line.
  EXPECT_EQ(api_.Handle("POST", "/apiv1/workflows/broken",
                        "asapServerLog,LineCount,0\nLineCount,d1,0\n")
                .code,
            422);
}

// ----------------------------------------------------- telemetry surface

// Extracts the numeric value of `"key":<number>` from a JSON body.
double JsonNumber(const std::string& body, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t at = body.find(needle);
  EXPECT_NE(at, std::string::npos) << key << " missing in " << body;
  if (at == std::string::npos) return -1.0;
  return std::strtod(body.c_str() + at + needle.size(), nullptr);
}

// Polls GET /apiv1/jobs/{id} until the job reaches a terminal state.
std::string AwaitTerminal(RestApi* api, const std::string& job_id) {
  for (int i = 0; i < 1000; ++i) {
    ApiResponse record = api->Handle("GET", "/apiv1/jobs/" + job_id);
    EXPECT_EQ(record.code, 200) << record.body;
    for (const char* state : {"SUCCEEDED", "FAILED", "CANCELLED"}) {
      if (record.body.find("\"state\":\"" + std::string(state) + "\"") !=
          std::string::npos) {
        return record.body;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return "";
}

TEST_F(RestApiTest, MetricsEndpointMovesWhenJobsRun) {
  RegisterLineCount();
  const std::string graph =
      "asapServerLog,LineCount,0\nLineCount,d1,0\nd1,$$target\n";
  ASSERT_EQ(api_.Handle("POST", "/apiv1/workflows/lc", graph).code, 201);

  // Two sync runs (miss then hit) plus one async job so every subsystem's
  // instruments move: REST latency, pool wait, plan cache, planner timing,
  // per-engine steps and model refinement.
  ASSERT_EQ(api_.Handle("POST", "/apiv1/workflows/lc/execute").code, 200);
  ASSERT_EQ(api_.Handle("POST", "/apiv1/workflows/lc/execute").code, 200);
  ApiResponse submit =
      api_.Handle("POST", "/apiv1/workflows/lc/execute?mode=async");
  ASSERT_EQ(submit.code, 202) << submit.body;
  const size_t start = submit.body.find("job-");
  const std::string job_id =
      submit.body.substr(start, submit.body.find('"', start) - start);
  ASSERT_NE(AwaitTerminal(&api_, job_id).find("SUCCEEDED"),
            std::string::npos);

  ApiResponse metrics = api_.Handle("GET", "/apiv1/metrics");
  ASSERT_EQ(metrics.code, 200);
  const std::string& text = metrics.body;

  // REST latency histogram, labelled by normalized route.
  EXPECT_NE(text.find("# TYPE ires_http_request_seconds histogram"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("ires_http_request_seconds_count{method=\"POST\","
                      "route=\"/apiv1/workflows/{name}/execute\"}"),
            std::string::npos)
      << text;
  EXPECT_NE(
      text.find("ires_http_requests_total{code=\"201\",method=\"POST\","
                "route=\"/apiv1/workflows/{name}\"} 1"),
      std::string::npos)
      << text;

  // Plan cache: 1 miss (first plan) then hits for the repeats.
  EXPECT_NE(text.find("ires_plan_cache_events_total{event=\"miss\"} 1"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("ires_plan_cache_events_total{event=\"hit\"} 2"),
            std::string::npos)
      << text;

  // Planner timing (the miss ran the DP once, in the smallest size bucket).
  EXPECT_NE(text.find("ires_planner_plan_seconds_count{dag_nodes=\"3-4\"} "
                      "1"),
            std::string::npos)
      << text;

  // Per-engine execution and model refinement: 3 runs of the one-step
  // Spark plan.
  EXPECT_NE(text.find("ires_engine_steps_total{engine=\"Spark\","
                      "kind=\"operator\"} 3"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("ires_engine_sim_milliseconds_total{engine="
                      "\"Spark\"}"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("ires_model_refinements_total{engine=\"Spark\"} 3"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("ires_model_refine_relative_error_count 3"),
            std::string::npos)
      << text;

  // Serving-layer lifecycle + pool instruments moved for the async job.
  EXPECT_NE(text.find("ires_jobs_total{event=\"succeeded\"} 1"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("ires_job_queue_wait_seconds_count 1"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("ires_sched_task_wait_seconds_count 1"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("ires_sched_pending_tasks 0"), std::string::npos)
      << text;
  EXPECT_NE(text.find("ires_sched_tasks_total{event=\"executed\"} 1"),
            std::string::npos)
      << text;
}

TEST_F(RestApiTest, HealthzReportsQueueState) {
  ApiResponse health = api_.Handle("GET", "/apiv1/healthz");
  ASSERT_EQ(health.code, 200) << health.body;
  EXPECT_NE(health.body.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(health.body.find("\"queueDepth\":0"), std::string::npos);
  EXPECT_NE(health.body.find("\"queueCapacity\":64"), std::string::npos);
  EXPECT_NE(health.body.find("\"saturation\":0.000"), std::string::npos);
  EXPECT_EQ(JsonNumber(health.body, "workers"), 4.0);
}

// Sustained scheduler backlog (measured on an injected fake clock) must
// degrade the health probe without failing it: the replica is falling
// behind on the shared job pool but can still serve.
TEST(RestApiSchedulerHealthTest, SustainedBacklogDegradesHealthz) {
  std::atomic<double> now{50.0};
  IresServer::Config config;
  config.scheduler_workers = 1;
  config.scheduler_clock = [&now] { return now.load(); };
  IresServer server(config);
  RestApi api(&server);

  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  TaskScheduler& sched = server.scheduler();
  ASSERT_TRUE(sched.Submit([released] { released.wait(); }));
  // Let the single worker pick the blocker up, then queue pure backlog
  // above workers * TaskScheduler::kBacklogPerWorker (1 * 4).
  while (sched.pending() != 0) std::this_thread::yield();
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(sched.Submit([released] { released.wait(); }));
  }

  // First probe arms the backlog timer; depth is high but not yet
  // *sustained*, so the replica still reports ok.
  ApiResponse first = api.Handle("GET", "/apiv1/healthz");
  ASSERT_EQ(first.code, 200) << first.body;
  EXPECT_NE(first.body.find("\"backlogged\":false"), std::string::npos)
      << first.body;
  EXPECT_NE(first.body.find("\"status\":\"ok\""), std::string::npos)
      << first.body;

  now.store(52.5);  // 2.5s of sustained backlog > the 1s grace window
  ApiResponse degraded = api.Handle("GET", "/apiv1/healthz");
  ASSERT_EQ(degraded.code, 200) << degraded.body;  // degraded, not dead
  EXPECT_NE(degraded.body.find("\"status\":\"degraded\""), std::string::npos)
      << degraded.body;
  EXPECT_NE(degraded.body.find("\"backlogged\":true"), std::string::npos)
      << degraded.body;
  EXPECT_NE(degraded.body.find("\"backlogSeconds\":2.500"), std::string::npos)
      << degraded.body;

  release.set_value();
  while (sched.pending() != 0) std::this_thread::yield();
  ApiResponse healthy = api.Handle("GET", "/apiv1/healthz");
  EXPECT_NE(healthy.body.find("\"status\":\"ok\""), std::string::npos)
      << healthy.body;
}

TEST_F(RestApiTest, JobTraceEndpointReturnsChromeTraceJson) {
  RegisterLineCount();
  const std::string graph =
      "asapServerLog,LineCount,0\nLineCount,d1,0\nd1,$$target\n";
  ASSERT_EQ(api_.Handle("POST", "/apiv1/workflows/lc", graph).code, 201);
  ApiResponse submit =
      api_.Handle("POST", "/apiv1/workflows/lc/execute?mode=async");
  ASSERT_EQ(submit.code, 202) << submit.body;
  const size_t start = submit.body.find("job-");
  const std::string job_id =
      submit.body.substr(start, submit.body.find('"', start) - start);
  const std::string record = AwaitTerminal(&api_, job_id);
  ASSERT_NE(record.find("SUCCEEDED"), std::string::npos) << record;

  ApiResponse trace =
      api_.Handle("GET", "/apiv1/jobs/" + job_id + "/trace");
  ASSERT_EQ(trace.code, 200) << trace.body;
  const std::string& json = trace.body;
  // The span taxonomy covers queue-wait → planning (cache lookup + DP) →
  // execution → per-step enforcement → refinement.
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"" + job_id + "\""), std::string::npos);
  for (const char* span :
       {"job.queue_wait", "job.plan", "plan.cache_lookup", "job.execute",
        "LineCount_Spark", "model.refine"}) {
    EXPECT_NE(json.find("\"name\":\"" + std::string(span) + "\""),
              std::string::npos)
        << "missing span " << span << " in " << json;
  }
  // The step span runs on the simulated timeline and names its engine.
  EXPECT_NE(json.find("\"tid\":2"), std::string::npos);
  EXPECT_NE(json.find("\"engine\":\"Spark\""), std::string::npos);

  // Consistency with the job record: the execute span reports the same
  // simulated seconds the record carries.
  const double recorded = JsonNumber(record, "executionSeconds");
  char expected[48];
  std::snprintf(expected, sizeof(expected),
                "\"simulatedSeconds\":\"%.3f\"", recorded);
  EXPECT_NE(json.find(expected), std::string::npos)
      << expected << " not in " << json;

  // Unknown job ids keep the uniform envelope.
  EXPECT_EQ(api_.Handle("GET", "/apiv1/jobs/job-009999/trace").code, 404);
}

TEST_F(RestApiTest, FailedJobsStillCarryTimings) {
  // A workflow that passes admission linting (implementation exists, engine
  // on) but is memory-infeasible at planning time: its only implementation
  // runs on centralized Java (3 GB budget) against a 10 TB input. Planning
  // fails, the job goes FAILED — and must still record queue + planning
  // durations (the fix for silent terminal jobs).
  ASSERT_EQ(api_.Handle("POST", "/apiv1/datasets/asapServerLog",
                        "Constraints.Engine.FS=HDFS\n"
                        "Execution.path=hdfs:///log\n"
                        "Optimization.size=1e13\n"
                        "Optimization.documents=1000\n")
                .code,
            201);
  ASSERT_EQ(api_.Handle("POST", "/apiv1/abstractOperators/Ghost",
                        "Constraints.OpSpecification.Algorithm.name=Ghost\n")
                .code,
            201);
  ASSERT_EQ(api_.Handle("POST", "/apiv1/operators/Ghost_Java",
                        "Constraints.Engine=Java\n"
                        "Constraints.OpSpecification.Algorithm.name=Ghost\n")
                .code,
            201);
  ASSERT_EQ(api_.Handle("POST", "/apiv1/workflows/ghost",
                        "asapServerLog,Ghost,0\nGhost,d1,0\nd1,$$target\n")
                .code,
            201);
  ApiResponse submit =
      api_.Handle("POST", "/apiv1/workflows/ghost/execute?mode=async");
  ASSERT_EQ(submit.code, 202) << submit.body;
  const size_t start = submit.body.find("job-");
  const std::string job_id =
      submit.body.substr(start, submit.body.find('"', start) - start);
  const std::string record = AwaitTerminal(&api_, job_id);
  ASSERT_NE(record.find("\"state\":\"FAILED\""), std::string::npos)
      << record;

  EXPECT_GT(JsonNumber(record, "queueSeconds"), 0.0) << record;
  EXPECT_GT(JsonNumber(record, "planSeconds"), 0.0) << record;
  EXPECT_GT(JsonNumber(record, "finishedAt"), 0.0) << record;
  EXPECT_NE(record.find("\"error\":"), std::string::npos);

  // The trace still closes its spans: queue wait was picked up and the
  // plan span carries ok=false.
  ApiResponse trace =
      api_.Handle("GET", "/apiv1/jobs/" + job_id + "/trace");
  ASSERT_EQ(trace.code, 200);
  EXPECT_NE(trace.body.find("\"name\":\"job.queue_wait\""),
            std::string::npos);
  EXPECT_NE(trace.body.find("\"name\":\"job.plan\""), std::string::npos);
  EXPECT_NE(trace.body.find("\"ok\":\"false\""), std::string::npos);
}

TEST(JsonEscapeTest, EscapesControlAndQuotes) {
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("line1\nline2"), "line1\\nline2");
  EXPECT_EQ(JsonEscape("back\\slash"), "back\\\\slash");
  EXPECT_EQ(JsonEscape(std::string(1, '\x01')), "\\u0001");
}

}  // namespace
}  // namespace ires
