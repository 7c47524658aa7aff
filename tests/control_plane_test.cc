// Resilience suite for the sharded control plane: consistent-hash routing,
// write-ahead job journal (fencing, torn tails, replay), idempotent
// resubmission, per-tenant weighted-fair admission (quota / shedding /
// preemption), replica kill + heartbeat-partition failover with
// journal-checkpoint resume, and the reconciled chaos soak proving no
// accepted job is lost or double-counted. CI runs this binary under
// ThreadSanitizer.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/rest_api.h"
#include "service/control_plane.h"
#include "service/job_journal.h"
#include "workloadgen/asap_workflows.h"

namespace ires {
namespace {

constexpr const char* kGraph =
    "asapServerLog,LineCount,0\n"
    "LineCount,d1,0\n"
    "d1,$$target\n";

void RegisterLineCount(RestApi* api) {
  ASSERT_EQ(api->Handle("POST", "/apiv1/datasets/asapServerLog",
                        "Constraints.Engine.FS=HDFS\n"
                        "Execution.path=hdfs:///log\n"
                        "Optimization.size=5e8\n"
                        "Optimization.documents=1000\n")
                .code,
            201);
  ASSERT_EQ(api->Handle("POST", "/apiv1/abstractOperators/LineCount",
                        "Constraints.OpSpecification.Algorithm.name="
                        "LineCount\n")
                .code,
            201);
  ASSERT_EQ(api->Handle("POST", "/apiv1/operators/LineCount_Spark",
                        "Constraints.Engine=Spark\n"
                        "Constraints.OpSpecification.Algorithm.name="
                        "LineCount\n"
                        "Constraints.Input0.Engine.FS=HDFS\n"
                        "Constraints.Output0.Engine.FS=HDFS\n")
                .code,
            201);
  ASSERT_EQ(api->Handle("POST", "/apiv1/workflows/lc", kGraph).code, 201);
}

uint64_t Failovers(IresServer& server) {
  return server.metrics()
      .GetCounter("ires_control_plane_failovers_total", "")
      ->Value();
}

WorkflowGraph LineCountGraph(IresServer* server) {
  auto graph = server->ParseWorkflow(kGraph);
  EXPECT_TRUE(graph.ok()) << graph.status();
  return graph.value();
}

/// Blocks every job of the replicas it is installed on at one phase
/// boundary until released: 'p' (pre-planning, the default) holds jobs
/// QUEUED behind a busy worker, 'r' (pre-execution) holds them RUNNING.
/// Must be installed before the replica's first Submit and ALWAYS released
/// before teardown (a gated worker never joins).
class PlanGate {
 public:
  explicit PlanGate(char phase = 'p') : phase_(phase) {}
  ~PlanGate() { Release(); }

  void InstallOn(JobService* service) {
    service->set_phase_probe(
        [this](const std::string&, int, char phase) {
          if (phase != phase_) return;
          parked_.fetch_add(1, std::memory_order_acq_rel);
          while (!open_.load(std::memory_order_acquire)) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
        });
  }

  void Release() { open_.store(true, std::memory_order_release); }

  /// Spins until `count` jobs have reached the gate. A parked job was
  /// pulled by a worker but is still accounted QUEUED (the probe fires
  /// before the state transition), so it keeps occupying a queue slot —
  /// size capacities accordingly.
  void WaitForParked(int count) {
    for (int i = 0; i < 5000; ++i) {
      if (parked_.load(std::memory_order_acquire) >= count) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    FAIL() << "no job ever reached the gate";
  }

 private:
  const char phase_;
  std::atomic<bool> open_{false};
  std::atomic<int> parked_{0};
};

// ------------------------------------------------------------------ routing

TEST(ControlPlaneRoutingTest, ConsistentHashIsDeterministicAndSpreads) {
  IresServer server;
  ControlPlane::Options options;
  options.replicas = 3;
  ControlPlane plane(&server, options);

  std::set<int> hit;
  for (uint64_t fp = 1; fp <= 64; ++fp) {
    const int first = plane.RouteOf(fp);
    ASSERT_GE(first, 0);
    ASSERT_LT(first, 3);
    EXPECT_EQ(plane.RouteOf(fp), first);  // stable under re-query
    hit.insert(first);
  }
  // 64 fingerprints over 3 replicas x 16 virtual nodes: every replica
  // owns a share of the ring.
  EXPECT_EQ(hit.size(), 3u);
}

TEST(ControlPlaneRoutingTest, SubmitMintsDenseIdsAndListMerges) {
  IresServer server;
  RestApi setup(&server);
  RegisterLineCount(&setup);
  const WorkflowGraph graph = LineCountGraph(&server);

  ControlPlane::Options options;
  options.replicas = 3;
  ControlPlane plane(&server, options);

  ControlPlane::SubmitRequest request;
  request.workflow_name = "lc";
  std::vector<std::string> ids;
  for (int i = 0; i < 6; ++i) {
    auto id = plane.Submit(graph, request);
    ASSERT_TRUE(id.ok()) << id.status();
    ids.push_back(id.value());
  }
  EXPECT_EQ(ids.front(), "job-000001");
  EXPECT_EQ(ids.back(), "job-000006");
  ASSERT_TRUE(plane.WaitForIdle(60.0));

  const std::vector<JobRecord> all = plane.List();
  ASSERT_EQ(all.size(), 6u);
  for (const JobRecord& record : all) {
    EXPECT_EQ(record.state, JobState::kSucceeded) << record.id;
    EXPECT_TRUE(plane.journal().IsTerminal(record.id));
  }
  // Every acceptance was journaled before it reached a replica queue.
  EXPECT_EQ(plane.journal().stats().open_jobs, 0u);
}

// -------------------------------------------------------------- idempotency

TEST(ControlPlaneAdmissionTest, IdempotencyKeyDedupesResubmission) {
  IresServer server;
  RestApi setup(&server);
  RegisterLineCount(&setup);
  const WorkflowGraph graph = LineCountGraph(&server);

  ControlPlane::Options options;
  options.replicas = 3;
  ControlPlane plane(&server, options);

  ControlPlane::SubmitRequest request;
  request.workflow_name = "lc";
  request.idempotency_key = "client-req-7";
  auto first = plane.Submit(graph, request);
  ASSERT_TRUE(first.ok()) << first.status();
  auto second = plane.Submit(graph, request);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value(), first.value());

  // The key keeps deduping after the job went terminal: the client's
  // retry storm arrives whenever it arrives.
  ASSERT_TRUE(plane.WaitForIdle(60.0));
  auto third = plane.Submit(graph, request);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(third.value(), first.value());
  EXPECT_EQ(plane.List().size(), 1u);
}

TEST(ControlPlaneAdmissionTest, DuplicateKeyAcrossReplicasReturnsOriginal) {
  IresServer server;
  RestApi setup(&server);
  RegisterLineCount(&setup);
  const WorkflowGraph lc = LineCountGraph(&server);
  const GeneratedWorkload text = MakeTextAnalyticsWorkflow(1000);
  ASSERT_TRUE(server.ImportLibrary(text.library).ok());

  ControlPlane::Options options;
  options.replicas = 3;
  ControlPlane plane(&server, options);

  // Two different workflows would route to whatever replicas their
  // fingerprints pick — the dedupe table sits above routing, so the
  // second submission never reaches a replica at all.
  ControlPlane::SubmitRequest request;
  request.workflow_name = "lc";
  request.idempotency_key = "shared-key";
  auto first = plane.Submit(lc, request);
  ASSERT_TRUE(first.ok()) << first.status();

  request.workflow_name = "text";
  auto second = plane.Submit(text.graph, request);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value(), first.value());
  ASSERT_TRUE(plane.WaitForIdle(60.0));
  EXPECT_EQ(plane.List().size(), 1u);
}

// ------------------------------------------------- tenant quota / shedding

TEST(ControlPlaneAdmissionTest, TenantQuotaBouncesAtOpenJobCount) {
  IresServer server;
  RestApi setup(&server);
  RegisterLineCount(&setup);
  const WorkflowGraph graph = LineCountGraph(&server);

  ControlPlane plane(&server);
  ControlPlane::TenantConfig config;
  config.max_open_jobs = 1;
  plane.SetTenant("acme", config);

  // Pin one open journal entry on the tenant (a job still in flight
  // elsewhere on the plane) so the quota check is deterministic.
  ASSERT_TRUE(
      plane.journal().Open("job-ghost", 0, "acme", "", "wf", "dag"));

  ControlPlane::SubmitRequest request;
  request.workflow_name = "lc";
  request.tenant = "acme";
  auto id = plane.Submit(graph, request);
  ASSERT_FALSE(id.ok());
  EXPECT_EQ(id.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(id.status().message().find("quota"), std::string::npos)
      << id.status().message();
  EXPECT_EQ(server.metrics()
                .GetCounter("ires_admission_rejects_total",
                            "Submissions bounced at admission, by tenant "
                            "and reason.",
                            {{"tenant", "acme"}, {"reason", "quota"}})
                ->Value(),
            1u);
}

TEST(ControlPlaneAdmissionTest, SheddingDropsLowestClassFirst) {
  IresServer server;
  RestApi setup(&server);
  RegisterLineCount(&setup);
  const WorkflowGraph graph = LineCountGraph(&server);

  ControlPlane::Options options;
  options.replicas = 1;
  options.replica_options.workers = 1;
  options.replica_options.queue_capacity = 5;
  options.shed_bronze_at = 0.5;
  options.shed_silver_at = 0.9;
  ControlPlane plane(&server, options);
  ControlPlane::TenantConfig gold;
  gold.qos_class = 0;
  plane.SetTenant("gold", gold);
  ControlPlane::TenantConfig bronze;
  bronze.qos_class = 2;
  plane.SetTenant("bronze", bronze);

  PlanGate gate;
  gate.InstallOn(plane.replica(0));

  // One job parks at the gate (still holding a queue slot), four more
  // saturate the queue: 5/5 = 1.0.
  ControlPlane::SubmitRequest request;
  request.workflow_name = "lc";
  request.tenant = "gold";
  ASSERT_TRUE(plane.Submit(graph, request).ok());
  gate.WaitForParked(1);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(plane.Submit(graph, request).ok());
  }

  // Bronze sheds above 0.5, silver (the default tenant) above 0.9; gold
  // never sheds — it falls through to queue-full instead.
  request.tenant = "bronze";
  auto shed_bronze = plane.Submit(graph, request);
  ASSERT_FALSE(shed_bronze.ok());
  EXPECT_EQ(shed_bronze.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(shed_bronze.status().message().find("shedding"),
            std::string::npos);

  request.tenant = "default";
  auto shed_silver = plane.Submit(graph, request);
  ASSERT_FALSE(shed_silver.ok());
  EXPECT_EQ(shed_silver.status().code(), StatusCode::kUnavailable);

  request.tenant = "gold";
  auto full = plane.Submit(graph, request);
  ASSERT_FALSE(full.ok());
  EXPECT_EQ(full.status().code(), StatusCode::kResourceExhausted);

  gate.Release();
  EXPECT_TRUE(plane.WaitForIdle(60.0));
}

TEST(ControlPlaneAdmissionTest, FullQueuePreemptsLowerClassQueuedJob) {
  IresServer server;
  RestApi setup(&server);
  RegisterLineCount(&setup);
  const WorkflowGraph graph = LineCountGraph(&server);

  ControlPlane::Options options;
  options.replicas = 1;
  options.replica_options.workers = 1;
  options.replica_options.queue_capacity = 2;
  ControlPlane plane(&server, options);
  ControlPlane::TenantConfig gold;
  gold.qos_class = 0;
  plane.SetTenant("gold", gold);
  ControlPlane::TenantConfig bronze;
  bronze.qos_class = 2;
  plane.SetTenant("bronze", bronze);

  PlanGate gate;
  gate.InstallOn(plane.replica(0));

  ControlPlane::SubmitRequest request;
  request.workflow_name = "lc";
  request.tenant = "gold";
  auto runner = plane.Submit(graph, request);
  ASSERT_TRUE(runner.ok()) << runner.status();
  gate.WaitForParked(1);

  request.tenant = "bronze";
  auto victim = plane.Submit(graph, request);
  ASSERT_TRUE(victim.ok()) << victim.status();

  // Queue is full (parked + bronze = 2/2) — a gold newcomer evicts the
  // queued bronze job instead of bouncing.
  request.tenant = "gold";
  auto winner = plane.Submit(graph, request);
  ASSERT_TRUE(winner.ok()) << winner.status();

  auto evicted = plane.Get(victim.value());
  ASSERT_TRUE(evicted.ok());
  EXPECT_EQ(evicted.value().state, JobState::kCancelled);
  EXPECT_NE(evicted.value().error.find("preempted"), std::string::npos)
      << evicted.value().error;
  // The preempted job still went terminal exactly once in the journal.
  EXPECT_EQ(plane.journal().TerminalState(victim.value()), "CANCELLED");

  gate.Release();
  ASSERT_TRUE(plane.WaitForIdle(60.0));
  EXPECT_EQ(plane.Get(runner.value()).value().state, JobState::kSucceeded);
  EXPECT_EQ(plane.Get(winner.value()).value().state, JobState::kSucceeded);
}

TEST(ControlPlaneAdmissionTest, WeightedFairDispatchServesGoldFirst) {
  IresServer server;
  RestApi setup(&server);
  RegisterLineCount(&setup);
  const WorkflowGraph graph = LineCountGraph(&server);

  ControlPlane::Options options;
  options.replicas = 1;
  options.replica_options.workers = 1;
  options.replica_options.queue_capacity = 8;
  ControlPlane plane(&server, options);
  ControlPlane::TenantConfig gold;
  gold.qos_class = 0;
  plane.SetTenant("gold", gold);
  ControlPlane::TenantConfig bronze;
  bronze.qos_class = 2;
  plane.SetTenant("bronze", bronze);

  PlanGate gate;
  gate.InstallOn(plane.replica(0));

  ControlPlane::SubmitRequest request;
  request.workflow_name = "lc";
  request.tenant = "default";
  ASSERT_TRUE(plane.Submit(graph, request).ok());  // parks at the gate
  gate.WaitForParked(1);

  request.tenant = "bronze";
  auto b1 = plane.Submit(graph, request);
  auto b2 = plane.Submit(graph, request);
  request.tenant = "gold";
  auto g1 = plane.Submit(graph, request);
  ASSERT_TRUE(b1.ok() && b2.ok() && g1.ok());

  gate.Release();
  ASSERT_TRUE(plane.WaitForIdle(60.0));

  // Submission order was bronze, bronze, gold; dispatch order is by
  // (class, virtual finish time) — gold starts before either bronze.
  const double gold_start = plane.Get(g1.value()).value().started_at;
  EXPECT_LT(gold_start, plane.Get(b1.value()).value().started_at);
  EXPECT_LT(gold_start, plane.Get(b2.value()).value().started_at);
}

TEST(ControlPlaneAdmissionTest, ValidationRejectIsTenantAttributed) {
  IresServer server;
  ASSERT_TRUE(server
                  .RegisterArtifact(ArtifactKind::kDataset, "asapServerLog",
                                    "Constraints.Engine.FS=HDFS\n"
                                    "Execution.path=hdfs:///log\n"
                                    "Optimization.size=5e8\n")
                  .ok());
  ASSERT_TRUE(server
                  .RegisterArtifact(
                      ArtifactKind::kAbstractOperator, "Mystery",
                      "Constraints.OpSpecification.Algorithm.name=Mystery\n")
                  .ok());
  auto graph = server.ParseWorkflow(
      "asapServerLog,Mystery,0\nMystery,d1,0\nd1,$$target\n");
  ASSERT_TRUE(graph.ok());

  ControlPlane plane(&server);
  ControlPlane::SubmitRequest request;
  request.workflow_name = "wf";
  request.tenant = "acme";
  auto id = plane.Submit(graph.value(), request);
  ASSERT_FALSE(id.ok());
  EXPECT_EQ(id.status().code(), StatusCode::kFailedPrecondition);
  // The lint reject lands on the submitting tenant's series, not an
  // anonymous global bucket.
  EXPECT_EQ(server.metrics()
                .GetCounter("ires_validation_rejects_total",
                            "Workflow submissions rejected by static "
                            "analysis, by diagnostic code.",
                            {{"code", "WF011"}, {"tenant", "acme"}})
                ->Value(),
            1u);
  // Nothing was journaled: rejects never become accepted jobs.
  EXPECT_EQ(plane.journal().stats().appended, 0u);
}

// ------------------------------------------------------------ journal unit

TEST(JobJournalTest, IncarnationFencingMakesTerminalExactlyOnce) {
  JobJournal journal;
  ASSERT_TRUE(journal.Open("job-1", 0, "default", "", "lc", "dag"));
  EXPECT_FALSE(journal.Open("job-1", 0, "default", "", "lc", "dag"));

  JobJournalRecord planning;
  planning.job = "job-1";
  planning.incarnation = 1;
  planning.phase = JournalPhase::kPlanning;
  EXPECT_TRUE(journal.Append(planning));

  // Failover fences incarnation 1; its late appends are dropped.
  EXPECT_EQ(journal.Reassign("job-1", 1), 2u);
  JobJournalRecord stale;
  stale.job = "job-1";
  stale.incarnation = 1;
  stale.phase = JournalPhase::kRunning;
  EXPECT_FALSE(journal.Append(stale));
  EXPECT_EQ(journal.stats().fenced, 1u);

  JobJournalRecord terminal;
  terminal.job = "job-1";
  terminal.incarnation = 2;
  terminal.phase = JournalPhase::kTerminal;
  terminal.state = "SUCCEEDED";
  EXPECT_TRUE(journal.Append(terminal));
  EXPECT_TRUE(journal.IsTerminal("job-1"));

  // Post-terminal appends are fenced even at the live incarnation, and a
  // kill racing the completion becomes a no-op Reassign.
  EXPECT_FALSE(journal.Append(terminal));
  EXPECT_EQ(journal.Reassign("job-1", 0), 0u);

  int terminals = 0;
  for (const JobJournalRecord& record : journal.RecordsFor("job-1")) {
    if (record.phase == JournalPhase::kTerminal) ++terminals;
  }
  EXPECT_EQ(terminals, 1);
}

TEST(JobJournalTest, TornAndTruncatedTailsDecodeTolerant) {
  JobJournal journal;
  ASSERT_TRUE(journal.Open("job-1", 0, "default", "", "lc", "dag"));

  // A crash mid-append: the record occupies its slot in memory but its
  // encoded line is truncated, so replay drops exactly that record.
  journal.TearNext();
  JobJournalRecord torn;
  torn.job = "job-1";
  torn.incarnation = 1;
  torn.phase = JournalPhase::kPlanning;
  EXPECT_TRUE(journal.Append(torn));

  JobJournalRecord running;
  running.job = "job-1";
  running.incarnation = 1;
  running.phase = JournalPhase::kRunning;
  EXPECT_TRUE(journal.Append(running));
  EXPECT_EQ(journal.stats().torn, 1u);

  const std::string text = journal.Encode();
  const JobJournal::DecodeResult decoded = JobJournal::Decode(text);
  EXPECT_EQ(decoded.torn, 1u);
  ASSERT_EQ(decoded.records.size(), 2u);  // open + running survive
  EXPECT_EQ(decoded.records.back().phase, JournalPhase::kRunning);

  // A crash can also shear the file itself mid-final-line.
  const JobJournal::DecodeResult sheared =
      JobJournal::Decode(text.substr(0, text.size() - 7));
  EXPECT_GE(sheared.torn, 1u);
  EXPECT_LE(sheared.records.size(), 2u);
}

TEST(JobJournalTest, ReplayRestoresOpenStateAndKeepsTerminalsFenced) {
  JobJournal source;
  // job-a went terminal; job-b crashed mid-run with one step journaled.
  ASSERT_TRUE(source.Open("job-a", 0, "t1", "key-a", "lc", "dag"));
  JobJournalRecord done;
  done.job = "job-a";
  done.incarnation = 1;
  done.phase = JournalPhase::kTerminal;
  done.state = "SUCCEEDED";
  ASSERT_TRUE(source.Append(done));

  ASSERT_TRUE(source.Open("job-b", 1, "t2", "", "text", "dag"));
  JobJournalRecord running;
  running.job = "job-b";
  running.incarnation = 1;
  running.replica = 1;
  running.phase = JournalPhase::kRunning;
  ASSERT_TRUE(source.Append(running));
  JobJournalRecord step;
  step.job = "job-b";
  step.incarnation = 1;
  step.replica = 1;
  step.phase = JournalPhase::kStepCompleted;
  step.step = 0;
  step.artifact.dataset_node = "d_tfidf";
  ASSERT_TRUE(source.Append(step));

  JobJournal restored;
  restored.Replay(JobJournal::Decode(source.Encode()).records);

  // The terminal-but-unacknowledged job replays terminal: a late ack (or
  // a duplicate terminal append) after recovery is still fenced.
  EXPECT_TRUE(restored.IsTerminal("job-a"));
  EXPECT_EQ(restored.TerminalState("job-a"), "SUCCEEDED");
  EXPECT_FALSE(restored.Append(done));
  EXPECT_EQ(restored.Reassign("job-a", 1), 0u);

  // The open job replays with its checkpoint intact and resumable.
  const auto open = restored.OpenJobsOn(1);
  ASSERT_EQ(open.size(), 1u);
  EXPECT_EQ(open[0].job, "job-b");
  EXPECT_TRUE(open[0].was_running);
  ASSERT_EQ(open[0].materialized.size(), 1u);
  EXPECT_EQ(open[0].materialized.count("d_tfidf"), 1u);
  EXPECT_EQ(restored.OpenCountForTenant("t2"), 1u);
  EXPECT_EQ(restored.OpenCountForTenant("t1"), 0u);
  EXPECT_EQ(restored.Reassign("job-b", 0), 2u);
}

// ------------------------------------------------------- plane-wide gauges

TEST(ControlPlaneTelemetryTest, JobGaugesSumOverReplicas) {
  IresServer server;
  RestApi setup(&server);
  RegisterLineCount(&setup);
  const WorkflowGraph first = LineCountGraph(&server);

  ControlPlane::Options options;
  options.replicas = 2;
  options.replica_options.workers = 1;
  ControlPlane plane(&server, options);
  // The same workflow under another output name fingerprints differently;
  // take the first variant that routes to the other replica.
  const int first_replica = plane.RouteOf(first.Fingerprint());
  WorkflowGraph second;
  for (int n = 2; n < 100; ++n) {
    const std::string out = "d" + std::to_string(n);
    auto graph = server.ParseWorkflow("asapServerLog,LineCount,0\n"
                                      "LineCount," + out + ",0\n" +
                                      out + ",$$target\n");
    ASSERT_TRUE(graph.ok()) << graph.status();
    if (plane.RouteOf(graph.value().Fingerprint()) != first_replica) {
      second = graph.value();
      break;
    }
  }
  ASSERT_GT(second.size(), 0u);

  // Each replica's one worker parks its first job RUNNING; the next two
  // wait QUEUED behind it.
  PlanGate gate('r');
  gate.InstallOn(plane.replica(0));
  gate.InstallOn(plane.replica(1));
  ControlPlane::SubmitRequest request;
  request.workflow_name = "lc";
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(plane.Submit(first, request).ok());
    ASSERT_TRUE(plane.Submit(second, request).ok());
  }
  gate.WaitForParked(2);

  auto gauge = [&server](const char* name) {
    return server.metrics().GetGauge(name, "")->Value();
  };
  const ControlPlane::Health health = plane.health();
  size_t queued = 0;
  size_t running = 0;
  for (const ControlPlane::ReplicaHealth& replica : health.replicas) {
    EXPECT_EQ(replica.queue_depth, 2u) << "replica " << replica.id;
    EXPECT_EQ(replica.running, 1u) << "replica " << replica.id;
    queued += replica.queue_depth;
    running += replica.running;
  }
  EXPECT_EQ(gauge("ires_jobs_queued"), static_cast<double>(queued));
  EXPECT_EQ(gauge("ires_jobs_active"), static_cast<double>(running));

  gate.Release();
  ASSERT_TRUE(plane.WaitForIdle(60.0));
  EXPECT_EQ(gauge("ires_jobs_queued"), 0.0);
  EXPECT_EQ(gauge("ires_jobs_active"), 0.0);
}

// ---------------------------------------------------------------- failover

TEST(ControlPlaneFailoverTest, KillMidPlanReroutesAndCompletes) {
  IresServer server;
  RestApi setup(&server);
  RegisterLineCount(&setup);
  const WorkflowGraph graph = LineCountGraph(&server);

  ControlPlane::Options options;
  options.replicas = 2;
  ControlPlane plane(&server, options);
  const int target = plane.RouteOf(graph.Fingerprint());
  ASSERT_GE(target, 0);

  PlanGate gate;
  gate.InstallOn(plane.replica(target));

  ControlPlane::SubmitRequest request;
  request.workflow_name = "lc";
  auto id = plane.Submit(graph, request);
  ASSERT_TRUE(id.ok()) << id.status();
  gate.WaitForParked(1);

  // Kill the replica while the job is parked pre-planning; the plane
  // fences incarnation 1 and resubmits to the survivor.
  plane.KillReplica(target);
  EXPECT_EQ(Failovers(server), 1u);
  gate.Release();
  ASSERT_TRUE(plane.WaitForIdle(60.0));

  auto record = plane.Get(id.value());
  ASSERT_TRUE(record.ok());
  EXPECT_EQ(record.value().state, JobState::kSucceeded);
  EXPECT_TRUE(record.value().resumed);
  EXPECT_EQ(record.value().resumed_steps, 0);  // nothing ran pre-kill
  EXPECT_EQ(record.value().incarnation, 2u);
  EXPECT_NE(record.value().replica, target);

  // The dead replica's copy abandons into a CANCELLED tombstone; List
  // dedupes to the surviving incarnation.
  auto tombstone = plane.replica(target)->Get(id.value());
  ASSERT_TRUE(tombstone.ok());
  EXPECT_EQ(tombstone.value().state, JobState::kCancelled);
  const std::vector<JobRecord> all = plane.List();
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0].state, JobState::kSucceeded);

  int terminals = 0;
  for (const JobJournalRecord& r : plane.journal().RecordsFor(id.value())) {
    if (r.phase == JournalPhase::kTerminal) ++terminals;
  }
  EXPECT_EQ(terminals, 1);
  // The tombstone's terminal append carried the fenced incarnation.
  EXPECT_GE(plane.journal().stats().fenced, 1u);
}

TEST(ControlPlaneFailoverTest, KillMidRunResumesSkippingJournaledSteps) {
  IresServer server;
  const GeneratedWorkload text = MakeTextAnalyticsWorkflow(1000);
  ASSERT_TRUE(server.ImportLibrary(text.library).ok());

  ControlPlane::Options options;
  options.replicas = 2;
  ControlPlane plane(&server, options);

  // Kill the serving replica exactly once, right after the first step's
  // outputs hit the journal — the mid-run fault that proves resume.
  std::atomic<bool> killed{false};
  for (int i = 0; i < plane.replica_count(); ++i) {
    plane.replica(i)->set_phase_probe(
        [&plane, &killed, i](const std::string&, int done, char phase) {
          if (phase == 's' && done == 1 &&
              !killed.exchange(true, std::memory_order_acq_rel)) {
            plane.KillReplica(i);
          }
        });
  }

  ControlPlane::SubmitRequest request;
  request.workflow_name = "text";
  auto id = plane.Submit(text.graph, request);
  ASSERT_TRUE(id.ok()) << id.status();
  ASSERT_TRUE(plane.WaitForIdle(60.0));
  ASSERT_TRUE(killed.load());

  auto record = plane.Get(id.value());
  ASSERT_TRUE(record.ok());
  EXPECT_EQ(record.value().state, JobState::kSucceeded);
  EXPECT_TRUE(record.value().resumed);
  // The survivor inherited the journaled step instead of re-planning it.
  EXPECT_GE(record.value().resumed_steps, 1);
  EXPECT_EQ(record.value().incarnation, 2u);
  EXPECT_EQ(Failovers(server), 1u);

  int terminals = 0;
  int steps_inc1 = 0;
  for (const JobJournalRecord& r : plane.journal().RecordsFor(id.value())) {
    if (r.phase == JournalPhase::kTerminal) ++terminals;
    if (r.phase == JournalPhase::kStepCompleted && r.incarnation == 1) {
      ++steps_inc1;
    }
  }
  EXPECT_EQ(terminals, 1);
  EXPECT_GE(steps_inc1, 1);  // the checkpoint that seeded the resume
  // The dead incarnation kept executing (at-least-once) but its late
  // appends — including its terminal — were fenced out.
  EXPECT_GE(plane.journal().stats().fenced, 1u);
}

TEST(ControlPlaneFailoverTest, ChainedFailoverKeepsTheOriginalSubmission) {
  IresServer server;
  const GeneratedWorkload text = MakeTextAnalyticsWorkflow(1000);
  ASSERT_TRUE(server.ImportLibrary(text.library).ok());

  ControlPlane::Options options;
  options.replicas = 3;
  ControlPlane plane(&server, options);
  ControlPlane::TenantConfig gold;
  gold.qos_class = 0;
  gold.weight = 2.0;
  plane.SetTenant("acme", gold);

  // The first owner dies right after the job's first step is journaled.
  // The failover target then dies before planning the resumed run, so the
  // third replica must rebuild the submission from the second owner's
  // retained record, not from the first.
  std::atomic<int> kills{0};
  for (int i = 0; i < plane.replica_count(); ++i) {
    plane.replica(i)->set_phase_probe(
        [&plane, &kills, i](const std::string&, int done, char phase) {
          const bool first = phase == 's' && done == 1 && kills.load() == 0;
          const bool second = phase == 'p' && kills.load() == 1;
          if (!first && !second) return;
          int expected = first ? 0 : 1;
          if (kills.compare_exchange_strong(expected, expected + 1)) {
            plane.KillReplica(i);
          }
        });
  }

  ControlPlane::SubmitRequest request;
  request.workflow_name = "text";
  request.slo_class = "sql";
  request.tenant = "acme";
  auto id = plane.Submit(text.graph, request);
  ASSERT_TRUE(id.ok()) << id.status();
  const int first_owner = plane.RouteOf(text.graph.Fingerprint());
  ASSERT_TRUE(plane.WaitForIdle(60.0));
  ASSERT_EQ(kills.load(), 2);
  EXPECT_EQ(Failovers(server), 2u);

  auto record = plane.Get(id.value());
  ASSERT_TRUE(record.ok());
  EXPECT_EQ(record.value().state, JobState::kSucceeded);
  EXPECT_TRUE(record.value().resumed);
  EXPECT_GE(record.value().resumed_steps, 1);
  EXPECT_EQ(record.value().incarnation, 3u);
  EXPECT_NE(record.value().replica, first_owner);
  EXPECT_EQ(record.value().workflow, "text");
  EXPECT_EQ(record.value().slo_class, "sql");
  EXPECT_EQ(record.value().tenant, "acme");
  EXPECT_EQ(record.value().qos_class, 0);
  // Both dead owners hold CANCELLED tombstones of the same job.
  int tombstones = 0;
  for (int i = 0; i < plane.replica_count(); ++i) {
    if (i == record.value().replica) continue;
    auto copy = plane.replica(i)->Get(id.value());
    ASSERT_TRUE(copy.ok()) << "replica " << i;
    EXPECT_EQ(copy.value().state, JobState::kCancelled);
    ++tombstones;
  }
  EXPECT_EQ(tombstones, 2);

  // The durable journal carries exactly one terminal record for the job.
  const JobJournal::DecodeResult decoded =
      JobJournal::Decode(plane.journal().Encode());
  int terminals = 0;
  for (const JobJournalRecord& r : decoded.records) {
    if (r.job == id.value() && r.phase == JournalPhase::kTerminal) {
      ++terminals;
      EXPECT_EQ(r.incarnation, 3u);
      EXPECT_EQ(r.state, "SUCCEEDED");
    }
  }
  EXPECT_EQ(terminals, 1);
}

TEST(ControlPlaneFailoverTest, HeartbeatPartitionEscalatesToFailover) {
  IresServer server;
  ControlPlane::Options options;
  options.replicas = 2;
  ControlPlane plane(&server, options);

  plane.Tick(0.0);  // bootstrap heartbeats
  EXPECT_FALSE(plane.health().degraded);

  plane.PartitionReplica(0);
  plane.Tick(3.0);
  {
    const ControlPlane::Health health = plane.health();
    EXPECT_TRUE(health.degraded);
    EXPECT_EQ(health.replicas[0].state, ControlPlane::ReplicaState::kSuspect);
    EXPECT_TRUE(health.replicas[0].partitioned);
    EXPECT_EQ(health.replicas[1].state, ControlPlane::ReplicaState::kUp);
  }

  plane.Tick(6.0);
  EXPECT_EQ(plane.health().replicas[0].state,
            ControlPlane::ReplicaState::kDown);

  // Restart heals the partition and rejoins the ring.
  plane.RestartReplica(0);
  plane.Tick(7.0);
  const ControlPlane::Health health = plane.health();
  EXPECT_FALSE(health.degraded);
  EXPECT_EQ(health.replicas[0].state, ControlPlane::ReplicaState::kUp);
  EXPECT_FALSE(health.replicas[0].partitioned);
}

// ------------------------------------------------------------- REST surface

TEST(ControlPlaneRestTest, HealthzAggregatesReplicasAndDegrades) {
  IresServer server;
  ControlPlane::Options options;
  options.replicas = 2;
  ControlPlane plane(&server, options);
  RestApi api(&server, &plane);

  ApiResponse up = api.Handle("GET", "/apiv1/healthz");
  EXPECT_EQ(up.code, 200);
  EXPECT_NE(up.body.find("\"replicas\":[{\"id\":0,\"state\":\"up\""),
            std::string::npos)
      << up.body;
  EXPECT_NE(up.body.find("\"id\":1,\"state\":\"up\""), std::string::npos);
  EXPECT_NE(up.body.find("\"status\":\"ok\""), std::string::npos);

  plane.KillReplica(0);
  ApiResponse degraded = api.Handle("GET", "/apiv1/healthz");
  EXPECT_EQ(degraded.code, 200);
  EXPECT_NE(degraded.body.find("\"status\":\"degraded\""), std::string::npos)
      << degraded.body;
  EXPECT_NE(degraded.body.find("\"state\":\"down\""), std::string::npos);
}

TEST(ControlPlaneRestTest, BackpressureCarriesRetryAfter) {
  IresServer server;
  ControlPlane::Options options;
  options.replica_options.workers = 1;
  options.replica_options.queue_capacity = 2;
  ControlPlane plane(&server, options);
  RestApi api(&server, &plane);
  RegisterLineCount(&api);
  const WorkflowGraph graph = LineCountGraph(&server);

  PlanGate gate;
  gate.InstallOn(plane.replica(0));

  // Fill the single replica: one job parked at the gate (still holding
  // its queue slot), one more queued behind it.
  ControlPlane::SubmitRequest request;
  request.workflow_name = "lc";
  ASSERT_TRUE(plane.Submit(graph, request).ok());
  gate.WaitForParked(1);
  ASSERT_TRUE(plane.Submit(graph, request).ok());

  ApiResponse rejected =
      api.Handle("POST", "/apiv1/workflows/lc/execute?mode=async");
  EXPECT_EQ(rejected.code, 429) << rejected.body;
  ASSERT_EQ(rejected.headers.count("Retry-After"), 1u);
  EXPECT_GE(std::atoi(rejected.headers.at("Retry-After").c_str()), 1);
  EXPECT_NE(rejected.body.find("\"retryAfterSeconds\":"), std::string::npos)
      << rejected.body;
  EXPECT_NE(rejected.body.find("\"code\":\"ResourceExhausted\""),
            std::string::npos);

  gate.Release();
  EXPECT_TRUE(plane.WaitForIdle(60.0));
}

TEST(ControlPlaneRestTest, TenantAndIdempotencyRideTheQueryString) {
  IresServer server;
  ControlPlane plane(&server);
  RestApi api(&server, &plane);
  RegisterLineCount(&api);

  ApiResponse first = api.Handle(
      "POST",
      "/apiv1/workflows/lc/execute?mode=async&tenant=acme&"
      "idempotencyKey=req-1");
  ASSERT_EQ(first.code, 202) << first.body;
  ApiResponse second = api.Handle(
      "POST",
      "/apiv1/workflows/lc/execute?mode=async&tenant=acme&"
      "idempotencyKey=req-1");
  ASSERT_EQ(second.code, 202);
  EXPECT_EQ(first.body, second.body);  // same jobId came back

  ASSERT_TRUE(plane.WaitForIdle(60.0));
  const std::vector<JobRecord> all = plane.List();
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0].tenant, "acme");
  EXPECT_EQ(all[0].idempotency_key, "req-1");
}

// --------------------------------------------------------------- chaos soak

struct SoakOutcome {
  size_t accepted = 0;
  uint64_t kills = 0;
  uint64_t failovers = 0;
  int resumed = 0;
};

/// Submits `total_jobs` across two workflows and three tenants against a
/// 3-replica plane with seeded mid-plan/mid-run kills and torn journal
/// appends, restarting dead replicas at every checkpoint, then reconciles:
/// every accepted job holds exactly one terminal journal record and its
/// plane-visible state agrees with the journal.
SoakOutcome RunControlPlaneSoak(int total_jobs, uint64_t seed) {
  IresServer server;
  RestApi setup(&server);
  RegisterLineCount(&setup);
  const WorkflowGraph lc = LineCountGraph(&server);
  const GeneratedWorkload text = MakeTextAnalyticsWorkflow(1000);
  EXPECT_TRUE(server.ImportLibrary(text.library).ok());

  ControlPlane::Options options;
  options.replicas = 3;
  options.replica_options.workers = 2;
  options.replica_options.queue_capacity = 64;
  options.chaos.seed = seed;
  options.chaos.kill_mid_plan_probability = 0.05;
  options.chaos.kill_mid_run_probability = 0.05;
  options.chaos.torn_append_probability = 0.5;
  options.chaos.max_kills = 4;
  ControlPlane plane(&server, options);
  ControlPlane::TenantConfig gold;
  gold.qos_class = 0;
  plane.SetTenant("gold", gold);
  ControlPlane::TenantConfig bronze;
  bronze.qos_class = 2;
  plane.SetTenant("bronze", bronze);
  const char* tenants[] = {"gold", "default", "bronze"};

  std::vector<std::string> accepted;
  for (int i = 0; i < total_jobs; ++i) {
    ControlPlane::SubmitRequest request;
    request.workflow_name = i % 3 == 2 ? "text" : "lc";
    request.tenant = tenants[i % 3];
    const WorkflowGraph& graph = i % 3 == 2 ? text.graph : lc;
    bool admitted = false;
    for (int attempt = 0; attempt < 200; ++attempt) {
      auto id = plane.Submit(graph, request);
      if (id.ok()) {
        accepted.push_back(id.value());
        admitted = true;
        break;
      }
      // Backpressure (or a mid-restart routing hole) is retryable — the
      // Retry-After contract; anything else would be a bug.
      EXPECT_TRUE(id.status().code() == StatusCode::kResourceExhausted ||
                  id.status().code() == StatusCode::kUnavailable)
          << id.status();
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    EXPECT_TRUE(admitted) << "job " << i << " never admitted";

    // Checkpoint: drain, then resurrect whatever chaos killed so routing
    // capacity recovers (and re-adoption of stranded jobs is exercised).
    if ((i + 1) % 50 == 0) {
      EXPECT_TRUE(plane.WaitForIdle(120.0));
      const ControlPlane::Health health = plane.health();
      for (const ControlPlane::ReplicaHealth& replica : health.replicas) {
        if (replica.state == ControlPlane::ReplicaState::kDown) {
          plane.RestartReplica(replica.id);
        }
      }
    }
  }
  EXPECT_TRUE(plane.WaitForIdle(120.0));

  // Reconcile against the journal: accepted => terminal exactly once,
  // and the serving layer agrees with the journal's verdict.
  for (const std::string& id : accepted) {
    EXPECT_TRUE(plane.journal().IsTerminal(id)) << id << " lost";
    int terminals = 0;
    for (const JobJournalRecord& r : plane.journal().RecordsFor(id)) {
      if (r.phase == JournalPhase::kTerminal) ++terminals;
    }
    EXPECT_EQ(terminals, 1) << id << " double-finalized";
    auto record = plane.Get(id);
    EXPECT_TRUE(record.ok()) << id;
    if (record.ok()) {
      EXPECT_EQ(JobStateName(record.value().state),
                plane.journal().TerminalState(id))
          << id;
    }
  }

  // The durable form agrees with the live journal: every intact record
  // round-trips, torn records are exactly the counted ones.
  const JobJournal::Stats stats = plane.journal().stats();
  const JobJournal::DecodeResult decoded =
      JobJournal::Decode(plane.journal().Encode());
  EXPECT_EQ(decoded.torn, stats.torn);
  EXPECT_EQ(decoded.records.size(),
            static_cast<size_t>(stats.appended - stats.torn));

  SoakOutcome outcome;
  outcome.accepted = accepted.size();
  outcome.kills = plane.chaos()->counts().kills();
  outcome.failovers = Failovers(server);
  for (const JobRecord& record : plane.List()) {
    if (record.resumed) ++outcome.resumed;
  }
  return outcome;
}

TEST(ControlPlaneSoakTest, ReconciledSoakLosesNoAcceptedJob) {
  const SoakOutcome outcome = RunControlPlaneSoak(150, 4242);
  EXPECT_EQ(outcome.accepted, 150u);
  // The seed must actually exercise failover, not just a quiet run.
  EXPECT_GE(outcome.kills, 1u);
  EXPECT_GE(outcome.failovers, outcome.kills);
  EXPECT_GE(outcome.resumed, 1);
}

// Long-haul variant for the nightly profile only (ctest -L nightly with
// IRES_NIGHTLY=1): several times the load, more kill budget.
TEST(ControlPlaneSoakTest, NightlyLongSoak) {
  if (std::getenv("IRES_NIGHTLY") == nullptr) {
    GTEST_SKIP() << "set IRES_NIGHTLY=1 to run the long soak";
  }
  const SoakOutcome outcome = RunControlPlaneSoak(200, 777);
  EXPECT_EQ(outcome.accepted, 200u);
  EXPECT_GE(outcome.kills, 1u);
}

}  // namespace
}  // namespace ires
