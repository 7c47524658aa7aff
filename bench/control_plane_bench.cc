// Control-plane resilience bench: (1) write-ahead job-journal append and
// encode/decode throughput, (2) end-to-end job throughput through the
// sharded plane (routing + journal + tenant admission), and (3) sustained
// throughput under seeded replica kills with the post-run resilience
// ledger (kills, failovers, resumed jobs, fenced appends). Dumps
// BENCH_control_plane.json; CI's nightly control-plane soak runs
// `control_plane_bench --smoke` and archives the file.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "service/control_plane.h"
#include "service/job_journal.h"
#include "workloadgen/asap_workflows.h"

namespace {

using namespace ires;

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct JournalResult {
  int records = 0;
  double appends_per_sec = 0.0;
  double encode_ms = 0.0;
  double decode_ms = 0.0;
};

JournalResult RunJournal(int records) {
  JournalResult r;
  r.records = records;
  JobJournal journal;
  const int jobs = records / 4;  // open + running + step + terminal each
  const double a0 = NowSeconds();
  for (int i = 0; i < jobs; ++i) {
    const std::string id = "job-" + std::to_string(i);
    journal.Open(id, i % 3, "default", "", "bench", "dag");
    JobJournalRecord record;
    record.job = id;
    record.incarnation = 1;
    record.replica = i % 3;
    record.phase = JournalPhase::kRunning;
    journal.Append(record);
    record.phase = JournalPhase::kStepCompleted;
    record.step = 0;
    record.artifact.dataset_node = "d1";
    journal.Append(record);
    record.phase = JournalPhase::kTerminal;
    record.state = "SUCCEEDED";
    journal.Append(record);
  }
  r.appends_per_sec = static_cast<double>(jobs * 4) / (NowSeconds() - a0);

  const double e0 = NowSeconds();
  const std::string text = journal.Encode();
  r.encode_ms = (NowSeconds() - e0) * 1e3;
  const double d0 = NowSeconds();
  const JobJournal::DecodeResult decoded = JobJournal::Decode(text);
  r.decode_ms = (NowSeconds() - d0) * 1e3;
  if (decoded.records.size() != static_cast<size_t>(jobs * 4)) {
    std::fprintf(stderr, "journal roundtrip lost records: %zu of %d\n",
                 decoded.records.size(), jobs * 4);
  }
  return r;
}

/// Submits `jobs` workflows with bounded 429 retries and drains the
/// target; returns accepted-to-terminal throughput.
template <typename SubmitFn, typename IdleFn>
double RunServing(int jobs, SubmitFn submit, IdleFn idle) {
  const double t0 = NowSeconds();
  for (int i = 0; i < jobs; ++i) {
    for (int attempt = 0; attempt < 400; ++attempt) {
      if (submit()) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  idle();
  return static_cast<double>(jobs) / (NowSeconds() - t0);
}

struct ChaosResult {
  double jobs_per_sec = 0.0;
  uint64_t kills = 0;
  uint64_t failovers = 0;
  int resumed = 0;
  uint64_t fenced = 0;
  uint64_t torn = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const int journal_records = smoke ? 4000 : 40000;
  const int serving_jobs = smoke ? 60 : 300;
  const int chaos_jobs = smoke ? 60 : 300;

  const GeneratedWorkload workload = MakeTextAnalyticsWorkflow(1000);

  // ---- journal throughput ------------------------------------------------
  const JournalResult journal = RunJournal(journal_records);
  std::printf("journal  %d records  %.0f appends/s  encode=%.2fms "
              "decode=%.2fms\n",
              journal.records, journal.appends_per_sec, journal.encode_ms,
              journal.decode_ms);

  // ---- plane throughput --------------------------------------------------
  double plane_jps = 0.0;
  {
    IresServer server;
    if (!server.ImportLibrary(workload.library).ok()) return 1;
    ControlPlane::Options options;
    options.replicas = 3;
    options.replica_options.workers = 4;
    options.replica_options.queue_capacity = 64;
    ControlPlane plane(&server, options);
    ControlPlane::SubmitRequest request;
    request.workflow_name = "text";
    plane_jps = RunServing(
        serving_jobs,
        [&] { return plane.Submit(workload.graph, request).ok(); },
        [&] { plane.WaitForIdle(300.0); });
  }
  std::printf("serving  plane=%.1f jobs/s\n", plane_jps);

  // ---- throughput under replica kills ------------------------------------
  ChaosResult chaos;
  {
    IresServer server;
    if (!server.ImportLibrary(workload.library).ok()) return 1;
    ControlPlane::Options options;
    options.replicas = 3;
    options.replica_options.workers = 4;
    options.replica_options.queue_capacity = 64;
    options.chaos.seed = 4242;
    options.chaos.kill_mid_plan_probability = 0.02;
    options.chaos.kill_mid_run_probability = 0.02;
    options.chaos.torn_append_probability = 0.5;
    options.chaos.max_kills = 2;  // leaves one live replica at the floor
    ControlPlane plane(&server, options);
    ControlPlane::SubmitRequest request;
    request.workflow_name = "text";
    chaos.jobs_per_sec = RunServing(
        chaos_jobs,
        [&] { return plane.Submit(workload.graph, request).ok(); },
        [&] { plane.WaitForIdle(300.0); });
    chaos.kills = plane.chaos()->counts().kills();
    chaos.failovers =
        server.metrics()
            .GetCounter("ires_control_plane_failovers_total", "")
            ->Value();
    for (const JobRecord& record : plane.List()) {
      if (record.resumed) ++chaos.resumed;
    }
    chaos.fenced = plane.journal().stats().fenced;
    chaos.torn = plane.journal().stats().torn;
  }
  std::printf("chaos    %.1f jobs/s  kills=%llu failovers=%llu resumed=%d "
              "fenced=%llu torn=%llu\n",
              chaos.jobs_per_sec,
              static_cast<unsigned long long>(chaos.kills),
              static_cast<unsigned long long>(chaos.failovers),
              chaos.resumed, static_cast<unsigned long long>(chaos.fenced),
              static_cast<unsigned long long>(chaos.torn));

  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "{\n"
      "  \"mode\": \"%s\",\n"
      "  \"journal\": {\"records\": %d, \"appends_per_sec\": %.0f, "
      "\"encode_ms\": %.3f, \"decode_ms\": %.3f},\n"
      "  \"serving\": {\"jobs\": %d, \"plane_jobs_per_sec\": %.2f},\n"
      "  \"chaos\": {\"jobs\": %d, \"jobs_per_sec\": %.2f, "
      "\"kills\": %llu, \"failovers\": %llu, \"resumed\": %d, "
      "\"fenced_appends\": %llu, \"torn_appends\": %llu}\n"
      "}\n",
      smoke ? "smoke" : "full", journal.records, journal.appends_per_sec,
      journal.encode_ms, journal.decode_ms, serving_jobs, plane_jps,
      chaos_jobs, chaos.jobs_per_sec,
      static_cast<unsigned long long>(chaos.kills),
      static_cast<unsigned long long>(chaos.failovers), chaos.resumed,
      static_cast<unsigned long long>(chaos.fenced),
      static_cast<unsigned long long>(chaos.torn));

  const char* out_path = "BENCH_control_plane.json";
  std::FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path);
    return 1;
  }
  std::fputs(buf, f);
  std::fclose(f);
  std::printf("wrote %s\n", out_path);
  return 0;
}
