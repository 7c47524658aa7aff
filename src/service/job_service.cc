#include "service/job_service.h"

#include <algorithm>
#include <chrono>

#include "service/job_journal.h"

namespace ires {

namespace {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

/// The write-ahead record of `record`'s incarnation entering `phase`.
JobJournalRecord JournalRecordFor(const JobRecord& record,
                                  JournalPhase phase) {
  JobJournalRecord rec;
  rec.job = record.id;
  rec.incarnation = record.incarnation;
  rec.phase = phase;
  rec.replica = record.replica;
  rec.tenant = record.tenant;
  return rec;
}

}  // namespace

const char* JobStateName(JobState state) {
  switch (state) {
    case JobState::kQueued: return "QUEUED";
    case JobState::kPlanning: return "PLANNING";
    case JobState::kRunning: return "RUNNING";
    case JobState::kSucceeded: return "SUCCEEDED";
    case JobState::kFailed: return "FAILED";
    case JobState::kCancelled: return "CANCELLED";
  }
  return "?";
}

bool IsTerminal(JobState state) {
  return state == JobState::kSucceeded || state == JobState::kFailed ||
         state == JobState::kCancelled;
}

JobService::JobService(IresServer* server, Options options,
                       JobJournal& journal)
    : server_(server), options_(options), journal_(journal) {
  MetricsRegistry& metrics = server_->metrics();
  const std::string help = "Terminal job outcomes plus admission events.";
  submitted_total_ =
      metrics.GetCounter("ires_jobs_total", help, {{"event", "submitted"}});
  rejected_total_ =
      metrics.GetCounter("ires_jobs_total", help, {{"event", "rejected"}});
  succeeded_total_ =
      metrics.GetCounter("ires_jobs_total", help, {{"event", "succeeded"}});
  failed_total_ =
      metrics.GetCounter("ires_jobs_total", help, {{"event", "failed"}});
  cancelled_total_ =
      metrics.GetCounter("ires_jobs_total", help, {{"event", "cancelled"}});
  preempted_total_ =
      metrics.GetCounter("ires_jobs_total", help, {{"event", "preempted"}});
  queued_gauge_ = metrics.GetGauge("ires_jobs_queued",
                                   "Jobs admitted and awaiting a worker.");
  active_gauge_ = metrics.GetGauge("ires_jobs_active",
                                   "Jobs currently PLANNING or RUNNING.");
  queue_wait_seconds_ = metrics.GetHistogram(
      "ires_job_queue_wait_seconds",
      "Wall-clock wait between admission and worker pickup.");
  job_duration_seconds_ = metrics.GetHistogram(
      "ires_job_duration_seconds",
      "Wall-clock submission-to-terminal latency per job.");
}

JobService::~JobService() { Shutdown(); }

Result<std::string> JobService::Submit(
    const WorkflowGraph& graph, const std::string& workflow_name,
    OptimizationPolicy policy, const IresServer::ExecutionOptions& exec,
    const std::string& slo_class, const SubmitMeta& meta) {
  // Rejections carry no job id (none was assigned); the workflow name in
  // the detail is the correlation handle instead.
  const JournalWriter reject_writer(&server_->journal(), "");
  auto count_admission_reject = [this, &meta](const char* reason) {
    rejected_total_->Increment();
    server_->metrics()
        .GetCounter("ires_admission_rejects_total",
                    "Submissions bounced at admission, by tenant and "
                    "reason.",
                    {{"tenant", meta.tenant}, {"reason", reason}})
        ->Increment();
  };
  if (crashed()) {
    count_admission_reject("replica_down");
    reject_writer.Emit(EventKind::kAdmissionReject, -1, "", "Unavailable",
                       0.0, workflow_name);
    return Status::Unavailable("replica is down");
  }
  // Admission gate: lint the workflow against the current library/engines
  // before it costs a queue slot or a worker. Runs outside mu_ — the
  // analyzer only reads internally synchronized registries. Failover
  // resubmissions were validated at first admission and skip the gate.
  if (!meta.recovered) {
    const std::vector<Diagnostic> findings =
        server_->ValidateWorkflow(graph, &policy);
    if (HasErrors(findings)) {
      count_admission_reject("validation");
      CountValidationRejects(&server_->metrics(), findings, meta.tenant);
      std::string code;
      for (const Diagnostic& finding : findings) {
        if (finding.severity == DiagSeverity::kError) {
          code = finding.code;
          break;
        }
      }
      reject_writer.Emit(EventKind::kAdmissionReject, -1, "", code, 0.0,
                         workflow_name);
      return DiagnosticsToStatus(findings);
    }
  }
  std::shared_ptr<Job> job;
  {
    MutexLock lock(mu_);
    if (shutting_down_) {
      return Status::FailedPrecondition("job service is shutting down");
    }
    // A full queue preempts a strictly-lower-class QUEUED job to admit a
    // higher-class newcomer; failover resubmissions bypass the bound
    // entirely (the job already paid for admission once).
    if (!meta.recovered && queued_ >= options_.queue_capacity) {
      Job* victim = nullptr;
      for (const std::shared_ptr<Job>& queued_job : run_queue_) {
        if (queued_job->record.state != JobState::kQueued) continue;
        if (queued_job->qos_class <= meta.qos_class) continue;
        if (victim == nullptr || queued_job->qos_class > victim->qos_class ||
            (queued_job->qos_class == victim->qos_class &&
             queued_job->vfinish > victim->vfinish)) {
          victim = queued_job.get();
        }
      }
      if (victim != nullptr) {
        victim->record.state = JobState::kCancelled;
        victim->record.error = "preempted by higher-class admission";
        --queued_;
        preempted_total_->Increment();
        FinalizeLocked(victim);
      } else {
        count_admission_reject("queue_full");
        reject_writer.Emit(EventKind::kAdmissionReject, -1, "",
                           "ResourceExhausted",
                           static_cast<double>(queued_), workflow_name);
        return Status::ResourceExhausted(
            "admission queue full (" +
            std::to_string(options_.queue_capacity) + " queued jobs)");
      }
    }
    const std::string& id = meta.id;
    // A failover resubmission can route a job id back to a replica that
    // still holds the crashed incarnation's record. Tombstone the old
    // record first so its queue entry is inert and the accounting stays
    // balanced; the map slot then belongs to the new incarnation.
    auto existing = jobs_.find(id);
    const bool replacing = existing != jobs_.end();
    if (replacing && !IsTerminal(existing->second->record.state)) {
      AbandonLocked(existing->second.get());
    }
    job = std::make_shared<Job>();
    job->graph = graph;
    job->exec = exec;
    job->record.id = id;
    job->record.workflow = workflow_name;
    job->record.policy = policy;
    job->record.state = JobState::kQueued;
    job->record.slo_class = slo_class;
    job->record.tenant = meta.tenant;
    job->record.qos_class = meta.qos_class;
    job->record.idempotency_key = meta.idempotency_key;
    job->record.replica = meta.replica;
    job->record.incarnation = meta.incarnation;
    job->record.resumed = meta.recovered;
    job->record.resumed_steps =
        static_cast<int>(exec.resume_materialized.size());
    job->record.submitted_at = NowSeconds();
    job->record.trace = std::make_shared<TraceContext>(job->record.id);
    job->qos_class = meta.qos_class;
    job->weight = meta.weight > 0.0 ? meta.weight : 1.0;
    // Weighted-fair virtual finish time: a tenant's backlog spaces out at
    // 1/weight virtual seconds per job, so under contention dispatch
    // interleaves tenants proportionally to weight instead of FIFO.
    double& tenant_vtime = tenant_vtime_[meta.tenant];
    job->vfinish = std::max(vclock_, tenant_vtime) + 1.0 / job->weight;
    tenant_vtime = job->vfinish;
    job->queue_span =
        job->record.trace->BeginSpan("job.queue_wait", "job");
    jobs_[job->record.id] = job;
    if (!replacing) submission_order_.push_back(job->record.id);
    ++queued_;
    queued_gauge_->Set(static_cast<double>(queued_));
    submitted_total_->Increment();
    if (!meta.recovered) {
      journal_.Open(job->record.id, meta.replica, meta.tenant,
                    meta.idempotency_key, workflow_name, slo_class);
    }
    JournalWriter(&server_->journal(), job->record.id)
        .Emit(EventKind::kAdmissionAccept, -1, "", slo_class,
              static_cast<double>(queued_), workflow_name);
    run_queue_.push_back(job);
    DispatchLocked();
  }
  return job->record.id;
}

void JobService::DispatchLocked() {
  while (dispatched_ < static_cast<size_t>(options_.workers) &&
         !run_queue_.empty()) {
    // Sweep entries cancelled or preempted while queued.
    for (auto it = run_queue_.begin(); it != run_queue_.end();) {
      it = IsTerminal((*it)->record.state) ? run_queue_.erase(it)
                                           : std::next(it);
    }
    if (run_queue_.empty()) break;
    // Weighted-fair pick: lowest QoS class first, earliest virtual finish
    // time within the class (FIFO order is the single-tenant special case
    // because vfinish is assigned monotonically per tenant).
    auto best = run_queue_.begin();
    for (auto it = std::next(run_queue_.begin()); it != run_queue_.end();
         ++it) {
      if ((*it)->qos_class < (*best)->qos_class ||
          ((*it)->qos_class == (*best)->qos_class &&
           (*it)->vfinish < (*best)->vfinish)) {
        best = it;
      }
    }
    std::shared_ptr<Job> job = *best;
    run_queue_.erase(best);
    vclock_ = std::max(vclock_, job->vfinish);
    ++dispatched_;
    if (!server_->scheduler().Submit([this, job] { RunJob(job); },
                                     "job.run")) {
      // The scheduler has shut down under us (it journals the
      // task_rejected) — terminate the record instead of stranding it.
      --dispatched_;
      if (job->record.state == JobState::kQueued) {
        job->record.state = JobState::kCancelled;
        --queued_;
        queued_gauge_->Set(static_cast<double>(queued_));
        FinalizeLocked(job.get());
      }
    }
  }
}

/// Events attached to a failed job record — enough to replay admission,
/// planning, every retry round and the terminal failure.
constexpr size_t kFailureSnapshotEvents = 64;

void JobService::FinalizeLocked(Job* job) {
  job->record.finished_at = NowSeconds();
  switch (job->record.state) {
    case JobState::kSucceeded: succeeded_total_->Increment(); break;
    case JobState::kFailed: failed_total_->Increment(); break;
    case JobState::kCancelled: cancelled_total_->Increment(); break;
    default: break;
  }
  if (job->record.state == JobState::kFailed) {
    // Journal the terminal event first so the snapshot includes it, then
    // pin the job's event stream to the record — the ring buffer will
    // eventually overwrite these events, but the postmortem keeps them.
    EventJournal& journal = server_->journal();
    JournalWriter(&journal, job->record.id)
        .Emit(EventKind::kJobFailed, -1, "", "", 0.0, job->record.error);
    EventJournal::Filter filter;
    filter.job = job->record.id;
    filter.limit = kFailureSnapshotEvents;
    job->record.event_snapshot = journal.Query(filter);
  }
  // A job cancelled before pickup never measured its queue wait — the
  // whole lifetime *was* the queue wait.
  if (job->record.queue_seconds == 0.0 && job->record.started_at == 0.0) {
    job->record.queue_seconds =
        job->record.finished_at - job->record.submitted_at;
    job->record.trace->EndSpan(
        job->queue_span, {{"outcome", JobStateName(job->record.state)}});
  }
  // Write-ahead terminal record. Fenced (a no-op) when the control plane
  // already reassigned this job to a newer incarnation — that is exactly
  // what makes the journal's terminal record exactly-once.
  JobJournalRecord terminal =
      JournalRecordFor(job->record, JournalPhase::kTerminal);
  terminal.state = JobStateName(job->record.state);
  terminal.detail = job->record.error;
  journal_.Append(std::move(terminal));
  const double duration =
      job->record.finished_at - job->record.submitted_at;
  // EWMA job duration feeds BacklogSeconds (the Retry-After hint).
  ewma_seconds_ = ewma_seconds_ == 0.0 ? duration
                                       : 0.8 * ewma_seconds_ + 0.2 * duration;
  job_duration_seconds_->Observe(duration);
  idle_.notify_all();
}

void JobService::AbandonLocked(Job* job) {
  if (IsTerminal(job->record.state)) return;
  if (job->record.state == JobState::kQueued) {
    --queued_;
    queued_gauge_->Set(static_cast<double>(queued_));
  } else {
    --active_;
    active_gauge_->Set(static_cast<double>(active_));
  }
  job->record.state = JobState::kCancelled;
  job->record.error = "abandoned: replica crashed";
  FinalizeLocked(job);
}

double JobService::BacklogSeconds() const {
  MutexLock lock(mu_);
  if (queued_ == 0) return 0.0;
  const double per_job = ewma_seconds_ > 0.0 ? ewma_seconds_ : 1.0;
  return static_cast<double>(queued_) * per_job /
         static_cast<double>(std::max(1, options_.workers));
}

void JobService::RunJob(const std::shared_ptr<Job>& job) {
  ExecuteJob(job);
  MutexLock lock(mu_);
  --dispatched_;
  DispatchLocked();
  if (dispatched_ == 0) idle_.notify_all();  // Shutdown waits on this
}

void JobService::ExecuteJob(const std::shared_ptr<Job>& job) {
  // Mid-plan kill point: the probe fires with no lock held, and a kill it
  // takes is observed by the crashed_ check right below.
  if (phase_probe_) phase_probe_(job->record.id, 0, 'p');
  OptimizationPolicy policy;
  TraceContext* trace = job->record.trace.get();
  uint64_t plan_span = 0;
  {
    MutexLock lock(mu_);
    if (job->record.state != JobState::kQueued) return;  // cancelled earlier
    if (crashed_.load(std::memory_order_acquire)) {
      AbandonLocked(job.get());
      return;
    }
    if (job->cancel_requested || shutting_down_) {
      job->record.state = JobState::kCancelled;
      --queued_;
      queued_gauge_->Set(static_cast<double>(queued_));
      FinalizeLocked(job.get());
      return;
    }
    job->record.state = JobState::kPlanning;
    job->record.started_at = NowSeconds();
    job->record.queue_seconds =
        job->record.started_at - job->record.submitted_at;
    queue_wait_seconds_->Observe(job->record.queue_seconds);
    trace->EndSpan(job->queue_span, {{"outcome", "picked_up"}});
    plan_span = trace->BeginSpan("job.plan", "job");
    --queued_;
    ++active_;
    queued_gauge_->Set(static_cast<double>(queued_));
    active_gauge_->Set(static_cast<double>(active_));
    journal_.Append(JournalRecordFor(job->record, JournalPhase::kPlanning));
    policy = job->record.policy;
  }

  auto planned = server_->PlanWorkflowCached(job->graph, policy, trace);

  double exec_started_at = 0.0;
  {
    MutexLock lock(mu_);
    if (IsTerminal(job->record.state)) return;  // abandoned while planning
    job->record.plan_seconds = NowSeconds() - job->record.started_at;
    if (!planned.ok()) {
      trace->EndSpan(plan_span, {{"ok", "false"}});
      job->record.state = JobState::kFailed;
      job->record.error = planned.status().ToString();
      --active_;
      active_gauge_->Set(static_cast<double>(active_));
      FinalizeLocked(job.get());
      return;
    }
    const ExecutionPlan& plan = planned.value().plan;
    trace->EndSpan(plan_span,
                   {{"ok", "true"},
                    {"cache", planned.value().cache_hit ? "hit" : "miss"},
                    {"steps", std::to_string(plan.steps.size())}});
    job->record.plan_summary = plan.ToString();
    job->record.plan_steps = static_cast<int>(plan.steps.size());
    job->record.estimated_seconds = plan.estimated_seconds;
    job->record.estimated_cost = plan.estimated_cost;
    job->record.plan_cache_hit = planned.value().cache_hit;
    if (crashed_.load(std::memory_order_acquire)) {
      AbandonLocked(job.get());
      return;
    }
    // Cancellation window between planning and execution: once the
    // enforcer starts, the run is not preemptible.
    if (job->cancel_requested) {
      job->record.state = JobState::kCancelled;
      --active_;
      active_gauge_->Set(static_cast<double>(active_));
      FinalizeLocked(job.get());
      return;
    }
    job->record.state = JobState::kRunning;
    JobJournalRecord running =
        JournalRecordFor(job->record, JournalPhase::kRunning);
    running.detail = "steps=" + std::to_string(plan.steps.size()) +
                     " estimatedSeconds=" +
                     std::to_string(plan.estimated_seconds);
    journal_.Append(std::move(running));
    exec_started_at = NowSeconds();
  }

  if (phase_probe_) phase_probe_(job->record.id, 0, 'r');

  // Chain the caller's step observer with the journal checkpoint: every
  // materialized output is appended (fenced once the job is reassigned)
  // and the step probe — the mid-run kill point — fires after the append,
  // so a kill taken there always finds the checkpoint already durable.
  IresServer::ExecutionOptions exec = job->exec;
  {
    const Enforcer::StepObserver caller = exec.step_observer;
    const JobJournalRecord step_template =
        JournalRecordFor(job->record, JournalPhase::kStepCompleted);
    const std::shared_ptr<Job> jobref = job;
    exec.step_observer = [this, jobref, caller, step_template](
                             int step_id, const DatasetInstance& out) {
      if (caller) caller(step_id, out);
      const int done =
          jobref->completed_steps.fetch_add(1, std::memory_order_relaxed) +
          1;
      JobJournalRecord rec = step_template;
      rec.step = step_id;
      rec.artifact = out;
      journal_.Append(std::move(rec));
      if (phase_probe_) phase_probe_(step_template.job, done, 's');
    };
  }

  IresServer::WorkflowRunResult result = server_->ExecutePlanned(
      job->graph, policy, planned.value(), trace, exec);

  {
    MutexLock lock(mu_);
    if (IsTerminal(job->record.state)) return;  // abandoned mid-run
    job->record.outcome = std::move(result.recovery);
    job->record.chaos_injected = result.chaos_injected;
    job->record.exec_wall_seconds = NowSeconds() - exec_started_at;
    if (crashed_.load(std::memory_order_acquire)) {
      // The run finished on a killed replica; the reassigned incarnation
      // owns the job now, so this record is a tombstone and its terminal
      // journal append is fenced away inside AbandonLocked's finalize.
      AbandonLocked(job.get());
      return;
    }
    --active_;
    active_gauge_->Set(static_cast<double>(active_));
    if (job->record.outcome.status.ok()) {
      job->record.state = JobState::kSucceeded;
    } else {
      job->record.state = JobState::kFailed;
      job->record.error = job->record.outcome.status.ToString();
    }
    FinalizeLocked(job.get());
  }
}

Result<JobRecord> JobService::Get(const std::string& id) const {
  MutexLock lock(mu_);
  auto it = jobs_.find(id);
  if (it == jobs_.end()) return Status::NotFound("job: " + id);
  return it->second->record;
}

std::vector<JobRecord> JobService::List() const {
  MutexLock lock(mu_);
  std::vector<JobRecord> out;
  out.reserve(submission_order_.size());
  for (const std::string& id : submission_order_) {
    out.push_back(jobs_.at(id)->record);
  }
  return out;
}

Status JobService::Cancel(const std::string& id) {
  MutexLock lock(mu_);
  auto it = jobs_.find(id);
  if (it == jobs_.end()) return Status::NotFound("job: " + id);
  Job& job = *it->second;
  if (IsTerminal(job.record.state)) {
    return Status::FailedPrecondition(
        "job " + id + " already " + JobStateName(job.record.state));
  }
  if (job.record.state == JobState::kQueued) {
    job.record.state = JobState::kCancelled;
    --queued_;
    queued_gauge_->Set(static_cast<double>(queued_));
    FinalizeLocked(&job);
    return Status::OK();
  }
  // PLANNING / RUNNING: honoured at the next preemption point.
  job.cancel_requested = true;
  return Status::OK();
}

JobService::Stats JobService::stats() const {
  MutexLock lock(mu_);
  Stats s;
  s.submitted = submitted_total_->Value();
  s.rejected = rejected_total_->Value();
  s.succeeded = succeeded_total_->Value();
  s.failed = failed_total_->Value();
  s.cancelled = cancelled_total_->Value();
  s.queue_depth = queued_;
  s.running = active_;
  s.workers = options_.workers;
  return s;
}

bool JobService::WaitForIdle(double timeout_seconds) const {
  MutexLock lock(mu_);
  // condition_variable_any waits on the Mutex itself, so the rank registry
  // tracks the release/reacquire cycles inside the wait.
  // Analysis waiver: the predicate runs with mu_ held (the cv reacquires
  // it before every evaluation), but the lambda is a separate function the
  // analysis cannot see that from.
  return idle_.wait_for(
      mu_, std::chrono::duration<double>(timeout_seconds),
      [this]() NO_THREAD_SAFETY_ANALYSIS {
        return queued_ == 0 && active_ == 0;
      });
}

void JobService::Shutdown() {
  MutexLock lock(mu_);
  shutting_down_ = true;
  // Undispatched jobs never reach the scheduler again.
  run_queue_.clear();
  // Dispatched jobs drain on the (still running) shared scheduler: ones
  // still QUEUED observe shutting_down_ and self-cancel, PLANNING/RUNNING
  // ones finish. The scheduler itself is the server's — never stopped here.
  // Analysis waiver: predicate evaluated with mu_ held by the cv (see
  // WaitForIdle).
  idle_.wait(mu_, [this]() NO_THREAD_SAFETY_ANALYSIS {
    return dispatched_ == 0;
  });
  // Sweep whatever never ran to CANCELLED so every record still reaches a
  // terminal state.
  for (auto& [id, job] : jobs_) {
    if (job->record.state == JobState::kQueued) {
      job->record.state = JobState::kCancelled;
      --queued_;
      FinalizeLocked(job.get());
    }
  }
  queued_gauge_->Set(static_cast<double>(queued_));
  idle_.notify_all();
}

}  // namespace ires
