#include "service/control_plane.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>

namespace ires {

namespace {

/// splitmix64 finalizer: spreads sequential virtual-node indices and raw
/// workflow fingerprints evenly over the ring's key space.
uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// FNV-1a over a job id — the rerouting key during failover (the original
/// fingerprint's home replica is the one that just died).
uint64_t HashString(const std::string& s) {
  uint64_t h = 1469598103934665603ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

constexpr char kJobsHelp[] = "Terminal job outcomes plus admission events.";

}  // namespace

const char* ControlPlane::ReplicaStateName(ReplicaState state) {
  switch (state) {
    case ReplicaState::kUp: return "up";
    case ReplicaState::kSuspect: return "suspect";
    case ReplicaState::kDown: return "down";
  }
  return "?";
}

ControlPlane::ControlPlane(IresServer* server)
    : ControlPlane(server, Options()) {}

ControlPlane::ControlPlane(IresServer* server, Options options)
    : server_(server), options_(options), journal_(&server->journal()) {
  const int count = std::max(1, options_.replicas);
  for (int i = 0; i < count; ++i) {
    services_.push_back(std::make_unique<JobService>(
        server, options_.replica_options, journal_));
  }
  if (options_.chaos.enabled()) {
    chaos_ = std::make_unique<ControlPlaneChaos>(options_.chaos);
  }
  MetricsRegistry& metrics = server_->metrics();
  failovers_total_ = metrics.GetCounter(
      "ires_control_plane_failovers_total",
      "Open jobs fenced and resubmitted to a live replica after their "
      "replica went down.");
  rejected_total_ =
      metrics.GetCounter("ires_jobs_total", kJobsHelp, {{"event", "rejected"}});
  replicas_up_gauge_ = metrics.GetGauge("ires_control_plane_replicas_up",
                                        "Replicas currently heartbeating.");
  queued_gauge_ = metrics.GetGauge("ires_jobs_queued",
                                   "Jobs admitted and awaiting a worker.");
  MutexLock lock(mu_);
  replicas_.resize(services_.size());
  BuildRingLocked();
  replicas_up_gauge_->Set(static_cast<double>(services_.size()));
  // Chaos kills fire from the replicas' own job threads at phase
  // boundaries — probe-synchronous, so a "mid-run" kill lands exactly
  // after a step checkpoint, never at a torn arbitrary instant.
  if (chaos_ != nullptr) {
    for (size_t i = 0; i < services_.size(); ++i) {
      const int index = static_cast<int>(i);
      services_[i]->set_phase_probe(
          [this, index](const std::string& job_id, int completed_steps,
                        char phase) {
            OnPhase(index, job_id, completed_steps, phase);
          });
    }
  }
}

ControlPlane::~ControlPlane() {
  // Join every replica's job threads before any member (the probe target,
  // the journal, mu_) goes away.
  for (std::unique_ptr<JobService>& service : services_) service->Shutdown();
}

void ControlPlane::BuildRingLocked() {
  ring_.clear();
  for (size_t i = 0; i < services_.size(); ++i) {
    for (int v = 0; v < kVirtualNodes; ++v) {
      ring_.emplace_back(
          Mix64((static_cast<uint64_t>(i) << 32) | static_cast<uint64_t>(v)),
          static_cast<int>(i));
    }
  }
  std::sort(ring_.begin(), ring_.end());
}

int ControlPlane::RouteLiveLocked(uint64_t hash) const {
  if (ring_.empty()) return -1;
  auto it = std::lower_bound(ring_.begin(), ring_.end(),
                             std::make_pair(hash, -1));
  for (size_t walked = 0; walked < ring_.size(); ++walked) {
    if (it == ring_.end()) it = ring_.begin();
    const int replica = it->second;
    if (replicas_[replica].state == ReplicaState::kUp &&
        !services_[replica]->crashed()) {
      return replica;
    }
    ++it;
  }
  return -1;
}

int ControlPlane::RouteOf(uint64_t fingerprint) const {
  MutexLock lock(mu_);
  if (ring_.empty()) return -1;
  auto it = std::lower_bound(ring_.begin(), ring_.end(),
                             std::make_pair(Mix64(fingerprint), -1));
  if (it == ring_.end()) it = ring_.begin();
  return it->second;
}

int ControlPlane::LiveCountLocked() const {
  int live = 0;
  for (size_t i = 0; i < replicas_.size(); ++i) {
    if (replicas_[i].state == ReplicaState::kUp && !services_[i]->crashed()) {
      ++live;
    }
  }
  return live;
}

void ControlPlane::SetTenant(const std::string& tenant, TenantConfig config) {
  MutexLock lock(mu_);
  tenants_[tenant] = config;
}

Result<std::string> ControlPlane::Submit(const WorkflowGraph& graph,
                                         const SubmitRequest& request) {
  MutexLock lock(mu_);
  // Idempotent resubmission: the original admission decision stands, the
  // original job id comes back — across replicas and across failovers.
  if (!request.idempotency_key.empty()) {
    auto it = idempotency_.find(request.idempotency_key);
    if (it != idempotency_.end()) return it->second;
  }
  TenantConfig tenant_config;
  auto tenant_it = tenants_.find(request.tenant);
  if (tenant_it != tenants_.end()) tenant_config = tenant_it->second;
  auto reject = [this, &request](const char* reason) {
    rejected_total_->Increment();
    server_->metrics()
        .GetCounter("ires_admission_rejects_total",
                    "Submissions bounced at admission, by tenant and "
                    "reason.",
                    {{"tenant", request.tenant}, {"reason", reason}})
        ->Increment();
  };
  // Tenant quota, measured against the journal's open-job count so it
  // spans every replica (and survives failover reshuffles).
  if (tenant_config.max_open_jobs > 0 &&
      journal_.OpenCountForTenant(request.tenant) >=
          tenant_config.max_open_jobs) {
    reject("quota");
    return Status::ResourceExhausted(
        "tenant " + request.tenant + " at open-job quota (" +
        std::to_string(tenant_config.max_open_jobs) + ")");
  }
  // Graceful degradation: shed the lowest QoS classes first as aggregate
  // saturation climbs, instead of 429ing everyone at the cliff.
  if (options_.shed_bronze_at > 0.0 || options_.shed_silver_at > 0.0) {
    size_t capacity = 0;
    for (const std::unique_ptr<JobService>& service : services_) {
      capacity += service->options().queue_capacity;
    }
    const double saturation =
        capacity == 0 ? 0.0
                      : queued_gauge_->Value() / static_cast<double>(capacity);
    const bool shed_bronze = options_.shed_bronze_at > 0.0 &&
                             tenant_config.qos_class >= 2 &&
                             saturation >= options_.shed_bronze_at;
    const bool shed_silver = options_.shed_silver_at > 0.0 &&
                             tenant_config.qos_class >= 1 &&
                             saturation >= options_.shed_silver_at;
    if (shed_bronze || shed_silver) {
      reject("shed");
      return Status::Unavailable(
          "shedding class-" + std::to_string(tenant_config.qos_class) +
          " load at " + std::to_string(saturation) + " saturation");
    }
  }
  const int target = RouteLiveLocked(Mix64(graph.Fingerprint()));
  if (target < 0) {
    reject("no_replica");
    return Status::Unavailable("no live replica");
  }
  JobService::SubmitMeta meta;
  meta.tenant = request.tenant;
  meta.qos_class = tenant_config.qos_class;
  meta.weight = tenant_config.weight;
  meta.idempotency_key = request.idempotency_key;
  meta.replica = target;
  char buf[32];
  std::snprintf(buf, sizeof(buf), "job-%06llu",
                static_cast<unsigned long long>(next_job_number_++));
  meta.id = buf;
  Result<std::string> submitted =
      services_[target]->Submit(graph, request.workflow_name, request.policy,
                                request.exec, request.slo_class, meta);
  if (!submitted.ok()) {
    // Don't burn the minted id on a replica-level reject: callers observe
    // densely numbered ids (reject-then-accept still yields job-000001).
    --next_job_number_;
    return submitted.status();
  }
  const std::string& id = submitted.value();
  assignment_[id] = target;
  if (!request.idempotency_key.empty()) {
    idempotency_[request.idempotency_key] = id;
  }
  return id;
}

Result<JobRecord> ControlPlane::Get(const std::string& id) const {
  int target = -1;
  {
    MutexLock lock(mu_);
    auto it = assignment_.find(id);
    if (it != assignment_.end()) target = it->second;
  }
  if (target < 0) return Status::NotFound("job: " + id);
  return services_[target]->Get(id);
}

std::vector<JobRecord> ControlPlane::List() const {
  // A failed-over job has a record on every replica it visited; keep the
  // highest incarnation (the one that owned — or still owns — the job).
  std::map<std::string, JobRecord> by_id;
  for (const std::unique_ptr<JobService>& service : services_) {
    for (JobRecord& record : service->List()) {
      auto it = by_id.find(record.id);
      if (it == by_id.end() || record.incarnation > it->second.incarnation) {
        by_id[record.id] = std::move(record);
      }
    }
  }
  std::vector<JobRecord> out;
  out.reserve(by_id.size());
  for (auto& [id, record] : by_id) out.push_back(std::move(record));
  return out;  // map order == id order == submission order for minted ids
}

Status ControlPlane::Cancel(const std::string& id) {
  int target = -1;
  {
    MutexLock lock(mu_);
    auto it = assignment_.find(id);
    if (it != assignment_.end()) target = it->second;
  }
  if (target < 0) return Status::NotFound("job: " + id);
  return services_[target]->Cancel(id);
}

bool ControlPlane::ResubmitLocked(const JobJournal::OpenJob& open,
                                  int target) {
  auto owner_it = assignment_.find(open.job);
  if (owner_it == assignment_.end()) return false;
  // Read the submission from the owner's retained Job. The shared_ptr
  // keeps it alive when the target is the owner itself (RestartReplica
  // re-adoption replaces the map slot); graph, exec, QoS class and weight
  // never change after Submit, the record fields are copied under the
  // owner's lock, which is released before Submit takes the target's.
  std::shared_ptr<const JobService::Job> owned;
  std::string workflow_name;
  OptimizationPolicy policy;
  std::string slo_class;
  {
    JobService& owner = *services_[owner_it->second];
    MutexLock owner_lock(owner.mu_);
    auto job_it = owner.jobs_.find(open.job);
    if (job_it == owner.jobs_.end()) return false;
    owned = job_it->second;
    workflow_name = owned->record.workflow;
    policy = owned->record.policy;
    slo_class = owned->record.slo_class;
  }
  const uint64_t incarnation = journal_.Reassign(open.job, target);
  // 0 means the job raced to terminal between the snapshot and now —
  // whichever of "terminal append" and "Reassign" wins, the loser no-ops.
  if (incarnation == 0) return false;
  JobService::SubmitMeta meta;
  meta.tenant = open.tenant;
  meta.qos_class = owned->qos_class;
  meta.weight = owned->weight;
  meta.idempotency_key = open.idempotency_key;
  meta.id = open.job;
  meta.incarnation = incarnation;
  meta.replica = target;
  meta.recovered = true;
  IresServer::ExecutionOptions exec = owned->exec;
  // The journaled step outputs seed the planner's materialized-
  // intermediates pruning: the resumed run replans around work already
  // done instead of redoing it.
  exec.resume_materialized = open.materialized;
  owner_it->second = target;
  failovers_total_->Increment();
  JournalWriter(&server_->journal(), open.job)
      .Emit(EventKind::kJobFailover, -1, "", "",
            static_cast<double>(incarnation),
            "incarnation " + std::to_string(incarnation) + " -> replica " +
                std::to_string(target));
  services_[target]->Submit(owned->graph, workflow_name, policy, exec,
                            slo_class, meta);
  return true;
}

void ControlPlane::MarkDownAndFailoverLocked(int index) {
  Replica& replica = replicas_[index];
  if (replica.state == ReplicaState::kDown) return;
  replica.state = ReplicaState::kDown;
  services_[index]->SimulateCrash();
  replicas_up_gauge_->Set(static_cast<double>(LiveCountLocked()));
  EmitReplicaState(index, "down");
  // Snapshot-then-reassign: open jobs (with their materialized step
  // prefixes) are read first, then each is fenced and rerouted. Jobs that
  // reach terminal in between are skipped by ResubmitLocked's fence.
  for (const JobJournal::OpenJob& open : journal_.OpenJobsOn(index)) {
    const int target = RouteLiveLocked(HashString(open.job));
    if (target < 0) break;  // stranded; re-adopted on RestartReplica
    ResubmitLocked(open, target);
  }
}

void ControlPlane::KillReplica(int replica) {
  MutexLock lock(mu_);
  MarkDownAndFailoverLocked(replica);
}

void ControlPlane::RestartReplica(int index) {
  MutexLock lock(mu_);
  Replica& replica = replicas_[index];
  services_[index]->ClearCrash();
  replica.partitioned = false;
  replica.state = ReplicaState::kUp;
  replica.last_heartbeat = -1.0;  // re-bootstraps on the next Tick
  replicas_up_gauge_->Set(static_cast<double>(LiveCountLocked()));
  EmitReplicaState(index, "up");
  // Re-adopt jobs stranded open on this replica (they had no live
  // failover target when it went down).
  for (const JobJournal::OpenJob& open : journal_.OpenJobsOn(index)) {
    ResubmitLocked(open, index);
  }
}

void ControlPlane::PartitionReplica(int index) {
  MutexLock lock(mu_);
  if (!replicas_[index].partitioned) {
    replicas_[index].partitioned = true;
    EmitReplicaState(index, "partitioned");
  }
}

void ControlPlane::HealReplica(int index) {
  MutexLock lock(mu_);
  Replica& replica = replicas_[index];
  if (replica.partitioned) {
    replica.partitioned = false;
    EmitReplicaState(index, "healed");
  }
  replica.last_heartbeat = -1.0;
}

void ControlPlane::Tick(double now_seconds) {
  MutexLock lock(mu_);
  // Chaos partition: at most one replica per tick stops heartbeating
  // (round-robin over live unpartitioned replicas, never the last one).
  if (chaos_ != nullptr && chaos_->DecidePartition()) {
    const int count = static_cast<int>(replicas_.size());
    for (int step = 0; step < count; ++step) {
      const int i = (partition_cursor_ + step) % count;
      if (replicas_[i].state == ReplicaState::kUp &&
          !replicas_[i].partitioned && LiveCountLocked() > 1) {
        replicas_[i].partitioned = true;
        EmitReplicaState(i, "partitioned");
        partition_cursor_ = i + 1;
        break;
      }
    }
  }
  for (size_t i = 0; i < replicas_.size(); ++i) {
    Replica& replica = replicas_[i];
    if (replica.last_heartbeat < 0.0) replica.last_heartbeat = now_seconds;
    const bool heartbeating = replica.state != ReplicaState::kDown &&
                              !replica.partitioned &&
                              !services_[i]->crashed();
    if (heartbeating) replica.last_heartbeat = now_seconds;
    if (replica.state == ReplicaState::kDown) continue;
    const double age = now_seconds - replica.last_heartbeat;
    if (age >= kDownAfterSeconds) {
      MarkDownAndFailoverLocked(static_cast<int>(i));
    } else if (age >= kSuspectAfterSeconds) {
      if (replica.state != ReplicaState::kSuspect) {
        replica.state = ReplicaState::kSuspect;
        EmitReplicaState(static_cast<int>(i), "suspect");
      }
    } else if (replica.state != ReplicaState::kUp) {
      replica.state = ReplicaState::kUp;
      EmitReplicaState(static_cast<int>(i), "up");
    }
  }
}

void ControlPlane::OnPhase(int replica, const std::string& /*job_id*/,
                           int /*completed_steps*/, char phase) {
  if (chaos_ == nullptr) return;
  if (phase != 'p' && phase != 's') return;
  MutexLock lock(mu_);
  if (replicas_[replica].state != ReplicaState::kUp) return;
  if (LiveCountLocked() <= 1) return;  // never kill the last live replica
  if (!chaos_->DecideKill(phase)) return;
  if (chaos_->DecideTorn()) journal_.TearNext();
  MarkDownAndFailoverLocked(replica);
}

ControlPlane::Health ControlPlane::health() const {
  MutexLock lock(mu_);
  Health health;
  for (size_t i = 0; i < replicas_.size(); ++i) {
    const Replica& replica = replicas_[i];
    ReplicaHealth entry;
    entry.id = static_cast<int>(i);
    entry.state = replica.state;
    entry.partitioned = replica.partitioned;
    const JobService& service = *services_[i];
    {
      MutexLock service_lock(service.mu_);
      entry.queue_depth = service.queued_;
      entry.running = service.active_;
    }
    entry.backlog_seconds = service.BacklogSeconds();
    entry.journal_lag = journal_.ReplicaLag(static_cast<int>(i));
    health.queue_depth += entry.queue_depth;
    health.running += entry.running;
    health.queue_capacity += service.options().queue_capacity;
    health.workers += service.options().workers;
    if (entry.state != ReplicaState::kUp) health.degraded = true;
    health.replicas.push_back(entry);
  }
  return health;
}

double ControlPlane::RetryAfterSeconds() const {
  MutexLock lock(mu_);
  double best = -1.0;
  for (size_t i = 0; i < replicas_.size(); ++i) {
    if (replicas_[i].state != ReplicaState::kUp || services_[i]->crashed()) {
      continue;
    }
    const double backlog = services_[i]->BacklogSeconds();
    if (best < 0.0 || backlog < best) best = backlog;
  }
  if (best < 0.0) best = kDownAfterSeconds;  // nothing live
  return std::max(1.0, std::ceil(best));
}

bool ControlPlane::WaitForIdle(double timeout_seconds) const {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(timeout_seconds));
  while (true) {
    bool all_idle = true;
    for (const std::unique_ptr<JobService>& service : services_) {
      if (!service->WaitForIdle(0.05)) all_idle = false;
    }
    // A failover can land new work on an already-checked replica, so only
    // a full all-idle pass counts.
    if (all_idle) return true;
    if (std::chrono::steady_clock::now() >= deadline) return false;
  }
}

void ControlPlane::EmitReplicaState(int replica, const char* state) const {
  JournalWriter(&server_->journal(), "")
      .Emit(EventKind::kReplicaState, -1, "", state,
            static_cast<double>(replica),
            "replica " + std::to_string(replica) + " " + state);
}

}  // namespace ires
