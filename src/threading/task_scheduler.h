#ifndef IRES_THREADING_TASK_SCHEDULER_H_
#define IRES_THREADING_TASK_SCHEDULER_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "telemetry/event_journal.h"
#include "telemetry/metrics_registry.h"

namespace ires {

/// The shared job pool of the serving stack: a fixed set of worker threads
/// draining one mutex-guarded FIFO. Parallelism is across jobs only — each
/// JobService dispatch is one task, and the optimizers it runs (DP, NSGA-II,
/// MuSQLE's DPccp) are serial loops on that worker. There is no intra-task
/// fan-out, so a task never waits on other tasks and a task blocked on I/O
/// or a gate only holds its own worker.
///
/// Shutdown semantics: Shutdown() stops admission deterministically — every
/// Submit after it returns false and journals a `task_rejected` event —
/// and the workers drain every accepted task before they join.
///
/// Telemetry (in the MetricsRegistry passed at construction):
///   ires_sched_tasks_total{event=submitted|executed|rejected}
///   ires_sched_pending_tasks       tasks queued, not yet running
///   ires_sched_task_wait_seconds   enqueue-to-pickup queue wait histogram
///   ires_sched_parks_total         worker park (sleep) transitions
///   ires_sched_worker_runs_total{worker=...}  per-worker executed tasks
/// With an EventJournal, labelled tasks emit `task_span` events (value =
/// run seconds) and refused submissions emit `task_rejected`.
class TaskScheduler {
 public:
  struct Options {
    /// Worker threads; <=0 uses std::thread::hardware_concurrency().
    int workers = 0;
    EventJournal* journal = nullptr;
    /// Injectable wall clock (seconds) for queue waits and the backlog
    /// tracker; null uses steady_clock. Tests march a fake clock forward.
    std::function<double()> clock;
  };

  /// Queue depth above workers * kBacklogPerWorker arms the backlog timer
  /// that /apiv1/healthz reads (see BacklogSeconds).
  static constexpr size_t kBacklogPerWorker = 4;

  TaskScheduler(MetricsRegistry& metrics, Options options);

  /// Shuts down: drains queued tasks, joins workers.
  ~TaskScheduler();

  TaskScheduler(const TaskScheduler&) = delete;
  TaskScheduler& operator=(const TaskScheduler&) = delete;

  /// Enqueues a fire-and-forget task; safe from any thread, including a
  /// running task. Returns false — always, and only, after Shutdown() —
  /// in which case the task is not run and a `task_rejected` journal event
  /// records the drop. A non-empty `label` opts the task into
  /// flight-recorder span events.
  bool Submit(std::function<void()> fn, const std::string& label = "")
      EXCLUDES(mu_);

  /// Stops admission, drains every queued task and joins the workers.
  /// Idempotent; called by the destructor.
  void Shutdown() EXCLUDES(mu_);

  int worker_count() const { return static_cast<int>(threads_.size()); }

  /// Tasks queued and not yet picked up by a worker.
  size_t pending() const EXCLUDES(mu_);

  /// Sustained seconds the queue depth has exceeded
  /// workers * kBacklogPerWorker, measured across calls with the injected
  /// clock (poll-driven: healthz calls it on every scrape). Returns 0 and
  /// re-arms whenever the backlog clears — the saturation signal behind
  /// /apiv1/healthz "degraded".
  double BacklogSeconds() EXCLUDES(mu_);

 private:
  struct Task {
    std::function<void()> fn;
    /// Non-empty labels get a flight-recorder task span on completion.
    std::string label;
    double enqueued_at = 0.0;  // ClockSeconds() at Submit
  };

  void WorkerLoop(int index) EXCLUDES(mu_);
  void Execute(const Task& task, int index);
  double ClockSeconds() const;

  std::function<double()> clock_;
  EventJournal* journal_;
  std::vector<std::thread> threads_;

  mutable Mutex mu_{LockRank::kScheduler, "sched.queue"};
  std::condition_variable_any ready_;
  std::deque<Task> queue_ GUARDED_BY(mu_);
  bool shutting_down_ GUARDED_BY(mu_) = false;
  double backlog_since_ GUARDED_BY(mu_) = -1.0;

  Counter* submitted_total_;
  Counter* executed_total_;
  Counter* rejected_total_;
  Counter* parks_total_;
  Gauge* pending_gauge_;
  Histogram* wait_seconds_;
  std::vector<Counter*> worker_runs_;  // ires_sched_worker_runs_total
};

}  // namespace ires

#endif  // IRES_THREADING_TASK_SCHEDULER_H_
