#include "threading/task_scheduler.h"

#include <chrono>
#include <utility>

namespace ires {

namespace {

double SteadySeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

TaskScheduler::TaskScheduler(MetricsRegistry& metrics, Options options)
    : clock_(std::move(options.clock)),
      journal_(options.journal),
      submitted_total_(metrics.GetCounter("ires_sched_tasks_total",
                                          "Scheduler task lifecycle",
                                          {{"event", "submitted"}})),
      executed_total_(metrics.GetCounter("ires_sched_tasks_total",
                                         "Scheduler task lifecycle",
                                         {{"event", "executed"}})),
      rejected_total_(metrics.GetCounter("ires_sched_tasks_total",
                                         "Scheduler task lifecycle",
                                         {{"event", "rejected"}})),
      parks_total_(metrics.GetCounter("ires_sched_parks_total",
                                      "Worker park (sleep) transitions")),
      pending_gauge_(metrics.GetGauge("ires_sched_pending_tasks",
                                      "Tasks enqueued and not yet running")),
      wait_seconds_(metrics.GetHistogram(
          "ires_sched_task_wait_seconds",
          "Queue wait from enqueue to a worker picking the task up")) {
  int workers = options.workers;
  if (workers <= 0) {
    workers = static_cast<int>(std::thread::hardware_concurrency());
    if (workers <= 0) workers = 4;
  }
  worker_runs_.reserve(workers);
  for (int i = 0; i < workers; ++i) {
    worker_runs_.push_back(metrics.GetCounter(
        "ires_sched_worker_runs_total", "Tasks executed, per worker",
        {{"worker", std::to_string(i)}}));
  }
  threads_.reserve(workers);
  for (int i = 0; i < workers; ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

TaskScheduler::~TaskScheduler() { Shutdown(); }

double TaskScheduler::ClockSeconds() const {
  return clock_ ? clock_() : SteadySeconds();
}

bool TaskScheduler::Submit(std::function<void()> fn,
                           const std::string& label) {
  Task task{std::move(fn), label, ClockSeconds()};
  {
    // The flag and the queue share one lock, so "Submit returned false"
    // and "the task will be drained" are exhaustive, exclusive outcomes.
    MutexLock lock(mu_);
    if (!shutting_down_) {
      queue_.push_back(std::move(task));
      pending_gauge_->Set(static_cast<double>(queue_.size()));
      submitted_total_->Increment();
      ready_.notify_one();
      return true;
    }
  }
  rejected_total_->Increment();
  if (journal_ != nullptr) {
    JournalEvent event;
    event.kind = EventKind::kTaskRejected;
    event.code = "shutdown";
    event.detail = label;
    journal_->Append(std::move(event));
  }
  return false;
}

void TaskScheduler::WorkerLoop(int index) {
  for (;;) {
    Task task;
    {
      MutexLock lock(mu_);
      while (queue_.empty() && !shutting_down_) {
        parks_total_->Increment();
        // condition_variable_any waits directly on the ires::Mutex, so the
        // rank registry tracks the release/reacquire inside wait.
        ready_.wait(mu_);
      }
      if (queue_.empty()) return;  // shut down and drained
      task = std::move(queue_.front());
      queue_.pop_front();
      pending_gauge_->Set(static_cast<double>(queue_.size()));
    }
    Execute(task, index);
  }
}

void TaskScheduler::Execute(const Task& task, int index) {
  const double wait = ClockSeconds() - task.enqueued_at;
  wait_seconds_->Observe(wait > 0.0 ? wait : 0.0);
  const bool span =
      journal_ != nullptr && journal_->enabled() && !task.label.empty();
  const double started = span ? SteadySeconds() : 0.0;
  task.fn();
  executed_total_->Increment();
  worker_runs_[index]->Increment();
  if (span) {
    JournalEvent event;
    event.kind = EventKind::kTaskSpan;
    event.value = SteadySeconds() - started;
    event.detail = task.label;
    journal_->Append(std::move(event));
  }
}

void TaskScheduler::Shutdown() {
  {
    MutexLock lock(mu_);
    shutting_down_ = true;
  }
  ready_.notify_all();
  for (std::thread& thread : threads_) {
    if (thread.joinable()) thread.join();
  }
}

size_t TaskScheduler::pending() const {
  MutexLock lock(mu_);
  return queue_.size();
}

double TaskScheduler::BacklogSeconds() {
  const double now = ClockSeconds();
  MutexLock lock(mu_);
  if (queue_.size() <= threads_.size() * kBacklogPerWorker) {
    backlog_since_ = -1.0;
    return 0.0;
  }
  if (backlog_since_ < 0.0) backlog_since_ = now;
  return now - backlog_since_;
}

}  // namespace ires
