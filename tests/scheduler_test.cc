// TaskScheduler suite — the shared job pool: a fixed set of workers over one
// mutex-guarded FIFO. CI runs this binary under ThreadSanitizer. Covers the
// contract the serving stack relies on: every task runs exactly once under
// concurrent external and nested submitters (a finishing job dispatches the
// next one from inside its task), deterministic shutdown, the fake-clock
// backlog timer behind /apiv1/healthz, metric and task-span accounting, and
// that a task blocked on a gate holds only its own worker.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "telemetry/event_journal.h"
#include "telemetry/metrics_registry.h"
#include "threading/task_scheduler.h"

namespace ires {
namespace {

// Spins (yielding) until `done` reaches `target` or ~10 s pass.
bool WaitFor(const std::atomic<int>& done, int target) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (done.load() < target) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

uint64_t TaskCounter(MetricsRegistry& metrics, const char* event) {
  return metrics
      .GetCounter("ires_sched_tasks_total", "Scheduler task lifecycle",
                  {{"event", event}})
      ->Value();
}

// ------------------------------------------------------------ exactly once

// Eight external threads submit concurrently, and every task submits its
// successor from inside its own run (depth 0 -> 1 -> 2), the way a job that
// finishes dispatches the next queued one.
TEST(TaskSchedulerTest, EveryTaskRunsOnceWithExternalAndNestedSubmitters) {
  constexpr int kSubmitters = 8;
  constexpr int kPerSubmitter = 200;
  constexpr int kDepth = 3;
  constexpr int kTotal = kSubmitters * kPerSubmitter * kDepth;
  MetricsRegistry metrics;
  TaskScheduler scheduler(metrics, {.workers = 4});
  std::vector<std::atomic<int>> runs(kTotal);
  std::atomic<int> done{0};

  // Runs slot `base + depth`, then submits depth + 1 from the worker.
  std::function<void(int, int)> step = [&](int base, int depth) {
    runs[base + depth].fetch_add(1);
    if (depth + 1 < kDepth) {
      EXPECT_TRUE(scheduler.Submit([&, base, depth] { step(base, depth + 1); }));
    }
    done.fetch_add(1);
  };

  std::vector<std::thread> submitters;
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < kPerSubmitter; ++i) {
        const int base = (t * kPerSubmitter + i) * kDepth;
        EXPECT_TRUE(scheduler.Submit([&, base] { step(base, 0); }));
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  ASSERT_TRUE(WaitFor(done, kTotal));
  scheduler.Shutdown();

  for (int i = 0; i < kTotal; ++i) {
    ASSERT_EQ(runs[i].load(), 1) << "slot " << i;
  }
  EXPECT_EQ(TaskCounter(metrics, "executed"), static_cast<uint64_t>(kTotal));
}

// ----------------------------------------------------------------- shutdown

// Submitters race Shutdown: each keeps submitting until its first refusal,
// then checks the refusal is sticky. Every accepted task must have run by
// the time Shutdown returns, and every refusal is counted and journaled.
TEST(TaskSchedulerTest, ShutdownDrainsAcceptedTasksAndRejectsLater) {
  constexpr int kSubmitters = 4;
  MetricsRegistry metrics;
  EventJournal journal;
  TaskScheduler scheduler(metrics, {.workers = 4, .journal = &journal});

  std::atomic<int> ran{0};
  std::atomic<int> accepted{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> submitters;
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&] {
      while (!go.load()) std::this_thread::yield();
      while (scheduler.Submit([&ran] { ran.fetch_add(1); })) {
        accepted.fetch_add(1);
      }
      EXPECT_FALSE(scheduler.Submit([&ran] { ran.fetch_add(1); }));
    });
  }
  go.store(true);
  while (accepted.load() < 1000) std::this_thread::yield();
  scheduler.Shutdown();
  for (std::thread& t : submitters) t.join();

  // Every accepted task ran before the workers joined; nothing was dropped.
  EXPECT_EQ(ran.load(), accepted.load());
  EXPECT_EQ(TaskCounter(metrics, "submitted"),
            static_cast<uint64_t>(accepted.load()));
  EXPECT_EQ(TaskCounter(metrics, "executed"),
            static_cast<uint64_t>(accepted.load()));

  // A labelled post-shutdown submission: deterministic false + an event.
  EXPECT_FALSE(scheduler.Submit([&ran] { ran.fetch_add(1); }, "late.task"));
  EXPECT_EQ(ran.load(), accepted.load());
  constexpr int kRejected = 2 * kSubmitters + 1;
  EXPECT_EQ(TaskCounter(metrics, "rejected"), static_cast<uint64_t>(kRejected));
  EventJournal::Filter filter;
  filter.has_kind = true;
  filter.kind = EventKind::kTaskRejected;
  const std::vector<JournalEvent> rejected = journal.Query(filter);
  ASSERT_EQ(rejected.size(), static_cast<size_t>(kRejected));
  for (const JournalEvent& event : rejected) EXPECT_EQ(event.code, "shutdown");
  int late = 0;
  for (const JournalEvent& event : rejected) late += event.detail == "late.task";
  EXPECT_EQ(late, 1);
}

// ------------------------------------------------------- backlog fake clock

TEST(TaskSchedulerTest, BacklogSecondsTracksSustainedDepthOnFakeClock) {
  std::atomic<double> now{100.0};
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();

  MetricsRegistry metrics;
  TaskScheduler scheduler(
      metrics, {.workers = 1, .clock = [&now] { return now.load(); }});

  ASSERT_TRUE(scheduler.Submit([released] { released.wait(); }));
  // Wait until the worker has picked the blocker up, so the queued tasks
  // below are pure backlog.
  while (scheduler.pending() != 0) std::this_thread::yield();
  constexpr size_t kQueued = TaskScheduler::kBacklogPerWorker + 2;
  for (size_t i = 0; i < kQueued; ++i) {
    ASSERT_TRUE(scheduler.Submit([released] { released.wait(); }));
  }
  ASSERT_EQ(scheduler.pending(), kQueued);  // above 1 * kBacklogPerWorker

  EXPECT_EQ(scheduler.BacklogSeconds(), 0.0);  // arms the timer
  now.store(103.5);
  EXPECT_DOUBLE_EQ(scheduler.BacklogSeconds(), 3.5);

  release.set_value();
  while (scheduler.pending() != 0) std::this_thread::yield();
  EXPECT_EQ(scheduler.BacklogSeconds(), 0.0);  // drained => disarmed
}

// ----------------------------------------------------------- blocked worker

// A task parked on a gate holds only its own worker: the rest of the pool
// keeps draining the queue behind it.
TEST(TaskSchedulerTest, TaskBlockedOnGateDoesNotStopOtherWorkers) {
  MetricsRegistry metrics;
  TaskScheduler scheduler(metrics, {.workers = 2});
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  std::atomic<bool> blocked_started{false};
  ASSERT_TRUE(scheduler.Submit([&blocked_started, opened] {
    blocked_started.store(true);
    opened.wait();
  }));
  while (!blocked_started.load()) std::this_thread::yield();

  constexpr int kTasks = 100;
  std::atomic<int> done{0};
  for (int i = 0; i < kTasks; ++i) {
    ASSERT_TRUE(scheduler.Submit([&done] { done.fetch_add(1); }));
  }
  EXPECT_TRUE(WaitFor(done, kTasks));
  EXPECT_EQ(opened.wait_for(std::chrono::seconds(0)),
            std::future_status::timeout);  // still blocked throughout
  gate.set_value();
  scheduler.Shutdown();
  EXPECT_EQ(done.load(), kTasks);
}

// --------------------------------------------------------------- telemetry

TEST(TaskSchedulerTest, MetricsAccountForEveryTask) {
  constexpr int kWorkers = 4;
  MetricsRegistry metrics;
  EventJournal journal;
  TaskScheduler scheduler(metrics, {.workers = kWorkers, .journal = &journal});
  std::atomic<int> ran{0};
  for (int i = 0; i < 200; ++i) {
    // Only labelled tasks emit a flight-recorder span.
    const std::string label = i == 0 ? "probe.task" : "";
    ASSERT_TRUE(scheduler.Submit([&ran] { ran.fetch_add(1); }, label));
  }
  scheduler.Shutdown();
  EXPECT_EQ(ran.load(), 200);
  EventJournal::Filter spans;
  spans.has_kind = true;
  spans.kind = EventKind::kTaskSpan;
  const std::vector<JournalEvent> span_events = journal.Query(spans);
  ASSERT_EQ(span_events.size(), 1u);
  EXPECT_EQ(span_events[0].detail, "probe.task");

  EXPECT_EQ(TaskCounter(metrics, "submitted"), 200u);
  EXPECT_EQ(TaskCounter(metrics, "executed"), 200u);
  EXPECT_EQ(TaskCounter(metrics, "rejected"), 0u);
  uint64_t runs = 0;
  for (int w = 0; w < kWorkers; ++w) {
    runs += metrics
                .GetCounter("ires_sched_worker_runs_total",
                            "Tasks executed, per worker",
                            {{"worker", std::to_string(w)}})
                ->Value();
  }
  EXPECT_EQ(runs, 200u);

  const std::string text = metrics.RenderPrometheus();
  EXPECT_NE(text.find("ires_sched_tasks_total{event=\"executed\"} 200"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("ires_sched_task_wait_seconds_count 200"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("ires_sched_pending_tasks 0"), std::string::npos)
      << text;
  EXPECT_NE(text.find("ires_sched_parks_total"), std::string::npos) << text;
  EXPECT_EQ(text.find("ires_sched_steals_total"), std::string::npos) << text;
}

}  // namespace
}  // namespace ires
