#include "planner/plan_cache.h"

namespace ires {

PlanCache::PlanCache(MetricsRegistry& metrics) {
  const std::string help = "Plan-cache events by outcome.";
  hits_ = metrics.GetCounter("ires_plan_cache_events_total", help,
                             {{"event", "hit"}});
  misses_ = metrics.GetCounter("ires_plan_cache_events_total", help,
                               {{"event", "miss"}});
  insertions_ = metrics.GetCounter("ires_plan_cache_events_total", help,
                                   {{"event", "insert"}});
  evictions_ = metrics.GetCounter("ires_plan_cache_events_total", help,
                                  {{"event", "evict"}});
  entries_gauge_ =
      metrics.GetGauge("ires_plan_cache_entries", "Plans currently cached.");
}

std::optional<ExecutionPlan> PlanCache::Lookup(const Key& key) {
  MutexLock lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    misses_->Increment();
    return std::nullopt;
  }
  hits_->Increment();
  return it->second;
}

void PlanCache::Insert(const Key& key, const ExecutionPlan& plan) {
  MutexLock lock(mu_);
  if (entries_.count(key) > 0) return;
  while (entries_.size() >= kCapacity && !insertion_order_.empty()) {
    entries_.erase(insertion_order_.front());
    insertion_order_.pop_front();
    evictions_->Increment();
  }
  entries_.emplace(key, plan);
  insertion_order_.push_back(key);
  insertions_->Increment();
  entries_gauge_->Set(static_cast<double>(entries_.size()));
}

void PlanCache::Clear() {
  MutexLock lock(mu_);
  entries_.clear();
  insertion_order_.clear();
  entries_gauge_->Set(0.0);
}

PlanCache::Stats PlanCache::stats() const {
  MutexLock lock(mu_);
  Stats out;
  out.hits = hits_->Value();
  out.misses = misses_->Value();
  out.insertions = insertions_->Value();
  out.evictions = evictions_->Value();
  out.entries = entries_.size();
  return out;
}

}  // namespace ires
