#include "modeling/drift.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/strings.h"

namespace ires {

namespace {

double RelativeError(double predicted, double actual) {
  const double denom = std::max(std::abs(actual), 1e-9);
  return std::abs(predicted - actual) / denom;
}

std::string FormatDouble(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  return buf;
}

}  // namespace

DriftObservatory::DriftObservatory(MetricsRegistry* metrics)
    : metrics_(metrics) {}

bool DriftObservatory::Observe(const std::string& op,
                               const std::string& engine,
                               double predicted_seconds,
                               double actual_seconds,
                               const std::string& job_id) {
  const double rel = RelativeError(predicted_seconds, actual_seconds);

  bool newly_flagged = false;
  double score = 0.0;
  bool flagged = false;
  {
    MutexLock lock(mu_);
    PairState& state = pairs_[{op, engine}];
    if (state.residual_counts.empty()) {
      state.residual_counts.assign(kResidualBounds.size() + 1, 0);
    }
    ++state.observations;
    state.sum_rel_error += rel;
    state.last_rel_error = rel;
    state.ewma = state.observations == 1
                     ? rel
                     : kEwmaAlpha * rel + (1.0 - kEwmaAlpha) * state.ewma;

    size_t bucket = kResidualBounds.size();
    for (size_t i = 0; i < kResidualBounds.size(); ++i) {
      if (rel <= kResidualBounds[i]) {
        bucket = i;
        break;
      }
    }
    ++state.residual_counts[bucket];

    if (!job_id.empty()) {
      state.exemplars.emplace_back(rel, job_id);
      std::sort(state.exemplars.begin(), state.exemplars.end(),
                [](const auto& a, const auto& b) { return a.first > b.first; });
      if (state.exemplars.size() > kMaxExemplars) {
        state.exemplars.resize(kMaxExemplars);
      }
    }

    // Hysteresis: flag above kFlagThreshold, clear only below
    // kClearThreshold, and never flag before kMinObservations so a single
    // noisy first sample can't trigger a refit storm.
    if (!state.flagged &&
        state.observations >= kMinObservations &&
        state.ewma > kFlagThreshold) {
      state.flagged = true;
      newly_flagged = true;
    } else if (state.flagged && state.ewma < kClearThreshold) {
      state.flagged = false;
    }
    score = state.ewma;
    flagged = state.flagged;
  }

  if (metrics_ != nullptr) {
    metrics_
        ->GetHistogram("ires_model_residual_relative_error",
                       "Relative error |predicted-actual|/actual of cost-model "
                       "estimates per executed step",
                       {{"engine", engine}},
                       {kResidualBounds.begin(), kResidualBounds.end()})
        ->Observe(rel);
    metrics_
        ->GetGauge("ires_model_drift_score",
                   "EWMA relative error of cost-model estimates per "
                   "(operator, engine) pair",
                   {{"op", op}, {"engine", engine}})
        ->Set(score);
    metrics_
        ->GetGauge("ires_model_drift_flagged",
                   "1 when the (operator, engine) pair is flagged as a "
                   "refinement candidate",
                   {{"op", op}, {"engine", engine}})
        ->Set(flagged ? 1.0 : 0.0);
  }
  return newly_flagged;
}

std::vector<DriftObservatory::PairSnapshot> DriftObservatory::Snapshot()
    const {
  std::vector<PairSnapshot> out;
  MutexLock lock(mu_);
  out.reserve(pairs_.size());
  for (const auto& [key, state] : pairs_) {
    PairSnapshot snap;
    snap.op = key.first;
    snap.engine = key.second;
    snap.observations = state.observations;
    snap.drift_score = state.ewma;
    snap.mean_rel_error =
        state.observations == 0
            ? 0.0
            : state.sum_rel_error / static_cast<double>(state.observations);
    snap.last_rel_error = state.last_rel_error;
    snap.flagged = state.flagged;
    snap.residual_counts = state.residual_counts;
    snap.exemplar_jobs.reserve(state.exemplars.size());
    for (const auto& [rel, job] : state.exemplars) {
      (void)rel;
      snap.exemplar_jobs.push_back(job);
    }
    out.push_back(std::move(snap));
  }
  return out;
}

std::vector<std::pair<std::string, std::string>>
DriftObservatory::RefinementCandidates() const {
  std::vector<std::pair<std::string, std::string>> out;
  MutexLock lock(mu_);
  for (const auto& [key, state] : pairs_) {
    if (state.flagged) out.push_back(key);
  }
  return out;
}

std::string DriftObservatory::ToJson() const {
  const std::vector<PairSnapshot> pairs = Snapshot();
  std::string out = "{";
  out += "\"ewmaAlpha\":" + FormatDouble(kEwmaAlpha);
  out += ",\"flagThreshold\":" + FormatDouble(kFlagThreshold);
  out += ",\"clearThreshold\":" + FormatDouble(kClearThreshold);
  out += ",\"minObservations\":" + std::to_string(kMinObservations);
  out += ",\"residualBounds\":[";
  for (size_t i = 0; i < kResidualBounds.size(); ++i) {
    if (i > 0) out += ",";
    out += FormatDouble(kResidualBounds[i]);
  }
  out += "],\"pairs\":[";
  bool first = true;
  for (const PairSnapshot& pair : pairs) {
    if (!first) out += ",";
    first = false;
    out += "{\"op\":\"" + JsonEscape(pair.op) + "\"";
    out += ",\"engine\":\"" + JsonEscape(pair.engine) + "\"";
    out += ",\"observations\":" + std::to_string(pair.observations);
    out += ",\"driftScore\":" + FormatDouble(pair.drift_score);
    out += ",\"meanRelError\":" + FormatDouble(pair.mean_rel_error);
    out += ",\"lastRelError\":" + FormatDouble(pair.last_rel_error);
    out += std::string(",\"flagged\":") + (pair.flagged ? "true" : "false");
    out += ",\"residualCounts\":[";
    for (size_t i = 0; i < pair.residual_counts.size(); ++i) {
      if (i > 0) out += ",";
      out += std::to_string(pair.residual_counts[i]);
    }
    out += "],\"exemplarJobs\":[";
    for (size_t i = 0; i < pair.exemplar_jobs.size(); ++i) {
      if (i > 0) out += ",";
      out += "\"" + JsonEscape(pair.exemplar_jobs[i]) + "\"";
    }
    out += "]}";
  }
  out += "],\"refinementCandidates\":[";
  first = true;
  for (const PairSnapshot& pair : pairs) {
    if (!pair.flagged) continue;
    if (!first) out += ",";
    first = false;
    out += "{\"op\":\"" + JsonEscape(pair.op) + "\",\"engine\":\"" +
           JsonEscape(pair.engine) + "\"}";
  }
  out += "]}";
  return out;
}

}  // namespace ires
