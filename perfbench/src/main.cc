// perfbench: the IReS benchmark program. Runs one named workload from a
// seed, checks the program's outputs against properties the method must
// have, and prints every metric by name and unit. The last line of stdout
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//   perfbench --workload dag_adaptive|sql_tpch|plan_cold --seed N
//             --seconds S --trace 0|1 [--trace-out spans.json]
//
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
// (and records the benchmark's own spans around each call into the
// program).

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "harness.h"

namespace {

using perfbench::Args;
using perfbench::Metric;
using perfbench::RunResult;

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  if (argc % 2 == 0) {
    std::fprintf(stderr, "flag without a value\n");
    return false;
  }
  return !args->workload.empty() && args->seconds > 0.0;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c == '\n' ? ' ' : c;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload dag_adaptive|sql_tpch|"
                 "plan_cold --seed N --seconds S --trace 0|1\n");
    return 2;
  }

  RunResult result;
  if (args.workload == "dag_adaptive") {
    result = perfbench::RunDagAdaptive(args);
  } else if (args.workload == "sql_tpch") {
    result = perfbench::RunSqlTpch(args);
  } else if (args.workload == "plan_cold") {
    result = perfbench::RunPlanCold(args);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }

  for (const auto& [name, unit] : perfbench::PerLayerMetrics()) {
    result.per_layer.try_emplace(name, Metric{0.0, unit});
  }
  // Both sets go to the human-readable lines (the traced run's end-to-end
  // figures give the tracing overhead); the result line carries one set.
  for (const auto* set : {&result.end_to_end, &result.per_layer}) {
    for (const auto& [name, metric] : *set) {
      std::printf("%-40s %14.4f %s\n", name.c_str(), metric.value,
                  metric.unit.c_str());
    }
  }
  const auto& metrics = args.trace ? result.per_layer : result.end_to_end;
  for (const auto& [name, metric] : metrics) {
    if (!std::isfinite(metric.value)) {
      result.failures.push_back("metric " + name + " is not finite");
    }
  }
  for (const std::string& failure : result.failures) {
    std::printf("CHECK FAILED: %s\n", failure.c_str());
  }
  for (const std::string& fault : result.known_faults) {
    std::printf("KNOWN FAULT: %s\n", fault.c_str());
  }

  std::string json = "{\"correct\": ";
  json += result.failures.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.10g",
                  std::isfinite(metric.value) ? metric.value : 0.0);
    if (!first) json += ", ";
    first = false;
    json.append("\"").append(JsonEscape(name)).append("\": {\"value\": ");
    json.append(value).append(", \"unit\": \"");
    json.append(JsonEscape(metric.unit)).append("\"}");
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
