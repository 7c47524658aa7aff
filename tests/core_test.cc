#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>

#include "core/ires_server.h"
#include "engines/standard_engines.h"
#include "workloadgen/asap_workflows.h"

namespace ires {
namespace {

TEST(IresServerTest, RegisterArtefactsFromDescriptions) {
  IresServer server;
  ASSERT_TRUE(server
                  .RegisterArtifact(ArtifactKind::kDataset, "asapServerLog",
                                    "Optimization.documents=1\n"
                                    "Execution.path=hdfs:///log\n"
                                    "Optimization.size=1e6\n"
                                    "Constraints.Engine.FS=HDFS\n")
                  .ok());
  ASSERT_TRUE(server
                  .RegisterArtifact(
                      ArtifactKind::kAbstractOperator, "LineCount",
                      "Constraints.OpSpecification.Algorithm.name=LineCount\n")
                  .ok());
  ASSERT_TRUE(
      server
          .RegisterArtifact(
              ArtifactKind::kMaterializedOperator, "LineCount_Spark",
              "Constraints.Engine=Spark\n"
              "Constraints.OpSpecification.Algorithm.name=LineCount\n"
              "Constraints.Input0.Engine.FS=HDFS\n"
              "Constraints.Output0.Engine.FS=HDFS\n")
          .ok());
  // Duplicate registration must fail.
  EXPECT_FALSE(
      server.RegisterArtifact(ArtifactKind::kDataset, "asapServerLog", "a=1\n")
          .ok());
}

TEST(IresServerTest, LineCountWorkflowEndToEnd) {
  // The deliverable's §3.3 walkthrough: register artefacts, parse the graph
  // file, materialize, execute.
  IresServer server;
  ASSERT_TRUE(server
                  .RegisterArtifact(ArtifactKind::kDataset, "asapServerLog",
                                    "Optimization.documents=1000\n"
                                    "Execution.path=hdfs:///log\n"
                                    "Optimization.size=2e8\n"
                                    "Constraints.Engine.FS=HDFS\n")
                  .ok());
  ASSERT_TRUE(server
                  .RegisterArtifact(
                      ArtifactKind::kAbstractOperator, "LineCount",
                      "Constraints.OpSpecification.Algorithm.name=LineCount\n")
                  .ok());
  ASSERT_TRUE(
      server
          .RegisterArtifact(
              ArtifactKind::kMaterializedOperator, "LineCount_Spark",
              "Constraints.Engine=Spark\n"
              "Constraints.OpSpecification.Algorithm.name=LineCount\n"
              "Constraints.Input0.Engine.FS=HDFS\n"
              "Constraints.Output0.Engine.FS=HDFS\n")
          .ok());

  auto graph = server.ParseWorkflow(
      "asapServerLog,LineCount,0\n"
      "LineCount,d1,0\n"
      "d1,$$target\n");
  ASSERT_TRUE(graph.ok()) << graph.status();

  auto plan = server.MaterializeWorkflow(graph.value());
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan.value().steps.size(), 1u);
  EXPECT_EQ(plan.value().steps[0].engine, "Spark");

  const RecoveryOutcome outcome =
      server.RunWorkflow(graph.value(), OptimizationPolicy::MinimizeTime(),
                         nullptr, {})
          .recovery;
  ASSERT_TRUE(outcome.status.ok()) << outcome.status;
  EXPECT_GT(outcome.total_execution_seconds, 0.0);
}

TEST(IresServerTest, ImportLibraryAndExecuteTextWorkflow) {
  IresServer server;
  const GeneratedWorkload w = MakeTextAnalyticsWorkflow(20e3);
  ASSERT_TRUE(server.ImportLibrary(w.library).ok());
  const RecoveryOutcome outcome =
      server.RunWorkflow(w.graph, OptimizationPolicy::MinimizeTime(), nullptr,
                         {})
          .recovery;
  ASSERT_TRUE(outcome.status.ok()) << outcome.status;
  EXPECT_TRUE(outcome.final_report.materialized.count("clusters") > 0);
}

TEST(IresServerTest, ExecutionRefinesModels) {
  IresServer server;
  const GeneratedWorkload w = MakeTextAnalyticsWorkflow(20e3);
  ASSERT_TRUE(server.ImportLibrary(w.library).ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(server
                    .RunWorkflow(w.graph, OptimizationPolicy::MinimizeTime(),
                                 nullptr, {})
                    .recovery.status.ok());
  }
  // The hybrid plan ran tf-idf on scikit and k-means on Spark 3 times each.
  EXPECT_EQ(server.estimator("TF_IDF", "scikit")->sample_count(), 3u);
  EXPECT_EQ(server.estimator("kmeans", "Spark")->sample_count(), 3u);
}

TEST(IresServerTest, ModelBasedEstimatorFallsBackToAnalytic) {
  ModelLibrary models;
  ModelBasedCostEstimator estimator(&models);
  auto registry = MakeStandardEngineRegistry();
  const SimulatedEngine* spark = registry->Find("Spark");
  OperatorRunRequest request;
  request.algorithm = "Pagerank";
  request.input_bytes = 1e9;
  request.resources = spark->default_resources();
  auto model_est = estimator.Estimate(*spark, request);
  auto analytic = spark->Estimate(request);
  ASSERT_TRUE(model_est.ok());
  EXPECT_DOUBLE_EQ(model_est.value().exec_seconds,
                   analytic.value().exec_seconds);
}

TEST(IresServerTest, ModelBasedEstimatorUsesTrainedModel) {
  ModelLibrary models;
  // Train a constant-ish time model (~100 s) with fixed output stats.
  for (int i = 0; i < 30; ++i) {
    OperatorRunRequest r;
    r.algorithm = "Pagerank";
    r.input_bytes = 1e8 * (1 + i % 5);
    r.resources = {8, 2, 2.0};
    models.ObserveRun("Pagerank", "Spark", r, 100.0, 5e7, 1e6);
  }
  ModelBasedCostEstimator estimator(&models);
  auto registry = MakeStandardEngineRegistry();
  const SimulatedEngine* spark = registry->Find("Spark");
  OperatorRunRequest request;
  request.algorithm = "Pagerank";
  request.input_bytes = 3e8;
  request.resources = {8, 2, 2.0};
  auto est = estimator.Estimate(*spark, request);
  ASSERT_TRUE(est.ok());
  EXPECT_NEAR(est.value().exec_seconds, 100.0, 15.0);
  // Trained output models override the analytic ratios.
  EXPECT_NEAR(est.value().output_bytes, 5e7, 2e7);
}

TEST(IresServerTest, ModelBasedEstimatorKeepsFeasibilityFromEngine) {
  ModelLibrary models;
  ModelBasedCostEstimator estimator(&models);
  auto registry = MakeStandardEngineRegistry();
  const SimulatedEngine* java = registry->Find("Java");
  OperatorRunRequest request;
  request.algorithm = "Pagerank";
  request.input_bytes = 100e6 * kBytesPerEdge;  // OOM territory for Java
  request.resources = java->default_resources();
  EXPECT_EQ(estimator.Estimate(*java, request).status().code(),
            StatusCode::kResourceExhausted);
}

TEST(ModelLibraryTest, ObserveRunTrainsAllThreeMetrics) {
  ModelLibrary models;
  Rng rng(71);
  for (int i = 0; i < 30; ++i) {
    OperatorRunRequest r;
    r.algorithm = "TF_IDF";
    r.input_bytes = rng.Uniform(1e8, 2e9);
    r.resources = {4, 2, 2.0};
    models.ObserveRun("TF_IDF", "Spark", r, r.input_bytes / 1e8,
                      r.input_bytes * 0.5, r.input_bytes / 1e4);
  }
  const ModelLibrary::OperatorModels* m = models.Find("TF_IDF", "Spark");
  ASSERT_NE(m, nullptr);
  EXPECT_TRUE(m->exec_time.has_model());
  EXPECT_TRUE(m->output_bytes.has_model());
  EXPECT_TRUE(m->output_records.has_model());
  // The output-bytes model learned the 0.5x ratio.
  OperatorRunRequest probe;
  probe.input_bytes = 1e9;
  probe.resources = {4, 2, 2.0};
  EXPECT_NEAR(
      m->output_bytes.Predict(Profiler::FeatureVector(probe)) / 1e9, 0.5,
      0.1);
}

TEST(ModelLibraryTest, SaveLoadRoundTrip) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "ires_models_roundtrip";
  fs::remove_all(dir);

  ModelLibrary models;
  Rng rng(72);
  for (int i = 0; i < 25; ++i) {
    OperatorRunRequest r;
    r.algorithm = "Pagerank";
    r.input_bytes = rng.Uniform(1e8, 2e9);
    r.resources = {8, 2, 2.0};
    models.ObserveRun("Pagerank", "Hama", r, 6 + r.input_bytes / 4e7,
                      r.input_bytes * 0.1, r.input_bytes / 20);
  }
  ASSERT_TRUE(models.SaveToDirectory(dir.string()).ok());

  ModelLibrary restored;
  ASSERT_TRUE(restored.LoadFromDirectory(dir.string()).ok());
  const ModelLibrary::OperatorModels* m = restored.Find("Pagerank", "Hama");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->exec_time.sample_count(), 25u);
  EXPECT_TRUE(m->exec_time.has_model());
  // The restored model predicts like the original (same samples).
  const ModelLibrary::OperatorModels* orig = models.Find("Pagerank", "Hama");
  OperatorRunRequest probe;
  probe.input_bytes = 1.2e9;
  probe.resources = {8, 2, 2.0};
  const Vector f = Profiler::FeatureVector(probe);
  EXPECT_NEAR(m->exec_time.Predict(f), orig->exec_time.Predict(f),
              std::max(1.0, orig->exec_time.Predict(f) * 0.15));
  fs::remove_all(dir);
}

TEST(ModelLibraryTest, LoadMissingDirectoryFails) {
  ModelLibrary models;
  EXPECT_EQ(models.LoadFromDirectory("/no/such/models").code(),
            StatusCode::kNotFound);
}

TEST(IresServerTest, ModelsSurviveRestart) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "ires_server_models";
  fs::remove_all(dir);
  const GeneratedWorkload w = MakeTextAnalyticsWorkflow(20e3);
  {
    IresServer server;
    ASSERT_TRUE(server.ImportLibrary(w.library).ok());
    for (int i = 0; i < 6; ++i) {
      ASSERT_TRUE(server
                      .RunWorkflow(w.graph, OptimizationPolicy::MinimizeTime(),
                                   nullptr, {})
                      .recovery.status.ok());
    }
    ASSERT_TRUE(server.SaveModels(dir.string()).ok());
  }
  IresServer restarted;
  ASSERT_TRUE(restarted.LoadModels(dir.string()).ok());
  EXPECT_EQ(restarted.estimator("TF_IDF", "scikit")->sample_count(), 6u);
  EXPECT_TRUE(restarted.estimator("TF_IDF", "scikit")->has_model());
  fs::remove_all(dir);
}

TEST(IresServerTest, ProvisioningConfigShrinksAllocations) {
  IresServer::Config config;
  config.provision_resources = true;
  IresServer server(config);
  const GeneratedWorkload w = MakeTextAnalyticsWorkflow(50e3);
  ASSERT_TRUE(server.ImportLibrary(w.library).ok());
  auto plan = server.MaterializeWorkflow(w.graph);
  ASSERT_TRUE(plan.ok()) << plan.status();
  for (const PlanStep& step : plan.value().steps) {
    if (step.kind != PlanStep::Kind::kOperator) continue;
    EXPECT_LE(step.resources.containers, 8);
    EXPECT_GE(step.resources.containers, 1);
  }
}

}  // namespace
}  // namespace ires
