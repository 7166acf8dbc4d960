// Recovery integration tests: a durable engine is closed (or has its WAL
// mutilated) and reopened, and the recovered state must match what a
// never-restarted engine computes — snapshots, counters, forecasts.

#include <unistd.h>

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "baselines/advisor_builder.h"
#include "common/failpoint.h"
#include "engine/checkpoint.h"
#include "engine/engine.h"
#include "engine/wal.h"
#include "server/server.h"
#include "storage/fsio.h"
#include "testing/crash.h"
#include "testing/test_cubes.h"

namespace f2db {
namespace {

class RecoveryTest : public ::testing::Test {
 protected:
  RecoveryTest()
      : evaluator_graph_(testing::MakeRegionCube(48, 0.0)),
        evaluator_(evaluator_graph_, 0.8),
        factory_(ModelSpec::TripleExponentialSmoothing(4)) {
    AdvisorOptions options;
    options.stop.max_iterations = 8;
    options.seed = 123;
    AdvisorBuilder builder(options);
    auto outcome = builder.Build(evaluator_, factory_);
    EXPECT_TRUE(outcome.ok());
    config_ = std::move(outcome.value().configuration);
  }

  void SetUp() override {
    failpoint::DisableAll();
    char tmpl[] = "/tmp/f2db_recovery_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }

  void TearDown() override {
    failpoint::DisableAll();
    f2db::testing::RemoveDirectoryTree(dir_);
  }

  EngineOptions DurableOptions() const {
    EngineOptions options;
    options.maintenance_threads = 1;
    options.data_dir = dir_;
    options.fsync_policy = FsyncPolicy::kAlways;
    return options;
  }

  /// Opens a durable engine over a fresh copy of the region cube.
  std::unique_ptr<F2dbEngine> Open(EngineOptions options) {
    auto engine =
        F2dbEngine::Open(testing::MakeRegionCube(48, 0.0), options);
    EXPECT_TRUE(engine.ok()) << engine.status().ToString();
    return std::move(engine).value();
  }

  void LoadConfig(F2dbEngine& engine) {
    const Status loaded = engine.LoadConfiguration(config_, evaluator_);
    ASSERT_TRUE(loaded.ok()) << loaded.ToString();
  }

  /// Inserts `periods` full periods of deterministic facts.
  static void Advance(F2dbEngine& engine, int periods) {
    const std::vector<NodeId> bases = engine.graph().base_nodes();
    for (int period = 0; period < periods; ++period) {
      const std::int64_t t =
          engine.snapshot()->graph->series(bases[0]).end_time();
      for (std::size_t i = 0; i < bases.size(); ++i) {
        const Status status =
            engine.InsertFact(bases[i], t, 10.0 + static_cast<double>(i));
        ASSERT_TRUE(status.ok()) << status.message();
      }
    }
  }

  static std::vector<double> TopForecast(const F2dbEngine& engine) {
    auto forecast = engine.ForecastNode(engine.graph().top_node(), 3);
    EXPECT_TRUE(forecast.ok()) << forecast.status().ToString();
    return forecast.ok() ? forecast.value() : std::vector<double>{};
  }

  TimeSeriesGraph evaluator_graph_;
  ConfigurationEvaluator evaluator_;
  ModelFactory factory_;
  ModelConfiguration config_;
  std::string dir_;
};

TEST_F(RecoveryTest, FreshDirectoryOpensEmptyAndDurable) {
  auto engine = Open(DurableOptions());
  EXPECT_TRUE(engine->durable());
  const EngineStats stats = engine->stats();
  EXPECT_EQ(stats.wal_records_replayed, 0u);
  EXPECT_EQ(stats.torn_tail_detected, 0u);
  EXPECT_GE(stats.recovery_duration_ms, 0.0);
  auto epochs = ListWalEpochs(dir_);
  ASSERT_TRUE(epochs.ok());
  EXPECT_EQ(epochs.value(), (std::vector<std::uint64_t>{1}));
}

TEST_F(RecoveryTest, PlainEngineIsNotDurable) {
  F2dbEngine engine(testing::MakeRegionCube(48, 0.0));
  EXPECT_FALSE(engine.durable());
  EXPECT_EQ(engine.CheckpointNow().code(), StatusCode::kFailedPrecondition);
}

TEST_F(RecoveryTest, ConfigurationAndInsertsSurviveReopen) {
  std::vector<double> before;
  std::size_t pending = 0;
  {
    auto engine = Open(DurableOptions());
    LoadConfig(*engine);
    Advance(*engine, 2);
    // One buffered fact that has not completed a period yet.
    const std::vector<NodeId> bases = engine->graph().base_nodes();
    const std::int64_t t =
        engine->snapshot()->graph->series(bases[0]).end_time();
    ASSERT_TRUE(engine->InsertFact(bases[0], t, 42.0).ok());
    before = TopForecast(*engine);
    pending = engine->pending_inserts();
    ASSERT_EQ(pending, 1u);
  }  // clean close: destructor syncs and closes the WAL

  auto engine = Open(DurableOptions());
  const EngineStats stats = engine->stats();
  // 1 catalog record + 2 periods * 3 cells + 1 partial insert.
  EXPECT_EQ(stats.wal_records_replayed, 8u);
  EXPECT_EQ(stats.torn_tail_detected, 0u);
  EXPECT_EQ(stats.inserts, 7u);
  EXPECT_EQ(stats.time_advances, 2u);
  EXPECT_EQ(engine->pending_inserts(), pending);

  // Replay is deterministic: model round-trips are exact (%.17g) and the
  // aggregate rebuild shares the live summation order, so the recovered
  // forecast is bit-identical.
  const std::vector<double> after = TopForecast(*engine);
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t h = 0; h < after.size(); ++h) {
    EXPECT_DOUBLE_EQ(after[h], before[h]) << "h=" << h;
  }
}

TEST_F(RecoveryTest, CheckpointTruncatesWalAndRecovers) {
  std::vector<double> before;
  {
    auto engine = Open(DurableOptions());
    LoadConfig(*engine);
    Advance(*engine, 1);
    const Status checkpointed = engine->CheckpointNow();
    ASSERT_TRUE(checkpointed.ok()) << checkpointed.ToString();
    EXPECT_EQ(engine->stats().checkpoints_completed, 1u);
    EXPECT_GE(engine->stats().last_checkpoint_age_seconds, 0.0);

    // The pre-checkpoint segment is gone; appends go to epoch 2.
    auto epochs = ListWalEpochs(dir_);
    ASSERT_TRUE(epochs.ok());
    EXPECT_EQ(epochs.value(), (std::vector<std::uint64_t>{2}));

    Advance(*engine, 1);
    before = TopForecast(*engine);
  }

  auto engine = Open(DurableOptions());
  const EngineStats stats = engine->stats();
  // Only the post-checkpoint period replays: 3 inserts.
  EXPECT_EQ(stats.wal_records_replayed, 3u);
  EXPECT_EQ(stats.inserts, 6u);        // checkpoint counters + replay
  EXPECT_EQ(stats.time_advances, 2u);
  const std::vector<double> after = TopForecast(*engine);
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t h = 0; h < after.size(); ++h) {
    EXPECT_DOUBLE_EQ(after[h], before[h]) << "h=" << h;
  }
}

TEST_F(RecoveryTest, FailedCheckpointLeavesARecoverableDirectory) {
  std::vector<double> before;
  {
    auto engine = Open(DurableOptions());
    LoadConfig(*engine);
    Advance(*engine, 1);
    failpoint::Enable(storage::kIoSiteCheckpointWrite,
                      failpoint::Policy::Always());
    EXPECT_FALSE(engine->CheckpointNow().ok());
    failpoint::Disable(storage::kIoSiteCheckpointWrite);
    EXPECT_EQ(engine->stats().checkpoint_failures, 1u);
    EXPECT_EQ(engine->stats().checkpoints_completed, 0u);

    // The rotation happened but the checkpoint did not: both segments
    // survive and replay must span the epoch boundary.
    auto epochs = ListWalEpochs(dir_);
    ASSERT_TRUE(epochs.ok());
    EXPECT_EQ(epochs.value(), (std::vector<std::uint64_t>{1, 2}));

    Advance(*engine, 1);
    before = TopForecast(*engine);
  }

  auto engine = Open(DurableOptions());
  const EngineStats stats = engine->stats();
  // Everything replays: catalog + two full periods.
  EXPECT_EQ(stats.wal_records_replayed, 7u);
  EXPECT_EQ(stats.time_advances, 2u);
  const std::vector<double> after = TopForecast(*engine);
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t h = 0; h < after.size(); ++h) {
    EXPECT_DOUBLE_EQ(after[h], before[h]) << "h=" << h;
  }
}

TEST_F(RecoveryTest, TornTailIsDetectedAndDropsOnlyTheLastRecord) {
  std::size_t pending_before = 0;
  {
    auto engine = Open(DurableOptions());
    LoadConfig(*engine);
    Advance(*engine, 1);
    const std::vector<NodeId> bases = engine->graph().base_nodes();
    const std::int64_t t =
        engine->snapshot()->graph->series(bases[0]).end_time();
    ASSERT_TRUE(engine->InsertFact(bases[0], t, 1.0).ok());
    ASSERT_TRUE(engine->InsertFact(bases[1], t, 2.0).ok());
    pending_before = engine->pending_inserts();
    ASSERT_EQ(pending_before, 2u);
  }

  // Simulate a torn final write: cut a few bytes off the newest segment.
  auto epochs = ListWalEpochs(dir_);
  ASSERT_TRUE(epochs.ok());
  const std::string last = WalPath(dir_, epochs.value().back());
  auto segment = ReadWalSegment(last);
  ASSERT_TRUE(segment.ok());
  ASSERT_EQ(::truncate(last.c_str(),
                       static_cast<off_t>(segment.value().valid_bytes - 3)),
            0);

  auto engine = Open(DurableOptions());
  const EngineStats stats = engine->stats();
  EXPECT_EQ(stats.torn_tail_detected, 1u);
  // Exactly the torn insert is gone; everything before it survived.
  EXPECT_EQ(engine->pending_inserts(), pending_before - 1);
  EXPECT_EQ(stats.time_advances, 1u);
  EXPECT_FALSE(TopForecast(*engine).empty());
}

TEST_F(RecoveryTest, QuarantineSurvivesReopen) {
  {
    EngineOptions options = DurableOptions();
    options.reestimate_after_updates = 2;
    options.quarantine_after_refit_failures = 1;
    auto engine = Open(options);
    LoadConfig(*engine);
    Advance(*engine, 3);  // invalidates every model
    failpoint::Enable(kFailpointEngineRefit, failpoint::Policy::Always());
    for (int q = 0; q < 2; ++q) {
      ASSERT_TRUE(engine->ForecastNode(engine->graph().top_node(), 1).ok());
    }
    failpoint::DisableAll();
    ASSERT_GE(engine->stats().quarantines, 1u);
  }

  EngineOptions options = DurableOptions();
  options.reestimate_after_updates = 2;
  options.quarantine_after_refit_failures = 1;
  auto engine = Open(options);
  EXPECT_GE(engine->stats().quarantines, 1u);
  bool saw_quarantined = false;
  for (const auto& [node, live] : engine->snapshot()->models) {
    if (live->quarantined) saw_quarantined = true;
  }
  EXPECT_TRUE(saw_quarantined);
}

TEST_F(RecoveryTest, ModelReestimateSurvivesReopen) {
  std::vector<double> before;
  {
    EngineOptions options = DurableOptions();
    options.reestimate_after_updates = 2;
    auto engine = Open(options);
    LoadConfig(*engine);
    Advance(*engine, 3);  // invalidates every model
    // The query triggers a lazy refit whose publication is WAL-logged.
    before = TopForecast(*engine);
    ASSERT_GE(engine->stats().reestimates, 1u);
  }

  EngineOptions options = DurableOptions();
  options.reestimate_after_updates = 2;
  auto engine = Open(options);
  // The re-estimated model replays from its kModelInstall record: the same
  // query answers identically without refitting again.
  const std::size_t reestimates_before = engine->stats().reestimates;
  const std::vector<double> after = TopForecast(*engine);
  EXPECT_EQ(engine->stats().reestimates, reestimates_before);
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t h = 0; h < after.size(); ++h) {
    EXPECT_DOUBLE_EQ(after[h], before[h]) << "h=" << h;
  }
}

TEST_F(RecoveryTest, RecoveryCountersAppearInPrometheusText) {
  {
    auto engine = Open(DurableOptions());
    LoadConfig(*engine);
    Advance(*engine, 1);
  }
  auto engine = Open(DurableOptions());
  const std::string text = engine->stats().ToPrometheusText();
  for (const char* metric :
       {"f2db_wal_records_appended_total", "f2db_wal_bytes_total",
        "f2db_wal_records_replayed_total", "f2db_torn_tail_detected",
        "f2db_checkpoints_completed_total", "f2db_checkpoint_failures_total",
        "f2db_recovery_duration_ms", "f2db_last_checkpoint_age_seconds"}) {
    EXPECT_NE(text.find(metric), std::string::npos) << metric;
  }
}

TEST_F(RecoveryTest, ServerShutdownWritesACheckpoint) {
  {
    auto engine = Open(DurableOptions());
    LoadConfig(*engine);
    Advance(*engine, 1);

    F2dbServer server(*engine, ServerOptions{});
    ASSERT_TRUE(server.Start().ok());
    server.Shutdown();
    EXPECT_EQ(engine->stats().checkpoints_completed, 1u);
  }

  // The shutdown checkpoint makes the next open replay-free.
  auto engine = Open(DurableOptions());
  EXPECT_EQ(engine->stats().wal_records_replayed, 0u);
  EXPECT_EQ(engine->stats().time_advances, 1u);
  EXPECT_FALSE(TopForecast(*engine).empty());
}

}  // namespace
}  // namespace f2db
