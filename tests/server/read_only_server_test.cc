// Read-only brownout over the wire: a durable engine behind a loopback
// server rejects inserts with the retry-after hint while still answering
// queries, and CallWithReconnect waits out the brownout until the health
// probe re-admits writes.

#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "baselines/advisor_builder.h"
#include "common/failpoint.h"
#include "core/evaluator.h"
#include "engine/engine.h"
#include "server/client.h"
#include "server/server.h"
#include "storage/fsio.h"
#include "testing/crash.h"
#include "testing/test_cubes.h"

namespace f2db {
namespace {

constexpr const char* kQuerySql =
    "SELECT time, SUM(sales) FROM facts GROUP BY time AS OF now() + '3'";

class ReadOnlyWireTest : public ::testing::Test {
 protected:
  ReadOnlyWireTest()
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
    char tmpl[] = "/tmp/f2db_rowire_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }

  void TearDown() override {
    failpoint::DisableAll();
    server_.reset();
    engine_.reset();
    testing::RemoveDirectoryTree(dir_);
  }

  void StartServer(double probe_interval_seconds,
                   double read_only_retry_after_ms) {
    EngineOptions options;
    options.maintenance_threads = 1;
    options.data_dir = dir_;
    options.fsync_policy = FsyncPolicy::kAlways;
    options.disk_failure_threshold = 2;
    options.disk_retry_attempts = 0;
    options.disk_retry_backoff_ms = 0.0;
    options.disk_probe_interval_seconds = probe_interval_seconds;
    options.read_only_retry_after_ms = read_only_retry_after_ms;
    auto engine = F2dbEngine::Open(testing::MakeRegionCube(48, 0.0), options);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    engine_ = std::move(engine).value();
    const Status loaded = engine_->LoadConfiguration(config_, evaluator_);
    ASSERT_TRUE(loaded.ok()) << loaded.ToString();

    ServerOptions server_options;
    server_options.worker_threads = 2;
    server_ = std::make_unique<F2dbServer>(*engine_, server_options);
    ASSERT_TRUE(server_->Start().ok());
  }

  F2dbClient Connect(ClientOptions options = {}) {
    auto client = F2dbClient::Connect("127.0.0.1", server_->port(), options);
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(client).value();
  }

  std::int64_t Frontier() const {
    const NodeId base = engine_->graph().base_nodes()[0];
    return engine_->snapshot()->graph->series(base).end_time();
  }

  static std::string InsertSql(std::int64_t time, double value) {
    return "INSERT INTO facts VALUES ('C1', " + std::to_string(time) + ", " +
           std::to_string(value) + ")";
  }

  /// Drives wire inserts at distinct future timestamps until the engine
  /// goes read-only.
  void StormToReadOnly(F2dbClient& client) {
    const std::int64_t frontier = Frontier();
    for (int attempt = 0; attempt < 16; ++attempt) {
      if (engine_->disk_health() == DiskHealthState::kReadOnly) return;
      auto response =
          client.Insert(InsertSql(frontier + 100 + attempt, 1.0));
      ASSERT_TRUE(response.ok()) << response.status().ToString();
      ASSERT_EQ(response.value().status, StatusCode::kUnavailable)
          << response.value().body;
    }
    ASSERT_EQ(engine_->disk_health(), DiskHealthState::kReadOnly);
  }

  TimeSeriesGraph evaluator_graph_;
  ConfigurationEvaluator evaluator_;
  ModelFactory factory_;
  ModelConfiguration config_;
  std::string dir_;
  std::unique_ptr<F2dbEngine> engine_;
  std::unique_ptr<F2dbServer> server_;
};

TEST_F(ReadOnlyWireTest, WireInsertsRejectWithHintWhileQueriesServe) {
  StartServer(/*probe_interval_seconds=*/0.0,
              /*read_only_retry_after_ms=*/250.0);
  F2dbClient client = Connect();

  auto healthy = client.Query(kQuerySql);
  ASSERT_TRUE(healthy.ok());
  ASSERT_EQ(healthy.value().status, StatusCode::kOk) << healthy.value().body;
  const std::string rows_before = healthy.value().body;

  failpoint::Enable(storage::kIoSiteWalAppend,
                    failpoint::Policy::Always().Errno(EIO));
  StormToReadOnly(client);

  // The read-only rejection crosses the wire with its hint intact.
  auto rejected = client.Insert(InsertSql(Frontier() + 1000, 2.0));
  ASSERT_TRUE(rejected.ok());
  EXPECT_EQ(rejected.value().status, StatusCode::kUnavailable);
  EXPECT_NE(rejected.value().body.find("retry-after-ms=250"),
            std::string::npos)
      << rejected.value().body;

  // Queries are brownout, not blackout: same rows as before the storm.
  auto browned = client.Query(kQuerySql);
  ASSERT_TRUE(browned.ok());
  EXPECT_EQ(browned.value().status, StatusCode::kOk) << browned.value().body;
  EXPECT_EQ(browned.value().body, rows_before);
}

TEST_F(ReadOnlyWireTest, CallWithReconnectWaitsOutTheBrownout) {
  StartServer(/*probe_interval_seconds=*/0.02,
              /*read_only_retry_after_ms=*/50.0);
  ClientOptions client_options;
  client_options.max_reconnect_attempts = 50;
  client_options.max_retry_after_seconds = 0.05;
  F2dbClient client = Connect(client_options);

  failpoint::Enable(storage::kIoSiteWalAppend,
                    failpoint::Policy::Always().Errno(EIO));
  failpoint::Enable(storage::kIoSiteProbeWrite,
                    failpoint::Policy::Always().Errno(EIO));
  StormToReadOnly(client);

  // The device heals mid-retry-loop; the probe exits read-only and the
  // hinted retries land the insert without the caller ever seeing an
  // error.
  std::thread healer([] {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    failpoint::DisableAll();
  });
  auto response = client.CallWithReconnect(FrameType::kInsert,
                                           InsertSql(Frontier() + 1000, 2.0));
  healer.join();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response.value().status, StatusCode::kOk)
      << response.value().body;
  EXPECT_EQ(engine_->disk_health(), DiskHealthState::kOk);
  EXPECT_EQ(engine_->stats().read_only_exits, 1u);
}

}  // namespace
}  // namespace f2db
