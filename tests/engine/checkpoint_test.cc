// Checkpoint format tests: round-trip, CRC/version validation, atomic
// write semantics under fault injection, and a golden text pinning v1.

#include "engine/checkpoint.h"

#include <unistd.h>

#include <fstream>
#include <string>

#include "common/failpoint.h"
#include "gtest/gtest.h"
#include "storage/fsio.h"

namespace f2db {
namespace {

CheckpointState SampleState() {
  CheckpointState state;
  state.wal_epoch = 2;
  state.inserts = 4;
  state.time_advances = 1;
  state.base_start_time = 0;
  state.base_series = {{0, {1.0, 2.0}}, {1, {3.0, 4.5}}};
  state.schemes = {{2, {0, 1}}};
  CheckpointModel model;
  model.node = 0;
  model.payload = "mean|n=2|sum=3";
  state.models = {model};
  state.pending = {{2, 0, 9.25}};
  return state;
}

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/f2db_ckpt_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }

  void TearDown() override {
    failpoint::DisableAll();
    ::unlink(CheckpointPath(dir_).c_str());
    ::unlink((CheckpointPath(dir_) + ".tmp").c_str());
    ::rmdir(dir_.c_str());
  }

  std::string dir_;
};

TEST_F(CheckpointTest, SerializeParseRoundTrip) {
  const CheckpointState state = SampleState();
  auto parsed = ParseCheckpoint(SerializeCheckpoint(state));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().wal_epoch, 2u);
  EXPECT_EQ(parsed.value().inserts, 4u);
  EXPECT_EQ(parsed.value().time_advances, 1u);
  EXPECT_EQ(parsed.value().base_series, state.base_series);
  EXPECT_EQ(parsed.value().schemes, state.schemes);
  ASSERT_EQ(parsed.value().models.size(), 1u);
  EXPECT_EQ(parsed.value().models[0].payload, "mean|n=2|sum=3");
  EXPECT_EQ(parsed.value().pending, state.pending);
}

TEST_F(CheckpointTest, SerializationIsDeterministic) {
  EXPECT_EQ(SerializeCheckpoint(SampleState()),
            SerializeCheckpoint(SampleState()));
}

TEST_F(CheckpointTest, GoldenTextPinsTheV1Layout) {
  // Any change to this string is an on-disk format change: bump
  // kCheckpointFormatVersion and provide a migration story before
  // repinning.
  EXPECT_EQ(SerializeCheckpoint(SampleState()),
            "f2db-checkpoint v1\n"
            "epoch 2\n"
            "counters 4 1 0 0 0\n"
            "base 2 0 2\n"
            "0 1 2\n"
            "1 3 4.5\n"
            "schemes 1\n"
            "2 2 0 1\n"
            "models 1\n"
            "0 0 0 0 0 0 mean|n=2|sum=3\n"
            "pending 1\n"
            "2 0 9.25\n"
            "crc 46dfae0e\n");
}

TEST_F(CheckpointTest, DetectsCorruption) {
  std::string text = SerializeCheckpoint(SampleState());
  text[text.find("9.25")] = '8';  // flip a digit, keep the CRC trailer
  auto parsed = ParseCheckpoint(text);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInternal);
}

TEST_F(CheckpointTest, RejectsVersionMismatch) {
  std::string text = SerializeCheckpoint(SampleState());
  const std::size_t v = text.find("v1");
  text[v + 1] = '2';
  EXPECT_FALSE(ParseCheckpoint(text).ok());
}

TEST_F(CheckpointTest, WriteLoadRoundTripAndNotFound) {
  EXPECT_EQ(LoadCheckpoint(dir_).status().code(), StatusCode::kNotFound);
  ASSERT_TRUE(WriteCheckpoint(dir_, SampleState()).ok());
  auto loaded = LoadCheckpoint(dir_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().base_series, SampleState().base_series);
}

TEST_F(CheckpointTest, FailedWriteLeavesThePreviousCheckpointIntact) {
  CheckpointState first = SampleState();
  ASSERT_TRUE(WriteCheckpoint(dir_, first).ok());

  CheckpointState second = SampleState();
  second.inserts = 99;
  failpoint::Enable(storage::kIoSiteCheckpointWrite,
                    failpoint::Policy::Always());
  const Status failed = WriteCheckpoint(dir_, second);
  EXPECT_FALSE(failed.ok());
  failpoint::Disable(storage::kIoSiteCheckpointWrite);

  // Atomicity: the old checkpoint still loads, no tmp residue corrupts it.
  auto loaded = LoadCheckpoint(dir_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().inserts, 4u);
}

TEST_F(CheckpointTest, LoadRejectsTruncatedFile) {
  ASSERT_TRUE(WriteCheckpoint(dir_, SampleState()).ok());
  const std::string path = CheckpointPath(dir_);
  std::ifstream in(path);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  in.close();
  std::ofstream out(path, std::ios::trunc);
  out << text.substr(0, text.size() / 2);
  out.close();
  EXPECT_EQ(LoadCheckpoint(dir_).status().code(), StatusCode::kInternal);
}

}  // namespace
}  // namespace f2db
