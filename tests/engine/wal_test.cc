// WAL format and writer tests: framing round-trips, CRC/torn-tail
// detection, append/fsync fault injection with rollback, and golden bytes
// pinning the v1 on-disk layout.

#include "engine/wal.h"

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "gtest/gtest.h"
#include "storage/fsio.h"

namespace f2db {
namespace {

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/f2db_wal_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }

  void TearDown() override {
    failpoint::DisableAll();
    for (const auto epochs = ListWalEpochs(dir_); const auto epoch :
         (epochs.ok() ? epochs.value() : std::vector<std::uint64_t>{})) {
      ::unlink(WalPath(dir_, epoch).c_str());
    }
    ::rmdir(dir_.c_str());
  }

  std::uint64_t FileSize(const std::string& path) {
    struct stat st {};
    EXPECT_EQ(::stat(path.c_str(), &st), 0) << path;
    return static_cast<std::uint64_t>(st.st_size);
  }

  std::string dir_;
};

std::string ToHex(const std::string& bytes) {
  std::string out;
  char buf[3];
  for (const unsigned char c : bytes) {
    std::snprintf(buf, sizeof(buf), "%02x", c);
    out += buf;
  }
  return out;
}

TEST_F(WalTest, RoundTripsEveryRecordKind) {
  auto writer = WalWriter::Create(dir_, 1, FsyncPolicy::kAlways, 1);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  ASSERT_TRUE(writer.value().Append(WalRecord::Insert(7, 42, 1.5)).ok());
  ASSERT_TRUE(writer.value().Append(WalRecord::Catalog("f2db-catalog v1\n")).ok());
  ASSERT_TRUE(
      writer.value().Append(WalRecord::ModelInstall(3, 2.5, "ses|a=0.2")).ok());
  ASSERT_TRUE(writer.value().Append(WalRecord::Quarantine(9, 4)).ok());
  EXPECT_EQ(writer.value().records_appended(), 4u);
  EXPECT_GT(writer.value().bytes_appended(), 0u);
  writer.value().Close();

  auto read = ReadWalSegment(WalPath(dir_, 1));
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_FALSE(read.value().torn_tail);
  EXPECT_EQ(read.value().epoch, 1u);
  ASSERT_EQ(read.value().records.size(), 4u);

  const WalRecord& insert = read.value().records[0];
  EXPECT_EQ(insert.kind, WalRecord::Kind::kInsert);
  EXPECT_EQ(insert.node, 7u);
  EXPECT_EQ(insert.time, 42);
  EXPECT_EQ(insert.value, 1.5);

  EXPECT_EQ(read.value().records[1].kind, WalRecord::Kind::kCatalog);
  EXPECT_EQ(read.value().records[1].payload, "f2db-catalog v1\n");

  const WalRecord& model = read.value().records[2];
  EXPECT_EQ(model.kind, WalRecord::Kind::kModelInstall);
  EXPECT_EQ(model.node, 3u);
  EXPECT_EQ(model.value, 2.5);
  EXPECT_EQ(model.payload, "ses|a=0.2");

  const WalRecord& quarantine = read.value().records[3];
  EXPECT_EQ(quarantine.kind, WalRecord::Kind::kQuarantine);
  EXPECT_EQ(quarantine.node, 9u);
  EXPECT_EQ(quarantine.count, 4u);
}

TEST_F(WalTest, GoldenBytesPinTheV1Layout) {
  // Any change to these strings is an on-disk format change: bump
  // kWalFormatVersion and provide a migration story before repinning.
  EXPECT_EQ(ToHex(EncodeWalRecord(WalRecord::Insert(7, 42, 1.5))),
            "150000004850b8b401070000002a00000000000000000000000000f83f");
  EXPECT_EQ(ToHex(EncodeWalRecord(WalRecord::Quarantine(3, 5))),
            "0d0000006ac7a04404030000000500000000000000");
}

TEST_F(WalTest, DetectsCorruptedRecordAsTornTail) {
  auto writer = WalWriter::Create(dir_, 1, FsyncPolicy::kAlways, 1);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer.value().Append(WalRecord::Insert(1, 10, 1.0)).ok());
  ASSERT_TRUE(writer.value().Append(WalRecord::Insert(2, 11, 2.0)).ok());
  writer.value().Close();

  // Flip one byte inside the SECOND record's body: the reader must keep
  // the first record and stop at the corruption.
  const std::string path = WalPath(dir_, 1);
  const std::uint64_t size = FileSize(path);
  std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
  file.seekp(static_cast<std::streamoff>(size - 1));
  file.put('\xFF');
  file.close();

  auto read = ReadWalSegment(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_TRUE(read.value().torn_tail);
  ASSERT_EQ(read.value().records.size(), 1u);
  EXPECT_EQ(read.value().records[0].node, 1u);
}

TEST_F(WalTest, ToleratesAndTruncatesTornTail) {
  auto writer = WalWriter::Create(dir_, 1, FsyncPolicy::kAlways, 1);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer.value().Append(WalRecord::Insert(1, 10, 1.0)).ok());
  ASSERT_TRUE(writer.value().Append(WalRecord::Insert(2, 11, 2.0)).ok());
  writer.value().Close();

  const std::string path = WalPath(dir_, 1);
  ASSERT_EQ(::truncate(path.c_str(),
                       static_cast<off_t>(FileSize(path) - 5)),
            0);

  auto read = ReadWalSegment(path);
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read.value().torn_tail);
  ASSERT_EQ(read.value().records.size(), 1u);

  // Reopen truncates the tear and appends cleanly after it.
  auto reopened = WalWriter::Reopen(dir_, 1, read.value().valid_bytes,
                                    FsyncPolicy::kAlways, 1);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(FileSize(path), read.value().valid_bytes);
  ASSERT_TRUE(reopened.value().Append(WalRecord::Insert(3, 11, 3.0)).ok());
  reopened.value().Close();

  auto reread = ReadWalSegment(path);
  ASSERT_TRUE(reread.ok());
  EXPECT_FALSE(reread.value().torn_tail);
  ASSERT_EQ(reread.value().records.size(), 2u);
  EXPECT_EQ(reread.value().records[1].node, 3u);
}

TEST_F(WalTest, CreateRefusesToReuseAnEpoch) {
  auto first = WalWriter::Create(dir_, 1, FsyncPolicy::kNone, 1);
  ASSERT_TRUE(first.ok());
  first.value().Close();
  auto second = WalWriter::Create(dir_, 1, FsyncPolicy::kNone, 1);
  EXPECT_FALSE(second.ok());
}

TEST_F(WalTest, RejectsVersionMismatch) {
  auto writer = WalWriter::Create(dir_, 1, FsyncPolicy::kNone, 1);
  ASSERT_TRUE(writer.ok());
  writer.value().Close();

  const std::string path = WalPath(dir_, 1);
  std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
  file.seekp(7);  // the version byte, right after "F2DBWAL"
  file.put(static_cast<char>(kWalFormatVersion + 1));
  file.close();

  auto read = ReadWalSegment(path);
  ASSERT_FALSE(read.ok());
  EXPECT_NE(read.status().message().find("version mismatch"),
            std::string::npos);
}

TEST_F(WalTest, BatchPolicySyncsEveryNthRecord) {
  // Indirect observation via the fsync failpoint: with batch=3 only every
  // third append evaluates the fsync site.
  auto writer = WalWriter::Create(dir_, 1, FsyncPolicy::kBatch, 3);
  ASSERT_TRUE(writer.ok());
  // Armed with a period it never reaches, the site only counts evaluations.
  failpoint::Enable(storage::kIoSiteWalFsync,
                    failpoint::Policy::EveryNth(1000000));
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(writer.value().Append(WalRecord::Insert(1, i, 1.0)).ok());
  }
  EXPECT_EQ(failpoint::Evaluations(storage::kIoSiteWalFsync), 2u);
  failpoint::Disable(storage::kIoSiteWalFsync);
  writer.value().Close();
}

TEST_F(WalTest, AppendFailpointRejectsBeforeWriting) {
  auto writer = WalWriter::Create(dir_, 1, FsyncPolicy::kAlways, 1);
  ASSERT_TRUE(writer.ok());
  const std::uint64_t size_before = FileSize(WalPath(dir_, 1));

  failpoint::Enable(storage::kIoSiteWalAppend, failpoint::Policy::Always());
  const Status rejected = writer.value().Append(WalRecord::Insert(1, 10, 1.0));
  EXPECT_EQ(rejected.code(), StatusCode::kUnavailable);
  failpoint::Disable(storage::kIoSiteWalAppend);

  EXPECT_EQ(FileSize(WalPath(dir_, 1)), size_before);
  EXPECT_EQ(writer.value().records_appended(), 0u);
  EXPECT_TRUE(writer.value().Append(WalRecord::Insert(1, 10, 1.0)).ok());
  writer.value().Close();
}

TEST_F(WalTest, FsyncFailureRollsTheAppendBack) {
  auto writer = WalWriter::Create(dir_, 1, FsyncPolicy::kAlways, 1);
  ASSERT_TRUE(writer.ok());
  const std::uint64_t size_before = FileSize(WalPath(dir_, 1));

  failpoint::Enable(storage::kIoSiteWalFsync, failpoint::Policy::Always());
  const Status rejected = writer.value().Append(WalRecord::Insert(1, 10, 1.0));
  EXPECT_EQ(rejected.code(), StatusCode::kUnavailable);
  failpoint::Disable(storage::kIoSiteWalFsync);

  // The rejected record must not survive on disk: disk and caller agree.
  EXPECT_EQ(FileSize(WalPath(dir_, 1)), size_before);
  ASSERT_TRUE(writer.value().Append(WalRecord::Insert(2, 10, 2.0)).ok());
  writer.value().Close();

  auto read = ReadWalSegment(WalPath(dir_, 1));
  ASSERT_TRUE(read.ok());
  EXPECT_FALSE(read.value().torn_tail);
  ASSERT_EQ(read.value().records.size(), 1u);
  EXPECT_EQ(read.value().records[0].node, 2u);
}

TEST_F(WalTest, ListsEpochsSorted) {
  for (const std::uint64_t epoch : {3u, 1u, 2u}) {
    auto writer = WalWriter::Create(dir_, epoch, FsyncPolicy::kNone, 1);
    ASSERT_TRUE(writer.ok());
    writer.value().Close();
  }
  auto epochs = ListWalEpochs(dir_);
  ASSERT_TRUE(epochs.ok());
  EXPECT_EQ(epochs.value(), (std::vector<std::uint64_t>{1, 2, 3}));
}

TEST_F(WalTest, ParsesAndNamesFsyncPolicies) {
  EXPECT_EQ(ParseFsyncPolicy("none").value(), FsyncPolicy::kNone);
  EXPECT_EQ(ParseFsyncPolicy("batch").value(), FsyncPolicy::kBatch);
  EXPECT_EQ(ParseFsyncPolicy("always").value(), FsyncPolicy::kAlways);
  EXPECT_FALSE(ParseFsyncPolicy("sometimes").ok());
  EXPECT_STREQ(FsyncPolicyName(FsyncPolicy::kBatch), "batch");
}

}  // namespace
}  // namespace f2db
