// Errno-level fault injection at the fsio choke points: the io.* failpoint
// sites under each trigger mode, their eio/enospc/short spec grammar, the
// errno marker round-trip, and torn short writes landing a real prefix on
// the fd. The registry itself is covered in tests/common/failpoint_test.cc.

#include <fcntl.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cerrno>
#include <cstdint>
#include <optional>
#include <string>

#include "common/failpoint.h"
#include "common/status.h"
#include "storage/fsio.h"

namespace f2db::storage {
namespace {

using failpoint::Fault;
using failpoint::Outcome;
using failpoint::Policy;

class IoFaultTest : public ::testing::Test {
 protected:
  void TearDown() override { failpoint::DisableAll(); }
};

TEST_F(IoFaultTest, UnarmedSiteNeverFires) {
  EXPECT_FALSE(failpoint::Evaluate(kIoSiteWalAppend).has_value());
  // Anonymous I/O is never injected, even while a site is armed.
  failpoint::Enable(kIoSiteWalAppend, Policy::Always().Errno(EIO));
  EXPECT_FALSE(failpoint::Evaluate(nullptr).has_value());
}

TEST_F(IoFaultTest, AlwaysModeFiresEveryEvaluation) {
  failpoint::Enable(kIoSiteWalAppend, Policy::Always().Errno(EIO));
  for (int i = 0; i < 5; ++i) {
    const std::optional<Fault> fault = failpoint::Evaluate(kIoSiteWalAppend);
    ASSERT_TRUE(fault.has_value());
    EXPECT_EQ(fault->outcome, Outcome::kErrno);
    EXPECT_EQ(fault->err, EIO);
  }
  EXPECT_EQ(failpoint::Evaluations(kIoSiteWalAppend), 5u);
  EXPECT_EQ(failpoint::Triggers(kIoSiteWalAppend), 5u);
}

TEST_F(IoFaultTest, EveryNthModeFiresOnMultiples) {
  failpoint::Enable(kIoSiteWalFsync, Policy::EveryNth(3).Errno(ENOSPC));
  int fired = 0;
  for (int i = 1; i <= 9; ++i) {
    const std::optional<Fault> fault = failpoint::Evaluate(kIoSiteWalFsync);
    if (fault.has_value()) {
      ++fired;
      EXPECT_EQ(i % 3, 0) << "fired off-period at evaluation " << i;
      EXPECT_EQ(fault->err, ENOSPC);
    }
  }
  EXPECT_EQ(fired, 3);
}

TEST_F(IoFaultTest, MaxTriggersBoundsTheFaultWindow) {
  failpoint::Enable(kIoSiteWalAppend,
                    Policy::Always(/*max_triggers=*/2).Errno(EIO));
  int fired = 0;
  for (int i = 0; i < 6; ++i) {
    if (failpoint::Evaluate(kIoSiteWalAppend).has_value()) ++fired;
  }
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(failpoint::Evaluations(kIoSiteWalAppend), 6u);
}

TEST_F(IoFaultTest, ProbabilityModeIsSeedDeterministic) {
  const auto draw = [&](std::uint64_t seed) {
    failpoint::Enable(kIoSiteSegmentWrite,
                      Policy::WithProbability(0.5, seed).Errno(EIO));
    std::string pattern;
    for (int i = 0; i < 64; ++i) {
      pattern += failpoint::Evaluate(kIoSiteSegmentWrite).has_value() ? '1'
                                                                      : '0';
    }
    return pattern;
  };
  const std::string first = draw(7);
  const std::string second = draw(7);
  EXPECT_EQ(first, second);
  EXPECT_NE(first, std::string(64, '0'));
  EXPECT_NE(first, std::string(64, '1'));
  EXPECT_NE(first, draw(8));
}

TEST_F(IoFaultTest, SpecGrammarArmsSites) {
  ASSERT_TRUE(failpoint::EnableFromSpec(
                  "io.wal_append=eio; io.checkpoint_write=enospc:nth:2;"
                  "io.manifest_commit=short:prob:1.0:9")
                  .ok());
  const std::optional<Fault> eio = failpoint::Evaluate(kIoSiteWalAppend);
  ASSERT_TRUE(eio.has_value());
  EXPECT_EQ(eio->outcome, Outcome::kErrno);
  EXPECT_EQ(eio->err, EIO);
  EXPECT_FALSE(failpoint::Evaluate(kIoSiteCheckpointWrite).has_value());
  const std::optional<Fault> enospc =
      failpoint::Evaluate(kIoSiteCheckpointWrite);
  ASSERT_TRUE(enospc.has_value());
  EXPECT_EQ(enospc->outcome, Outcome::kErrno);
  EXPECT_EQ(enospc->err, ENOSPC);
  const std::optional<Fault> torn = failpoint::Evaluate(kIoSiteManifestCommit);
  ASSERT_TRUE(torn.has_value());
  EXPECT_EQ(torn->outcome, Outcome::kShortWrite);
  EXPECT_EQ(torn->err, EIO);

  // "off" disarms exactly one site.
  ASSERT_TRUE(failpoint::EnableFromSpec("io.wal_append=off").ok());
  EXPECT_FALSE(failpoint::Evaluate(kIoSiteWalAppend).has_value());
  EXPECT_TRUE(failpoint::AnyEnabled());
}

TEST_F(IoFaultTest, MalformedSpecIsRejectedAtomically) {
  EXPECT_FALSE(failpoint::EnableFromSpec("io.wal_append").ok());
  EXPECT_FALSE(failpoint::EnableFromSpec("io.wal_append=bogus").ok());
  EXPECT_FALSE(failpoint::EnableFromSpec("io.wal_append=eio:nth").ok());
  EXPECT_FALSE(
      failpoint::EnableFromSpec("io.wal_append=eio;io.wal_fsync=nope").ok());
  // The valid first entry of the failed spec must not have been armed.
  EXPECT_FALSE(failpoint::AnyEnabled());
}

TEST_F(IoFaultTest, ErrnoMarkerRoundTrips) {
  const Status status = IoError("write", "wal.log", ENOSPC);
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(ErrnoFromStatus(status), ENOSPC);
  EXPECT_EQ(ErrnoFromStatus(Status::OK()), 0);
  EXPECT_EQ(ErrnoFromStatus(Status::Unavailable("no marker here")), 0);
  EXPECT_EQ(ErrnoFromStatus(Status::Unavailable("fake [errno:abc]")), 0);
  // A plain injected failure is no disk error.
  EXPECT_EQ(ErrnoFromStatus(failpoint::InjectedFailure(kIoSiteWalAppend)), 0);
}

class IoFaultFsioTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/f2db_fsio_fault_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }
  void TearDown() override {
    failpoint::DisableAll();
    ::unlink((dir_ + "/file").c_str());
    ::unlink((dir_ + "/file.tmp").c_str());
    ::rmdir(dir_.c_str());
  }
  std::string dir_;
};

TEST_F(IoFaultFsioTest, InjectedErrorWritesNothing) {
  const std::string path = dir_ + "/file";
  const int fd = ::open(path.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
  ASSERT_GE(fd, 0);
  failpoint::Enable(kIoSiteWalAppend, Policy::Always().Errno(EIO));
  const Status status = WriteAllFd(fd, "payload", 7, kIoSiteWalAppend, "file");
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(ErrnoFromStatus(status), EIO);
  EXPECT_EQ(::lseek(fd, 0, SEEK_END), 0) << "clean error must write 0 bytes";

  // A plain kFail firing also writes nothing, and carries no errno.
  failpoint::Enable(kIoSiteWalAppend, Policy::Always());
  const Status failed = WriteAllFd(fd, "payload", 7, kIoSiteWalAppend, "file");
  EXPECT_EQ(failed.code(), StatusCode::kUnavailable);
  EXPECT_EQ(ErrnoFromStatus(failed), 0);
  EXPECT_EQ(::lseek(fd, 0, SEEK_END), 0);
  ::close(fd);
}

TEST_F(IoFaultFsioTest, ShortWriteLandsARealPrefix) {
  const std::string path = dir_ + "/file";
  const int fd = ::open(path.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
  ASSERT_GE(fd, 0);
  failpoint::Enable(kIoSiteWalAppend, Policy::Always().ShortWrite(EIO));
  const std::string payload(256, 'x');
  const Status status =
      WriteAllFd(fd, payload.data(), payload.size(), kIoSiteWalAppend, "file");
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(ErrnoFromStatus(status), EIO);
  const off_t size = ::lseek(fd, 0, SEEK_END);
  EXPECT_GT(size, 0) << "a torn write must land a non-empty prefix";
  EXPECT_LT(size, static_cast<off_t>(payload.size()));
  ::close(fd);
}

TEST_F(IoFaultFsioTest, WriteFileDurablyCleansUpOnInjectedFault) {
  const std::string path = dir_ + "/file";
  failpoint::Enable(kIoSiteCheckpointWrite, Policy::Always().Errno(ENOSPC));
  const Status status = WriteFileDurably(path, "bytes", nullptr, nullptr,
                                         kIoSiteCheckpointWrite);
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(ErrnoFromStatus(status), ENOSPC);
  EXPECT_EQ(ReadFileToString(path).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(ReadFileToString(path + ".tmp").status().code(),
            StatusCode::kNotFound)
      << "tmp debris must be unlinked on an injected fault";

  failpoint::DisableAll();
  ASSERT_TRUE(WriteFileDurably(path, "bytes").ok());
  EXPECT_EQ(ReadFileToString(path).value(), "bytes");
}

}  // namespace
}  // namespace f2db::storage
