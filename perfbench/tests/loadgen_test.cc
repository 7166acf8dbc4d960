// Self-check of the load generator's accounting and timing, against a stub
// server on loopback, plus the determinism of the seeded request streams.
//
//   cmake --build .bench_build --target perfbench_selftest
//   .bench_build/perfbench_selftest

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <thread>

#include "data/datasets.h"
#include "loadgen.h"
#include "mixes.h"
#include "statements.h"

namespace perfbench {
namespace {

using f2db::StatusCode;

/// Answers every request frame on every accepted connection. `status_of`
/// and `delay_ms_of` decide the reply per request, numbered in arrival
/// order across connections.
class StubServer {
 public:
  StubServer(std::function<StatusCode(std::size_t)> status_of,
             std::function<int(std::size_t)> delay_ms_of)
      : status_of_(std::move(status_of)), delay_ms_of_(std::move(delay_ms_of)) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    ::listen(listen_fd_, 16);
    socklen_t len = sizeof(addr);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this] { Loop(); });
  }
  ~StubServer() {
    stop_ = true;
    thread_.join();
    for (const int fd : fds_) ::close(fd);
    ::close(listen_fd_);
  }
  StubServer(const StubServer&) = delete;
  StubServer& operator=(const StubServer&) = delete;

  std::uint16_t port() const { return port_; }

 private:
  void Loop() {
    std::vector<f2db::FrameDecoder> decoders;
    while (!stop_) {
      std::vector<pollfd> pfds{{listen_fd_, POLLIN, 0}};
      for (const int fd : fds_) pfds.push_back({fd, POLLIN, 0});
      if (::poll(pfds.data(), pfds.size(), 20) <= 0) continue;
      if (pfds[0].revents & POLLIN) {
        fds_.push_back(::accept(listen_fd_, nullptr, nullptr));
        decoders.emplace_back();
      }
      for (std::size_t i = 1; i < pfds.size(); ++i) {
        if (!(pfds[i].revents & POLLIN)) continue;
        char buf[4096];
        const ssize_t n = ::recv(fds_[i - 1], buf, sizeof(buf), 0);
        if (n <= 0) continue;
        decoders[i - 1].Feed(buf, static_cast<std::size_t>(n));
        while (auto payload = decoders[i - 1].Next()) {
          auto request = f2db::DecodeRequestPayload(*payload);
          const std::size_t index = received_++;
          if (const int delay = delay_ms_of_(index); delay > 0) {
            std::this_thread::sleep_for(std::chrono::milliseconds(delay));
          }
          f2db::WireResponse response;
          response.type = request.ok() ? request.value().type
                                       : f2db::FrameType::kQuery;
          response.status = status_of_(index);
          response.body = "ok";
          const std::string frame = f2db::EncodeResponse(response);
          ::send(fds_[i - 1], frame.data(), frame.size(), MSG_NOSIGNAL);
        }
      }
    }
  }

  std::function<StatusCode(std::size_t)> status_of_;
  std::function<int(std::size_t)> delay_ms_of_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::vector<int> fds_;
  std::size_t received_ = 0;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// Alternates QUERY and INSERT frames.
class AlternatingSource : public OpSource {
 public:
  void NextOpen(Op* op) override { Fill(op); }
  bool NextClosed(std::size_t, Op* op) override {
    Fill(op);
    return true;
  }

 private:
  void Fill(Op* op) {
    const bool insert = (n_++ % 2) == 1;
    op->type = insert ? OpType::kInsert : OpType::kQuery;
    op->frame = f2db::EncodeRequest(f2db::WireRequest{
        insert ? f2db::FrameType::kInsert : f2db::FrameType::kQuery, "x"});
  }
  std::size_t n_ = 0;
};

TEST(LoadGenerator, AttemptedEqualsOkPlusFailedPlusShed) {
  StubServer server(
      [](std::size_t i) {
        if (i % 7 == 3) return StatusCode::kUnavailable;
        if (i % 11 == 5) return StatusCode::kInternal;
        return StatusCode::kOk;
      },
      [](std::size_t) { return 0; });
  auto gen = LoadGenerator::Connect("127.0.0.1", server.port(), 3);
  ASSERT_TRUE(gen.ok());
  AlternatingSource source;
  PhaseSpec spec;
  spec.seconds = 0.3;
  spec.open_rate_per_s = 2000;
  spec.open_loop = {true, true, false};
  const PhaseResult result = gen.value()->Run(spec, source);
  EXPECT_TRUE(result.AccountingBalanced());
  std::uint64_t shed = 0;
  std::uint64_t failed = 0;
  for (const OpType type : {OpType::kQuery, OpType::kInsert}) {
    const OpStats& stats = result.of(type);
    EXPECT_GT(stats.attempted, 0u);
    EXPECT_EQ(stats.attempted, stats.ok + stats.failed + stats.shed);
    EXPECT_EQ(stats.latency_us.size(), stats.ok);
    shed += stats.shed;
    failed += stats.failed;
  }
  EXPECT_GT(shed, 0u);
  EXPECT_GT(failed, 0u);
  EXPECT_EQ(result.abandoned, 0u);
}

TEST(LoadGenerator, RequestsDueDuringAStallAreChargedTheStall) {
  constexpr std::size_t kDelayed = 100;
  constexpr int kDelayMs = 40;
  StubServer server([](std::size_t) { return StatusCode::kOk; },
                    [](std::size_t i) { return i == kDelayed ? kDelayMs : 0; });
  auto gen = LoadGenerator::Connect("127.0.0.1", server.port(), 1);
  ASSERT_TRUE(gen.ok());
  AlternatingSource source;
  PhaseSpec spec;
  spec.seconds = 0.4;
  spec.open_rate_per_s = 2000;
  spec.open_loop = {true};
  spec.record_requests = true;
  const PhaseResult result = gen.value()->Run(spec, source);
  ASSERT_GT(result.records.size(), kDelayed + 20);
  const RequestRecord& stalled = result.records[kDelayed];
  ASSERT_GE(stalled.recv_ns - stalled.send_ns, kDelayMs * 1000000LL);
  std::size_t due_during_stall = 0;
  for (const RequestRecord& r : result.records) {
    if (r.due_ns <= stalled.send_ns || r.due_ns >= stalled.recv_ns) continue;
    ++due_during_stall;
    // Sent only after the stalled reply, and timed from when it was due.
    EXPECT_GE(r.send_ns, stalled.recv_ns);
    EXPECT_GE(r.recv_ns - r.due_ns, stalled.recv_ns - r.due_ns);
  }
  // About 2000/s * 40 ms of arrivals fall inside the stall.
  EXPECT_GT(due_during_stall, 40u);
  const double max_late_us =
      *std::max_element(result.lateness_us.begin(), result.lateness_us.end());
  EXPECT_GE(max_late_us, kDelayMs * 1000.0 * 0.5);
}

/// FNV-1a over the frames of the first `count` open-loop ops of a source
/// (the op-sequence identity of a seed).
std::uint64_t OpSequenceHash(OpSource& source, std::size_t count) {
  std::uint64_t hash = Fnv1a("");
  Op op;
  for (std::size_t i = 0; i < count; ++i) {
    source.NextOpen(&op);
    hash = Fnv1a(op.frame, hash);
  }
  return hash;
}

TEST(Mixes, SameSeedSameOpSequence) {
  auto data = f2db::MakeGenX(100);
  ASSERT_TRUE(data.ok());
  const std::vector<NodeRef> nodes = NodeRefs(data.value().graph);
  const StatementIds ids = {1, 2, 3, 4};
  ServeMix a(nodes, ids, 7);
  ServeMix b(nodes, ids, 7);
  ServeMix c(nodes, ids, 8);
  const std::uint64_t ha = OpSequenceHash(a, 5000);
  EXPECT_EQ(ha, OpSequenceHash(b, 5000));
  EXPECT_NE(ha, OpSequenceHash(c, 5000));
}

}  // namespace
}  // namespace perfbench
