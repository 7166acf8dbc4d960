#include "loadgen.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <optional>

#include "common/rng.h"
#include "report.h"

namespace perfbench {

using f2db::FrameDecoder;
using f2db::Result;
using f2db::Status;
using f2db::StatusCode;
using f2db::WireRequest;
using f2db::WireResponse;

const char* OpTypeName(OpType type) {
  switch (type) {
    case OpType::kQuery:
      return "query";
    case OpType::kExecute:
      return "execute";
    case OpType::kInsert:
      return "insert";
  }
  return "unknown";
}

std::uint64_t PhaseResult::completed_ok() const {
  std::uint64_t total = 0;
  for (const OpStats& stats : ops) total += stats.ok;
  return total;
}

bool PhaseResult::AccountingBalanced() const {
  for (const OpStats& stats : ops) {
    if (stats.attempted != stats.ok + stats.failed + stats.shed) return false;
  }
  return true;
}

struct LoadGenerator::Conn {
  int fd = -1;
  FrameDecoder decoder;
  bool busy = false;
  bool broken = false;
  Op op;
  std::int64_t due_ns = 0;
  std::int64_t send_ns = 0;
  std::uint32_t retries = 0;

  ~Conn() {
    if (fd >= 0) ::close(fd);
  }
};

namespace {

/// Bound on resends of one request (a retryable condition that never
/// clears ends as a failure).
constexpr std::uint32_t kMaxRetries = 1000;

/// Bound on waiting for in-flight replies once a phase's time is up (or,
/// for a source that finishes early, on the phase beyond its time).
constexpr double kDrainSeconds = 10.0;

/// Replies per op type the per-request vectors are reserved for. The
/// reservation is address space only: pages are touched as replies
/// arrive, so resident memory grows linearly with the replies instead of
/// jumping at each vector doubling.
constexpr std::size_t kReservedReplies = std::size_t{1} << 22;

bool IsShed(StatusCode code) {
  return code == StatusCode::kUnavailable ||
         code == StatusCode::kResourceExhausted ||
         code == StatusCode::kDeadlineExceeded;
}

/// Writes the whole buffer to a non-blocking socket, waiting for POLLOUT
/// when the kernel buffer is full.
bool SendAll(int fd, const std::string& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
      pollfd pfd{fd, POLLOUT, 0};
      ::poll(&pfd, 1, 100);
      continue;
    }
    return false;
  }
  return true;
}

/// Drains readable bytes into the decoder. Returns false when the peer
/// closed the connection or the stream is broken.
bool ReadAvailable(int fd, FrameDecoder& decoder) {
  char buf[64 * 1024];
  while (true) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), MSG_DONTWAIT);
    if (n > 0) {
      if (!decoder.Feed(buf, static_cast<std::size_t>(n)).ok()) return false;
      if (static_cast<std::size_t>(n) < sizeof(buf)) return true;
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
      return true;
    }
    return false;
  }
}

}  // namespace

Result<std::unique_ptr<LoadGenerator>> LoadGenerator::Connect(
    const std::string& host, std::uint16_t port, std::size_t connections) {
  std::unique_ptr<LoadGenerator> gen(new LoadGenerator());
  for (std::size_t i = 0; i < connections; ++i) {
    auto conn = std::make_unique<Conn>();
    conn->fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (conn->fd < 0) return Status::Internal("socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
      return Status::InvalidArgument("bad host " + host);
    }
    if (::connect(conn->fd, reinterpret_cast<sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      return Status::Unavailable(std::string("connect: ") +
                                 std::strerror(errno));
    }
    const int one = 1;
    ::setsockopt(conn->fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    gen->conns_.push_back(std::move(conn));
  }
  return gen;
}

LoadGenerator::~LoadGenerator() = default;

Result<WireResponse> LoadGenerator::Call(std::size_t index,
                                         const std::string& frame) {
  Conn& conn = *conns_.at(index);
  if (conn.busy || conn.broken) {
    return Status::FailedPrecondition("connection not idle");
  }
  if (!SendAll(conn.fd, frame)) return Status::Unavailable("send failed");
  while (true) {
    if (std::optional<std::string> payload = conn.decoder.Next()) {
      return f2db::DecodeResponsePayload(*payload);
    }
    pollfd pfd{conn.fd, POLLIN, 0};
    if (::poll(&pfd, 1, 10000) <= 0) return Status::Unavailable("no reply");
    if (!ReadAvailable(conn.fd, conn.decoder)) {
      return Status::Unavailable("connection closed");
    }
  }
}

Result<std::uint32_t> LoadGenerator::Prepare(std::size_t conn,
                                             const std::string& sql) {
  F2DB_ASSIGN_OR_RETURN(WireResponse response,
                        Call(conn, f2db::EncodeRequest(WireRequest{
                                       f2db::FrameType::kPrepare, sql})));
  if (response.status != StatusCode::kOk) {
    return Status(response.status, "PREPARE failed: " + response.body);
  }
  F2DB_ASSIGN_OR_RETURN(f2db::PrepareOk ok,
                        f2db::ParsePrepareOkBody(response.body));
  return ok.stmt_id;
}

PhaseResult LoadGenerator::Run(const PhaseSpec& spec, OpSource& source) {
  PhaseResult result;
  for (OpStats& stats : result.ops) {
    stats.latency_us.reserve(kReservedReplies);
    stats.done_ns.reserve(kReservedReplies);
  }
  result.lateness_us.reserve(kReservedReplies);

  const std::size_t n = conns_.size();
  std::vector<std::size_t> open_conns;
  std::vector<std::size_t> closed_conns;
  for (std::size_t c = 0; c < n; ++c) {
    (c < spec.open_loop.size() && spec.open_loop[c] ? open_conns
                                                     : closed_conns)
        .push_back(c);
  }
  const bool open_enabled = spec.open_rate_per_s > 0 && !open_conns.empty();
  f2db::Rng arrivals(spec.seed);
  const auto next_gap_ns = [&] {
    const double u = arrivals.NextDouble();
    return static_cast<std::int64_t>(-std::log1p(-u) / spec.open_rate_per_s *
                                     1e9);
  };

  std::size_t in_flight = 0;
  std::int64_t start_ns = 0;
  const auto send = [&](std::size_t c, std::int64_t due_ns) {
    Conn& conn = *conns_[c];
    OpStats& stats = result.ops[static_cast<std::size_t>(conn.op.type)];
    ++stats.attempted;
    conn.due_ns = due_ns;
    conn.send_ns = NowNs();
    if (!SendAll(conn.fd, conn.op.frame)) {
      ++stats.failed;
      conn.broken = true;
      return;
    }
    conn.busy = true;
    ++in_flight;
  };
  const auto finish = [&](std::size_t c, const WireResponse* response,
                          std::int64_t recv_ns) {
    Conn& conn = *conns_[c];
    OpStats& stats = result.ops[static_cast<std::size_t>(conn.op.type)];
    if (response != nullptr && conn.retries < kMaxRetries &&
        source.ShouldRetry(conn.op, *response)) {
      ++conn.retries;
      ++stats.retries;
      if (SendAll(conn.fd, conn.op.frame)) return;
      conn.broken = true;
      response = nullptr;
    }
    conn.busy = false;
    conn.retries = 0;
    --in_flight;
    const StatusCode code =
        response != nullptr ? response->status : StatusCode::kUnavailable;
    if (response == nullptr) {
      ++stats.failed;
    } else if (code == StatusCode::kOk) {
      ++stats.ok;
      stats.latency_us.push_back(static_cast<double>(recv_ns - conn.due_ns) /
                                 1e3);
      stats.done_ns.push_back(recv_ns - start_ns);
    } else if (IsShed(code)) {
      ++stats.shed;
    } else {
      ++stats.failed;
    }
    if (spec.record_requests) {
      result.records.push_back(RequestRecord{
          static_cast<std::uint32_t>(c), conn.op.type, conn.op.key,
          conn.op.text_key, conn.due_ns, conn.send_ns, recv_ns});
    }
    if (response != nullptr) source.OnResponse(c, conn.op, *response);
  };

  const double cpu_start = ThreadCpuSeconds();
  start_ns = NowNs();
  const std::int64_t end_ns =
      start_ns + static_cast<std::int64_t>(spec.seconds * 1e9);
  const std::int64_t drain_end_ns =
      end_ns + static_cast<std::int64_t>(kDrainSeconds * 1e9);
  std::int64_t next_due_ns = start_ns + (open_enabled ? next_gap_ns() : 0);
  std::size_t open_cursor = 0;

  std::int64_t next_window_ns = start_ns + kWindowNs;
  double window_steal_start = HostStealSeconds();
  while (true) {
    const std::int64_t now = NowNs();
    if (now >= next_window_ns) {
      const double steal = HostStealSeconds();
      result.window_steal_s.push_back(steal - window_steal_start);
      window_steal_start = steal;
      next_window_ns += kWindowNs;
    }
    if (source.Finished() && in_flight == 0) break;
    if (now < end_ns) {
      // Open-loop arrivals that are due go out on the next free open-loop
      // connection, oldest first; their clock started at the due time.
      while (open_enabled && next_due_ns <= now) {
        std::size_t chosen = n;
        for (std::size_t i = 0; i < open_conns.size(); ++i) {
          const std::size_t c =
              open_conns[(open_cursor + i) % open_conns.size()];
          if (!conns_[c]->busy && !conns_[c]->broken) {
            chosen = c;
            open_cursor = (open_cursor + i + 1) % open_conns.size();
            break;
          }
        }
        if (chosen == n) break;
        source.NextOpen(&conns_[chosen]->op);
        send(chosen, next_due_ns);
        result.lateness_us.push_back(
            static_cast<double>(conns_[chosen]->send_ns - next_due_ns) / 1e3);
        next_due_ns += next_gap_ns();
      }
      for (const std::size_t c : closed_conns) {
        Conn& conn = *conns_[c];
        if (conn.busy || conn.broken) continue;
        if (source.NextClosed(c, &conn.op)) send(c, NowNs());
      }
    } else if (in_flight == 0) {
      break;
    } else if (now > drain_end_ns) {
      for (std::size_t c = 0; c < n; ++c) {
        if (!conns_[c]->busy) continue;
        ++result.abandoned;
        conns_[c]->broken = true;
        finish(c, nullptr, now);
      }
      break;
    }

    for (std::size_t c = 0; c < n; ++c) {
      Conn& conn = *conns_[c];
      if (!conn.busy) continue;
      if (!ReadAvailable(conn.fd, conn.decoder)) {
        conn.broken = true;
        finish(c, nullptr, NowNs());
        continue;
      }
      if (std::optional<std::string> payload = conn.decoder.Next()) {
        const std::int64_t recv_ns = NowNs();
        Result<WireResponse> decoded = f2db::DecodeResponsePayload(*payload);
        finish(c, decoded.ok() ? &decoded.value() : nullptr, recv_ns);
      }
    }
  }
  result.generator_cpu_s = ThreadCpuSeconds() - cpu_start;
  return result;
}

}  // namespace perfbench
