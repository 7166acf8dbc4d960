// Single-threaded load generator over loopback connections.
//
// One thread drives every connection through non-blocking sockets, with at
// most one request in flight per connection. Frames are built with the
// server's own codec (EncodeRequest / FrameDecoder /
// DecodeResponsePayload), so the generator speaks exactly the wire
// protocol a client does.
//
// A phase mixes two loop types:
//   - OPEN-LOOP connections take arrivals from a seeded Poisson schedule
//     at a fixed rate. Each request is timed from the moment it was DUE,
//     so a stall that delays the send charges the waiting request, and
//     how late the generator sent it is recorded separately.
//   - CLOSED-LOOP connections send their next request as soon as the
//     previous reply arrives, so a slow server receives less load.
//
// The generator busy-polls (no sleeps): on a small host, sleeping and
// waking the generator costs more than the requests it times.

#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "server/wire.h"

namespace perfbench {

enum class OpType : std::uint8_t { kQuery = 0, kExecute, kInsert };
inline constexpr std::size_t kNumOpTypes = 3;
const char* OpTypeName(OpType type);

/// One request the generator sends.
struct Op {
  OpType type = OpType::kQuery;
  /// Complete encoded request frame.
  std::string frame;
  /// Statement identity (ForecastKey / InsertKey) and, for raw QUERY, the
  /// FNV-1a of the statement text — the keys decorator spans carry.
  std::uint64_t key = 0;
  std::uint64_t text_key = 0;
  /// Caller cookie, echoed to OnResponse.
  std::uint64_t tag = 0;
};

/// Where a phase's requests come from and where their replies go. Called
/// only on the generator thread.
class OpSource {
 public:
  virtual ~OpSource() = default;
  /// Next open-loop arrival (the generator picks the connection).
  virtual void NextOpen(Op* op) { (void)op; }
  /// Next request of closed-loop connection `conn`; false to send nothing
  /// now (asked again on the next poll).
  virtual bool NextClosed(std::size_t conn, Op* op) {
    (void)conn;
    (void)op;
    return false;
  }
  /// True once the source has nothing more to send; the phase then ends
  /// as soon as no request is in flight, even before its time is up.
  virtual bool Finished() const { return false; }
  /// True when a reply reports a transient condition the client should
  /// retry at once on the same connection. The retried request keeps its
  /// due time, so the retry's cost lands in its latency.
  virtual bool ShouldRetry(const Op& op, const f2db::WireResponse& response) {
    (void)op;
    (void)response;
    return false;
  }
  /// Every decoded reply, in arrival order.
  virtual void OnResponse(std::size_t conn, const Op& op,
                          const f2db::WireResponse& response) {
    (void)conn;
    (void)op;
    (void)response;
  }
};

/// One finished request (kept when a phase records requests).
struct RequestRecord {
  std::uint32_t conn = 0;
  OpType type = OpType::kQuery;
  std::uint64_t key = 0;
  std::uint64_t text_key = 0;
  std::int64_t due_ns = 0;
  std::int64_t send_ns = 0;
  std::int64_t recv_ns = 0;
};

struct PhaseSpec {
  double seconds = 1.0;
  /// Open-loop arrival rate over all open-loop connections; 0 = none.
  double open_rate_per_s = 0.0;
  /// open_loop[c]: connection c takes open-loop arrivals; otherwise it
  /// runs closed-loop. Must have one entry per connection.
  std::vector<bool> open_loop;
  /// Seed of the arrival schedule.
  std::uint64_t seed = 1;
  /// Keep one RequestRecord per request (traced runs, self-test).
  bool record_requests = false;
};

/// Per-op-type accounting: every sent request ends as exactly one of ok,
/// failed or shed (attempted == ok + failed + shed).
struct OpStats {
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  /// Refused by the server's overload control (kUnavailable,
  /// kResourceExhausted, kDeadlineExceeded).
  std::uint64_t shed = 0;
  /// Resends after a retryable reply (not counted in attempted).
  std::uint64_t retries = 0;
  /// Due-to-reply latency of ok requests, microseconds.
  std::vector<double> latency_us;
  /// Reply time of the same requests, nanoseconds since the phase began.
  std::vector<std::int64_t> done_ns;
};

/// Length of the windows a phase's host steal is sampled over.
inline constexpr std::int64_t kWindowNs = 500000000;

struct PhaseResult {
  OpStats ops[kNumOpTypes];
  /// Send time minus due time of every open-loop request, microseconds.
  std::vector<double> lateness_us;
  /// Host steal seconds (all CPUs) in each consecutive kWindowNs window
  /// from the phase start, sampled from /proc/stat.
  std::vector<double> window_steal_s;
  /// CPU seconds the generator thread used during the phase.
  double generator_cpu_s = 0.0;
  /// Requests still in flight when the drain bound ran out (also counted
  /// as failed).
  std::uint64_t abandoned = 0;
  std::vector<RequestRecord> records;

  const OpStats& of(OpType type) const {
    return ops[static_cast<std::size_t>(type)];
  }
  std::uint64_t completed_ok() const;
  /// True when attempted == ok + failed + shed for every op type.
  bool AccountingBalanced() const;
};

/// The generator: a fixed set of connections to one server.
class LoadGenerator {
 public:
  static f2db::Result<std::unique_ptr<LoadGenerator>> Connect(
      const std::string& host, std::uint16_t port, std::size_t connections);
  ~LoadGenerator();

  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  std::size_t connections() const { return conns_.size(); }

  /// Blocking request/response on one idle connection (set-up traffic
  /// such as PREPARE; not counted in any phase).
  f2db::Result<f2db::WireResponse> Call(std::size_t conn,
                                        const std::string& frame);

  /// PREPARE on one connection; returns the statement id.
  f2db::Result<std::uint32_t> Prepare(std::size_t conn, const std::string& sql);

  /// Runs one phase to completion on the calling thread.
  PhaseResult Run(const PhaseSpec& spec, OpSource& source);

 private:
  struct Conn;
  LoadGenerator() = default;
  std::vector<std::unique_ptr<Conn>> conns_;
};

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
