// Tracing for the traced run: spans recorded from the benchmark's own
// code, around the calls it makes into each layer.
//
//   - TracingEngine is an EngineInterface decorator handed to the
//     in-process F2dbServer in place of the real engine. It forwards every
//     call; ParsePlan, ExecutePlanInto, Execute and InsertFact are timed
//     when a SpanBuffer is attached. It never allocates, so the warmed
//     EXECUTE path stays allocation-free through it.
//   - Client requests, advisor iterations and direct ComputeLocal /
//     CreateAndFit calls are recorded by the workloads into the same
//     buffer.
//
// Spans live in a fixed, preallocated buffer and are written out when the
// run ends; spans past its capacity are counted as dropped. A decorator
// span carries the statement key of the call (see statements.h) and is
// tied to its client request afterwards by MatchEngineSpans.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "loadgen.h"

namespace perfbench {

enum class SpanKind : std::uint8_t {
  kClientRequest = 0,
  kParsePlan,
  kExecutePlanInto,
  kExecute,
  kInsertFact,
  kAdvisorIteration,
  kComputeLocal,
  kCreateAndFit,
};
const char* SpanName(SpanKind kind);

inline constexpr std::uint64_t kNoSpan = ~std::uint64_t{0};

struct Span {
  SpanKind kind = SpanKind::kClientRequest;
  std::uint32_t thread = 0;
  std::uint64_t key = 0;
  std::uint64_t parent = kNoSpan;   ///< index of the parent span
  std::uint64_t request = kNoSpan;  ///< request id shared by a request's spans
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Small dense id of the calling thread (first come, first numbered).
std::uint32_t TraceThreadId();

/// Heap allocations made by the calling thread so far (operator new is
/// replaced in this program to count them).
std::uint64_t ThreadAllocations();

/// Fixed-capacity span store; Add is wait-free and never allocates.
class SpanBuffer {
 public:
  explicit SpanBuffer(std::size_t capacity) : spans_(capacity) {}

  void Add(const Span& span) {
    const std::size_t slot = next_.fetch_add(1, std::memory_order_relaxed);
    if (slot >= spans_.size()) return;
    spans_[slot] = span;
    committed_.fetch_add(1, std::memory_order_release);
  }

  /// Spans recorded so far; call only once writers are quiescent.
  std::vector<Span> Snapshot() const;
  std::uint64_t dropped() const;

 private:
  std::vector<Span> spans_;
  std::atomic<std::size_t> next_{0};
  std::atomic<std::size_t> committed_{0};
};

/// The engine decorator. Spans are recorded only while a buffer is set.
class TracingEngine : public f2db::EngineInterface {
 public:
  explicit TracingEngine(f2db::EngineInterface& inner) : inner_(inner) {}

  void set_spans(SpanBuffer* spans) {
    spans_.store(spans, std::memory_order_release);
  }

  f2db::Result<f2db::QueryResult> Execute(
      const f2db::ForecastQuery& query) const override;
  f2db::Result<f2db::ExplainResult> Explain(
      const f2db::ForecastQuery& query) const override {
    return inner_.Explain(query);
  }
  f2db::Result<f2db::PlanPtr> ParsePlan(const std::string& sql) const override;
  f2db::Status ExecutePlanInto(const f2db::CachedPlan& plan,
                               const f2db::ForecastQuery& query,
                               f2db::QueryResult* out) const override;
  f2db::Status InsertFact(const std::vector<std::string>& base_values,
                          std::int64_t time, double value) override;
  std::size_t pending_inserts() const override {
    return inner_.pending_inserts();
  }
  f2db::EngineStats stats() const override { return inner_.stats(); }
  std::string StatsPrometheusText() const override {
    return inner_.StatsPrometheusText();
  }
  bool durable() const override { return inner_.durable(); }
  f2db::Status CheckpointNow() override { return inner_.CheckpointNow(); }
  f2db::Status CompactNow() override { return inner_.CompactNow(); }

 private:
  void Record(SpanKind kind, std::uint64_t key, std::int64_t start_ns) const;

  f2db::EngineInterface& inner_;
  std::atomic<SpanBuffer*> spans_{nullptr};
};

/// Per-request stage split of one matched round trip.
struct StageSplit {
  double pre_engine_us = 0;   ///< client send -> first engine entry
  double engine_us = 0;       ///< first engine entry -> last engine exit
  double post_engine_us = 0;  ///< last engine exit -> client receive
  double round_trip_us = 0;   ///< client send -> client receive
};

struct MatchResult {
  std::vector<StageSplit> stages;  ///< one per request with engine spans
  std::uint64_t matched = 0;
  std::uint64_t unmatched = 0;   ///< no containing request had the key
  std::uint64_t ambiguous = 0;   ///< several in-flight requests qualified
};

/// Ties engine spans to client requests: a decorator span belongs to the
/// request whose [send, receive] interval contains it and whose statement
/// key it carries. Sets each matched span's parent and request id, appends
/// one kClientRequest span per request to `spans`, and splits every
/// matched round trip into pre-engine, engine and post-engine time, which
/// add up to the round trip by construction.
MatchResult MatchEngineSpans(const std::vector<RequestRecord>& requests,
                             std::vector<Span>* spans);

/// Writes spans as CSV (name,thread,key,parent,request,start_ns,end_ns).
bool WriteSpans(const std::string& path, const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
