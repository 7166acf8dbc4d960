#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <unordered_map>

#include "report.h"
#include "statements.h"

namespace perfbench {
namespace {

thread_local std::uint64_t t_allocations = 0;

void* CountingAlloc(std::size_t n) {
  ++t_allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

std::atomic<std::uint32_t> g_next_thread_id{0};

}  // namespace

std::uint64_t ThreadAllocations() { return t_allocations; }

std::uint32_t TraceThreadId() {
  thread_local const std::uint32_t id =
      g_next_thread_id.fetch_add(1, std::memory_order_relaxed);
  return id;
}

}  // namespace perfbench

void* operator new(std::size_t n) { return perfbench::CountingAlloc(n); }
void* operator new[](std::size_t n) { return perfbench::CountingAlloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  ++perfbench::t_allocations;
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  ++perfbench::t_allocations;
  return std::malloc(n == 0 ? 1 : n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace perfbench {

const char* SpanName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kClientRequest:
      return "client.request";
    case SpanKind::kParsePlan:
      return "engine.parse_plan";
    case SpanKind::kExecutePlanInto:
      return "engine.execute_plan_into";
    case SpanKind::kExecute:
      return "engine.execute";
    case SpanKind::kInsertFact:
      return "engine.insert_fact";
    case SpanKind::kAdvisorIteration:
      return "core.advisor_iteration";
    case SpanKind::kComputeLocal:
      return "core.compute_local";
    case SpanKind::kCreateAndFit:
      return "ts.create_and_fit";
  }
  return "unknown";
}

std::vector<Span> SpanBuffer::Snapshot() const {
  const std::size_t n = std::min(
      committed_.load(std::memory_order_acquire), spans_.size());
  return std::vector<Span>(spans_.begin(),
                           spans_.begin() + static_cast<std::ptrdiff_t>(n));
}

std::uint64_t SpanBuffer::dropped() const {
  const std::size_t attempted = next_.load(std::memory_order_acquire);
  return attempted > spans_.size() ? attempted - spans_.size() : 0;
}

void TracingEngine::Record(SpanKind kind, std::uint64_t key,
                           std::int64_t start_ns) const {
  SpanBuffer* spans = spans_.load(std::memory_order_acquire);
  if (spans == nullptr) return;
  Span span;
  span.kind = kind;
  span.thread = TraceThreadId();
  span.key = key;
  span.start_ns = start_ns;
  span.end_ns = NowNs();
  spans->Add(span);
}

f2db::Result<f2db::QueryResult> TracingEngine::Execute(
    const f2db::ForecastQuery& query) const {
  const std::int64_t start = NowNs();
  auto result = inner_.Execute(query);
  Record(SpanKind::kExecute, ForecastKey(query), start);
  return result;
}

f2db::Result<f2db::PlanPtr> TracingEngine::ParsePlan(
    const std::string& sql) const {
  const std::int64_t start = NowNs();
  auto plan = inner_.ParsePlan(sql);
  Record(SpanKind::kParsePlan, Fnv1a(sql), start);
  return plan;
}

f2db::Status TracingEngine::ExecutePlanInto(const f2db::CachedPlan& plan,
                                            const f2db::ForecastQuery& query,
                                            f2db::QueryResult* out) const {
  const std::int64_t start = NowNs();
  f2db::Status status = inner_.ExecutePlanInto(plan, query, out);
  Record(SpanKind::kExecutePlanInto, ForecastKey(query), start);
  return status;
}

f2db::Status TracingEngine::InsertFact(
    const std::vector<std::string>& base_values, std::int64_t time,
    double value) {
  const std::int64_t start = NowNs();
  f2db::Status status = inner_.InsertFact(base_values, time, value);
  Record(SpanKind::kInsertFact,
         InsertKey(base_values.empty() ? std::string_view() : base_values[0],
                   time),
         start);
  return status;
}

MatchResult MatchEngineSpans(const std::vector<RequestRecord>& requests,
                             std::vector<Span>* spans) {
  MatchResult result;
  // Requests by key, each list in send order.
  std::vector<std::size_t> order(requests.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return requests[a].send_ns < requests[b].send_ns;
  });
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> by_key;
  for (const std::size_t i : order) {
    by_key[requests[i].key].push_back(i);
    if (requests[i].text_key != 0 && requests[i].text_key != requests[i].key) {
      by_key[requests[i].text_key].push_back(i);
    }
  }

  const std::size_t first_request_span = spans->size();
  std::vector<std::int64_t> first_start(requests.size(), 0);
  std::vector<std::int64_t> last_end(requests.size(), 0);
  std::vector<bool> has_engine(requests.size(), false);
  std::vector<bool> tainted(requests.size(), false);
  for (Span& span : *spans) {
    if (span.kind == SpanKind::kClientRequest ||
        span.kind > SpanKind::kInsertFact) {
      continue;
    }
    const auto it = by_key.find(span.key);
    if (it == by_key.end()) {
      ++result.unmatched;
      continue;
    }
    const std::vector<std::size_t>& list = it->second;
    // Last request sent no later than the span began; at most one request
    // per connection is in flight, so only a few earlier ones can still
    // contain the span.
    auto pos = std::upper_bound(
        list.begin(), list.end(), span.start_ns,
        [&](std::int64_t t, std::size_t i) { return t < requests[i].send_ns; });
    std::size_t candidate[16];
    std::size_t candidates = 0;
    for (int back = 0; back < 16 && pos != list.begin(); ++back) {
      --pos;
      if (requests[*pos].recv_ns >= span.end_ns) candidate[candidates++] = *pos;
    }
    if (candidates == 0) {
      ++result.unmatched;
      continue;
    }
    if (candidates > 1) {
      // Same statement in flight on several connections: the span cannot
      // be attributed, so none of those requests gets a stage split.
      ++result.ambiguous;
      for (std::size_t k = 0; k < candidates; ++k) tainted[candidate[k]] = true;
      continue;
    }
    const std::size_t found = candidate[0];
    ++result.matched;
    span.request = found;
    span.parent = first_request_span + found;
    if (!has_engine[found] || span.start_ns < first_start[found]) {
      first_start[found] = span.start_ns;
    }
    if (!has_engine[found] || span.end_ns > last_end[found]) {
      last_end[found] = span.end_ns;
    }
    has_engine[found] = true;
  }

  spans->reserve(spans->size() + requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const RequestRecord& r = requests[i];
    Span span;
    span.kind = SpanKind::kClientRequest;
    span.thread = r.conn;
    span.key = r.key;
    span.request = i;
    span.start_ns = r.send_ns;
    span.end_ns = r.recv_ns;
    spans->push_back(span);
    if (!has_engine[i] || tainted[i]) continue;
    StageSplit split;
    split.pre_engine_us = static_cast<double>(first_start[i] - r.send_ns) / 1e3;
    split.engine_us = static_cast<double>(last_end[i] - first_start[i]) / 1e3;
    split.post_engine_us = static_cast<double>(r.recv_ns - last_end[i]) / 1e3;
    split.round_trip_us = static_cast<double>(r.recv_ns - r.send_ns) / 1e3;
    result.stages.push_back(split);
  }
  return result;
}

bool WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "name,thread,key,parent,request,start_ns,end_ns\n");
  for (const Span& s : spans) {
    std::fprintf(out, "%s,%u,%llu,%lld,%lld,%lld,%lld\n", SpanName(s.kind),
                 s.thread, static_cast<unsigned long long>(s.key),
                 s.parent == kNoSpan ? -1LL : static_cast<long long>(s.parent),
                 s.request == kNoSpan ? -1LL
                                      : static_cast<long long>(s.request),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(out) == 0;
}

}  // namespace perfbench
