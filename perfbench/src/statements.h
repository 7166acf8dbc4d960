// Statement text and statement identity for the workloads' one-hierarchy
// GenX cubes.
//
// Every graph node of a GenX cube is addressed by at most one predicate
// (`level<k> = 'L<k>_<v>'`, none for the top node), so a forecast request
// is (node, horizon). The load generator and the tracing decorator both
// reduce a request to a 64-bit key over the same fields — the predicate
// value and the horizon — which is how a span recorded inside the engine
// is matched to the client request that caused it.

#ifndef PERFBENCH_STATEMENTS_H_
#define PERFBENCH_STATEMENTS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "cube/graph.h"
#include "engine/query.h"

namespace perfbench {

/// One forecastable node: its predicate (level empty for the top node).
struct NodeRef {
  f2db::NodeId node = 0;
  std::string level;
  std::string value;
  /// Hierarchy level of the predicate; num_levels() for the top node.
  std::size_t level_index = 0;
  bool is_base = false;
};

/// The predicate of every node of a one-dimensional graph, by node id.
std::vector<NodeRef> NodeRefs(const f2db::TimeSeriesGraph& graph);

/// `SELECT time, SUM(value) FROM facts [WHERE <level> = '<value>'] GROUP BY
/// time AS OF now() + '<horizon>'`.
std::string QueryText(const NodeRef& node, std::size_t horizon);

/// The same statement with the value and the horizon as `?` slots (only
/// the horizon for the top node).
std::string PreparedText(const NodeRef& node);

/// `INSERT INTO facts VALUES ('<cell>', <time>, <value>)`; `value_text`
/// is the literal as sent.
std::string InsertText(std::string_view cell, std::int64_t time,
                       std::string_view value_text);

/// 64-bit FNV-1a, continuing from `hash`.
std::uint64_t Fnv1a(std::string_view bytes,
                    std::uint64_t hash = 0xcbf29ce484222325ULL);

/// Identity of a forecast request: predicate value and horizon.
std::uint64_t ForecastKey(std::string_view value, std::size_t horizon);

/// ForecastKey of a parsed query (the decorator's side).
std::uint64_t ForecastKey(const f2db::ForecastQuery& query);

/// Identity of an insert: cell name and time.
std::uint64_t InsertKey(std::string_view cell, std::int64_t time);

}  // namespace perfbench

#endif  // PERFBENCH_STATEMENTS_H_
