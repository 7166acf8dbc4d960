#include "statements.h"

namespace perfbench {

std::vector<NodeRef> NodeRefs(const f2db::TimeSeriesGraph& graph) {
  const f2db::Hierarchy& hierarchy = graph.schema().hierarchy(0);
  std::vector<NodeRef> refs(graph.num_nodes());
  for (f2db::NodeId node = 0; node < graph.num_nodes(); ++node) {
    NodeRef& ref = refs[node];
    ref.node = node;
    ref.is_base = graph.IsBaseNode(node);
    const auto coord = graph.AddressOf(node).coords.at(0);
    ref.level_index = coord.level;
    if (coord.level < hierarchy.num_levels()) {
      ref.level = hierarchy.level_name(coord.level);
      ref.value = hierarchy.value_name(coord.level, coord.value);
    }
  }
  return refs;
}

std::string QueryText(const NodeRef& node, std::size_t horizon) {
  std::string sql = "SELECT time, SUM(value) FROM facts ";
  if (!node.level.empty()) {
    sql += "WHERE " + node.level + " = '" + node.value + "' ";
  }
  return sql + "GROUP BY time AS OF now() + '" + std::to_string(horizon) +
         "'";
}

std::string PreparedText(const NodeRef& node) {
  std::string sql = "SELECT time, SUM(value) FROM facts ";
  if (!node.level.empty()) sql += "WHERE " + node.level + " = ? ";
  return sql + "GROUP BY time AS OF now() + ?";
}

std::string InsertText(std::string_view cell, std::int64_t time,
                       std::string_view value_text) {
  std::string sql = "INSERT INTO facts VALUES ('";
  sql += cell;
  sql += "', ";
  sql += std::to_string(time);
  sql += ", ";
  sql += value_text;
  sql += ")";
  return sql;
}

std::uint64_t Fnv1a(std::string_view bytes, std::uint64_t hash) {
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

namespace {

std::uint64_t MixInt(std::uint64_t hash, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (8 * i)) & 0xff;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

}  // namespace

std::uint64_t ForecastKey(std::string_view value, std::size_t horizon) {
  return MixInt(Fnv1a(value), horizon);
}

std::uint64_t ForecastKey(const f2db::ForecastQuery& query) {
  const std::string_view value =
      query.filters.empty() ? std::string_view() : query.filters[0].value;
  return ForecastKey(value, query.horizon);
}

std::uint64_t InsertKey(std::string_view cell, std::int64_t time) {
  return MixInt(Fnv1a(cell, 0x84222325cbf29ce4ULL),
                static_cast<std::uint64_t>(time));
}

}  // namespace perfbench
