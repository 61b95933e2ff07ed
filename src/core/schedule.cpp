#include "core/schedule.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "core/edge_coloring.h"
#include "core/integralize.h"

namespace ssco::core {

void PeriodicSchedule::scale(const Rational& factor) {
  if (factor.signum() <= 0) {
    throw std::invalid_argument("PeriodicSchedule::scale: factor must be > 0");
  }
  period *= factor;
  for (CommActivity& c : comms) {
    c.start *= factor;
    c.end *= factor;
    c.messages *= factor;
  }
  for (CompActivity& c : comps) {
    c.start *= factor;
    c.end *= factor;
    c.count *= factor;
  }
}

bool PeriodicSchedule::has_integral_messages() const {
  return std::all_of(comms.begin(), comms.end(), [](const CommActivity& c) {
    return c.messages.is_integer();
  });
}

Rational PeriodicSchedule::delivered_per_period(
    graph::NodeId node, std::size_t type, const graph::Digraph& graph) const {
  Rational total(0);
  for (const CommActivity& c : comms) {
    if (c.type == type && graph.edge(c.edge).dst == node) {
      total += c.messages;
    }
  }
  return total;
}

std::string PeriodicSchedule::to_string() const {
  struct Line {
    Rational start;
    std::string text;
  };
  std::vector<Line> lines;
  lines.reserve(comms.size() + comps.size());
  for (const CommActivity& c : comms) {
    std::ostringstream os;
    os << "[" << c.start << ", " << c.end << ")  comm edge#" << c.edge
       << " type#" << c.type << " x" << c.messages;
    lines.push_back({c.start, os.str()});
  }
  for (const CompActivity& c : comps) {
    std::ostringstream os;
    os << "[" << c.start << ", " << c.end << ")  comp node#" << c.node
       << " task#" << c.task << " x" << c.count;
    lines.push_back({c.start, os.str()});
  }
  std::sort(lines.begin(), lines.end(),
            [](const Line& a, const Line& b) { return a.start < b.start; });
  std::ostringstream os;
  os << "period = " << period << "\n";
  for (const Line& l : lines) os << l.text << "\n";
  return os.str();
}

void lay_out_comms(PeriodicSchedule& schedule,
                   const platform::Platform& platform,
                   const Rational& message_size,
                   const std::vector<Traffic>& traffic,
                   const ScheduleOptions& options) {
  const auto& graph = platform.graph();
  std::vector<BipartiteEdge> bip;
  bip.reserve(traffic.size());
  for (const Traffic& t : traffic) {
    bip.push_back(BipartiteEdge{
        graph.edge(t.edge).src, graph.edge(t.edge).dst,
        t.messages * message_size * platform.edge_cost(t.edge)});
  }
  const EdgeColoring coloring =
      color_bipartite(graph.num_nodes(), graph.num_nodes(), bip);
  if (coloring.total_duration > schedule.period) {
    throw std::logic_error(
        "lay_out_comms: coloring exceeds the period (one-port constraints "
        "violated upstream)");
  }

  Rational start(0);
  for (const ColorClass& slice : coloring.slices) {
    Rational end = start + slice.duration;
    for (std::size_t idx : slice.edges) {
      const Traffic& t = traffic[idx];
      schedule.comms.push_back(CommActivity{
          t.edge, t.type, start, end,
          slice.duration / (message_size * platform.edge_cost(t.edge))});
    }
    start = std::move(end);
  }

  if (!options.allow_split_messages && !schedule.has_integral_messages()) {
    std::vector<Rational> counts;
    counts.reserve(schedule.comms.size());
    for (const CommActivity& c : schedule.comms) counts.push_back(c.messages);
    schedule.scale(Rational(integral_period(counts)));
  }
}

}  // namespace ssco::core
