#include "core/scatter_schedule.h"

#include "core/integralize.h"

namespace ssco::core {

PeriodicSchedule build_flow_schedule(const platform::Platform& platform,
                                     const MultiFlow& flow,
                                     const ScheduleOptions& options) {
  PeriodicSchedule schedule;
  schedule.period = Rational(integral_period(flow));
  // Commodity-major traffic order: it fixes the coloring.
  std::vector<Traffic> traffic;
  for (std::size_t k = 0; k < flow.commodities.size(); ++k) {
    const CommodityFlow& c = flow.commodities[k];
    schedule.supplier_of_type.push_back(c.origin);
    schedule.sink_of_type.push_back(c.destination);
    for (EdgeId e = 0; e < platform.num_edges(); ++e) {
      if (c.edge_flow[e].is_zero()) continue;
      traffic.push_back(Traffic{e, k, c.edge_flow[e] * schedule.period});
    }
  }
  lay_out_comms(schedule, platform, flow.message_size, traffic, options);
  return schedule;
}

}  // namespace ssco::core
