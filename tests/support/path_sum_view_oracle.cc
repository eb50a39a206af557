#include "support/path_sum_view_oracle.h"

#include <limits>

namespace p4p::testsupport {

core::PDistanceMatrix PathSumView(const core::ITracker& tracker,
                                  const net::RoutingTable& routing) {
  const net::Graph& graph = tracker.graph();
  const bool bdp =
      tracker.config().objective == core::IspObjective::kBandwidthDistanceProduct;
  // Same fold order as the tracker: price, then distance, then the
  // interdomain dual (0 for links not declared interdomain).
  std::vector<double> link_cost(graph.link_count());
  for (std::size_t e = 0; e < link_cost.size(); ++e) {
    const auto link = static_cast<net::LinkId>(e);
    link_cost[e] = tracker.link_price(link);
    if (bdp) link_cost[e] += graph.link(link).distance;
    link_cost[e] += tracker.interdomain_price(link);
  }
  const int n = tracker.num_pids();
  core::PDistanceMatrix m(n);
  for (core::Pid i = 0; i < n; ++i) {
    for (core::Pid j = 0; j < n; ++j) {
      if (i == j) {
        m.set(i, j, tracker.config().intra_pid_distance);
      } else if (!routing.reachable(i, j)) {
        m.set(i, j, std::numeric_limits<double>::infinity());
      } else {
        double total = 0.0;
        for (const net::LinkId e : routing.path_view(i, j)) {
          total += link_cost[static_cast<std::size_t>(e)];
        }
        m.set(i, j, tracker.perturb(i, j, total));
      }
    }
  }
  return m;
}

}  // namespace p4p::testsupport
