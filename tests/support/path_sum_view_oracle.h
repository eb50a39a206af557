// Test oracle for the iTracker's external view.
//
// Builds the p-distance mesh the direct way: for every ordered pair, sum the
// revealed link costs (congestion dual, plus the BDP distance term and the
// interdomain dual) along the routed path from 0.0, then apply the privacy
// perturbation. This is the formula as the paper states it, O(sum of path
// lengths); ITracker builds the same mesh in O(n^2) down each source's
// shortest-path tree and must match it bit for bit. Nothing in the program
// links it.
#pragma once

#include "core/itracker.h"
#include "net/routing.h"

namespace p4p::testsupport {

/// The external view of `tracker`'s current priced state. `routing` must be
/// the table the tracker was built with.
core::PDistanceMatrix PathSumView(const core::ITracker& tracker,
                                  const net::RoutingTable& routing);

}  // namespace p4p::testsupport
