// Test oracle for the paper's three-stage P4P peer selection.
//
// This is the removal-based formulation over a flat candidate array:
// partition the candidates by PID, take the intra-PID quota uniformly,
// then repeatedly pick a PID by weight (1/p_ij, or matching weights, under
// the concave transform) and remove one uniform candidate from it. It is
// the straightforward reading of the algorithm and is kept only to check
// the production selector (P4PSelector, which counts per-bucket takes and
// materializes them once) for distributional parity. Nothing in the
// program links it.
//
// One known difference: the inter-AS stage pools other-AS candidates by PID
// alone, whereas P4PSelector weights each (AS, PID) bucket. The two agree
// only while no PID hosts peers of more than one other AS.
#pragma once

#include <random>
#include <span>
#include <vector>

#include "core/itracker.h"
#include "core/selectors.h"
#include "sim/bittorrent.h"

namespace p4p::testsupport {

/// Selects up to `m` distinct candidate ids for `client` (never the client
/// itself) under `config`. `tracker` is the client AS's iTracker; when null
/// the oracle degrades to a uniform random pick, as P4PSelector does for an
/// unregistered AS. `matching`, when non-null, is the Pando matching-weight
/// matrix that drives the inter-PID stage.
std::vector<sim::PeerId> SpanP4POracle(const core::P4PSelectorConfig& config,
                                       const core::ITracker* tracker,
                                       const std::vector<std::vector<double>>* matching,
                                       const sim::PeerInfo& client,
                                       std::span<const sim::PeerInfo> candidates,
                                       int m, std::mt19937_64& rng);

}  // namespace p4p::testsupport
