#include "proto/service.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "net/topology.h"
#include "support/distance_frame_oracle.h"

namespace p4p::proto {
namespace {

class ServiceTest : public ::testing::Test {
 protected:
  ServiceTest()
      : graph_(net::MakeAbilene()), routing_(graph_), tracker_(graph_, routing_) {
    policy_.SetThresholds({0.7, 0.9});
    policy_.AddTimeOfDayPolicy({2, 18, 23, 0.5});
    capabilities_.Add({core::CapabilityType::kCache, 3, 1e9, "metro cache"});
    pid_map_.add(*core::Prefix::Parse("10.0.0.0/8"), {4, 100});
  }

  PortalClient InProcessClient(const ITrackerService& service) {
    return PortalClient(std::make_unique<InProcessTransport>(service.handler()));
  }

  net::Graph graph_;
  net::RoutingTable routing_;
  core::ITracker tracker_;
  core::PolicyRegistry policy_;
  core::CapabilityRegistry capabilities_;
  core::PidMap pid_map_;
};

TEST_F(ServiceTest, RejectsNullTracker) {
  EXPECT_THROW(ITrackerService(nullptr), std::invalid_argument);
}

TEST_F(ServiceTest, GetPDistancesMatchesTracker) {
  ITrackerService service(&tracker_);
  auto client = InProcessClient(service);
  const auto row = client.GetPDistances(net::kChicago);
  const auto expected = tracker_.GetPDistances(net::kChicago);
  ASSERT_EQ(row.size(), expected.size());
  for (std::size_t j = 0; j < row.size(); ++j) {
    EXPECT_DOUBLE_EQ(row[j], expected[j]);
  }
}

TEST_F(ServiceTest, GetPDistancesUnknownPidIsError) {
  ITrackerService service(&tracker_);
  auto client = InProcessClient(service);
  EXPECT_THROW(client.GetPDistances(-1), std::runtime_error);
  EXPECT_THROW(client.GetPDistances(999), std::runtime_error);
}

TEST_F(ServiceTest, ExternalViewMatchesTracker) {
  ITrackerService service(&tracker_);
  auto client = InProcessClient(service);
  const auto view = client.GetExternalView();
  ASSERT_EQ(view.size(), tracker_.num_pids());
  for (core::Pid i = 0; i < view.size(); ++i) {
    for (core::Pid j = 0; j < view.size(); ++j) {
      EXPECT_DOUBLE_EQ(view.at(i, j), tracker_.pdistance(i, j));
    }
  }
}

TEST_F(ServiceTest, UnofferedInterfacesReturnErrors) {
  ITrackerService service(&tracker_);  // only p4p-distance offered
  auto client = InProcessClient(service);
  EXPECT_THROW(client.GetPolicy(), std::runtime_error);
  EXPECT_THROW(client.GetCapabilities(core::CapabilityType::kCache),
               std::runtime_error);
  EXPECT_THROW(client.GetPidMapping("10.1.1.1"), std::runtime_error);
}

TEST_F(ServiceTest, PolicyInterface) {
  ITrackerService service(&tracker_, &policy_);
  auto client = InProcessClient(service);
  const auto policy = client.GetPolicy();
  EXPECT_DOUBLE_EQ(policy.thresholds.near_congestion_utilization, 0.7);
  ASSERT_EQ(policy.time_of_day.size(), 1u);
  EXPECT_EQ(policy.time_of_day[0].link, 2);
}

TEST_F(ServiceTest, CapabilityInterface) {
  ITrackerService service(&tracker_, nullptr, &capabilities_);
  auto client = InProcessClient(service);
  const auto caps = client.GetCapabilities(core::CapabilityType::kCache);
  ASSERT_EQ(caps.size(), 1u);
  EXPECT_EQ(caps[0].pid, 3);
  EXPECT_TRUE(client.GetCapabilities(core::CapabilityType::kOnDemandServer).empty());
}

TEST_F(ServiceTest, PidMapInterface) {
  ITrackerService service(&tracker_, nullptr, nullptr, &pid_map_);
  auto client = InProcessClient(service);
  const auto mapping = client.GetPidMapping("10.5.5.5");
  ASSERT_TRUE(mapping.has_value());
  EXPECT_EQ(mapping->pid, 4);
  EXPECT_EQ(mapping->as_number, 100);
  EXPECT_FALSE(client.GetPidMapping("11.1.1.1").has_value());
}

TEST_F(ServiceTest, MalformedRequestGetsError) {
  ITrackerService service(&tracker_);
  const std::vector<std::uint8_t> garbage = {0xFF, 0xFF, 0xFF};
  const auto resp = service.Handle(garbage);
  const auto decoded = Decode(resp);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_NE(std::get_if<ErrorMsg>(&*decoded), nullptr);
}

TEST_F(ServiceTest, RequestWithResponseTypeIsRejected) {
  ITrackerService service(&tracker_);
  const auto resp = service.Handle(Encode(GetPDistancesResp{}));
  const auto decoded = Decode(resp);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_NE(std::get_if<ErrorMsg>(&*decoded), nullptr);
}

TEST_F(ServiceTest, FullStackOverTcp) {
  ITrackerService service(&tracker_, &policy_, &capabilities_, &pid_map_);
  TcpServer server(0, service.handler());
  PortalClient client(std::make_unique<TcpClient>(server.port()));

  const auto row = client.GetPDistances(net::kNewYork);
  EXPECT_EQ(row.size(), graph_.node_count());
  EXPECT_DOUBLE_EQ(client.GetPolicy().thresholds.heavy_usage_utilization, 0.9);
  EXPECT_EQ(client.GetCapabilities(core::CapabilityType::kCache).size(), 1u);
  EXPECT_TRUE(client.GetPidMapping("10.0.0.1").has_value());
}

TEST_F(ServiceTest, VersionReflectsTrackerUpdates) {
  ITrackerService service(&tracker_);
  const auto before = service.Handle(Encode(GetPDistancesReq{0}));
  std::vector<double> traffic(graph_.link_count(), 1e9);
  tracker_.Update(traffic);
  const auto after = service.Handle(Encode(GetPDistancesReq{0}));
  const auto v1 = std::get<GetPDistancesResp>(*Decode(before)).version;
  const auto v2 = std::get<GetPDistancesResp>(*Decode(after)).version;
  EXPECT_GT(v2, v1);
}

TEST(PortalClient, RejectsNullTransport) {
  EXPECT_THROW(PortalClient(nullptr), std::invalid_argument);
}

TEST_F(ServiceTest, ConditionalViewAnsweredNotModified) {
  ITrackerService service(&tracker_);
  const auto version = tracker_.version();
  const auto resp = service.Handle(Encode(GetExternalViewReq{version}));
  const auto decoded = Decode(resp);
  ASSERT_TRUE(decoded.has_value());
  const auto* nm = std::get_if<NotModifiedResp>(&*decoded);
  ASSERT_NE(nm, nullptr);
  EXPECT_EQ(nm->version, version);
}

TEST_F(ServiceTest, ConditionalRowAnsweredNotModified) {
  ITrackerService service(&tracker_);
  const auto version = tracker_.version();
  const auto resp = service.Handle(Encode(GetPDistancesReq{2, version}));
  const auto decoded = Decode(resp);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_NE(std::get_if<NotModifiedResp>(&*decoded), nullptr);
}

TEST_F(ServiceTest, StaleTokenGetsFullView) {
  ITrackerService service(&tracker_);
  const auto stale = tracker_.version();
  std::vector<double> traffic(graph_.link_count(), 1e9);
  tracker_.Update(traffic);
  const auto decoded = Decode(service.Handle(Encode(GetExternalViewReq{stale})));
  ASSERT_TRUE(decoded.has_value());
  const auto* view = std::get_if<GetExternalViewResp>(&*decoded);
  ASSERT_NE(view, nullptr);
  EXPECT_EQ(view->version, tracker_.version());
  EXPECT_EQ(view->distances.size(),
            static_cast<std::size_t>(tracker_.num_pids()) * tracker_.num_pids());
}

TEST_F(ServiceTest, CacheDisabledMatchesCachedBytes) {
  // The pre-encoded fast path must be byte-identical to the slow path for
  // every cacheable request, including conditional ones.
  ITrackerService cached(&tracker_, &policy_);
  ITrackerService plain(&tracker_, &policy_, nullptr, nullptr,
                        ServiceOptions{.enable_response_cache = false});
  std::vector<double> traffic(graph_.link_count(), 5e8);
  tracker_.Update(traffic);
  const auto version = tracker_.version();

  std::vector<std::vector<std::uint8_t>> requests;
  requests.push_back(Encode(GetExternalViewReq{}));
  requests.push_back(Encode(GetExternalViewReq{version}));
  requests.push_back(Encode(GetPolicyReq{}));
  for (core::Pid i = 0; i < tracker_.num_pids(); ++i) {
    requests.push_back(Encode(GetPDistancesReq{i}));
    requests.push_back(Encode(GetPDistancesReq{i, version}));
  }
  for (const auto& req : requests) {
    EXPECT_EQ(cached.Handle(req), plain.Handle(req));
  }
}

TEST_F(ServiceTest, ExportedFramesMatchReferenceEncoderAcrossPartialReprice) {
  // Static prices; the second reprice moves one link's price, so only the
  // rows whose routes cross it are re-spliced out of the new view frame.
  // Every frame must equal an independent per-element encode of the
  // tracker's values at the frame's content version.
  core::ITrackerConfig cfg;
  cfg.mode = core::PriceMode::kStatic;
  core::ITracker tracker(graph_, routing_, cfg);
  std::vector<double> prices(graph_.link_count(), 0.25);
  tracker.SetStaticPrices(prices);
  ITrackerService service(&tracker);
  const auto before = service.ExportFrames();
  const auto view_before = tracker.external_view();
  prices[0] = 4.0;
  tracker.SetStaticPrices(prices);
  const auto after = service.ExportFrames();
  const auto view_after = tracker.external_view();

  const int n = tracker.num_pids();
  EXPECT_EQ(after.external_view,
            testsupport::ReferenceDistanceFrame(MsgType::kGetExternalViewResp, n,
                                                after.version, view_after.values()));
  int changed = 0;
  for (core::Pid i = 0; i < n; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    const bool moved = !std::equal(view_before.row(i).begin(), view_before.row(i).end(),
                                   view_after.row(i).begin());
    changed += moved ? 1 : 0;
    EXPECT_EQ(after.row_versions[idx], moved ? after.version : before.row_versions[idx]);
    EXPECT_EQ(after.rows[idx],
              testsupport::ReferenceDistanceFrame(MsgType::kGetPDistancesResp, i,
                                                  after.row_versions[idx],
                                                  view_after.row(i)))
        << "row " << i;
  }
  EXPECT_GT(changed, 0);
  EXPECT_LT(changed, n);
}

TEST_F(ServiceTest, SharedHandlerReturnsSameBufferForRepeatRequests) {
  ITrackerService service(&tracker_);
  const auto handler = service.shared_handler();
  const auto req = Encode(GetExternalViewReq{});
  const auto a = handler(req);
  const auto b = handler(req);
  ASSERT_NE(a, nullptr);
  // Same snapshot version -> the very same pre-encoded buffer, no re-encode.
  EXPECT_EQ(a->data(), b->data());
  std::vector<double> traffic(graph_.link_count(), 1e9);
  tracker_.Update(traffic);
  const auto c = handler(req);
  ASSERT_NE(c, nullptr);
  EXPECT_NE(a->data(), c->data());
}

TEST_F(ServiceTest, ClientConditionalFetchHelper) {
  ITrackerService service(&tracker_);
  auto client = InProcessClient(service);
  const auto first = client.GetExternalViewIfModified(0);
  ASSERT_TRUE(first.has_value());
  const auto version = first->second;
  EXPECT_FALSE(client.GetExternalViewIfModified(version).has_value());
  std::vector<double> traffic(graph_.link_count(), 1e9);
  tracker_.Update(traffic);
  const auto refreshed = client.GetExternalViewIfModified(version);
  ASSERT_TRUE(refreshed.has_value());
  EXPECT_GT(refreshed->second, version);
}

TEST_F(ServiceTest, PolicyCacheTracksRegistryVersion) {
  ITrackerService service(&tracker_, &policy_);
  auto client = InProcessClient(service);
  EXPECT_DOUBLE_EQ(client.GetPolicy().thresholds.near_congestion_utilization,
                   0.7);
  policy_.SetThresholds({0.5, 0.8});
  EXPECT_DOUBLE_EQ(client.GetPolicy().thresholds.near_congestion_utilization,
                   0.5);
}

}  // namespace
}  // namespace p4p::proto
