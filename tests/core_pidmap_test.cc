#include "core/pidmap.h"

#include <gtest/gtest.h>

#include <random>

namespace p4p::core {
namespace {

TEST(Ipv4, ParsesValid) {
  const auto ip = Ipv4::Parse("10.1.2.3");
  ASSERT_TRUE(ip.has_value());
  EXPECT_EQ(ip->addr, 0x0A010203u);
}

TEST(Ipv4, ParsesBoundaries) {
  EXPECT_EQ(Ipv4::Parse("0.0.0.0")->addr, 0u);
  EXPECT_EQ(Ipv4::Parse("255.255.255.255")->addr, 0xFFFFFFFFu);
}

TEST(Ipv4, RejectsMalformed) {
  EXPECT_FALSE(Ipv4::Parse(""));
  EXPECT_FALSE(Ipv4::Parse("1.2.3"));
  EXPECT_FALSE(Ipv4::Parse("1.2.3.4.5"));
  EXPECT_FALSE(Ipv4::Parse("256.1.1.1"));
  EXPECT_FALSE(Ipv4::Parse("1.2.3.x"));
  EXPECT_FALSE(Ipv4::Parse("1..2.3"));
  EXPECT_FALSE(Ipv4::Parse("1.2.3.4 "));
  EXPECT_FALSE(Ipv4::Parse(" 1.2.3.4"));
  EXPECT_FALSE(Ipv4::Parse("-1.2.3.4"));
  EXPECT_FALSE(Ipv4::Parse("0001.2.3.4"));
}

TEST(Ipv4, RoundTripsToString) {
  for (const char* s : {"0.0.0.0", "10.1.2.3", "192.168.100.200", "255.255.255.255"}) {
    EXPECT_EQ(Ipv4::Parse(s)->ToString(), s);
  }
}

TEST(Prefix, ParsesAndCanonicalizes) {
  const auto p = Prefix::Parse("10.1.2.3/16");
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->addr, 0x0A010000u);  // host bits cleared
  EXPECT_EQ(p->length, 16);
  EXPECT_EQ(p->ToString(), "10.1.0.0/16");
}

TEST(Prefix, RejectsMalformed) {
  EXPECT_FALSE(Prefix::Parse("10.1.2.3"));
  EXPECT_FALSE(Prefix::Parse("10.1.2.3/33"));
  EXPECT_FALSE(Prefix::Parse("10.1.2.3/-1"));
  EXPECT_FALSE(Prefix::Parse("10.1.2/16"));
  EXPECT_FALSE(Prefix::Parse("10.1.2.3/"));
  EXPECT_FALSE(Prefix::Parse("10.1.2.3/1x"));
}

TEST(Prefix, Contains) {
  const auto p = Prefix::Parse("10.1.0.0/16");
  EXPECT_TRUE(p->contains(Ipv4::Parse("10.1.255.255")->addr));
  EXPECT_TRUE(p->contains(Ipv4::Parse("10.1.0.0")->addr));
  EXPECT_FALSE(p->contains(Ipv4::Parse("10.2.0.0")->addr));
  const auto all = Prefix::Parse("0.0.0.0/0");
  EXPECT_TRUE(all->contains(0xDEADBEEFu));
}

TEST(PidMap, EmptyLookupIsNull) {
  PidMap map;
  EXPECT_FALSE(map.lookup("1.2.3.4").has_value());
  EXPECT_EQ(map.prefix_count(), 0u);
}

TEST(PidMap, ExactPrefixMatch) {
  PidMap map;
  map.add(*Prefix::Parse("10.0.0.0/8"), {3, 100});
  const auto m = map.lookup("10.200.1.1");
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->pid, 3);
  EXPECT_EQ(m->as_number, 100);
  EXPECT_FALSE(map.lookup("11.0.0.1").has_value());
}

TEST(PidMap, LongestPrefixWins) {
  PidMap map;
  map.add(*Prefix::Parse("10.0.0.0/8"), {1, 100});
  map.add(*Prefix::Parse("10.1.0.0/16"), {2, 100});
  map.add(*Prefix::Parse("10.1.2.0/24"), {3, 100});
  EXPECT_EQ(map.lookup("10.9.9.9")->pid, 1);
  EXPECT_EQ(map.lookup("10.1.9.9")->pid, 2);
  EXPECT_EQ(map.lookup("10.1.2.9")->pid, 3);
}

TEST(PidMap, DefaultRouteCatchesAll) {
  PidMap map;
  map.add(*Prefix::Parse("0.0.0.0/0"), {99, 7});
  map.add(*Prefix::Parse("192.168.0.0/16"), {5, 7});
  EXPECT_EQ(map.lookup("8.8.8.8")->pid, 99);
  EXPECT_EQ(map.lookup("192.168.3.4")->pid, 5);
}

TEST(PidMap, HostRoute) {
  PidMap map;
  map.add(*Prefix::Parse("1.2.3.4/32"), {42, 1});
  EXPECT_EQ(map.lookup("1.2.3.4")->pid, 42);
  EXPECT_FALSE(map.lookup("1.2.3.5").has_value());
}

TEST(PidMap, OverwriteSamePrefix) {
  PidMap map;
  map.add(*Prefix::Parse("10.0.0.0/8"), {1, 1});
  map.add(*Prefix::Parse("10.0.0.0/8"), {2, 2});
  EXPECT_EQ(map.prefix_count(), 1u);
  EXPECT_EQ(map.lookup("10.1.1.1")->pid, 2);
}

TEST(PidMap, LookupRejectsMalformedIp) {
  PidMap map;
  map.add(*Prefix::Parse("0.0.0.0/0"), {1, 1});
  EXPECT_FALSE(map.lookup("not.an.ip").has_value());
}

TEST(PidMap, AdjacentSiblingPrefixes) {
  PidMap map;
  map.add(*Prefix::Parse("128.0.0.0/1"), {1, 1});
  map.add(*Prefix::Parse("0.0.0.0/1"), {0, 1});
  EXPECT_EQ(map.lookup("200.1.1.1")->pid, 1);
  EXPECT_EQ(map.lookup("100.1.1.1")->pid, 0);
}

TEST(PidMap, RandomizedAgainstLinearScan) {
  // Property test: trie lookups agree with brute-force longest-prefix scan.
  std::mt19937_64 rng(77);
  std::uniform_int_distribution<std::uint32_t> addr_dist;
  std::uniform_int_distribution<int> len_dist(4, 28);

  PidMap map;
  std::vector<std::pair<Prefix, PidMapping>> table;
  for (int i = 0; i < 200; ++i) {
    Prefix p;
    p.length = len_dist(rng);
    const std::uint32_t mask =
        p.length == 32 ? ~0U : ~((1U << (32 - p.length)) - 1U);
    p.addr = addr_dist(rng) & mask;
    const PidMapping m{i, 1};
    map.add(p, m);
    // Mirror overwrite semantics in the reference table.
    bool replaced = false;
    for (auto& [tp, tm] : table) {
      if (tp.addr == p.addr && tp.length == p.length) {
        tm = m;
        replaced = true;
        break;
      }
    }
    if (!replaced) table.emplace_back(p, m);
  }

  for (int i = 0; i < 2000; ++i) {
    const std::uint32_t ip = addr_dist(rng);
    int best_len = -1;
    std::optional<PidMapping> expected;
    for (const auto& [p, m] : table) {
      if (p.contains(ip) && p.length > best_len) {
        best_len = p.length;
        expected = m;
      }
    }
    const auto got = map.lookup(ip);
    ASSERT_EQ(got.has_value(), expected.has_value()) << ip;
    if (got) {
      EXPECT_EQ(got->pid, expected->pid) << ip;
    }
  }
}

}  // namespace
}  // namespace p4p::core
