#include "bgp/rib.h"

#include <gtest/gtest.h>

#include "wire/codec.h"

namespace abrr::bgp {
namespace {

const Ipv4Prefix kP1 = Ipv4Prefix::parse("10.0.0.0/8");
const Ipv4Prefix kP2 = Ipv4Prefix::parse("20.0.0.0/8");

Route mk(const Ipv4Prefix& pfx, RouterId peer, PathId id, Asn first_as) {
  return RouteBuilder{pfx}
      .path_id(id)
      .as_path({first_as})
      .next_hop(id)
      .learned_from(peer, LearnedVia::kIbgp)
      .build();
}

TEST(AdjRibIn, AnnounceAddReplaceUnchanged) {
  AdjRibIn rib;
  EXPECT_EQ(rib.announce(mk(kP1, 5, 1, 100)), AdjRibIn::Change::kAdded);
  EXPECT_EQ(rib.announce(mk(kP1, 5, 1, 100)), AdjRibIn::Change::kUnchanged);
  EXPECT_EQ(rib.announce(mk(kP1, 5, 1, 101)), AdjRibIn::Change::kReplaced);
  EXPECT_EQ(rib.size(), 1u);
  EXPECT_EQ(rib.peer_size(5), 1u);
}

TEST(AdjRibIn, KeysByPeerAndPathId) {
  AdjRibIn rib;
  rib.announce(mk(kP1, 5, 1, 100));
  rib.announce(mk(kP1, 5, 2, 100));  // same peer, different path id
  rib.announce(mk(kP1, 6, 1, 100));  // different peer, same path id
  EXPECT_EQ(rib.size(), 3u);
  EXPECT_EQ(rib.routes_for(kP1).size(), 3u);
  EXPECT_EQ(rib.peer_size(5), 2u);
  EXPECT_EQ(rib.peer_size(6), 1u);
}

TEST(AdjRibIn, WithdrawSinglePath) {
  AdjRibIn rib;
  rib.announce(mk(kP1, 5, 1, 100));
  rib.announce(mk(kP1, 5, 2, 100));
  EXPECT_TRUE(rib.withdraw(5, kP1, 1));
  EXPECT_FALSE(rib.withdraw(5, kP1, 1));
  EXPECT_EQ(rib.size(), 1u);
}

TEST(AdjRibIn, WithdrawPrefixRemovesAllFromPeer) {
  AdjRibIn rib;
  rib.announce(mk(kP1, 5, 1, 100));
  rib.announce(mk(kP1, 5, 2, 100));
  rib.announce(mk(kP1, 6, 3, 100));
  EXPECT_EQ(rib.withdraw_prefix(5, kP1), 2u);
  EXPECT_EQ(rib.size(), 1u);
  EXPECT_EQ(rib.routes_for(kP1).front().learned_from, 6u);
}

TEST(AdjRibIn, WithdrawPeerReportsAffectedPrefixes) {
  AdjRibIn rib;
  rib.announce(mk(kP1, 5, 1, 100));
  rib.announce(mk(kP2, 5, 1, 100));
  rib.announce(mk(kP2, 6, 2, 100));
  const auto affected = rib.withdraw_peer(5);
  EXPECT_EQ(affected.size(), 2u);
  EXPECT_EQ(rib.size(), 1u);
  EXPECT_EQ(rib.peer_size(5), 0u);
}

TEST(AdjRibIn, RoutesForUnknownPrefixEmpty) {
  AdjRibIn rib;
  EXPECT_TRUE(rib.routes_for(kP1).empty());
}

TEST(AdjRibIn, WithdrawOfUnknownPrefixDoesNotGrowIndex) {
  auto index = std::make_shared<PrefixIndex>();
  AdjRibIn rib{index};
  LocRib loc{index};
  AdjRibOut out{index};
  rib.announce(mk(kP1, 5, 1, 100));
  ASSERT_EQ(index->size(), 1u);
  // Reads and withdraws of kP2, through every RIB sharing the index.
  EXPECT_FALSE(rib.withdraw(5, kP2, 1));
  EXPECT_EQ(rib.withdraw_prefix(5, kP2), 0u);
  EXPECT_TRUE(rib.routes_for(kP2).empty());
  EXPECT_FALSE(loc.remove(kP2));
  EXPECT_EQ(loc.best(kP2), nullptr);
  EXPECT_FALSE(out.set(kP2, {}, /*full_set=*/true).has_value());
  EXPECT_EQ(out.get(kP2), nullptr);
  EXPECT_EQ(index->size(), 1u);
  EXPECT_FALSE(index->id_of(kP2).has_value());
  EXPECT_EQ(rib.size(), 1u);
}

TEST(AdjRibIn, RejectsInvalidRoute) {
  AdjRibIn rib;
  EXPECT_THROW(rib.announce(Route{}), std::invalid_argument);
}

TEST(LocRib, InstallDetectsChange) {
  LocRib rib;
  EXPECT_TRUE(rib.install(mk(kP1, 5, 1, 100)));
  EXPECT_FALSE(rib.install(mk(kP1, 5, 1, 100)));
  EXPECT_TRUE(rib.install(mk(kP1, 6, 1, 100)));  // different learned_from
  EXPECT_EQ(rib.size(), 1u);
  ASSERT_NE(rib.best(kP1), nullptr);
  EXPECT_EQ(rib.best(kP1)->learned_from, 6u);
  EXPECT_EQ(rib.best(kP2), nullptr);
  EXPECT_TRUE(rib.remove(kP1));
  EXPECT_FALSE(rib.remove(kP1));
}

TEST(AdjRibOut, FirstSetAnnouncesEverything) {
  AdjRibOut rib;
  const auto msg = rib.set(kP1, {mk(kP1, 5, 1, 100), mk(kP1, 6, 2, 100)},
                           /*full_set=*/true);
  ASSERT_TRUE(msg.has_value());
  EXPECT_TRUE(msg->full_set);
  EXPECT_EQ(msg->announce.size(), 2u);
  EXPECT_EQ(rib.size(), 2u);
}

TEST(AdjRibOut, UnchangedSetYieldsNothing) {
  AdjRibOut rib;
  rib.set(kP1, {mk(kP1, 5, 1, 100)}, true);
  EXPECT_FALSE(rib.set(kP1, {mk(kP1, 5, 1, 100)}, true).has_value());
  EXPECT_EQ(rib.size(), 1u);
}

TEST(AdjRibOut, DiffModeAnnouncesChangedWithdrawsRemoved) {
  AdjRibOut rib;
  rib.set(kP1, {mk(kP1, 5, 1, 100), mk(kP1, 6, 2, 100)}, false);
  const auto msg =
      rib.set(kP1, {mk(kP1, 5, 1, 101), mk(kP1, 7, 3, 100)}, false);
  ASSERT_TRUE(msg.has_value());
  // Path 1 changed attrs, path 3 is new, path 2 disappeared.
  EXPECT_EQ(msg->announce.size(), 2u);
  ASSERT_EQ(msg->withdraw.size(), 1u);
  EXPECT_EQ(msg->withdraw.front(), 2u);
  EXPECT_EQ(rib.size(), 2u);
}

TEST(AdjRibOut, EmptySetWithdrawsAll) {
  AdjRibOut rib;
  rib.set(kP1, {mk(kP1, 5, 1, 100)}, true);
  const auto msg = rib.set(kP1, {}, true);
  ASSERT_TRUE(msg.has_value());
  EXPECT_TRUE(msg->announce.empty());
  EXPECT_TRUE(msg->is_withdraw_only());
  EXPECT_EQ(rib.size(), 0u);
  EXPECT_EQ(rib.get(kP1), nullptr);
  // Withdrawing again is a no-op.
  EXPECT_FALSE(rib.set(kP1, {}, true).has_value());
}

TEST(AdjRibOut, CanonicalOrderIngoresInputOrder) {
  AdjRibOut a, b;
  a.set(kP1, {mk(kP1, 5, 1, 100), mk(kP1, 6, 2, 100)}, true);
  b.set(kP1, {mk(kP1, 6, 2, 100), mk(kP1, 5, 1, 100)}, true);
  EXPECT_FALSE(
      a.set(kP1, {mk(kP1, 6, 2, 100), mk(kP1, 5, 1, 100)}, true).has_value());
  ASSERT_NE(a.get(kP1), nullptr);
  EXPECT_EQ(a.get(kP1)->front().path_id, b.get(kP1)->front().path_id);
}

TEST(UpdateMessage, WireSizeScalesWithRoutes) {
  UpdateMessage one;
  one.prefix = kP1;
  one.announce = {mk(kP1, 5, 1, 100)};
  UpdateMessage ten = one;
  for (PathId i = 2; i <= 10; ++i) ten.announce.push_back(mk(kP1, 5, i, 100));
  // An update carrying 10 routes is roughly 10x longer on the wire (§4.2).
  wire::WireSizer sizer;
  EXPECT_GT(sizer.message_size(ten), 5 * sizer.message_size(one));
  EXPECT_LT(sizer.message_size(ten), 15 * sizer.message_size(one));
}

}  // namespace
}  // namespace abrr::bgp
