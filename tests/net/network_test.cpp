#include "net/network.h"

#include <gtest/gtest.h>

#include <vector>

#include "bgp/route.h"

namespace abrr::net {
namespace {

using bgp::Ipv4Prefix;
using bgp::RouteBuilder;
using bgp::UpdateMessage;

UpdateMessage msg(int tag) {
  UpdateMessage m;
  m.prefix = Ipv4Prefix::parse("10.0.0.0/8");
  m.announce.push_back(RouteBuilder{m.prefix}
                           .path_id(static_cast<bgp::PathId>(tag))
                           .as_path({65001})
                           .build());
  return m;
}

class NetworkTest : public ::testing::Test {
 protected:
  sim::Scheduler sched;
  sim::Rng rng{1};
  Network net{sched, rng};
};

TEST_F(NetworkTest, DeliversAfterLatency) {
  std::vector<sim::Time> arrivals;
  net.register_endpoint(2, [&](RouterId, const UpdateMessage&) {
    arrivals.push_back(sched.now());
  });
  net.register_endpoint(1, [](RouterId, const UpdateMessage&) {});
  net.connect(1, 2, sim::msec(5));
  net.send(1, 2, msg(1));
  sched.run_to_quiescence();
  ASSERT_EQ(arrivals.size(), 1u);
  EXPECT_EQ(arrivals.front(), sim::msec(5));
}

TEST_F(NetworkTest, FifoOrderSurvivesJitter) {
  std::vector<int> order;
  net.register_endpoint(2, [&](RouterId, const UpdateMessage& m) {
    order.push_back(static_cast<int>(m.announce.front().path_id));
  });
  net.register_endpoint(1, [](RouterId, const UpdateMessage&) {});
  net.connect(1, 2, sim::msec(5), /*jitter=*/sim::msec(50));
  for (int i = 0; i < 20; ++i) net.send(1, 2, msg(i));
  sched.run_to_quiescence();
  ASSERT_EQ(order.size(), 20u);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(order[i], i);
}

TEST_F(NetworkTest, DirectionsAreIndependentChannels) {
  int at1 = 0, at2 = 0;
  net.register_endpoint(1, [&](RouterId, const UpdateMessage&) { ++at1; });
  net.register_endpoint(2, [&](RouterId, const UpdateMessage&) { ++at2; });
  net.connect(1, 2, sim::msec(1));
  net.send(1, 2, msg(0));
  net.send(2, 1, msg(1));
  sched.run_to_quiescence();
  EXPECT_EQ(at1, 1);
  EXPECT_EQ(at2, 1);
  EXPECT_EQ(net.session_count(), 1u);
}

TEST_F(NetworkTest, CountsMessagesAndBytes) {
  net.register_endpoint(2, [](RouterId, const UpdateMessage&) {});
  net.register_endpoint(1, [](RouterId, const UpdateMessage&) {});
  net.connect(1, 2, sim::msec(1));
  const auto m = msg(0);
  net.send(1, 2, m);
  net.send(1, 2, m);
  sched.run_to_quiescence();
  EXPECT_EQ(net.total_messages(), 2u);
  // total_bytes() is the exact RFC 4271 encoding of every message.
  EXPECT_EQ(net.total_bytes(), 2 * net.wire_size(m));
  EXPECT_GT(net.total_bytes(), 0u);
  const ChannelState* ch = net.channel(1, 2);
  ASSERT_NE(ch, nullptr);
  EXPECT_EQ(ch->messages, 2u);
  EXPECT_EQ(ch->wire_bytes, net.total_bytes());
  EXPECT_EQ(net.channel(2, 1)->messages, 0u);
  // One interned attribute block -> one cached size.
  EXPECT_EQ(net.sizer_cached_blocks(), 1u);
}

TEST_F(NetworkTest, SenderIdentityIsDelivered) {
  RouterId from = 0;
  net.register_endpoint(2,
                        [&](RouterId f, const UpdateMessage&) { from = f; });
  net.register_endpoint(7, [](RouterId, const UpdateMessage&) {});
  net.connect(7, 2, sim::msec(1));
  net.send(7, 2, msg(0));
  sched.run_to_quiescence();
  EXPECT_EQ(from, 7u);
}

TEST_F(NetworkTest, RejectsUnconnectedAndUnregistered) {
  net.register_endpoint(1, [](RouterId, const UpdateMessage&) {});
  EXPECT_THROW(net.send(1, 2, msg(0)), std::logic_error);  // no channel
  net.connect(1, 3, sim::msec(1));
  EXPECT_THROW(net.send(1, 3, msg(0)), std::logic_error);  // no endpoint
  EXPECT_THROW(net.connect(1, 1, sim::msec(1)), std::invalid_argument);
  EXPECT_THROW(net.connect(1, 2, -1), std::invalid_argument);
}

TEST_F(NetworkTest, EndpointReplacementTakesEffectAtDelivery) {
  int via_new = 0;
  net.register_endpoint(1, [](RouterId, const UpdateMessage&) {});
  net.register_endpoint(2, [](RouterId, const UpdateMessage&) {});
  net.connect(1, 2, sim::msec(5));
  net.send(1, 2, msg(0));
  // Replace the receiver while the message is in flight.
  net.register_endpoint(2,
                        [&](RouterId, const UpdateMessage&) { ++via_new; });
  sched.run_to_quiescence();
  EXPECT_EQ(via_new, 1);
}

}  // namespace
}  // namespace abrr::net
