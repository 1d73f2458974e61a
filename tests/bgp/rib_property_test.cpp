// Randomized-operation properties of the RIB structures: size counters
// and contents never drift from a std::map reference model under
// arbitrary announce/withdraw interleavings, whatever order the
// PrefixIndex hands out ids in.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "bgp/rib.h"
#include "sim/random.h"

namespace abrr::bgp {
namespace {

Ipv4Prefix prefix_at(std::uint32_t idx) {
  return Ipv4Prefix{0x0A000000 + (idx << 16), 16};
}

/// The two index setups every property runs under: a private index the
/// RIB grows on its own, and a shared one pre-seeded in reverse order.
std::vector<std::pair<const char*, std::shared_ptr<PrefixIndex>>> indexes(
    std::uint32_t universe) {
  auto shared = std::make_shared<PrefixIndex>();
  for (std::uint32_t i = universe; i-- > 0;) shared->add(prefix_at(i));
  return {{"private index", std::make_shared<PrefixIndex>()},
          {"shared reversed index", shared}};
}

class RibProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RibProperty, AdjRibInSizeNeverDrifts) {
  constexpr std::uint32_t kPrefixes = 8;
  for (auto& [label, index] : indexes(kPrefixes)) {
    SCOPED_TRACE(label);
    sim::Rng rng{GetParam()};
    AdjRibIn rib{index};
    // Reference model: (prefix, peer, path) -> attrs generation.
    std::map<std::tuple<std::uint32_t, RouterId, PathId>, std::uint32_t>
        truth;

    for (int op = 0; op < 2000; ++op) {
      const auto pfx_idx = static_cast<std::uint32_t>(rng.index(kPrefixes));
      const Ipv4Prefix prefix = prefix_at(pfx_idx);
      const auto peer = static_cast<RouterId>(1 + rng.index(5));
      const auto path = static_cast<PathId>(rng.index(3));

      const int action = static_cast<int>(rng.index(4));
      if (action <= 1) {  // announce (50%)
        const auto gen = static_cast<std::uint32_t>(rng.index(4));
        rib.announce(RouteBuilder{prefix}
                         .path_id(path)
                         .as_path({65000 + gen})
                         .learned_from(peer, LearnedVia::kIbgp)
                         .build());
        truth[{pfx_idx, peer, path}] = gen;
      } else if (action == 2) {  // withdraw one path
        rib.withdraw(peer, prefix, path);
        truth.erase({pfx_idx, peer, path});
      } else {  // withdraw the peer's whole prefix
        rib.withdraw_prefix(peer, prefix);
        for (auto it = truth.begin(); it != truth.end();) {
          const auto& [p, pr, pa] = it->first;
          it = (p == pfx_idx && pr == peer) ? truth.erase(it) : std::next(it);
        }
      }
      ASSERT_EQ(rib.size(), truth.size()) << "op " << op;

      // Contents: every prefix's routes in (peer, path id) order, which
      // is the model's key order within one prefix.
      for (std::uint32_t p = 0; p < kPrefixes; ++p) {
        const std::vector<Route> got = rib.routes_for(prefix_at(p));
        std::vector<std::tuple<RouterId, PathId, Asn>> want;
        for (auto it = truth.lower_bound({p, 0, 0});
             it != truth.end() && std::get<0>(it->first) == p; ++it) {
          want.emplace_back(std::get<1>(it->first), std::get<2>(it->first),
                            65000 + it->second);
        }
        ASSERT_EQ(got.size(), want.size()) << "op " << op << " prefix " << p;
        for (std::size_t i = 0; i < got.size(); ++i) {
          EXPECT_EQ(std::make_tuple(got[i].learned_from, got[i].path_id,
                                    got[i].attrs->as_path.asns().front()),
                    want[i])
              << "op " << op << " prefix " << p << " entry " << i;
        }
      }
    }
    EXPECT_LE(index->size(), kPrefixes);

    // Per-peer counts agree too.
    std::map<RouterId, std::size_t> per_peer;
    for (const auto& [key, gen] : truth) ++per_peer[std::get<1>(key)];
    for (RouterId peer = 1; peer <= 5; ++peer) {
      EXPECT_EQ(rib.peer_size(peer), per_peer[peer]) << peer;
    }

    // Tearing everything down reaches exactly zero.
    for (RouterId peer = 1; peer <= 5; ++peer) rib.withdraw_peer(peer);
    EXPECT_EQ(rib.size(), 0u);
  }
}

TEST_P(RibProperty, AdjRibOutSizeMatchesContents) {
  constexpr std::uint32_t kPrefixes = 6;
  for (auto& [label, index] : indexes(kPrefixes)) {
    SCOPED_TRACE(label);
    sim::Rng rng{GetParam()};
    AdjRibOut rib{index};
    // Reference model: prefix idx -> advertised (path id, first AS).
    std::map<std::uint32_t, std::vector<std::pair<PathId, Asn>>> truth;

    for (int op = 0; op < 1000; ++op) {
      const auto pfx_idx = static_cast<std::uint32_t>(rng.index(kPrefixes));
      const Ipv4Prefix prefix = prefix_at(pfx_idx);
      const auto n = rng.index(4);  // 0..3 routes (0 = withdraw-all)
      std::vector<Route> routes;
      std::vector<std::pair<PathId, Asn>> model;
      for (std::size_t i = 0; i < n; ++i) {
        const auto asn = static_cast<Asn>(65000 + rng.index(3));
        routes.push_back(RouteBuilder{prefix}
                             .path_id(static_cast<PathId>(i + 1))
                             .as_path({asn})
                             .build());
        model.emplace_back(static_cast<PathId>(i + 1), asn);
      }
      rib.set(prefix, routes, rng.chance(0.5));
      truth[pfx_idx] = std::move(model);

      std::size_t expected = 0;
      for (const auto& [idx, set] : truth) expected += set.size();
      ASSERT_EQ(rib.size(), expected) << "op " << op;

      for (std::uint32_t p = 0; p < kPrefixes; ++p) {
        const std::vector<Route>* got = rib.get(prefix_at(p));
        const auto it = truth.find(p);
        if (it == truth.end() || it->second.empty()) {
          EXPECT_EQ(got, nullptr) << "op " << op << " prefix " << p;
          continue;
        }
        ASSERT_NE(got, nullptr) << "op " << op << " prefix " << p;
        ASSERT_EQ(got->size(), it->second.size()) << "op " << op;
        for (std::size_t i = 0; i < got->size(); ++i) {
          EXPECT_EQ(std::make_pair((*got)[i].path_id,
                                   (*got)[i].attrs->as_path.asns().front()),
                    it->second[i])
              << "op " << op << " prefix " << p << " entry " << i;
        }
      }
    }
    EXPECT_LE(index->size(), kPrefixes);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RibProperty,
                         ::testing::Values(3u, 17u, 4242u));

}  // namespace
}  // namespace abrr::bgp
