// Index-order equivalence: PrefixIds are a storage detail. A testbed
// whose shared PrefixIndex was pre-filled in workload order, in reverse,
// or not at all (ids then follow first-seen order) must be observably
// identical — same counters, same RIB sizes, same Loc-RIB contents, same
// event count — across every iBGP architecture. This is the guard that
// keeps storage work from silently changing the paper's metrics.
//
// The scenario is fault-free on purpose: session_up's resync walks each
// Adj-RIB-Out in PrefixId order (Speaker::session_up), so a session flap
// may legitimately schedule its replay in a different order. Drains,
// refresh_all and withdraw_peer all sort by prefix first.
#include <algorithm>
#include <cstdint>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness/testbed.h"
#include "trace/regenerator.h"
#include "trace/update_trace.h"
#include "trace/workload.h"

namespace abrr::harness {
namespace {

using bgp::Ipv4Prefix;
using bgp::RouterId;

struct Scenario {
  topo::Topology topology;
  trace::Workload workload;
  trace::UpdateTrace trace;
  std::vector<Ipv4Prefix> prefixes;
};

const Scenario& scenario() {
  static const Scenario* s = [] {
    sim::Rng rng{11};
    topo::TopologyParams tp;
    tp.pops = 3;
    tp.clients_per_pop = 3;
    tp.peer_ases = 5;
    tp.peering_points_per_as = 3;
    auto topology = topo::make_tier1(tp, rng);

    trace::WorkloadParams wp;
    wp.prefixes = 120;
    auto workload = trace::Workload::generate(wp, topology, rng);

    trace::TraceParams trp;
    trp.duration = sim::sec(30);
    trp.events_per_second = 4.0;
    auto trace = trace::UpdateTrace::generate(trp, workload, rng);

    auto* out = new Scenario{std::move(topology), std::move(workload),
                             std::move(trace), {}};
    out->prefixes = out->workload.prefixes();
    return out;
  }();
  return *s;
}

/// One speaker's observable state, rendered to a comparable string.
std::string fingerprint(const Testbed& bed, const ibgp::Speaker& sp) {
  (void)bed;
  std::ostringstream os;
  const auto& c = sp.counters();
  os << "recv=" << c.updates_received << '/' << c.routes_received
     << " gen=" << c.updates_generated << '/' << c.generated_to_clients << '/'
     << c.generated_to_rrs << " tx=" << c.updates_transmitted << '/'
     << c.routes_transmitted << '/' << c.wire_bytes_transmitted
     << " loops=" << c.loops_suppressed << " misdir=" << c.misdirected
     << " ebgp=" << c.ebgp_updates_sent << " best=" << c.best_changes
     << " ribin=" << sp.rib_in_size() << " ribout=" << sp.rib_out_size()
     << " locrib=" << sp.loc_rib().size() << '\n';

  // Loc-RIB contents, order-normalized.
  std::vector<std::string> rows;
  sp.loc_rib().for_each([&](const bgp::Route& r) {
    std::ostringstream row;
    row << r.prefix.to_string() << " from=" << r.learned_from
        << " pid=" << r.path_id << " via=" << static_cast<int>(r.via)
        << " nh=" << r.attrs->next_hop << " lp=" << r.attrs->local_pref
        << " med=" << (r.attrs->med ? static_cast<std::int64_t>(*r.attrs->med)
                                    : -1)
        << " aspath=";
    for (const auto asn : r.attrs->as_path.asns()) row << asn << ',';
    row << " orig="
        << (r.attrs->originator_id
                ? static_cast<std::int64_t>(*r.attrs->originator_id)
                : -1)
        << " cl=";
    for (const auto c2 : r.attrs->cluster_list) row << c2 << ',';
    rows.push_back(row.str());
  });
  std::sort(rows.begin(), rows.end());
  for (const auto& row : rows) os << row << '\n';
  return os.str();
}

/// Runs the scenario under `mode` on a testbed whose PrefixIndex is
/// pre-filled with `index_order`; returns (per-speaker fingerprints,
/// executed event count).
std::pair<std::vector<std::string>, std::uint64_t> run_mode(
    ibgp::IbgpMode mode, std::span<const Ipv4Prefix> index_order) {
  const Scenario& s = scenario();
  TestbedConfig c;
  c.mode = mode;
  c.abrr.num_aps = 4;
  c.timing.mrai = sim::sec(2);
  c.seed = 21;

  Testbed bed{s.topology, c, index_order};
  trace::RouteRegenerator regen{bed.scheduler(), s.workload, bed.inject_fn()};
  regen.load_snapshot(0, sim::sec(10));
  EXPECT_TRUE(bed.run_to_quiescence());
  regen.play(s.trace, bed.scheduler().now() + sim::sec(1));
  EXPECT_TRUE(bed.run_to_quiescence());
  // Whatever the pre-fill, the index ends up holding exactly the
  // workload's prefixes.
  EXPECT_EQ(bed.prefix_index().size(), s.prefixes.size());

  std::vector<std::string> prints;
  std::vector<RouterId> ids = bed.all_ids();
  std::sort(ids.begin(), ids.end());
  for (const RouterId id : ids) {
    prints.push_back(fingerprint(bed, bed.speaker(id)));
  }
  return {std::move(prints), bed.scheduler().events_executed()};
}

class EquivalenceTest : public ::testing::TestWithParam<ibgp::IbgpMode> {};

TEST_P(EquivalenceTest, IndexOrderDoesNotMatter) {
  const std::vector<Ipv4Prefix>& forward = scenario().prefixes;
  const std::vector<Ipv4Prefix> reverse(forward.rbegin(), forward.rend());
  const auto [base, base_events] = run_mode(GetParam(), forward);
  for (const std::span<const Ipv4Prefix> order :
       {std::span<const Ipv4Prefix>{reverse}, std::span<const Ipv4Prefix>{}}) {
    SCOPED_TRACE(order.empty() ? "empty index" : "reversed index");
    const auto [other, other_events] = run_mode(GetParam(), order);
    ASSERT_EQ(base.size(), other.size());
    for (std::size_t i = 0; i < base.size(); ++i) {
      EXPECT_EQ(base[i], other[i]) << "speaker #" << i << " diverged";
    }
    // Bit-identity extends to the event schedule itself.
    EXPECT_EQ(base_events, other_events);
  }
}

INSTANTIATE_TEST_SUITE_P(AllModes, EquivalenceTest,
                         ::testing::Values(ibgp::IbgpMode::kFullMesh,
                                           ibgp::IbgpMode::kTbrr,
                                           ibgp::IbgpMode::kAbrr,
                                           ibgp::IbgpMode::kDual),
                         [](const auto& info) {
                           switch (info.param) {
                             case ibgp::IbgpMode::kFullMesh:
                               return "FullMesh";
                             case ibgp::IbgpMode::kTbrr:
                               return "Tbrr";
                             case ibgp::IbgpMode::kAbrr:
                               return "Abrr";
                             case ibgp::IbgpMode::kDual:
                               return "Dual";
                           }
                           return "Unknown";
                         });

}  // namespace
}  // namespace abrr::harness
