// §2.4: migrating a running AS from TBRR to ABRR without interrupting
// service. Routers run both planes (kDual); a TransitionController flips
// the per-AP acceptance switch one Address Partition at a time, and
// after every step we verify that no (router, prefix) pair lost its
// route. Finally the fully cut-over network is compared against a pure
// ABRR deployment.
//
//   $ ./transition_demo
#include <cstdio>
#include <optional>

#include "core/transition.h"
#include "runner/trial.h"
#include "verify/equivalence.h"

using namespace abrr;

int main() {
  constexpr std::size_t kAps = 4;
  runner::ScenarioSpec spec;
  spec.mode = ibgp::IbgpMode::kDual;  // both planes wired
  spec.topology = {.pops = 6,
                   .clients_per_pop = 5,
                   .peer_ases = 10,
                   .points_per_as = 4,
                   .peering_router_fraction = 0.5,
                   .peering_skew = 1.0};
  spec.workload.prefixes = 500;
  spec.workload.snapshot_seconds = 10;
  spec.abrr.num_aps = kAps;

  // The controller attaches before the snapshot load so every speaker
  // starts with the TBRR plane active.
  std::optional<core::TransitionController> controller;
  const runner::World dual =
      runner::build_world(spec, 11, [&](harness::Testbed& bed) {
        controller.emplace(*bed.partition());
        for (const auto id : bed.all_ids()) controller->attach(bed.speaker(id));
      });
  harness::Testbed& bed = *dual.bed;
  const auto& prefixes = dual.prefixes;

  const auto reachable_pairs = [&] {
    std::size_t n = 0;
    for (const auto id : bed.client_ids()) {
      for (const auto& p : prefixes) {
        n += bed.speaker(id).loc_rib().best(p) != nullptr ? 1 : 0;
      }
    }
    return n;
  };
  const std::size_t full = bed.client_ids().size() * prefixes.size();

  std::printf("dual-plane AS loaded: %zu clients, %zu prefixes, "
              "%zu/%zu pairs reachable (TBRR plane active)\n\n",
              bed.client_ids().size(), prefixes.size(), reachable_pairs(),
              full);

  for (ibgp::ApId ap = 0; ap < static_cast<ibgp::ApId>(kAps); ++ap) {
    std::printf("cutting over AP %d -> ABRR ... ", ap);
    controller->cutover(ap);
    bed.run_to_quiescence();
    const std::size_t ok = reachable_pairs();
    std::printf("converged, %zu/%zu pairs reachable%s\n", ok, full,
                ok == full ? "" : "  <-- SERVICE LOSS");
  }
  std::printf("\ntransition complete: %s\n",
              controller->complete() ? "all APs on ABRR" : "INCOMPLETE");

  // Cross-check against a from-scratch pure ABRR deployment.
  spec.mode = ibgp::IbgpMode::kAbrr;
  const runner::World pure = runner::build_world(spec, 11);
  const auto eq = verify::compare_loc_ribs(bed, *pure.bed, prefixes);
  std::printf("route selection vs pure ABRR: %zu/%zu pairs diverge\n",
              eq.divergence_count, eq.compared);
  std::printf("TBRR can now be deconfigured (the dual plane kept\n");
  std::printf("advertising on both throughout, so rollback stayed\n");
  std::printf("possible at every step).\n");
  return 0;
}
