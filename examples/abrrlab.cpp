// abrrlab — command-line laboratory around the library.
//
//   abrrlab gen   --out=FILE [--prefixes=N] [--seed=N] [--pops=N]
//                 [--trace-seconds=S] [--rate=EPS]
//       Synthesize a Tier-1 workload + update trace, write an MRT file.
//
//   abrrlab info  --in=FILE
//       Summarize an MRT file (prefixes, announcements, events).
//
//   abrrlab run   --in=FILE --mode=abrr|tbrr|mesh [--aps=N] [--seed=N]
//                 [--pops=N] [--balanced]
//       Load the snapshot, replay the trace, print RIB sizes, update
//       counters, forwarding/efficiency audits.
//
//   abrrlab compare --in=FILE [--aps=N] [--seed=N] [--pops=N] [--balanced]
//       Run ABRR and full-mesh side by side and report equivalence.
//
// Every subcommand takes --help; unknown flags are rejected.
//
// The topology is re-synthesized from the same seed (the MRT file
// stores the edge view; router placement is deterministic per seed).
#include <cstdio>
#include <map>
#include <memory>
#include <string>

#include "harness/testbed.h"
#include "runner/arg_parser.h"
#include "runner/trial.h"
#include "trace/mrt.h"
#include "trace/regenerator.h"
#include "verify/efficiency.h"
#include "verify/equivalence.h"
#include "verify/forwarding.h"

using namespace abrr;

namespace {

/// Every subcommand's flags. Each subcommand declares the ones it reads
/// on its own runner::ArgParser, so a flag it does not know (or a value
/// that does not parse) is an error, not a silent default.
struct Args {
  std::string out;
  std::string in;
  unsigned long prefixes = 4000;
  unsigned long seed = 42;
  std::uint32_t pops = 13;
  unsigned long trace_seconds = 120;
  double rate = 8;
  std::string mode = "abrr";
  unsigned long aps = 8;
  bool balanced = false;

  static Args parse(const std::string& command, int argc, char** argv) {
    Args a;
    runner::ArgParser p{"abrrlab " + command};
    if (command == "gen") {
      p.add("out", "MRT file to write", &a.out);
      p.add("prefixes", "peer prefixes in the synthetic RIB", &a.prefixes);
      p.add("trace-seconds", "update-trace length (seconds)",
            &a.trace_seconds);
      p.add("rate", "update-trace events per second", &a.rate);
    } else {
      p.add("in", "MRT file to read", &a.in);
    }
    if (command == "run") {
      p.add("mode", "iBGP mode: abrr|tbrr|mesh", &a.mode);
    }
    if (command == "run" || command == "compare") {
      p.add("aps", "ABRR address partitions", &a.aps);
      p.add("balanced", "balance APs on the file's prefixes", &a.balanced);
    }
    if (command != "info") {
      p.add("seed", "topology seed", &a.seed);
      p.add("pops", "PoPs in the Tier-1 topology", &a.pops);
    }
    // argv[0] is the subcommand, which parse() skips like a program name.
    p.parse(argc, argv);
    return a;
  }
};

topo::Topology make_topology(const Args& args) {
  sim::Rng rng{args.seed};
  return runner::make_trial_topology({.pops = args.pops}, rng);
}

int cmd_gen(const Args& args) {
  if (args.out.empty()) {
    std::fprintf(stderr, "gen: --out=FILE required\n");
    return 2;
  }
  const auto topology = make_topology(args);
  // The workload stream restarts at the seed rather than continuing the
  // topology's, so files written with a given seed stay reproducible.
  sim::Rng rng{args.seed};
  const auto workload =
      runner::make_trial_workload({.prefixes = args.prefixes}, topology, rng);
  trace::TraceParams tp;
  tp.duration = sim::sec(static_cast<std::int64_t>(args.trace_seconds));
  tp.events_per_second = args.rate;
  const auto trace = trace::UpdateTrace::generate(tp, workload, rng);
  trace::write_mrt(args.out, workload, trace);
  std::printf("wrote %s (%zu prefixes, %zu events, seed %llu)\n",
              args.out.c_str(), workload.prefix_count(),
              trace.events().size(),
              static_cast<unsigned long long>(args.seed));
  return 0;
}

int cmd_info(const Args& args) {
  const auto file = trace::read_mrt(args.in);
  std::size_t anns = 0, peers = 0;
  for (const auto& e : file.workload.table()) {
    anns += e.anns.size();
    peers += e.from_peers ? 1 : 0;
  }
  std::printf("prefixes:        %zu (%.0f%% peer-learned)\n",
              file.workload.prefix_count(),
              100.0 * static_cast<double>(peers) /
                  static_cast<double>(file.workload.prefix_count()));
  std::printf("announcements:   %zu (%.1f per prefix)\n", anns,
              static_cast<double>(anns) /
                  static_cast<double>(file.workload.prefix_count()));
  std::printf("trace events:    %zu over %.0fs\n",
              file.trace.events().size(),
              sim::to_seconds(file.trace.duration()));
  std::map<trace::EventKind, std::size_t> kinds;
  for (const auto& e : file.trace.events()) ++kinds[e.kind];
  std::printf("  withdraw %zu / reannounce %zu / med %zu / path %zu\n",
              kinds[trace::EventKind::kWithdraw],
              kinds[trace::EventKind::kReannounce],
              kinds[trace::EventKind::kMedChange],
              kinds[trace::EventKind::kPathChange]);
  return 0;
}

struct RunResult {
  std::unique_ptr<harness::Testbed> bed;
  trace::Workload final_edge;  // the regenerator's view after the replay
};

RunResult run_file(const trace::MrtFile& file, const Args& args,
                   ibgp::IbgpMode mode) {
  // The workload comes from the file, so the bed is built here rather
  // than through runner::build_world.
  harness::TestbedConfig config;
  config.mode = mode;
  config.abrr.num_aps = args.aps;
  config.abrr.balanced_aps = args.balanced;
  config.seed = args.seed;
  auto bed = std::make_unique<harness::Testbed>(make_topology(args), config,
                                                file.workload.prefixes());
  trace::RouteRegenerator regen{bed->scheduler(), file.workload,
                                bed->inject_fn()};
  regen.load_snapshot(0, sim::sec(30));
  if (!bed->run_to_quiescence()) {
    std::fprintf(stderr, "snapshot did not converge\n");
    return {};
  }
  bed->reset_counters();
  regen.play(file.trace, bed->scheduler().now());
  bed->run_to_quiescence();
  return RunResult{std::move(bed), regen.current()};
}

int cmd_run(const Args& args) {
  const auto file = trace::read_mrt(args.in);
  const std::string& mode_str = args.mode;
  ibgp::IbgpMode mode = ibgp::IbgpMode::kAbrr;
  if (mode_str == "tbrr") {
    mode = ibgp::IbgpMode::kTbrr;
  } else if (mode_str == "mesh") {
    mode = ibgp::IbgpMode::kFullMesh;
  } else if (mode_str != "abrr") {
    std::fprintf(stderr, "run: unknown --mode '%s' (expected "
                 "abrr|tbrr|mesh)\n", mode_str.c_str());
    return 2;
  }

  auto result = run_file(file, args, mode);
  if (!result.bed) return 1;
  auto& bed = result.bed;

  const auto in = bed->rr_rib_in();
  const auto out = bed->rr_rib_out();
  const auto rr = bed->rr_counters();
  const auto clients = bed->client_counters();
  std::printf("mode %s: %zu speakers, %zu sessions\n", mode_str.c_str(),
              bed->all_ids().size(), bed->session_count());
  if (!bed->rr_ids().empty()) {
    std::printf("RR RIB-In  min/avg/max: %.0f / %.0f / %.0f\n", in.min,
                in.avg, in.max);
    std::printf("RR RIB-Out min/avg/max: %.0f / %.0f / %.0f\n", out.min,
                out.avg, out.max);
    std::printf("RR updates: %.0f received, %.0f generated, %.0f "
                "transmitted (per RR, replay phase)\n",
                rr.avg_received(), rr.avg_generated(),
                rr.avg_transmitted());
  }
  std::printf("client updates received: %.0f per client\n",
              clients.avg_received());

  // Audit against the post-replay edge state (flapped-down prefixes
  // legitimately have no route).
  verify::ForwardingChecker checker{*bed};
  const auto prefixes = file.workload.prefixes();
  const auto audit = checker.audit(prefixes);
  const auto eff = verify::audit_efficiency(*bed, result.final_edge);
  std::printf("forwarding: %zu/%zu delivered (%zu without a route at "
              "trace end), %zu loops; %zu hot-potato violations\n",
              audit.delivered, audit.checked, audit.no_route, audit.loops,
              eff.inefficient);
  return 0;
}

int cmd_compare(const Args& args) {
  const auto file = trace::read_mrt(args.in);
  auto abrr = run_file(file, args, ibgp::IbgpMode::kAbrr);
  auto mesh = run_file(file, args, ibgp::IbgpMode::kFullMesh);
  if (!abrr.bed || !mesh.bed) return 1;
  const auto prefixes = file.workload.prefixes();
  const auto eq = verify::compare_loc_ribs(*abrr.bed, *mesh.bed, prefixes);
  std::printf("ABRR vs full-mesh: %zu pairs compared, %zu diverged%s\n",
              eq.compared, eq.divergence_count,
              eq.equivalent() ? " - exact emulation" : "");
  for (const auto& d : eq.divergences) {
    std::printf("  router %u %s: abrr->%u mesh->%u\n", d.router,
                d.prefix.to_string().c_str(), d.egress_a, d.egress_b);
  }
  return eq.equivalent() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string command = argc > 1 ? argv[1] : "";
  const std::map<std::string, int (*)(const Args&)> commands{
      {"gen", cmd_gen},
      {"info", cmd_info},
      {"run", cmd_run},
      {"compare", cmd_compare}};
  if (const auto it = commands.find(command); it != commands.end()) {
    const Args args = Args::parse(command, argc - 1, argv + 1);
    try {
      return it->second(args);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
  }
  std::fprintf(stderr,
               "usage: abrrlab gen|info|run|compare [--flags]\n"
               "  gen     --out=F [--prefixes=N --seed=N --pops=N "
               "--trace-seconds=S --rate=EPS]\n"
               "  info    --in=F\n"
               "  run     --in=F --mode=abrr|tbrr|mesh [--aps=N "
               "--balanced --seed=N --pops=N]\n"
               "  compare --in=F [--aps=N --balanced --seed=N --pops=N]\n");
  return 2;
}
