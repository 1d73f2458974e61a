// perfbench: one workload per invocation.
//
//   perfbench --workload <batch_abrr|serve_churn|frontend_lookup>
//             --seed N --seconds S --trace 0|1
//             [--source-id ID] [--trace-out PATH]
//
// Prints two JSON lines on stdout: a detail line (provenance, config,
// sample counts, correctness failures) and a result line {"correct",
// "attempted", "failed", "metrics"} carrying every metric the run
// measured (with --trace 1, also the per-layer self times). Exits 1 when any correctness check
// failed and 2 on a usage or runtime error.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>
#include <utility>

#include "common.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using perfbench::json_number;
using perfbench::json_string;

/// Every per-layer metric a traced run reports, with its unit. A layer
/// that does no work in a workload (or that the workload cannot reach
/// through the public API) reports 0.
constexpr std::pair<const char*, const char*> kPerLayer[] = {
    {"topo.make_tier1_ms", "ms"},
    {"trace.workload_generate_ms", "ms"},
    {"harness.testbed_build_ms", "ms"},
    {"trace.load_snapshot_ms", "ms"},
    {"sim.events_converge", "count"},
    {"sim.events_churn", "count"},
    {"sim.ns_per_event", "ns"},
    {"sim.pool_capacity", "count"},
    {"net.messages_converge", "count"},
    {"net.messages_churn", "count"},
    {"net.wire_bytes_converge", "B"},
    {"net.wire_bytes_churn", "B"},
    {"ibgp.updates_received", "count"},
    {"ibgp.routes_received", "count"},
    {"ibgp.ns_per_route", "ns"},
    {"bgp.attr_hit_ratio", "ratio"},
    {"bgp.attr_arena_mb", "MB"},
    {"bgp.rib_in_routes_avg", "count"},
    {"bgp.bytes_per_router_prefix", "B"},
    {"serve.replay_s", "s"},
    {"serve.publishes", "count"},
    {"serve.publishes_deferred", "count"},
    {"serve.publish_ms_mean", "ms"},
    {"serve.publish_ms_max", "ms"},
    {"serve.writer_step_ms_mean", "ms"},
    {"serve.reclaimed", "count"},
    {"serve.retired_peak", "count"},
    {"serve.lookup_ns_per_lookup", "ns"},
    {"serve.hit_ratio", "ratio"},
    {"serve.versions_seen", "count"},
    {"frontend.encode_request_ns", "ns"},
    {"frontend.decode_reply_ns", "ns"},
    {"frontend.decode_request_ns", "ns"},
    {"frontend.encode_reply_ns", "ns"},
    {"frontend.handle_us_mean", "us"},
    {"frontend.transport_us_p50", "us"},
    {"frontend.bytes_per_lookup", "B"},
    {"frontend.frames", "count"},
    {"frontend.gen_lag_us_p99", "us"},
    {"frontend.inflight_max", "count"},
    {"step_visible_ms_p90", "ms"},
    {"lookup_us_p99", "us"},
    {"rtt_us_p99", "us"},
    {"trace_overhead_pct", "%"},
    {"self_ms.bench", "ms"},
    {"self_ms.topo", "ms"},
    {"self_ms.trace", "ms"},
    {"self_ms.harness", "ms"},
    {"self_ms.sim", "ms"},
    {"self_ms.bgp", "ms"},
    {"self_ms.serve", "ms"},
    {"self_ms.frontend", "ms"},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<batch_abrr|serve_churn|frontend_lookup> --seed N "
               "--seconds S --trace 0|1 [--source-id ID] [--trace-out PATH]\n",
               why);
  std::exit(2);
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string source_id = "unknown";
  std::string trace_out;
  perfbench::RunOptions opt;
  bool have_seed = false;
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') usage("--seed takes an unsigned integer");
      have_seed = true;
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(opt.seconds > 0)) usage("--seconds must be > 0");
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      opt.trace = value == "1";
    } else if (flag == "--source-id") {
      source_id = value;
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (workload.empty() || !have_seed || !have_seconds) {
    usage("--workload, --seed and --seconds are required");
  }

  perfbench::Report report;
  try {
    if (workload == "batch_abrr") {
      report = perfbench::run_batch_abrr(opt);
    } else if (workload == "serve_churn") {
      report = perfbench::run_serve_churn(opt);
    } else if (workload == "frontend_lookup") {
      report = perfbench::run_frontend_lookup(opt);
    } else {
      usage(("unknown workload " + workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", workload.c_str(),
                 e.what());
    return 2;
  }

  if (opt.trace) {
    for (const auto& [layer, ms] : perfbench::Tracer::layer_self_ms()) {
      report.set("self_ms." + layer, ms, "ms");
    }
    for (const auto& [name, unit] : kPerLayer) {
      if (report.metrics.count(name) == 0) report.set(name, 0, unit);
    }
    if (!trace_out.empty() &&
        !perfbench::Tracer::write_chrome_trace(trace_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", trace_out.c_str());
      return 2;
    }
  }

  // Detail line: provenance, config and sample counts.
  std::string detail = "{\"provenance\":{";
  detail += "\"source_id\":" + json_string(source_id);
  detail += ",\"compiler\":" + json_string(compiler());
  detail += ",\"build_type\":" + json_string(PERFBENCH_BUILD_TYPE);
  detail += ",\"host_cpus\":" +
            std::to_string(std::thread::hardware_concurrency()) + "}";
  detail += ",\"workload\":" + json_string(workload);
  detail += ",\"seed\":" + std::to_string(opt.seed);
  detail += ",\"seconds\":" + json_number(opt.seconds);
  detail += ",\"trace\":" + std::string(opt.trace ? "1" : "0");
  if (opt.trace) {
    detail += ",\"spans_kept\":" + std::to_string(perfbench::Tracer::kept());
    detail += ",\"spans_dropped\":" +
              std::to_string(perfbench::Tracer::dropped());
  }
  for (const auto& [key, value] : report.detail) {
    detail += "," + json_string(key) + ":" + value;
  }
  detail += ",\"failures\":[";
  for (std::size_t i = 0; i < report.failures.size(); ++i) {
    detail += (i ? "," : "") + json_string(report.failures[i]);
  }
  detail += "]}";
  std::printf("%s\n", detail.c_str());

  std::string result = "{\"correct\":";
  result += report.failed == 0 ? "true" : "false";
  result += ",\"attempted\":" + std::to_string(report.attempted);
  result += ",\"failed\":" + std::to_string(report.failed);
  result += ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, m] : report.metrics) {
    result += (first ? "" : ",") + json_string(name) + ":{\"value\":" +
              json_number(m.value) + ",\"unit\":" + json_string(m.unit) + "}";
    first = false;
  }
  result += "}}";
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return report.failed == 0 ? 0 : 1;
}
