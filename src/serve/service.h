// RouteService: the serving mode's long-lived wrapper around one
// converged trial.
//
// Threading model (the writer/reader contract, DESIGN.md §14):
//  - start() launches the WRITER thread. It builds the whole world
//    there — Testbed, regenerator, interner TrialScope are all
//    thread-confined to it — converges it, publishes snapshot v1, then
//    replays the churn plan (update trace + restricted fault chaos) in
//    publish_period steps, republishing a delta-rebuilt snapshot after
//    every step that dirtied at least one (router, prefix).
//  - Readers (any thread) claim an epoch slot via Reader, pin around
//    each query, and only ever touch the immutable RibSnapshot — never
//    the testbed, the scheduler, or the interner.
//  - Retired snapshots are reclaimed by the writer once no pinned
//    epoch can still reference them (serve/epoch.h). A stuck reader
//    therefore pins memory; the writer bounds it by DEFERRING further
//    publishes once max_resident_snapshots would be exceeded, instead
//    of growing the retire backlog.
//
// Lifetime contract: destroy (or at least stop using) all Readers
// before destroying the service. stop() only stops the writer; the
// last published snapshot stays readable until destruction.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <thread>

#include "obs/metrics.h"
#include "runner/scenario.h"
#include "serve/epoch.h"
#include "serve/snapshot.h"

namespace abrr::serve {

// --- the serving query contract (QueryApi) ------------------------------
//
// LookupRequest/LookupResponse are the transport-agnostic unit of the
// read path: in-process callers hand spans of them to
// Reader::lookup_batch, and the TCP front-end (src/frontend) carries
// the same structs as wire frames. A batch is answered under ONE epoch
// pin, so every response in it comes from the same snapshot.

/// One serving query: "what route does `router` use for `addr`?".
struct LookupRequest {
  bgp::RouterId router = bgp::kNoRouter;
  bgp::Ipv4Addr addr = 0;

  friend bool operator==(const LookupRequest&, const LookupRequest&) =
      default;
};

/// One flattened answer. Value semantics on purpose: unlike
/// RibSnapshot::Hit there is no pointer into the snapshot, so a
/// response stays valid after the pin is released (and can be put on a
/// wire verbatim). snapshot_version/fingerprint identify the snapshot
/// that answered — equal versions mean bit-identical RIB state, which
/// is what the socket-vs-in-process equivalence tests compare.
struct LookupResponse {
  std::uint64_t attrs_hash = 0;
  std::uint64_t snapshot_version = 0;
  std::uint64_t fingerprint = 0;
  bgp::Ipv4Addr prefix = 0;  // matched prefix (valid when hit == 1)
  bgp::Ipv4Addr next_hop = 0;
  bgp::RouterId learned_from = bgp::kNoRouter;
  bgp::PathId path_id = 0;
  std::uint8_t prefix_len = 0;
  std::uint8_t hit = 0;

  friend bool operator==(const LookupResponse&, const LookupResponse&) =
      default;
};

/// What one lookup_batch call answered with (all responses in the
/// batch carry this same version/fingerprint).
struct BatchResult {
  std::uint64_t snapshot_version = 0;
  std::uint64_t fingerprint = 0;
  std::uint64_t hits = 0;
};

/// Writer + reclamation telemetry, readable from any thread: a view of
/// the service's registry cells plus the published-snapshot state.
struct ServiceStats {
  std::uint64_t publishes = 0;
  std::uint64_t publishes_deferred = 0;
  std::uint64_t reclaimed = 0;
  std::uint64_t retired_pending = 0;
  std::uint64_t retired_peak = 0;  // max resident retired snapshots seen
  std::uint64_t version = 0;       // latest published snapshot version
  std::uint64_t fingerprint = 0;   // ...and its RIB fingerprint
  sim::Time virtual_time = 0;      // ...and its simulation clock
  bool done = false;               // writer finished the churn horizon
};

class RouteService {
 public:
  /// `spec.serve` configures the churn plan and reclamation bounds
  /// (spec.serve.enabled itself is not consulted here — constructing a
  /// RouteService IS opting in). Throws std::invalid_argument on an
  /// invalid spec.
  RouteService(runner::ScenarioSpec spec, std::uint64_t seed,
               std::size_t max_readers = 64);
  ~RouteService();

  RouteService(const RouteService&) = delete;
  RouteService& operator=(const RouteService&) = delete;

  /// Launches the writer thread and blocks until the converged initial
  /// snapshot (version 1) is published. Rethrows writer build failures.
  void start();

  /// Asks the writer to stop at the next step boundary and joins it.
  /// Idempotent; also called by the destructor.
  void stop();

  /// True once the writer has replayed the full churn horizon (it may
  /// still be parked waiting for stop()).
  bool done() const { return done_.load(std::memory_order_acquire); }

  /// True once the horizon-state snapshot (virtual_time == end of the
  /// churn plan) is live. Can lag done(): a reader pinned across the
  /// horizon makes the final publish defer; the parked writer keeps
  /// retrying until the pin clears or stop().
  bool horizon_published() const {
    return horizon_published_.load(std::memory_order_acquire);
  }

  /// Virtual time of the converged pre-churn state (snapshot v1).
  /// Recorded by the writer before start() returns; stable thereafter.
  /// Reading stats().virtual_time for this instead races the writer:
  /// on a loaded 1-CPU host it may have replayed part of the horizon
  /// before the caller runs again.
  sim::Time converged_time() const {
    return t0_virtual_.load(std::memory_order_acquire);
  }

  ServiceStats stats() const;

  /// The service's telemetry: the writer's serve.* cells, each Reader's
  /// serve.lookup_ns / serve.lookups series labelled {reader=<slot>},
  /// and whatever a front-end registers (frontend.*{server=<port>}).
  obs::MetricsRegistry& metrics() { return metrics_; }
  const obs::MetricsRegistry& metrics() const { return metrics_; }

  /// Per-reader-thread handle: one epoch slot plus the reader's own
  /// registry series (serve.lookup_ns and serve.lookups, labelled
  /// {reader=<slot()>}; the reader thread is their only writer).
  ///
  /// The read contract is lookup_batch(): requests in, flattened
  /// responses out, one epoch pin per batch. Raw pin()/unpin() no
  /// longer exist — callers that need to hold a snapshot across their
  /// own logic (rather than a query batch) take a PinGuard.
  class Reader {
   public:
    explicit Reader(RouteService& service);
    ~Reader();
    Reader(const Reader&) = delete;
    Reader& operator=(const Reader&) = delete;

    /// RAII epoch pin: holds the live snapshot for its whole lifetime.
    /// The snapshot pointer is only nullptr before a successful
    /// start(). Keep the scope tight — a long-lived guard pins retired
    /// snapshots in memory and eventually defers the writer.
    class PinGuard {
     public:
      explicit PinGuard(Reader& reader) : reader_(&reader) {
        reader.service_->epochs_.pin(reader.slot_);
        snap_ = reader.service_->live_.load(std::memory_order_acquire);
      }
      ~PinGuard() { reader_->service_->epochs_.unpin(reader_->slot_); }
      PinGuard(const PinGuard&) = delete;
      PinGuard& operator=(const PinGuard&) = delete;

      const RibSnapshot* get() const { return snap_; }
      const RibSnapshot* operator->() const { return snap_; }
      const RibSnapshot& operator*() const { return *snap_; }
      explicit operator bool() const { return snap_ != nullptr; }

     private:
      Reader* reader_;
      const RibSnapshot* snap_;
    };

    /// Pins the epoch for the guard's scope (guaranteed copy elision:
    /// the guard is constructed in place at the caller).
    PinGuard pin() { return PinGuard{*this}; }

    /// Answers reqs[i] into resps[i] under a single epoch pin, so the
    /// whole batch reflects ONE snapshot. Requires
    /// resps.size() >= reqs.size(). Records the batch's mean per-lookup
    /// latency into this reader's serve.lookup_ns series (one sample per
    /// batch; see EXPERIMENTS.md on batch-wise tails) and the batch size
    /// into its serve.lookups counter. Total: before the first
    /// publish every request misses at snapshot_version 0 (the TCP
    /// front-end exposes this path to clients).
    BatchResult lookup_batch(std::span<const LookupRequest> reqs,
                             std::span<LookupResponse> resps);

    /// One query; convenience over lookup_batch for callers that don't
    /// batch (a batch of one).
    LookupResponse lookup(bgp::RouterId router, bgp::Ipv4Addr addr) {
      const LookupRequest req{router, addr};
      LookupResponse resp;
      lookup_batch({&req, 1}, {&resp, 1});
      return resp;
    }

    /// The epoch slot; also this reader's {reader=<slot>} series label.
    std::size_t slot() const { return slot_; }

   private:
    friend class PinGuard;

    RouteService* service_;
    std::size_t slot_;
    obs::Histogram* lookup_ns_ = nullptr;  // ns per lookup, per batch
    obs::Counter* lookups_ = nullptr;
  };

  /// Every Reader's serve.lookup_ns series, merged (readers past and
  /// present).
  obs::Histogram lookup_latency() const;
  /// Every Reader's serve.lookups series, summed.
  std::uint64_t total_lookups() const;
  /// Writer-side wall-clock snapshot publish latency (ns).
  obs::Histogram publish_latency() const;

  EpochDomain& epochs() { return epochs_; }

 private:
  friend class Reader;

  void writer_main();
  struct WriterState;  // everything thread-confined to the writer
  bool try_publish(WriterState& w, sim::Time now);
  std::size_t reclaim();

  runner::ScenarioSpec spec_;
  std::uint64_t seed_;

  EpochDomain epochs_;
  std::atomic<const RibSnapshot*> live_{nullptr};
  RetireBin<RibSnapshot> bin_;  // writer thread only (dtor after join)

  std::thread writer_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> done_{false};
  std::atomic<bool> horizon_published_{false};
  std::atomic<bool> started_{false};

  // start() handshake + build-failure propagation.
  std::mutex ready_mutex_;
  std::condition_variable ready_cv_;
  bool ready_ = false;
  std::string writer_error_;

  // The published snapshot's identity (writer stores, anyone reads).
  std::atomic<std::uint64_t> version_{0};
  std::atomic<std::uint64_t> fingerprint_{0};
  std::atomic<std::int64_t> virtual_time_{0};
  std::atomic<std::int64_t> t0_virtual_{0};

  // Telemetry. The serve.* cells below are registered by the
  // constructor; the writer thread is their only writer.
  obs::MetricsRegistry metrics_;
  obs::Counter* publishes_;
  obs::Counter* deferred_;
  obs::Counter* reclaimed_;
  obs::Gauge* retired_pending_;
  obs::Gauge* retired_peak_;
  obs::Histogram* publish_ns_;
};

/// Batch-mode comparator for the snapshot-consistency contract: builds
/// the identical world from (spec, seed) through runner::build_world,
/// as the writer and run_trial do, converges it, arms the
/// identical churn plan, runs ONE run_until to the absolute virtual
/// time `at`, and returns fault::rib_fingerprint of the bed. A
/// snapshot published at virtual_time T must carry exactly
/// batch_fingerprint_at(spec, seed, T).
std::uint64_t batch_fingerprint_at(const runner::ScenarioSpec& spec,
                                   std::uint64_t seed, sim::Time at);

/// The converged (pre-churn) virtual time of a (spec, seed) world —
/// snapshot v1's virtual_time.
sim::Time batch_converged_time(const runner::ScenarioSpec& spec,
                               std::uint64_t seed);

// --- serve trial mode ---------------------------------------------------

struct ServeTrialOptions {
  std::size_t readers = 1;
  /// Lookups per timing sample: the clock is read once per batch and
  /// the mean per-lookup latency recorded batch-wise (amortizes
  /// clock_gettime; tails are per-batch means, see EXPERIMENTS.md).
  std::size_t lookup_batch = 64;
};

/// One serving run's report (bench/serve emits these as JSON).
struct ServeReport {
  std::uint64_t lookups = 0;
  /// Over the read window only: start() returning (world built and
  /// converged) to the writer finishing its churn horizon.
  double lookups_per_sec = 0;
  double lookup_p50_ns = 0;
  double lookup_p99_ns = 0;
  double publish_p50_ns = 0;
  double publish_p99_ns = 0;
  std::uint64_t publishes = 0;
  std::uint64_t publishes_deferred = 0;
  std::uint64_t reclaimed = 0;
  std::uint64_t retired_peak = 0;
  std::uint64_t final_version = 0;
  std::uint64_t final_fingerprint = 0;
  double virtual_seconds = 0;  // churn horizon actually replayed
  double wall_ms = 0;
  long peak_rss_kb = 0;  // getrusage(RUSAGE_SELF).ru_maxrss
};

/// Runs a full serving trial: starts the service, hammers it with
/// `opt.readers` lookup threads (deterministic probe sequence) until
/// the writer finishes its churn horizon, and collects the report.
ServeReport run_serve_trial(const runner::ScenarioSpec& spec,
                            std::uint64_t seed,
                            const ServeTrialOptions& opt = {});

}  // namespace abrr::serve
