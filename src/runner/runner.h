// ExperimentRunner: executes many independent trials concurrently.
//
// Determinism contract: the runner expands its input specs (spec order,
// then each spec's declared seed order) into a flat trial list, executes
// trials on a pool of worker threads, and writes each result into its
// pre-assigned slot. The returned vector is therefore identical —
// byte-identical under TrialResult::serialize() — for any worker count
// and any scheduling interleaving; `--jobs` only changes wall-clock.
//
// Thread-confinement contract: a trial builds every piece of mutable
// simulation state it touches (Scheduler, Network, MetricsRegistry,
// Rng) inside run_trial() on its worker thread and never shares it.
// Debug builds assert this for the Scheduler and Rng
// (sim::ThreadConfined); the only cross-thread
// traffic is the trial index handed out by an atomic counter and the
// finished TrialResult moved into its slot.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "runner/scenario.h"
#include "runner/trial.h"

namespace abrr::runner {

struct RunnerOptions {
  /// Worker threads. 1 (the default) runs inline on the caller's
  /// thread; 0 is treated as 1. The runner never spawns more workers
  /// than there are trials.
  std::size_t jobs = 1;
};

class ExperimentRunner {
 public:
  explicit ExperimentRunner(RunnerOptions options = {})
      : options_{options} {}

  /// Validates every spec (throws std::invalid_argument naming every
  /// failing field via render_errors() — nothing runs if any spec is
  /// invalid), expands specs x seeds in declared order, executes, and
  /// returns results in that same order. A trial that throws yields a
  /// TrialResult with `error` set instead of aborting the batch.
  std::vector<TrialResult> run(std::span<const ScenarioSpec> specs) const;

  /// Sugar: expand the base spec over the axes, then run.
  std::vector<TrialResult> run_sweep(const ScenarioSpec& base,
                                     const SweepAxes& axes) const;

  const RunnerOptions& options() const { return options_; }

 private:
  RunnerOptions options_;
};

}  // namespace abrr::runner
