/// \file run_context.hpp
/// \brief The unified deadline / cancellation / counter seam shared by
///        every layer of one synthesis run.
///
/// Historically each layer (synth::spec, sat::solver, the STP recursion,
/// the AllSAT merge loop, the server request path) held its *own* copy of
/// `util::time_budget` and polled it at inconsistent depths, so a daemon
/// timeout reply could leave a worker thread burning for seconds.  A
/// `run_context` replaces all of those copies with one shared object:
///
///   * a monotonic **deadline** (same semantics as `time_budget`),
///   * an `std::atomic<bool>` **cancel flag** that any thread may flip
///     (the daemon's CANCEL verb, SIGTERM drain, pool shutdown), and
///   * **per-stage counters** incremented by the layer doing the work.
///
/// Layers poll `should_stop()` at bounded strides (the engines every
/// 1024 ticks, the CDCL loop every 256 conflicts) so a cancel or an
/// expired deadline is observed promptly and uniformly.
///
/// Counters are written by the single thread running the synthesis and
/// must only be read by other threads after the run finished (join /
/// latch).  Only the cancel flag is safe for concurrent access.
///
/// The canonical name is `core::run_context`; the definition lives in
/// `util/` (the lowest layer) so `sat/`, `fence/`, `stp/` etc. can use it
/// without depending on the `core` facade library.

#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "util/stopwatch.hpp"

namespace stpes::core {

/// Effort counters for every stage of a synthesis run.
///
/// Deterministic counters (fences/DAGs/factorizations on solved
/// instances) double as a search-space fingerprint: the bench regression
/// gate compares them against committed baselines to catch silent drift
/// in the enumeration or pruning logic.
struct stage_counters {
  // Topology enumeration (fence/).
  std::uint64_t fences_enumerated = 0;
  std::uint64_t dags_generated = 0;
  std::uint64_t dags_pruned = 0;
  // STP factorization recursion (synth/factorize, stp_synth).
  std::uint64_t factorization_attempts = 0;
  std::uint64_t factorization_prunes = 0;
  std::uint64_t dont_care_expansions = 0;
  // Factorization memo (synth/factor_memo): requirement decompositions
  // served from cache vs. solved fresh.  Hits measure how much of the
  // DAG-search effort is shared sub-structure.
  std::uint64_t factor_memo_hits = 0;
  std::uint64_t factor_memo_misses = 0;
  // Circuit AllSAT verification (allsat/, stp/).
  std::uint64_t allsat_propagations = 0;
  std::uint64_t allsat_merges = 0;
  // CDCL solver (sat/).
  std::uint64_t sat_decisions = 0;
  std::uint64_t sat_conflicts = 0;
  std::uint64_t sat_restarts = 0;
  // SAT sweeping (sweep/): simulation refinement rounds, candidate pairs
  // tried, miter verdicts, and nodes actually merged into their class
  // representative.  proofs + refutations <= candidates (a deadline or
  // cancel can cut a round between the two).
  std::uint64_t sweep_sim_rounds = 0;
  std::uint64_t sweep_candidates = 0;
  std::uint64_t sweep_proofs = 0;
  std::uint64_t sweep_refutations = 0;
  std::uint64_t sweep_merged_nodes = 0;
  // Lower-bound probe (synth/lower_bound) and the per-level engine
  // portfolio (stp_synth).  `probe_calls` counts CNF solver calls; the
  // *_levels counters count levels classified by the probe; the
  // portfolio_* counters count which engine produced the per-level
  // verdict first (race-dependent: tolerance-gated in benches).
  std::uint64_t probe_calls = 0;
  std::uint64_t probe_unsat_levels = 0;
  std::uint64_t probe_sat_levels = 0;
  std::uint64_t portfolio_probe_wins = 0;
  std::uint64_t portfolio_sweep_wins = 0;
  // Batched factorization screen (synth/factor_requirement_batch):
  // constrained requirement/split queries entering the vectorized
  // AND-feasibility screen, queries refuted in both polarities (the
  // per-candidate solver never runs), and queries where at least one
  // polarity survived into the solver.  On runs that finish without a
  // deadline cut, screened + survivors == queries.
  std::uint64_t kernel_batch_queries = 0;
  std::uint64_t kernel_batch_screened = 0;
  std::uint64_t kernel_batch_survivors = 0;

  stage_counters& operator+=(const stage_counters& o) {
    fences_enumerated += o.fences_enumerated;
    dags_generated += o.dags_generated;
    dags_pruned += o.dags_pruned;
    factorization_attempts += o.factorization_attempts;
    factorization_prunes += o.factorization_prunes;
    dont_care_expansions += o.dont_care_expansions;
    factor_memo_hits += o.factor_memo_hits;
    factor_memo_misses += o.factor_memo_misses;
    allsat_propagations += o.allsat_propagations;
    allsat_merges += o.allsat_merges;
    sat_decisions += o.sat_decisions;
    sat_conflicts += o.sat_conflicts;
    sat_restarts += o.sat_restarts;
    sweep_sim_rounds += o.sweep_sim_rounds;
    sweep_candidates += o.sweep_candidates;
    sweep_proofs += o.sweep_proofs;
    sweep_refutations += o.sweep_refutations;
    sweep_merged_nodes += o.sweep_merged_nodes;
    probe_calls += o.probe_calls;
    probe_unsat_levels += o.probe_unsat_levels;
    probe_sat_levels += o.probe_sat_levels;
    portfolio_probe_wins += o.portfolio_probe_wins;
    portfolio_sweep_wins += o.portfolio_sweep_wins;
    kernel_batch_queries += o.kernel_batch_queries;
    kernel_batch_screened += o.kernel_batch_screened;
    kernel_batch_survivors += o.kernel_batch_survivors;
    return *this;
  }

  stage_counters& operator-=(const stage_counters& o) {
    fences_enumerated -= o.fences_enumerated;
    dags_generated -= o.dags_generated;
    dags_pruned -= o.dags_pruned;
    factorization_attempts -= o.factorization_attempts;
    factorization_prunes -= o.factorization_prunes;
    dont_care_expansions -= o.dont_care_expansions;
    factor_memo_hits -= o.factor_memo_hits;
    factor_memo_misses -= o.factor_memo_misses;
    allsat_propagations -= o.allsat_propagations;
    allsat_merges -= o.allsat_merges;
    sat_decisions -= o.sat_decisions;
    sat_conflicts -= o.sat_conflicts;
    sat_restarts -= o.sat_restarts;
    sweep_sim_rounds -= o.sweep_sim_rounds;
    sweep_candidates -= o.sweep_candidates;
    sweep_proofs -= o.sweep_proofs;
    sweep_refutations -= o.sweep_refutations;
    sweep_merged_nodes -= o.sweep_merged_nodes;
    probe_calls -= o.probe_calls;
    probe_unsat_levels -= o.probe_unsat_levels;
    probe_sat_levels -= o.probe_sat_levels;
    portfolio_probe_wins -= o.portfolio_probe_wins;
    portfolio_sweep_wins -= o.portfolio_sweep_wins;
    kernel_batch_queries -= o.kernel_batch_queries;
    kernel_batch_screened -= o.kernel_batch_screened;
    kernel_batch_survivors -= o.kernel_batch_survivors;
    return *this;
  }

  [[nodiscard]] std::uint64_t total() const {
    return fences_enumerated + dags_generated + dags_pruned +
           factorization_attempts + factorization_prunes +
           dont_care_expansions + factor_memo_hits + factor_memo_misses +
           allsat_propagations + allsat_merges + sat_decisions +
           sat_conflicts + sat_restarts + sweep_sim_rounds +
           sweep_candidates + sweep_proofs + sweep_refutations +
           sweep_merged_nodes + probe_calls + probe_unsat_levels +
           probe_sat_levels + portfolio_probe_wins + portfolio_sweep_wins +
           kernel_batch_queries + kernel_batch_screened +
           kernel_batch_survivors;
  }
};

inline stage_counters operator+(stage_counters a, const stage_counters& b) {
  a += b;
  return a;
}

inline stage_counters operator-(stage_counters a, const stage_counters& b) {
  a -= b;
  return a;
}

/// Shared state of one synthesis run: deadline + cancel flag + counters.
///
/// Non-copyable (holds an atomic); pass by pointer/reference.  A
/// default-constructed context is unlimited and never cancelled until
/// `request_cancel()` is called.
class run_context {
public:
  run_context() = default;

  /// Deadline of `seconds` from now; non-positive means unlimited.
  explicit run_context(double seconds) : budget_(seconds) {}

  /// A worker-local child context: inherits the parent's deadline and
  /// observes the parent's cancel flag (transitively, so a cancel anywhere
  /// up the chain stops the worker), while owning its *own* counters and
  /// its own cancel flag.  The parallel DAG search gives every worker task
  /// one child so counters stay single-writer; the coordinator merges the
  /// deltas deterministically after the tasks are joined.  The parent must
  /// outlive the child.
  explicit run_context(const run_context* parent)
      : budget_(parent->budget_), parent_(parent) {}

  run_context(const run_context&) = delete;
  run_context& operator=(const run_context&) = delete;

  /// Replaces the deadline with `seconds` from now (<= 0 = unlimited).
  void set_deadline_after(double seconds) {
    budget_ = util::time_budget{seconds};
  }

  [[nodiscard]] bool limited() const { return budget_.limited(); }
  [[nodiscard]] bool deadline_expired() const { return budget_.expired(); }
  [[nodiscard]] double remaining_seconds() const {
    return budget_.remaining_seconds();
  }

  /// Requests cooperative cancellation; safe from any thread.
  void request_cancel() { cancel_.store(true, std::memory_order_release); }

  [[nodiscard]] bool cancel_requested() const {
    return cancel_.load(std::memory_order_acquire) ||
           (parent_ != nullptr && parent_->cancel_requested());
  }

  /// The single poll every layer uses: cancelled or past the deadline.
  [[nodiscard]] bool should_stop() const {
    return cancel_requested() || deadline_expired();
  }

  /// Per-stage effort counters; owned by the thread running the work.
  stage_counters counters;

private:
  util::time_budget budget_;
  std::atomic<bool> cancel_{false};
  const run_context* parent_ = nullptr;
};

}  // namespace stpes::core

namespace stpes::util {
// The definition lives in util/ for layering; re-export so util-level
// code can name it without reaching "up" into core.
using run_context = core::run_context;
using stage_counters = core::stage_counters;
}  // namespace stpes::util
