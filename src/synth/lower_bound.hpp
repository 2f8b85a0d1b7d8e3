/// \file lower_bound.hpp
/// \brief CNF infeasibility probe: "no k-gate 2-LUT chain computes this ISF".
///
/// The STP sweep enumerates *all* optimum chains of a level, but proving
/// that a level has *no* chain at all is cheaper as a single CNF call per
/// pruned fence: one UNSAT answer refutes the whole DAG family that the
/// sweep would otherwise factorize topology by topology.  This is percy's
/// partial-DAG idea (Haaswijk et al.) on our own CDCL solver, at fence
/// granularity — `fence_fanin_pairs` restricts every step's fanins to
/// fence-compatible levels, so refuting every pruned fence of k gates
/// refutes gate count k outright.
///
/// On top of the plain SSV encoding the probe layers the four percy
/// symmetry-break clause families, each sound for *existence* questions in
/// the engine's ascending level loop (levels < k already refuted):
///
///   * **colex** — consecutive steps on the same fence level are
///     interchangeable (their allowed pair lists coincide and later steps
///     cannot distinguish them), so their fanin pairs may be required to
///     be colexicographically non-decreasing;
///   * **noreapply** — a step consuming step i *and* one of i's own fanins
///     computes a two-variable function of i's fanins, so a repaired chain
///     with the same gate count (or, via the already-refuted smaller
///     levels, a contradiction) exists; the repair strictly shrinks the
///     fanin-index sum, so it terminates;
///   * **symvar** — if the ISF is invariant under swapping inputs p < q
///     (on-set *and* care-set), any chain using q first can be relabelled
///     into one using p first;
///   * **alonce** — every non-output step must fan out (an unused step
///     would yield a chain at an already-refuted smaller level).  This one
///     is the encoder's own `use_all_steps` option.
///
/// **Fence order.** A level's pruned fences are tried widest level 0
/// first — the reverse of the lexicographic order `fence::pruned_fences`
/// generates, which starts with the narrow, deep fences — and the probe
/// stops at the first SAT fence.  Chains concentrate in the wide, shallow
/// shapes (the observation behind `reverse_dag_sweep`), so a feasible level
/// is usually answered within its first few fences.  An infeasible level
/// refutes every fence in either order, so the order changes no verdict,
/// only `probe_calls`, the SAT counters and which witness is returned.
/// Probing each level once on a 4-core x86-64 machine (Release, two runs):
/// the feasible levels of the 80 `npn4-first` pool classes cost 8.5–10.0 s
/// and 797 503 conflicts in generation order, 2.6–3.1 s and 267 442
/// conflicts widest-first, while their 170 infeasible levels cost 9–10.5 s
/// and 948 730 conflicts either way; MADD's feasible levels
/// (`probe_multi`) go from 11.5–13.1 s to 0.32–0.40 s (EXPERIMENTS.md,
/// "Probe fence order and clause arena").  The FEN baseline
/// (`synth/fen.cpp`) keeps generation order, as it reproduces the
/// published engine.
///
/// The probe answers `feasible` / `infeasible` / `unknown`; `unknown`
/// (conflict budget or deadline hit, or the instance is above
/// `max_vars`) must be treated as *feasible* by callers — the sweep then
/// decides the level exactly, so the probe can only ever skip work, never
/// change results.
///
/// The engine (`stp_level_engine::probe_sweep`) does not ask the probe
/// everything: the read-once level of a complete single-output target
/// (support size - 1 gates) is decided by the DSD check instead, and a
/// `feasible` witness judged like a swept chain answers a one-chain
/// request (`max_solutions == 1`) without a sweep.

#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "chain/boolean_chain.hpp"
#include "tt/isf.hpp"
#include "util/run_context.hpp"

namespace stpes::synth {

/// Probe tuning knobs.
struct lower_bound_options {
  /// Symmetry-break clause families (percy names).
  bool colex_clauses = true;
  bool noreapply_clauses = true;
  bool symvar_clauses = true;
  bool alonce_clauses = true;
  /// Per-solver-call conflict cutoff (0 = unbounded).  Conflicts are
  /// machine-independent, so a budget cutoff keeps the probe's verdicts —
  /// and hence the `probe_*` counters in probe_sweep mode — deterministic.
  std::uint64_t conflict_budget = 100000;
  /// Skip the probe (verdict `unknown`) above this support size; the CNF
  /// grows with 2^n rows and stops paying for itself.
  unsigned max_vars = 6;
};

/// Probe verdict for one (ISF, gate count) question.
enum class probe_verdict {
  feasible,    ///< some pruned fence admits a k-gate chain (SAT witness)
  infeasible,  ///< every pruned fence of k gates refuted (UNSAT proofs)
  unknown      ///< budget/deadline/size cutoff — treat as feasible
};

/// Outcome of one probe call.
struct probe_result {
  probe_verdict verdict = probe_verdict::unknown;
  /// CNF solver calls made (== pruned fences attempted).
  std::uint64_t solver_calls = 0;
  /// On `feasible`: the chain decoded from the SAT model.  The smaller
  /// levels are refuted, so this single chain already proves the optimum:
  /// it answers one-chain requests, and a deadline-cut sweep of the
  /// winning level falls back on it.
  std::optional<chain::boolean_chain> witness;
};

/// The probe.  Stateless between calls apart from options; cheap to
/// construct per use.
class lower_bound_prober {
public:
  explicit lower_bound_prober(lower_bound_options options = {})
      : options_(options) {}

  /// Decides whether any `num_gates`-gate chain satisfies `target`.
  /// Sound for the ascending level loop: `infeasible` is only
  /// trustworthy when every smaller gate count was already refuted
  /// (the symmetry-break repairs may move a chain to a smaller level).
  /// `ctx` (optional) supplies deadline/cancel polling and receives
  /// `probe_calls` and SAT-stage counters.
  [[nodiscard]] probe_result probe(const tt::isf& target, unsigned num_gates,
                                   core::run_context* ctx = nullptr) const;

  /// Multi-output variant: decides whether any `num_gates`-gate chain
  /// computes *all* of `functions` (each output possibly complemented).
  /// Uses the multi-output fence family and the per-output
  /// output-selection SSV encoding; the symvar break applies to an input
  /// pair only when *every* function is symmetric in it.  Soundness
  /// contract matches `probe`.
  [[nodiscard]] probe_result probe_multi(
      const std::vector<tt::truth_table>& functions, unsigned num_gates,
      core::run_context* ctx = nullptr) const;

  [[nodiscard]] const lower_bound_options& options() const {
    return options_;
  }

private:
  lower_bound_options options_;
};

}  // namespace stpes::synth
