/// \file solver.hpp
/// \brief A from-scratch CDCL SAT solver.
///
/// This is the shared CNF reasoning substrate for the three baseline exact-
/// synthesis engines (BMS, FEN, and the CEGAR stand-in for ABC `lutexact`)
/// and for the STP engine's lower-bound probe (`synth/lower_bound.hpp`).
/// Using one solver for all baselines keeps the Table-I comparison about
/// *encodings and algorithms*, not solver maturity.
///
/// Feature set (MiniSat-style):
///   * two-watched-literal unit propagation with blocker literals,
///   * all clauses inline in one flat arena (`[header | literals]`,
///     addressed by 32-bit offsets), compacted in place after every
///     learnt-clause reduction,
///   * first-UIP conflict analysis with clause learning,
///   * VSIDS variable activities with an indexed binary max-heap,
///   * phase saving,
///   * Luby restarts,
///   * activity-driven learnt-clause database reduction,
///   * incremental solving under assumptions,
///   * cooperative conflict / wall-clock budgets (returns `unknown`).

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sat/types.hpp"
#include "util/run_context.hpp"

namespace stpes::sat {

/// Outcome of a `solve` call.
enum class solve_result { sat, unsat, unknown };

/// Aggregate solver statistics (monotone across calls).
struct solver_stats {
  std::uint64_t decisions = 0;
  std::uint64_t propagations = 0;
  std::uint64_t conflicts = 0;
  std::uint64_t restarts = 0;
  std::uint64_t learnt_clauses = 0;
  std::uint64_t removed_clauses = 0;
};

/// CDCL solver.  Typical use:
///
///     solver s;
///     auto a = s.new_var(); auto b = s.new_var();
///     s.add_clause({pos(a), neg(b)});
///     if (s.solve() == solve_result::sat) { ... s.model_value(a) ... }
class solver {
public:
  solver();
  ~solver();
  solver(const solver&) = delete;
  solver& operator=(const solver&) = delete;

  /// Creates a fresh variable and returns its index.
  var new_var();
  [[nodiscard]] std::size_t num_vars() const;
  [[nodiscard]] std::size_t num_clauses() const;

  /// Adds a clause over existing variables.  Returns false if the clause
  /// makes the formula trivially unsatisfiable (empty after root-level
  /// simplification); the solver is then permanently UNSAT.
  bool add_clause(clause_lits lits);

  /// Solves under the given assumptions.  `unknown` is returned when a
  /// budget expires.
  solve_result solve(const std::vector<lit>& assumptions = {});

  /// Model access after a `sat` answer.
  [[nodiscard]] bool model_value(var v) const;

  /// \name Budgets (apply to subsequent solve calls; 0 / default = none)
  /// @{
  void set_conflict_budget(std::uint64_t max_conflicts);
  /// Attaches the shared run context (not owned; may be nullptr to
  /// detach).  The deadline and cancel flag are polled every 256
  /// conflicts and every 4096 decisions; an observed stop returns
  /// `unknown`.  SAT decision/conflict/restart deltas of each solve call
  /// are added to `ctx->counters`.
  void set_run_context(core::run_context* ctx);
  /// @}

  [[nodiscard]] const solver_stats& stats() const;

private:
  struct impl;
  std::unique_ptr<impl> impl_;
};

}  // namespace stpes::sat
