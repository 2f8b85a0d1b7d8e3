#include "synth/lower_bound.hpp"

#include <utility>
#include <vector>

#include "fence/fence.hpp"
#include "sat/solver.hpp"
#include "synth/ssv_encoding.hpp"

namespace stpes::synth {

namespace {

using sat::neg;
using sat::pos;

/// Colexicographic order on fanin pairs (j < k per pair): compare by the
/// larger fanin first.  Matches percy's pair ordering.
bool colex_less(const std::pair<unsigned, unsigned>& a,
                const std::pair<unsigned, unsigned>& b) {
  return a.second < b.second ||
         (a.second == b.second && a.first < b.first);
}

bool pair_contains(const std::pair<unsigned, unsigned>& p, unsigned signal) {
  return p.first == signal || p.second == signal;
}

/// colex: for consecutive steps on the same fence level, forbid the later
/// step from selecting a colexicographically smaller pair.  Same-level
/// steps have identical allowed-pair lists (fanins come from strictly
/// lower levels only), and swapping them — renaming their output signals
/// in every later step, which is closed under the same-level pair lists —
/// maps chains to chains, so one order suffices.
void add_colex(sat::solver& solver, const ssv_encoding& enc,
               const std::vector<unsigned>& level_of_step) {
  for (unsigned i = 0; i + 1 < enc.num_steps(); ++i) {
    if (level_of_step[i] != level_of_step[i + 1]) {
      continue;
    }
    const auto& pi = enc.fanin_pairs(i);
    const auto& pn = enc.fanin_pairs(i + 1);
    for (std::size_t p = 0; p < pi.size(); ++p) {
      for (std::size_t q = 0; q < pn.size(); ++q) {
        if (colex_less(pn[q], pi[p])) {
          solver.add_clause(
              {neg(enc.select_var(i, p)), neg(enc.select_var(i + 1, q))});
        }
      }
    }
  }
}

/// noreapply: forbid step i' from pairing step i's output with one of
/// step i's own fanins.  Such a step computes a two-variable function of
/// i's fanins and can be rewired to consume them directly; the rewrite
/// strictly decreases the fanin-index sum, so iterating it terminates in
/// a chain at this or an already-refuted smaller gate count.
void add_noreapply(sat::solver& solver, const ssv_encoding& enc,
                   unsigned num_inputs) {
  for (unsigned i = 0; i < enc.num_steps(); ++i) {
    const unsigned out_signal = num_inputs + i;
    const auto& pi = enc.fanin_pairs(i);
    for (unsigned i2 = i + 1; i2 < enc.num_steps(); ++i2) {
      const auto& p2 = enc.fanin_pairs(i2);
      for (std::size_t q = 0; q < p2.size(); ++q) {
        if (!pair_contains(p2[q], out_signal)) {
          continue;
        }
        const unsigned other =
            p2[q].first == out_signal ? p2[q].second : p2[q].first;
        for (std::size_t p = 0; p < pi.size(); ++p) {
          if (pair_contains(pi[p], other)) {
            solver.add_clause(
                {neg(enc.select_var(i, p)), neg(enc.select_var(i2, q))});
          }
        }
      }
    }
  }
}

/// Input pairs p < q the whole specification is symmetric in.
template <typename Symmetric>
std::vector<std::pair<unsigned, unsigned>> symmetric_pairs(
    unsigned num_inputs, Symmetric symmetric) {
  std::vector<std::pair<unsigned, unsigned>> out;
  for (unsigned p = 0; p < num_inputs; ++p) {
    for (unsigned q = p + 1; q < num_inputs; ++q) {
      if (symmetric(p, q)) {
        out.emplace_back(p, q);
      }
    }
  }
  return out;
}

/// symvar: for every input pair p < q the specification is symmetric in, a
/// step may use q only if an earlier step uses p — otherwise relabelling
/// p <-> q (inputs all sit below level 0, so fence pair lists are closed
/// under it) yields an equivalent chain that the constraint admits.
void add_symvar(sat::solver& solver, const ssv_encoding& enc,
                const std::vector<std::pair<unsigned, unsigned>>& pairs_pq) {
  for (const auto& [p, q] : pairs_pq) {
    for (unsigned i = 0; i < enc.num_steps(); ++i) {
      const auto& pairs = enc.fanin_pairs(i);
      for (std::size_t idx = 0; idx < pairs.size(); ++idx) {
        if (!pair_contains(pairs[idx], q) || pair_contains(pairs[idx], p)) {
          continue;
        }
        sat::clause_lits clause{neg(enc.select_var(i, idx))};
        for (unsigned i2 = 0; i2 < i; ++i2) {
          const auto& earlier = enc.fanin_pairs(i2);
          for (std::size_t e = 0; e < earlier.size(); ++e) {
            if (pair_contains(earlier[e], p)) {
              clause.push_back(pos(enc.select_var(i2, e)));
            }
          }
        }
        solver.add_clause(clause);
      }
    }
  }
}

/// The per-fence loop of `probe` and `probe_multi`: one CNF per fence of
/// `fences` until one is SAT.  `encode(solver, fanin_pairs, enc_options)`
/// returns the fence's encoding; the structure, the symmetry breaks and the
/// rows are added here.
template <typename Encode>
probe_result probe_fences(const lower_bound_options& options,
                          const std::vector<fence::fence>& fences,
                          unsigned num_inputs,
                          const std::vector<std::pair<unsigned, unsigned>>&
                              symmetric,
                          bool complemented, core::run_context* ctx,
                          Encode encode) {
  probe_result out;
  ssv_options enc_options;
  enc_options.use_all_steps = options.alonce_clauses;
  const std::uint64_t num_rows = std::uint64_t{1} << num_inputs;

  // Widest level 0 first (the reverse of the lexicographic generation
  // order): chains concentrate in the wide, shallow fences, so a feasible
  // level usually stops at its first few fences.  An infeasible level
  // refutes every fence in any order.
  bool any_unknown = false;
  for (auto fc = fences.rbegin(); fc != fences.rend(); ++fc) {
    if (ctx != nullptr && ctx->should_stop()) {
      out.verdict = probe_verdict::unknown;
      return out;
    }
    sat::solver solver;
    if (ctx != nullptr) {
      solver.set_run_context(ctx);
    }
    if (options.conflict_budget != 0) {
      solver.set_conflict_budget(options.conflict_budget);
    }
    ssv_encoding enc =
        encode(solver, fence_fanin_pairs(*fc, num_inputs), enc_options);
    enc.encode_structure();
    if (options.colex_clauses) {
      add_colex(solver, enc, fence_level_of_step(*fc));
    }
    if (options.noreapply_clauses) {
      add_noreapply(solver, enc, num_inputs);
    }
    if (options.symvar_clauses) {
      add_symvar(solver, enc, symmetric);
    }
    // Row encoding dominates the build at larger n (2^n rows of clauses
    // per fence), so poll cancellation between rows: an in-flight probe
    // must honour the cancel flag within the documented latency bound even
    // before the solver starts.
    for (std::uint64_t row = 1; row < num_rows; ++row) {
      if ((row & 0xF) == 0 && ctx != nullptr && ctx->should_stop()) {
        out.verdict = probe_verdict::unknown;
        return out;
      }
      enc.encode_row(row);
    }
    ++out.solver_calls;
    if (ctx != nullptr) {
      ++ctx->counters.probe_calls;
    }
    switch (solver.solve()) {
      case sat::solve_result::sat:
        out.verdict = probe_verdict::feasible;
        out.witness = enc.extract_chain(complemented);
        return out;
      case sat::solve_result::unknown:
        any_unknown = true;
        break;
      case sat::solve_result::unsat:
        break;
    }
  }
  out.verdict =
      any_unknown ? probe_verdict::unknown : probe_verdict::infeasible;
  return out;
}

}  // namespace

probe_result lower_bound_prober::probe(const tt::isf& target,
                                       unsigned num_gates,
                                       core::run_context* ctx) const {
  if (num_gates == 0 || target.num_vars() > options_.max_vars) {
    return {};  // unknown
  }

  // The SSV encoding requires a normal target (row 0 = 0).  A care row 0
  // forced to 1 is existence-equivalent to the complemented ISF (same
  // chains, output inverted); a don't-care row 0 already satisfies the
  // invariant (the on-set is masked by the care set).
  tt::isf t = target;
  const bool complemented = t.careset().get_bit(0) && t.onset().get_bit(0);
  if (complemented) {
    t = t.complement();
  }
  const unsigned n = t.num_vars();
  const bool restricted_care = !t.careset().is_const1();
  // symvar needs the ISF invariant under the swap: on-set and care set.
  const auto symmetric = symmetric_pairs(n, [&t](unsigned p, unsigned q) {
    return t.onset().swap_variables(p, q) == t.onset() &&
           t.careset().swap_variables(p, q) == t.careset();
  });
  return probe_fences(
      options_, fence::pruned_fences(num_gates), n, symmetric, complemented,
      ctx,
      [&](sat::solver& solver, auto pairs, const ssv_options& enc_options) {
        ssv_encoding enc{solver, t.onset(), num_gates, std::move(pairs),
                         enc_options};
        if (restricted_care) {
          enc.set_output_care(t.careset());
        }
        return enc;
      });
}

probe_result lower_bound_prober::probe_multi(
    const std::vector<tt::truth_table>& functions, unsigned num_gates,
    core::run_context* ctx) const {
  if (functions.empty() || num_gates == 0 ||
      functions.front().num_vars() > options_.max_vars) {
    return {};  // unknown
  }
  const unsigned n = functions.front().num_vars();
  const auto max_outputs = static_cast<unsigned>(functions.size());
  // The relabelling argument needs the *whole* specification invariant
  // under the swap, so symvar applies to a pair only when every output
  // function is symmetric in it.  (Complementing an output preserves
  // symmetry, so checking the raw functions also covers the encoder's
  // normalized forms.)
  const auto symmetric =
      symmetric_pairs(n, [&functions](unsigned p, unsigned q) {
        for (const auto& f : functions) {
          if (f.swap_variables(p, q) != f) {
            return false;
          }
        }
        return true;
      });
  // The multi-output encoding normalizes each function's polarity
  // internally, so no pre-complementation is needed here.
  return probe_fences(
      options_, fence::pruned_fences_multi(num_gates, max_outputs), n,
      symmetric, false, ctx,
      [&](sat::solver& solver, auto pairs, const ssv_options& enc_options) {
        return ssv_encoding{solver, functions, num_gates, std::move(pairs),
                            enc_options};
      });
}

}  // namespace stpes::synth
