/// \file factorize.hpp
/// \brief STP matrix factorization of node requirements (Section III-B).
///
/// The paper factors the canonical form `M_Phi` of a requirement into a
/// structural matrix for the DAG vertex and canonical forms for its
/// children, pruning vertices whose matrix has more than "two unique
/// quartering parts".  Shared variables are handled by factoring out the
/// power-reducing matrix `M_r`, which introduces `x` (don't-care) entries
/// (Properties 3 and 4); variable reorderings correspond to `M_w` factors.
///
/// In truth-table form the same computation is a constrained two-block
/// decomposition: given a requirement R (an ISF over the global inputs) and
/// fixed child cones A and B, find all (op, u, v) with
///
///     R(m) = op(u(m|A), v(m|B))   for every care minterm m,
///
/// where u and v are ISFs classed on their cones (the don't-cares are
/// exactly the paper's `x` entries).  Two operator families span all
/// non-degenerate 2-input operators once child complementation and
/// PI-polarity absorption are taken into account:
///
///   * AND-like: R^pol = u & v.  On-minterms force u and v cells to 1;
///     every off-minterm is a binary choice (u-cell 0 or v-cell 0) —
///     branching enumerates the complete solution set, capped.
///   * XOR-like: R^pol = u ^ v.  A parity union-find over cells decides
///     feasibility; every connected component can be flipped, enumerated up
///     to a cap.

#pragma once

#include <cstdint>
#include <vector>

#include "tt/isf.hpp"
#include "tt/truth_table.hpp"
#include "util/run_context.hpp"

namespace stpes::synth {

/// Operator family assigned to a DAG vertex by factorization.
enum class op_family : std::uint8_t { and_like, xor_like };

/// A requirement attached to a DAG vertex: the variables it may use and
/// the (incompletely specified) function it must realize, kept in the
/// global input space.
struct requirement {
  std::uint32_t cone = 0;
  tt::isf func;
};

/// One factorization branch at a vertex: the vertex computes
/// `(left AND right) ^ output_complemented` or
/// `(left XOR right) ^ output_complemented` where the children satisfy the
/// attached requirements.
struct factorization {
  op_family family = op_family::and_like;
  bool output_complemented = false;
  requirement left;
  requirement right;
};

/// Caps keeping the all-solutions enumeration bounded.
struct factorize_options {
  /// Maximum (u, v) completions returned per (family, polarity).
  std::size_t max_branches_per_family = 32;
  /// Maximum XOR components enumerated exhaustively (2^c flip patterns).
  unsigned max_xor_components = 5;
};

/// One candidate cone split of a requirement's cone: the left child may
/// consume the variables of `a`, the right child those of `b`.
struct cone_split {
  std::uint32_t a = 0;
  std::uint32_t b = 0;
};

/// All decompositions of `r` for the fixed cone split (cone_a, cone_b).
/// Both cones must be subsets of `r.cone` and their union must cover it.
/// When `ctx` is given the recursion observes its cancel flag between
/// branches and reports effort into its counters: one factorization
/// attempt per call, a prune when no decomposition survives, and one
/// don't-care expansion per case split forced by an unconstrained cell
/// (AND-family off-minterm choice or XOR-component flip).
std::vector<factorization> factor_requirement(
    const requirement& r, std::uint32_t cone_a, std::uint32_t cone_b,
    const factorize_options& options = {}, core::run_context* ctx = nullptr);

/// Batched form: decomposes `r` for every split in `splits` (result `i`
/// corresponds to `splits[i]`) and returns lists identical to calling
/// `factor_requirement` once per split.  The target polarity
/// complements/offsets are computed once per batch instead of once per
/// split, the class-replicated forced-one sets are deduplicated per
/// *distinct cone* and smoothed struct-of-arrays through the
/// `tt::word_ops` batch loops, and the AND-family
/// feasibility screen runs across the whole batch in one pass — only the
/// surviving (split, polarity) queries reach the per-candidate branching
/// solver.  Effort lands in `ctx->counters.kernel_batch_*`.
///
/// When `ctx` reports a stop mid-batch the remaining splits come back as
/// empty lists (without a prune count), matching what the caller's own
/// cancellation polling would have skipped.
std::vector<std::vector<factorization>> factor_requirement_batch(
    const requirement& r, const cone_split* splits, std::size_t count,
    const factorize_options& options = {}, core::run_context* ctx = nullptr);

/// Convenience overload over a materialized split vector.
inline std::vector<std::vector<factorization>> factor_requirement_batch(
    const requirement& r, const std::vector<cone_split>& splits,
    const factorize_options& options = {}, core::run_context* ctx = nullptr) {
  return factor_requirement_batch(r, splits.data(), splits.size(), options,
                                  ctx);
}

/// True iff the requirement admits at least one decomposition for the
/// split — the paper's prune test ("can this DAG realize f?") without
/// enumerating completions.
bool is_factorable(const requirement& r, std::uint32_t cone_a,
                   std::uint32_t cone_b);

}  // namespace stpes::synth
