/// \file dsd.hpp
/// \brief Disjoint-support decomposition (DSD) structure analysis.
///
/// The Table-I workloads are defined by their DSD structure: FDSD functions
/// are *fully* disjoint-support decomposable into 2-input blocks, PDSD
/// functions contain at least one prime (non-decomposable) block.  This
/// module classifies a function by greedily contracting 2-input disjoint
/// blocks:
///
///   * a pair of support variables (i, j) can be contracted into a fresh
///     variable z iff the four cofactors of f w.r.t. (i, j) take at most two
///     distinct values — exactly the paper's "two unique quartering parts"
///     condition read on a decomposition chart;
///   * contraction repeats until the support collapses to one variable
///     (fully DSD) or no pair is contractible (the residue is a prime
///     block).
///
/// For functions whose DSD tree uses only 2-input operators (which is what
/// exact synthesis over 2-LUTs cares about, and what our generators emit),
/// greedy contraction is a decision procedure: any contractible pair is part
/// of *some* DSD tree, so greedy choices never block later contractions.
/// The STP engine relies on this to decide the read-once level (support
/// size - 1 gates) without a CNF call; `tests/lower_bound_test.cpp` pins
/// it against the exact probe and the plain sweep.

#pragma once

#include "tt/truth_table.hpp"

namespace stpes::tt {

/// Classification outcome of `analyze_dsd`.
enum class dsd_kind {
  constant,  ///< no support
  literal,   ///< support of exactly one variable
  full,      ///< fully decomposable into 2-input disjoint blocks
  partial,   ///< some 2-input blocks exist, but a prime residue remains
  none       ///< no 2-input disjoint block at all (prime function)
};

/// Detailed result of the greedy DSD contraction.
struct dsd_analysis {
  dsd_kind kind = dsd_kind::constant;
  unsigned original_support = 0;  ///< support size of the input function
  unsigned residue_support = 0;   ///< support size of the prime residue
  unsigned contractions = 0;      ///< number of 2-input blocks contracted
  truth_table residue;            ///< the prime residue (shrunk to support)
};

/// Runs the greedy contraction described above.
dsd_analysis analyze_dsd(const truth_table& function);

/// Convenience wrappers over `analyze_dsd`.
bool is_fully_dsd(const truth_table& function);
/// True iff support >= 3 and no 2-input disjoint block exists.
bool is_prime(const truth_table& function);

/// Human-readable name of a `dsd_kind` value.
const char* to_string(dsd_kind kind);

}  // namespace stpes::tt
