/// \file word_ops.hpp
/// \brief Word-array primitives behind `truth_table`, `isf`, the batched
///        factorization screen and `stp::logic_matrix`.
///
/// Every function is a plain loop over flat `uint64_t` word arrays.  The
/// synthesis engines work on tables of at most 8 variables (1 to 4
/// words), so there is nothing to vectorize beyond what the compiler does
/// with these loops.  `dst` may alias a source operand unless a function
/// says otherwise; `n` is the word count.

#pragma once

#include <cstddef>
#include <cstdint>

namespace stpes::tt::word_ops {

inline void bulk_and(std::uint64_t* dst, const std::uint64_t* a,
                     const std::uint64_t* b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] = a[i] & b[i];
  }
}

inline void bulk_or(std::uint64_t* dst, const std::uint64_t* a,
                    const std::uint64_t* b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] = a[i] | b[i];
  }
}

inline void bulk_xor(std::uint64_t* dst, const std::uint64_t* a,
                     const std::uint64_t* b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] = a[i] ^ b[i];
  }
}

/// NOT + normalize: dst = ~a with `last_word_mask` applied to the final
/// word (the excess bits of a table with fewer than 64 minterms).
inline void bulk_not_mask(std::uint64_t* dst, const std::uint64_t* a,
                          std::size_t n, std::uint64_t last_word_mask) {
  for (std::size_t i = 0; i + 1 < n; ++i) {
    dst[i] = ~a[i];
  }
  dst[n - 1] = ~a[n - 1] & last_word_mask;
}

/// ISF cover check: true iff (cand & care) == on for every word.
inline bool words_accept(const std::uint64_t* cand, const std::uint64_t* care,
                         const std::uint64_t* on, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if ((cand[i] & care[i]) != on[i]) {
      return false;
    }
  }
  return true;
}

/// ISF containment conflict: true iff some minterm is in both care sets
/// with opposite polarity, ((a_on ^ b_on) & a_care & b_care) != 0.
inline bool words_conflict(const std::uint64_t* a_on,
                           const std::uint64_t* b_on,
                           const std::uint64_t* a_care,
                           const std::uint64_t* b_care, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if (((a_on[i] ^ b_on[i]) & a_care[i] & b_care[i]) != 0) {
      return true;
    }
  }
  return false;
}

/// True iff (a & b & c) has any set bit: the AND-family infeasibility
/// test `off & u_one & v_one != 0`.
inline bool words_any_and3(const std::uint64_t* a, const std::uint64_t* b,
                           const std::uint64_t* c, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if ((a[i] & b[i] & c[i]) != 0) {
      return true;
    }
  }
  return false;
}

/// Projection masks for variables 0..5 inside one 64-bit word (bit t is
/// set iff variable v is 1 in minterm t).
inline constexpr std::uint64_t kProjection[6] = {
    0xAAAAAAAAAAAAAAAAull, 0xCCCCCCCCCCCCCCCCull, 0xF0F0F0F0F0F0F0F0ull,
    0xFF00FF00FF00FF00ull, 0xFFFF0000FFFF0000ull, 0xFFFFFFFF00000000ull};

/// Struct-of-arrays batch over single-word tables (num_vars <= 6):
/// existentially quantifies `var` (< 6) in every lane whose `select` byte
/// is non-zero, leaving the other lanes untouched.  Matches
/// `truth_table::smooth` bit for bit.
inline void smooth_var_w1_masked(std::uint64_t* lanes,
                                 const std::uint8_t* select,
                                 std::size_t count, unsigned var) {
  const unsigned s = 1u << var;
  const std::uint64_t pv = kProjection[var];
  for (std::size_t i = 0; i < count; ++i) {
    if (select[i] != 0) {
      const std::uint64_t w = lanes[i];
      const std::uint64_t merged = (w & ~pv) | ((w & pv) >> s);
      lanes[i] = merged | (merged << s);
    }
  }
}

/// Batched verdicts: verdict[i] = (a[i] & b[i] & c[i]) != 0 ? 1 : 0.
inline void and3_nonzero_w1(const std::uint64_t* a, const std::uint64_t* b,
                            const std::uint64_t* c, std::size_t count,
                            std::uint8_t* verdict) {
  for (std::size_t i = 0; i < count; ++i) {
    verdict[i] = (a[i] & b[i] & c[i]) != 0 ? 1 : 0;
  }
}

/// Reverses the bit order of one word: SWAR swaps up to nibble level, then
/// one byte swap.
inline std::uint64_t bit_reverse64(std::uint64_t x) {
  x = ((x & 0x5555555555555555ull) << 1) | ((x >> 1) & 0x5555555555555555ull);
  x = ((x & 0x3333333333333333ull) << 2) | ((x >> 2) & 0x3333333333333333ull);
  x = ((x & 0x0F0F0F0F0F0F0F0Full) << 4) | ((x >> 4) & 0x0F0F0F0F0F0F0F0Full);
  return __builtin_bswap64(x);
}

/// STP semi-tensor row expansion: the logic-matrix column order is the
/// complemented minterm order, so converting between a truth table and
/// its canonical matrix form is a full bit-order reversal of the
/// 2^num_vars-bit table.  dst must not alias src.
inline void reverse_table(std::uint64_t* dst, const std::uint64_t* src,
                          unsigned num_vars) {
  if (num_vars <= 6) {
    const std::uint64_t bits = std::uint64_t{1} << num_vars;
    const std::uint64_t r = bit_reverse64(src[0]);
    dst[0] = bits == 64 ? r : r >> (64 - bits);
    return;
  }
  const std::size_t n = std::size_t{1} << (num_vars - 6);
  for (std::size_t w = 0; w < n; ++w) {
    dst[w] = bit_reverse64(src[n - 1 - w]);
  }
}

}  // namespace stpes::tt::word_ops
