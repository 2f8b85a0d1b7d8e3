#include "tt/truth_table.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>

#include "tt/word_ops.hpp"

namespace stpes::tt {

namespace {

using word_ops::kProjection;

std::size_t words_needed(unsigned num_vars) {
  return num_vars <= 6 ? 1 : (std::size_t{1} << (num_vars - 6));
}

int hex_digit_value(char c) {
  if (c >= '0' && c <= '9') {
    return c - '0';
  }
  if (c >= 'a' && c <= 'f') {
    return c - 'a' + 10;
  }
  if (c >= 'A' && c <= 'F') {
    return c - 'A' + 10;
  }
  return -1;
}

}  // namespace

truth_table::truth_table(unsigned num_vars)
    : words_(words_needed(num_vars)) {
  if (num_vars > 16) {
    throw std::invalid_argument{"truth_table: more than 16 variables"};
  }
  words_.set_aux(num_vars);
}

truth_table::truth_table(unsigned num_vars, std::uint64_t bits)
    : truth_table(num_vars) {
  if (num_vars > 6) {
    throw std::invalid_argument{
        "truth_table: word constructor requires num_vars <= 6"};
  }
  words_[0] = bits;
  mask_excess_bits();
}

void truth_table::mask_excess_bits() {
  if (num_vars() < 6) {
    words_[0] &= (std::uint64_t{1} << num_bits()) - 1;
  }
}

bool truth_table::get_bit(std::uint64_t index) const {
  assert(index < num_bits());
  return ((words_[index >> 6] >> (index & 63)) & 1) != 0;
}

void truth_table::set_bit(std::uint64_t index, bool value) {
  assert(index < num_bits());
  const std::uint64_t mask = std::uint64_t{1} << (index & 63);
  if (value) {
    words_[index >> 6] |= mask;
  } else {
    words_[index >> 6] &= ~mask;
  }
}

std::uint64_t truth_table::count_ones() const {
  std::uint64_t total = 0;
  for (auto w : words_) {
    total += static_cast<std::uint64_t>(std::popcount(w));
  }
  return total;
}

bool truth_table::is_const0() const {
  return std::all_of(words_.begin(), words_.end(),
                     [](std::uint64_t w) { return w == 0; });
}

bool truth_table::is_const1() const { return count_ones() == num_bits(); }

truth_table truth_table::nth_var(unsigned num_vars, unsigned var,
                                 bool complemented) {
  assert(var < num_vars);
  truth_table result{num_vars};
  if (var < 6) {
    const std::uint64_t pattern =
        complemented ? ~kProjection[var] : kProjection[var];
    for (auto& w : result.words_) {
      w = pattern;
    }
  } else {
    // Variable >= 6 selects whole words: blocks of 2^(var-6) words alternate.
    const std::size_t block = std::size_t{1} << (var - 6);
    for (std::size_t w = 0; w < result.words_.size(); ++w) {
      const bool high = ((w / block) & 1) != 0;
      result.words_[w] = (high != complemented) ? ~std::uint64_t{0} : 0;
    }
  }
  result.mask_excess_bits();
  return result;
}

truth_table truth_table::constant(unsigned num_vars, bool value) {
  truth_table result{num_vars};
  if (value) {
    for (auto& w : result.words_) {
      w = ~std::uint64_t{0};
    }
    result.mask_excess_bits();
  }
  return result;
}

truth_table truth_table::from_hex(unsigned num_vars, std::string_view hex) {
  if (hex.substr(0, 2) == "0x" || hex.substr(0, 2) == "0X") {
    hex.remove_prefix(2);
  }
  truth_table result{num_vars};
  const std::uint64_t bits = result.num_bits();
  const std::size_t digits = bits >= 4 ? bits / 4 : 1;
  if (hex.size() != digits) {
    throw std::invalid_argument{"truth_table::from_hex: wrong digit count"};
  }
  // The first character encodes the most significant minterms.
  for (std::size_t d = 0; d < hex.size(); ++d) {
    const int value = hex_digit_value(hex[d]);
    if (value < 0) {
      throw std::invalid_argument{"truth_table::from_hex: bad hex digit"};
    }
    const std::size_t nibble = hex.size() - 1 - d;  // nibble index from LSB
    result.words_[nibble / 16] |= static_cast<std::uint64_t>(value)
                                  << (4 * (nibble % 16));
  }
  result.mask_excess_bits();
  return result;
}

truth_table truth_table::from_binary(unsigned num_vars,
                                     std::string_view bits) {
  truth_table result{num_vars};
  if (bits.size() != result.num_bits()) {
    throw std::invalid_argument{"truth_table::from_binary: wrong length"};
  }
  for (std::size_t i = 0; i < bits.size(); ++i) {
    const char c = bits[bits.size() - 1 - i];
    if (c == '1') {
      result.set_bit(i, true);
    } else if (c != '0') {
      throw std::invalid_argument{"truth_table::from_binary: bad character"};
    }
  }
  return result;
}

truth_table truth_table::from_words(unsigned num_vars,
                                    const std::uint64_t* words,
                                    std::size_t count) {
  truth_table result{num_vars};
  assert(count == result.words_.size());
  std::memcpy(result.words_.data(), words, count * sizeof(std::uint64_t));
  result.mask_excess_bits();
  return result;
}

truth_table truth_table::operator~() const {
  truth_table result{*this};
  // NOT + normalize in one pass: the last-word mask re-applies
  // mask_excess_bits for tables of fewer than 64 minterms.
  const std::uint64_t last_mask =
      num_vars() < 6 ? (std::uint64_t{1} << num_bits()) - 1 : ~std::uint64_t{0};
  word_ops::bulk_not_mask(result.words_.data(), words_.data(), words_.size(),
                          last_mask);
  return result;
}

truth_table& truth_table::operator&=(const truth_table& other) {
  assert(num_vars() == other.num_vars());
  word_ops::bulk_and(words_.data(), words_.data(), other.words_.data(),
                     words_.size());
  return *this;
}

truth_table& truth_table::operator|=(const truth_table& other) {
  assert(num_vars() == other.num_vars());
  word_ops::bulk_or(words_.data(), words_.data(), other.words_.data(),
                    words_.size());
  return *this;
}

truth_table& truth_table::operator^=(const truth_table& other) {
  assert(num_vars() == other.num_vars());
  word_ops::bulk_xor(words_.data(), words_.data(), other.words_.data(),
                     words_.size());
  return *this;
}

truth_table truth_table::operator&(const truth_table& other) const {
  truth_table result{*this};
  result &= other;
  return result;
}

truth_table truth_table::operator|(const truth_table& other) const {
  truth_table result{*this};
  result |= other;
  return result;
}

truth_table truth_table::operator^(const truth_table& other) const {
  truth_table result{*this};
  result ^= other;
  return result;
}

bool truth_table::operator==(const truth_table& other) const {
  return num_vars() == other.num_vars() && words_ == other.words_;
}

bool truth_table::operator!=(const truth_table& other) const {
  return !(*this == other);
}

bool truth_table::operator<(const truth_table& other) const {
  if (num_vars() != other.num_vars()) {
    return num_vars() < other.num_vars();
  }
  // Compare most significant words first for a natural numeric order.
  for (std::size_t i = words_.size(); i-- > 0;) {
    if (words_[i] != other.words_[i]) {
      return words_[i] < other.words_[i];
    }
  }
  return false;
}

truth_table truth_table::cofactor0(unsigned var) const {
  assert(var < num_vars());
  truth_table result{*this};
  if (var < 6) {
    const unsigned shift = 1u << var;
    for (auto& w : result.words_) {
      const std::uint64_t lo = w & ~kProjection[var];
      w = lo | (lo << shift);
    }
  } else {
    const std::size_t block = std::size_t{1} << (var - 6);
    for (std::size_t w = 0; w < result.words_.size(); ++w) {
      if ((w / block) & 1) {
        result.words_[w] = result.words_[w - block];
      }
    }
  }
  return result;
}

truth_table truth_table::cofactor1(unsigned var) const {
  assert(var < num_vars());
  truth_table result{*this};
  if (var < 6) {
    const unsigned shift = 1u << var;
    for (auto& w : result.words_) {
      const std::uint64_t hi = w & kProjection[var];
      w = hi | (hi >> shift);
    }
  } else {
    const std::size_t block = std::size_t{1} << (var - 6);
    for (std::size_t w = 0; w < result.words_.size(); ++w) {
      if (((w / block) & 1) == 0) {
        result.words_[w] = result.words_[w + block];
      }
    }
  }
  return result;
}

bool truth_table::has_var(unsigned var) const {
  return cofactor0(var) != cofactor1(var);
}

std::uint32_t truth_table::support_mask() const {
  std::uint32_t mask = 0;
  for (unsigned v = 0; v < num_vars(); ++v) {
    if (has_var(v)) {
      mask |= 1u << v;
    }
  }
  return mask;
}

unsigned truth_table::support_size() const {
  return static_cast<unsigned>(std::popcount(support_mask()));
}

truth_table truth_table::swap_variables(unsigned a, unsigned b) const {
  assert(a < num_vars() && b < num_vars());
  if (a == b) {
    return *this;
  }
  if (a > b) {
    std::swap(a, b);
  }
  truth_table result{*this};
  if (b < 6) {
    // Delta-swap inside each word: a minterm with x_a=1, x_b=0 exchanges
    // with its partner `d` positions up (x_a=0, x_b=1).
    const unsigned d = (1u << b) - (1u << a);
    const std::uint64_t lower = kProjection[a] & ~kProjection[b];
    for (auto& w : result.words_) {
      const std::uint64_t t = ((w >> d) ^ w) & lower;
      w ^= t ^ (t << d);
    }
  } else if (a < 6) {
    // x_a lives inside a word, x_b selects word blocks of 2^(b-6) words:
    // exchange the x_a=1 half of each low-block word with the x_a=0 half
    // of its high-block partner.
    const std::size_t block = std::size_t{1} << (b - 6);
    const unsigned s = 1u << a;
    const std::uint64_t pa = kProjection[a];
    for (std::size_t w = 0; w < result.words_.size(); w += 2 * block) {
      for (std::size_t i = 0; i < block; ++i) {
        std::uint64_t& lo = result.words_[w + i];
        std::uint64_t& hi = result.words_[w + i + block];
        const std::uint64_t new_lo = (lo & ~pa) | ((hi & ~pa) << s);
        const std::uint64_t new_hi = (hi & pa) | ((lo & pa) >> s);
        lo = new_lo;
        hi = new_hi;
      }
    }
  } else {
    // Both variables select whole words: swap the (x_a=1, x_b=0) word with
    // its (x_a=0, x_b=1) partner.
    const std::size_t bit_a = std::size_t{1} << (a - 6);
    const std::size_t bit_b = std::size_t{1} << (b - 6);
    for (std::size_t w = 0; w < result.words_.size(); ++w) {
      if ((w & bit_a) != 0 && (w & bit_b) == 0) {
        std::swap(result.words_[w], result.words_[(w ^ bit_a) | bit_b]);
      }
    }
  }
  return result;
}

truth_table truth_table::flip_variable(unsigned var) const {
  assert(var < num_vars());
  truth_table result{*this};
  if (var < 6) {
    const unsigned s = 1u << var;
    const std::uint64_t pv = kProjection[var];
    for (auto& w : result.words_) {
      w = ((w & pv) >> s) | ((w & ~pv) << s);
    }
  } else {
    const std::size_t block = std::size_t{1} << (var - 6);
    for (std::size_t w = 0; w < result.words_.size(); w += 2 * block) {
      for (std::size_t i = 0; i < block; ++i) {
        std::swap(result.words_[w + i], result.words_[w + i + block]);
      }
    }
  }
  return result;
}

truth_table truth_table::permute(const std::vector<unsigned>& perm) const {
  assert(perm.size() == num_vars());
  // Decompose the permutation into at most n-1 transpositions, each one a
  // word-parallel swap: place original variable perm[i] at position i,
  // tracking where every variable currently sits.
  truth_table result{*this};
  std::vector<unsigned> where(num_vars());
  std::vector<unsigned> who(num_vars());
  for (unsigned v = 0; v < num_vars(); ++v) {
    where[v] = who[v] = v;
  }
  for (unsigned i = 0; i < num_vars(); ++i) {
    const unsigned v = perm[i];
    const unsigned j = where[v];
    if (j != i) {
      result = result.swap_variables(i, j);
      const unsigned displaced = who[i];
      who[i] = v;
      where[v] = i;
      who[j] = displaced;
      where[displaced] = j;
    }
  }
  return result;
}

truth_table truth_table::extend_to(unsigned new_num_vars) const {
  assert(new_num_vars >= num_vars());
  truth_table result{new_num_vars};
  if (num_vars() <= 6) {
    std::uint64_t pattern = words_[0];
    // Replicate the 2^n-bit pattern across a full word by doubling.
    for (std::uint64_t span = num_bits(); span < 64; span *= 2) {
      pattern |= pattern << span;
    }
    for (auto& w : result.words_) {
      w = pattern;
    }
  } else {
    // Word counts are powers of two, so replication is a wrapped copy.
    const std::size_t src_words = words_.size();
    for (std::size_t w = 0; w < result.words_.size(); ++w) {
      result.words_[w] = words_[w & (src_words - 1)];
    }
  }
  result.mask_excess_bits();
  return result;
}

truth_table truth_table::shrink_to_support(
    std::vector<unsigned>* old_of_new) const {
  std::vector<unsigned> support;
  for (unsigned v = 0; v < num_vars(); ++v) {
    if (has_var(v)) {
      support.push_back(v);
    }
  }
  const unsigned k = static_cast<unsigned>(support.size());
  // Compact the support down to positions [0, k) with word-parallel swaps
  // (tracking positions as in permute), then truncate: the remaining
  // variables are irrelevant, so the low 2^k bits are the shrunk function.
  truth_table compact{*this};
  std::vector<unsigned> where(num_vars());
  std::vector<unsigned> who(num_vars());
  for (unsigned v = 0; v < num_vars(); ++v) {
    where[v] = who[v] = v;
  }
  for (unsigned i = 0; i < k; ++i) {
    const unsigned v = support[i];
    const unsigned j = where[v];
    if (j != i) {
      compact = compact.swap_variables(i, j);
      const unsigned displaced = who[i];
      who[i] = v;
      where[v] = i;
      who[j] = displaced;
      where[displaced] = j;
    }
  }
  truth_table result{k};
  std::memcpy(result.words_.data(), compact.words_.data(),
              result.words_.size() * sizeof(std::uint64_t));
  result.mask_excess_bits();
  if (old_of_new != nullptr) {
    *old_of_new = std::move(support);
  }
  return result;
}

void truth_table::smooth_in_place(unsigned var) {
  assert(var < num_vars());
  if (var < 6) {
    const unsigned s = 1u << var;
    const std::uint64_t pv = kProjection[var];
    for (auto& w : words_) {
      const std::uint64_t merged = (w & ~pv) | ((w & pv) >> s);
      w = merged | (merged << s);
    }
  } else {
    const std::size_t block = std::size_t{1} << (var - 6);
    for (std::size_t w = 0; w < words_.size(); w += 2 * block) {
      for (std::size_t i = 0; i < block; ++i) {
        const std::uint64_t merged = words_[w + i] | words_[w + i + block];
        words_[w + i] = merged;
        words_[w + i + block] = merged;
      }
    }
  }
}

truth_table truth_table::smooth(unsigned var) const {
  truth_table result{*this};
  result.smooth_in_place(var);
  return result;
}

truth_table truth_table::smooth_over(std::uint32_t var_mask) const {
  truth_table result{*this};
  for (unsigned v = 0; v < num_vars(); ++v) {
    if ((var_mask >> v) & 1) {
      result.smooth_in_place(v);
    }
  }
  return result;
}

std::string truth_table::to_hex() const {
  static constexpr char kDigits[] = "0123456789abcdef";
  const std::uint64_t bits = num_bits();
  const std::size_t digits = bits >= 4 ? bits / 4 : 1;
  std::string out = "0x";
  for (std::size_t d = digits; d-- > 0;) {
    const std::uint64_t nibble = (words_[d / 16] >> (4 * (d % 16))) & 0xF;
    out += kDigits[nibble];
  }
  return out;
}

std::string truth_table::to_binary() const {
  std::string out;
  out.reserve(num_bits());
  for (std::uint64_t t = num_bits(); t-- > 0;) {
    out += get_bit(t) ? '1' : '0';
  }
  return out;
}

std::size_t truth_table::hash() const {
  std::size_t h = 0xcbf29ce484222325ull ^ num_vars();
  for (auto w : words_) {
    h ^= w;
    h *= 0x100000001b3ull;
  }
  return h;
}

truth_table apply_binary_op(unsigned op, const truth_table& a,
                            const truth_table& b) {
  assert(a.num_vars() == b.num_vars());
  truth_table result = truth_table::constant(a.num_vars(), false);
  const truth_table na = ~a;
  const truth_table nb = ~b;
  if (op & 0x1) {
    result |= na & nb;
  }
  if (op & 0x2) {
    result |= a & nb;
  }
  if (op & 0x4) {
    result |= na & b;
  }
  if (op & 0x8) {
    result |= a & b;
  }
  return result;
}

}  // namespace stpes::tt
