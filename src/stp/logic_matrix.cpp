#include "stp/logic_matrix.hpp"

#include <bit>
#include <cassert>
#include <stdexcept>
#include <vector>

#include "tt/word_ops.hpp"

namespace stpes::stp {

logic_matrix::logic_matrix(unsigned num_vars) : top_(num_vars) {}

logic_matrix logic_matrix::from_truth_table(const tt::truth_table& f) {
  // Column c of the canonical matrix form holds f(~c & mask): the
  // semi-tensor row expansion is a full bit-order reversal of the table,
  // one word pass instead of a per-minterm loop.
  logic_matrix m{f.num_vars()};
  const auto& src = f.words();
  std::vector<std::uint64_t> reversed(src.size());
  tt::word_ops::reverse_table(reversed.data(), src.data(), f.num_vars());
  m.top_ = tt::truth_table::from_words(f.num_vars(), reversed.data(),
                                       reversed.size());
  return m;
}

tt::truth_table logic_matrix::to_truth_table() const {
  const auto& src = top_.words();
  std::vector<std::uint64_t> reversed(src.size());
  tt::word_ops::reverse_table(reversed.data(), src.data(), num_vars());
  return tt::truth_table::from_words(num_vars(), reversed.data(),
                                     reversed.size());
}

matrix logic_matrix::to_matrix() const {
  matrix m{2, static_cast<std::size_t>(num_cols())};
  for (std::uint64_t c = 0; c < num_cols(); ++c) {
    const bool is_true = column_is_true(c);
    m.at(0, c) = is_true ? 1 : 0;
    m.at(1, c) = is_true ? 0 : 1;
  }
  return m;
}

logic_matrix logic_matrix::from_matrix(const matrix& m) {
  if (m.rows() != 2 || !std::has_single_bit(m.cols())) {
    throw std::invalid_argument{"logic_matrix::from_matrix: bad shape"};
  }
  const unsigned num_vars =
      static_cast<unsigned>(std::countr_zero(m.cols()));
  logic_matrix result{num_vars};
  for (std::size_t c = 0; c < m.cols(); ++c) {
    const int hi = m.at(0, c);
    const int lo = m.at(1, c);
    if (!((hi == 1 && lo == 0) || (hi == 0 && lo == 1))) {
      throw std::invalid_argument{
          "logic_matrix::from_matrix: column not in S_V"};
    }
    result.set_column(c, hi == 1);
  }
  return result;
}

logic_matrix logic_matrix::binary_op(unsigned op) {
  logic_matrix m{2};
  for (std::uint64_t c = 0; c < 4; ++c) {
    const unsigned a = ((c >> 1) & 1) == 0 ? 1 : 0;  // MSB bit = first var
    const unsigned b = (c & 1) == 0 ? 1 : 0;
    m.set_column(c, ((op >> ((b << 1) | a)) & 1) != 0);
  }
  return m;
}

logic_matrix logic_matrix::negation() {
  logic_matrix m{1};
  m.set_column(0, false);  // input True  -> output False
  m.set_column(1, true);   // input False -> output True
  return m;
}

logic_matrix logic_matrix::complement() const {
  logic_matrix m{*this};
  m.top_ = ~m.top_;
  return m;
}

std::vector<logic_matrix> logic_matrix::split(std::size_t parts) const {
  if (parts == 0 || !std::has_single_bit(parts) || parts > num_cols()) {
    throw std::invalid_argument{"logic_matrix::split: bad part count"};
  }
  const unsigned part_vars =
      num_vars() - static_cast<unsigned>(std::countr_zero(parts));
  const std::uint64_t part_cols = std::uint64_t{1} << part_vars;
  const auto& words = top_.words();
  std::vector<logic_matrix> result;
  result.reserve(parts);
  for (std::size_t p = 0; p < parts; ++p) {
    logic_matrix block{part_vars};
    if (part_cols >= 64) {
      // Word-aligned block: hand the source words over directly.
      const std::size_t part_words = static_cast<std::size_t>(part_cols / 64);
      block.top_ = tt::truth_table::from_words(
          part_vars, words.data() + p * part_words, part_words);
    } else {
      // Sub-word block: part_cols divides 64, so the block never straddles
      // a word boundary.
      const std::uint64_t first = p * part_cols;
      const std::uint64_t mask = (std::uint64_t{1} << part_cols) - 1;
      const std::uint64_t w = (words[first >> 6] >> (first & 63)) & mask;
      block.top_ = tt::truth_table::from_words(part_vars, &w, 1);
    }
    result.push_back(std::move(block));
  }
  return result;
}

std::vector<std::uint64_t> logic_matrix::true_columns() const {
  const auto& words = top_.words();
  std::size_t count = 0;
  for (const std::uint64_t w : words) {
    count += static_cast<std::size_t>(std::popcount(w));
  }
  std::vector<std::uint64_t> cols;
  cols.reserve(count);
  for (std::size_t i = 0; i < words.size(); ++i) {
    const std::uint64_t base = static_cast<std::uint64_t>(i) << 6;
    for (std::uint64_t w = words[i]; w != 0; w &= w - 1) {
      cols.push_back(base +
                     static_cast<std::uint64_t>(std::countr_zero(w)));
    }
  }
  return cols;
}

std::string logic_matrix::to_string() const {
  std::string top = "[";
  std::string bottom = " ";
  for (std::uint64_t c = 0; c < num_cols(); ++c) {
    top += column_is_true(c) ? '1' : '0';
    bottom += column_is_true(c) ? '0' : '1';
    if (c + 1 < num_cols()) {
      top += ' ';
      bottom += ' ';
    }
  }
  return top + " / " + bottom + "]";
}

}  // namespace stpes::stp
