/// \file truth_table.hpp
/// \brief Dynamic bit-vector truth tables for Boolean functions of up to 16
///        variables.
///
/// Bit `t` of a table holds `f(x)` for the input assignment where bit `i` of
/// the integer `t` is the value of variable `x_i` (variable 0 is the least
/// significant input).  This matches the convention of the `kitty` library
/// and of ABC, so hexadecimal strings printed here (`0x8ff8`, ...) are
/// directly comparable to the ones in the paper.
///
/// The class supports all Boolean connectives, cofactoring, support
/// computation, variable permutation/negation, and (de)serialization to hex
/// strings.  Functions of interest in this project have n <= 8 (<= 256 bits),
/// so all operations favour clarity over large-n tuning.  The synthesis
/// hot path works on n <= 6, where a table is one inline word and the whole
/// object is 16 bytes (see `word_storage`).

#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace stpes::tt {

/// Word storage with a small-buffer optimization: a table of up to 6
/// variables (one word) lives inline — the synthesis engines copy truth
/// tables in their innermost loops, and every table they build there has
/// at most 6 variables.  Tables of 7..16 variables spill to the heap.
///
/// The layout is 16 bytes: the inline word shares a union with the heap
/// pointer, then a 32-bit word count and one spare 32-bit `aux` word
/// donated to the owning class (truth_table keeps its variable count
/// there).  An inline copy is one word copy; a heap copy allocates.  A
/// move steals the heap pointer and leaves the source empty (zero words)
/// but assignable and destructible; an inline move is a copy.
class word_storage {
public:
  word_storage() = default;
  explicit word_storage(std::size_t count)
      : count_(static_cast<std::uint32_t>(count)) {
    if (count > kInline) {
      slot_.heap = new std::uint64_t[count]();
    }
  }
  word_storage(const word_storage& other)
      : count_(other.count_), aux_(other.aux_) {
    if (other.on_heap()) {
      slot_.heap = new std::uint64_t[count_];
      std::memcpy(slot_.heap, other.slot_.heap,
                  count_ * sizeof(std::uint64_t));
    } else {
      slot_.word = other.slot_.word;
    }
  }
  word_storage(word_storage&& other) noexcept
      : slot_(other.slot_), count_(other.count_), aux_(other.aux_) {
    other.release_heap();
  }
  word_storage& operator=(const word_storage& other) {
    if (this == &other) {
      return *this;
    }
    if (!other.on_heap()) {
      free_heap();
      slot_.word = other.slot_.word;
    } else {
      if (count_ != other.count_) {
        auto* fresh = new std::uint64_t[other.count_];
        free_heap();
        slot_.heap = fresh;
      }
      std::memcpy(slot_.heap, other.slot_.heap,
                  other.count_ * sizeof(std::uint64_t));
    }
    count_ = other.count_;
    aux_ = other.aux_;
    return *this;
  }
  word_storage& operator=(word_storage&& other) noexcept {
    if (this != &other) {
      free_heap();
      slot_ = other.slot_;
      count_ = other.count_;
      aux_ = other.aux_;
      other.release_heap();
    }
    return *this;
  }
  ~word_storage() { free_heap(); }

  [[nodiscard]] std::size_t size() const { return count_; }
  [[nodiscard]] std::uint64_t* data() {
    return on_heap() ? slot_.heap : &slot_.word;
  }
  [[nodiscard]] const std::uint64_t* data() const {
    return on_heap() ? slot_.heap : &slot_.word;
  }
  std::uint64_t& operator[](std::size_t i) { return data()[i]; }
  const std::uint64_t& operator[](std::size_t i) const { return data()[i]; }
  [[nodiscard]] std::uint64_t* begin() { return data(); }
  [[nodiscard]] std::uint64_t* end() { return data() + count_; }
  [[nodiscard]] const std::uint64_t* begin() const { return data(); }
  [[nodiscard]] const std::uint64_t* end() const { return data() + count_; }

  /// The spare word beside the count; owned by the containing class,
  /// copied and moved with the storage, ignored by operator==.
  [[nodiscard]] std::uint32_t aux() const { return aux_; }
  void set_aux(std::uint32_t value) { aux_ = value; }

  bool operator==(const word_storage& other) const {
    return count_ == other.count_ &&
           std::memcmp(data(), other.data(), count_ * sizeof(std::uint64_t)) ==
               0;
  }

private:
  static constexpr std::size_t kInline = 1;

  [[nodiscard]] bool on_heap() const { return count_ > kInline; }
  void free_heap() {
    if (on_heap()) {
      delete[] slot_.heap;
    }
  }
  /// After a move: the heap buffer now belongs to the destination, so a
  /// heap source drops to zero words.  An inline source keeps its word.
  void release_heap() {
    if (on_heap()) {
      slot_.word = 0;
      count_ = 0;
    }
  }

  /// The inline word, or the heap buffer when count_ > kInline.  Copied
  /// as a whole on moves (a union copy carries whichever member is live).
  union slot {
    std::uint64_t word;
    std::uint64_t* heap;
  };
  slot slot_{0};
  std::uint32_t count_ = 0;
  std::uint32_t aux_ = 0;
};

static_assert(sizeof(word_storage) == 16,
              "word_storage must stay one word plus count and aux: it is "
              "copied in every truth-table copy on the synthesis hot path");

/// A completely specified Boolean function of `num_vars()` inputs.
class truth_table {
public:
  /// Constant-false function of `num_vars` inputs (0 <= num_vars <= 16).
  explicit truth_table(unsigned num_vars = 0);

  /// Builds a table from the low `2^num_vars` bits of `bits` (num_vars <= 6).
  truth_table(unsigned num_vars, std::uint64_t bits);

  /// \name Basic observers
  /// @{
  [[nodiscard]] unsigned num_vars() const { return words_.aux(); }
  [[nodiscard]] std::uint64_t num_bits() const {
    return std::uint64_t{1} << words_.aux();
  }
  [[nodiscard]] bool get_bit(std::uint64_t index) const;
  void set_bit(std::uint64_t index, bool value);
  [[nodiscard]] std::uint64_t count_ones() const;
  [[nodiscard]] bool is_const0() const;
  [[nodiscard]] bool is_const1() const;
  /// Raw 64-bit words (little-endian in minterm order); internal layout.
  [[nodiscard]] const word_storage& words() const { return words_; }
  /// @}

  /// \name Factory functions
  /// @{
  /// The projection function `x_var` over `num_vars` inputs.
  static truth_table nth_var(unsigned num_vars, unsigned var,
                             bool complemented = false);
  /// Constant zero / one.
  static truth_table constant(unsigned num_vars, bool value);
  /// Parses a hex string such as "0x8ff8" (most significant minterm first).
  /// The string must contain exactly `2^num_vars / 4` hex digits for
  /// num_vars >= 2 (one digit encodes minterms for n = 2).
  static truth_table from_hex(unsigned num_vars, std::string_view hex);
  /// Parses a binary string of length 2^num_vars, most significant minterm
  /// (all-ones assignment) first.
  static truth_table from_binary(unsigned num_vars, std::string_view bits);
  /// Builds a table directly from `count` packed words (minterm order);
  /// `count` must equal `words().size()` for `num_vars`.  Excess bits are
  /// masked off.
  static truth_table from_words(unsigned num_vars, const std::uint64_t* words,
                                std::size_t count);
  /// @}

  /// \name Boolean connectives (operands must have equal num_vars)
  /// @{
  truth_table operator~() const;
  truth_table operator&(const truth_table& other) const;
  truth_table operator|(const truth_table& other) const;
  truth_table operator^(const truth_table& other) const;
  truth_table& operator&=(const truth_table& other);
  truth_table& operator|=(const truth_table& other);
  truth_table& operator^=(const truth_table& other);
  bool operator==(const truth_table& other) const;
  bool operator!=(const truth_table& other) const;
  /// Total order (by size, then lexicographic on words); used for
  /// canonical representatives and map keys.
  bool operator<(const truth_table& other) const;
  /// @}

  /// \name Structural operations
  /// @{
  /// Negative/positive cofactor with respect to variable `var`; the result
  /// keeps the same number of variables (the cofactored variable becomes
  /// irrelevant).
  [[nodiscard]] truth_table cofactor0(unsigned var) const;
  [[nodiscard]] truth_table cofactor1(unsigned var) const;
  /// True iff the function depends on variable `var`.
  [[nodiscard]] bool has_var(unsigned var) const;
  /// Bitmask of variables the function depends on.
  [[nodiscard]] std::uint32_t support_mask() const;
  /// Number of variables in the support.
  [[nodiscard]] unsigned support_size() const;
  /// Exchanges the roles of variables `a` and `b`.
  [[nodiscard]] truth_table swap_variables(unsigned a, unsigned b) const;
  /// Complements input variable `var` (i.e. f(..., ~x_var, ...)).
  [[nodiscard]] truth_table flip_variable(unsigned var) const;
  /// Applies an input permutation: new variable `i` plays the role of old
  /// variable `perm[i]`.  `perm` must be a permutation of [0, num_vars).
  [[nodiscard]] truth_table permute(const std::vector<unsigned>& perm) const;
  /// Re-expresses the function over `new_num_vars >= num_vars()` inputs
  /// (extra variables are irrelevant).
  [[nodiscard]] truth_table extend_to(unsigned new_num_vars) const;
  /// Removes irrelevant variables, compacting the support to the lowest
  /// indices while preserving their relative order.  `old_of_new`, when
  /// non-null, receives for each new variable the index of the original
  /// variable it represents.
  [[nodiscard]] truth_table shrink_to_support(
      std::vector<unsigned>* old_of_new = nullptr) const;
  /// Existential quantification of `var`: bit `t` of the result is
  /// `f(t[var:=0]) | f(t[var:=1])`, so the result no longer depends on
  /// `var` (the merged value is replicated along it).
  [[nodiscard]] truth_table smooth(unsigned var) const;
  /// Existential quantification over every variable in `var_mask` (bits
  /// at or above `num_vars()` are ignored).  The result is constant along
  /// the quantified variables — one word-parallel pass per variable.
  [[nodiscard]] truth_table smooth_over(std::uint32_t var_mask) const;
  /// @}

  /// \name Serialization
  /// @{
  [[nodiscard]] std::string to_hex() const;     ///< e.g. "0x8ff8"
  [[nodiscard]] std::string to_binary() const;  ///< MSB (all-ones row) first
  /// @}

  /// FNV-1a hash of the table contents (for unordered containers).
  [[nodiscard]] std::size_t hash() const;

private:
  void mask_excess_bits();
  void smooth_in_place(unsigned var);

  // The variable count lives in words_.aux(): keeping it outside the
  // storage would grow every table from 16 to 24 bytes.
  word_storage words_;
};

/// Hash functor for unordered containers keyed by truth tables.
struct truth_table_hash {
  std::size_t operator()(const truth_table& tt) const { return tt.hash(); }
};

/// Applies a 2-input operator given by the low 4 bits of `op` to two
/// equal-arity operands: bit (b<<1|a) of `op` is the output for inputs
/// (a = first operand, b = second operand).
truth_table apply_binary_op(unsigned op, const truth_table& a,
                            const truth_table& b);

}  // namespace stpes::tt
