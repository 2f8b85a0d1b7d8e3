/// \file factor_memo.hpp
/// \brief Per-run memo of requirement factorizations.
///
/// The DAG search re-derives the same child requirements across thousands
/// of candidate topologies that share sub-structure; the memo caches the
/// complete answer of `factor_requirement` for every query it has seen —
/// including the empty list, which is a real UNSAT verdict for the split,
/// not a cache miss.  Keys are full (no lossy hashing): a collision could
/// silently drop solutions.
///
/// Layout: an open-addressing table of `uint32` entry indices (power-of-two
/// size, linear probing) over an insertion-ordered entry array.  An entry
/// holds the 64-bit key hash, the three cones, the offset of its onset and
/// careset words in one shared word vector, and a span of its list.  Lists
/// are moved into fixed-capacity blocks that are never grown past their
/// reservation, so a span handed out stays valid for the memo's lifetime —
/// across slot-table growth and across `merge_from`, which takes over the
/// delta's blocks.  An empty list owns no storage.
///
/// Callers hash the requirement once (`requirement_hash`) and mix in each
/// split (`split_hash`), so a chunk of splits of one requirement pays for
/// one pass over the truth-table words.
///
/// Concurrency model: during one gate-count level of the parallel sweep
/// the memo accumulated from previous levels is immutable and read by all
/// worker tasks; each task records its new entries in a private delta
/// memo, and the deltas are folded back in task order once the workers
/// have joined.  That keeps every lookup lock-free and the hit/miss
/// counters bit-identical at any thread count.

#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "synth/factorize.hpp"

namespace stpes::synth {

/// Maps factorization queries — a requirement (cone + ISF) and a fixed
/// child cone split — to their complete (possibly empty) branch lists.
/// Deliberately NOT canonicalized under (cone_a, cone_b) exchange: the
/// per-family branch caps truncate the enumeration order-dependently, so a
/// mirrored query can legitimately yield a different surviving branch set.
class factor_memo {
public:
  using list = std::span<const factorization>;

  /// Hash of the requirement part of a key: cone, arity, onset, careset.
  [[nodiscard]] static std::uint64_t requirement_hash(const requirement& r);
  /// Full key hash: `requirement_hash(r)` with the split mixed in.
  [[nodiscard]] static std::uint64_t split_hash(std::uint64_t req_hash,
                                                cone_split split);

  /// Looks up `(r, split)` whose key hash is `hash`; nullopt when the
  /// query was never solved.  An empty span is a cached UNSAT verdict.
  [[nodiscard]] std::optional<list> find(std::uint64_t hash,
                                         const requirement& r,
                                         cone_split split) const;

  /// Records the answer for `(r, split)` by moving `value` into the arena
  /// and returns the stored list.  An existing entry is kept and returned
  /// (identical by construction — `factor_requirement` is a pure function
  /// of the key).
  list insert(std::uint64_t hash, const requirement& r, cone_split split,
              std::vector<factorization>&& value);

  /// Adopts entries of `delta` not already present, in the delta's
  /// insertion order, stopping once this memo holds `cap` entries (0 =
  /// unlimited); existing entries win.  Called once per worker task, in
  /// task order, after a parallel level has joined; the cap keeps the
  /// merged memo within the same bound the tasks honoured locally.  The
  /// delta's list blocks move over whole, so its spans stay valid.
  void merge_from(factor_memo&& delta, std::size_t cap = 0);

  [[nodiscard]] std::size_t size() const { return entries_.size(); }

private:
  struct entry {
    std::uint64_t hash;
    const factorization* items;
    std::uint32_t item_count;
    std::uint32_t cone;
    std::uint32_t cone_a;
    std::uint32_t cone_b;
    std::uint32_t key_offset;  // onset words, then careset words
    std::uint32_t num_vars;
  };

  static constexpr std::uint32_t kEmptySlot = ~std::uint32_t{0};
  static constexpr std::size_t kMinSlots = 16;

  [[nodiscard]] static std::size_t words_of(std::uint32_t num_vars) {
    return num_vars <= 6 ? 1 : std::size_t{1} << (num_vars - 6);
  }

  /// The key of a query or of a stored entry, with its words in place.
  struct key_view {
    std::uint64_t hash;
    std::uint32_t cone;
    std::uint32_t cone_a;
    std::uint32_t cone_b;
    std::uint32_t num_vars;
    const std::uint64_t* onset;
    const std::uint64_t* careset;
  };

  [[nodiscard]] static key_view view_of(std::uint64_t hash,
                                        const requirement& r,
                                        cone_split split) {
    return {hash,
            r.cone,
            split.a,
            split.b,
            r.func.num_vars(),
            r.func.onset().words().data(),
            r.func.careset().words().data()};
  }

  /// Slot holding the entry equal to `key`, or the empty slot where it
  /// would go.  Precondition: `slots_` is not empty.
  [[nodiscard]] std::size_t slot_of(const key_view& key) const;
  /// Appends an entry for `key` with the given list at the empty `slot`
  /// returned by `slot_of` (the table must not have grown since).
  void append(const key_view& key, list value, std::size_t slot);
  /// Grows the slot table so `entries` entries stay at most half full.
  void reserve_slots(std::size_t entries);
  /// Moves a non-empty list into the current block (or a fresh one).
  list store(std::vector<factorization>&& value);

  std::vector<std::uint32_t> slots_;
  std::vector<entry> entries_;
  std::vector<std::uint64_t> key_words_;
  std::vector<std::vector<factorization>> blocks_;
};

inline std::size_t factor_memo::slot_of(const key_view& key) const {
  const std::size_t mask = slots_.size() - 1;
  const std::size_t n = words_of(key.num_vars);
  for (std::size_t i = key.hash & mask;; i = (i + 1) & mask) {
    const std::uint32_t index = slots_[i];
    if (index == kEmptySlot) {
      return i;
    }
    const entry& e = entries_[index];
    if (e.hash == key.hash && e.cone == key.cone && e.cone_a == key.cone_a &&
        e.cone_b == key.cone_b && e.num_vars == key.num_vars) {
      const std::uint64_t* words = key_words_.data() + e.key_offset;
      if (std::equal(words, words + n, key.onset) &&
          std::equal(words + n, words + 2 * n, key.careset)) {
        return i;
      }
    }
  }
}

inline std::optional<factor_memo::list> factor_memo::find(
    std::uint64_t hash, const requirement& r, cone_split split) const {
  if (slots_.empty()) {
    return std::nullopt;
  }
  const std::uint32_t index = slots_[slot_of(view_of(hash, r, split))];
  if (index == kEmptySlot) {
    return std::nullopt;
  }
  const entry& e = entries_[index];
  return list{e.items, e.item_count};
}

}  // namespace stpes::synth
