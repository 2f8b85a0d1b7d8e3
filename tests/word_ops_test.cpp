// Word-array primitives: the packed word_storage layout, and the word
// loops (bulk connectives, ISF predicates, the batch loops of the
// factorization screen and the logic-matrix row expansion) checked against
// bit-level definitions and truth_table semantics on randomized inputs.

#include "tt/word_ops.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "tt/truth_table.hpp"
#include "util/rng.hpp"

namespace {

using stpes::tt::truth_table;
using stpes::tt::word_storage;
using stpes::util::rng;
namespace word_ops = stpes::tt::word_ops;

std::vector<std::uint64_t> random_words(rng& r, std::size_t n) {
  std::vector<std::uint64_t> out(n);
  for (auto& w : out) {
    w = r.next_u64();
  }
  return out;
}

// ---------------------------------------------------------------------------
// word_storage layout: 16 bytes, one inline word (<= 6 variables) sharing
// a union with the heap pointer, because the factor memo and every
// factorization carry these tables by value (EXPERIMENTS.md).

TEST(WordStorage, IsSixteenBytes) {
  // Duplicates the header's static_assert as a runtime statement of
  // intent: this struct is copied on the hottest path.
  EXPECT_EQ(sizeof(word_storage), 16u);
  EXPECT_EQ(sizeof(truth_table), 16u);
}

TEST(WordStorage, InlineWordLivesInsideTheObject) {
  // Up to 6 variables the word is stored in the object itself: on the
  // stack, in a vector, after moves.
  const auto inside = [](const truth_table& t) {
    const auto* obj = reinterpret_cast<const char*>(&t);
    const auto* word = reinterpret_cast<const char*>(t.words().data());
    return word >= obj && word < obj + sizeof(truth_table);
  };
  std::vector<truth_table> moved;
  for (unsigned n = 0; n <= 6; ++n) {
    const truth_table on_stack{n};
    EXPECT_TRUE(inside(on_stack)) << n;
    moved.push_back(truth_table{n});
  }
  for (const auto& t : moved) {
    EXPECT_TRUE(inside(t));
  }
  EXPECT_FALSE(inside(truth_table{7}));
}

TEST(WordStorage, AuxWordRoundTripsAndIsIgnoredByEquality) {
  word_storage a{2};
  word_storage b{2};
  a.set_aux(7);
  b.set_aux(9);
  EXPECT_EQ(a.aux(), 7u);
  EXPECT_TRUE(a == b);  // aux is owner metadata, not content
  const word_storage copy = a;
  EXPECT_EQ(copy.aux(), 7u);
}

TEST(WordStorage, TruthTableKeepsVariableCountInAux) {
  for (unsigned n = 0; n <= 10; ++n) {
    const truth_table f{n};
    EXPECT_EQ(f.num_vars(), n);
    EXPECT_EQ(f.words().aux(), n);
    EXPECT_EQ(f.num_bits(), std::uint64_t{1} << n);
  }
}

TEST(WordStorage, HeapSpillKeepsCountAndContents) {
  word_storage big{16};  // 10 variables: past the inline buffer
  EXPECT_EQ(big.size(), 16u);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = i * 0x0101010101010101ull;
  }
  const word_storage copy = big;
  EXPECT_TRUE(copy == big);
}

// Copy, move and assignment across the inline/heap boundary (6 | 7
// variables): every pair of sizes 0..10 in both directions, checked
// against an independent copy of the source contents.

truth_table random_table(rng& r, unsigned n) {
  truth_table t{n};
  for (std::uint64_t i = 0; i < t.num_bits(); ++i) {
    t.set_bit(i, (r.next_u64() & 1) != 0);
  }
  return t;
}

TEST(WordStorage, CopyAndMoveConstructAtEverySize) {
  rng r{11};
  for (unsigned n = 0; n <= 10; ++n) {
    const truth_table src = random_table(r, n);
    const std::string hex = src.to_hex();
    truth_table copy{src};
    EXPECT_EQ(copy, src) << n;
    EXPECT_EQ(copy.num_vars(), n);
    if (n > 6) {
      EXPECT_NE(copy.words().data(), src.words().data()) << n;
    }
    truth_table moved{std::move(copy)};
    EXPECT_EQ(moved.to_hex(), hex) << n;
    EXPECT_EQ(moved.num_vars(), n);
    // The moved-from table is reusable: assign, then use it.
    copy = src;
    EXPECT_EQ(copy.to_hex(), hex) << n;
    EXPECT_EQ(src.to_hex(), hex) << n;
  }
}

TEST(WordStorage, CopyAndMoveAssignAcrossInlineHeapBoundary) {
  rng r{12};
  for (unsigned from = 0; from <= 10; ++from) {
    for (unsigned to = 0; to <= 10; ++to) {
      const truth_table src = random_table(r, from);
      const std::string hex = src.to_hex();
      truth_table dst = random_table(r, to);
      dst = src;
      EXPECT_EQ(dst, src) << from << " over " << to;
      EXPECT_EQ(dst.num_vars(), from);
      EXPECT_EQ(dst.to_hex(), hex);

      truth_table mdst = random_table(r, to);
      truth_table tmp{src};
      mdst = std::move(tmp);
      EXPECT_EQ(mdst.to_hex(), hex) << from << " over " << to;
      EXPECT_EQ(mdst.num_vars(), from);
      // Reuse the moved-from source at the other size.
      tmp = random_table(r, to);
      EXPECT_EQ(tmp.num_vars(), to);
      tmp = mdst;
      EXPECT_EQ(tmp, src);
    }
  }
}

TEST(WordStorage, TenVariablesOverFourAndBack) {
  rng r{13};
  const truth_table big = random_table(r, 10);
  const truth_table small = random_table(r, 4);
  truth_table t = small;
  t = big;
  EXPECT_EQ(t, big);
  t = small;
  EXPECT_EQ(t, small);
  t = truth_table{big};  // move-assign heap over inline
  EXPECT_EQ(t, big);
  t = truth_table{small};  // move-assign inline over heap
  EXPECT_EQ(t, small);
  EXPECT_EQ(t.words().size(), 1u);
}

TEST(WordStorage, SelfAssignKeepsContents) {
  rng r{14};
  for (const unsigned n : {0u, 4u, 6u, 7u, 10u}) {
    truth_table t = random_table(r, n);
    const std::string hex = t.to_hex();
    truth_table& alias = t;
    t = alias;
    EXPECT_EQ(t.to_hex(), hex) << n;
    t = std::move(alias);
    EXPECT_EQ(t.to_hex(), hex) << n;
  }
}

TEST(WordStorage, MovedFromHeapStorageIsEmptyAndReusable) {
  word_storage big{16};
  big[3] = 42;
  word_storage stolen{std::move(big)};
  EXPECT_EQ(stolen.size(), 16u);
  EXPECT_EQ(stolen[3], 42u);
  EXPECT_EQ(big.size(), 0u);  // NOLINT(bugprone-use-after-move)
  big = stolen;
  EXPECT_TRUE(big == stolen);
  big = word_storage{1};
  EXPECT_EQ(big.size(), 1u);
  EXPECT_EQ(big[0], 0u);
}

// ---------------------------------------------------------------------------
// Per-op checks of the word loops against bit-level definitions and
// truth_table semantics.  The suite keeps the parameterized names it had
// when the word operations came in several implementations; `scalar` is
// the one left.

enum class word_impl { scalar };

class KernelTierEquivalence : public ::testing::TestWithParam<word_impl> {};

constexpr std::size_t kSizes[] = {1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 33};

bool bit(const std::vector<std::uint64_t>& w, std::size_t t) {
  return ((w[t / 64] >> (t % 64)) & 1u) != 0;
}

TEST_P(KernelTierEquivalence, BooleanConnectives) {
  rng r{1};
  for (const std::size_t n : kSizes) {
    const auto a = random_words(r, n);
    const auto b = random_words(r, n);
    std::vector<std::uint64_t> and_w(n);
    std::vector<std::uint64_t> or_w(n);
    std::vector<std::uint64_t> xor_w(n);
    word_ops::bulk_and(and_w.data(), a.data(), b.data(), n);
    word_ops::bulk_or(or_w.data(), a.data(), b.data(), n);
    word_ops::bulk_xor(xor_w.data(), a.data(), b.data(), n);
    for (std::size_t t = 0; t < 64 * n; ++t) {
      ASSERT_EQ(bit(and_w, t), bit(a, t) && bit(b, t)) << "and n=" << n;
      ASSERT_EQ(bit(or_w, t), bit(a, t) || bit(b, t)) << "or n=" << n;
      ASSERT_EQ(bit(xor_w, t), bit(a, t) != bit(b, t)) << "xor n=" << n;
    }

    // dst may alias a source operand.
    auto aliased = a;
    word_ops::bulk_xor(aliased.data(), aliased.data(), b.data(), n);
    EXPECT_EQ(aliased, xor_w) << "aliased xor n=" << n;

    for (const std::uint64_t mask :
         {~std::uint64_t{0}, std::uint64_t{0xff}, std::uint64_t{1}}) {
      std::vector<std::uint64_t> not_w(n);
      word_ops::bulk_not_mask(not_w.data(), a.data(), n, mask);
      for (std::size_t t = 0; t < 64 * n; ++t) {
        const bool in_mask = t < 64 * (n - 1) || ((mask >> (t % 64)) & 1u);
        ASSERT_EQ(bit(not_w, t), in_mask && !bit(a, t))
            << "not_mask n=" << n << " mask=" << mask << " t=" << t;
      }
    }
  }
}

TEST_P(KernelTierEquivalence, Predicates) {
  rng r{2};
  for (const std::size_t n : kSizes) {
    for (int round = 0; round < 32; ++round) {
      const auto a = random_words(r, n);
      const auto b = random_words(r, n);
      auto c = random_words(r, n);
      // Sparsify so both predicate outcomes actually occur.
      for (auto& w : c) {
        w &= r.next_u64() & r.next_u64() & r.next_u64();
      }
      bool any = false;
      for (std::size_t t = 0; t < 64 * n; ++t) {
        any = any || (bit(a, t) && bit(b, t) && bit(c, t));
      }
      EXPECT_EQ(word_ops::words_any_and3(a.data(), b.data(), c.data(), n),
                any)
          << "any_and3 n=" << n;

      // accepts: the true case (on = cand & care) and a perturbed one.
      std::vector<std::uint64_t> on(n);
      for (std::size_t i = 0; i < n; ++i) {
        on[i] = a[i] & b[i];
      }
      EXPECT_TRUE(word_ops::words_accept(a.data(), b.data(), on.data(), n));
      const std::size_t flip = r.next_u64() % (64 * n);
      on[flip / 64] ^= std::uint64_t{1} << (flip % 64);
      EXPECT_FALSE(word_ops::words_accept(a.data(), b.data(), on.data(), n))
          << "accepts n=" << n;

      const auto a_care = random_words(r, n);
      const auto b_care = random_words(r, n);
      bool conflict = false;
      for (std::size_t t = 0; t < 64 * n; ++t) {
        conflict = conflict || (bit(a_care, t) && bit(b_care, t) &&
                                bit(a, t) != bit(b, t));
      }
      EXPECT_EQ(word_ops::words_conflict(a.data(), b.data(), a_care.data(),
                                         b_care.data(), n),
                conflict)
          << "isf_conflict n=" << n;
      // Compatible pair: b agrees with a wherever both care.
      EXPECT_FALSE(word_ops::words_conflict(a.data(), a.data(), a_care.data(),
                                            b_care.data(), n));
    }
  }
}

TEST_P(KernelTierEquivalence, CofactorSplitMatchesTruthTable) {
  // The Shannon split of multi-word tables on the in-word variables 0..5.
  rng r{3};
  for (unsigned num_vars = 6; num_vars <= 9; ++num_vars) {
    const std::size_t n = std::size_t{1} << (num_vars - 6);
    const auto words = random_words(r, n);
    const auto f = truth_table::from_words(num_vars, words.data(), n);
    for (unsigned var = 0; var < 6; ++var) {
      const auto lo = f.cofactor0(var);
      const auto hi = f.cofactor1(var);
      const std::uint64_t step = std::uint64_t{1} << var;
      for (std::uint64_t t = 0; t < f.num_bits(); ++t) {
        ASSERT_EQ(lo.get_bit(t), f.get_bit(t & ~step))
            << "n=" << num_vars << " var=" << var << " t=" << t;
        ASSERT_EQ(hi.get_bit(t), f.get_bit(t | step))
            << "n=" << num_vars << " var=" << var << " t=" << t;
      }
    }
  }
}

TEST_P(KernelTierEquivalence, SmoothBatchMatchesTruthTable) {
  rng r{4};
  constexpr std::size_t kLanes = 37;
  for (unsigned var = 0; var < 6; ++var) {
    auto lanes = random_words(r, kLanes);
    const auto original = lanes;
    std::vector<std::uint8_t> select(kLanes);
    for (auto& s : select) {
      s = (r.next_u64() & 1) != 0 ? 1 : 0;
    }
    word_ops::smooth_var_w1_masked(lanes.data(), select.data(), kLanes, var);
    for (std::size_t i = 0; i < kLanes; ++i) {
      if (select[i] == 0) {
        EXPECT_EQ(lanes[i], original[i]) << "lane " << i << " var " << var;
        continue;
      }
      const auto f = truth_table::from_words(6, &original[i], 1);
      EXPECT_EQ(lanes[i], f.smooth(var).words()[0])
          << "lane " << i << " var " << var;
    }
  }
}

TEST_P(KernelTierEquivalence, BatchedAnd3Verdicts) {
  rng r{5};
  constexpr std::size_t kLanes = 41;
  const auto a = random_words(r, kLanes);
  const auto b = random_words(r, kLanes);
  auto c = random_words(r, kLanes);
  for (auto& w : c) {
    w &= r.next_u64() & r.next_u64();  // mix zero and non-zero verdicts
  }
  std::vector<std::uint8_t> verdict(kLanes, 0xcc);
  word_ops::and3_nonzero_w1(a.data(), b.data(), c.data(), kLanes,
                            verdict.data());
  for (std::size_t i = 0; i < kLanes; ++i) {
    const auto fa = truth_table::from_words(6, &a[i], 1);
    const auto fb = truth_table::from_words(6, &b[i], 1);
    const auto fc = truth_table::from_words(6, &c[i], 1);
    EXPECT_EQ(verdict[i], (fa & fb & fc).is_const0() ? 0 : 1)
        << "lane " << i;
  }
}

TEST_P(KernelTierEquivalence, ReverseTableIsBitReversal) {
  rng r{6};
  for (unsigned num_vars = 0; num_vars <= 9; ++num_vars) {
    const std::size_t n =
        num_vars < 6 ? 1 : (std::size_t{1} << (num_vars - 6));
    const auto words = random_words(r, n);
    const auto f = truth_table::from_words(num_vars, words.data(), n);
    std::vector<std::uint64_t> dst(n, 0xdeadbeefdeadbeefull);
    word_ops::reverse_table(dst.data(), f.words().data(), num_vars);
    const auto rev = truth_table::from_words(num_vars, dst.data(), n);
    for (std::uint64_t t = 0; t < f.num_bits(); ++t) {
      ASSERT_EQ(rev.get_bit(t), f.get_bit(f.num_bits() - 1 - t))
          << "num_vars=" << num_vars << " t=" << t;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AvailableTiers, KernelTierEquivalence,
    ::testing::Values(word_impl::scalar),
    [](const ::testing::TestParamInfo<word_impl>&) { return "scalar"; });

}  // namespace
