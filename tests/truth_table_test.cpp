#include "tt/truth_table.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "util/rng.hpp"

namespace {

using stpes::tt::apply_binary_op;
using stpes::tt::truth_table;

TEST(TruthTable, ConstantsAndBitAccess) {
  for (unsigned n = 0; n <= 8; ++n) {
    const auto zero = truth_table::constant(n, false);
    const auto one = truth_table::constant(n, true);
    EXPECT_TRUE(zero.is_const0());
    EXPECT_TRUE(one.is_const1());
    EXPECT_EQ(zero.count_ones(), 0u);
    EXPECT_EQ(one.count_ones(), one.num_bits());
    EXPECT_EQ(one.num_bits(), std::uint64_t{1} << n);
  }
}

TEST(TruthTable, SetAndGetBitRoundTrip) {
  truth_table f{7};
  for (std::uint64_t t = 0; t < f.num_bits(); t += 3) {
    f.set_bit(t, true);
  }
  for (std::uint64_t t = 0; t < f.num_bits(); ++t) {
    EXPECT_EQ(f.get_bit(t), t % 3 == 0) << "bit " << t;
  }
  f.set_bit(0, false);
  EXPECT_FALSE(f.get_bit(0));
}

TEST(TruthTable, NthVarMatchesDefinition) {
  for (unsigned n = 1; n <= 8; ++n) {
    for (unsigned v = 0; v < n; ++v) {
      const auto x = truth_table::nth_var(n, v);
      const auto nx = truth_table::nth_var(n, v, /*complemented=*/true);
      for (std::uint64_t t = 0; t < x.num_bits(); ++t) {
        EXPECT_EQ(x.get_bit(t), ((t >> v) & 1) != 0);
        EXPECT_EQ(nx.get_bit(t), ((t >> v) & 1) == 0);
      }
    }
  }
}

TEST(TruthTable, BooleanOperators) {
  const unsigned n = 5;
  const auto a = truth_table::nth_var(n, 0);
  const auto b = truth_table::nth_var(n, 3);
  const auto f = (a & b) | (~a & ~b);  // XNOR
  for (std::uint64_t t = 0; t < f.num_bits(); ++t) {
    const bool av = (t >> 0) & 1;
    const bool bv = (t >> 3) & 1;
    EXPECT_EQ(f.get_bit(t), av == bv);
  }
  EXPECT_EQ(a ^ b, ~f);
}

TEST(TruthTable, HexRoundTrip) {
  const auto f = truth_table::from_hex(4, "0x8ff8");
  EXPECT_EQ(f.to_hex(), "0x8ff8");
  // 0x8ff8 is (x0 & x1) | (x2 ^ x3) in the paper's (a,b,c,d) = (x0..x3)
  // reading (Example 7).
  const auto a = truth_table::nth_var(4, 0);
  const auto b = truth_table::nth_var(4, 1);
  const auto c = truth_table::nth_var(4, 2);
  const auto d = truth_table::nth_var(4, 3);
  EXPECT_EQ(f, (a & b) | (c ^ d));
}

TEST(TruthTable, HexRoundTripLarge) {
  stpes::util::rng rng{42};
  for (int iteration = 0; iteration < 20; ++iteration) {
    truth_table f{8};
    for (std::uint64_t t = 0; t < f.num_bits(); ++t) {
      f.set_bit(t, rng.next_bool());
    }
    EXPECT_EQ(truth_table::from_hex(8, f.to_hex()), f);
    EXPECT_EQ(truth_table::from_binary(8, f.to_binary()), f);
  }
}

TEST(TruthTable, HexRejectsBadInput) {
  EXPECT_THROW(truth_table::from_hex(4, "0x8ff"), std::invalid_argument);
  EXPECT_THROW(truth_table::from_hex(4, "0x8fzg"), std::invalid_argument);
  EXPECT_THROW(truth_table::from_binary(2, "10"), std::invalid_argument);
}

TEST(TruthTable, CofactorsAgreeWithSemantics) {
  stpes::util::rng rng{7};
  for (unsigned n = 1; n <= 8; ++n) {
    truth_table f{n};
    for (std::uint64_t t = 0; t < f.num_bits(); ++t) {
      f.set_bit(t, rng.next_bool());
    }
    for (unsigned v = 0; v < n; ++v) {
      const auto f0 = f.cofactor0(v);
      const auto f1 = f.cofactor1(v);
      for (std::uint64_t t = 0; t < f.num_bits(); ++t) {
        const std::uint64_t t0 = t & ~(std::uint64_t{1} << v);
        const std::uint64_t t1 = t | (std::uint64_t{1} << v);
        EXPECT_EQ(f0.get_bit(t), f.get_bit(t0));
        EXPECT_EQ(f1.get_bit(t), f.get_bit(t1));
      }
    }
  }
}

TEST(TruthTable, SupportDetection) {
  const unsigned n = 6;
  const auto f = truth_table::nth_var(n, 1) ^ truth_table::nth_var(n, 4);
  EXPECT_TRUE(f.has_var(1));
  EXPECT_TRUE(f.has_var(4));
  EXPECT_FALSE(f.has_var(0));
  EXPECT_FALSE(f.has_var(5));
  EXPECT_EQ(f.support_mask(), (1u << 1) | (1u << 4));
  EXPECT_EQ(f.support_size(), 2u);
}

TEST(TruthTable, SwapVariablesInvolution) {
  stpes::util::rng rng{11};
  truth_table f{6};
  for (std::uint64_t t = 0; t < f.num_bits(); ++t) {
    f.set_bit(t, rng.next_bool());
  }
  for (unsigned a = 0; a < 6; ++a) {
    for (unsigned b = 0; b < 6; ++b) {
      EXPECT_EQ(f.swap_variables(a, b).swap_variables(a, b), f);
    }
  }
  // Swapping in a symmetric function is the identity.
  const auto maj =
      (truth_table::nth_var(3, 0) & truth_table::nth_var(3, 1)) |
      (truth_table::nth_var(3, 0) & truth_table::nth_var(3, 2)) |
      (truth_table::nth_var(3, 1) & truth_table::nth_var(3, 2));
  EXPECT_EQ(maj.swap_variables(0, 2), maj);
}

TEST(TruthTable, FlipVariableSemantics) {
  const auto a = truth_table::nth_var(4, 2);
  EXPECT_EQ(a.flip_variable(2), ~a);
  const auto f = truth_table::from_hex(4, "0x8ff8");
  EXPECT_EQ(f.flip_variable(0).flip_variable(0), f);
}

TEST(TruthTable, PermuteMatchesRepeatedSwaps) {
  const auto f = truth_table::from_hex(4, "0xcafe");
  // Rotation (0 1 2 3) -> new var i plays role of old var perm[i].
  const auto g = f.permute({1, 2, 3, 0});
  for (std::uint64_t t = 0; t < 16; ++t) {
    std::uint64_t src = 0;
    for (unsigned i = 0; i < 4; ++i) {
      if ((t >> i) & 1) {
        src |= std::uint64_t{1} << ((i + 1) % 4);
      }
    }
    EXPECT_EQ(g.get_bit(t), f.get_bit(src));
  }
  // Identity permutation.
  EXPECT_EQ(f.permute({0, 1, 2, 3}), f);
}

TEST(TruthTable, ExtendPreservesFunction) {
  const auto f = truth_table::from_hex(3, "0xe8");  // MAJ3
  const auto g = f.extend_to(5);
  EXPECT_EQ(g.num_vars(), 5u);
  for (std::uint64_t t = 0; t < 32; ++t) {
    EXPECT_EQ(g.get_bit(t), f.get_bit(t & 7));
  }
  EXPECT_FALSE(g.has_var(3));
  EXPECT_FALSE(g.has_var(4));
}

TEST(TruthTable, ShrinkToSupport) {
  const unsigned n = 6;
  const auto f = truth_table::nth_var(n, 2) & truth_table::nth_var(n, 5);
  std::vector<unsigned> old_of_new;
  const auto g = f.shrink_to_support(&old_of_new);
  EXPECT_EQ(g.num_vars(), 2u);
  EXPECT_EQ(old_of_new, (std::vector<unsigned>{2, 5}));
  EXPECT_EQ(g, truth_table(2, 0x8));  // AND
}

TEST(TruthTable, ApplyBinaryOpCoversAll16) {
  const auto a = truth_table::nth_var(2, 0);
  const auto b = truth_table::nth_var(2, 1);
  for (unsigned op = 0; op < 16; ++op) {
    const auto f = apply_binary_op(op, a, b);
    for (std::uint64_t t = 0; t < 4; ++t) {
      const unsigned av = t & 1;
      const unsigned bv = (t >> 1) & 1;
      EXPECT_EQ(f.get_bit(t), ((op >> ((bv << 1) | av)) & 1) != 0)
          << "op " << op << " minterm " << t;
    }
  }
}

TEST(TruthTable, OrderingIsTotalAndConsistent) {
  const auto f = truth_table::from_hex(4, "0x0001");
  const auto g = truth_table::from_hex(4, "0x8000");
  EXPECT_TRUE(f < g);
  EXPECT_FALSE(g < f);
  EXPECT_FALSE(f < f);
}

TEST(TruthTable, HashDistinguishesSimpleCases) {
  const auto f = truth_table::from_hex(4, "0x8ff8");
  const auto g = truth_table::from_hex(4, "0x8ff9");
  EXPECT_NE(f.hash(), g.hash());
  EXPECT_EQ(f.hash(), truth_table::from_hex(4, "0x8ff8").hash());
}

class TruthTableVarSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(TruthTableVarSweep, DeMorganHoldsForRandomFunctions) {
  const unsigned n = GetParam();
  stpes::util::rng rng{1000 + n};
  for (int iteration = 0; iteration < 10; ++iteration) {
    truth_table f{n};
    truth_table g{n};
    for (std::uint64_t t = 0; t < f.num_bits(); ++t) {
      f.set_bit(t, rng.next_bool());
      g.set_bit(t, rng.next_bool());
    }
    EXPECT_EQ(~(f & g), ~f | ~g);
    EXPECT_EQ(~(f | g), ~f & ~g);
    EXPECT_EQ(f ^ g, (f | g) & ~(f & g));
    // The identities would also hold for an operator that is wrong on
    // every bit, so check each connective against the bits themselves.
    const auto f_not = ~f;
    const auto f_and = f & g;
    const auto f_or = f | g;
    const auto f_xor = f ^ g;
    for (std::uint64_t t = 0; t < f.num_bits(); ++t) {
      const bool a = f.get_bit(t);
      const bool b = g.get_bit(t);
      ASSERT_EQ(f_not.get_bit(t), !a) << "n=" << n << " t=" << t;
      ASSERT_EQ(f_and.get_bit(t), a && b) << "n=" << n << " t=" << t;
      ASSERT_EQ(f_or.get_bit(t), a || b) << "n=" << n << " t=" << t;
      ASSERT_EQ(f_xor.get_bit(t), a != b) << "n=" << n << " t=" << t;
    }
    // ~ must leave the bits past the last minterm clear.
    EXPECT_EQ(f_not.count_ones(), f.num_bits() - f.count_ones());
  }
}

TEST_P(TruthTableVarSweep, ShannonExpansionHolds) {
  const unsigned n = GetParam();
  if (n == 0) {
    GTEST_SKIP();
  }
  stpes::util::rng rng{2000 + n};
  truth_table f{n};
  for (std::uint64_t t = 0; t < f.num_bits(); ++t) {
    f.set_bit(t, rng.next_bool());
  }
  for (unsigned v = 0; v < n; ++v) {
    const auto x = truth_table::nth_var(n, v);
    EXPECT_EQ((x & f.cofactor1(v)) | (~x & f.cofactor0(v)), f);
  }
}

INSTANTIATE_TEST_SUITE_P(AllSizes, TruthTableVarSweep,
                         ::testing::Values(0u, 1u, 2u, 3u, 4u, 5u, 6u, 7u,
                                           8u, 9u, 10u));

}  // namespace
