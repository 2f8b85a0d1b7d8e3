#include "tt/isf.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace {

using stpes::tt::isf;
using stpes::tt::truth_table;

truth_table random_tt(unsigned n, stpes::util::rng& rng) {
  truth_table f{n};
  for (std::uint64_t t = 0; t < f.num_bits(); ++t) {
    f.set_bit(t, rng.next_bool());
  }
  return f;
}

TEST(Isf, FromFunctionIsFullySpecified) {
  const auto f = truth_table::from_hex(3, "0xe8");
  const auto spec = isf::from_function(f);
  EXPECT_TRUE(spec.is_fully_specified());
  EXPECT_TRUE(spec.accepts(f));
  EXPECT_FALSE(spec.accepts(~f));
  EXPECT_EQ(spec.onset(), f);
}

TEST(Isf, UnconstrainedAcceptsEverything) {
  const isf any{4};
  EXPECT_TRUE(any.is_unconstrained());
  stpes::util::rng rng{3};
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(any.accepts(random_tt(4, rng)));
  }
}

TEST(Isf, OnsetIsMaskedByCareset) {
  const auto on = truth_table::constant(3, true);
  truth_table care{3};
  care.set_bit(1, true);
  care.set_bit(5, true);
  const isf partial{on, care};
  EXPECT_EQ(partial.onset().count_ones(), 2u);
  EXPECT_EQ(partial.care_count(), 2u);
}

TEST(Isf, ComplementSwapsOnAndOff) {
  stpes::util::rng rng{17};
  const auto on = random_tt(4, rng);
  const auto care = random_tt(4, rng) | on;
  const isf spec{on, care};
  const isf comp = spec.complement();
  EXPECT_EQ(comp.careset(), spec.careset());
  EXPECT_EQ(comp.onset(), spec.offset());
  EXPECT_EQ(comp.offset(), spec.onset());
  // A completion of spec, complemented, is accepted by comp.
  EXPECT_TRUE(comp.accepts(~spec.onset()));
}

TEST(Isf, IntersectCompatible) {
  // Requirement 1: minterm 0 -> 1.  Requirement 2: minterm 3 -> 0.
  truth_table care1{2};
  care1.set_bit(0, true);
  truth_table on1{2};
  on1.set_bit(0, true);
  truth_table care2{2};
  care2.set_bit(3, true);
  const isf r1{on1, care1};
  const isf r2{truth_table{2}, care2};
  const auto merged = r1.intersect(r2);
  ASSERT_TRUE(merged.has_value());
  EXPECT_TRUE(merged->onset().get_bit(0));
  EXPECT_TRUE(merged->careset().get_bit(3));
  EXPECT_FALSE(merged->onset().get_bit(3));
  EXPECT_EQ(merged->care_count(), 2u);
}

TEST(Isf, IntersectConflictDetected) {
  truth_table care{2};
  care.set_bit(2, true);
  truth_table on{2};
  on.set_bit(2, true);
  const isf forced_one{on, care};
  const isf forced_zero{truth_table{2}, care};
  EXPECT_FALSE(forced_one.intersect(forced_zero).has_value());
  // Self-intersection is always fine.
  EXPECT_TRUE(forced_one.intersect(forced_one).has_value());

  // Multi-word tables: a single opposite-polarity minterm in the last
  // word is a conflict; the same minterm outside one care set is not.
  stpes::util::rng rng{41};
  for (const unsigned n : {9u, 10u}) {
    const auto shared_care = random_tt(n, rng);
    const auto on = random_tt(n, rng) & shared_care;
    const std::uint64_t last = shared_care.num_bits() - 1;
    truth_table care_a = shared_care;
    care_a.set_bit(last, true);
    truth_table flipped = on;
    flipped.set_bit(last, !on.get_bit(last));
    const isf a{on, care_a};
    EXPECT_FALSE(a.intersect(isf{flipped & care_a, care_a}).has_value())
        << "n=" << n;
    truth_table care_b = care_a;
    care_b.set_bit(last, false);
    EXPECT_TRUE(a.intersect(isf{flipped & care_b, care_b}).has_value())
        << "n=" << n;
  }
}

TEST(Isf, ProjectToConeOfCompleteFunctionInCone) {
  // f = x0 & x1 over 3 vars depends only on {x0, x1}: projection to that
  // cone must succeed and stay equivalent.
  const auto f = truth_table::nth_var(3, 0) & truth_table::nth_var(3, 1);
  const auto spec = isf::from_function(f);
  const auto projected = spec.project_to_cone(0b011);
  ASSERT_TRUE(projected.has_value());
  EXPECT_TRUE(projected->accepts(f));
  EXPECT_TRUE(projected->is_fully_specified());
}

TEST(Isf, ProjectToConeFailsWhenFunctionUsesOtherVars) {
  const auto f = truth_table::nth_var(3, 2);
  const auto spec = isf::from_function(f);
  EXPECT_FALSE(spec.project_to_cone(0b011).has_value());
}

TEST(Isf, ProjectMergesDontCareClasses) {
  // Care only on minterms 0 (value 1) and 1 (value 1): projecting to cone
  // {x0} forces class x0=0 -> 1 and class x0=1 -> 1.
  truth_table on{2};
  on.set_bit(0, true);
  on.set_bit(1, true);
  truth_table care = on;
  const isf spec{on, care};
  const auto projected = spec.project_to_cone(0b01);
  ASSERT_TRUE(projected.has_value());
  EXPECT_TRUE(projected->is_fully_specified());
  EXPECT_TRUE(projected->accepts(truth_table::constant(2, true)));
}

TEST(Isf, CompletionInConeRespectsRequirement) {
  stpes::util::rng rng{99};
  for (int iteration = 0; iteration < 50; ++iteration) {
    const unsigned n = 4;
    // Random function of a 2-variable cone, random partial care set.
    const std::uint32_t cone = 0b0101;
    truth_table g{n};
    for (std::uint64_t t = 0; t < g.num_bits(); ++t) {
      g.set_bit(t, rng.next_bool());
    }
    // Make g depend only on the cone by projecting through completion.
    const auto g_cone = isf::from_function(g)
                            .project_to_cone(cone)
                            .value_or(isf{n})
                            .completion_in_cone(cone);
    const auto care = random_tt(n, rng);
    const isf spec{g_cone & care, care};
    const auto completion = spec.completion_in_cone(cone);
    EXPECT_TRUE(spec.accepts(completion));
    // The completion must depend only on cone variables.
    EXPECT_EQ(completion.support_mask() & ~cone, 0u);
  }
}

TEST(Isf, AcceptsIsInvariantUnderDontCareChanges) {
  stpes::util::rng rng{123};
  for (const unsigned n : {5u, 9u, 10u}) {
    const auto f = random_tt(n, rng);
    auto care = random_tt(n, rng);
    const std::uint64_t last = care.num_bits() - 1;
    care.set_bit(last, true);
    const isf spec{f & care, care};
    // Any function agreeing on the care set is accepted.
    const auto noise = random_tt(n, rng) & ~care;
    const auto agreeing = (f & care) | noise;
    EXPECT_TRUE(spec.accepts(agreeing)) << "n=" << n;
    // Disagreeing on one care minterm, in the last word, is not.
    auto disagreeing = agreeing;
    disagreeing.set_bit(last, !agreeing.get_bit(last));
    EXPECT_FALSE(spec.accepts(disagreeing)) << "n=" << n;
  }
}

}  // namespace
