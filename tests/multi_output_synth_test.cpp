// Multi-output exact synthesis, end to end over the engine tier: ground
// truth on the full adder (the canonical shared-logic example: the
// 2-output optimum is strictly smaller than the two single-output optima
// combined), the degenerate-output pre-pass, and union-support lifting.

#include <gtest/gtest.h>

#include <vector>

#include "core/exact_synthesis.hpp"
#include "synth/spec.hpp"
#include "synth/stp_synth.hpp"
#include "tt/truth_table.hpp"

namespace {

using stpes::core::engine;
using stpes::core::exact_synthesis;
using stpes::tt::truth_table;

// sum(a,b,c) = a ^ b ^ c, carry(a,b,c) = majority(a,b,c).
truth_table adder_sum() { return truth_table::from_hex(3, "96"); }
truth_table adder_carry() { return truth_table::from_hex(3, "e8"); }

class MultiOutputEngines : public ::testing::TestWithParam<engine> {};

TEST_P(MultiOutputEngines, FullAdderSharesLogicAcrossOutputs) {
  const std::vector<truth_table> fs{adder_sum(), adder_carry()};
  const auto r = exact_synthesis(fs, GetParam());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.optimum_gates, 5u);  // Knuth: the full adder takes 5 gates
  ASSERT_FALSE(r.chains.empty());
  const auto& c = r.best();
  ASSERT_EQ(c.num_outputs(), 2u);
  EXPECT_TRUE(c.is_well_formed());
  EXPECT_EQ(c.num_steps(), 5u);
  EXPECT_EQ(r.best_output(0), adder_sum());
  EXPECT_EQ(r.best_output(1), adder_carry());
}

TEST_P(MultiOutputEngines, JointOptimumBeatsPerOutputSynthesis) {
  const auto which = GetParam();
  const auto sum_alone = exact_synthesis(adder_sum(), which);
  const auto carry_alone = exact_synthesis(adder_carry(), which);
  ASSERT_TRUE(sum_alone.ok());
  ASSERT_TRUE(carry_alone.ok());
  EXPECT_EQ(sum_alone.optimum_gates, 2u);
  EXPECT_EQ(carry_alone.optimum_gates, 4u);

  const auto joint =
      exact_synthesis({adder_sum(), adder_carry()}, which);
  ASSERT_TRUE(joint.ok());
  EXPECT_LT(joint.optimum_gates,
            sum_alone.optimum_gates + carry_alone.optimum_gates);
}

TEST_P(MultiOutputEngines, DisjointSupportsNeedMultipleRoots) {
  // f0 = x0 & x1, f1 = x2 ^ x3: no shared logic is possible, so the
  // 2-output optimum is simply both single-output chains side by side —
  // which exercises the multi-root topology family (one dangling gate
  // per output).
  const auto f0 = truth_table::from_hex(4, "8888");
  const auto f1 = truth_table::from_hex(4, "6666");
  const auto r = exact_synthesis({f0, f1}, GetParam());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.optimum_gates, 2u);
  EXPECT_EQ(r.best_output(0), f0);
  EXPECT_EQ(r.best_output(1), f1);
}

TEST_P(MultiOutputEngines, DegenerateOutputsNeverReachTheSearch) {
  // Mixed list: a constant, a literal, one real function, its complement
  // and an exact duplicate.  Only one function enters the search; the
  // constant costs one extra shared step.
  const auto f = adder_carry();
  const std::vector<truth_table> fs{
      truth_table::constant(3, false), truth_table::nth_var(3, 1), f, ~f, f};
  const auto r = exact_synthesis(fs, GetParam());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.optimum_gates, 5u);  // 4 for majority + 1 shared const step
  ASSERT_EQ(r.best().num_outputs(), 5u);
  EXPECT_TRUE(r.best_output(0).is_const0());
  EXPECT_EQ(r.best_output(1), truth_table::nth_var(3, 1));
  EXPECT_EQ(r.best_output(2), f);
  EXPECT_EQ(r.best_output(3), ~f);
  EXPECT_EQ(r.best_output(4), f);
}

TEST_P(MultiOutputEngines, UnionSupportLiftRestoresOriginalVariables) {
  // Both outputs ignore x1 (of 4 inputs): the engines synthesize over the
  // 3-variable union support and lift back.
  const auto a = truth_table::nth_var(4, 0);
  const auto c = truth_table::nth_var(4, 2);
  const auto d = truth_table::nth_var(4, 3);
  const auto f0 = (a ^ c) ^ d;
  const auto f1 = (a & c) | (c & d) | (a & d);
  const auto r = exact_synthesis({f0, f1}, GetParam());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.optimum_gates, 5u);
  const auto& chain = r.best();
  EXPECT_EQ(chain.num_inputs(), 4u);
  EXPECT_TRUE(chain.is_well_formed());
  EXPECT_EQ(r.best_output(0), f0);
  EXPECT_EQ(r.best_output(1), f1);
}

INSTANTIATE_TEST_SUITE_P(AllEngines, MultiOutputEngines,
                         ::testing::Values(engine::stp, engine::bms,
                                           engine::fen, engine::cegar,
                                           engine::portfolio),
                         [](const auto& info) {
                           return stpes::core::to_string(info.param);
                         });

TEST(MultiOutputPrePass, AllDegenerateListsSkipTheEnginesEntirely) {
  const std::vector<truth_table> fs{truth_table::constant(2, true),
                                    truth_table::nth_var(2, 0),
                                    ~truth_table::nth_var(2, 1)};
  const auto r = exact_synthesis(fs, engine::stp);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.optimum_gates, 1u);  // just the shared constant step
  ASSERT_EQ(r.best().num_outputs(), 3u);
  EXPECT_TRUE(r.best_output(0).is_const1());
  EXPECT_EQ(r.best_output(1), truth_table::nth_var(2, 0));
  EXPECT_EQ(r.best_output(2), ~truth_table::nth_var(2, 1));
}

TEST(MultiOutputPrePass, SingleOutputResultsAreUnchanged) {
  // The m = 1 path must stay bit-identical to the historical behavior,
  // including the degenerate chains.
  const auto c1 = exact_synthesis(truth_table::constant(3, true));
  ASSERT_TRUE(c1.ok());
  EXPECT_EQ(c1.optimum_gates, 1u);
  EXPECT_EQ(c1.best().steps().front().op, 0xFu);
  EXPECT_FALSE(c1.best().output_complemented());

  const auto lit = exact_synthesis(~truth_table::nth_var(3, 2));
  ASSERT_TRUE(lit.ok());
  EXPECT_EQ(lit.optimum_gates, 0u);
  EXPECT_EQ(lit.best().num_steps(), 0u);
  EXPECT_TRUE(lit.best().output_complemented());
}

TEST(MultiOutputSpec, AnalyzeOutputsClassifiesEveryKind) {
  using stpes::synth::analyze_outputs;
  using stpes::synth::output_plan;
  const auto f = adder_sum();
  const std::vector<truth_table> fs{f, ~f, truth_table::constant(3, true),
                                    ~truth_table::nth_var(3, 0),
                                    adder_carry()};
  const auto plan = analyze_outputs(fs);
  ASSERT_EQ(plan.distinct.size(), 2u);
  EXPECT_EQ(plan.distinct[0], f);
  EXPECT_EQ(plan.distinct[1], adder_carry());
  EXPECT_TRUE(plan.needs_constant);
  ASSERT_EQ(plan.outputs.size(), 5u);
  EXPECT_EQ(plan.outputs[0].what, output_plan::kind::synth);
  EXPECT_FALSE(plan.outputs[0].complemented);
  EXPECT_EQ(plan.outputs[1].what, output_plan::kind::synth);
  EXPECT_TRUE(plan.outputs[1].complemented);
  EXPECT_EQ(plan.outputs[1].synth_index, plan.outputs[0].synth_index);
  EXPECT_EQ(plan.outputs[2].what, output_plan::kind::constant);
  EXPECT_TRUE(plan.outputs[2].complemented);
  EXPECT_EQ(plan.outputs[3].what, output_plan::kind::literal);
  EXPECT_EQ(plan.outputs[3].var, 0u);
  EXPECT_TRUE(plan.outputs[3].complemented);
  EXPECT_EQ(plan.outputs[4].what, output_plan::kind::synth);
  EXPECT_EQ(plan.outputs[4].synth_index, 1u);
}

TEST(MultiOutputSpec, VectorLowerBoundDominatesPerFunctionBounds) {
  using stpes::synth::trivial_lower_bound;
  const std::vector<truth_table> two{adder_sum(), adder_carry()};
  EXPECT_EQ(trivial_lower_bound(two), 2u);
  const std::vector<truth_table> one_wide{
      truth_table::from_hex(4, "6996")};  // parity-4: support 4
  EXPECT_EQ(trivial_lower_bound(one_wide), 3u);
}

TEST(MultiOutputSpec, StpEnumeratesAllOptimaWithExactOutputs) {
  // The STP engine keeps its all-optima semantics in multi-output mode:
  // every reported chain must be distinct, 5 steps, and realize both
  // adder outputs.
  const auto r = exact_synthesis({adder_sum(), adder_carry()}, engine::stp);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.enumeration_complete);
  ASSERT_FALSE(r.chains.empty());
  for (const auto& c : r.chains) {
    EXPECT_EQ(c.num_steps(), 5u);
    ASSERT_EQ(c.num_outputs(), 2u);
    EXPECT_EQ(c.simulate_output(0), adder_sum());
    EXPECT_EQ(c.simulate_output(1), adder_carry());
  }
  for (std::size_t i = 0; i < r.chains.size(); ++i) {
    for (std::size_t j = i + 1; j < r.chains.size(); ++j) {
      EXPECT_FALSE(r.chains[i] == r.chains[j]);
    }
  }
}

TEST(MultiOutputSpec, StpOneChainRequestReturnsAJudgedOptimumChain) {
  // With max_solutions == 1 the probe's multi-output witness answers the
  // request once it passes the same judging as an enumerated chain.
  stpes::synth::stp_options options;
  options.max_solutions = 1;
  stpes::synth::stp_engine eng{options};
  stpes::synth::spec s;
  s.functions = {adder_sum(), adder_carry()};
  const auto r = eng.run(s);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.enumeration_complete);
  EXPECT_EQ(r.optimum_gates, 5u);
  ASSERT_EQ(r.chains.size(), 1u);
  const auto& c = r.chains.front();
  EXPECT_EQ(c.num_steps(), 5u);
  ASSERT_EQ(c.num_outputs(), 2u);
  EXPECT_EQ(c.simulate_output(0), adder_sum());
  EXPECT_EQ(c.simulate_output(1), adder_carry());
  EXPECT_EQ(r.counters.dags_generated, 0u);  // no level was swept
}

}  // namespace
