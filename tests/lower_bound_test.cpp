/// \file lower_bound_test.cpp
/// \brief The CNF lower-bound probe and the engine portfolio built on it.
///
/// The probe's contract: `infeasible` at gate count k (with all smaller
/// counts refuted) means *no* k-gate chain exists, `feasible` comes with a
/// verified witness chain, `unknown` is always safe to treat as feasible.
/// The portfolio engine must be a pure scheduling change: bit-identical
/// results to the sequential STP engine, with the losing side cancelled
/// promptly.  The read-once level the engine decides by DSD instead of the
/// probe is pinned against both the exact probe and the plain sweep.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <string>
#include <thread>

#include "core/exact_synthesis.hpp"
#include "synth/lower_bound.hpp"
#include "synth/stp_synth.hpp"
#include "tt/dsd.hpp"
#include "tt/isf.hpp"
#include "tt/npn.hpp"
#include "util/rng.hpp"
#include "workload/collections.hpp"

namespace {

using stpes::core::engine;
using stpes::core::run_context;
using stpes::synth::lower_bound_options;
using stpes::synth::lower_bound_prober;
using stpes::synth::probe_verdict;
using stpes::synth::status;
using stpes::tt::isf;
using stpes::tt::truth_table;

/// Unbounded probe: no conflict cutoff, so every verdict is exact.
lower_bound_prober exact_prober() {
  lower_bound_options options;
  options.conflict_budget = 0;
  return lower_bound_prober{options};
}

TEST(LowerBoundProbe, AgreesWithStpOptimaOnAllNpn3Classes) {
  // For every NPN3 class the probe must refute exactly the gate counts
  // below the STP engine's proven optimum and accept the optimum itself —
  // the probe and the sweep answer the same existence question.
  const auto prober = exact_prober();
  for (const auto& f : stpes::tt::enumerate_npn_classes(3)) {
    if (f.is_const0() || (~f).is_const0()) {
      continue;  // degenerate: answered before the probe in the engine
    }
    const auto r = stpes::core::exact_synthesis(f, engine::stp);
    ASSERT_TRUE(r.ok()) << f.to_hex();
    if (r.optimum_gates == 0) {
      continue;  // literals: the probe is never asked about 0 gates
    }
    const auto target = isf::from_function(f);
    for (unsigned k = 1; k < r.optimum_gates; ++k) {
      EXPECT_EQ(prober.probe(target, k).verdict, probe_verdict::infeasible)
          << f.to_hex() << " at " << k << " gates";
    }
    const auto at_opt = prober.probe(target, r.optimum_gates);
    EXPECT_EQ(at_opt.verdict, probe_verdict::feasible)
        << f.to_hex() << " at optimum " << r.optimum_gates;
  }
}

TEST(LowerBoundProbe, FeasibleVerdictCarriesVerifiedWitness) {
  // MAJ3 needs 4 gates; the SAT model at the optimum decodes to a chain
  // of exactly that size computing the function.
  const auto f = truth_table::from_hex(3, "0xe8");
  const auto pr = exact_prober().probe(isf::from_function(f), 4);
  ASSERT_EQ(pr.verdict, probe_verdict::feasible);
  ASSERT_TRUE(pr.witness.has_value());
  EXPECT_EQ(pr.witness->size(), 4u);
  EXPECT_EQ(pr.witness->simulate(), f);
}

TEST(LowerBoundProbe, NonNormalTargetsAreComplementedForTheEncoding) {
  // NAND2 (row 0 = 1) is existence-equivalent to AND2; the witness must
  // come back with the output-complement flag folded in.
  const auto nand2 = ~truth_table(2, 0x8);
  const auto pr = exact_prober().probe(isf::from_function(nand2), 1);
  ASSERT_EQ(pr.verdict, probe_verdict::feasible);
  ASSERT_TRUE(pr.witness.has_value());
  EXPECT_EQ(pr.witness->simulate(), nand2);
}

TEST(LowerBoundProbe, MultiOutputProbeAgreesWithBmsOptimaOnMadd) {
  // Joint optima of the MADD instances as the BMS engine proves them
  // (`BENCH_table1_madd.json`, whose BMS row totals 25 gates with cmp2's
  // 8): the level below is refuted and the optimum has a witness that
  // computes every output.  cmp2 is left out: refuting its 7-gate level
  // takes about 2 s in a Release build.
  const std::map<std::string, unsigned> optimum{
      {"half-adder", 2}, {"full-adder", 5}, {"cmp1", 3}, {"add2", 7}};
  const auto prober = exact_prober();
  std::size_t checked = 0;
  for (const auto& inst : stpes::workload::madd_collection()) {
    const auto it = optimum.find(inst.name);
    if (it == optimum.end()) {
      continue;
    }
    const unsigned k = it->second;
    EXPECT_EQ(prober.probe_multi(inst.functions, k - 1).verdict,
              probe_verdict::infeasible)
        << inst.name << " at " << k - 1 << " gates";
    const auto at_opt = prober.probe_multi(inst.functions, k);
    ASSERT_EQ(at_opt.verdict, probe_verdict::feasible) << inst.name;
    ASSERT_TRUE(at_opt.witness.has_value()) << inst.name;
    EXPECT_EQ(at_opt.witness->size(), k) << inst.name;
    EXPECT_EQ(at_opt.witness->simulate_outputs(), inst.functions)
        << inst.name;
    ++checked;
  }
  EXPECT_EQ(checked, optimum.size());
}

TEST(LowerBoundProbe, UnsatLevelsAreSkippedAndCounted) {
  // These NPN4 classes have optima well above the trivial lower bound, so
  // the probe_sweep default must skip at least one level per run and say
  // so in the counters; the skip must not change the proven optimum.
  struct known {
    const char* hex;
    unsigned optimum;
    std::uint64_t min_unsat_levels;
  };
  for (const auto& [hex, optimum, min_unsat] :
       {known{"0x0018", 4, 1}, known{"0x0016", 5, 2}}) {
    run_context ctx;
    stpes::synth::spec s;
    s.function = truth_table::from_hex(4, hex);
    s.ctx = &ctx;
    const auto r = stpes::core::exact_synthesis(s, engine::stp);
    ASSERT_TRUE(r.ok()) << hex;
    EXPECT_EQ(r.optimum_gates, optimum) << hex;
    EXPECT_GE(r.counters.probe_unsat_levels, min_unsat) << hex;
    EXPECT_GE(r.counters.probe_calls, r.counters.probe_unsat_levels) << hex;
    // The skipped levels are exactly the refuted ones plus the accepted
    // winning level.
    EXPECT_GE(r.counters.probe_sat_levels, 1u) << hex;
  }
}

TEST(LowerBoundProbe, ProbeDisabledSweepStillAgrees) {
  // Plain sweep (no probe) on a function whose levels the probe would
  // skip: same optimum, no probe counters — the probe only skips work.
  stpes::synth::stp_options options;
  options.engine = stpes::synth::stp_level_engine::sweep;
  stpes::synth::stp_engine eng{options};
  run_context ctx;
  stpes::synth::spec s;
  s.function = truth_table::from_hex(4, "0x0018");
  s.ctx = &ctx;
  const auto r = eng.run(s);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.optimum_gates, 4u);
  EXPECT_EQ(r.counters.probe_calls, 0u);
  EXPECT_EQ(r.counters.probe_unsat_levels, 0u);
}

/// True iff the plain sweep (no probe, no DSD shortcut) finds a chain of
/// exactly `support(f) - 1` gates.  `f` must depend on all its inputs.
bool sweep_finds_read_once_chain(const truth_table& f) {
  stpes::synth::stp_options options;
  options.engine = stpes::synth::stp_level_engine::sweep;
  options.max_solutions = 1;
  stpes::synth::stp_engine eng{options};
  stpes::synth::spec s;
  s.function = f;
  s.max_gates = f.num_vars() - 1;
  const auto r = eng.run(s);
  EXPECT_NE(r.outcome, status::timeout) << f.to_hex();
  return r.ok();
}

/// The DSD oracle the engine decides the read-once level with: a target
/// depending on all n inputs has an (n - 1)-gate chain iff it is fully
/// DSD.  Checked against the exact probe and the plain sweep.
void expect_dsd_decides_read_once_level(const truth_table& f,
                                        bool with_probe) {
  ASSERT_EQ(f.support_mask(), (1u << f.num_vars()) - 1) << f.to_hex();
  const bool dsd = stpes::tt::is_fully_dsd(f);
  if (with_probe) {
    const auto pr = exact_prober().probe(isf::from_function(f),
                                         f.num_vars() - 1);
    ASSERT_NE(pr.verdict, probe_verdict::unknown) << f.to_hex();
    EXPECT_EQ(pr.verdict == probe_verdict::feasible, dsd) << f.to_hex();
  }
  EXPECT_EQ(sweep_finds_read_once_chain(f), dsd) << f.to_hex();
}

TEST(ReadOnceLevel, DsdMatchesProbeAndSweepOnAllNpn4Classes) {
  std::size_t checked = 0;
  for (const auto& f : stpes::workload::npn4_classes()) {
    std::vector<unsigned> old_of_new;
    const auto g = stpes::synth::shrink_for_synthesis(f, old_of_new);
    if (g.num_vars() < 2) {
      continue;  // constants and literals have no read-once level
    }
    expect_dsd_decides_read_once_level(g, true);
    ++checked;
  }
  EXPECT_EQ(checked, 220u);
}

TEST(ReadOnceLevel, DsdMatchesProbeAndSweepOnRandomFiveInputFunctions) {
  stpes::util::rng gen{2023};
  std::size_t checked = 0;
  while (checked < 200) {
    const truth_table f{5, gen.next_u64() & 0xFFFFFFFFull};
    if (f.support_mask() != 0x1Fu) {
      continue;
    }
    expect_dsd_decides_read_once_level(f, true);
    ++checked;
  }
}

TEST(ReadOnceLevel, DsdMatchesProbeAndSweepOnDsdPools) {
  for (const unsigned n : {5u, 6u}) {
    for (const auto& f : stpes::workload::fdsd_functions(n, 20, 11)) {
      EXPECT_TRUE(stpes::tt::is_fully_dsd(f)) << f.to_hex();
      expect_dsd_decides_read_once_level(f, true);
    }
    for (const auto& f : stpes::workload::pdsd_functions(n, 20, 11)) {
      EXPECT_FALSE(stpes::tt::is_fully_dsd(f)) << f.to_hex();
      expect_dsd_decides_read_once_level(f, true);
    }
  }
}

TEST(ReadOnceLevel, DsdMatchesSweepAboveTheProbeSizeCap) {
  // The probe gives up above `max_vars` (6), so the sweep is the oracle.
  for (const unsigned n : {7u, 8u}) {
    for (const auto& f : stpes::workload::fdsd_functions(n, 8, 11)) {
      expect_dsd_decides_read_once_level(f, false);
    }
    for (const auto& f : stpes::workload::pdsd_functions(n, 8, 11)) {
      expect_dsd_decides_read_once_level(f, false);
    }
  }
}

TEST(EnginePortfolio, BitIdenticalToSequentialStpOnFixedInstances) {
  // The portfolio race only ever cancels the sweep on solution-free
  // levels, so with no deadline the chain sets must match the sequential
  // engine exactly — same chains, same order.
  std::vector<truth_table> instances = stpes::tt::enumerate_npn_classes(3);
  for (const char* hex : {"0x8ff8", "0xe8e8", "0x6996"}) {
    instances.push_back(truth_table::from_hex(4, hex));
  }
  for (const auto& f : instances) {
    const auto reference = stpes::core::exact_synthesis(f, engine::stp);
    const auto raced = stpes::core::exact_synthesis(f, engine::portfolio);
    ASSERT_EQ(raced.outcome, reference.outcome) << f.to_hex();
    if (!reference.ok()) {
      continue;
    }
    EXPECT_EQ(raced.optimum_gates, reference.optimum_gates) << f.to_hex();
    EXPECT_TRUE(raced.enumeration_complete) << f.to_hex();
    ASSERT_EQ(raced.chains.size(), reference.chains.size()) << f.to_hex();
    for (std::size_t i = 0; i < reference.chains.size(); ++i) {
      EXPECT_TRUE(raced.chains[i] == reference.chains[i])
          << f.to_hex() << " chain " << i;
    }
  }
}

TEST(EnginePortfolio, LosingProbeIsCancelledPromptly) {
  // An unbounded probe on a PDSD8 instance at a deliberately hopeless
  // gate count runs "forever"; the cancel flag must stop it within one
  // solver poll stride.
  const auto f = stpes::workload::pdsd_functions(8, 1, 1).front();
  lower_bound_options options;
  options.conflict_budget = 0;
  options.max_vars = 8;
  const lower_bound_prober prober{options};

  run_context ctx;
  stpes::synth::probe_result pr;
  std::atomic<bool> started{false};
  std::thread worker{[&] {
    started.store(true, std::memory_order_release);
    pr = prober.probe(isf::from_function(f), 10, &ctx);
  }};
  while (!started.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  const auto cancel_time = std::chrono::steady_clock::now();
  ctx.request_cancel();
  worker.join();
  const double latency =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    cancel_time)
          .count();

  EXPECT_EQ(pr.verdict, probe_verdict::unknown);
  EXPECT_FALSE(pr.witness.has_value());
  EXPECT_LT(latency, 0.1) << "probe kept running " << latency
                          << " s after the cancel flag was set";
  // probe_calls counts fences that reached solve(); on slow (sanitizer)
  // builds the cancel can land during the CNF build of the very first
  // fence, in which case it is legitimately 0 — promptness is the
  // invariant, not how far the probe got.
}

}  // namespace
