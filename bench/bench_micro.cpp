/// \file bench_micro.cpp
/// \brief google-benchmark microbenchmarks of the building blocks:
///        STP products, canonical forms, the circuit AllSAT solver, the
///        CDCL solver, NPN canonization, and DSD analysis.

#include <benchmark/benchmark.h>

#include "allsat/circuit_allsat.hpp"
#include "sat/solver.hpp"
#include "stp/expr.hpp"
#include "stp/logic_matrix.hpp"
#include "stp/stp_allsat.hpp"
#include "tt/dsd.hpp"
#include "tt/npn.hpp"
#include "util/rng.hpp"
#include "workload/collections.hpp"

namespace {

using namespace stpes;

void BM_StpProduct(benchmark::State& state) {
  const auto m_c = stp::logic_matrix::binary_op(0x8).to_matrix();
  const auto m_n = stp::logic_matrix::negation().to_matrix();
  for (auto _ : state) {
    benchmark::DoNotOptimize(m_c.stp(m_n).stp(m_n));
  }
}
BENCHMARK(BM_StpProduct);

void BM_KroneckerIdentity(benchmark::State& state) {
  const auto m = stp::logic_matrix::binary_op(0x6).to_matrix();
  const auto identity =
      stp::matrix::identity(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(identity.kronecker(m));
  }
}
BENCHMARK(BM_KroneckerIdentity)->Arg(4)->Arg(16)->Arg(64);

void BM_CanonicalForm(benchmark::State& state) {
  // The liar puzzle of Example 4.
  const auto a = stp::expr::var(2);
  const auto b = stp::expr::var(1);
  const auto c = stp::expr::var(0);
  const auto phi = stp::equiv(a, !b) & stp::equiv(b, !c) &
                   stp::equiv(c, (!a) & (!b));
  for (auto _ : state) {
    benchmark::DoNotOptimize(phi.canonical());
  }
}
BENCHMARK(BM_CanonicalForm);

void BM_StpAllSat(benchmark::State& state) {
  const auto n = static_cast<unsigned>(state.range(0));
  util::rng rng{7};
  tt::truth_table f{n};
  for (std::uint64_t t = 0; t < f.num_bits(); ++t) {
    f.set_bit(t, rng.next_bool());
  }
  const auto m = stp::logic_matrix::from_truth_table(f);
  for (auto _ : state) {
    stp::stp_sat_solver solver{m};
    benchmark::DoNotOptimize(solver.solve_all());
  }
}
BENCHMARK(BM_StpAllSat)->Arg(4)->Arg(6)->Arg(8);

void BM_CircuitAllSat(benchmark::State& state) {
  chain::boolean_chain c{4};
  const auto x4 = c.add_step(0x8, 0, 1);
  const auto x5 = c.add_step(0x6, 2, 3);
  c.set_output(c.add_step(0xE, x4, x5));
  for (auto _ : state) {
    benchmark::DoNotOptimize(allsat::solve_all(c));
  }
}
BENCHMARK(BM_CircuitAllSat);

void BM_CdclRandom3Sat(benchmark::State& state) {
  const auto num_vars = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    util::rng rng{42};
    sat::solver solver;
    std::vector<sat::var> vars;
    for (std::size_t i = 0; i < num_vars; ++i) {
      vars.push_back(solver.new_var());
    }
    for (std::size_t c = 0; c < num_vars * 4; ++c) {
      sat::clause_lits clause;
      for (int k = 0; k < 3; ++k) {
        clause.push_back(sat::lit{
            vars[rng.next_below(num_vars)], rng.next_bool()});
      }
      solver.add_clause(clause);
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(solver.solve());
  }
}
BENCHMARK(BM_CdclRandom3Sat)->Arg(30)->Arg(60);

void BM_NpnCanonize(benchmark::State& state) {
  util::rng rng{3};
  std::vector<tt::truth_table> functions;
  for (int i = 0; i < 16; ++i) {
    functions.emplace_back(4u, rng.next_u64() & 0xFFFF);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tt::exact_npn_canonize(functions[i++ % functions.size()]));
  }
}
BENCHMARK(BM_NpnCanonize);

void BM_DsdAnalysis(benchmark::State& state) {
  util::rng rng{11};
  const auto functions = workload::fdsd_functions(8, 8, 5);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tt::analyze_dsd(functions[i++ % functions.size()]));
  }
}
BENCHMARK(BM_DsdAnalysis);

}  // namespace

BENCHMARK_MAIN();
