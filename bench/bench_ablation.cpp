/// \file bench_ablation.cpp
/// \brief Ablations of the STP engine's design choices (DESIGN.md §3).
///
/// On a fixed NPN4 subset, measures the effect of
///   * fence pruning (Section III-A) vs the raw F_k family,
///   * shared-gate DAGs vs fanout-free trees,
///   * polarity normalization vs raw polarity search,
///   * factorization branch caps,
///   * one-chain requests (`max_solutions == 1`), answered by the probe's
///     witness instead of the sweep.
///
/// Expected shape: pruning and normalization are large wins; tree-only is
/// faster but can miss optima (reported as "size misses").

#include <iostream>

#include "synth/stp_synth.hpp"
#include "workload/collections.hpp"
#include "util/table_printer.hpp"

namespace {

struct config {
  const char* name;
  stpes::synth::stp_options options;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace stpes;
  double timeout = 5.0;
  std::size_t count = 12;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--timeout=", 0) == 0) {
      timeout = std::stod(arg.substr(10));
    } else if (arg.rfind("--count=", 0) == 0) {
      count = std::stoul(arg.substr(8));
    }
  }

  const auto classes = workload::npn4_classes();
  std::vector<tt::truth_table> functions;
  const double stride =
      static_cast<double>(classes.size()) / static_cast<double>(count);
  for (std::size_t i = 0; i < count; ++i) {
    functions.push_back(classes[static_cast<std::size_t>(i * stride)]);
  }

  std::vector<config> configs;
  configs.push_back({"default", {}});
  {
    stpes::synth::stp_options o;
    o.use_fence_pruning = false;
    configs.push_back({"no-fence-pruning", o});
  }
  {
    stpes::synth::stp_options o;
    o.allow_shared_gates = false;
    configs.push_back({"tree-only", o});
  }
  {
    stpes::synth::stp_options o;
    o.normalize_polarity = false;
    configs.push_back({"no-polarity-norm", o});
  }
  {
    stpes::synth::stp_options o;
    o.factor.max_branches_per_family = 4;
    configs.push_back({"branch-cap-4", o});
  }
  {
    stpes::synth::stp_options o;
    // One-chain requests are answered by the probe's judged witness, so
    // this row measures the witness path, not a capped sweep.
    o.max_solutions = 1;
    configs.push_back({"first-solution (witness)", o});
  }

  std::cout << "== STP engine ablations (NPN4 subset, n=" << functions.size()
            << ", timeout=" << timeout << "s) ==\n";

  // Reference optimum sizes from the default configuration.
  std::vector<int> reference(functions.size(), -1);

  util::table_printer table;
  table.set_header({"config", "mean(s)", "#t/o", "avg#sol", "size misses"});
  for (const auto& cfg : configs) {
    double total = 0.0;
    std::size_t solved = 0;
    std::size_t timeouts = 0;
    double solutions = 0.0;
    int misses = 0;
    for (std::size_t i = 0; i < functions.size(); ++i) {
      synth::stp_engine engine{cfg.options};
      core::run_context ctx{timeout};
      synth::spec s;
      s.function = functions[i];
      s.ctx = &ctx;
      const auto r = engine.run(s);
      if (r.ok()) {
        ++solved;
        total += r.seconds;
        solutions += static_cast<double>(r.chains.size());
        if (reference[i] < 0) {
          reference[i] = static_cast<int>(r.optimum_gates);
        } else if (static_cast<int>(r.optimum_gates) != reference[i]) {
          ++misses;
        }
      } else {
        ++timeouts;
      }
    }
    table.add_row(
        {cfg.name,
         util::table_printer::fmt(solved ? total / solved : 0.0),
         std::to_string(timeouts),
         util::table_printer::fmt(solved ? solutions / solved : 0.0, 1),
         std::to_string(misses)});
  }
  table.print(std::cout);
  return 0;
}
