// perfbench_runner: runs one workload of the repository benchmark and
// prints its result as one JSON line on stdout.
//
//   perfbench_runner --workload NAME --seed N --seconds S --trace 0|1
//                    [--ref-dir DIR] [--state-dir DIR]
//   perfbench_runner --setup-only --workload NAME --seed N
//   perfbench_runner --make-reference DIR
//
// Workloads: npn4-enum, npn4-first, fdsd6-enum.  Exit code 0
// means every output matched its reference; 1 means a mismatch (the JSON
// line still reports it), 2 a usage or set-up error.

#include <sys/resource.h>

#include <iomanip>
#include <iostream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

#include "workloads.hpp"

namespace {

/// Address-space cap of the runner: a search that runs away in memory
/// fails this run instead of starving the machine.
constexpr rlim_t kMemoryCap = rlim_t{6} << 30;

void print_result(const perfbench::run_result& r) {
  std::ostringstream os;
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  os << "{\"correct\": " << (r.correct ? "true" : "false")
     << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const auto& [name, value_unit] = r.metrics[i];
    os << (i == 0 ? "" : ", ") << '"' << name
       << "\": {\"value\": " << value_unit.first
       << ", \"unit\": \"" << value_unit.second << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

int usage(const std::string& why) {
  std::cerr << "perfbench_runner: " << why
            << "\nusage: perfbench_runner --workload NAME --seed N --seconds "
               "S --trace 0|1 [--ref-dir DIR] [--state-dir DIR]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::options opt;
  bool setup_only = false;
  std::string reference_dir;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--setup-only") {
        setup_only = true;
        continue;
      }
      if (i + 1 >= argc) {
        return usage("missing value for " + arg);
      }
      const std::string value = argv[++i];
      if (arg == "--workload") {
        opt.workload = value;
      } else if (arg == "--seed") {
        opt.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (arg == "--trace") {
        opt.trace = value == "1";
      } else if (arg == "--ref-dir") {
        opt.ref_dir = value;
      } else if (arg == "--state-dir") {
        opt.state_dir = value;
      } else if (arg == "--make-reference") {
        reference_dir = value;
      } else {
        return usage("unknown option " + arg);
      }
    }
  } catch (const std::exception&) {
    return usage("bad option value");
  }

  try {
    if (!reference_dir.empty()) {
      perfbench::make_reference(reference_dir);
      return 0;
    }
    if (!perfbench::is_workload(opt.workload)) {
      return usage("unknown workload '" + opt.workload + "'");
    }
    const rlimit cap{kMemoryCap, kMemoryCap};
    ::setrlimit(RLIMIT_AS, &cap);
    if (setup_only) {
      perfbench::setup_only(opt);
      return 0;
    }
    const auto result = perfbench::run_engine_workload(opt);
    for (const auto& e : result.errors) {
      std::cerr << "MISMATCH: " << e << "\n";
    }
    print_result(result);
    return result.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_runner: " << e.what() << "\n";
    return 2;
  }
}
