// Generates the committed reference tables (`--make-reference DIR`).
//
// Optimum gate counts come from the BMS CNF engine, which shares no search
// code with the STP engine under test.  Chain counts and costs come from
// the STP engine itself, each row in a forked child under a memory cap,
// so a class that exhausts memory is recorded as unsolved instead of
// taking the generator down.  The cost is the median of repeated solves:
// the benchmark balances its draws on it, and one solve on a busy machine
// can be off by half.

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "core/exact_synthesis.hpp"
#include "synth/stp_synth.hpp"
#include "workload/collections.hpp"
#include "workloads.hpp"

namespace perfbench {

using stpes::tt::truth_table;

namespace {

constexpr double kBmsBudget = 600.0;
constexpr double kStpBudget = 60.0;
constexpr rlim_t kChildMemory = rlim_t{3} << 30;
constexpr unsigned kEnumerateAll = ~0u;
/// A row's cost is the median of up to this many solves...
constexpr int kCostRepeats = 5;
/// ...stopping once the solves took this many seconds in total.
constexpr double kCostSeconds = 10.0;

unsigned bms_optimum(const truth_table& f) {
  const auto r = stpes::core::exact_synthesis(f, stpes::core::engine::bms,
                                              kBmsBudget);
  if (!r.ok()) {
    throw std::runtime_error{"BMS did not solve " + f.to_hex()};
  }
  return r.optimum_gates;
}

/// Solves `f` with the STP engine in a child process limited to
/// kChildMemory: full enumeration, or the first optimum chain.  Fills
/// `row.chains` (enumeration only) and `row.cost`, the median seconds of
/// the repeated solves; both stay -1 when the child runs out of budget or
/// memory.
void stp_solve(const truth_table& f, bool first_only, reference_row& row) {
  row.chains = -1;
  row.cost = -1.0;
  int fds[2];
  if (::pipe(fds) != 0) {
    throw std::runtime_error{"pipe failed"};
  }
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::close(fds[0]);
    const rlimit cap{kChildMemory, kChildMemory};
    ::setrlimit(RLIMIT_AS, &cap);
    std::vector<double> times;
    double total = 0.0;
    while (static_cast<int>(times.size()) < kCostRepeats &&
           total < kCostSeconds) {
      stpes::core::run_context ctx{kStpBudget};
      stpes::synth::spec s;
      s.function = f;
      s.ctx = &ctx;
      s.num_threads = 1;
      const double start = now_seconds();
      stpes::synth::result r;
      if (first_only) {
        stpes::synth::stp_options o;
        o.max_solutions = 1;
        r = stpes::synth::stp_engine{o}.run(s);
      } else {
        r = stpes::core::exact_synthesis(s, stpes::core::engine::stp);
      }
      times.push_back(now_seconds() - start);
      total += times.back();
      if (!r.ok() || !r.enumeration_complete) {
        ::_exit(0);
      }
      if (times.size() == 1) {
        const std::string chains = std::to_string(r.chains.size()) + " ";
        (void)!::write(fds[1], chains.data(), chains.size());
      }
    }
    const std::string cost = std::to_string(median(times));
    (void)!::write(fds[1], cost.data(), cost.size());
    ::_exit(0);
  }
  ::close(fds[1]);
  std::string text;
  char buf[128];
  for (ssize_t n = 0; (n = ::read(fds[0], buf, sizeof buf)) > 0;) {
    text.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fds[0]);
  ::waitpid(pid, nullptr, 0);
  std::istringstream is{text};
  long long chains = 0;
  double seconds = 0.0;
  if (is >> chains >> seconds) {
    row.chains = first_only ? -1 : chains;
    row.cost = seconds;
  }
}

/// `first_from`: rows with at least this optimum are only solved to their
/// first optimum chain.
reference_row make_row(const truth_table& f, unsigned first_from) {
  reference_row row;
  row.function = f;
  row.optimum = bms_optimum(f);
  stp_solve(f, row.optimum >= first_from, row);
  std::cerr << f.to_hex() << " optimum " << row.optimum << " chains "
            << row.chains << " cost " << row.cost << "\n";
  return row;
}

/// Writes a reference table under a header comment.
void write_reference(const std::string& path, const std::string& header,
                     const std::vector<reference_row>& rows) {
  std::ostringstream os;
  os << header;
  for (const auto& r : rows) {
    os << r.function.to_hex() << '\t' << r.optimum << '\t';
    if (r.chains < 0) {
      os << '-';
    } else {
      os << r.chains;
    }
    os << '\t' << std::fixed << std::setprecision(4) << r.cost << '\n';
  }
  write_file(path, os.str());
}

constexpr const char* kColumns =
    "# columns: function, optimum gates (BMS engine), complete STP chain "
    "count ('-' = not enumerated), median STP seconds of up to 5 solves on "
    "the generating machine (-1 = not solved within 60 s and 3 GiB; orders "
    "and balances the draws)\n";

}  // namespace

void make_reference(const std::string& dir) {
  std::vector<reference_row> npn4;
  for (const auto& f : stpes::workload::npn4_classes()) {
    // Classes beyond 5 gates are only solved to their first optimum chain:
    // their full enumeration does not finish in the budget.
    npn4.push_back(make_row(f, 6));
  }
  write_reference(dir + "/npn4.tsv",
                  std::string{"# The 222 NPN4 classes "
                              "(workload::npn4_classes()); rows of >= 6 "
                              "gates are timed to the first optimum chain.\n"} +
                      kColumns,
                  npn4);

  std::vector<reference_row> fdsd6;
  for (const auto& f :
       stpes::workload::fdsd_functions(6, kFdsdPoolSize, kFdsdSeed)) {
    fdsd6.push_back(make_row(f, kEnumerateAll));
  }
  write_reference(dir + "/fdsd6.tsv",
                  std::string{"# workload::fdsd_functions(6, 240, 2023)\n"} +
                      kColumns,
                  fdsd6);
}

}  // namespace perfbench
