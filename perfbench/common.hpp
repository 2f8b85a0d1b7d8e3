/// \file common.hpp
/// \brief Shared pieces of the benchmark runner: seeded draws, quantiles,
///        reference tables, the span recorder, the run result and the
///        deterministic-count record.

#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "tt/truth_table.hpp"
#include "util/run_context.hpp"

namespace perfbench {

/// Seconds on the steady clock.
double now_seconds();

/// splitmix64: the whole input of a run is a function of `--seed` alone.
/// The benchmark owns its generator, so a change to the program's own
/// `util::rng` cannot change the benchmark's inputs.
class rng {
public:
  explicit rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, n), n > 0.
  std::size_t below(std::size_t n) { return next() % n; }

private:
  std::uint64_t state_;
};

/// Linear-interpolated quantile (q in [0, 1]) of a non-empty sample.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}
/// The tail level the benchmark reports as `*_p90_s`: p90, or the highest
/// percentile below it that still leaves at least 10 samples beyond it,
/// but never below p50.
double tail_level(std::size_t num_samples);

/// One row of a committed reference table.
struct reference_row {
  stpes::tt::truth_table function;
  unsigned optimum = 0;    ///< optimum gate count, from the BMS engine
  long long chains = -1;   ///< complete STP chain count; -1 = not enumerated
  double cost = 0.0;       ///< reference seconds; only orders the strata
};

/// Reads `<dir>/<name>.tsv` (columns: function optimum chains cost).
std::vector<reference_row> load_reference(const std::string& dir,
                                          const std::string& name,
                                          unsigned num_vars);

/// Seeded stratified draw of `k` rows: the rows sorted by `cost` are cut
/// into `k` strata of near-equal size and one row is drawn from each; the
/// draw is repeated until its total cost is within 1% of the expected
/// total, so every seed gets a pass of about the same cost.  Returns
/// indices in a seeded order.
std::vector<std::size_t> stratified_draw(const std::vector<reference_row>& rows,
                                         std::size_t k, rng& gen);

/// A timed call into one layer, kept in memory and written at exit.
struct span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  long parent = -1;  ///< index of the causing span, -1 for a root
  std::string job;   ///< instance or request id
  [[nodiscard]] double seconds() const { return end - start; }
};

/// Thread-safe append-only span store.
class tracer {
public:
  /// Records a finished span and returns its index.
  long add(span s);
  /// Times `fn()` as span `name` and returns its index.
  template <class Fn>
  long time(const std::string& name, long parent, const std::string& job,
            Fn&& fn) {
    span s{name, now_seconds(), 0.0, parent, job};
    fn();
    s.end = now_seconds();
    return add(std::move(s));
  }
  /// Snapshot of every span so far.
  [[nodiscard]] std::vector<span> spans() const;
  /// Writes one tab-separated line per span.
  void write(const std::string& path) const;

private:
  mutable std::mutex mutex_;
  std::vector<span> spans_;
};

/// Named metric values with their units, in report order.
using metric_list =
    std::vector<std::pair<std::string, std::pair<double, std::string>>>;

/// Everything one run prints and checks.
struct run_result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  metric_list metrics;
  std::vector<std::string> errors;

  void fail(const std::string& message);
  void metric(const std::string& name, double value, const std::string& unit);
};

/// Adds to `out` every metric of the median pass: the pass whose first
/// metric is the median (the lower middle one of an even count).  Taking
/// one pass, not a median per metric, keeps metrics that sum to another
/// adding up.
void add_median_pass(const std::vector<metric_list>& passes, run_result& out);

/// Command-line options of one run.
struct options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string ref_dir = "perfbench/reference";
  std::string state_dir = ".bench_build/perfbench-state";
};

/// The engine counters that repeat exactly on complete solves, as
/// `name=value` pairs separated by spaces.
std::string deterministic_counters(const stpes::core::stage_counters& c);

/// Hex FNV-1a hash of this program's executable file: names the build
/// under test.
std::string program_id();

/// Record of deterministic counts per build: the first run of a build that
/// sees a key writes its counters, every later run of the same build (any
/// seed) must match them.  The record file is named after `program_id()`,
/// so a rebuilt program starts a record of its own.
class count_record {
public:
  count_record(const std::string& state_dir, const std::string& workload);
  /// Checks `counters` against the record for `key` (and against earlier
  /// calls in this run); a mismatch fails `out`.
  void check(const std::string& key, const std::string& counters,
             run_result& out);
  /// Appends the keys first seen in this run.
  void save() const;

private:
  std::string path_;
  std::map<std::string, std::string> known_;
  std::map<std::string, std::string> added_;
};

/// Peak resident set size of this process in MB, from VmHWM.
double peak_rss_mb();

/// Writes `text` to `path`, creating parent directories.
void write_file(const std::string& path, const std::string& text);

}  // namespace perfbench
