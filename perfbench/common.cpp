#include "common.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <numeric>
#include <sstream>
#include <stdexcept>

namespace perfbench {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    throw std::logic_error{"quantile of an empty sample"};
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double tail_level(std::size_t num_samples) {
  if (num_samples <= 20) {
    return 0.5;
  }
  return std::min(0.9, 1.0 - 10.0 / static_cast<double>(num_samples));
}

std::vector<reference_row> load_reference(const std::string& dir,
                                          const std::string& name,
                                          unsigned num_vars) {
  const std::string path = dir + "/" + name + ".tsv";
  std::ifstream in{path};
  if (!in) {
    throw std::runtime_error{"cannot read reference table " + path};
  }
  std::vector<reference_row> rows;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    std::istringstream is{line};
    std::string hex;
    std::string chains;
    reference_row row;
    if (!(is >> hex >> row.optimum >> chains >> row.cost)) {
      throw std::runtime_error{"malformed reference line in " + path + ": " +
                               line};
    }
    row.function = stpes::tt::truth_table::from_hex(num_vars, hex);
    row.chains = chains == "-" ? -1 : std::stoll(chains);
    rows.push_back(std::move(row));
  }
  if (rows.empty()) {
    throw std::runtime_error{"empty reference table " + path};
  }
  return rows;
}

std::vector<std::size_t> stratified_draw(const std::vector<reference_row>& rows,
                                         std::size_t k, rng& gen) {
  std::vector<std::size_t> order(rows.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](auto a, auto b) {
    return rows[a].cost < rows[b].cost;
  });
  k = std::min(k, rows.size());
  const auto bounds = [&](std::size_t s) {
    return std::pair{s * rows.size() / k, (s + 1) * rows.size() / k};
  };
  double target = 0.0;  // expected total cost of a stratified draw
  for (std::size_t s = 0; s < k; ++s) {
    const auto [lo, hi] = bounds(s);
    for (auto i = lo; i < hi; ++i) {
      target += rows[order[i]].cost / static_cast<double>(hi - lo);
    }
  }
  // Redraw until the total is within 1% of the expectation (keeping the
  // closest draw if none is), so that every seed's pass costs about the
  // same while each stratum stays seeded.
  std::vector<std::size_t> best;
  double best_gap = 0.0;
  for (int attempt = 0; attempt < 10000; ++attempt) {
    std::vector<std::size_t> picked;
    double total = 0.0;
    for (std::size_t s = 0; s < k; ++s) {
      const auto [lo, hi] = bounds(s);
      picked.push_back(order[lo + gen.below(hi - lo)]);
      total += rows[picked.back()].cost;
    }
    const double gap = std::abs(total - target);
    if (best.empty() || gap < best_gap) {
      best = std::move(picked);
      best_gap = gap;
    }
    if (best_gap <= 0.01 * target) {
      break;
    }
  }
  for (std::size_t i = best.size(); i > 1; --i) {
    std::swap(best[i - 1], best[gen.below(i)]);
  }
  return best;
}

long tracer::add(span s) {
  const std::lock_guard<std::mutex> lock{mutex_};
  spans_.push_back(std::move(s));
  return static_cast<long>(spans_.size()) - 1;
}

std::vector<span> tracer::spans() const {
  const std::lock_guard<std::mutex> lock{mutex_};
  return spans_;
}

void tracer::write(const std::string& path) const {
  std::ostringstream os;
  os << "# id\tname\tstart_s\tend_s\tparent\tjob\n" << std::setprecision(9);
  const auto all = spans();
  for (std::size_t i = 0; i < all.size(); ++i) {
    const auto& s = all[i];
    os << i << '\t' << s.name << '\t' << s.start << '\t' << s.end << '\t'
       << s.parent << '\t' << s.job << '\n';
  }
  write_file(path, os.str());
}

void run_result::fail(const std::string& message) {
  correct = false;
  if (errors.size() < 20) {
    errors.push_back(message);
  }
}

void run_result::metric(const std::string& name, double value,
                        const std::string& unit) {
  metrics.push_back({name, {value, unit}});
}

void add_median_pass(const std::vector<metric_list>& passes,
                     run_result& out) {
  if (passes.empty()) {
    return;
  }
  std::vector<std::size_t> order(passes.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](auto a, auto b) {
    return passes[a].front().second.first < passes[b].front().second.first;
  });
  for (const auto& [name, value_unit] : passes[order[(order.size() - 1) / 2]]) {
    out.metric(name, value_unit.first, value_unit.second);
  }
}

std::string deterministic_counters(const stpes::core::stage_counters& c) {
  std::ostringstream os;
  os << "fences=" << c.fences_enumerated << " dags=" << c.dags_generated
     << " dags_pruned=" << c.dags_pruned
     << " factorizations=" << c.factorization_attempts
     << " factor_prunes=" << c.factorization_prunes
     << " dc_expansions=" << c.dont_care_expansions
     << " memo_hits=" << c.factor_memo_hits
     << " memo_misses=" << c.factor_memo_misses
     << " allsat_props=" << c.allsat_propagations
     << " allsat_merges=" << c.allsat_merges
     << " sat_decisions=" << c.sat_decisions
     << " sat_conflicts=" << c.sat_conflicts
     << " probe_calls=" << c.probe_calls
     << " probe_unsat=" << c.probe_unsat_levels
     << " probe_sat=" << c.probe_sat_levels
     << " screen_queries=" << c.kernel_batch_queries
     << " screened=" << c.kernel_batch_screened
     << " survivors=" << c.kernel_batch_survivors;
  return os.str();
}

std::string program_id() {
  std::ifstream in{"/proc/self/exe", std::ios::binary};
  if (!in) {
    throw std::runtime_error{"cannot read /proc/self/exe"};
  }
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  std::vector<char> buf(1 << 16);
  while (in.read(buf.data(), static_cast<std::streamsize>(buf.size())) ||
         in.gcount() > 0) {
    for (std::streamsize i = 0; i < in.gcount(); ++i) {
      hash = (hash ^ static_cast<unsigned char>(buf[i])) * 0x100000001b3ULL;
    }
  }
  std::ostringstream os;
  os << std::hex << std::setw(16) << std::setfill('0') << hash;
  return os.str();
}

count_record::count_record(const std::string& state_dir,
                           const std::string& workload)
    : path_(state_dir + "/counts-" + workload + "-" + program_id() + ".tsv") {
  std::ifstream in{path_};
  std::string line;
  while (std::getline(in, line)) {
    const auto tab = line.find('\t');
    if (tab != std::string::npos) {
      known_[line.substr(0, tab)] = line.substr(tab + 1);
    }
  }
}

void count_record::check(const std::string& key, const std::string& counters,
                         run_result& out) {
  auto it = known_.find(key);
  if (it == known_.end()) {
    known_[key] = counters;
    added_[key] = counters;
    return;
  }
  if (it->second != counters) {
    out.fail("counters of " + key + " did not repeat: recorded {" +
             it->second + "}, now {" + counters + "}");
  }
}

void count_record::save() const {
  if (added_.empty()) {
    return;
  }
  std::filesystem::create_directories(
      std::filesystem::path{path_}.parent_path());
  std::ofstream out{path_, std::ios::app};
  for (const auto& [key, counters] : added_) {
    out << key << '\t' << counters << '\n';
  }
}

double peak_rss_mb() {
  const std::string path = "/proc/self/status";
  std::ifstream in{path};
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  throw std::runtime_error{"no VmHWM in " + path};
}

void write_file(const std::string& path, const std::string& text) {
  const auto parent = std::filesystem::path{path}.parent_path();
  if (!parent.empty()) {
    std::filesystem::create_directories(parent);
  }
  std::ofstream out{path};
  out << text;
  if (!out) {
    throw std::runtime_error{"cannot write " + path};
  }
}

}  // namespace perfbench
