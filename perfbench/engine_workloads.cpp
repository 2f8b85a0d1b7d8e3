// The three engine workloads: passes of seeded draws from a committed
// reference pool, solved in-process on one thread, until the run's seconds
// are spent.  Traced passes replay every layer from outside.

#include <spawn.h>
#include <sys/wait.h>

#include <algorithm>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>

#include "allsat/circuit_allsat.hpp"
#include "core/exact_synthesis.hpp"
#include "fence/dag.hpp"
#include "server/protocol.hpp"
#include "service/shard_cache.hpp"
#include "synth/lower_bound.hpp"
#include "synth/stp_synth.hpp"
#include "tt/isf.hpp"
#include "tt/npn.hpp"
#include "workload/collections.hpp"
#include "workloads.hpp"

extern char** environ;

namespace perfbench {

using stpes::tt::truth_table;

namespace {

/// How one engine workload draws and solves its instances.
struct engine_workload {
  const char* table;      ///< reference table the pool comes from
  unsigned num_vars;
  unsigned min_optimum;   ///< pool: reference optimum in [min, max]
  unsigned max_optimum;
  std::size_t draw;       ///< instances per pass (one per cost stratum)
  bool first_only;        ///< stop at the first optimum chain
  double budget_s;        ///< per-instance budget; a hit is a failure
  /// `inst_p90_s` is taken over the first this many untraced passes, so its
  /// percentile level (which needs 10 samples beyond it) is fixed per
  /// workload instead of moving with the number of passes that fit in a
  /// run; a moving level can land on a gap in the cost distribution and
  /// flip between runs.  Every run makes at least this many passes.
  std::size_t tail_passes;
};

engine_workload describe(const std::string& name) {
  if (name == "npn4-enum") {
    return {.table = "npn4", .num_vars = 4, .min_optimum = 0,
            .max_optimum = 5, .draw = 15, .first_only = false,
            .budget_s = 30.0, .tail_passes = 6};
  }
  if (name == "npn4-first") {
    return {.table = "npn4", .num_vars = 4, .min_optimum = 6,
            .max_optimum = 7, .draw = 9, .first_only = true,
            .budget_s = 10.0, .tail_passes = 4};
  }
  if (name == "fdsd6-enum") {
    return {.table = "fdsd6", .num_vars = 6, .min_optimum = 0,
            .max_optimum = 99, .draw = 41, .first_only = false,
            .budget_s = 30.0, .tail_passes = 6};
  }
  throw std::invalid_argument{"unknown engine workload: " + name};
}

/// Loads the reference table and checks that it lists exactly the
/// program's own collection (the NPN4 classes, or the fdsd6 pool).
std::vector<reference_row> load_checked_table(const options& opt,
                                              const engine_workload& w) {
  auto rows = load_reference(opt.ref_dir, w.table, w.num_vars);
  const auto collection =
      w.num_vars == 4 ? stpes::workload::npn4_classes()
                      : stpes::workload::fdsd_functions(6, kFdsdPoolSize,
                                                        kFdsdSeed);
  bool same = rows.size() == collection.size();
  for (std::size_t i = 0; same && i < rows.size(); ++i) {
    same = rows[i].function == collection[i];
  }
  if (!same) {
    throw std::runtime_error{std::string{"reference table "} + w.table +
                             " does not list the program's collection"};
  }
  return rows;
}

/// The pool of a workload: rows whose optimum is in range and which the
/// reference generation solved (enumerated, or a first chain found).  Rows
/// in range that are left out go to `left_out`, if given.
std::vector<reference_row> pool_of(const std::vector<reference_row>& rows,
                                   const engine_workload& w,
                                   std::vector<std::string>* left_out =
                                       nullptr) {
  std::vector<reference_row> pool;
  for (const auto& r : rows) {
    if (r.optimum < w.min_optimum || r.optimum > w.max_optimum) {
      continue;
    }
    // npn4-first keeps classes whose reference first chain took at most
    // half the budget: the budget then only catches slowdowns.
    const bool solved = w.first_only
                            ? r.cost >= 0.0 && r.cost <= w.budget_s / 2
                            : r.chains >= 0;
    if (solved) {
      pool.push_back(r);
    } else if (left_out != nullptr) {
      left_out->push_back(r.function.to_hex());
    }
  }
  return pool;
}

/// The next pass's instances: a fresh stratified draw from `gen`.
std::vector<reference_row> draw_pass(const std::vector<reference_row>& pool,
                                     const engine_workload& w, rng& gen) {
  std::vector<reference_row> inputs;
  for (auto i : stratified_draw(pool, w.draw, gen)) {
    inputs.push_back(pool[i]);
  }
  return inputs;
}

/// Runs this runner with `--setup-only` `repeats` times and returns the
/// median wall time of a child from spawn to exit: process start, static
/// initialization, reference loading, input generation and warm-up.
double measure_setup(const options& opt, int repeats) {
  const std::string seed = std::to_string(opt.seed);
  std::vector<std::string> args{"/proc/self/exe", "--setup-only",
                                "--workload",     opt.workload,
                                "--seed",         seed,
                                "--ref-dir",      opt.ref_dir};
  std::vector<char*> argv;
  for (auto& a : args) {
    argv.push_back(a.data());
  }
  argv.push_back(nullptr);
  std::vector<double> times;
  for (int i = 0; i < repeats; ++i) {
    const double start = now_seconds();
    pid_t pid = 0;
    if (posix_spawn(&pid, "/proc/self/exe", nullptr, nullptr, argv.data(),
                    environ) != 0) {
      throw std::runtime_error{"cannot spawn the set-up child"};
    }
    int status = 0;
    waitpid(pid, &status, 0);
    times.push_back(now_seconds() - start);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      throw std::runtime_error{"set-up child failed"};
    }
  }
  return median(times);
}

struct solve_outcome {
  stpes::synth::result result;
  double wall = 0.0;
};

solve_outcome solve(const truth_table& f, const engine_workload& w) {
  stpes::core::run_context ctx{w.budget_s};
  stpes::synth::spec s;
  s.function = f;
  s.ctx = &ctx;
  s.num_threads = 1;
  solve_outcome o;
  const double start = now_seconds();
  if (w.first_only) {
    stpes::synth::stp_options first;
    first.max_solutions = 1;
    o.result = stpes::synth::stp_engine{first}.run(s);
  } else {
    o.result = stpes::core::exact_synthesis(s, stpes::core::engine::stp);
  }
  o.wall = now_seconds() - start;
  return o;
}

/// Checks one solve against the reference.  Returns true when the
/// instance reached its goal; a budget hit returns false without failing
/// the run, anything wrong fails it.
bool check_solve(const reference_row& ref, const solve_outcome& o,
                 const engine_workload& w, run_result& out) {
  const auto& r = o.result;
  const std::string hex = ref.function.to_hex();
  if (r.outcome == stpes::synth::status::timeout ||
      (r.ok() && !r.enumeration_complete)) {
    return false;  // the budget cut the solve
  }
  if (!r.ok()) {
    out.fail(hex + ": engine returned " +
             stpes::synth::to_string(r.outcome));
    return false;
  }
  if (r.optimum_gates != ref.optimum) {
    out.fail(hex + ": optimum " + std::to_string(r.optimum_gates) +
             ", reference " + std::to_string(ref.optimum));
  }
  const long long want = w.first_only ? 1 : ref.chains;
  if (static_cast<long long>(r.chains.size()) != want) {
    out.fail(hex + ": " + std::to_string(r.chains.size()) +
             " chains, reference " + std::to_string(want));
  }
  for (const auto& c : r.chains) {
    if (c.simulate() != ref.function || c.num_steps() != r.optimum_gates) {
      out.fail(hex + ": a returned chain does not realize the function "
                     "with the optimum step count");
      break;
    }
  }
  return true;
}

/// Solves the 3-input majority once, so lazy initialization inside the
/// library happens before anything is timed.
void warm_up_engine() {
  (void)stpes::core::exact_synthesis(truth_table{3, 0xe8});
}

/// Replays the engine layers of one solve of `function` from outside the
/// engine, as spans under `parent`: `synth.probe` for every level from the
/// trivial bound to `optimum`, `fence.dag_gen` for every level the probe
/// did not refute, and `allsat.verify` of every chain (a chain that fails
/// verification fails `out`).
void replay_engine_layers(
    const truth_table& function, unsigned optimum,
    const std::vector<stpes::chain::boolean_chain>& chains, long parent,
    const std::string& job, tracer& tr, run_result& out) {
  std::vector<unsigned> old_of_new;
  const auto shrunk =
      stpes::synth::shrink_for_synthesis(function, old_of_new);
  const unsigned n = shrunk.num_vars();
  if (n < 2) {
    return;  // constants and literals never reach the engine
  }
  const auto requirement = stpes::tt::isf::from_function(shrunk);
  const stpes::synth::lower_bound_prober prober;
  for (unsigned k = std::max(1u, n - 1); k <= optimum; ++k) {
    stpes::synth::probe_result verdict;
    tr.time("synth.probe", parent, job,
            [&] { verdict = prober.probe(requirement, k); });
    if (verdict.verdict == stpes::synth::probe_verdict::infeasible) {
      continue;  // the engine skips this level's DAGs
    }
    std::size_t dags = 0;
    tr.time("fence.dag_gen", parent, job, [&] {
      dags = stpes::fence::generate_dags_for_size(k).size();
    });
    if (dags == 0) {
      out.fail(job + ": no DAG topologies for " + std::to_string(k) +
               " gates");
    }
  }
  for (const auto& c : chains) {
    bool ok = false;
    tr.time("allsat.verify", parent, job,
            [&] { ok = stpes::allsat::verify_chain(c, function); });
    if (!ok) {
      out.fail(job + ": allsat::verify_chain rejected a returned chain");
    }
  }
}

/// Replays the serving path a request for `function` would take, from
/// outside the daemon, as spans under `parent`: `server.parse` (tokenize +
/// `parse_synth_args` of the request line `line_client::synth` sends),
/// `tt.npn_canon` (`exact_npn_canonize`, or the plain key the service uses
/// above five inputs) and `service.cache_hit` (`shard_cache::get_or_compute`
/// on a key already present in `cache`; `result` fills it on first sight).
void replay_serve_layers(const truth_table& function,
                         const stpes::synth::result& result,
                         stpes::service::shard_cache& cache, long parent,
                         const std::string& job, tracer& tr, run_result& out) {
  const std::string line = "SYNTH STP " +
                           std::to_string(function.num_vars()) + " " +
                           function.to_hex();
  const stpes::server::request_limits limits;
  tr.time("server.parse", parent, job, [&] {
    const auto tokens = stpes::server::tokenize(line);
    (void)stpes::server::parse_synth_args({tokens.begin() + 1, tokens.end()},
                                          limits);
  });
  stpes::service::cache_key key;
  tr.time("tt.npn_canon", parent, job, [&] {
    key.functions = {function.num_vars() <= 5
                         ? stpes::tt::exact_npn_canonize(function).canonical
                         : function};
  });
  (void)cache.get_or_compute(key, [&] { return result; });
  bool recomputed = false;
  tr.time("service.cache_hit", parent, job, [&] {
    (void)cache.get_or_compute(key, [&] {
      recomputed = true;
      return result;
    });
  });
  if (recomputed) {
    out.fail(job + ": shard_cache recomputed a present key");
  }
}

/// Engine-layer metrics of one traced pass: span totals (the engine span
/// is `synth.engine`) and the stage counters of the pass.
metric_list engine_layer_metrics(const std::vector<span>& spans,
                                 const stpes::core::stage_counters& c) {
  double engine = 0.0;
  double probe = 0.0;
  double dag_gen = 0.0;
  double verify = 0.0;
  for (const auto& s : spans) {
    if (s.name == "synth.engine") {
      engine += s.seconds();
    } else if (s.name == "synth.probe") {
      probe += s.seconds();
    } else if (s.name == "fence.dag_gen") {
      dag_gen += s.seconds();
    } else if (s.name == "allsat.verify") {
      verify += s.seconds();
    }
  }
  const auto ratio = [](std::uint64_t num, std::uint64_t den) {
    return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
  };
  const auto count = [](std::uint64_t v) { return static_cast<double>(v); };
  const auto memo_lookups = c.factor_memo_hits + c.factor_memo_misses;
  return {
      {"synth.engine_s", {engine, "s"}},
      {"synth.probe_s", {probe, "s"}},
      {"synth.probe_calls", {count(c.probe_calls), "count"}},
      {"synth.probe_unsat_levels", {count(c.probe_unsat_levels), "count"}},
      {"sat.conflicts", {count(c.sat_conflicts), "count"}},
      {"fence.dag_gen_s", {dag_gen, "s"}},
      {"fence.dags_generated", {count(c.dags_generated), "count"}},
      {"fence.dags_pruned", {count(c.dags_pruned), "count"}},
      {"allsat.verify_s", {verify, "s"}},
      {"allsat.propagations", {count(c.allsat_propagations), "count"}},
      {"synth.dfs_self_s", {engine - probe - dag_gen - verify, "s"}},
      {"synth.factorization_attempts",
       {count(c.factorization_attempts), "count"}},
      {"synth.dont_care_expansions",
       {count(c.dont_care_expansions), "count"}},
      {"synth.memo_hit_rate",
       {ratio(c.factor_memo_hits, memo_lookups), "ratio"}},
      {"synth.memo_lookups", {count(memo_lookups), "count"}},
      {"synth.screen_reject_rate",
       {ratio(c.kernel_batch_screened, c.kernel_batch_queries), "ratio"}},
      {"synth.screen_queries", {count(c.kernel_batch_queries), "count"}},
  };
}

/// Serving-layer metrics of one traced pass: per-call medians of the
/// `server.parse`, `tt.npn_canon` and `service.cache_hit` replays.
metric_list serve_layer_metrics(const std::vector<span>& spans) {
  std::map<std::string, std::vector<double>> by_name;
  for (const auto& s : spans) {
    by_name[s.name].push_back(s.seconds());
  }
  const auto med = [&](const char* name) {
    const auto& v = by_name[name];
    return v.empty() ? 0.0 : median(v);
  };
  return {
      {"tt.npn_canon_s", {med("tt.npn_canon"), "s"}},
      {"server.parse_s", {med("server.parse"), "s"}},
      {"service.cache_hit_s", {med("service.cache_hit"), "s"}},
  };
}

}  // namespace

bool is_workload(const std::string& name) {
  return name == "npn4-enum" || name == "npn4-first" ||
         name == "fdsd6-enum";
}

void setup_only(const options& opt) {
  const auto w = describe(opt.workload);
  rng gen{opt.seed};
  (void)draw_pass(pool_of(load_checked_table(opt, w), w), w, gen);
  warm_up_engine();
}

run_result run_engine_workload(const options& opt) {
  const auto w = describe(opt.workload);
  run_result out;
  warm_up_engine();
  const double setup_s = opt.trace ? 0.0 : measure_setup(opt, 15);
  std::vector<std::string> left_out;
  const auto pool = pool_of(load_checked_table(opt, w), w, &left_out);
  if (!left_out.empty()) {
    std::cerr << opt.workload << ": the pool leaves out " << left_out.size()
              << " rows of its optimum range (see perfbench/README.md):";
    for (const auto& hex : left_out) {
      std::cerr << ' ' << hex;
    }
    std::cerr << '\n';
  }
  rng gen{opt.seed};
  count_record record{opt.state_dir, opt.workload};
  tracer tr;

  std::vector<double> walls;
  std::vector<double> traced_walls;
  std::vector<double> inst_times;
  std::vector<double> tail_times;  // the first w.tail_passes untraced passes
  std::vector<metric_list> layer_passes;
  std::uint64_t solved = 0;
  std::ostringstream instances;
  instances << "# pass\tfunction\ttraced\tseconds\tsolved\tchains\n";

  const double start = now_seconds();
  for (int pass = 0;; ++pass) {
    const bool traced = opt.trace && pass % 2 == 1;
    const auto inputs = draw_pass(pool, w, gen);
    const std::size_t first_span = tr.spans().size();
    stpes::service::shard_cache cache;
    stpes::core::stage_counters pass_counters;
    std::vector<std::string> budget_hits;
    const double pass_start = now_seconds();
    for (const auto& ref : inputs) {
      const std::string hex = ref.function.to_hex();
      const double t0 = now_seconds();
      const auto o = solve(ref.function, w);
      const bool ok = check_solve(ref, o, w, out);
      if (!traced) {
        ++out.attempted;
        inst_times.push_back(o.wall);
        if (walls.size() < w.tail_passes) {
          tail_times.push_back(o.wall);
        }
        solved += ok ? 1 : 0;
        out.failed += ok ? 0 : 1;
      }
      if (!ok) {
        budget_hits.push_back(hex);
      } else if (o.result.enumeration_complete) {
        record.check(opt.workload + ":" + hex,
                     deterministic_counters(o.result.counters), out);
      }
      pass_counters += o.result.counters;
      instances << pass << '\t' << hex << '\t' << traced << '\t' << o.wall
                << '\t' << ok << '\t' << o.result.chains.size() << '\n';
      if (traced) {
        const long engine =
            tr.add({"synth.engine", t0, t0 + o.wall, -1, hex});
        replay_engine_layers(ref.function, o.result.optimum_gates,
                             o.result.chains, engine, hex, tr, out);
        replay_serve_layers(ref.function, o.result, cache, engine, hex, tr,
                            out);
      }
    }
    const double wall = now_seconds() - pass_start;
    (traced ? traced_walls : walls).push_back(wall);
    if (traced) {
      const auto all = tr.spans();
      const std::vector<span> pass_spans(all.begin() + first_span, all.end());
      auto layers = engine_layer_metrics(pass_spans, pass_counters);
      for (auto& m : serve_layer_metrics(pass_spans)) {
        layers.push_back(std::move(m));
      }
      layer_passes.push_back(std::move(layers));
    }
    if (!budget_hits.empty()) {
      std::cerr << opt.workload << " pass " << pass << " budget hits:";
      for (const auto& h : budget_hits) {
        std::cerr << ' ' << h;
      }
      std::cerr << '\n';
    }
    const double elapsed = now_seconds() - start;
    const bool enough = opt.trace ? !traced_walls.empty()
                                  : walls.size() >= w.tail_passes;
    if (enough && elapsed + wall > opt.seconds) {
      break;
    }
  }
  record.save();
  const std::string tag = opt.workload + "-seed" + std::to_string(opt.seed);
  write_file(opt.state_dir + "/runs/" + tag + "-trace" +
                 std::to_string(opt.trace) + ".tsv",
             instances.str());

  if (opt.trace) {
    tr.write(opt.state_dir + "/runs/" + tag + "-spans.tsv");
    add_median_pass(layer_passes, out);
    out.metric("trace.overhead_s", median(traced_walls) - median(walls), "s");
    return out;
  }
  out.metric("setup_s", setup_s, "s");
  out.metric("wall_s", median(walls), "s");
  out.metric("inst_p50_s", median(inst_times), "s");
  out.metric("inst_p90_s", quantile(tail_times, tail_level(tail_times.size())),
             "s");
  out.metric("solved_share",
             static_cast<double>(solved) / static_cast<double>(out.attempted),
             "share");
  // The process peak over the whole run: per-instance memory differs by
  // more than an order of magnitude with no relation to cost, so any
  // per-instance statistic follows the draw, while the peak over a run's
  // several draws is set by the pool's heaviest classes.
  out.metric("peak_rss_mb", peak_rss_mb(), "MB");
  return out;
}

}  // namespace perfbench
