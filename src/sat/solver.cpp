#include "sat/solver.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <memory>

namespace stpes::sat {

namespace {

/// A clause's offset in the clause arena.
using cref = std::uint32_t;
constexpr cref kNoClause = ~cref{0};

/// Every clause of a solver, stored inline in one flat array: a two-word
/// header (literal count and flags; the activity slot of a learnt clause)
/// followed by the literals, so a watcher reaches the literals through one
/// offset.  Freed clauses stay in place until the solver compacts the
/// arena (`assign_forwarding`, then `slide_down`).
class clause_arena {
public:
  cref alloc(const std::vector<lit>& lits, bool learnt, std::uint32_t slot) {
    const auto c = static_cast<cref>(mem_.size());
    mem_.push_back(header(lits.size() << 2 | (learnt ? 1 : 0)));
    mem_.push_back(header(slot));
    mem_.insert(mem_.end(), lits.begin(), lits.end());
    return c;
  }

  [[nodiscard]] std::uint32_t size(cref c) const { return word(c) >> 2; }
  [[nodiscard]] bool learnt(cref c) const { return (word(c) & 1) != 0; }
  [[nodiscard]] std::uint32_t slot(cref c) const { return word(c + 1); }
  void set_slot(cref c, std::uint32_t slot) { mem_[c + 1] = header(slot); }
  lit* lits(cref c) { return mem_.data() + c + kHeader; }

  void release(cref c) { mem_[c] = header(word(c) | 2); }

  /// Compaction, first step: the new offset of every live clause, readable
  /// through `forward` until `slide_down`.  Overwrites the slots.
  void assign_forwarding() {
    cref next = 0;
    for (cref c = 0; c < mem_.size(); c += kHeader + size(c)) {
      if (!dead(c)) {
        mem_[c + 1] = header(next);
        next += kHeader + size(c);
      }
    }
  }
  [[nodiscard]] cref forward(cref c) const { return word(c + 1); }
  /// Compaction, second step: moves every live clause to its new offset.
  void slide_down() {
    cref end = 0;
    for (cref c = 0; c < mem_.size();) {
      const cref len = kHeader + size(c);
      if (!dead(c)) {
        end = forward(c) + len;
        std::copy(mem_.begin() + c, mem_.begin() + c + len,
                  mem_.begin() + forward(c));
      }
      c += len;
    }
    mem_.resize(end);
  }

private:
  static constexpr cref kHeader = 2;

  static lit header(std::uint64_t bits) {
    return lit::from_code(static_cast<std::int32_t>(bits));
  }
  [[nodiscard]] std::uint32_t word(cref c) const {
    return static_cast<std::uint32_t>(mem_[c].code());
  }
  [[nodiscard]] bool dead(cref c) const { return (word(c) & 2) != 0; }

  std::vector<lit> mem_;
};

struct watcher {
  cref c = kNoClause;
  lit blocker;
};

/// Finite-subsequence generator for Luby restarts.
double luby(double y, std::uint64_t x) {
  std::uint64_t size = 1;
  std::uint64_t seq = 0;
  while (size < x + 1) {
    ++seq;
    size = 2 * size + 1;
  }
  while (size - 1 != x) {
    size = (size - 1) >> 1;
    --seq;
    x = x % size;
  }
  return std::pow(y, static_cast<double>(seq));
}

/// Indexed binary max-heap over variable activities.
class var_heap {
public:
  explicit var_heap(const std::vector<double>& activity)
      : activity_(activity) {}

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] bool contains(var v) const {
    return v < static_cast<var>(index_.size()) && index_[v] >= 0;
  }

  void reserve_var(var v) {
    if (v >= static_cast<var>(index_.size())) {
      index_.resize(static_cast<std::size_t>(v) + 1, -1);
    }
  }

  void insert(var v) {
    reserve_var(v);
    if (contains(v)) {
      return;
    }
    index_[v] = static_cast<int>(heap_.size());
    heap_.push_back(v);
    percolate_up(index_[v]);
  }

  var remove_max() {
    const var top = heap_[0];
    heap_[0] = heap_.back();
    index_[heap_[0]] = 0;
    heap_.pop_back();
    index_[top] = -1;
    if (!heap_.empty()) {
      percolate_down(0);
    }
    return top;
  }

  /// Activity of `v` increased: restore the heap property.
  void increased(var v) {
    if (contains(v)) {
      percolate_up(index_[v]);
    }
  }

private:
  [[nodiscard]] bool greater(var a, var b) const {
    return activity_[a] > activity_[b];
  }

  void percolate_up(int i) {
    const var v = heap_[i];
    while (i > 0) {
      const int parent = (i - 1) >> 1;
      if (!greater(v, heap_[parent])) {
        break;
      }
      heap_[i] = heap_[parent];
      index_[heap_[i]] = i;
      i = parent;
    }
    heap_[i] = v;
    index_[v] = i;
  }

  void percolate_down(int i) {
    const var v = heap_[i];
    const int n = static_cast<int>(heap_.size());
    while (true) {
      int child = 2 * i + 1;
      if (child >= n) {
        break;
      }
      if (child + 1 < n && greater(heap_[child + 1], heap_[child])) {
        ++child;
      }
      if (!greater(heap_[child], v)) {
        break;
      }
      heap_[i] = heap_[child];
      index_[heap_[i]] = i;
      i = child;
    }
    heap_[i] = v;
    index_[v] = i;
  }

  const std::vector<double>& activity_;
  std::vector<var> heap_;
  std::vector<int> index_;
};

}  // namespace

struct solver::impl {
  // Problem state -----------------------------------------------------
  clause_arena arena;
  std::size_t num_problem_clauses = 0;
  std::vector<cref> learnts;
  /// Learnt clause activities; `learnt_activity[arena.slot(c)]` is c's.
  std::vector<double> learnt_activity;
  std::vector<lit> learnt_buffer;  // the clause `analyze` derives
  std::vector<std::vector<watcher>> watches;  // indexed by lit code
  std::vector<lbool> assigns;
  std::vector<bool> polarity;  // saved phases (true = last value was true)
  std::vector<double> activity;
  std::vector<int> level;
  std::vector<cref> reason;
  std::vector<lit> trail;
  std::vector<std::size_t> trail_lim;
  std::size_t qhead = 0;
  bool ok = true;

  var_heap order{activity};
  std::vector<char> seen;
  double var_inc = 1.0;
  double cla_inc = 1.0;
  static constexpr double kVarDecay = 0.95;
  static constexpr double kClaDecay = 0.999;

  // Budgets and results ------------------------------------------------
  std::uint64_t conflict_budget = 0;  // 0 = unlimited
  core::run_context* run_ctx = nullptr;  // shared; not owned
  std::uint64_t conflicts_at_solve_start = 0;

  /// Deadline hit, or cancellation requested.
  [[nodiscard]] bool budget_stop() const {
    return run_ctx != nullptr && run_ctx->should_stop();
  }
  std::vector<lbool> model;
  solver_stats stats;
  std::size_t reduce_count = 0;

  // Helpers -------------------------------------------------------------
  [[nodiscard]] lbool value(lit p) const {
    return lit_value(assigns[p.variable()], p.negated());
  }
  [[nodiscard]] int decision_level() const {
    return static_cast<int>(trail_lim.size());
  }

  void new_decision_level() { trail_lim.push_back(trail.size()); }

  void enqueue(lit p, cref from) {
    const var v = p.variable();
    assigns[v] = to_lbool(!p.negated());
    level[v] = decision_level();
    reason[v] = from;
    trail.push_back(p);
  }

  void attach(cref c) {
    const lit* lits = arena.lits(c);
    watches[(~lits[0]).code()].push_back(watcher{c, lits[1]});
    watches[(~lits[1]).code()].push_back(watcher{c, lits[0]});
  }

  void detach(cref c) {
    for (int i = 0; i < 2; ++i) {
      auto& ws = watches[(~arena.lits(c)[i]).code()];
      ws.erase(std::remove_if(ws.begin(), ws.end(),
                              [c](const watcher& w) { return w.c == c; }),
               ws.end());
    }
  }

  void var_bump(var v) {
    activity[v] += var_inc;
    if (activity[v] > 1e100) {
      for (auto& a : activity) {
        a *= 1e-100;
      }
      var_inc *= 1e-100;
    }
    order.increased(v);
  }

  void cla_bump(cref c) {
    double& activity = learnt_activity[arena.slot(c)];
    activity += cla_inc;
    if (activity > 1e20) {
      for (auto& a : learnt_activity) {
        a *= 1e-20;
      }
      cla_inc *= 1e-20;
    }
  }

  cref propagate() {
    cref conflict = kNoClause;
    while (qhead < trail.size()) {
      const lit p = trail[qhead++];
      auto& ws = watches[p.code()];
      std::size_t keep = 0;
      std::size_t i = 0;
      for (; i < ws.size(); ++i) {
        ++stats.propagations;
        const watcher w = ws[i];
        if (value(w.blocker) == lbool::true_value) {
          ws[keep++] = w;
          continue;
        }
        lit* c = arena.lits(w.c);
        // Normalize: the false literal ~p sits at position 1.
        if (c[0] == ~p) {
          std::swap(c[0], c[1]);
        }
        const lit first = c[0];
        if (first != w.blocker && value(first) == lbool::true_value) {
          ws[keep++] = watcher{w.c, first};
          continue;
        }
        bool moved = false;
        const std::uint32_t size = arena.size(w.c);
        for (std::uint32_t k = 2; k < size; ++k) {
          if (value(c[k]) != lbool::false_value) {
            std::swap(c[1], c[k]);
            watches[(~c[1]).code()].push_back(watcher{w.c, first});
            moved = true;
            break;
          }
        }
        if (moved) {
          continue;
        }
        // Unit or conflicting.
        ws[keep++] = watcher{w.c, first};
        if (value(first) == lbool::false_value) {
          conflict = w.c;
          qhead = trail.size();
          for (++i; i < ws.size(); ++i) {
            ws[keep++] = ws[i];
          }
          break;
        }
        enqueue(first, w.c);
      }
      ws.resize(keep);
      if (conflict != kNoClause) {
        break;
      }
    }
    return conflict;
  }

  void backtrack_to(int target_level) {
    if (decision_level() <= target_level) {
      return;
    }
    const std::size_t bound = trail_lim[target_level];
    for (std::size_t i = trail.size(); i-- > bound;) {
      const var v = trail[i].variable();
      polarity[v] = assigns[v] == lbool::true_value;
      assigns[v] = lbool::undef;
      reason[v] = kNoClause;
      order.insert(v);
    }
    trail.resize(bound);
    trail_lim.resize(static_cast<std::size_t>(target_level));
    qhead = trail.size();
  }

  /// First-UIP conflict analysis; fills `out_learnt` (asserting literal
  /// first) and returns the backtrack level.
  int analyze(cref conflict, std::vector<lit>& out_learnt) {
    out_learnt.clear();
    out_learnt.push_back(lit{});  // placeholder for the asserting literal
    int path_count = 0;
    lit p;
    bool p_valid = false;
    std::size_t index = trail.size();

    cref reason_clause = conflict;
    do {
      assert(reason_clause != kNoClause);
      if (arena.learnt(reason_clause)) {
        cla_bump(reason_clause);
      }
      // A reason clause holds its implied literal at position 0.
      const lit* lits = arena.lits(reason_clause);
      const std::uint32_t size = arena.size(reason_clause);
      for (std::uint32_t j = p_valid ? 1 : 0; j < size; ++j) {
        const lit q = lits[j];
        const var v = q.variable();
        if (seen[v] == 0 && level[v] > 0) {
          var_bump(v);
          seen[v] = 1;
          if (level[v] >= decision_level()) {
            ++path_count;
          } else {
            out_learnt.push_back(q);
          }
        }
      }
      while (seen[trail[index - 1].variable()] == 0) {
        --index;
      }
      p = trail[index - 1];
      p_valid = true;
      --index;
      reason_clause = reason[p.variable()];
      seen[p.variable()] = 0;
      --path_count;
    } while (path_count > 0);
    out_learnt[0] = ~p;

    // Cheap clause minimization: drop literals implied at level 0 already
    // excluded above; full recursive minimization is not needed for the
    // instance sizes of this project.
    int backtrack_level = 0;
    if (out_learnt.size() > 1) {
      std::size_t max_i = 1;
      for (std::size_t i = 2; i < out_learnt.size(); ++i) {
        if (level[out_learnt[i].variable()] >
            level[out_learnt[max_i].variable()]) {
          max_i = i;
        }
      }
      std::swap(out_learnt[1], out_learnt[max_i]);
      backtrack_level = level[out_learnt[1].variable()];
    }
    for (const lit q : out_learnt) {
      seen[q.variable()] = 0;
    }
    return backtrack_level;
  }

  void reduce_db() {
    std::sort(learnts.begin(), learnts.end(), [this](cref a, cref b) {
      const bool a_long = arena.size(a) > 2;
      if (a_long != (arena.size(b) > 2)) {
        return a_long;  // long clauses first (worse)
      }
      return learnt_activity[arena.slot(a)] <
             learnt_activity[arena.slot(b)];
    });
    const std::size_t target = learnts.size() / 2;
    std::size_t removed = 0;
    std::vector<cref> kept;
    std::vector<double> kept_activity;
    kept.reserve(learnts.size());
    kept_activity.reserve(learnts.size());
    for (const cref c : learnts) {
      const lit first = arena.lits(c)[0];
      const bool locked = reason[first.variable()] == c &&
                          value(first) == lbool::true_value;
      if (removed < target && arena.size(c) > 2 && !locked) {
        detach(c);
        arena.release(c);
        ++removed;
        ++stats.removed_clauses;
      } else {
        kept.push_back(c);
        kept_activity.push_back(learnt_activity[arena.slot(c)]);
      }
    }
    learnts = std::move(kept);
    learnt_activity = std::move(kept_activity);
    // Half the learnt clauses were just freed: compacting now keeps the
    // arena from growing over dead clauses.
    compact();
    for (std::uint32_t i = 0; i < learnts.size(); ++i) {
      arena.set_slot(learnts[i], i);
    }
  }

  /// Slides the live clauses down the arena; every watcher, reason and
  /// learnt list entry follows its clause.  Slots must be reassigned after.
  void compact() {
    arena.assign_forwarding();
    for (auto& ws : watches) {
      for (auto& w : ws) {
        w.c = arena.forward(w.c);
      }
    }
    for (const lit p : trail) {
      cref& r = reason[p.variable()];
      if (r != kNoClause) {
        r = arena.forward(r);
      }
    }
    for (cref& c : learnts) {
      c = arena.forward(c);
    }
    arena.slide_down();
  }

  /// Runs CDCL until a restart limit, a budget stop, or a definite answer.
  solve_result search(std::uint64_t conflicts_allowed,
                      const std::vector<lit>& assumptions) {
    std::uint64_t local_conflicts = 0;
    while (true) {
      const cref conflict = propagate();
      if (conflict != kNoClause) {
        ++stats.conflicts;
        ++local_conflicts;
        if (decision_level() == 0) {
          ok = false;
          return solve_result::unsat;
        }
        // Conflicts involving assumption decisions resolve naturally: the
        // learnt clause asserts below the assumption prefix, and an
        // unsatisfiable assumption set eventually surfaces as a falsified
        // assumption at its decision step (or a level-0 conflict).
        std::vector<lit>& learnt = learnt_buffer;
        const int bt_level = analyze(conflict, learnt);
        backtrack_to(bt_level);
        if (learnt.size() == 1) {
          if (decision_level() > 0) {
            // Asserting unit below current level: restart to level 0.
            backtrack_to(0);
          }
          if (value(learnt[0]) == lbool::undef) {
            enqueue(learnt[0], kNoClause);
          } else if (value(learnt[0]) == lbool::false_value) {
            ok = false;
            return solve_result::unsat;
          }
        } else {
          const cref c = arena.alloc(
              learnt, true, static_cast<std::uint32_t>(learnt_activity.size()));
          learnt_activity.push_back(cla_inc);
          learnts.push_back(c);
          ++stats.learnt_clauses;
          attach(c);
          enqueue(learnt[0], c);
        }
        var_inc /= kVarDecay;
        cla_inc /= kClaDecay;
        if (conflict_budget != 0 &&
            stats.conflicts - conflicts_at_solve_start >= conflict_budget) {
          backtrack_to(0);
          return solve_result::unknown;
        }
        if ((local_conflicts & 0xFF) == 0 && budget_stop()) {
          backtrack_to(0);
          return solve_result::unknown;
        }
        if (local_conflicts >= conflicts_allowed) {
          backtrack_to(0);
          ++stats.restarts;
          return solve_result::unknown;  // caller restarts
        }
        if (learnts.size() > 4000 + 1000 * reduce_count) {
          ++reduce_count;
          reduce_db();
        }
        continue;
      }

      // No conflict: extend the assignment.
      if (decision_level() < static_cast<int>(assumptions.size())) {
        const lit p = assumptions[static_cast<std::size_t>(decision_level())];
        if (value(p) == lbool::true_value) {
          new_decision_level();
          continue;
        }
        if (value(p) == lbool::false_value) {
          return solve_result::unsat;  // conflicting assumptions
        }
        ++stats.decisions;
        new_decision_level();
        enqueue(p, kNoClause);
        continue;
      }

      var next = -1;
      while (!order.empty()) {
        const var candidate = order.remove_max();
        if (assigns[candidate] == lbool::undef) {
          next = candidate;
          break;
        }
      }
      if (next < 0) {
        model = assigns;  // complete satisfying assignment
        return solve_result::sat;
      }
      ++stats.decisions;
      // Conflict-free stretches (easy instances, long propagation runs)
      // must still observe cancellation within a bounded stride.
      if ((stats.decisions & 0xFFF) == 0 && budget_stop()) {
        backtrack_to(0);
        return solve_result::unknown;
      }
      new_decision_level();
      enqueue(lit{next, !polarity[next]}, kNoClause);
    }
  }
};

solver::solver() : impl_(std::make_unique<impl>()) {}
solver::~solver() = default;

var solver::new_var() {
  auto& s = *impl_;
  const var v = static_cast<var>(s.assigns.size());
  s.assigns.push_back(lbool::undef);
  s.polarity.push_back(false);
  s.activity.push_back(0.0);
  s.level.push_back(0);
  s.reason.push_back(kNoClause);
  s.seen.push_back(0);
  s.watches.emplace_back();
  s.watches.emplace_back();
  s.order.reserve_var(v);
  s.order.insert(v);
  return v;
}

std::size_t solver::num_vars() const { return impl_->assigns.size(); }

std::size_t solver::num_clauses() const {
  return impl_->num_problem_clauses;
}

bool solver::add_clause(clause_lits lits) {
  auto& s = *impl_;
  if (!s.ok) {
    return false;
  }
  assert(s.decision_level() == 0);
  std::sort(lits.begin(), lits.end());
  clause_lits simplified;
  lit previous;
  bool has_previous = false;
  for (const lit p : lits) {
    assert(p.variable() >= 0 &&
           p.variable() < static_cast<var>(s.assigns.size()));
    if (s.value(p) == lbool::true_value ||
        (has_previous && p == ~previous)) {
      return true;  // satisfied or tautological at root
    }
    if (s.value(p) == lbool::false_value ||
        (has_previous && p == previous)) {
      continue;  // falsified at root or duplicate
    }
    simplified.push_back(p);
    previous = p;
    has_previous = true;
  }
  if (simplified.empty()) {
    s.ok = false;
    return false;
  }
  if (simplified.size() == 1) {
    s.enqueue(simplified[0], kNoClause);
    if (s.propagate() != kNoClause) {
      s.ok = false;
      return false;
    }
    return true;
  }
  ++s.num_problem_clauses;
  s.attach(s.arena.alloc(simplified, false, 0));
  return true;
}

solve_result solver::solve(const std::vector<lit>& assumptions) {
  auto& s = *impl_;
  if (!s.ok) {
    return solve_result::unsat;
  }
  s.conflicts_at_solve_start = s.stats.conflicts;
  const solver_stats at_start = s.stats;
  std::uint64_t restart_round = 0;
  solve_result result = solve_result::unknown;
  while (result == solve_result::unknown) {
    if (s.budget_stop()) {
      break;
    }
    if (s.conflict_budget != 0 &&
        s.stats.conflicts - s.conflicts_at_solve_start >=
            s.conflict_budget) {
      break;
    }
    const auto limit = static_cast<std::uint64_t>(
        luby(2.0, restart_round) * 100.0);
    result = s.search(limit, assumptions);
    ++restart_round;
  }
  s.backtrack_to(0);
  if (s.run_ctx != nullptr) {
    auto& c = s.run_ctx->counters;
    c.sat_decisions += s.stats.decisions - at_start.decisions;
    c.sat_conflicts += s.stats.conflicts - at_start.conflicts;
    c.sat_restarts += s.stats.restarts - at_start.restarts;
  }
  return result;
}

bool solver::model_value(var v) const {
  const auto& model = impl_->model;
  assert(v >= 0 && static_cast<std::size_t>(v) < model.size());
  return model[static_cast<std::size_t>(v)] == lbool::true_value;
}

void solver::set_conflict_budget(std::uint64_t max_conflicts) {
  impl_->conflict_budget = max_conflicts;
}

void solver::set_run_context(core::run_context* ctx) {
  impl_->run_ctx = ctx;
}

const solver_stats& solver::stats() const { return impl_->stats; }

}  // namespace stpes::sat
