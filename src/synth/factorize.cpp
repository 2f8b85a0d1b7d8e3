#include "synth/factorize.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <numeric>
#include <utility>

#include "tt/word_ops.hpp"

namespace stpes::synth {

namespace {

/// Expands a variable mask into a minterm-assignment mask.  Minterm bit v
/// is exactly the value of variable v, so this is the variable mask
/// restricted to the function's inputs.
std::uint64_t assignment_mask(std::uint32_t var_mask, unsigned num_vars) {
  return var_mask & ((std::uint64_t{1} << num_vars) - 1);
}

/// Builds a child ISF from its class-replicated forced-one set and a
/// forced-zero set that carries at least one representative bit per
/// forced-zero class: smoothing over the variables outside the cone
/// replicates every zero across its whole minterm class.
tt::isf child_isf(const tt::truth_table& one_full, const tt::truth_table& zero,
                  std::uint32_t cone) {
  const tt::truth_table zero_full = zero.smooth_over(~cone);
  return tt::isf{one_full, one_full | zero_full};
}

/// Calls `fn(m)` for every set minterm of `table`, in minterm order.
template <typename Fn>
void for_each_one(const tt::truth_table& table, Fn&& fn) {
  const auto& words = table.words();
  for (std::size_t wi = 0; wi < words.size(); ++wi) {
    for (std::uint64_t w = words[wi]; w != 0; w &= w - 1) {
      fn((std::uint64_t{wi} << 6) +
         static_cast<std::uint64_t>(std::countr_zero(w)));
    }
  }
}

struct and_solver {
  const factorize_options& options;
  core::run_context* ctx;
  std::uint32_t cone_a, cone_b;
  bool complemented;
  // Forced-one sets are class-replicated across the full input space;
  // forced-zero sets hold the replicated static zeros plus one
  // representative bit per branch choice (replicated again at emit).
  tt::truth_table u_one, v_one, u_zero, v_zero;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> pending;
  std::vector<factorization>& out;
  std::size_t emitted = 0;

  void emit() {
    if (emitted >= options.max_branches_per_family) {
      return;
    }
    ++emitted;
    factorization f;
    f.family = op_family::and_like;
    f.output_complemented = complemented;
    f.left = requirement{cone_a, child_isf(u_one, u_zero, cone_a)};
    f.right = requirement{cone_b, child_isf(v_one, v_zero, cone_b)};
    out.push_back(std::move(f));
  }

  void branch(std::size_t next) {
    if (emitted >= options.max_branches_per_family) {
      return;
    }
    if (ctx != nullptr && ctx->cancel_requested()) {
      return;
    }
    while (next < pending.size()) {
      const auto [a, b] = pending[next];
      if (u_zero.get_bit(a) || v_zero.get_bit(b)) {
        ++next;  // already satisfied by an earlier choice
        continue;
      }
      // Neither side can be forced-one here (filtered during setup), so
      // both branches are open: a don't-care-driven case split.
      if (ctx != nullptr) {
        ++ctx->counters.dont_care_expansions;
      }
      u_zero.set_bit(a, true);
      branch(next + 1);
      u_zero.set_bit(a, false);
      v_zero.set_bit(b, true);
      branch(next + 1);
      v_zero.set_bit(b, false);
      return;
    }
    emit();
  }
};

/// AND-like solve for R' = u & v on the care set; appends all completions.
/// The batch driver has already complemented the target, computed its
/// offset and the class-replicated forced-one sets, and run the
/// feasibility screen (`off & u_one & v_one == 0`) across the whole
/// batch — this is the per-survivor branching tail.
void solve_and_family_prescreened(const tt::truth_table& off,
                                  const tt::truth_table& u_one,
                                  const tt::truth_table& v_one,
                                  bool complemented, std::uint32_t cone_a,
                                  std::uint32_t cone_b,
                                  const factorize_options& options,
                                  core::run_context* ctx,
                                  std::vector<factorization>& out) {
  const unsigned n = off.num_vars();
  const std::uint64_t amask = assignment_mask(cone_a, n);
  const std::uint64_t bmask = assignment_mask(cone_b, n);
  // An off-minterm with exactly one side forced one forces the other
  // side's class to zero (the smooth replicates across the class).
  const tt::truth_table v_zero = (off & u_one).smooth_over(~cone_b);
  const tt::truth_table u_zero = (off & v_one).smooth_over(~cone_a);
  // Everything left is a free binary choice for the brancher.
  const tt::truth_table open_set = off & ~u_one & ~v_one & ~u_zero & ~v_zero;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> open;
  for_each_one(open_set, [&](std::uint64_t m) {
    open.emplace_back(m & amask, m & bmask);
  });
  // Deduplicate identical constraints to keep branching shallow.
  std::sort(open.begin(), open.end());
  open.erase(std::unique(open.begin(), open.end()), open.end());

  and_solver solver{options, ctx,    cone_a, cone_b,          complemented,
                    u_one,   v_one,  u_zero, v_zero,          std::move(open),
                    out};
  solver.branch(0);
}

/// Parity union-find for the XOR-like solve.
struct parity_dsu {
  std::vector<std::uint32_t> parent;
  std::vector<std::uint8_t> parity;  // parity relative to parent

  explicit parity_dsu(std::size_t n) : parent(n), parity(n, 0) {
    std::iota(parent.begin(), parent.end(), 0u);
  }

  std::pair<std::uint32_t, std::uint8_t> find(std::uint32_t x) {
    // First pass: locate the root and the parity of x relative to it.
    std::uint8_t parity_to_root = 0;
    std::uint32_t root = x;
    while (parent[root] != root) {
      parity_to_root ^= parity[root];
      root = parent[root];
    }
    // Second pass: compress the path, re-rooting every node with its own
    // parity relative to the root.
    std::uint32_t walk = x;
    std::uint8_t walk_parity = parity_to_root;
    while (parent[walk] != root) {
      const std::uint32_t next = parent[walk];
      const std::uint8_t edge = parity[walk];
      parent[walk] = root;
      parity[walk] = walk_parity;
      walk_parity = static_cast<std::uint8_t>(walk_parity ^ edge);
      walk = next;
    }
    return {root, parity_to_root};
  }

  /// Unions with xor-relation `rel` between x and y; false on conflict.
  bool unite(std::uint32_t x, std::uint32_t y, std::uint8_t rel) {
    auto [rx, px] = find(x);
    auto [ry, py] = find(y);
    if (rx == ry) {
      return static_cast<std::uint8_t>(px ^ py) == rel;
    }
    parent[ry] = rx;
    parity[ry] = static_cast<std::uint8_t>(px ^ py ^ rel);
    return true;
  }
};

/// Representative-bit masks of one parity component, bucketed by side and
/// by the cell value under the identity (no-flip) assignment.  Flipping
/// the component swaps the one/zero roles.
struct component_masks {
  tt::truth_table u_one, u_zero, v_one, v_zero;
};

/// XOR-like solve for R' = u ^ v on the care set.  `target` is the
/// already-complemented requirement (computed once per batch polarity).
void solve_xor_family(const tt::isf& target, bool complemented,
                      std::uint32_t cone_a, std::uint32_t cone_b,
                      const factorize_options& options,
                      core::run_context* ctx,
                      std::vector<factorization>& out) {
  const unsigned n = target.num_vars();
  const std::uint64_t bits = std::uint64_t{1} << n;
  const std::uint64_t amask = assignment_mask(cone_a, n);
  const std::uint64_t bmask = assignment_mask(cone_b, n);

  // Cell ids: u-cell m|A -> (m & amask), v-cell m|B -> bits + (m & bmask).
  parity_dsu dsu(2 * bits);
  std::vector<char> touched(2 * bits, 0);
  const auto& on_words = target.onset().words();
  bool conflict = false;
  for_each_one(target.careset(), [&](std::uint64_t m) {
    if (conflict) {
      return;
    }
    const auto ua = static_cast<std::uint32_t>(m & amask);
    const auto vb = static_cast<std::uint32_t>(bits + (m & bmask));
    touched[ua] = 1;
    touched[vb] = 1;
    const auto rel =
        static_cast<std::uint8_t>((on_words[m >> 6] >> (m & 63)) & 1);
    conflict = !dsu.unite(ua, vb, rel);
  });
  if (conflict) {
    return;  // parity conflict: not XOR-decomposable on this split
  }

  // One pass over the cells: collect component roots in first-seen order
  // and bucket every cell's representative bit by (component, side,
  // no-flip value), so each flip pattern below is a handful of word ORs.
  std::vector<std::uint32_t> roots;
  std::vector<component_masks> comps;
  for (std::uint32_t c = 0; c < 2 * bits; ++c) {
    if (!touched[c]) {
      continue;
    }
    const auto [root, parity] = dsu.find(c);
    auto it = std::find(roots.begin(), roots.end(), root);
    if (it == roots.end()) {
      roots.push_back(root);
      comps.push_back(component_masks{tt::truth_table{n}, tt::truth_table{n},
                                      tt::truth_table{n}, tt::truth_table{n}});
      it = roots.end() - 1;
    }
    auto& cm = comps[static_cast<std::size_t>(it - roots.begin())];
    const bool is_u = c < bits;
    const std::uint64_t cls = is_u ? c : c - bits;
    tt::truth_table& mask = is_u ? (parity != 0 ? cm.u_one : cm.u_zero)
                                 : (parity != 0 ? cm.v_one : cm.v_zero);
    mask.set_bit(cls, true);
  }
  const unsigned flip_bits =
      std::min<unsigned>(static_cast<unsigned>(roots.size()),
                         options.max_xor_components);
  // Components beyond the flip budget keep the identity assignment.
  component_masks fixed{tt::truth_table{n}, tt::truth_table{n},
                        tt::truth_table{n}, tt::truth_table{n}};
  for (std::size_t k = flip_bits; k < comps.size(); ++k) {
    fixed.u_one |= comps[k].u_one;
    fixed.u_zero |= comps[k].u_zero;
    fixed.v_one |= comps[k].v_one;
    fixed.v_zero |= comps[k].v_zero;
  }

  std::size_t emitted = 0;
  for (std::uint64_t flips = 0; flips < (std::uint64_t{1} << flip_bits);
       ++flips) {
    if (emitted >= options.max_branches_per_family) {
      break;
    }
    if (ctx != nullptr && flips != 0) {
      // Each non-identity flip pattern exercises a don't-care freedom.
      ++ctx->counters.dont_care_expansions;
      if (ctx->cancel_requested()) {
        break;
      }
    }
    component_masks sel = fixed;
    for (unsigned k = 0; k < flip_bits; ++k) {
      const bool flip = ((flips >> k) & 1) != 0;
      sel.u_one |= flip ? comps[k].u_zero : comps[k].u_one;
      sel.u_zero |= flip ? comps[k].u_one : comps[k].u_zero;
      sel.v_one |= flip ? comps[k].v_zero : comps[k].v_one;
      sel.v_zero |= flip ? comps[k].v_one : comps[k].v_zero;
    }
    factorization f;
    f.family = op_family::xor_like;
    f.output_complemented = complemented;
    f.left = requirement{
        cone_a, child_isf(sel.u_one.smooth_over(~cone_a), sel.u_zero, cone_a)};
    f.right = requirement{
        cone_b, child_isf(sel.v_one.smooth_over(~cone_b), sel.v_zero, cone_b)};
    out.push_back(std::move(f));
    ++emitted;
  }
}

/// The AND-family branch enumeration can reach the same (u, v) pair along
/// several choice orders; duplicates multiply the downstream search.
std::vector<factorization> dedup_factorizations(
    std::vector<factorization>&& out) {
  std::vector<factorization> unique;
  unique.reserve(out.size());
  for (auto& f : out) {
    const bool duplicate = std::any_of(
        unique.begin(), unique.end(), [&f](const factorization& g) {
          return g.family == f.family &&
                 g.output_complemented == f.output_complemented &&
                 g.left.func == f.left.func && g.right.func == f.right.func;
        });
    if (!duplicate) {
      unique.push_back(std::move(f));
    }
  }
  return unique;
}

}  // namespace

std::vector<std::vector<factorization>> factor_requirement_batch(
    const requirement& r, const cone_split* splits, std::size_t count,
    const factorize_options& options, core::run_context* ctx) {
  std::vector<std::vector<factorization>> lists(count);
  if (count == 0) {
    return lists;
  }
  if (ctx != nullptr) {
    ctx->counters.factorization_attempts += count;
  }
  const unsigned n = r.func.num_vars();
  if (r.func.is_unconstrained()) {
    // Nothing to satisfy: children are unconstrained as well.
    for (std::size_t i = 0; i < count; ++i) {
      assert((splits[i].a | splits[i].b) == r.cone);
      factorization f;
      f.left = requirement{splits[i].a, tt::isf{n}};
      f.right = requirement{splits[i].b, tt::isf{n}};
      lists[i].push_back(std::move(f));
    }
    return lists;
  }
  if (ctx != nullptr) {
    ctx->counters.kernel_batch_queries += count;
  }

  // Per polarity (not per split): the complemented target and both
  // offsets, computed once per batch.
  const tt::isf complemented_target = r.func.complement();
  const tt::isf* const targets[2] = {&r.func, &complemented_target};
  const std::array<tt::truth_table, 2> offs{r.func.offset(),
                                            complemented_target.offset()};
  const std::size_t num_words = r.func.onset().words().size();

  // Fixed-stride blocks with stack-resident scratch: the synthesis path
  // batches at most a memo-miss chunk at a time, so the screen must not
  // pay an allocation per call (the enumeration makes tens of millions of
  // them per hard instance).
  constexpr std::size_t kStride = 32;
  bool stopped = false;
  for (std::size_t base = 0; base < count && !stopped; base += kStride) {
    const std::size_t block = std::min(kStride, count - base);
    const cone_split* const bs = splits + base;

    // The forced-one set of a cone depends only on (target onset, cone),
    // so each *distinct* cone is smoothed once per polarity no matter how
    // many splits share it.
    std::array<std::uint32_t, 2 * kStride> cones;
    std::size_t num_cones = 0;
    for (std::size_t i = 0; i < block; ++i) {
      assert((bs[i].a | bs[i].b) == r.cone);
      cones[num_cones++] = bs[i].a;
      cones[num_cones++] = bs[i].b;
    }
    std::sort(cones.begin(), cones.begin() + num_cones);
    num_cones = static_cast<std::size_t>(
        std::unique(cones.begin(), cones.begin() + num_cones) -
        cones.begin());
    const auto cone_index = [&](std::uint32_t c) {
      return static_cast<std::uint8_t>(
          std::lower_bound(cones.begin(), cones.begin() + num_cones, c) -
          cones.begin());
    };
    std::array<std::uint8_t, kStride> ia;
    std::array<std::uint8_t, kStride> ib;
    for (std::size_t i = 0; i < block; ++i) {
      ia[i] = cone_index(bs[i].a);
      ib[i] = cone_index(bs[i].b);
    }

    // Per polarity: forced-one sets per distinct cone, then the
    // AND-family feasibility screen (`off & u_one & v_one != 0` refutes
    // the polarity) across the whole block in one kernel pass.
    std::array<std::array<std::uint64_t, 2 * kStride>, 2> lanes;
    std::array<std::vector<tt::truth_table>, 2> cone_one;  // W > 1 only
    std::array<std::array<std::uint8_t, kStride>, 2> refuted{};
    for (int p = 0; p < 2; ++p) {
      if (num_words == 1) {
        // Single-word tables (n <= 6, the NPN4/FDSD regime): lay the
        // cones out struct-of-arrays so one masked-smooth kernel pass per
        // variable quantifies every distinct cone at once, and the
        // verdicts fall out of one batched AND3 pass.
        std::array<std::uint8_t, 2 * kStride> select;
        lanes[p].fill(targets[p]->onset().words()[0]);
        for (unsigned v = 0; v < n; ++v) {
          for (std::size_t c = 0; c < num_cones; ++c) {
            select[c] = ((cones[c] >> v) & 1) == 0 ? 1 : 0;
          }
          tt::word_ops::smooth_var_w1_masked(lanes[p].data(), select.data(),
                                             num_cones, v);
        }
        std::array<std::uint64_t, kStride> off_lane;
        std::array<std::uint64_t, kStride> a_lane;
        std::array<std::uint64_t, kStride> b_lane;
        off_lane.fill(offs[p].words()[0]);
        for (std::size_t i = 0; i < block; ++i) {
          a_lane[i] = lanes[p][ia[i]];
          b_lane[i] = lanes[p][ib[i]];
        }
        tt::word_ops::and3_nonzero_w1(off_lane.data(), a_lane.data(),
                                      b_lane.data(), block,
                                      refuted[p].data());
      } else {
        cone_one[p].reserve(num_cones);
        for (std::size_t c = 0; c < num_cones; ++c) {
          cone_one[p].push_back(targets[p]->onset().smooth_over(~cones[c]));
        }
        for (std::size_t i = 0; i < block; ++i) {
          refuted[p][i] =
              tt::word_ops::words_any_and3(offs[p].words().data(),
                                           cone_one[p][ia[i]].words().data(),
                                           cone_one[p][ib[i]].words().data(),
                                           num_words)
                  ? 1
                  : 0;
        }
      }
    }

    // Solve phase, in split order: the AND-family brancher runs only for
    // polarities that survived the screen; the XOR parity solve has no
    // batched screen and always runs.  Child forced-one tables are only
    // materialized for the surviving solver calls.
    for (std::size_t i = 0; i < block; ++i) {
      const std::size_t gi = base + i;
      if (ctx != nullptr && gi != 0 && (gi & 31) == 0 &&
          ctx->should_stop()) {
        stopped = true;  // remaining lists stay empty (and uncounted)
        break;
      }
      std::vector<factorization> out;
      bool survived = false;
      for (int p = 0; p < 2; ++p) {
        const bool complemented = p != 0;
        if (refuted[p][i] == 0) {
          survived = true;
          if (num_words == 1) {
            const auto u_one =
                tt::truth_table::from_words(n, &lanes[p][ia[i]], 1);
            const auto v_one =
                tt::truth_table::from_words(n, &lanes[p][ib[i]], 1);
            solve_and_family_prescreened(offs[p], u_one, v_one,
                                         complemented, bs[i].a, bs[i].b,
                                         options, ctx, out);
          } else {
            solve_and_family_prescreened(offs[p], cone_one[p][ia[i]],
                                         cone_one[p][ib[i]], complemented,
                                         bs[i].a, bs[i].b, options, ctx,
                                         out);
          }
        }
        solve_xor_family(*targets[p], complemented, bs[i].a, bs[i].b,
                         options, ctx, out);
      }
      if (ctx != nullptr) {
        ++(survived ? ctx->counters.kernel_batch_survivors
                    : ctx->counters.kernel_batch_screened);
      }
      lists[gi] = dedup_factorizations(std::move(out));
      if (ctx != nullptr && lists[gi].empty()) {
        ++ctx->counters.factorization_prunes;
      }
    }
  }
  return lists;
}

std::vector<factorization> factor_requirement(
    const requirement& r, std::uint32_t cone_a, std::uint32_t cone_b,
    const factorize_options& options, core::run_context* ctx) {
  const cone_split split{cone_a, cone_b};
  auto lists = factor_requirement_batch(r, &split, 1, options, ctx);
  return std::move(lists.front());
}

bool is_factorable(const requirement& r, std::uint32_t cone_a,
                   std::uint32_t cone_b) {
  factorize_options options;
  options.max_branches_per_family = 1;
  options.max_xor_components = 0;
  return !factor_requirement(r, cone_a, cone_b, options).empty();
}

}  // namespace stpes::synth
