#include "tt/isf.hpp"

#include <cassert>

#include "tt/word_ops.hpp"

namespace stpes::tt {

isf::isf(unsigned num_vars)
    : on_(truth_table::constant(num_vars, false)),
      care_(truth_table::constant(num_vars, false)) {}

isf::isf(truth_table onset, truth_table careset)
    : on_(onset & careset), care_(std::move(careset)) {
  assert(on_.num_vars() == care_.num_vars());
}

isf isf::from_function(const truth_table& function) {
  return isf{function, truth_table::constant(function.num_vars(), true)};
}

bool isf::accepts(const truth_table& candidate) const {
  // Word-at-a-time cover check; no temporary tables.
  const auto& care = care_.words();
  return word_ops::words_accept(candidate.words().data(), care.data(),
                                on_.words().data(), care.size());
}

isf isf::complement() const { return isf{~on_ & care_, care_}; }

std::optional<isf> isf::intersect(const isf& other) const {
  assert(num_vars() == other.num_vars());
  // Conflict: a minterm in both care sets with opposite polarity.
  const auto& a_care = care_.words();
  if (word_ops::words_conflict(on_.words().data(), other.on_.words().data(),
                               a_care.data(), other.care_.words().data(),
                               a_care.size())) {
    return std::nullopt;
  }
  return isf{on_ | other.on_, care_ | other.care_};
}

std::uint32_t isf::required_support_mask() const {
  std::uint32_t mask = 0;
  for (unsigned v = 0; v < num_vars(); ++v) {
    const auto on0 = on_.cofactor0(v);
    const auto on1 = on_.cofactor1(v);
    const auto care_both = care_.cofactor0(v) & care_.cofactor1(v);
    if (((on0 ^ on1) & care_both) !=
        truth_table::constant(num_vars(), false)) {
      mask |= 1u << v;
    }
  }
  return mask;
}

std::optional<isf> isf::project_to_cone(std::uint32_t var_mask) const {
  // Minterms agreeing on the cone variables form one class; smoothing over
  // the complement of the cone replicates "any care minterm of the class
  // is on / off" across the whole class in a few word passes.
  const std::uint32_t outside = ~var_mask;
  const truth_table forced1 = on_.smooth_over(outside);
  const truth_table forced0 = offset().smooth_over(outside);
  if (!(forced1 & forced0).is_const0()) {
    return std::nullopt;  // some class is forced both ways
  }
  return isf{forced1, forced1 | forced0};
}

truth_table isf::completion_in_cone(std::uint32_t var_mask) const {
  // Classes with at least one on care minterm become 1; don't-care classes
  // resolve to 0 — exactly the smoothed on-set.
  return on_.smooth_over(~var_mask);
}

}  // namespace stpes::tt
