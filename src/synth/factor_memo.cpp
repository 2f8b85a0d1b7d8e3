#include "synth/factor_memo.hpp"

#include <iterator>
#include <utility>

namespace stpes::synth {

namespace {

/// Factorizations per arena block (2.8 KB); a longer list gets a block of
/// its own size.  Blocks of 512 and up cost 0.9-1.0 s of sys time per 15 s
/// npn4-enum run against 0.2-0.35 s here, because the allocator returns
/// their memory to the OS after every solve (EXPERIMENTS.md).
constexpr std::size_t kBlockCapacity = 32;

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ull + (h << 12) + (h >> 21);
  h *= 0xFF51AFD7ED558CCDull;
  h ^= h >> 33;
  return h;
}

}  // namespace

std::uint64_t factor_memo::requirement_hash(const requirement& r) {
  std::uint64_t h = mix(0x2545F4914F6CDD1Dull,
                        (static_cast<std::uint64_t>(r.cone) << 32) |
                            r.func.num_vars());
  for (const std::uint64_t w : r.func.onset().words()) {
    h = mix(h, w);
  }
  for (const std::uint64_t w : r.func.careset().words()) {
    h = mix(h, w);
  }
  return h;
}

std::uint64_t factor_memo::split_hash(std::uint64_t req_hash,
                                      cone_split split) {
  return mix(req_hash, (static_cast<std::uint64_t>(split.a) << 32) | split.b);
}

factor_memo::list factor_memo::insert(std::uint64_t hash,
                                      const requirement& r, cone_split split,
                                      std::vector<factorization>&& value) {
  reserve_slots(entries_.size() + 1);
  const key_view key = view_of(hash, r, split);
  const std::size_t slot = slot_of(key);
  if (slots_[slot] != kEmptySlot) {
    const entry& e = entries_[slots_[slot]];
    return list{e.items, e.item_count};
  }
  const list stored = store(std::move(value));
  append(key, stored, slot);
  return stored;
}

void factor_memo::merge_from(factor_memo&& delta, std::size_t cap) {
  if (entries_.empty() && (cap == 0 || delta.size() <= cap)) {
    *this = std::move(delta);
    delta = factor_memo{};
    return;
  }
  const std::size_t target = size() + delta.size();
  reserve_slots(cap == 0 ? target : std::min(target, cap));
  bool adopted_list = false;
  for (const entry& e : delta.entries_) {
    if (cap != 0 && size() >= cap) {
      break;
    }
    const std::size_t n = words_of(e.num_vars);
    const std::uint64_t* words = delta.key_words_.data() + e.key_offset;
    const key_view key{e.hash,   e.cone, e.cone_a, e.cone_b,
                       e.num_vars, words, words + n};
    const std::size_t slot = slot_of(key);
    if (slots_[slot] != kEmptySlot) {
      continue;  // existing entry wins
    }
    append(key, list{e.items, e.item_count}, slot);
    adopted_list = adopted_list || e.item_count != 0;
  }
  // The adopted spans point into the delta's blocks: take them over (the
  // inner vectors move, their buffers stay put).  A delta that contributed
  // no list — typically one arriving after the cap filled — is dropped
  // whole.
  if (adopted_list) {
    blocks_.insert(blocks_.end(), std::make_move_iterator(delta.blocks_.begin()),
                   std::make_move_iterator(delta.blocks_.end()));
  }
  delta = factor_memo{};
}

void factor_memo::append(const key_view& key, list value, std::size_t slot) {
  const std::size_t n = words_of(key.num_vars);
  slots_[slot] = static_cast<std::uint32_t>(entries_.size());
  entries_.push_back(entry{key.hash, value.data(),
                           static_cast<std::uint32_t>(value.size()), key.cone,
                           key.cone_a, key.cone_b,
                           static_cast<std::uint32_t>(key_words_.size()),
                           key.num_vars});
  key_words_.insert(key_words_.end(), key.onset, key.onset + n);
  key_words_.insert(key_words_.end(), key.careset, key.careset + n);
}

void factor_memo::reserve_slots(std::size_t entries) {
  std::size_t capacity = slots_.empty() ? kMinSlots : slots_.size();
  while (capacity < 2 * entries) {
    capacity *= 2;
  }
  if (capacity == slots_.size()) {
    return;
  }
  slots_.assign(capacity, kEmptySlot);
  const std::size_t mask = capacity - 1;
  for (std::size_t index = 0; index < entries_.size(); ++index) {
    std::size_t i = entries_[index].hash & mask;
    while (slots_[i] != kEmptySlot) {
      i = (i + 1) & mask;
    }
    slots_[i] = static_cast<std::uint32_t>(index);
  }
}

factor_memo::list factor_memo::store(std::vector<factorization>&& value) {
  if (value.empty()) {
    return {};
  }
  if (blocks_.empty() ||
      blocks_.back().capacity() - blocks_.back().size() < value.size()) {
    blocks_.emplace_back().reserve(std::max(kBlockCapacity, value.size()));
  }
  auto& block = blocks_.back();
  const std::size_t start = block.size();
  std::move(value.begin(), value.end(), std::back_inserter(block));
  return list{block.data() + start, value.size()};
}

}  // namespace stpes::synth
