#include "prim/rename.hpp"

#include <unordered_map>

#include "pram/metrics.hpp"
#include "pram/parallel_for.hpp"
#include "prim/hash_table.hpp"
#include "prim/integer_sort.hpp"
#include "prim/scan.hpp"

namespace sfcp::prim {

RenameResult rename_sorted(std::span<const u64> keys, u64 max_key) {
  const std::size_t n = keys.size();
  RenameResult r;
  r.labels.assign(n, 0);
  if (n == 0) return r;
  const std::vector<u32> order = sort_order_by_key(keys, max_key);
  // head[i] = 1 iff sorted position i starts a new key run.
  std::vector<u32> head(n);
  pram::parallel_for(0, n, [&](std::size_t i) {
    head[i] = (i == 0 || keys[order[i]] != keys[order[i - 1]]) ? 1u : 0u;
  });
  std::vector<u32> rank(n);
  const u32 classes = inclusive_scan<u32>(head, rank);
  pram::parallel_for(0, n, [&](std::size_t i) { r.labels[order[i]] = rank[i] - 1; });
  r.num_classes = classes;
  return r;
}

RenameResult rename_pairs_sorted(std::span<const u32> a, std::span<const u32> b) {
  const std::size_t n = a.size();
  std::vector<u64> keys(n);
  pram::parallel_for(0, n, [&](std::size_t i) { keys[i] = pack_pair(a[i], b[i]); });
  return rename_sorted(keys);
}

RenameResult rename_hashed(std::span<const u64> keys) {
  const std::size_t n = keys.size();
  RenameResult r;
  r.labels.assign(n, 0);
  if (n == 0) return r;
  ConcurrentPairMap table(n);
  pram::parallel_for(0, n, [&](std::size_t i) {
    r.labels[i] = table.insert_or_get(keys[i], static_cast<u32>(i));
  });
  return r;
}

RenameResult rename_pairs_hashed(std::span<const u32> a, std::span<const u32> b) {
  const std::size_t n = a.size();
  std::vector<u64> keys(n);
  pram::parallel_for(0, n, [&](std::size_t i) { keys[i] = pack_pair(a[i], b[i]); });
  return rename_hashed(keys);
}

RenameResult canonicalize_labels(std::span<const u32> labels) {
  const std::size_t n = labels.size();
  RenameResult r;
  r.labels.assign(n, 0);
  if (n == 0) return r;
  u32 classes = 0;
  const u64 max_label = reduce_max<u32>(labels);
  if (max_label < dense_label_limit(n)) {
    // Direct-address first-occurrence table: one array probe per element.
    std::vector<u32> first(static_cast<std::size_t>(max_label) + 1, kNone);
    for (std::size_t i = 0; i < n; ++i) {
      u32& slot = first[labels[i]];
      if (slot == kNone) slot = classes++;
      r.labels[i] = slot;
    }
  } else {
    std::unordered_map<u32, u32> seen;
    seen.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      auto [it, inserted] = seen.emplace(labels[i], classes);
      if (inserted) ++classes;
      r.labels[i] = it->second;
    }
  }
  r.num_classes = classes;
  pram::charge(n);
  return r;
}

}  // namespace sfcp::prim
