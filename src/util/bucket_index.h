// Items grouped by bucket in one flat index, built by a counting sort.
//
// Bucket b's items are `order[begin[b] .. begin[b + 1])`, in ascending item
// order. Building it costs O(buckets + items) and two allocations however
// many buckets there are, so a per-object pass that needs "the items of
// bucket b" for every b stays linear where a scan per bucket would not.
#ifndef DEPSURF_SRC_UTIL_BUCKET_INDEX_H_
#define DEPSURF_SRC_UTIL_BUCKET_INDEX_H_

#include <cstddef>
#include <vector>

namespace depsurf {

struct BucketIndex {
  std::vector<size_t> begin;  // n_buckets + 1 entries
  std::vector<size_t> order;
};

// `bucket_of(i)` names item i's bucket; a value >= n_buckets leaves the item
// out of the index.
template <typename BucketOf>
BucketIndex BuildBucketIndex(size_t n_buckets, size_t n_items, BucketOf bucket_of) {
  BucketIndex index;
  // Counts, then running totals: begin[b] ends up just past bucket b.
  // Placing items back to front moves each begin[b] down to its bucket's
  // start and keeps every bucket in ascending item order.
  index.begin.assign(n_buckets + 1, 0);
  for (size_t i = 0; i < n_items; ++i) {
    const size_t b = bucket_of(i);
    if (b < n_buckets) {
      ++index.begin[b];
    }
  }
  for (size_t b = 1; b <= n_buckets; ++b) {
    index.begin[b] += index.begin[b - 1];
  }
  index.order.resize(index.begin[n_buckets]);
  for (size_t i = n_items; i-- > 0;) {
    const size_t b = bucket_of(i);
    if (b < n_buckets) {
      index.order[--index.begin[b]] = i;
    }
  }
  return index;
}

}  // namespace depsurf

#endif  // DEPSURF_SRC_UTIL_BUCKET_INDEX_H_
