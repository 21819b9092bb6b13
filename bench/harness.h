#ifndef BENCH_HARNESS_H_
#define BENCH_HARNESS_H_

// Helpers shared by the cluster figures: the equivalence check with a
// non-empty guard, and the whole-cache-flush baseline portal that fig6 and
// fig9 measure fingerprint invalidation against.

#include <cstdint>
#include <string>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/cluster/federated_source.h"
#include "src/pql/eval.h"

namespace pass::bench {

// cluster::CheckEquivalent for one query whose answer must also be
// non-empty (an empty answer would make the equivalence vacuous).
inline bool MatchesNonEmpty(cluster::ClusterCoordinator& cluster,
                            const std::string& query) {
  return cluster::CheckEquivalent(cluster, {query}).ok() &&
         !cluster::MergedRows(cluster, query)->empty();
}

// A portal (shard 0) that flushes its whole result cache whenever anything
// in the cluster changed: before each query, if the ShardMap epoch or the
// sum of every shard's range-mutation bucket counters
// (ProvDb::range_mutation_buckets) moved since the previous query, the
// source is replaced by a freshly constructed one. This is the cache a
// portal without per-range fingerprints must run to never serve stale rows.
// The replacement is built with the public constructor rather than
// ClusterCoordinator::Source(), so it takes no extra Quiesce().
class FlushBaseline {
 public:
  FlushBaseline(cluster::ClusterCoordinator* cluster, size_t cache_bytes)
      : cluster_(cluster),
        cache_bytes_(cache_bytes),
        source_(cluster->Source(/*portal_shard=*/0, cache_bytes)),
        epoch_(cluster->shard_map().epoch()),
        mutations_(Mutations()) {}

  Result<pql::QueryResult> Run(const std::string& query) {
    uint64_t epoch = cluster_->shard_map().epoch();
    uint64_t mutations = Mutations();
    if (epoch != epoch_ || mutations != mutations_) {
      if (source_.cache_bytes_used() > 0) {
        ++full_flushes_;
      }
      hits_ += source_.stats().cache_hits;
      misses_ += source_.stats().cache_misses;
      source_ = cluster::FederatedSource(
          cluster_->shard_dbs(), &cluster_->network(), &cluster_->shard_map(),
          /*portal_shard=*/0, cache_bytes_, &cluster_->env().obs());
      epoch_ = epoch;
      mutations_ = mutations;
    }
    return pql::Engine(&source_).Run(query);
  }

  // Counters since construction or the last ResetStats(), summed over every
  // source this baseline has used.
  uint64_t hits() const { return hits_ + source_.stats().cache_hits; }
  uint64_t misses() const { return misses_ + source_.stats().cache_misses; }
  uint64_t full_flushes() const { return full_flushes_; }
  // Zero the counters; the current cache stays warm.
  void ResetStats() {
    hits_ = 0;
    misses_ = 0;
    full_flushes_ = 0;
    source_.ResetStats();
  }

 private:
  // Every row write or removal bumps some bucket, so the sum moves on
  // every change to any shard.
  uint64_t Mutations() const {
    uint64_t sum = 0;
    for (const waldo::ProvDb* db : cluster_->shard_dbs()) {
      for (const auto& [bucket, count] : db->range_mutation_buckets()) {
        sum += count;
      }
    }
    return sum;
  }

  cluster::ClusterCoordinator* cluster_;
  size_t cache_bytes_;
  cluster::FederatedSource source_;
  uint64_t epoch_;
  uint64_t mutations_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t full_flushes_ = 0;
};

}  // namespace pass::bench

#endif  // BENCH_HARNESS_H_
