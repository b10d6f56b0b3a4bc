// Tests for the traversal-hint layer (DESIGN.md, "Traversal hints and
// opacity"): transaction-local hints must hit on key-local operation
// sequences, the cross-transaction predecessor cache must seed the first
// traversal of a new transaction, stale hints (marked or epoch-aged
// entries) must fall back to a full head traversal while still answering
// correctly, retries must inherit pooled-descriptor hints, and the
// OTB_TRAVERSAL_HINTS=off path must match the pre-hint behaviour with zero
// hint counters.  Snapshot walks (get_at / contains_at / range_at) seed
// from the same cache only when the cached node provably was live at the
// snapshot stamp, and never cache a marked node.
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <optional>
#include <thread>

#include "common/epoch.h"
#include "metrics/sink.h"
#include "otb/otb_list_map.h"
#include "otb/otb_list_set.h"
#include "otb/otb_skiplist_set.h"
#include "otb/runtime.h"
#include "otb/traversal_hints.h"

namespace otb {
namespace {

using metrics::CounterId;

struct HintCounts {
  std::uint64_t local = 0;
  std::uint64_t cached = 0;
  std::uint64_t miss = 0;
};

/// RAII sink injection + knob and thread-cache reset so hint provenance is
/// deterministic per test and failures cannot leak state forward.
class TraversalHintsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    tx::set_traversal_hints(true);
    tx::set_metrics_sink(&sink_);
    tx::PredCache::clear_this_thread();
  }
  void TearDown() override {
    tx::set_metrics_sink(nullptr);
    tx::set_traversal_hints(true);
  }

  HintCounts delta() {
    const metrics::SinkSnapshot s = sink_.snapshot();
    const HintCounts now{
        s.counters[static_cast<std::size_t>(CounterId::kHintHitLocal)],
        s.counters[static_cast<std::size_t>(CounterId::kHintHitCached)],
        s.counters[static_cast<std::size_t>(CounterId::kHintMiss)]};
    const HintCounts d{now.local - last_.local, now.cached - last_.cached,
                       now.miss - last_.miss};
    last_ = now;
    return d;
  }

  metrics::MetricsSink sink_;
  HintCounts last_;
};

TEST_F(TraversalHintsTest, LocalHintsHitWithinTransaction) {
  tx::OtbListSet set;
  for (std::int64_t k = 1; k <= 8; ++k) set.add_seq(k);
  delta();

  tx::atomically([&](tx::Transaction& t) {
    for (std::int64_t k = 1; k <= 8; ++k) EXPECT_TRUE(set.contains(t, k));
  });

  // First traversal has nothing to start from; the remaining seven resume
  // from this transaction's own validated positions.
  const HintCounts d = delta();
  EXPECT_EQ(d.miss, 1u);
  EXPECT_EQ(d.local, 7u);
  EXPECT_EQ(d.cached, 0u);
}

TEST_F(TraversalHintsTest, CrossTransactionCacheSeedsFirstTraversal) {
  tx::OtbListSet set;
  for (std::int64_t k = 0; k < 32; ++k) set.add_seq(k);
  delta();

  tx::atomically([&](tx::Transaction& t) { EXPECT_TRUE(set.contains(t, 20)); });
  const HintCounts first = delta();
  EXPECT_EQ(first.miss, 1u);

  // A brand-new transaction has no local hints (the descriptor pool is
  // dropped at commit), so this hit can only come from the thread cache.
  tx::atomically([&](tx::Transaction& t) { EXPECT_TRUE(set.contains(t, 20)); });
  const HintCounts second = delta();
  EXPECT_EQ(second.cached, 1u);
  EXPECT_EQ(second.miss, 0u);
}

TEST_F(TraversalHintsTest, RemovedPredecessorFallsBackAndStaysCorrect) {
  tx::OtbListSet set;
  for (std::int64_t k = 0; k < 32; ++k) set.add_seq(k);
  delta();

  // Warm the thread cache with node 19 (the predecessor of key 20), then
  // have ANOTHER thread remove it — its own traversal refreshes only its
  // own thread-local cache, so this thread's entry is now a marked node.
  tx::atomically([&](tx::Transaction& t) { EXPECT_TRUE(set.contains(t, 20)); });
  std::thread remover([&] {
    tx::atomically([&](tx::Transaction& t) { EXPECT_TRUE(set.remove(t, 19)); });
  });
  remover.join();
  delta();

  // The marked pre-filter rejects the stale entry; the traversal restarts
  // from the head and still answers correctly.
  tx::atomically([&](tx::Transaction& t) {
    EXPECT_TRUE(set.contains(t, 20));
    EXPECT_FALSE(set.contains(t, 19));
  });
  const HintCounts d = delta();
  EXPECT_EQ(d.cached, 0u);
  EXPECT_GE(d.miss, 1u);
}

TEST_F(TraversalHintsTest, EpochAgedCacheEntriesAreMisses) {
  tx::OtbListSet set;
  for (std::int64_t k = 0; k < 32; ++k) set.add_seq(k);
  delta();

  tx::atomically([&](tx::Transaction& t) { EXPECT_TRUE(set.contains(t, 20)); });
  delta();

  // Advance the global epoch past the age gate (each collect() bumps it).
  // The cached entry's pointer may no longer be dereferenced and must read
  // as a miss before any dereference happens.
  for (int i = 0; i < 3; ++i) ebr::collect();

  tx::atomically([&](tx::Transaction& t) { EXPECT_TRUE(set.contains(t, 20)); });
  const HintCounts d = delta();
  EXPECT_EQ(d.cached, 0u);
  EXPECT_EQ(d.miss, 1u);
}

TEST_F(TraversalHintsTest, RetryInheritsLocalHints) {
  tx::OtbListSet set;
  for (std::int64_t k = 0; k < 32; ++k) set.add_seq(k);
  delta();

  // First attempt traverses (a miss) and aborts; the pooled descriptor's
  // hints survive recycle, so the retry starts from the validated position.
  int attempt = 0;
  tx::atomically([&](tx::Transaction& t) {
    EXPECT_TRUE(set.contains(t, 20));
    if (attempt++ == 0) throw TxAbort{metrics::AbortReason::kExplicit};
  });
  EXPECT_EQ(attempt, 2);
  const HintCounts d = delta();
  EXPECT_EQ(d.local, 1u);
  EXPECT_EQ(d.miss, 1u);
}

TEST_F(TraversalHintsTest, KnobOffMatchesNoHintPathWithZeroCounters) {
  tx::set_traversal_hints(false);
  tx::OtbListSet on_ref;  // hints-on twin for result comparison
  tx::OtbListSet set;
  for (std::int64_t k = 0; k < 64; k += 2) {
    set.add_seq(k);
    on_ref.add_seq(k);
  }
  delta();

  for (std::int64_t k = 0; k < 64; ++k) {
    bool off_result = false;
    tx::atomically([&](tx::Transaction& t) { off_result = set.contains(t, k); });
    tx::set_traversal_hints(true);
    bool on_result = false;
    tx::atomically([&](tx::Transaction& t) { on_result = on_ref.contains(t, k); });
    tx::set_traversal_hints(false);
    EXPECT_EQ(off_result, on_result) << "key " << k;
  }

  // The knob-off structure ticked no hint counters...
  const metrics::SinkSnapshot s = sink_.snapshot();
  // (the interleaved hints-on twin contributes hits/misses, so count only
  // what the off-path could have produced: re-run a clean off-only block)
  sink_.reset();
  last_ = HintCounts{};
  for (std::int64_t k = 0; k < 64; ++k) {
    tx::atomically([&](tx::Transaction& t) { set.contains(t, k); });
  }
  const metrics::SinkSnapshot off_only = sink_.snapshot();
  EXPECT_EQ(off_only.counters[static_cast<std::size_t>(CounterId::kHintHitLocal)], 0u);
  EXPECT_EQ(off_only.counters[static_cast<std::size_t>(CounterId::kHintHitCached)], 0u);
  EXPECT_EQ(off_only.counters[static_cast<std::size_t>(CounterId::kHintMiss)], 0u);
  // ...but the traversal-length instrument still records (it is the A/B
  // measurement, not part of the optimisation).
  EXPECT_EQ(off_only.traversals.count, 64u);
  (void)s;
}

TEST_F(TraversalHintsTest, TraversalHistogramCountMatchesBucketSum) {
  tx::OtbListSet set;
  for (std::int64_t k = 0; k < 32; ++k) set.add_seq(k);
  delta();

  tx::atomically([&](tx::Transaction& t) {
    for (std::int64_t k = 0; k < 32; k += 4) set.contains(t, k);
  });

  const metrics::SinkSnapshot s = sink_.snapshot();
  const std::uint64_t bucket_sum =
      std::accumulate(s.traversals.log2_buckets.begin(),
                      s.traversals.log2_buckets.end(), std::uint64_t{0});
  EXPECT_EQ(s.traversals.count, bucket_sum);
  EXPECT_EQ(s.traversals.count, 8u);
  EXPECT_GT(s.traversals.total_steps, 0u);
}

TEST_F(TraversalHintsTest, ListMapHintsHitOnKeyLocalGets) {
  tx::OtbListMap map;
  for (std::int64_t k = 1; k <= 8; ++k) map.put_seq(k, k * 10);
  delta();

  tx::atomically([&](tx::Transaction& t) {
    for (std::int64_t k = 1; k <= 8; ++k) {
      std::int64_t v = 0;
      EXPECT_TRUE(map.get(t, k, &v));
      EXPECT_EQ(v, k * 10);
    }
  });

  const HintCounts d = delta();
  EXPECT_EQ(d.miss, 1u);
  EXPECT_EQ(d.local, 7u);
}

TEST_F(TraversalHintsTest, SkipListLocalHintsHitOnBottomSufficientOps) {
  tx::OtbSkipListSet set;
  for (std::int64_t k = 0; k < 64; ++k) set.add_seq(k);
  delta();

  // contains is always bottom-level-sufficient, so ascending lookups hit
  // the transaction-local hints exactly like the linked list.
  tx::atomically([&](tx::Transaction& t) {
    for (std::int64_t k = 10; k < 18; ++k) EXPECT_TRUE(set.contains(t, k));
  });

  const HintCounts d = delta();
  EXPECT_EQ(d.miss, 1u);
  EXPECT_EQ(d.local, 7u);
}

TEST_F(TraversalHintsTest, SkipListSuccessfulAddFallsBackToFullFind) {
  tx::OtbSkipListSet set;
  for (std::int64_t k = 0; k < 64; ++k) set.add_seq(k);
  delta();

  // A successful add needs the full pred/succ arrays for linking, so even
  // with a usable hint nearby the operation re-runs find() and counts as a
  // miss — and must still produce a correct structure.
  tx::atomically([&](tx::Transaction& t) {
    EXPECT_TRUE(set.contains(t, 10));
    EXPECT_TRUE(set.add(t, 1000));
  });
  const HintCounts d = delta();
  EXPECT_EQ(d.miss, 2u);
  EXPECT_EQ(d.local, 0u);

  tx::atomically([&](tx::Transaction& t) { EXPECT_TRUE(set.contains(t, 1000)); });
}

// ---- snapshot walks seeded from the predecessor cache -----------------------

/// Fixture for snapshot-walk hints: multi-versioning pinned on, and a map of
/// even keys 0..62 so every odd key has a distinct, known predecessor.
class SnapshotHintsTest : public TraversalHintsTest {
 protected:
  void SetUp() override {
    previous_k_ = tx::mv_versions();
    tx::set_mv_versions(4);
    TraversalHintsTest::SetUp();
    map_.emplace();  // after the knob: its sentinels need chains
    for (std::int64_t k = 0; k < 64; k += 2) map_->put_seq(k, k * 10);
    delta();
  }
  void TearDown() override {
    TraversalHintsTest::TearDown();
    tx::set_mv_versions(previous_k_);
  }

  /// One whole snapshot read of `key` through tx::snapshot_read (which
  /// flushes the walk's hint and traversal slice into sink_).
  bool snapshot_get(std::int64_t key, std::int64_t* v) {
    bool found = false;
    EXPECT_TRUE(tx::snapshot_read(sink_, [&](tx::SnapshotTx& snap) {
      found = map_->get_at(snap, key, v);
    }));
    return found;
  }

  /// Key of the cached predecessor a snapshot walk toward `key` would
  /// consult, or -1 when the cache has no usable entry.
  std::int64_t cached_pred_key(std::int64_t key) {
    ebr::Guard guard;
    const tx::PredCache::Entry* e = tx::PredCache::lookup(map_->hint_owner_id(), key);
    return e == nullptr ? -1 : e->key;
  }

  std::optional<tx::OtbListMap> map_;
  unsigned previous_k_ = 0;
};

TEST_F(SnapshotHintsTest, SnapshotWalkSeedsFromCachedPredecessor) {
  std::int64_t v = 0;
  ASSERT_TRUE(snapshot_get(40, &v));
  EXPECT_EQ(v, 400);
  const HintCounts first = delta();
  EXPECT_EQ(first.miss, 1u);
  EXPECT_EQ(cached_pred_key(40), 38);  // the landing predecessor was stored
  const std::uint64_t head_steps = sink_.snapshot().traversals.total_steps;
  EXPECT_EQ(head_steps, 20u);  // one hop per live key below 40

  ASSERT_TRUE(snapshot_get(40, &v));
  EXPECT_EQ(v, 400);
  const HintCounts second = delta();
  EXPECT_EQ(second.cached, 1u);
  EXPECT_EQ(second.miss, 0u);
  EXPECT_EQ(second.local, 0u);  // snapshot walks have no descriptor
  // Started at 38 itself: zero further hops.
  EXPECT_EQ(sink_.snapshot().traversals.total_steps, head_steps);
  EXPECT_EQ(sink_.snapshot().traversals.count, 2u);
}

TEST_F(SnapshotHintsTest, ErasedCachedPredecessorFallsBackToHead) {
  std::int64_t v = 0;
  ASSERT_TRUE(snapshot_get(40, &v));  // caches 38
  // Another thread (its own traversals refresh only its own thread-local
  // cache) erases 38 and then its successor 40.  This thread's entry is now
  // a node dead at any stamp drawn from here on, whose frozen chain still
  // leads to the dead 40: a walk started there would report 40 present.
  std::thread eraser([&] {
    tx::atomically([&](tx::Transaction& t) { EXPECT_TRUE(map_->erase(t, 38)); });
    tx::atomically([&](tx::Transaction& t) { EXPECT_TRUE(map_->erase(t, 40)); });
  });
  eraser.join();
  ASSERT_EQ(cached_pred_key(40), 38);
  delta();

  EXPECT_FALSE(snapshot_get(40, &v));
  const HintCounts d = delta();
  EXPECT_EQ(d.cached, 0u);
  EXPECT_EQ(d.miss, 1u);
  EXPECT_EQ(cached_pred_key(40), 36);  // the head walk's landing replaced it
  EXPECT_FALSE(snapshot_get(38, &v));
  ASSERT_TRUE(snapshot_get(42, &v));
  EXPECT_EQ(v, 420);
}

TEST_F(SnapshotHintsTest, ReplacedCachedPredecessorFallsBackToHead) {
  std::int64_t v = 0;
  ASSERT_TRUE(snapshot_get(40, &v));  // caches node 38
  // A replace retires node 38 and links a fresh node with the same key: the
  // cached pointer is the dead one, whatever its key says.
  std::thread replacer([&] {
    tx::atomically([&](tx::Transaction& t) { EXPECT_FALSE(map_->put(t, 38, -1)); });
  });
  replacer.join();
  delta();

  ASSERT_TRUE(snapshot_get(40, &v));
  EXPECT_EQ(v, 400);
  ASSERT_TRUE(snapshot_get(38, &v));
  EXPECT_EQ(v, -1);  // the head walk reaches the replacement, not the corpse
  const HintCounts d = delta();
  EXPECT_EQ(d.cached, 0u);
  EXPECT_EQ(d.miss, 2u);
}

TEST_F(SnapshotHintsTest, PredecessorBornAfterStampIsRejected) {
  tx::SnapshotTx snap;
  std::int64_t v = 0;
  ASSERT_TRUE(map_->get_at(snap, 0, &v));  // draws T; lands on head, stores nothing
  // After T: insert 39, then look 40 up on the validated path, which caches
  // node 39 — unmarked and young enough, but born after T.
  tx::atomically([&](tx::Transaction& t) { EXPECT_TRUE(map_->put(t, 39, 390)); });
  tx::atomically([&](tx::Transaction& t) { EXPECT_TRUE(map_->get(t, 40, &v)); });
  ASSERT_EQ(cached_pred_key(40), 39);
  const metrics::TxTally& tally = snap.tally();
  const std::uint64_t cached_before = tally.hint_hit_cached;
  const std::uint64_t miss_before = tally.hint_miss;

  // 39 is not in the list at T, so the walk must not start there.
  ASSERT_TRUE(map_->get_at(snap, 40, &v));
  EXPECT_EQ(v, 400);
  EXPECT_EQ(tally.hint_hit_cached, cached_before);
  EXPECT_EQ(tally.hint_miss, miss_before + 1);
  EXPECT_FALSE(map_->contains_at(snap, 39));

  // A snapshot drawn after the insert may start at 39 (re-cached here).
  tx::atomically([&](tx::Transaction& t) { EXPECT_TRUE(map_->get(t, 40, &v)); });
  ASSERT_EQ(cached_pred_key(40), 39);
  tx::SnapshotTx fresh;
  ASSERT_TRUE(map_->get_at(fresh, 40, &v));
  EXPECT_EQ(v, 400);
  EXPECT_EQ(fresh.tally().hint_hit_cached, 1u);
  EXPECT_EQ(fresh.tally().traversal_steps, 0u);  // 39 -> 40 directly
  ASSERT_TRUE(map_->get_at(fresh, 39, &v));
  EXPECT_EQ(v, 390);
}

TEST_F(SnapshotHintsTest, SnapshotWalkNeverStoresAMarkedNode) {
  tx::SnapshotTx snap;
  std::int64_t v = 0;
  ASSERT_TRUE(map_->get_at(snap, 0, &v));  // draws T
  // After T, erase 38 on this thread: the erase's own traversal caches 36.
  tx::atomically([&](tx::Transaction& t) { EXPECT_TRUE(map_->erase(t, 38)); });
  ASSERT_EQ(cached_pred_key(40), 36);

  // At T the walk toward 40 starts at 36 (live at T) and lands on 38, which
  // was live at T but is retired now: it must not replace the entry.
  ASSERT_TRUE(map_->get_at(snap, 40, &v));
  EXPECT_EQ(v, 400);
  EXPECT_EQ(snap.tally().hint_hit_cached, 1u);
  EXPECT_EQ(cached_pred_key(40), 36);
}

TEST_F(SnapshotHintsTest, KnobOffWalksFromHeadWithZeroHintCounters) {
  tx::set_traversal_hints(false);
  std::uint64_t expected_steps = 0;
  for (std::int64_t k = 0; k < 64; ++k) {
    std::int64_t v = -1;
    EXPECT_EQ(snapshot_get(k, &v), k % 2 == 0) << "key " << k;
    if (k % 2 == 0) EXPECT_EQ(v, k * 10);
    // From head: one hop per live key below k.
    expected_steps += static_cast<std::uint64_t>((k + 1) / 2);
  }
  const metrics::SinkSnapshot s = sink_.snapshot();
  EXPECT_EQ(s.counters[static_cast<std::size_t>(CounterId::kHintHitLocal)], 0u);
  EXPECT_EQ(s.counters[static_cast<std::size_t>(CounterId::kHintHitCached)], 0u);
  EXPECT_EQ(s.counters[static_cast<std::size_t>(CounterId::kHintMiss)], 0u);
  EXPECT_EQ(s.traversals.count, 64u);
  EXPECT_EQ(s.traversals.total_steps, expected_steps);
  // Nothing was cached either: turning hints back on starts from a miss.
  EXPECT_EQ(cached_pred_key(40), -1);
}

TEST_F(SnapshotHintsTest, ListSetContainsAtSeedsFromCache) {
  tx::OtbListSet set;
  for (std::int64_t k = 0; k < 64; k += 2) set.add_seq(k);
  for (int round = 0; round < 2; ++round) {
    EXPECT_TRUE(tx::snapshot_read(sink_, [&](tx::SnapshotTx& snap) {
      EXPECT_TRUE(set.contains_at(snap, 40));
      EXPECT_FALSE(set.contains_at(snap, 39));
    }));
  }
  // Round one: 40 misses and caches 38, then 39 starts at 38 (and caches
  // it again).  Round two: both start at 38.
  const HintCounts d = delta();
  EXPECT_EQ(d.miss, 1u);
  EXPECT_EQ(d.cached, 3u);
}

}  // namespace
}  // namespace otb
