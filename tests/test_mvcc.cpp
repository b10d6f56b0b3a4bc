// Tests for the multi-version read layer (src/otb/mv.h): bounded version
// chains, snapshot-stamp draws, the abort-free snapshot_read entry point
// with its miss fallback contract, OTB_MV_VERSIONS=0 equivalence, EBR
// protection of superseded versions, and the service plane's inline
// read-only routing with its svc_read_only ledger identity.  Snapshot walks
// seeded from the predecessor cache must match head walks at the same stamp
// under concurrent churn.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include "metrics/sink.h"
#include "otb/mv.h"
#include "otb/otb_list_map.h"
#include "otb/otb_list_set.h"
#include "otb/otb_skiplist_pq.h"
#include "otb/otb_skiplist_set.h"
#include "otb/runtime.h"
#include "otb/traversal_hints.h"
#include "service/service.h"

namespace otb {
namespace {

using metrics::CounterId;
using service::Request;
using service::ResponseFuture;
using service::Service;
using service::ServiceConfig;
using service::SvcStatus;
using service::Targets;

std::uint64_t counter(const metrics::MetricsSink& sink, CounterId id) {
  return sink.snapshot().counters[static_cast<std::size_t>(id)];
}

/// Fixture pinning the knob and injecting a test-local otb.tx sink, so a
/// failing assertion cannot leak either into later tests.
class MvccTest : public ::testing::Test {
 protected:
  void SetUp() override {
    previous_k_ = tx::mv_versions();
    tx::set_mv_versions(4);
    tx::set_metrics_sink(&sink_);
  }
  void TearDown() override {
    tx::set_metrics_sink(nullptr);
    tx::set_mv_versions(previous_k_);
  }

  metrics::MetricsSink sink_;
  unsigned previous_k_ = 0;
};

// ---- MvChain unit behaviour ------------------------------------------------

TEST(MvChain, ResolvesNewestEntryAtOrBelowStamp) {
  tx::MvChain chain(4);
  int a = 0, b = 0, c = 0;
  chain.push(&a, 10);
  chain.push(&b, 20);
  chain.push(&c, 30);

  EXPECT_FALSE(chain.resolve_at(9).found);  // predates every version
  EXPECT_EQ(chain.resolve_at(10).ptr, &a);
  EXPECT_EQ(chain.resolve_at(19).ptr, &a);
  EXPECT_EQ(chain.resolve_at(20).ptr, &b);
  EXPECT_EQ(chain.resolve_at(29).ptr, &b);
  EXPECT_EQ(chain.resolve_at(1000).ptr, &c);
}

TEST(MvChain, BoundedRingEvictsOldestAndReportsIt) {
  tx::MvChain chain(2);
  int a = 0, b = 0, c = 0;
  EXPECT_FALSE(chain.push(&a, 10));  // fills
  EXPECT_FALSE(chain.push(&b, 20));  // fills
  EXPECT_TRUE(chain.push(&c, 30));   // evicts (a, 10)

  EXPECT_FALSE(chain.resolve_at(15).found);  // (a, 10) is gone
  EXPECT_EQ(chain.resolve_at(20).ptr, &b);
  EXPECT_EQ(chain.resolve_at(30).ptr, &c);
}

TEST(MvChain, DepthCountsEntriesInspected) {
  tx::MvChain chain(4);
  int a = 0, b = 0, c = 0;
  chain.push(&a, 10);
  chain.push(&b, 20);
  chain.push(&c, 30);
  EXPECT_EQ(chain.resolve_at(1000).depth, 1u);  // newest matched first
  EXPECT_EQ(chain.resolve_at(10).depth, 3u);    // walked past two newer
}

// ---- snapshot isolation over the structures --------------------------------

TEST_F(MvccTest, MapSnapshotIgnoresLaterCommits) {
  tx::OtbListMap map;
  map.put_seq(1, 10);
  map.put_seq(2, 20);

  tx::SnapshotTx snap;
  std::int64_t v = 0;
  ASSERT_TRUE(map.get_at(snap, 1, &v));  // draws the stamp
  EXPECT_EQ(v, 10);

  tx::atomically([&](tx::Transaction& t) {
    map.put(t, 1, 99);   // replace
    map.put(t, 3, 30);   // insert
    map.erase(t, 2);     // erase
  });

  // The open snapshot still reads the pre-commit state...
  ASSERT_TRUE(map.get_at(snap, 1, &v));
  EXPECT_EQ(v, 10);
  ASSERT_TRUE(map.get_at(snap, 2, &v));
  EXPECT_EQ(v, 20);
  EXPECT_FALSE(map.contains_at(snap, 3));

  // ...and a fresh snapshot reads the post-commit state.
  tx::SnapshotTx snap2;
  ASSERT_TRUE(map.get_at(snap2, 1, &v));
  EXPECT_EQ(v, 99);
  EXPECT_FALSE(map.contains_at(snap2, 2));
  ASSERT_TRUE(map.get_at(snap2, 3, &v));
  EXPECT_EQ(v, 30);
}

TEST_F(MvccTest, RangeScanIsStableUnderConcurrentMutation) {
  tx::OtbListMap map;
  for (std::int64_t k = 0; k < 10; k += 2) map.put_seq(k, k * 100);

  tx::SnapshotTx snap;
  std::vector<std::pair<std::int64_t, std::int64_t>> out;
  ASSERT_EQ(map.range_at(snap, 0, 9, &out), 5u);  // draws the stamp

  tx::atomically([&](tx::Transaction& t) {
    map.put(t, 3, 300);  // insert inside the scanned range
    map.erase(t, 4);     // erase inside it
  });

  // Re-scan through the SAME snapshot: identical result, no invalidation.
  out.clear();
  ASSERT_EQ(map.range_at(snap, 0, 9, &out), 5u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].first, static_cast<std::int64_t>(i * 2));
    EXPECT_EQ(out[i].second, out[i].first * 100);
  }

  tx::SnapshotTx snap2;
  out.clear();
  ASSERT_EQ(map.range_at(snap2, 0, 9, &out), 5u);  // +3, -4
  EXPECT_EQ(out[1].first, 2);
  EXPECT_EQ(out[2].first, 3);
  EXPECT_EQ(out[3].first, 6);
}

TEST_F(MvccTest, ListSetAndSkipListSetSnapshotsAgree) {
  tx::OtbListSet ls;
  tx::OtbSkipListSet ss;
  for (std::int64_t k = 1; k <= 5; ++k) {
    ls.add_seq(k);
    ss.add_seq(k);
  }

  tx::SnapshotTx snap;
  EXPECT_TRUE(ls.contains_at(snap, 3));
  EXPECT_TRUE(ss.contains_at(snap, 3));

  tx::atomically([&](tx::Transaction& t) {
    ls.remove(t, 3);
    ss.remove(t, 3);
    ls.add(t, 9);
    ss.add(t, 9);
  });

  EXPECT_TRUE(ls.contains_at(snap, 3));
  EXPECT_TRUE(ss.contains_at(snap, 3));
  EXPECT_FALSE(ls.contains_at(snap, 9));
  EXPECT_FALSE(ss.contains_at(snap, 9));

  tx::SnapshotTx snap2;
  EXPECT_FALSE(ls.contains_at(snap2, 3));
  EXPECT_FALSE(ss.contains_at(snap2, 3));
  EXPECT_TRUE(ls.contains_at(snap2, 9));
  EXPECT_TRUE(ss.contains_at(snap2, 9));
}

TEST_F(MvccTest, SkipListPqMinAtReadsAsOfSnapshot) {
  tx::OtbSkipListPQ pq;
  pq.add_seq(5);
  pq.add_seq(8);

  tx::SnapshotTx snap;
  std::int64_t min = 0;
  ASSERT_TRUE(pq.min_at(snap, &min));
  EXPECT_EQ(min, 5);

  tx::atomically([&](tx::Transaction& t) {
    std::int64_t popped = 0;
    ASSERT_TRUE(pq.remove_min(t, &popped));  // pops 5
    ASSERT_TRUE(pq.add(t, 2));               // new minimum
  });

  ASSERT_TRUE(pq.min_at(snap, &min));  // the open snapshot is unmoved
  EXPECT_EQ(min, 5);
  tx::SnapshotTx snap2;
  ASSERT_TRUE(pq.min_at(snap2, &min));
  EXPECT_EQ(min, 2);

  tx::OtbSkipListPQ empty;
  tx::SnapshotTx snap3;
  EXPECT_FALSE(empty.min_at(snap3, &min));
}

// ---- bounded chains: overflow and the miss contract -------------------------

TEST_F(MvccTest, ChainOverflowRaisesSnapshotMissForOldStamps) {
  tx::set_mv_versions(2);  // tiny rings so three commits lap a chain
  tx::OtbListSet set;      // nodes created with capacity-2 chains
  set.add_seq(100);

  tx::SnapshotTx snap;
  EXPECT_TRUE(set.contains_at(snap, 100));  // stamp drawn at T0

  // Descending inserts keep head as the predecessor, so each commit pushes
  // a new HEAD-chain version; after three the ring no longer holds an entry
  // <= T0.
  for (std::int64_t k = 3; k >= 1; --k) {
    tx::atomically([&](tx::Transaction& t) { set.add(t, k); });
  }
  EXPECT_THROW(set.contains_at(snap, 100), tx::SnapshotMiss);

  // A fresh snapshot (current stamp) is served fine.
  tx::SnapshotTx snap2;
  EXPECT_TRUE(set.contains_at(snap2, 100));
  EXPECT_TRUE(set.contains_at(snap2, 3));
}

TEST_F(MvccTest, EvictionsAreAccountedAsVersionsReclaimed) {
  tx::set_mv_versions(2);
  tx::OtbListSet set;
  // Churn one key: every add/remove pair pushes head-chain versions, and
  // with capacity-2 rings most pushes evict.
  for (int i = 0; i < 8; ++i) {
    tx::atomically([&](tx::Transaction& t) { set.add(t, 42); });
    tx::atomically([&](tx::Transaction& t) { set.remove(t, 42); });
  }
  EXPECT_GT(counter(sink_, CounterId::kMvVersionsReclaimed), 0u);
}

TEST_F(MvccTest, SnapshotReadFallsBackAndCountsMissWhenKnobOff) {
  tx::set_mv_versions(0);
  tx::OtbListSet set;  // chainless nodes
  set.add_seq(1);

  bool saw = false;
  const bool snapped = tx::snapshot_read(sink_, [&](tx::SnapshotTx& snap) {
    saw = set.contains_at(snap, 1);
  });
  EXPECT_FALSE(snapped);
  EXPECT_FALSE(saw);  // fn never completed
  EXPECT_EQ(counter(sink_, CounterId::kMvSnapshotReads), 0u);
  EXPECT_EQ(counter(sink_, CounterId::kMvVersionMisses), 1u);

  // The validated path serves the same read (the caller's fallback).
  tx::atomically([&](tx::Transaction& t) { saw = set.contains(t, 1); });
  EXPECT_TRUE(saw);
}

TEST_F(MvccTest, SnapshotReadCountsSuccessAndSamplesChainDepth) {
  tx::OtbListMap map;
  for (std::int64_t k = 0; k < 8; ++k) map.put_seq(k, k);

  std::int64_t v = 0;
  const bool snapped = tx::snapshot_read(sink_, [&](tx::SnapshotTx& snap) {
    ASSERT_TRUE(map.get_at(snap, 5, &v));
  });
  EXPECT_TRUE(snapped);
  EXPECT_EQ(v, 5);
  const metrics::SinkSnapshot s = sink_.snapshot();
  EXPECT_EQ(s.counter(CounterId::kMvSnapshotReads), 1u);
  EXPECT_EQ(s.counter(CounterId::kMvVersionMisses), 0u);
  // The walk resolved one chain per hop; every sample landed in the series.
  EXPECT_GT(s.mv_chain_len.count, 0u);
  std::uint64_t bucket_sum = 0;
  for (const auto b : s.mv_chain_len.log2_buckets) bucket_sum += b;
  EXPECT_EQ(bucket_sum, s.mv_chain_len.count);
}

// ---- cached entry points for snapshot walks ---------------------------------

TEST_F(MvccTest, HintedRangeScanMatchesHeadWalkUnderConcurrentChurn) {
  const bool hints_before = tx::traversal_hints_enabled();
  tx::set_traversal_hints(true);
  tx::PredCache::clear_this_thread();
  constexpr std::int64_t kKeys = 256;
  tx::OtbListMap map;
  for (std::int64_t k = 0; k < kKeys; k += 2) map.put_seq(k, k);

  // Replaces, erases and inserts retire and relink the very nodes this
  // thread's cache points at.
  std::atomic<bool> stop{false};
  std::atomic<int> commits{0};
  std::thread writer([&] {
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    while (!stop.load(std::memory_order_relaxed)) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      const std::int64_t key = static_cast<std::int64_t>(x % kKeys);
      const std::int64_t value = static_cast<std::int64_t>((x >> 16) % 1000);
      tx::atomically([&](tx::Transaction& t) {
        if ((x >> 40) % 3 == 0) {
          map.erase(t, key);
        } else {
          map.put(t, key, value);
        }
      });
      commits.fetch_add(1, std::memory_order_relaxed);
    }
  });

  metrics::MetricsSink snap_sink;
  std::uint64_t x = 12345;
  int compared = 0;
  // Keep scanning until the writer has churned well past the thread start-up
  // (bounded, so a stalled writer cannot hang the test).
  for (int i = 0; i < 200000 && (i < 2000 || commits.load() < 20000); ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    const std::int64_t lo = static_cast<std::int64_t>((x >> 33) % kKeys);
    const std::int64_t hi = lo + static_cast<std::int64_t>((x >> 20) % 24);
    std::vector<std::pair<std::int64_t, std::int64_t>> hinted, from_head;
    const bool snapped = tx::snapshot_read(snap_sink, [&](tx::SnapshotTx& snap) {
      hinted.clear();
      from_head.clear();
      map.range_at(snap, lo, hi, &hinted);
      // No cached key lies below -1, so this walk starts at the head.
      map.range_at(snap, -1, hi, &from_head);
    });
    if (!snapped) continue;  // chains lapped past the stamp: nothing to compare
    from_head.erase(std::remove_if(from_head.begin(), from_head.end(),
                                   [&](const auto& kv) { return kv.first < lo; }),
                    from_head.end());
    EXPECT_EQ(hinted, from_head) << "range [" << lo << ", " << hi << "]";
    if (hinted != from_head) break;  // one diff is enough; still join below
    ++compared;
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  tx::set_traversal_hints(hints_before);

  EXPECT_GT(compared, 0);
  EXPECT_GT(counter(snap_sink, CounterId::kHintHitCached), 0u);
}

// ---- EBR keeps superseded versions dereferenceable ---------------------------

TEST_F(MvccTest, OpenSnapshotSurvivesHeavyRetirementChurn) {
  tx::OtbListMap map;
  for (std::int64_t k = 0; k < 32; ++k) map.put_seq(k, k + 1000);

  tx::SnapshotTx snap;
  std::int64_t v = 0;
  ASSERT_TRUE(map.get_at(snap, 0, &v));  // stamp drawn

  // Erase everything, largest key first so each erase pushes a DIFFERENT
  // predecessor's chain (no ring ever overflows past the snapshot's stamp);
  // every node the snapshot can reach is now retired.
  for (std::int64_t k = 31; k >= 0; --k) {
    tx::atomically([&](tx::Transaction& t) { map.erase(t, k); });
  }
  // The snapshot's epoch guard pins the retired nodes: every key is still
  // readable, with its value, through the old stamp (ASan would flag any
  // use-after-free here).
  for (std::int64_t k = 0; k < 32; ++k) {
    ASSERT_TRUE(map.get_at(snap, k, &v)) << "key " << k;
    EXPECT_EQ(v, k + 1000);
  }
  tx::SnapshotTx snap2;
  EXPECT_FALSE(map.contains_at(snap2, 0));
}

// ---- service-plane read-only routing ----------------------------------------

class MvccServiceTest : public MvccTest {
 protected:
  Targets targets() { return Targets::standard(&map_, &set_, &heap_, &slpq_); }

  ServiceConfig config() {
    ServiceConfig cfg;
    cfg.workers = 2;
    cfg.batch_max = 4;
    cfg.queue_capacity = 64;
    cfg.metrics = &svc_sink_;
    return cfg;
  }

  tx::OtbListMap map_;
  tx::OtbListSet set_;
  tx::OtbHeapPQ heap_;
  tx::OtbSkipListPQ slpq_;
  metrics::MetricsSink svc_sink_;
};

TEST_F(MvccServiceTest, ReadOnlyScriptsBypassTheQueue) {
  Service svc(targets(), config());
  svc.start();
  ASSERT_EQ(svc.submit(service::map_put(1, 10)).wait(), SvcStatus::kOk);
  ASSERT_EQ(svc.submit(service::sl_push(7)).wait(), SvcStatus::kOk);
  const std::uint64_t enqueued_before =
      counter(svc_sink_, CounterId::kSvcEnqueued);

  // A pure-read script spanning three snapshot-capable structures.
  ResponseFuture ro = svc.submit(Request{service::map_get(1),
                                         service::set_contains(1),
                                         service::pq_min(3)});
  ASSERT_EQ(ro.wait(), SvcStatus::kOk);
  ASSERT_EQ(ro.step_count(), 3u);
  EXPECT_TRUE(ro.step(0).ok);
  EXPECT_EQ(ro.step(0).value, 10);
  EXPECT_FALSE(ro.step(1).ok);
  EXPECT_TRUE(ro.step(2).ok);
  EXPECT_EQ(ro.step(2).value, 7);

  ResponseFuture rg = svc.submit(service::map_range(0, 100));
  ASSERT_EQ(rg.wait(), SvcStatus::kOk);
  ASSERT_EQ(rg.range().size(), 1u);
  EXPECT_EQ(rg.range()[0].first, 1);
  svc.stop();

  const metrics::SinkSnapshot s = svc_sink_.snapshot();
  // Neither read consumed a queue slot or a batch...
  EXPECT_EQ(s.counter(CounterId::kSvcEnqueued), enqueued_before);
  // ...both took the snapshot route, and the ledger identity holds.
  EXPECT_EQ(s.counter(CounterId::kSvcReadOnly), 2u);
  EXPECT_EQ(s.counter(CounterId::kSvcReadOnly),
            s.counter(CounterId::kMvSnapshotReads) +
                s.counter(CounterId::kMvVersionMisses));
  EXPECT_GT(s.mv_chain_len.count, 0u);
}

TEST_F(MvccServiceTest, HeapPqAndWriteScriptsStayOnTheBatchPath) {
  Service svc(targets(), config());
  svc.start();
  ASSERT_EQ(svc.submit(service::heap_push(3)).wait(), SvcStatus::kOk);
  // kMin is a read verb, but the eager heap PQ grows no version chains, so
  // the script must run as an ordinary batch transaction.
  ResponseFuture hm = svc.submit(service::pq_min(2));
  ASSERT_EQ(hm.wait(), SvcStatus::kOk);
  EXPECT_TRUE(hm.ok());
  EXPECT_EQ(hm.value(), 3);
  // A read+write mix is not read-only either.
  ResponseFuture rw =
      svc.submit(Request{service::map_get(1), service::map_put(1, 2)});
  ASSERT_EQ(rw.wait(), SvcStatus::kOk);
  svc.stop();
  EXPECT_EQ(counter(svc_sink_, CounterId::kSvcReadOnly), 0u);
  EXPECT_EQ(counter(svc_sink_, CounterId::kSvcEnqueued), 3u);
}

TEST_F(MvccServiceTest, ReadOnlyGuardFailureIsACleanOkNoOp) {
  Service svc(targets(), config());
  svc.start();
  ResponseFuture fut = svc.submit(Request{service::map_get(5).require(),
                                          service::set_contains(5)});
  ASSERT_EQ(fut.wait(), SvcStatus::kOk);
  EXPECT_FALSE(fut.ok());
  ASSERT_EQ(fut.step_count(), 2u);
  EXPECT_TRUE(fut.step(0).ran);
  EXPECT_FALSE(fut.step(0).ok);   // the guard failed here...
  EXPECT_FALSE(fut.step(1).ran);  // ...and nothing after it executed
  svc.stop();
  EXPECT_EQ(counter(svc_sink_, CounterId::kSvcGuardAborts), 1u);
  EXPECT_EQ(counter(svc_sink_, CounterId::kSvcReadOnly), 1u);
}

TEST_F(MvccServiceTest, KnobOffRoutesReadsThroughTheQueueUnchanged) {
  tx::set_mv_versions(0);
  Service svc(targets(), config());
  svc.start();
  ASSERT_EQ(svc.submit(service::map_put(1, 10)).wait(), SvcStatus::kOk);
  ResponseFuture get = svc.submit(service::map_get(1));
  ASSERT_EQ(get.wait(), SvcStatus::kOk);
  EXPECT_TRUE(get.ok());
  EXPECT_EQ(get.value(), 10);
  svc.stop();
  const metrics::SinkSnapshot s = svc_sink_.snapshot();
  EXPECT_EQ(s.counter(CounterId::kSvcReadOnly), 0u);
  EXPECT_EQ(s.counter(CounterId::kSvcEnqueued), 2u);  // the get queued too
  EXPECT_EQ(s.batch_size.total + s.counter(CounterId::kSvcExpired),
            s.counter(CounterId::kSvcEnqueued));
}

TEST_F(MvccServiceTest, LapsedDeadlineReadOnlyExpiresOnTheQueuePath) {
  Service svc(targets(), config());
  svc.start();
  ASSERT_EQ(svc.submit(service::map_put(1, 10)).wait(), SvcStatus::kOk);
  // A read-only script whose deadline already passed at submit must NOT be
  // served by the inline snapshot route (which would complete it kOk) — it
  // diverts to the queue path, whose worker expires it under the normal
  // ledger.  deadline_ns = 1 is in the distant past of the now_ns clock.
  ResponseFuture late = svc.submit(Request{service::map_get(1)}.with_deadline(1));
  EXPECT_EQ(late.wait(), SvcStatus::kExpired);
  svc.stop();
  const metrics::SinkSnapshot s = svc_sink_.snapshot();
  EXPECT_EQ(s.counter(CounterId::kSvcReadOnly), 0u);
  EXPECT_EQ(s.counter(CounterId::kSvcExpired), 1u);
  EXPECT_EQ(s.counter(CounterId::kSvcEnqueued), 2u);  // the put + the late get
  EXPECT_EQ(s.batch_size.total + s.counter(CounterId::kSvcExpired),
            s.counter(CounterId::kSvcEnqueued));
}

TEST_F(MvccServiceTest, StoppedServiceRejectsReadOnlySubmits) {
  Service svc(targets(), config());
  svc.start();
  svc.stop();
  ResponseFuture probe = svc.submit(service::map_get(1));
  EXPECT_EQ(probe.status(), SvcStatus::kOverloaded);
  EXPECT_EQ(counter(svc_sink_, CounterId::kSvcReadOnly), 0u);
}

}  // namespace
}  // namespace otb
