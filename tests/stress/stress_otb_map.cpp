// Tier-2 stress: OTB list map (put/erase/get) under concurrent seeded
// load.  Histories are checked per-key against the sequential map spec
// (get must observe the latest committed value) plus the set-style
// conservation audit over the final snapshot.  A second history runs the
// gets as abort-free snapshot reads.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "adapters.h"
#include "metrics/sink.h"
#include "otb/otb_list_map.h"
#include "verify/invariants.h"
#include "verify/lin_check.h"
#include "verify/stress.h"

namespace otb {
namespace {

using verify::LinResult;
using verify::LinStatus;
using verify::OpKind;
using verify::StressOptions;

TEST(OtbMapStress, HistoriesAreLinearizable) {
  const std::uint64_t scale = verify::stress_scale();
  struct Case {
    unsigned threads;
    unsigned abort_pct;
  };
  // Both validation paths must produce linearizable histories: the O(1)
  // commit-sequence gate (default) and the unconditional full scan.
  for (const bool fast : {true, false}) {
    stress::FastPathOverride knob(fast);
  for (const bool hints : {true, false}) {
    stress::TraversalHintsOverride hint_knob(hints);
  for (const Case c : {Case{2, 0}, Case{4, 0}, Case{4, 20}, Case{6, 10}}) {
    SCOPED_TRACE("threads=" + std::to_string(c.threads) +
                 " abort_pct=" + std::to_string(c.abort_pct) +
                 " fast_path=" + (fast ? "on" : "off") +
                 " hints=" + (hints ? "on" : "off"));
    tx::OtbListMap map;
    StressOptions opt;
    opt.threads = c.threads;
    opt.ops_per_thread = 120 * scale;
    opt.key_range = 20;
    opt.seed = verify::stress_seed(0xcafeu + c.threads * 977 + c.abort_pct);
    opt.mix = {{OpKind::kPut, 30}, {OpKind::kErase, 25}, {OpKind::kGet, 45}};

    // Harness convention: seeded map entries carry value == key.
    std::vector<std::int64_t> seeded;
    for (std::int64_t k = 0; k < opt.key_range; k += 2) {
      map.put_seq(k, k);
      seeded.push_back(k);
    }

    const verify::History h = verify::run_stress(opt, [&](unsigned tid) {
      return stress::make_otb_map_worker(map, c.abort_pct,
                                         opt.seed * 31 + tid);
    });

    const LinResult lin =
        verify::check_keyed_history(h, verify::MapKeySpec{}, seeded);
    EXPECT_NE(lin.status, LinStatus::kNonLinearizable) << lin.detail;
    if (lin.status == LinStatus::kBudgetExhausted) {
      GTEST_LOG_(WARNING) << "lin check inconclusive: " << lin.detail;
    }

    std::vector<std::int64_t> final_keys;
    for (const auto& [key, value] : map.snapshot_unsafe()) {
      final_keys.push_back(key);
    }
    const verify::AuditResult audit = verify::audit_set(h, final_keys, seeded);
    EXPECT_TRUE(audit.ok) << audit.detail;
  }
  }
  }
}

TEST(OtbMapStress, SnapshotReadHistoriesAreLinearizable) {
  // Gets on the abort-free snapshot route (get_at and one-key range_at,
  // started from the predecessor cache when hints are on) against validated
  // writers.  Chains are pinned on so the route is taken whatever the
  // environment says.
  const std::uint64_t scale = verify::stress_scale();
  stress::MvVersionsOverride mv(4);
  for (const bool hints : {true, false}) {
    stress::TraversalHintsOverride hint_knob(hints);
    for (const unsigned threads : {2u, 4u, 6u}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " hints=" + (hints ? "on" : "off"));
      tx::OtbListMap map;
      metrics::MetricsSink snap_sink;
      StressOptions opt;
      opt.threads = threads;
      opt.ops_per_thread = 120 * scale;
      opt.key_range = 48;
      opt.seed = verify::stress_seed(0x5a9u + threads * 313 + (hints ? 1 : 0));
      opt.mix = {{OpKind::kPut, 25}, {OpKind::kErase, 20}, {OpKind::kGet, 55}};

      std::vector<std::int64_t> seeded;
      for (std::int64_t k = 0; k < opt.key_range; k += 2) {
        map.put_seq(k, k);
        seeded.push_back(k);
      }

      const verify::History h = verify::run_stress(opt, [&](unsigned tid) {
        return stress::make_otb_map_snapshot_worker(map, /*abort_pct=*/10,
                                                    opt.seed * 31 + tid, snap_sink);
      });

      const LinResult lin =
          verify::check_keyed_history(h, verify::MapKeySpec{}, seeded);
      EXPECT_NE(lin.status, LinStatus::kNonLinearizable) << lin.detail;
      if (lin.status == LinStatus::kBudgetExhausted) {
        GTEST_LOG_(WARNING) << "lin check inconclusive: " << lin.detail;
      }
      EXPECT_GT(snap_sink.counter(metrics::CounterId::kMvSnapshotReads), 0u)
          << "no get took the snapshot route";
    }
  }
}

TEST(OtbMapStress, ReadModifyWriteTransactionsStayAtomic) {
  // Each transaction reads a key and writes value+1 back (or seeds 0):
  // a lost update would show as final value != number of successful
  // increments.  This is the classic counter-increment atomicity test.
  const std::uint64_t scale = verify::stress_scale();
  tx::OtbListMap map;
  constexpr std::int64_t kCounters = 4;
  for (std::int64_t k = 0; k < kCounters; ++k) map.put_seq(k, 0);

  StressOptions opt;
  opt.threads = 4;
  opt.ops_per_thread = 60 * scale;
  opt.key_range = kCounters;
  opt.seed = verify::stress_seed(0xf00du);
  opt.mix = {{OpKind::kPut, 100}};

  const verify::History h = verify::run_stress(opt, [&](unsigned tid) {
    return [&map, inj = stress::AbortInjector(10, opt.seed * 7 + tid)](
               OpKind, std::int64_t key, std::int64_t&) mutable {
      bool pending_abort = inj.arm();
      tx::atomically([&](tx::Transaction& t) {
        std::int64_t v = 0;
        map.get(t, key, &v);
        map.put(t, key, v + 1);
        if (pending_abort) {
          pending_abort = false;
          throw TxAbort{metrics::AbortReason::kExplicit};
        }
      });
      return true;
    };
  });

  std::vector<std::int64_t> increments(kCounters, 0);
  for (const verify::Event& e : h) increments[e.key] += 1;
  for (const auto& [key, value] : map.snapshot_unsafe()) {
    ASSERT_LT(key, kCounters);
    EXPECT_EQ(value, increments[key])
        << "lost increment on counter " << key;
  }
}

}  // namespace
}  // namespace otb
