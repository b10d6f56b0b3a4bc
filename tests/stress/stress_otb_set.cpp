// Tier-2 stress: OTB sets (lazy linked list + lazy skip list) hammered by
// N seeded threads across several op mixes, with and without explicit-abort
// injection.  Every run's recorded history must be linearizable against the
// sequential set spec and pass the structural/conservation audit; a
// multi-structure transfer workload additionally checks that composed
// transactions never lose or duplicate keys.  A further history runs the
// membership tests as abort-free snapshot reads.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "adapters.h"
#include "metrics/sink.h"
#include "otb/otb_list_set.h"
#include "otb/otb_skiplist_set.h"
#include "verify/invariants.h"
#include "verify/lin_check.h"
#include "verify/stress.h"

namespace otb {
namespace {

using stress::make_otb_set_worker;
using verify::LinResult;
using verify::LinStatus;
using verify::OpKind;
using verify::StressOptions;

struct MixCase {
  const char* name;
  std::vector<std::pair<OpKind, unsigned>> mix;
  unsigned abort_pct;
};

const MixCase kMixes[] = {
    {"balanced", {{OpKind::kAdd, 30}, {OpKind::kRemove, 30}, {OpKind::kContains, 40}}, 0},
    {"write_heavy", {{OpKind::kAdd, 45}, {OpKind::kRemove, 45}, {OpKind::kContains, 10}}, 0},
    {"read_heavy", {{OpKind::kAdd, 15}, {OpKind::kRemove, 15}, {OpKind::kContains, 70}}, 0},
    {"abort_injected", {{OpKind::kAdd, 35}, {OpKind::kRemove, 35}, {OpKind::kContains, 30}}, 20},
};

template <typename SetT>
class OtbSetStress : public ::testing::Test {};

using SetTypes = ::testing::Types<tx::OtbListSet, tx::OtbSkipListSet>;
TYPED_TEST_SUITE(OtbSetStress, SetTypes);

TYPED_TEST(OtbSetStress, HistoriesAreLinearizable) {
  const std::uint64_t scale = verify::stress_scale();
  // Both validation paths must produce linearizable histories — the O(1)
  // commit-sequence gate (default) and the unconditional full scan — and
  // both traversal modes: hint-seeded and head-start.
  for (const bool fast : {true, false}) {
    stress::FastPathOverride knob(fast);
    for (const bool hints : {true, false}) {
    stress::TraversalHintsOverride hint_knob(hints);
    for (const unsigned threads : {2u, 4u, 7u}) {
    for (const MixCase& mc : kMixes) {
      SCOPED_TRACE(std::string(mc.name) + " threads=" + std::to_string(threads) +
                   " fast_path=" + (fast ? "on" : "off") +
                   " hints=" + (hints ? "on" : "off"));
      TypeParam set;
      StressOptions opt;
      opt.threads = threads;
      opt.ops_per_thread = 120 * scale;
      opt.key_range = 24;
      opt.seed = verify::stress_seed(0xbee5u + threads * 131 + mc.abort_pct);
      opt.mix = mc.mix;

      std::vector<std::int64_t> seeded;
      for (std::int64_t k = 0; k < opt.key_range; k += 2) {
        set.add_seq(k);
        seeded.push_back(k);
      }

      const verify::History h =
          verify::run_stress(opt, [&](unsigned tid) {
            return make_otb_set_worker(set, mc.abort_pct,
                                       opt.seed * 31 + tid);
          });

      const LinResult lin =
          verify::check_keyed_history(h, verify::SetKeySpec{}, seeded);
      EXPECT_NE(lin.status, LinStatus::kNonLinearizable) << lin.detail;
      if (lin.status == LinStatus::kBudgetExhausted) {
        GTEST_LOG_(WARNING) << "lin check inconclusive: " << lin.detail;
      }

      const verify::AuditResult audit =
          verify::audit_set(h, set.snapshot_unsafe(), seeded);
      EXPECT_TRUE(audit.ok) << audit.detail;
    }
    }
    }
  }
}

TYPED_TEST(OtbSetStress, SnapshotReadHistoriesAreLinearizable) {
  // Membership tests on the abort-free snapshot route (contains_at, started
  // from the predecessor cache when hints are on for the list set) against
  // validated writers.  Chains are pinned on so the route is taken whatever
  // the environment says.
  const std::uint64_t scale = verify::stress_scale();
  stress::MvVersionsOverride mv(4);
  for (const bool hints : {true, false}) {
    stress::TraversalHintsOverride hint_knob(hints);
    for (const unsigned threads : {2u, 4u, 7u}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " hints=" + (hints ? "on" : "off"));
      TypeParam set;
      metrics::MetricsSink snap_sink;
      StressOptions opt;
      opt.threads = threads;
      opt.ops_per_thread = 120 * scale;
      opt.key_range = 48;
      opt.seed = verify::stress_seed(0x5e7u + threads * 131 + (hints ? 1 : 0));
      opt.mix = {{OpKind::kAdd, 25}, {OpKind::kRemove, 25}, {OpKind::kContains, 50}};

      std::vector<std::int64_t> seeded;
      for (std::int64_t k = 0; k < opt.key_range; k += 2) {
        set.add_seq(k);
        seeded.push_back(k);
      }

      const verify::History h = verify::run_stress(opt, [&](unsigned tid) {
        return stress::make_otb_set_snapshot_worker(set, /*abort_pct=*/10,
                                                    opt.seed * 31 + tid, snap_sink);
      });

      const LinResult lin =
          verify::check_keyed_history(h, verify::SetKeySpec{}, seeded);
      EXPECT_NE(lin.status, LinStatus::kNonLinearizable) << lin.detail;
      if (lin.status == LinStatus::kBudgetExhausted) {
        GTEST_LOG_(WARNING) << "lin check inconclusive: " << lin.detail;
      }
      const verify::AuditResult audit =
          verify::audit_set(h, set.snapshot_unsafe(), seeded);
      EXPECT_TRUE(audit.ok) << audit.detail;
      EXPECT_GT(snap_sink.counter(metrics::CounterId::kMvSnapshotReads), 0u)
          << "no membership test took the snapshot route";
    }
  }
}

TYPED_TEST(OtbSetStress, AbortInjectionIsAccountedInMetrics) {
  // The injected explicit aborts must surface through the abort taxonomy —
  // proving the stress driver really exercises the rollback path.
  metrics::MetricsSink sink;
  tx::set_metrics_sink(&sink);
  TypeParam set;
  StressOptions opt;
  opt.threads = 3;
  opt.ops_per_thread = 100;
  opt.key_range = 16;
  opt.seed = verify::stress_seed(0xabba);
  const verify::History h = verify::run_stress(opt, [&](unsigned tid) {
    return make_otb_set_worker(set, /*abort_pct=*/30, opt.seed * 17 + tid);
  });
  tx::set_metrics_sink(nullptr);

  const metrics::SinkSnapshot snap = sink.snapshot();
  EXPECT_GT(snap.aborts[static_cast<std::size_t>(
                metrics::AbortReason::kExplicit)],
            0u)
      << "abort injection never reached the metrics taxonomy";
  const LinResult lin = verify::check_keyed_history(h, verify::SetKeySpec{});
  EXPECT_NE(lin.status, LinStatus::kNonLinearizable) << lin.detail;
}

TYPED_TEST(OtbSetStress, TransactionalTransferConservesKeys) {
  // Composite transactions move keys between two sets; whatever the
  // interleaving (including injected aborts mid-transfer), the union of the
  // final snapshots must be exactly the seeded keys.
  const std::uint64_t scale = verify::stress_scale();
  TypeParam from, to;
  std::vector<std::int64_t> seeded;
  for (std::int64_t k = 0; k < 32; ++k) {
    from.add_seq(k);
    seeded.push_back(k);
  }

  StressOptions opt;
  opt.threads = 4;
  opt.ops_per_thread = 150 * scale;
  opt.key_range = 32;
  opt.seed = verify::stress_seed(0x7a05);
  // kAdd encodes "transfer from->to", kRemove the reverse direction.
  opt.mix = {{OpKind::kAdd, 50}, {OpKind::kRemove, 50}};

  verify::run_stress(opt, [&](unsigned tid) {
    return [&from, &to,
            inj = stress::AbortInjector(15, opt.seed * 13 + tid)](
               OpKind op, std::int64_t key, std::int64_t&) mutable {
      TypeParam& src = op == OpKind::kAdd ? from : to;
      TypeParam& dst = op == OpKind::kAdd ? to : from;
      bool moved = false;
      bool pending_abort = inj.arm();
      tx::atomically([&](tx::Transaction& t) {
        moved = false;
        if (src.remove(t, key)) {
          // The add must succeed: the key cannot already be in dst if it
          // was still in src (they partition the seeded keys).
          if (!dst.add(t, key)) throw TxAbort{};
          moved = true;
        }
        if (pending_abort) {
          pending_abort = false;
          throw TxAbort{metrics::AbortReason::kExplicit};
        }
      });
      return moved;
    };
  });

  const std::vector<std::int64_t> snap_from = from.snapshot_unsafe();
  const std::vector<std::int64_t> snap_to = to.snapshot_unsafe();
  const verify::AuditResult cons =
      verify::audit_conservation({snap_from, snap_to}, seeded);
  EXPECT_TRUE(cons.ok) << cons.detail;
  for (const auto* snap : {&snap_from, &snap_to}) {
    for (std::size_t i = 1; i < snap->size(); ++i) {
      EXPECT_LT((*snap)[i - 1], (*snap)[i]) << "snapshot order broken";
    }
  }
}

}  // namespace
}  // namespace otb
