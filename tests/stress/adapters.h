// Worker adapters binding the verify:: stress driver to every transactional
// structure under test.  Each factory returns a per-thread callable
//   bool worker(verify::OpKind, std::int64_t key, std::int64_t& value)
// that executes exactly one committed transaction per call and reports the
// committed attempt's result.
//
// Abort injection: with `abort_pct` non-zero, a call's *first* attempt may
// throw TxAbort{kExplicit} after performing its operation, forcing the
// runtime through its rollback path before the retry commits — the
// history then validates that aborted attempts leave no trace.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "boosted/boosted_pq.h"
#include "boosted/boosted_runtime.h"
#include "boosted/boosted_set.h"
#include "common/rng.h"
#include "common/tx_abort.h"
#include "otb/otb_heap_pq.h"
#include "otb/otb_list_map.h"
#include "otb/otb_skiplist_pq.h"
#include "otb/runtime.h"
#include "service/fusion.h"
#include "stm/runtime.h"
#include "verify/history.h"

namespace otb::stress {

/// RAII override of the commit-sequence validation fast path: the lin
/// checker must pass with the O(1) gate forced on AND off (the gated and
/// ungated validation paths are both load-bearing).  Restores the
/// environment-selected default on destruction.
class FastPathOverride {
 public:
  explicit FastPathOverride(bool on)
      : previous_(tx::validation_fast_path_enabled()) {
    tx::set_validation_fast_path(on);
  }
  ~FastPathOverride() { tx::set_validation_fast_path(previous_); }
  FastPathOverride(const FastPathOverride&) = delete;
  FastPathOverride& operator=(const FastPathOverride&) = delete;

 private:
  bool previous_;
};

/// RAII override of the traversal-hint layer, same contract as
/// FastPathOverride: histories must linearize with hint seeding forced on
/// AND off (the hinted and head-start traversal paths are both load-bearing).
class TraversalHintsOverride {
 public:
  explicit TraversalHintsOverride(bool on)
      : previous_(tx::traversal_hints_enabled()) {
    tx::set_traversal_hints(on);
  }
  ~TraversalHintsOverride() { tx::set_traversal_hints(previous_); }
  TraversalHintsOverride(const TraversalHintsOverride&) = delete;
  TraversalHintsOverride& operator=(const TraversalHintsOverride&) = delete;

 private:
  bool previous_;
};

/// RAII override of the multi-version chain capacity (OTB_MV_VERSIONS),
/// same contract as the overrides above: histories and ledger identities
/// must hold with the snapshot route forced on AND off.  Note the knob is
/// consulted at NODE CREATION (new nodes grow chains of the then-current
/// capacity), so structures built under one override keep those chains.
class MvVersionsOverride {
 public:
  explicit MvVersionsOverride(unsigned k) : previous_(tx::mv_versions()) {
    tx::set_mv_versions(k);
  }
  ~MvVersionsOverride() { tx::set_mv_versions(previous_); }
  MvVersionsOverride(const MvVersionsOverride&) = delete;
  MvVersionsOverride& operator=(const MvVersionsOverride&) = delete;

 private:
  unsigned previous_;
};

/// RAII override of the transaction-fusion contention manager (OTB_FUSION,
/// src/service/fusion.h), same contract as the overrides above: service
/// histories and ledger identities must hold with budget-exhausted batches
/// fusing AND with the pre-fusion split-only worker loop.
class FusionOverride {
 public:
  explicit FusionOverride(bool on) : previous_(service::fusion_enabled()) {
    service::set_fusion(on);
  }
  ~FusionOverride() { service::set_fusion(previous_); }
  FusionOverride(const FusionOverride&) = delete;
  FusionOverride& operator=(const FusionOverride&) = delete;

 private:
  bool previous_;
};

/// Seeded per-worker decision source for explicit-abort injection.
class AbortInjector {
 public:
  AbortInjector(unsigned pct, std::uint64_t seed) : pct_(pct), rng_(seed) {}

  /// Decide once per logical operation whether its first attempt aborts.
  bool arm() { return pct_ != 0 && rng_.chance_pct(pct_); }

 private:
  unsigned pct_;
  Xorshift rng_;
};

// ---- standalone OTB runtime -------------------------------------------------

/// OTB sets (OtbListSet / OtbSkipListSet): add/remove/contains.
template <typename SetT>
auto make_otb_set_worker(SetT& set, unsigned abort_pct, std::uint64_t seed) {
  return [&set, inj = AbortInjector(abort_pct, seed)](
             verify::OpKind op, std::int64_t key, std::int64_t&) mutable {
    bool result = false;
    bool pending_abort = inj.arm();
    tx::atomically([&](tx::Transaction& t) {
      switch (op) {
        case verify::OpKind::kAdd:
          result = set.add(t, key);
          break;
        case verify::OpKind::kRemove:
          result = set.remove(t, key);
          break;
        default:
          result = set.contains(t, key);
          break;
      }
      if (pending_abort) {
        pending_abort = false;
        throw TxAbort{metrics::AbortReason::kExplicit};
      }
    });
    return result;
  };
}

/// OtbListMap: put/erase/get (get reports the observed value through
/// `value`; put takes its argument from it).
inline auto make_otb_map_worker(tx::OtbListMap& map, unsigned abort_pct,
                                std::uint64_t seed) {
  return [&map, inj = AbortInjector(abort_pct, seed)](
             verify::OpKind op, std::int64_t key, std::int64_t& value) mutable {
    bool result = false;
    bool pending_abort = inj.arm();
    tx::atomically([&](tx::Transaction& t) {
      switch (op) {
        case verify::OpKind::kPut:
          result = map.put(t, key, value);
          break;
        case verify::OpKind::kErase:
          result = map.erase(t, key);
          break;
        default: {
          std::int64_t out = 0;
          result = map.get(t, key, &out);
          value = out;
          break;
        }
      }
      if (pending_abort) {
        pending_abort = false;
        throw TxAbort{metrics::AbortReason::kExplicit};
      }
    });
    return result;
  };
}

// ---- abort-free snapshot reads ----------------------------------------------
//
// Read ops run as tx::snapshot_read scripts (the service plane's inline
// read-only route) and fall back to the validated worker on a version miss;
// writes always go through the validated worker.  A snapshot read linearizes
// at its stamp draw, which lies inside the call.  Successful snapshot reads
// are counted in `snap_sink` so a driver can prove the route was taken.

/// OTB sets: contains via contains_at.
template <typename SetT>
auto make_otb_set_snapshot_worker(SetT& set, unsigned abort_pct, std::uint64_t seed,
                                  metrics::MetricsSink& snap_sink) {
  return [&set, &snap_sink, validated = make_otb_set_worker(set, abort_pct, seed)](
             verify::OpKind op, std::int64_t key, std::int64_t& value) mutable {
    if (op != verify::OpKind::kContains) return validated(op, key, value);
    bool found = false;
    if (!tx::snapshot_read(snap_sink, [&](tx::SnapshotTx& snap) {
          found = set.contains_at(snap, key);
        })) {
      return validated(op, key, value);
    }
    return found;
  };
}

/// OtbListMap: gets alternate between get_at and a one-key range_at.
inline auto make_otb_map_snapshot_worker(tx::OtbListMap& map, unsigned abort_pct,
                                         std::uint64_t seed,
                                         metrics::MetricsSink& snap_sink) {
  return [&map, &snap_sink, validated = make_otb_map_worker(map, abort_pct, seed),
          use_range = false](verify::OpKind op, std::int64_t key,
                             std::int64_t& value) mutable {
    if (op != verify::OpKind::kGet) return validated(op, key, value);
    use_range = !use_range;
    bool found = false;
    std::int64_t out = 0;
    std::vector<std::pair<std::int64_t, std::int64_t>> range;
    if (!tx::snapshot_read(snap_sink, [&](tx::SnapshotTx& snap) {
          if (use_range) {
            range.clear();
            found = map.range_at(snap, key, key, &range) == 1;
            out = found ? range[0].second : 0;
          } else {
            out = 0;
            found = map.get_at(snap, key, &out);
          }
        })) {
      return validated(op, key, value);
    }
    value = out;
    return found;
  };
}

/// OTB skip-list PQ (unique keys; add reports presence).
inline auto make_otb_slpq_worker(tx::OtbSkipListPQ& pq, unsigned abort_pct,
                                 std::uint64_t seed) {
  return [&pq, inj = AbortInjector(abort_pct, seed)](
             verify::OpKind op, std::int64_t key, std::int64_t& value) mutable {
    bool result = false;
    bool pending_abort = inj.arm();
    tx::atomically([&](tx::Transaction& t) {
      switch (op) {
        case verify::OpKind::kPqAdd:
          result = pq.add(t, key);
          break;
        case verify::OpKind::kPqRemoveMin: {
          std::int64_t out = 0;
          result = pq.remove_min(t, &out);
          value = out;
          break;
        }
        default: {
          std::int64_t out = 0;
          result = pq.min(t, &out);
          value = out;
          break;
        }
      }
      if (pending_abort) {
        pending_abort = false;
        throw TxAbort{metrics::AbortReason::kExplicit};
      }
    });
    return result;
  };
}

/// OTB heap PQ (semi-optimistic; duplicates allowed, add always succeeds).
inline auto make_otb_heap_pq_worker(tx::OtbHeapPQ& pq, unsigned abort_pct,
                                    std::uint64_t seed) {
  return [&pq, inj = AbortInjector(abort_pct, seed)](
             verify::OpKind op, std::int64_t key, std::int64_t& value) mutable {
    bool result = false;
    bool pending_abort = inj.arm();
    tx::atomically([&](tx::Transaction& t) {
      switch (op) {
        case verify::OpKind::kPqAdd:
          pq.add(t, key);
          result = true;
          break;
        case verify::OpKind::kPqRemoveMin: {
          std::int64_t out = 0;
          result = pq.remove_min(t, &out);
          value = out;
          break;
        }
        default: {
          std::int64_t out = 0;
          result = pq.min(t, &out);
          value = out;
          break;
        }
      }
      if (pending_abort) {
        pending_abort = false;
        throw TxAbort{metrics::AbortReason::kExplicit};
      }
    });
    return result;
  };
}

// ---- pessimistic-boosting baselines ----------------------------------------

/// Boosted set over a lazy list / lazy skip list.
template <typename Underlying>
auto make_boosted_set_worker(boosted::BoostedSet<Underlying>& set,
                             unsigned abort_pct, std::uint64_t seed) {
  return [&set, inj = AbortInjector(abort_pct, seed)](
             verify::OpKind op, std::int64_t key, std::int64_t&) mutable {
    bool result = false;
    bool pending_abort = inj.arm();
    boosted::atomically([&](boosted::BoostedTx& t) {
      switch (op) {
        case verify::OpKind::kAdd:
          result = set.add(t, key);
          break;
        case verify::OpKind::kRemove:
          result = set.remove(t, key);
          break;
        default:
          result = set.contains(t, key);
          break;
      }
      if (pending_abort) {
        pending_abort = false;
        throw TxAbort{metrics::AbortReason::kExplicit};
      }
    });
    return result;
  };
}

/// Boosted heap PQ (duplicates allowed).
inline auto make_boosted_pq_worker(boosted::BoostedHeapPQ& pq,
                                   unsigned abort_pct, std::uint64_t seed) {
  return [&pq, inj = AbortInjector(abort_pct, seed)](
             verify::OpKind op, std::int64_t key, std::int64_t& value) mutable {
    bool result = false;
    bool pending_abort = inj.arm();
    boosted::atomically([&](boosted::BoostedTx& t) {
      switch (op) {
        case verify::OpKind::kPqAdd:
          pq.add(t, key);
          result = true;
          break;
        case verify::OpKind::kPqRemoveMin: {
          std::int64_t out = 0;
          result = pq.remove_min(t, &out);
          value = out;
          break;
        }
        default: {
          std::int64_t out = 0;
          result = pq.min(t, &out);
          value = out;
          break;
        }
      }
      if (pending_abort) {
        pending_abort = false;
        throw TxAbort{metrics::AbortReason::kExplicit};
      }
    });
    return result;
  };
}

// ---- pure-STM data structures ----------------------------------------------

/// STM set worker: owns the thread's TxThread registration, so it must be
/// constructed by the stress driver's factory on the worker thread itself.
template <typename SetT>
class StmSetWorker {
 public:
  StmSetWorker(stm::Runtime& rt, SetT& set, unsigned abort_pct,
               std::uint64_t seed)
      : rt_(rt), set_(set), thread_(std::make_unique<stm::TxThread>(rt)),
        inj_(abort_pct, seed) {}

  bool operator()(verify::OpKind op, std::int64_t key, std::int64_t&) {
    bool result = false;
    bool pending_abort = inj_.arm();
    rt_.atomically(*thread_, [&](stm::Tx& tx) {
      switch (op) {
        case verify::OpKind::kAdd:
          result = set_.add(tx, key);
          break;
        case verify::OpKind::kRemove:
          result = set_.remove(tx, key);
          break;
        default:
          result = set_.contains(tx, key);
          break;
      }
      if (pending_abort) {
        pending_abort = false;
        throw TxAbort{metrics::AbortReason::kExplicit};
      }
    });
    return result;
  }

 private:
  stm::Runtime& rt_;
  SetT& set_;
  std::unique_ptr<stm::TxThread> thread_;
  AbortInjector inj_;
};

template <typename SetT>
StmSetWorker<SetT> make_stm_set_worker(stm::Runtime& rt, SetT& set,
                                       unsigned abort_pct, std::uint64_t seed) {
  return StmSetWorker<SetT>(rt, set, abort_pct, seed);
}

}  // namespace otb::stress
