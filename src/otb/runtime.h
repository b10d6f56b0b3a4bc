// Standalone OTB transaction runtime (Chapter 3).
//
// Drives transactions that touch only boosted data structures: a retry
// loop, per-attempt `Transaction` host, and the commit protocol
//   pre_commit (semantic 2PL + commit-time validation)
//   on_commit  (publish semantic write-sets)
//   post_commit(release locks)
// Aborts are signalled with TxAbort and retried with bounded, jittered
// backoff.  Accounting flows through otb::metrics: every attempt is flushed
// into the module's `MetricsSink` (domain "otb.tx" by default, injectable
// for tests), with per-reason abort attribution and — when
// `set_collect_timing(true)` — per-phase latency histograms.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>

#include "common/epoch.h"
#include "common/platform.h"
#include "common/spinlock.h"
#include "common/tx_abort.h"
#include "metrics/registry.h"
#include "metrics/sink.h"
#include "otb/otb_ds.h"

namespace otb::tx {

// ---- metrics wiring --------------------------------------------------------

namespace detail {
inline metrics::MetricsSink*& sink_slot() {
  static metrics::MetricsSink* sink = &metrics::Registry::global().sink("otb.tx");
  return sink;
}
inline std::atomic<bool>& timing_flag() {
  static std::atomic<bool> flag{false};
  return flag;
}
}  // namespace detail

/// The sink standalone OTB transactions report through ("otb.tx" in the
/// global registry unless overridden).
inline metrics::MetricsSink& metrics_sink() { return *detail::sink_slot(); }

/// Inject a sink (tests pass an in-memory instance); null restores the
/// registry default.
inline void set_metrics_sink(metrics::MetricsSink* sink) {
  detail::sink_slot() =
      sink != nullptr ? sink : &metrics::Registry::global().sink("otb.tx");
}

/// Snapshot of the standalone runtime's metrics — the redesigned stats
/// accessor (mirrors `stm::Runtime::metrics()`).
inline metrics::SinkSnapshot metrics_snapshot() { return metrics_sink().snapshot(); }

/// Opt into per-phase wall-clock collection (attempt/validation/commit
/// histograms).  Off by default: two clock reads per validation are not
/// free.
inline void set_collect_timing(bool on) {
  detail::timing_flag().store(on, std::memory_order_relaxed);
}
inline bool collect_timing() {
  return detail::timing_flag().load(std::memory_order_relaxed);
}

/// Deprecated commit/abort view kept for transition; reads the metrics
/// sink.  New code should use `metrics_snapshot()`.
struct RuntimeStatsView {
  std::uint64_t commits = 0;
  std::uint64_t aborts = 0;
};

[[deprecated("use otb::tx::metrics_snapshot()")]]
inline RuntimeStatsView runtime_stats() {
  const metrics::MetricsSink& sink = metrics_sink();
  return RuntimeStatsView{sink.counter(metrics::CounterId::kCommits),
                          sink.aborts_total()};
}

// ---- transaction host ------------------------------------------------------

/// One logical transaction over boosted structures only.  The retry loop
/// reuses a single instance across attempts: `abandon()` recycles the
/// descriptors (zero-allocation retries) and `begin_attempt()` re-arms the
/// per-attempt state.
class Transaction final : public TxHost {
 public:
  explicit Transaction(bool timed = collect_timing()) : timed_(timed) {
    bind_op_tally(&tally_);  // structures account hint/traversal stats here
    epoch_guard_.emplace();
  }

  /// Arm the next attempt: fresh per-attempt tally, re-pinned reclamation
  /// epoch (abandon() unpins so other threads can advance during backoff).
  void begin_attempt() {
    tally_ = metrics::TxTally{};
    if (!epoch_guard_.has_value()) epoch_guard_.emplace();
  }

  /// Post-validation after every boosted operation: every attached
  /// structure's semantic read-set must still hold, with lock checks
  /// (nothing is locked by us during execution).  The commit-sequence gate
  /// skips the scan for structures no one published into since our last
  /// full validation.
  void on_operation_validate() override {
    tally_.validations += 1;
    const std::uint64_t t0 = timed_ ? now_ns() : 0;
    const bool ok = validate_attached(/*check_locks=*/true,
                                      &tally_.validations_fast,
                                      &tally_.validations_full);
    if (timed_) tally_.ns_validation += now_ns() - t0;
    if (!ok) throw TxAbort{metrics::AbortReason::kSemanticConflict};
  }

  /// Two-phase commit across all attached structures.
  void commit() {
    const std::uint64_t t0 = timed_ ? now_ns() : 0;
    const bool ok = pre_commit_attached(/*use_locks=*/true);
    if (!ok) {
      if (timed_) tally_.ns_commit += now_ns() - t0;
      throw TxAbort{metrics::AbortReason::kSemanticConflict};
    }
    on_commit_attached();
    // Commit-clock stamp, taken while the semantic locks are still held:
    // a conflicting transaction cannot reach this point until our
    // post_commit released the locks it is waiting on, so two conflicting
    // commits always draw stamps in their serialization order.  Commuting
    // commits may interleave stamps freely — replaying them in stamp order
    // reaches the same state either way.  This is what lets the service
    // WAL merge per-shard logs into one totally ordered redo stream
    // (docs/DURABILITY.md).
    if (commit_clock_ != nullptr) {
      commit_stamp_ =
          commit_clock_->fetch_add(1, std::memory_order_relaxed) + 1;
    }
    // The commit hook also runs while the locks are held: the service WAL
    // appends the commit record here so that by the time a dependent
    // transaction can observe our writes (i.e. after post_commit below),
    // our record is already in the log stream — a group fsync taken before
    // acknowledging the dependent therefore always covers it.
    if (commit_hook_ != nullptr) commit_hook_(commit_hook_arg_, commit_stamp_);
    post_commit_attached();
    if (timed_) tally_.ns_commit += now_ns() - t0;
  }

  /// Failed attempt: every attached structure rolls back whatever it still
  /// holds (semantic locks, the heap PQ's global lock and eager effects);
  /// on_abort is idempotent, so double-notification after a failed
  /// pre_commit is harmless.  Descriptors are reset and parked for the next
  /// attempt instead of destroyed.
  void abandon() {
    on_abort_attached();
    recycle_attached();
    epoch_guard_.reset();
  }

  /// This attempt's accounting (begin_attempt() clears it, so the tally
  /// *is* the attempt delta the retry loop flushes).
  metrics::TxTally& tally() { return tally_; }

  /// Arm commit-stamp drawing from a shared monotone clock (null disables,
  /// the default).  The stamp is drawn inside commit() while semantic locks
  /// are held, so conflicting transactions observe stamps in serialization
  /// order; read it with commit_stamp() after a successful commit().
  void set_commit_clock(std::atomic<std::uint64_t>* clock) {
    commit_clock_ = clock;
  }
  std::uint64_t commit_stamp() const { return commit_stamp_; }

  /// Arm a callback invoked inside commit(), after the stamp is drawn and
  /// before post_commit releases the semantic locks.  Runs exactly once per
  /// successful commit; must not throw.  (Plain function pointer + context
  /// rather than std::function: this sits on the commit fast path.)
  void set_commit_hook(void (*fn)(void*, std::uint64_t), void* arg) {
    commit_hook_ = fn;
    commit_hook_arg_ = arg;
  }

 private:
  metrics::TxTally tally_;
  bool timed_;
  std::atomic<std::uint64_t>* commit_clock_ = nullptr;
  std::uint64_t commit_stamp_ = 0;
  void (*commit_hook_)(void*, std::uint64_t) = nullptr;
  void* commit_hook_arg_ = nullptr;
  // Pin the reclamation epoch for the attempt's lifetime: semantic read-set
  // entries hold raw node pointers that other transactions may retire.
  std::optional<ebr::Guard> epoch_guard_;
};

/// Run `fn(tx)` atomically, retrying on abort with capped, jittered
/// exponential backoff.  Returns the attempt report for this call; lifetime
/// totals (including the attempt count) flow into the metrics sink.
///
/// One Transaction serves every attempt: retries reuse the reset
/// descriptors instead of re-allocating them (the zero-allocation retry
/// path).  Exceptions other than TxAbort still abandon the attempt before
/// propagating — without that, a throwing `fn` (or an exception escaping a
/// structure operation) would leak semantic locks and the heap PQ's eager
/// effects.
template <typename Fn>
metrics::AttemptReport atomically(Fn&& fn) {
  metrics::MetricsSink& sink = metrics_sink();
  const bool timed = collect_timing();
  Backoff backoff(Backoff::kDefaultCap);
  metrics::AttemptReport report;
  Transaction tx(timed);
  for (;;) {
    tx.begin_attempt();
    const std::uint64_t t0 = timed ? now_ns() : 0;
    try {
      fn(tx);
      tx.commit();
      if (timed) tx.tally().ns_total = now_ns() - t0;
      sink.record_attempt(tx.tally(), /*committed=*/true,
                          metrics::AbortReason::kNone);
      report.commits = 1;
      return report;
    } catch (const TxAbort& abort) {
      tx.abandon();
      if (timed) tx.tally().ns_total = now_ns() - t0;
      sink.record_attempt(tx.tally(), /*committed=*/false, abort.reason);
      report.aborts += 1;
      report.last_reason = abort.reason;
      backoff.pause();
    } catch (...) {
      // User exception: roll back held state, account the attempt as an
      // explicit abort, and let the exception escape the atomic block.
      tx.abandon();
      if (timed) tx.tally().ns_total = now_ns() - t0;
      sink.record_attempt(tx.tally(), /*committed=*/false,
                          metrics::AbortReason::kExplicit);
      throw;
    }
  }
}

/// Run `fn(snap)` as an abort-free multi-version snapshot read (ISSUE 8).
///
/// The callback receives a SnapshotTx and must route every read through the
/// structures' `*_at` entry points (`contains_at`, `get_at`, `range_at`,
/// `min_at`).  There is no validation, no commit protocol, and no abort
/// channel: the snapshot is consistent by construction (stamps are drawn
/// only at quiescent clock instants, and version chains resolve each read
/// as of the drawn stamp — DESIGN.md "Multi-version snapshot reads").
///
/// Returns true on success (counted as kMvSnapshotReads, chain-depth
/// samples flushed into the sink's mv_chain_len series, walk hops and hint
/// provenance into its traversal series and hint counters).  Returns false —
/// counted once as kMvVersionMisses — when a needed version has been
/// evicted from a bounded chain (SnapshotMiss, including the
/// OTB_MV_VERSIONS=0 case where nodes carry no chains) or when clock draws
/// kept failing under publication churn (SnapshotRetry, bounded attempts).
/// On false the caller should fall back to the validated path
/// (`atomically`); `fn` must therefore be repeatable and side-effect-free
/// until it returns.
template <typename Fn>
bool snapshot_read(metrics::MetricsSink& sink, Fn&& fn) {
  static constexpr int kAttempts = 8;
  if (mv_versions() != 0) {
    for (int attempt = 0; attempt < kAttempts; ++attempt) {
      try {
        SnapshotTx snap;
        fn(snap);
        sink.record_mv_chain_slice(snap.chain_depth_total(),
                                   snap.chain_depth_buckets());
        sink.record_traversal_slice(snap.tally());
        sink.add(metrics::CounterId::kMvSnapshotReads);
        return true;
      } catch (const SnapshotRetry&) {
        cpu_relax();
        continue;  // clock draw raced a publication window; redraw
      } catch (const SnapshotMiss&) {
        break;  // version evicted: only the validated path can serve this
      }
    }
  }
  sink.add(metrics::CounterId::kMvVersionMisses);
  return false;
}

/// Convenience overload against the runtime's injected sink ("otb.tx").
template <typename Fn>
bool snapshot_read(Fn&& fn) {
  return snapshot_read(metrics_sink(), static_cast<Fn&&>(fn));
}

}  // namespace otb::tx
