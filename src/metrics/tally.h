// Per-transaction-context tally: plain (non-atomic) fields bumped on the
// algorithm hot path, flushed to the shared `MetricsSink` only at attempt
// boundaries.  Field names deliberately match the historical `TxStats`
// struct so algorithm code (`this->stats_.reads += 1`) is unchanged; the
// public `TxStats` is now a compatibility view generated from this tally.
#pragma once

#include <array>
#include <cstdint>

#include "metrics/abort_reason.h"
#include "metrics/histogram.h"

namespace otb::metrics {

struct TxTally {
  std::uint64_t commits = 0;
  std::uint64_t aborts = 0;
  std::uint64_t attempts = 0;

  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t validations = 0;
  // Per-structure outcomes of commit-sequence-gated validation: a
  // `validations` pass fans out into one fast/full tick per attached
  // structure (see OtbDs::validate_gated).
  std::uint64_t validations_fast = 0;
  std::uint64_t validations_full = 0;

  std::uint64_t lock_cas_failures = 0;
  std::uint64_t lock_acquisitions = 0;
  std::uint64_t lock_spins = 0;

  // Traversal-hint outcomes: exactly one tick per boosted operation (or
  // list snapshot walk) that performed a physical traversal while hints are
  // enabled (write-set short-circuits never traverse and tick nothing).
  std::uint64_t hint_hit_local = 0;   // seeded from the descriptor's own positions
  std::uint64_t hint_hit_cached = 0;  // seeded from the per-thread predecessor cache
  std::uint64_t hint_miss = 0;        // no usable hint: traversal started at head
  // Traversal-length samples (node hops per operation, summed across the
  // restarts inside one operation).  `traversals` always equals the bucket
  // sum; both are bumped together on the structure hot path.
  std::uint64_t traversals = 0;
  std::uint64_t traversal_steps = 0;
  std::array<std::uint64_t, Histogram::kBuckets> traversal_log2{};

  // Version-chain ring evictions caused by this context's publications
  // (multi-version layer, src/otb/mv.h) — flushed to kMvVersionsReclaimed.
  std::uint64_t mv_versions_reclaimed = 0;

  // Populated only when Config::collect_timing (or the OTB timing knob) is
  // on; zero deltas are skipped at flush so untimed runs pay nothing.
  std::uint64_t ns_validation = 0;
  std::uint64_t ns_commit = 0;
  std::uint64_t ns_total = 0;

  std::array<std::uint64_t, kAbortReasonCount> aborts_by{};
  AbortReason last_reason = AbortReason::kNone;

  TxTally& operator+=(const TxTally& o) {
    commits += o.commits;
    aborts += o.aborts;
    attempts += o.attempts;
    reads += o.reads;
    writes += o.writes;
    validations += o.validations;
    validations_fast += o.validations_fast;
    validations_full += o.validations_full;
    lock_cas_failures += o.lock_cas_failures;
    lock_acquisitions += o.lock_acquisitions;
    lock_spins += o.lock_spins;
    hint_hit_local += o.hint_hit_local;
    hint_hit_cached += o.hint_hit_cached;
    hint_miss += o.hint_miss;
    traversals += o.traversals;
    traversal_steps += o.traversal_steps;
    for (std::size_t i = 0; i < Histogram::kBuckets; ++i)
      traversal_log2[i] += o.traversal_log2[i];
    mv_versions_reclaimed += o.mv_versions_reclaimed;
    ns_validation += o.ns_validation;
    ns_commit += o.ns_commit;
    ns_total += o.ns_total;
    for (std::size_t i = 0; i < kAbortReasonCount; ++i) aborts_by[i] += o.aborts_by[i];
    if (o.last_reason != AbortReason::kNone) last_reason = o.last_reason;
    return *this;
  }

  /// Field-wise difference against an earlier copy of the same tally (all
  /// fields are monotone, so plain subtraction is exact).
  TxTally delta_since(const TxTally& prev) const {
    TxTally d;
    d.commits = commits - prev.commits;
    d.aborts = aborts - prev.aborts;
    d.attempts = attempts - prev.attempts;
    d.reads = reads - prev.reads;
    d.writes = writes - prev.writes;
    d.validations = validations - prev.validations;
    d.validations_fast = validations_fast - prev.validations_fast;
    d.validations_full = validations_full - prev.validations_full;
    d.lock_cas_failures = lock_cas_failures - prev.lock_cas_failures;
    d.lock_acquisitions = lock_acquisitions - prev.lock_acquisitions;
    d.lock_spins = lock_spins - prev.lock_spins;
    d.hint_hit_local = hint_hit_local - prev.hint_hit_local;
    d.hint_hit_cached = hint_hit_cached - prev.hint_hit_cached;
    d.hint_miss = hint_miss - prev.hint_miss;
    d.traversals = traversals - prev.traversals;
    d.traversal_steps = traversal_steps - prev.traversal_steps;
    for (std::size_t i = 0; i < Histogram::kBuckets; ++i)
      d.traversal_log2[i] = traversal_log2[i] - prev.traversal_log2[i];
    d.mv_versions_reclaimed = mv_versions_reclaimed - prev.mv_versions_reclaimed;
    d.ns_validation = ns_validation - prev.ns_validation;
    d.ns_commit = ns_commit - prev.ns_commit;
    d.ns_total = ns_total - prev.ns_total;
    for (std::size_t i = 0; i < kAbortReasonCount; ++i)
      d.aborts_by[i] = aborts_by[i] - prev.aborts_by[i];
    d.last_reason = last_reason;
    return d;
  }
};

}  // namespace otb::metrics
