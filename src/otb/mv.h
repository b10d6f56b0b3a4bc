// Multi-version read layer for OTB structures (DESIGN.md "Multi-version
// snapshot reads").
//
// Each node of a boosted structure carries a bounded ring (`MvChain`) of the
// successive values its successor link took, each stamped with the commit
// stamp of the publication that stored it (the per-structure `CommitSeq`
// begin count doubles as the version clock — `publish_begin()` returns the
// stamp).  A read-only transaction (`SnapshotTx`) draws a snapshot stamp T
// at a quiescent instant of the clock and then walks the structure entirely
// through `resolve_at(T)` — it touches no semantic read-set, takes no locks,
// and can never validate or abort.  When a chain no longer holds an entry
// <= T (ring overflowed, or the node predates the knob being enabled) the
// walk raises `SnapshotMiss` and the caller falls back to the validated
// optimistic path.
//
// Writer side: chains are only pushed while the pushing transaction holds
// the node's semantic lock (inside do_on_commit), so each chain has one
// writer at a time.  Readers run concurrently, so every ring slot is a tiny
// seqlock: the writer parks the slot's sequence word at `kWriting`, stores
// the payload, then publishes the slot's logical index; a reader re-checks
// the sequence word around its payload loads and treats any movement as the
// entry having been overwritten (=> miss).  All fields are atomics, so the
// race is benign at the machine level and invisible to TSan; the sequence
// check supplies the logical pairing of (ptr, ts).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>

#include "common/commit_seq.h"
#include "common/epoch.h"
#include "common/platform.h"
#include "common/small_vec.h"
#include "metrics/histogram.h"
#include "metrics/tally.h"

namespace otb::tx {

// ---- OTB_MV_VERSIONS knob ---------------------------------------------------

/// Hard cap on the per-node ring size; the knob is clamped here so a typo
/// in the environment cannot make every node carry an unbounded ring.
inline constexpr unsigned kMvMaxVersions = 16;

namespace detail {
inline std::atomic<unsigned>& mv_versions_flag() {
  static std::atomic<unsigned> flag{[] {
    const char* env = std::getenv("OTB_MV_VERSIONS");
    if (env == nullptr) return 4u;  // default: short chains, cheap writers
    const unsigned long v = std::strtoul(env, nullptr, 10);
    return v > kMvMaxVersions ? kMvMaxVersions : static_cast<unsigned>(v);
  }()};
  return flag;
}
}  // namespace detail

/// Versions kept per node (K).  0 disables multi-versioning entirely: nodes
/// allocate no chains, and snapshot reads immediately miss to the validated
/// path — behaviour is bit-for-bit the single-version runtime.
inline unsigned mv_versions() {
  return detail::mv_versions_flag().load(std::memory_order_relaxed);
}

/// Programmatic override (stress drivers toggle it per case).  Applies to
/// nodes created *after* the call; existing nodes keep (or lack) their
/// chains, which is safe — a chainless node simply misses.
inline void set_mv_versions(unsigned k) {
  detail::mv_versions_flag().store(k > kMvMaxVersions ? kMvMaxVersions : k,
                                   std::memory_order_relaxed);
}

// ---- snapshot control-flow signals ------------------------------------------

/// The version chains cannot serve this snapshot (entry <= T evicted, or a
/// reachable node has no chain).  Caller re-runs on the validated path.
struct SnapshotMiss {};

/// The snapshot stamp could not be drawn (clock never quiescent within the
/// spin budget, or a lazily-added structure's clock moved since an earlier
/// draw).  Caller restarts the whole snapshot attempt; bounded retries, then
/// treated like a miss.
struct SnapshotRetry {};

// ---- bounded version chain --------------------------------------------------

/// Fixed-capacity ring of (successor pointer, commit stamp) versions with
/// per-slot seqlock publication.  Single writer (the semantic-lock holder),
/// many lock-free readers.
class MvChain {
 public:
  explicit MvChain(unsigned capacity)
      : cap_(capacity), slots_(new Slot[capacity]) {}

  MvChain(const MvChain&) = delete;
  MvChain& operator=(const MvChain&) = delete;

  struct Resolved {
    const void* ptr = nullptr;
    bool found = false;
    unsigned depth = 0;  // entries inspected (1 == newest matched)
  };

  /// Writer: record that the owning node's successor became `ptr` at commit
  /// stamp `ts`.  Caller holds the node's semantic lock.  Returns true when
  /// the ring evicted a previously published version (reclaim accounting).
  bool push(const void* ptr, std::uint64_t ts) noexcept {
    const std::uint64_t n = count_.load(std::memory_order_relaxed);
    Slot& s = slots_[n % cap_];
    s.seq.store(kWriting, std::memory_order_relaxed);
    // Release fence pairing with the reader's acquire fence in resolve_at:
    // a reader that observes either payload store below must also observe
    // seq == kWriting (or later) at its second seq load, so a lapped slot
    // can never pass the seq check with a mixed (ptr, ts) pair on
    // weakly-ordered machines.
    std::atomic_thread_fence(std::memory_order_release);
    s.ptr.store(ptr, std::memory_order_relaxed);
    s.ts.store(ts, std::memory_order_relaxed);
    s.seq.store(n, std::memory_order_release);
    count_.store(n + 1, std::memory_order_release);
    return n >= cap_;
  }

  /// Reader: newest entry with stamp <= t.  `found == false` means the ring
  /// holds no such entry (overflowed past t, or a concurrent writer lapped
  /// the slot mid-read) — the caller must treat it as a SnapshotMiss.
  Resolved resolve_at(std::uint64_t t) const noexcept {
    Resolved r;
    const std::uint64_t n = count_.load(std::memory_order_acquire);
    const std::uint64_t lo = n > cap_ ? n - cap_ : 0;
    for (std::uint64_t i = n; i-- > lo;) {
      ++r.depth;
      const Slot& s = slots_[i % cap_];
      const std::uint64_t s1 = s.seq.load(std::memory_order_acquire);
      const void* p = s.ptr.load(std::memory_order_relaxed);
      const std::uint64_t ts = s.ts.load(std::memory_order_relaxed);
      std::atomic_thread_fence(std::memory_order_acquire);
      const std::uint64_t s2 = s.seq.load(std::memory_order_relaxed);
      if (s1 != i || s2 != i) return r;  // lapped by newer pushes
      if (ts <= t) {
        r.ptr = p;
        r.found = true;
        return r;
      }
    }
    return r;  // every surviving entry is newer than t
  }

 private:
  static constexpr std::uint64_t kWriting = ~std::uint64_t{0};

  struct Slot {
    std::atomic<std::uint64_t> seq{kWriting};
    std::atomic<const void*> ptr{nullptr};
    std::atomic<std::uint64_t> ts{0};
  };

  const unsigned cap_;
  std::atomic<std::uint64_t> count_{0};  // pushes ever; slot i at i % cap_
  std::unique_ptr<Slot[]> slots_;
};

/// Chain for a freshly constructed node: sized by the knob, absent when
/// multi-versioning is off.
inline MvChain* mv_make_chain() {
  const unsigned k = mv_versions();
  return k == 0 ? nullptr : new MvChain(k);
}

/// Writer-side push helper: tolerates chainless nodes (knob was off at
/// their creation) and accumulates ring evictions into `reclaimed` (flushed
/// to `kMvVersionsReclaimed` by the host).
inline void mv_push(MvChain* chain, const void* ptr, std::uint64_t ts,
                    std::uint64_t& reclaimed) noexcept {
  if (chain != nullptr && chain->push(ptr, ts)) ++reclaimed;
}

// ---- read-only snapshot transaction -----------------------------------------

/// The read-only transaction mode: draws one snapshot stamp per structure
/// (lazily, at a quiescent instant of that structure's CommitSeq) and pins
/// the epoch so retired nodes stay dereferenceable for the whole walk.
/// There is no read-set, no validation, and no commit protocol — a snapshot
/// read can raise SnapshotRetry/SnapshotMiss but can never abort.
///
/// Multi-structure consistency: stamps are drawn lazily, so a script that
/// touches structure A and then structure B draws B's stamp mid-walk.  The
/// combined snapshot is a single instant because every commit opens ALL its
/// publication windows (per-structure publish_begin) before closing ANY of
/// them: when B's stamp is drawn we re-check that every previously drawn
/// clock is still quiescent at its drawn stamp — if so, no multi-structure
/// commit can have published into an earlier structure without us seeing
/// its window still open (=> retry).  See DESIGN.md "Multi-version snapshot
/// reads" for the full argument.
class SnapshotTx {
 public:
  SnapshotTx() = default;
  SnapshotTx(const SnapshotTx&) = delete;
  SnapshotTx& operator=(const SnapshotTx&) = delete;

  /// Snapshot stamp for the structure owning `seq` (drawn on first use).
  std::uint64_t stamp_for(const CommitSeq& seq) {
    for (const ClockRef& c : clocks_) {
      if (c.seq == &seq) return c.stamp;
    }
    for (int spin = 0; spin < kDrawSpins; ++spin) {
      // end_ first: begin == end then proves a quiescent instant existed,
      // so every stamp <= begin is fully published (publish_end release
      // pairs with the end_count acquire).
      const std::uint64_t end = seq.end_count();
      const std::uint64_t begin = seq.begin_count();
      if (begin == end) {
        for (const ClockRef& c : clocks_) {
          if (c.seq->begin_count() != c.stamp ||
              c.seq->end_count() != c.stamp) {
            throw SnapshotRetry{};  // earlier clock moved: not one instant
          }
        }
        clocks_.push_back(ClockRef{&seq, begin});
        return begin;
      }
      cpu_relax();
    }
    throw SnapshotRetry{};  // writers kept the clock busy; restart
  }

  /// Per-resolve chain-depth sample (flushed as the `mv_chain_len` series).
  void sample_chain_depth(unsigned depth) noexcept {
    chain_total_ += depth;
    ++chain_buckets_[metrics::Histogram::bucket_of(depth)];
  }

  std::uint64_t chain_depth_total() const noexcept { return chain_total_; }
  const std::array<std::uint64_t, metrics::Histogram::kBuckets>&
  chain_depth_buckets() const noexcept {
    return chain_buckets_;
  }

  /// Traversal hops and hint provenance of this snapshot's walks (only the
  /// traversal slice is used; flushed by tx::snapshot_read).
  metrics::TxTally& tally() noexcept { return tally_; }

 private:
  // Long enough to outlast one batch's publication window (up to batch_max
  // commits' pushes) at full write rate; 128 gave up under that load and
  // surfaced as version misses that were draw exhaustion, not chain laps.
  static constexpr int kDrawSpins = 1024;

  struct ClockRef {
    const CommitSeq* seq;
    std::uint64_t stamp;
  };

  SmallVec<ClockRef, 4> clocks_;
  std::uint64_t chain_total_ = 0;
  std::array<std::uint64_t, metrics::Histogram::kBuckets> chain_buckets_{};
  metrics::TxTally tally_;
  ebr::Guard guard_;  // pins retired nodes (and their chains) for the walk
};

/// Successor of `n` as of stamp `t` (one snapshot-walk step, bottom level
/// for the skip list); misses when the node carries no chain or the ring
/// overflowed past `t`.
template <typename Node>
const Node* mv_next_at(SnapshotTx& snap, const Node* n, std::uint64_t t) {
  if (n->mv == nullptr) throw SnapshotMiss{};
  const MvChain::Resolved r = n->mv->resolve_at(t);
  snap.sample_chain_depth(r.depth);
  if (!r.found) throw SnapshotMiss{};
  return static_cast<const Node*>(r.ptr);
}

}  // namespace otb::tx
