// Traversal-hint layer: start boosted traversals near the target instead of
// at the head (DESIGN.md, "Traversal hints and opacity").
//
// Two levels, both *advisory* — a hint only chooses the traversal entry
// point; the unchanged unmonitored-traversal + post-validation protocol
// certifies whatever position the walk lands on, so a stale hint costs a
// fallback re-traversal, never a safety violation:
//
//   * Level 1 — transaction-local reuse: each descriptor keeps a key-ordered
//     `SmallVec` of positions its own (post-validated) operations landed on;
//     later operations of the same transaction — including retry attempts
//     inheriting a pooled descriptor — resume from the closest predecessor
//     at or below the target key.
//   * Level 2 — cross-transaction predecessor cache (`PredCache` below): a
//     per-thread, per-structure direct-mapped table of recent (key, pred)
//     pairs seeding the first traversal of a brand-new transaction.
//
// Cached pointers outlive the epoch guard that validated them, so every
// entry carries the storing thread's announced epoch and is age-gated at
// lookup: a node observed unmarked under announce epoch E is retired at
// epoch >= E and freed only once min-active >= E + 2, hence any guard
// announced at <= E + 1 pins reclamation below the free threshold and may
// still dereference it.  Entries older than that are treated as misses
// before any dereference happens.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <utility>

#include "common/epoch.h"
#include "common/hash.h"
#include "metrics/histogram.h"
#include "metrics/tally.h"
#include "otb/mv.h"

namespace otb::tx {

// ---- knob (mirrors OTB_VALIDATION_FAST_PATH) --------------------------------

namespace detail {
inline std::atomic<bool>& traversal_hints_flag() {
  static std::atomic<bool> flag{[] {
    const char* env = std::getenv("OTB_TRAVERSAL_HINTS");
    return !(env != nullptr && (env[0] == '0' || env[0] == 'n' || env[0] == 'N' ||
                                env[0] == 'f' || env[0] == 'F'));
  }()};
  return flag;
}
}  // namespace detail

/// Whether boosted operations may seed traversals from hints.  On by
/// default; `OTB_TRAVERSAL_HINTS=0` disables it for a whole run, which
/// makes every operation walk from the head exactly as before this layer
/// existed (and tick none of the hint counters).
inline bool traversal_hints_enabled() {
  return detail::traversal_hints_flag().load(std::memory_order_relaxed);
}

/// Programmatic override (benches A/B both settings in one process).
inline void set_traversal_hints(bool on) {
  detail::traversal_hints_flag().store(on, std::memory_order_relaxed);
}

/// Where a traversal's entry point came from — maps 1:1 onto the
/// kHintHitLocal / kHintHitCached / kHintMiss counters.
enum class HintSource : std::uint8_t { kNone, kLocal, kCached };

// ---- level 2: cross-transaction predecessor cache ---------------------------

/// Per-thread direct-mapped cache of recent (key, predecessor) positions,
/// keyed by (structure owner id, key cluster).  Lock-free by construction:
/// the table is thread-local, only the node pointers inside entries are
/// shared state, and those are epoch-age-gated before any dereference.
class PredCache {
 public:
  struct Entry {
    std::uint64_t owner = 0;  // OtbDs::hint_owner_id(); 0 marks an empty slot
    std::int64_t key = 0;     // the node's (immutable) key at store time
    void* node = nullptr;
    std::uint64_t stamp = 0;  // storing thread's announced epoch
  };

  static constexpr std::size_t kEntries = 256;  // 8 KiB per thread
  static constexpr unsigned kClusterShift = 6;  // 64-key clusters per slot

  /// Remember that `node` (holding `key`) was a validated predecessor.
  /// Must be called inside an epoch guard — outside one the pointer has no
  /// reclamation protection and the store is dropped.
  static void store(std::uint64_t owner, std::int64_t key, void* node) {
    const std::uint64_t stamp = ebr::announced_epoch();
    if (stamp == 0) return;
    slot(owner, cluster_of(key)) = Entry{owner, key, node, stamp};
  }

  /// Best cached predecessor strictly below `target`, probing the target's
  /// cluster and the one just below it.  Returns nullptr (a miss) unless
  /// the entry belongs to `owner` and is young enough for the caller's
  /// current guard to dereference (see the age-gate rule in the header
  /// comment).  The caller still owes a marked-bit check before use.
  static const Entry* lookup(std::uint64_t owner, std::int64_t target) {
    const std::uint64_t announced = ebr::announced_epoch();
    if (announced == 0) return nullptr;
    const std::int64_t c = cluster_of(target);
    if (const Entry* e = probe(owner, c, target, announced)) return e;
    return probe(owner, c - 1, target, announced);
  }

  /// Empty the calling thread's table (tests make hint provenance
  /// deterministic with this).
  static void clear_this_thread() {
    for (Entry& e : table()) e = Entry{};
  }

 private:
  static std::int64_t cluster_of(std::int64_t key) {
    return key >> kClusterShift;  // arithmetic shift: clusters stay ordered
  }

  static std::array<Entry, kEntries>& table() {
    thread_local std::array<Entry, kEntries> t{};
    return t;
  }

  static Entry& slot(std::uint64_t owner, std::int64_t cluster) {
    const std::uint64_t h =
        mix64(owner ^ (static_cast<std::uint64_t>(cluster) * 0x9e3779b97f4a7c15ULL));
    return table()[h & (kEntries - 1)];
  }

  static const Entry* probe(std::uint64_t owner, std::int64_t cluster,
                            std::int64_t target, std::uint64_t announced) {
    const Entry& e = slot(owner, cluster);
    if (e.owner != owner || e.key >= target) return nullptr;
    if (announced > e.stamp + 1) return nullptr;  // too old to dereference
    return &e;
  }
};

// ---- shared structure-side helpers ------------------------------------------
//
// The three traversal-based structures (list set, list map, skip-list set)
// share the whole hint discipline; only the node type differs.  Each
// descriptor carries `SmallVec<LocalHint<Node>, ...> hints` (key-ordered)
// plus `std::uint64_t hint_epoch` (oldest announce epoch any surviving hint
// was recorded under), and the templates below do the rest.  Node types
// must expose an immutable `key` and an atomic `marked`.

/// One level-1 hint: a position this transaction's own operation validated.
template <typename Node>
struct LocalHint {
  std::int64_t key;
  Node* node;
};

namespace hint {

/// Drop a descriptor's level-1 hints once the current guard can no longer
/// safely dereference them (the age-gate rule in the header comment;
/// inherited hints of a retry attempt were recorded under an older guard).
template <typename Desc>
inline void age_gate(Desc& desc) {
  if (desc.hints.empty()) return;
  const std::uint64_t announced = ebr::announced_epoch();
  if (announced == 0 || announced > desc.hint_epoch + 1) {
    desc.hints.clear();
    desc.hint_epoch = 0;
  }
}

/// Best traversal entry point strictly below `key`: the closer of the
/// transaction's own validated positions (level 1) and the thread's cached
/// predecessor (level 2); `fallback` (the head sentinel) on a miss.  Marked
/// candidates are rejected up front as a cheap pre-filter — the structures'
/// post-traversal marked checks still govern correctness.
///
/// `max_gap` bounds how far below `key` a usable hint may sit.  Linked
/// lists leave it unlimited (any start below the target beats an O(n) head
/// walk); the skip list passes a small bound because its hinted walk is
/// bottom-level-only and loses to the O(log n) multi-level find once the
/// landing point is more than a few hops away.
template <typename Node, typename Desc>
inline Node* pick_start(Desc& desc, std::int64_t key, std::uint64_t owner,
                        Node* fallback, HintSource& src,
                        std::int64_t max_gap = INT64_MAX) {
  age_gate(desc);
  const std::int64_t floor_key = key > max_gap ? key - max_gap : INT64_MIN;
  Node* local = nullptr;
  std::int64_t local_key = 0;
  for (std::size_t i = desc.hints.size(); i-- > 0;) {
    if (desc.hints[i].key < key) {
      Node* n = desc.hints[i].node;
      if (desc.hints[i].key >= floor_key &&
          !n->marked.load(std::memory_order_acquire)) {
        local = n;
        local_key = desc.hints[i].key;
      }
      break;
    }
  }
  Node* cached = nullptr;
  std::int64_t cached_key = 0;
  if (const PredCache::Entry* e = PredCache::lookup(owner, key)) {
    if (e->key >= floor_key) {
      Node* n = static_cast<Node*>(e->node);
      if (!n->marked.load(std::memory_order_acquire)) {
        cached = n;
        cached_key = e->key;
      }
    }
  }
  if (local != nullptr && (cached == nullptr || local_key >= cached_key)) {
    src = HintSource::kLocal;
    return local;
  }
  if (cached != nullptr) {
    src = HintSource::kCached;
    return cached;
  }
  src = HintSource::kNone;
  return fallback;
}

/// Insert (key, node) into the key-ordered hint list, replacing on equal
/// key.  Linear memmove insertion — hint lists hold at most two entries per
/// operation of one transaction.
template <typename Node, typename Desc>
inline void local_insert(Desc& desc, std::int64_t key, Node* node) {
  auto& h = desc.hints;
  std::size_t lo = h.size();
  while (lo > 0 && h[lo - 1].key >= key) --lo;
  if (lo < h.size() && h[lo].key == key) {
    h[lo].node = node;
    return;
  }
  h.insert(h.begin() + lo, {key, node});
}

/// Record a validated (pred, curr) landing position for later operations of
/// this transaction (level 1) and later transactions on this thread
/// (level 2).  Outside an epoch guard nothing is recorded — there would be
/// no reclamation protection to inherit.
template <typename Node, typename Desc>
inline void remember(Desc& desc, std::uint64_t owner, Node* pred, Node* curr,
                     const Node* head, const Node* tail) {
  const std::uint64_t announced = ebr::announced_epoch();
  if (announced == 0) return;
  // The descriptor stamp keeps the OLDEST epoch of any surviving hint;
  // stamping new entries with an older value is only conservative (they age
  // out sooner than strictly necessary).
  if (desc.hints.empty()) desc.hint_epoch = announced;
  if (pred != head) {
    local_insert(desc, pred->key, pred);
    PredCache::store(owner, pred->key, pred);
  }
  if (curr != tail) local_insert(desc, curr->key, curr);
}

/// Tick the counter matching a traversal's entry-point provenance.
inline void count(metrics::TxTally& tally, HintSource src) {
  switch (src) {
    case HintSource::kLocal:
      tally.hint_hit_local += 1;
      break;
    case HintSource::kCached:
      tally.hint_hit_cached += 1;
      break;
    case HintSource::kNone:
      tally.hint_miss += 1;
      break;
  }
}

/// One traversal-length sample (node hops for one operation, summed across
/// its restarts).  Recorded whether or not hints are enabled — this is the
/// instrument the hint A/B benches read.
inline void sample_traversal(metrics::TxTally& tally, std::uint64_t steps) {
  tally.traversals += 1;
  tally.traversal_steps += steps;
  tally.traversal_log2[metrics::Histogram::bucket_of(steps)] += 1;
}

// ---- snapshot walks (DESIGN.md "Multi-version snapshot reads") -------------
//
// A snapshot walk at stamp t resolves every link through the version chains,
// so any node that was live at t and lies below the target is a sound entry
// point: the as-of-t list is sorted and contains it, hence the from-head walk
// at t passes through it and continues exactly as a walk started there.
// The level-2 cache supplies the candidate; the checks below prove it live at
// t.  Snapshot walks have no descriptor, so they never hit a level-1 hint.

/// Entry point for a snapshot walk toward `key` at the already-drawn stamp
/// `t`: the thread's cached predecessor when all of these hold, else `head`
/// (a failed check is a fallback, never a SnapshotMiss):
///   * the cache's epoch age gate passes (under the SnapshotTx guard) and
///     the cached key is below `key`;
///   * the node is unmarked, read after t was drawn: t is drawn only at a
///     quiescent clock instant, so every commit <= t is fully published and
///     its mark would be visible — no commit <= t erased or replaced it;
///   * its chain resolves t: a node's first chain push carries its birth
///     stamp, so an entry <= t means it was born <= t.
template <typename Node>
const Node* snapshot_start(std::uint64_t owner, std::int64_t key,
                           std::uint64_t t, const Node* head, HintSource& src) {
  src = HintSource::kNone;
  const PredCache::Entry* e = PredCache::lookup(owner, key);
  if (e == nullptr) return head;
  const Node* n = static_cast<const Node*>(e->node);
  if (n->marked.load(std::memory_order_acquire)) return head;
  if (n->mv == nullptr || !n->mv->resolve_at(t).found) return head;
  src = HintSource::kCached;
  return n;
}

/// Snapshot walk toward `key` at stamp `t`: the last node below `key` and
/// its successor, both as of `t`.  With hints on it starts at
/// `snapshot_start` and caches its landing predecessor — only if that node
/// is unmarked now, because the age gate's argument ("observed unmarked
/// under epoch E") fails for an already-retired node, and a walk at t can
/// land on one that was live at t.  With hints off it walks from `head` and
/// ticks no hint counter.  Hops and provenance go to the snapshot's tally.
template <typename Node>
std::pair<const Node*, const Node*> snapshot_locate(SnapshotTx& snap,
                                                    std::uint64_t owner,
                                                    const Node* head,
                                                    std::int64_t key,
                                                    std::uint64_t t) {
  const bool hints_on = traversal_hints_enabled();
  HintSource src = HintSource::kNone;
  const Node* pred = hints_on ? snapshot_start(owner, key, t, head, src) : head;
  const Node* curr = mv_next_at(snap, pred, t);
  std::uint64_t steps = 0;
  while (curr->key < key) {
    pred = curr;
    curr = mv_next_at(snap, pred, t);
    ++steps;
  }
  if (hints_on) {
    count(snap.tally(), src);
    if (pred != head && !pred->marked.load(std::memory_order_acquire)) {
      PredCache::store(owner, pred->key, const_cast<Node*>(pred));
    }
  }
  sample_traversal(snap.tally(), steps);
  return {pred, curr};
}

}  // namespace hint

}  // namespace otb::tx
