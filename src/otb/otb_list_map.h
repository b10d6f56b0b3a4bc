// OTB-Map — one of the paper's proposed post-prelim extensions ("More OTB
// Data Structures", §7.1.2), built with the same three-step OTB protocol as
// the linked-list set.
//
// Nodes are immutable (key, value) pairs, so a `put` over an existing key
// is a *node replacement* at commit (unlink the old node, insert a fresh
// one).  That choice keeps the set's validation rules sound unchanged: a
// `get` pins only "this node is still unmarked", and any concurrent value
// change marks the node, invalidating the reader — no per-node version
// counters are needed.
//
// Local write-set state machine per key (at most one entry):
//     put  on Insert  -> Insert (new value)        returns false
//     put  on Replace -> Replace (new value)       returns false
//     put  on Erase   -> Replace                   returns true
//     erase on Insert -> entry eliminated          returns true
//     erase on Replace-> Erase                     returns true
//     erase on Erase  -> no-op                     returns false
// (`put` returns true iff the key was absent, insert-or-assign style.)
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/epoch.h"
#include "common/small_vec.h"
#include "common/spinlock.h"
#include "otb/mv.h"
#include "otb/otb_ds.h"
#include "otb/traversal_hints.h"

namespace otb::tx {

class OtbListMap final : public OtbDs {
 public:
  using Key = std::int64_t;
  using Value = std::int64_t;

  OtbListMap() {
    head_ = new Node(std::numeric_limits<Key>::min(), 0);
    tail_ = new Node(std::numeric_limits<Key>::max(), 0);
    head_->next.store(tail_, std::memory_order_release);
    // Stamp-0 version so snapshot walks see the empty map from the start.
    std::uint64_t unused = 0;
    mv_push(head_->mv, tail_, 0, unused);
  }

  ~OtbListMap() override {
    Node* n = head_;
    while (n != nullptr) {
      Node* next = n->next.load(std::memory_order_relaxed);
      delete n;
      n = next;
    }
  }

  OtbListMap(const OtbListMap&) = delete;
  OtbListMap& operator=(const OtbListMap&) = delete;

  // ---- transactional operations -----------------------------------------

  /// Insert-or-assign; true iff the key was newly inserted.
  bool put(TxHost& tx, Key key, Value value) {
    Desc& desc = this->desc(tx);
    if (WriteEntry* w = find_local(desc, key)) {
      switch (w->op) {
        case Op::kInsert:
        case Op::kReplace:
          w->value = value;
          return false;
        case Op::kErase:
          w->op = Op::kReplace;
          w->value = value;
          return true;
      }
    }
    auto [pred, curr, found] = traverse(tx, desc, key);
    // Both outcomes modify links at commit, so both need the full
    // structural rule (pred -> curr intact), never the relaxed one.
    desc.reads.push_back({pred, curr, ReadKind::kStructural});
    desc.writes.push_back(
        {pred, curr, found ? Op::kReplace : Op::kInsert, key, value});
    tx.on_operation_validate();
    return !found;
  }

  /// Remove; false when absent.
  bool erase(TxHost& tx, Key key) {
    Desc& desc = this->desc(tx);
    if (WriteEntry* w = find_local(desc, key)) {
      switch (w->op) {
        case Op::kInsert:
          erase_local(desc, key);  // elimination; read entries stay
          return true;
        case Op::kReplace:
          w->op = Op::kErase;
          return true;
        case Op::kErase:
          return false;
      }
    }
    auto [pred, curr, found] = traverse(tx, desc, key);
    if (!found) {
      desc.reads.push_back({pred, curr, ReadKind::kStructural});
      tx.on_operation_validate();
      return false;
    }
    desc.reads.push_back({pred, curr, ReadKind::kStructural});
    desc.writes.push_back({pred, curr, Op::kErase, key, 0});
    tx.on_operation_validate();
    return true;
  }

  /// Lookup; false when absent.  Never acquires locks.
  bool get(TxHost& tx, Key key, Value* out) {
    Desc& desc = this->desc(tx);
    if (const WriteEntry* w = find_local(desc, key)) {
      if (w->op == Op::kErase) return false;
      *out = w->value;
      return true;
    }
    auto [pred, curr, found] = traverse(tx, desc, key);
    if (found) {
      desc.reads.push_back({pred, curr, ReadKind::kPresent});
      *out = curr->value;
    } else {
      desc.reads.push_back({pred, curr, ReadKind::kStructural});
    }
    tx.on_operation_validate();
    return found;
  }

  bool contains(TxHost& tx, Key key) {
    Value ignored;
    return get(tx, key, &ignored);
  }

  /// Collect every live (key, value) with lo <= key <= hi, in key order,
  /// merged with this transaction's pending writes (read-own-writes).
  /// Returns the number of pairs appended to `out`.
  ///
  /// On THIS validated path the whole segment is pinned structurally: one
  /// read entry per link from the predecessor of lo up to the first node
  /// beyond hi, so any concurrent insert/erase inside the range invalidates
  /// the reader — the same rule a single structural read uses, applied
  /// link-by-link.  That wording is the whole story only when
  /// `OTB_MV_VERSIONS=0`: with multi-versioning on, read-only range scans
  /// run through `range_at()` instead, which reads the segment as of a
  /// snapshot stamp via the version chains — concurrent inserts/erases
  /// publish *new* versions and no longer invalidate the reader (DESIGN.md
  /// "Multi-version snapshot reads").  The service plane's range requests
  /// are the consumer (DESIGN.md "Transactional service plane").
  std::size_t range(TxHost& tx, Key lo, Key hi,
                    std::vector<std::pair<Key, Value>>* out) {
    Desc& desc = this->desc(tx);
    const std::size_t before = out->size();
    if (lo > hi) {
      tx.on_operation_validate();
      return 0;
    }
    auto [pred, curr, found] = traverse(tx, desc, lo);
    (void)found;
    desc.reads.push_back({pred, curr, ReadKind::kStructural});
    Node* c = curr;
    while (c != tail_ && c->key <= hi) {
      out->emplace_back(c->key, c->value);
      Node* next = c->next.load(std::memory_order_acquire);
      desc.reads.push_back({c, next, ReadKind::kStructural});
      c = next;
    }
    tx.on_operation_validate();
    // Overlay the local write-set: pending inserts/replaces upsert, pending
    // erases drop.  The shared walk above saw none of them.
    for (const WriteEntry& w : desc.writes) {
      if (w.key < lo || w.key > hi) continue;
      auto it = out->begin() + static_cast<std::ptrdiff_t>(before);
      for (; it != out->end() && it->first < w.key; ++it) {
      }
      const bool present = it != out->end() && it->first == w.key;
      switch (w.op) {
        case Op::kInsert:
        case Op::kReplace:
          if (present) {
            it->second = w.value;
          } else {
            out->insert(it, {w.key, w.value});
          }
          break;
        case Op::kErase:
          if (present) out->erase(it);
          break;
      }
    }
    return out->size() - before;
  }

  // ---- snapshot (multi-version) reads ------------------------------------

  /// Lookup as of the snapshot's stamp for this structure — chain walk
  /// only, no read-set, no locks, no validation.  The walk may start at a
  /// cached predecessor proven live at the stamp (hint::snapshot_locate).
  /// Throws SnapshotMiss when a chain can no longer serve the stamp.
  bool get_at(SnapshotTx& snap, Key key, Value* out) const {
    const Node* c = locate_at(snap, key);
    if (c->key != key) return false;
    *out = c->value;  // immutable once constructed: safe to read
    return true;
  }

  bool contains_at(SnapshotTx& snap, Key key) const {
    Value ignored;
    return get_at(snap, key, &ignored);
  }

  /// Range scan as of the snapshot's stamp: every (key, value) with
  /// lo <= key <= hi that was live at the stamp, in key order.  Concurrent
  /// inserts/erases publish new versions; they cannot invalidate this walk.
  std::size_t range_at(SnapshotTx& snap, Key lo, Key hi,
                       std::vector<std::pair<Key, Value>>* out) const {
    if (lo > hi) return 0;
    const std::uint64_t t = snap.stamp_for(commit_seq());
    const std::size_t before = out->size();
    // Emit from the first node with key >= lo as of t until > hi.
    const Node* c = locate_at(snap, lo);
    while (c != tail_ && c->key <= hi) {
      out->emplace_back(c->key, c->value);
      c = mv_next_at(snap, c, t);
    }
    return out->size() - before;
  }

  bool supports_snapshot_reads() const override { return true; }

  // ---- non-transactional helpers -----------------------------------------

  bool put_seq(Key key, Value value) {
    auto [pred, curr] = locate(key);
    const std::uint64_t ts = commit_seq().begin_count();
    std::uint64_t unused = 0;
    if (curr->key == key) {
      Node* node = new Node(key, value);
      node->next.store(curr->next.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
      curr->marked.store(true, std::memory_order_relaxed);
      pred->next.store(node, std::memory_order_release);
      mv_push(node->mv, node->next.load(std::memory_order_relaxed), ts, unused);
      mv_push(pred->mv, node, ts, unused);
      // Retire (not delete): the traversal-hint cache may still hold this
      // node from an earlier transactional phase on some thread, and the
      // epoch age-gate only protects EBR-reclaimed memory.
      ebr::retire(curr);
      return false;
    }
    Node* node = new Node(key, value);
    node->next.store(curr, std::memory_order_relaxed);
    pred->next.store(node, std::memory_order_release);
    mv_push(node->mv, curr, ts, unused);
    mv_push(pred->mv, node, ts, unused);
    return true;
  }

  std::size_t size_unsafe() const {
    std::size_t n = 0;
    for (const Node* c = head_->next.load(std::memory_order_acquire); c != tail_;
         c = c->next.load(std::memory_order_acquire)) {
      if (!c->marked.load(std::memory_order_acquire)) ++n;
    }
    return n;
  }

  std::vector<std::pair<Key, Value>> snapshot_unsafe() const {
    std::vector<std::pair<Key, Value>> out;
    for (const Node* c = head_->next.load(std::memory_order_acquire); c != tail_;
         c = c->next.load(std::memory_order_acquire)) {
      if (!c->marked.load(std::memory_order_acquire)) {
        out.emplace_back(c->key, c->value);
      }
    }
    return out;
  }

  // ---- OTB-DS protocol ----------------------------------------------------

  std::unique_ptr<OtbDsDesc> make_desc() const override {
    return std::make_unique<Desc>();
  }

  bool validate(const OtbDsDesc& base, bool check_locks) const override {
    const Desc& desc = static_cast<const Desc&>(base);
    auto& snaps = desc.snaps;  // descriptor-resident scratch, reused per call
    snaps.clear();
    if (check_locks) {
      snaps.reserve(desc.reads.size() * 2);
      for (const ReadEntry& e : desc.reads) {
        const std::uint64_t p = e.pred->lock.load();
        const std::uint64_t c = e.curr->lock.load();
        if (VersionedLock::is_locked(p) || VersionedLock::is_locked(c)) return false;
        snaps.push_back(p);
        snaps.push_back(c);
      }
    }
    for (const ReadEntry& e : desc.reads) {
      if (!validate_entry(e)) return false;
    }
    if (check_locks) {
      std::size_t i = 0;
      for (const ReadEntry& e : desc.reads) {
        if (e.pred->lock.load() != snaps[i++]) return false;
        if (e.curr->lock.load() != snaps[i++]) return false;
      }
    }
    return true;
  }

  bool pre_commit(OtbDsDesc& base, bool use_locks) override {
    Desc& desc = static_cast<Desc&>(base);
    if (desc.writes.empty()) return true;
    std::sort(desc.writes.begin(), desc.writes.end(),
              [](const WriteEntry& a, const WriteEntry& b) { return a.key > b.key; });
    if (use_locks) {
      auto lock_one = [&](Node* n) -> bool {
        for (Node* held : desc.locked) {
          if (held == n) return true;
        }
        if (!n->lock.try_lock()) return false;
        desc.locked.push_back(n);
        return true;
      };
      for (const WriteEntry& e : desc.writes) {
        if (!lock_one(e.pred)) return false;
        if (e.op != Op::kInsert && !lock_one(e.curr)) return false;
      }
    }
    return validate(desc, /*check_locks=*/false);
  }

  void do_on_commit(OtbDsDesc& base) override {
    Desc& desc = static_cast<Desc&>(base);
    ebr::Guard guard;
    for (const WriteEntry& e : desc.writes) {
      Node* pred = e.pred;
      Node* curr = pred->next.load(std::memory_order_acquire);
      while (curr->key < e.key) {
        pred = curr;
        curr = pred->next.load(std::memory_order_acquire);
      }
      switch (e.op) {
        case Op::kInsert: {
          Node* node = new Node(e.key, e.value);
          node->lock.try_lock();
          desc.locked.push_back(node);
          node->next.store(curr, std::memory_order_relaxed);
          pred->next.store(node, std::memory_order_release);
          mv_push(node->mv, curr, desc.mv_stamp, desc.mv_reclaimed);
          mv_push(pred->mv, node, desc.mv_stamp, desc.mv_reclaimed);
          break;
        }
        case Op::kReplace: {
          Node* node = new Node(e.key, e.value);
          node->lock.try_lock();
          desc.locked.push_back(node);
          curr->marked.store(true, std::memory_order_release);
          Node* after = curr->next.load(std::memory_order_relaxed);
          node->next.store(after, std::memory_order_relaxed);
          pred->next.store(node, std::memory_order_release);
          // Snapshots at stamps >= this one route pred -> node -> after;
          // older stamps keep resolving to the retired curr (whose chain
          // and value stay readable under the epoch guard).
          mv_push(node->mv, after, desc.mv_stamp, desc.mv_reclaimed);
          mv_push(pred->mv, node, desc.mv_stamp, desc.mv_reclaimed);
          ebr::retire(curr);
          break;
        }
        case Op::kErase: {
          curr->marked.store(true, std::memory_order_release);
          Node* after = curr->next.load(std::memory_order_relaxed);
          pred->next.store(after, std::memory_order_release);
          mv_push(pred->mv, after, desc.mv_stamp, desc.mv_reclaimed);
          ebr::retire(curr);
          break;
        }
      }
    }
  }

  void do_post_commit(OtbDsDesc& base) override {
    Desc& desc = static_cast<Desc&>(base);
    for (Node* n : desc.locked) n->lock.unlock_new_version();
    desc.locked.clear();
  }

  void do_on_abort(OtbDsDesc& base) override {
    Desc& desc = static_cast<Desc&>(base);
    for (Node* n : desc.locked) n->lock.unlock_same_version();
    desc.locked.clear();
  }

  bool has_writes(const OtbDsDesc& base) const override {
    return !static_cast<const Desc&>(base).writes.empty();
  }

  std::size_t write_count(const OtbDsDesc& base) const override {
    return static_cast<const Desc&>(base).writes.size();
  }

 private:
  enum class Op : std::uint8_t { kInsert, kReplace, kErase };

  /// kPresent: the found node must merely stay unmarked (optimised rule).
  /// kStructural: the (pred -> curr) link must be intact and both unmarked.
  enum class ReadKind : std::uint8_t { kPresent, kStructural };

  struct Node {
    Node(Key k, Value v) : key(k), value(v) {}
    ~Node() { delete mv; }
    const Key key;
    const Value value;
    std::atomic<Node*> next{nullptr};
    std::atomic<bool> marked{false};
    VersionedLock lock;
    /// Bounded version chain of this node's successive `next` values
    /// (nullptr when OTB_MV_VERSIONS was 0 at construction).
    MvChain* const mv = mv_make_chain();
  };

  struct ReadEntry {
    Node* pred;
    Node* curr;
    ReadKind kind;
  };

  struct WriteEntry {
    Node* pred;
    Node* curr;  // victim for kReplace / kErase
    Op op;
    Key key;
    Value value;
  };

  struct Desc final : OtbDsDesc {
    static constexpr std::size_t kInline = 8;
    SmallVec<ReadEntry, kInline> reads;
    SmallVec<WriteEntry, kInline> writes;
    SmallVec<Node*, 2 * kInline> locked;
    mutable SmallVec<std::uint64_t, 2 * kInline> snaps;
    /// Level-1 traversal hints; survive reset() on purpose (retry attempts
    /// inherit them, epoch-gated at consult time — see traversal_hints.h).
    SmallVec<LocalHint<Node>, 2 * kInline> hints;
    std::uint64_t hint_epoch = 0;

    void reset() override {
      reads.clear();
      writes.clear();
      locked.clear();
      snaps.clear();
      OtbDsDesc::reset();
    }
  };

  Desc& desc(TxHost& tx) { return static_cast<Desc&>(tx.descriptor(*this)); }

  bool validate_entry(const ReadEntry& e) const {
    const bool curr_live = !e.curr->marked.load(std::memory_order_acquire);
    if (e.kind == ReadKind::kPresent) return curr_live;
    return curr_live && !e.pred->marked.load(std::memory_order_acquire) &&
           e.pred->next.load(std::memory_order_acquire) == e.curr;
  }

  /// Unmonitored traversal with mid-removal re-runs (as in the set), seeded
  /// by the hint layer when enabled: the entry point is advisory only, so a
  /// stale hint falls back to a full from-head walk — never a conflict.
  std::tuple<Node*, Node*, bool> traverse(TxHost& tx, Desc& desc, Key key) {
    metrics::TxTally& tally = tx.op_tally();
    const bool hints_on = traversal_hints_enabled();
    HintSource src = HintSource::kNone;
    Node* start =
        hints_on ? hint::pick_start(desc, key, hint_owner_id(), head_, src)
                 : head_;
    std::uint64_t steps = 0;
    for (;;) {
      auto [pred, curr] = locate_from(start, key, steps);
      if (!pred->marked.load(std::memory_order_acquire) &&
          !curr->marked.load(std::memory_order_acquire)) {
        if (hints_on) {
          hint::count(tally, src);
          hint::remember(desc, hint_owner_id(), pred, curr, head_, tail_);
        }
        hint::sample_traversal(tally, steps);
        return {pred, curr, curr->key == key};
      }
      if (start != head_) {
        start = head_;
        src = HintSource::kNone;
        continue;
      }
      tx.on_operation_validate();
    }
  }

  WriteEntry* find_local(Desc& desc, Key key) {
    for (WriteEntry& w : desc.writes) {
      if (w.key == key) return &w;
    }
    return nullptr;
  }
  const WriteEntry* find_local(const Desc& desc, Key key) const {
    for (const WriteEntry& w : desc.writes) {
      if (w.key == key) return &w;
    }
    return nullptr;
  }

  void erase_local(Desc& desc, Key key) {
    for (auto it = desc.writes.begin(); it != desc.writes.end(); ++it) {
      if (it->key == key) {
        desc.writes.erase(it);
        return;
      }
    }
  }

  /// First node with key >= `key` as of the snapshot's stamp.
  const Node* locate_at(SnapshotTx& snap, Key key) const {
    const std::uint64_t t = snap.stamp_for(commit_seq());
    return hint::snapshot_locate(snap, hint_owner_id(), head_, key, t).second;
  }

  std::pair<Node*, Node*> locate(Key key) const {
    std::uint64_t steps = 0;
    return locate_from(head_, key, steps);
  }

  std::pair<Node*, Node*> locate_from(Node* start, Key key,
                                      std::uint64_t& steps) const {
    Node* pred = start;
    Node* curr = pred->next.load(std::memory_order_acquire);
    while (curr->key < key) {
      pred = curr;
      curr = pred->next.load(std::memory_order_acquire);
      ++steps;
    }
    return {pred, curr};
  }

  Node* head_;
  Node* tail_;
};

}  // namespace otb::tx
