// OTB-Set over a lazy skip list (§3.2.1 "Skip List Implementation").
//
// Same three-step OTB protocol as the linked-list set, with the paper's
// skip-list-specific rules:
//   * read/write-set entries carry the whole pred/succ arrays, and commit
//     locks and validates pred (and victim) nodes at every relevant level;
//   * successful contains / unsuccessful add validate only that the bottom-
//     level curr is still unmarked; unsuccessful remove/contains validate
//     only the bottom-level (pred, curr) pair — every key appears at level 0;
//   * operations that meet a node whose `fully_linked` flag is still clear
//     wait for the concurrent committer to finish linking;
//   * at commit, per-level traversal resumes from the saved pred of each
//     level independently (the levels may diverge within one transaction).
//
// The class also exposes the raw bottom-level chain (head / next-pointer
// walking) consumed by the OTB skip-list priority queue (§3.2.2,
// Algorithm 6), and `*_op` entry points that operate on an externally held
// descriptor so the priority queue can nest a set descriptor inside its own.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/epoch.h"
#include "common/rng.h"
#include "common/small_vec.h"
#include "common/spinlock.h"
#include "otb/mv.h"
#include "otb/otb_ds.h"
#include "otb/traversal_hints.h"

namespace otb::tx {

class OtbSkipListSet final : public OtbDs {
 public:
  using Key = std::int64_t;
  static constexpr unsigned kMaxLevel = 20;

  OtbSkipListSet() {
    head_ = new Node(std::numeric_limits<Key>::min(), kMaxLevel - 1);
    tail_ = new Node(std::numeric_limits<Key>::max(), kMaxLevel - 1);
    for (unsigned l = 0; l < kMaxLevel; ++l) {
      head_->next[l].store(tail_, std::memory_order_release);
    }
    head_->fully_linked.store(true, std::memory_order_release);
    tail_->fully_linked.store(true, std::memory_order_release);
    // Stamp-0 bottom-level version so snapshots see the empty set.
    std::uint64_t unused = 0;
    mv_push(head_->mv, tail_, 0, unused);
  }

  ~OtbSkipListSet() override {
    Node* n = head_;
    while (n != nullptr) {
      Node* next = n->next[0].load(std::memory_order_relaxed);
      delete n;
      n = next;
    }
  }

  OtbSkipListSet(const OtbSkipListSet&) = delete;
  OtbSkipListSet& operator=(const OtbSkipListSet&) = delete;

  struct Desc;  // defined below; public so the priority queue can nest it

  // ---- transactional operations -----------------------------------------

  bool add(TxHost& tx, Key key) {
    return add_op(tx, static_cast<Desc&>(tx.descriptor(*this)), key);
  }
  bool remove(TxHost& tx, Key key) {
    return remove_op(tx, static_cast<Desc&>(tx.descriptor(*this)), key);
  }
  bool contains(TxHost& tx, Key key) {
    return contains_op(tx, static_cast<Desc&>(tx.descriptor(*this)), key);
  }

  // ---- snapshot (multi-version) reads ------------------------------------

  /// Membership as of the snapshot's stamp.  The multilevel descent over
  /// current links is only an accelerator hint; the answer comes from an
  /// as-of-stamp chain walk along the bottom level, starting at the landing
  /// predecessor when it was alive at the stamp (else at head).  Throws
  /// SnapshotMiss when a chain can no longer serve the stamp.
  bool contains_at(SnapshotTx& snap, Key key) const {
    const std::uint64_t t = snap.stamp_for(commit_seq());
    const Node* c = descend_hint_at(key, t);
    for (;;) {
      const Node* nx = mv_next_at(snap, c, t);
      if (nx->key >= key) return nx->key == key;
      c = nx;
    }
  }

  /// Smallest key live at stamp `t` (the nested PQ's `min_at`, which draws
  /// `t` from the PQ's own clock).  False when empty at the stamp.
  bool first_at(SnapshotTx& snap, std::uint64_t t, Key* out) const {
    const Node* first = mv_next_at(snap, head_, t);
    if (first == tail_) return false;
    *out = first->key;
    return true;
  }

  bool supports_snapshot_reads() const override { return true; }

  // Descriptor-explicit entry points (used by OtbSkipListPQ).
  bool add_op(TxHost& tx, Desc& desc, Key key) {
    return operation(tx, desc, Op::kAdd, key);
  }
  bool remove_op(TxHost& tx, Desc& desc, Key key) {
    return operation(tx, desc, Op::kRemove, key);
  }
  bool contains_op(TxHost& tx, Desc& desc, Key key) {
    return operation(tx, desc, Op::kContains, key);
  }

  // ---- raw bottom-level access for the priority queue --------------------

  struct NodeRef {
    const void* ptr = nullptr;
    bool operator==(const NodeRef&) const = default;
  };

  NodeRef head_ref() const { return {head_}; }

  /// Bottom-level successor of `ref` (marked nodes included — the PQ's
  /// inline pointer checks detect movement, §3.2.2).
  NodeRef next_ref(NodeRef ref) const {
    const Node* n = static_cast<const Node*>(ref.ptr);
    return {n->next[0].load(std::memory_order_acquire)};
  }

  Key key_of(NodeRef ref) const { return static_cast<const Node*>(ref.ptr)->key; }
  bool is_tail(NodeRef ref) const { return ref.ptr == tail_; }
  bool is_marked(NodeRef ref) const {
    return static_cast<const Node*>(ref.ptr)->marked.load(std::memory_order_acquire);
  }

  // ---- non-transactional helpers -----------------------------------------

  bool add_seq(Key key) {
    std::array<Node*, kMaxLevel> preds, succs;
    if (find(key, preds, succs) != -1) return false;
    const unsigned top = random_level();
    Node* node = new Node(key, top);
    for (unsigned l = 0; l <= top; ++l) {
      node->next[l].store(succs[l], std::memory_order_relaxed);
    }
    for (unsigned l = 0; l <= top; ++l) {
      preds[l]->next[l].store(node, std::memory_order_release);
    }
    node->fully_linked.store(true, std::memory_order_release);
    // Seed bottom-level versions at the current (quiescent) begin count.
    const std::uint64_t ts = commit_seq().begin_count();
    std::uint64_t unused = 0;
    mv_push(node->mv, succs[0], ts, unused);
    mv_push(preds[0]->mv, node, ts, unused);
    return true;
  }

  std::size_t size_unsafe() const {
    std::size_t n = 0;
    for (const Node* c = head_->next[0].load(std::memory_order_acquire); c != tail_;
         c = c->next[0].load(std::memory_order_acquire)) {
      if (!c->marked.load(std::memory_order_acquire)) ++n;
    }
    return n;
  }

  std::vector<Key> snapshot_unsafe() const {
    std::vector<Key> out;
    for (const Node* c = head_->next[0].load(std::memory_order_acquire); c != tail_;
         c = c->next[0].load(std::memory_order_acquire)) {
      if (!c->marked.load(std::memory_order_acquire)) out.push_back(c->key);
    }
    return out;
  }

  // ---- OTB-DS protocol ----------------------------------------------------

  std::unique_ptr<OtbDsDesc> make_desc() const override {
    return std::make_unique<Desc>();
  }

  bool validate(const OtbDsDesc& base, bool check_locks) const override {
    return validate_desc(static_cast<const Desc&>(base), check_locks);
  }

  bool pre_commit(OtbDsDesc& base, bool use_locks) override {
    return pre_commit_desc(static_cast<Desc&>(base), use_locks);
  }

  void do_on_commit(OtbDsDesc& base) override {
    on_commit_desc(static_cast<Desc&>(base));
  }

  void do_post_commit(OtbDsDesc& base) override {
    post_commit_desc(static_cast<Desc&>(base));
  }

  void do_on_abort(OtbDsDesc& base) override {
    on_abort_desc(static_cast<Desc&>(base));
  }

  bool has_writes(const OtbDsDesc& base) const override {
    return !static_cast<const Desc&>(base).writes.empty();
  }

  std::size_t write_count(const OtbDsDesc& base) const override {
    return static_cast<const Desc&>(base).writes.size();
  }

  // Descriptor-explicit protocol (for the nesting priority queue — the
  // PQ's own commit sequence brackets these, so they bypass the wrappers).
  bool validate_desc(const Desc& desc, bool check_locks) const;
  bool pre_commit_desc(Desc& desc, bool use_locks);
  void on_commit_desc(Desc& desc);
  void post_commit_desc(Desc& desc) {
    for (Node* n : desc.locked) n->lock.unlock_new_version();
    desc.locked.clear();
  }
  void on_abort_desc(Desc& desc) {
    for (Node* n : desc.locked) n->lock.unlock_same_version();
    desc.locked.clear();
  }

 private:
  enum class Op : std::uint8_t { kAdd, kRemove, kContains };

  struct Node {
    Node(Key k, unsigned top) : key(k), top_level(top) {}
    ~Node() { delete mv; }
    const Key key;
    const unsigned top_level;
    std::array<std::atomic<Node*>, kMaxLevel> next{};
    std::atomic<bool> marked{false};
    std::atomic<bool> fully_linked{false};
    VersionedLock lock;
    /// Bounded version chain of this node's bottom-level `next` values
    /// (nullptr when OTB_MV_VERSIONS was 0 at construction).  Upper levels
    /// are unversioned: snapshot walks use them only as descent hints.
    MvChain* const mv = mv_make_chain();
    /// Lifetime stamps gating the descent hint's "alive at t" test.  0 =
    /// alive since before any snapshot (head/tail/seq-seeded); dead_ts max
    /// = still alive.
    std::atomic<std::uint64_t> born_ts{0};
    std::atomic<std::uint64_t> dead_ts{~std::uint64_t{0}};
  };

  struct ReadEntry {
    std::array<Node*, kMaxLevel> preds;
    std::array<Node*, kMaxLevel> succs;
    unsigned top;  // highest level the entry's rule must check
    Op op;
    bool success = false;
  };

  struct WriteEntry {
    std::array<Node*, kMaxLevel> preds;
    Node* victim;  // kRemove only
    unsigned top;  // node top level (victim's, or the new node's)
    Op op;
    Key key;
  };

 public:
  struct Desc final : OtbDsDesc {
    /// Entries are big (whole pred/succ arrays), but descriptors are
    /// heap-allocated and pooled, so inline storage is still the right
    /// trade: 8 covers every typical transaction.
    static constexpr std::size_t kInline = 8;
    SmallVec<ReadEntry, kInline> reads;
    SmallVec<WriteEntry, kInline> writes;
    SmallVec<Node*, 2 * kInline> locked;
    /// Scratch for validate_desc's lock snapshots (up to 2*(top+1) words
    /// per entry; levels are geometric, so 64 rarely spills).
    mutable SmallVec<std::uint64_t, 64> snaps;
    /// Level-1 traversal hints (bottom-level positions); survive reset() on
    /// purpose — retry attempts inherit them, epoch-gated at consult time
    /// (see traversal_hints.h).
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

 private:
  bool operation(TxHost& tx, Desc& desc, Op op, Key key) {
    // Step 1: local write-set lookup (same rules as the linked list).
    if (const WriteEntry* w = find_local(desc, key)) {
      if (w->op == Op::kAdd) {
        switch (op) {
          case Op::kAdd:
            return false;
          case Op::kContains:
            return true;
          case Op::kRemove:
            erase_local(desc, key);
            return true;
        }
      } else {
        switch (op) {
          case Op::kRemove:
          case Op::kContains:
            return false;
          case Op::kAdd:
            erase_local(desc, key);
            return true;
        }
      }
    }

    // Step 2: unmonitored traversal; wait out half-linked nodes, re-run when
    // the landing pair is mid-removal.  With hints on, the walk may start as
    // a bottom-level-only scan from a validated predecessor near the key
    // (DESIGN.md, "Traversal hints and opacity"); that serves every outcome
    // whose validation rule reads only level 0 — contains (either result),
    // unsuccessful add, unsuccessful remove, and removal of a height-0 node.
    // Outcomes that link or unlink upper levels need the full pred/succ
    // arrays, so they fall back to a full find() and count as a hint miss.
    // A hinted walk is bottom-level-only, so it only beats the multi-level
    // find() when the hint lands within a few hops of the key; farther
    // hints are rejected up front (pick_start's max_gap) and the operation
    // takes the O(log n) path instead.
    static constexpr std::int64_t kMaxHintGap = 16;
    metrics::TxTally& tally = tx.op_tally();
    const bool hints_on = traversal_hints_enabled();
    HintSource src = HintSource::kNone;
    Node* start = hints_on ? hint::pick_start(desc, key, hint_owner_id(), head_,
                                              src, kMaxHintGap)
                           : head_;
    std::uint64_t steps = 0;
    std::array<Node*, kMaxLevel> preds{}, succs{};
    int found_level;
    for (;;) {
      if (start != head_) {
        Node* pred = start;
        Node* curr = pred->next[0].load(std::memory_order_acquire);
        while (curr->key < key) {
          pred = curr;
          curr = pred->next[0].load(std::memory_order_acquire);
          ++steps;
        }
        if (curr->key == key) {
          // §3.2.1: a node not yet fully linked belongs to a commit in
          // flight; wait for it rather than aborting.
          while (!curr->fully_linked.load(std::memory_order_acquire)) cpu_relax();
        }
        const bool bottom_sufficient =
            op == Op::kContains || (op == Op::kAdd && curr->key == key) ||
            (op == Op::kRemove && (curr->key != key || curr->top_level == 0));
        if (!bottom_sufficient || curr->marked.load(std::memory_order_acquire) ||
            pred->marked.load(std::memory_order_acquire)) {
          // Either the outcome needs the full arrays, or the hinted walk
          // landed on a pair mid-removal.  A stale hint is not a conflict:
          // restart from the head without consulting the validator.
          start = head_;
          src = HintSource::kNone;
          continue;
        }
        preds[0] = pred;
        succs[0] = curr;
        found_level = curr->key == key ? 0 : -1;
        break;
      }
      found_level = find(key, preds, succs, &steps);
      Node* curr = succs[0];
      if (found_level != -1) {
        Node* found = succs[static_cast<unsigned>(found_level)];
        // §3.2.1: a node that is not yet fully linked belongs to a commit in
        // flight; wait for it rather than aborting.
        while (!found->fully_linked.load(std::memory_order_acquire)) cpu_relax();
      }
      if (!curr->marked.load(std::memory_order_acquire) &&
          !preds[0]->marked.load(std::memory_order_acquire)) {
        break;
      }
      tx.on_operation_validate();
    }
    if (hints_on) {
      hint::count(tally, src);
      hint::remember(desc, hint_owner_id(), preds[0], succs[0], head_, tail_);
    }
    hint::sample_traversal(tally, steps);

    const bool found = succs[0]->key == key;
    bool success = false;
    switch (op) {
      case Op::kAdd:
        success = !found;
        break;
      case Op::kRemove:
      case Op::kContains:
        success = found;
        break;
    }

    ReadEntry entry{preds, succs, 0, op, success};
    if (op == Op::kAdd && success) {
      // The write decides its level now so that exactly the preds it will
      // link through get validated and locked.
      const unsigned top = random_level();
      entry.top = top;
      desc.reads.push_back(entry);
      desc.writes.push_back({preds, nullptr, top, Op::kAdd, key});
    } else if (op == Op::kRemove && success) {
      Node* victim = succs[0];
      entry.top = victim->top_level;
      desc.reads.push_back(entry);
      desc.writes.push_back({preds, victim, victim->top_level, Op::kRemove, key});
    } else {
      desc.reads.push_back(entry);  // read-only outcome, bottom-level rules
    }

    tx.on_operation_validate();
    return success;
  }

  bool validate_entry(const ReadEntry& e) const {
    Node* curr = e.succs[0];
    const bool curr_live = !curr->marked.load(std::memory_order_acquire);
    if ((e.op == Op::kContains && e.success) || (e.op == Op::kAdd && !e.success)) {
      return curr_live;  // the key must merely stay present (level 0 holds it)
    }
    if (!e.success) {
      // Unsuccessful remove/contains: absence is decided at level 0 alone —
      // any insert must appear there.
      return curr_live && !e.preds[0]->marked.load(std::memory_order_acquire) &&
             e.preds[0]->next[0].load(std::memory_order_acquire) == curr;
    }
    // Successful add/remove: every level the commit will touch must hold.
    for (unsigned l = 0; l <= e.top; ++l) {
      Node* pred = e.preds[l];
      Node* succ = e.succs[l];
      if (pred->marked.load(std::memory_order_acquire) ||
          succ->marked.load(std::memory_order_acquire) ||
          pred->next[l].load(std::memory_order_acquire) != succ) {
        return false;
      }
    }
    return true;
  }

  /// Nodes whose lock words an entry's validation must pin.
  template <typename Fn>
  void for_each_involved(const ReadEntry& e, Fn&& fn) const {
    if ((e.op == Op::kContains && e.success) || (e.op == Op::kAdd && !e.success)) {
      fn(e.succs[0]);
      return;
    }
    if (!e.success) {
      fn(e.preds[0]);
      fn(e.succs[0]);
      return;
    }
    for (unsigned l = 0; l <= e.top; ++l) {
      fn(e.preds[l]);
      fn(e.succs[l]);
    }
  }

  static unsigned random_level() {
    thread_local Xorshift rng{0xf00du ^ reinterpret_cast<std::uintptr_t>(&rng)};
    unsigned level = 0;
    while ((rng.next() & 1) != 0 && level < kMaxLevel - 1) ++level;
    return level;
  }

  int find(Key key, std::array<Node*, kMaxLevel>& preds,
           std::array<Node*, kMaxLevel>& succs,
           std::uint64_t* steps = nullptr) const {
    int found_level = -1;
    std::uint64_t hops = 0;
    Node* pred = head_;
    for (unsigned l = kMaxLevel; l-- > 0;) {
      Node* curr = pred->next[l].load(std::memory_order_acquire);
      while (curr->key < key) {
        pred = curr;
        curr = pred->next[l].load(std::memory_order_acquire);
        ++hops;
      }
      if (found_level == -1 && curr->key == key) found_level = static_cast<int>(l);
      preds[l] = pred;
      succs[l] = curr;
    }
    if (steps != nullptr) *steps += hops;
    return found_level;
  }

  /// Multilevel descent over CURRENT links (levels >= 1) toward `key`,
  /// used purely as an O(log n) accelerator for snapshot walks.  The
  /// landing predecessor is trusted only if it was alive at `t` (born <= t
  /// < dead); otherwise the walk starts at head.  A wrong-but-alive hint is
  /// impossible: any alive-at-t node with key < `key` is a sound starting
  /// point for the as-of-t bottom walk, because the as-of-t list is sorted
  /// and the walk follows only as-of-t links from there.
  const Node* descend_hint_at(Key key, std::uint64_t t) const {
    const Node* pred = head_;
    for (unsigned l = kMaxLevel; l-- > 1;) {
      const Node* curr = pred->next[l].load(std::memory_order_acquire);
      while (curr->key < key) {
        pred = curr;
        curr = pred->next[l].load(std::memory_order_acquire);
      }
    }
    if (pred == head_) return head_;
    if (pred->born_ts.load(std::memory_order_acquire) <= t &&
        t < pred->dead_ts.load(std::memory_order_acquire)) {
      return pred;
    }
    return head_;
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

  Node* head_;
  Node* tail_;
};

// ---- out-of-line protocol bodies ------------------------------------------

inline bool OtbSkipListSet::validate_desc(const Desc& desc, bool check_locks) const {
  auto& snaps = desc.snaps;  // descriptor-resident scratch, reused per call
  snaps.clear();
  if (check_locks) {
    for (const ReadEntry& e : desc.reads) {
      bool locked = false;
      for_each_involved(e, [&](Node* n) {
        const std::uint64_t w = n->lock.load();
        if (VersionedLock::is_locked(w)) locked = true;
        snaps.push_back(w);
      });
      if (locked) return false;
    }
  }
  for (const ReadEntry& e : desc.reads) {
    if (!validate_entry(e)) return false;
  }
  if (check_locks) {
    std::size_t i = 0;
    for (const ReadEntry& e : desc.reads) {
      bool changed = false;
      for_each_involved(e, [&](Node* n) {
        if (n->lock.load() != snaps[i++]) changed = true;
      });
      if (changed) return false;
    }
  }
  return true;
}

inline bool OtbSkipListSet::pre_commit_desc(Desc& desc, bool use_locks) {
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
      for (unsigned l = 0; l <= e.top; ++l) {
        if (!lock_one(e.preds[l])) return false;
      }
      if (e.op == Op::kRemove && !lock_one(e.victim)) return false;
    }
  }
  return validate_desc(desc, /*check_locks=*/false);
}

inline void OtbSkipListSet::on_commit_desc(Desc& desc) {
  ebr::Guard guard;
  for (const WriteEntry& e : desc.writes) {
    if (e.op == Op::kAdd) {
      Node* node = new Node(e.key, e.top);
      node->lock.try_lock();  // stays locked until post_commit
      desc.locked.push_back(node);
      // Per-level local re-traversal: levels may have diverged through this
      // transaction's own earlier (higher-key) commits.
      std::array<Node*, kMaxLevel> preds, succs;
      for (unsigned l = 0; l <= e.top; ++l) {
        Node* pred = e.preds[l];
        Node* curr = pred->next[l].load(std::memory_order_acquire);
        while (curr->key < e.key) {
          pred = curr;
          curr = pred->next[l].load(std::memory_order_acquire);
        }
        preds[l] = pred;
        succs[l] = curr;
      }
      node->born_ts.store(desc.mv_stamp, std::memory_order_release);
      for (unsigned l = 0; l <= e.top; ++l) {
        node->next[l].store(succs[l], std::memory_order_relaxed);
      }
      for (unsigned l = 0; l <= e.top; ++l) {
        preds[l]->next[l].store(node, std::memory_order_release);
      }
      node->fully_linked.store(true, std::memory_order_release);
      // Version the bottom-level link change (upper levels are descent
      // hints only and stay unversioned).
      mv_push(node->mv, succs[0], desc.mv_stamp, desc.mv_reclaimed);
      mv_push(preds[0]->mv, node, desc.mv_stamp, desc.mv_reclaimed);
    } else {
      Node* victim = e.victim;
      victim->marked.store(true, std::memory_order_release);
      victim->dead_ts.store(desc.mv_stamp, std::memory_order_release);
      for (unsigned l = e.top + 1; l-- > 0;) {
        Node* pred = e.preds[l];
        Node* curr = pred->next[l].load(std::memory_order_acquire);
        while (curr->key < e.key) {
          pred = curr;
          curr = pred->next[l].load(std::memory_order_acquire);
        }
        if (curr == victim) {
          Node* after = victim->next[l].load(std::memory_order_relaxed);
          pred->next[l].store(after, std::memory_order_release);
          if (l == 0) mv_push(pred->mv, after, desc.mv_stamp, desc.mv_reclaimed);
        }
      }
      ebr::retire(victim);
    }
  }
}

}  // namespace otb::tx
