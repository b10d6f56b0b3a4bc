// OTB-Set over a lazy linked list — the paper's primary contribution
// (§3.2.1, Algorithms 1–3).
//
// Operations are split into the three OTB steps:
//   1. unmonitored traversal (identical to the lazy list, no logging of
//      traversed nodes — this is what removes STM false conflicts),
//   2. post-validation of the semantic read-set after every operation
//      (opacity), and
//   3. commit: semantic two-phase locking over only the involved nodes,
//      commit-time validation, then publication of the semantic write-set
//      in descending key order (§3.2.1's three commit guidelines, Fig 3.2).
//
// Structure-specific optimisations from the paper:
//   * contains() and unsuccessful add/remove acquire no locks, ever;
//   * successful contains / unsuccessful add validate only !curr.marked;
//   * add/remove pairs on the same key eliminate each other locally,
//     leaving their read-set entries behind (isolation is preserved);
//   * inserted nodes stay locked until the whole commit finishes.
//
// Step 1's traversal is additionally seeded by the two-level hint layer
// (traversal_hints.h): the walk may start from a previously validated
// predecessor instead of head_, but everything after the walk — the marked
// checks, read-set logging, and post-validation — is byte-for-byte the
// no-hint protocol, so hints cannot weaken opacity (DESIGN.md, "Traversal
// hints and opacity").
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

class OtbListSet final : public OtbDs {
 public:
  using Key = std::int64_t;

  OtbListSet() {
    head_ = new Node(std::numeric_limits<Key>::min());
    tail_ = new Node(std::numeric_limits<Key>::max());
    head_->next.store(tail_, std::memory_order_release);
    // Stamp-0 version so snapshot walks see the empty list from the start.
    std::uint64_t unused = 0;
    mv_push(head_->mv, tail_, 0, unused);
  }

  ~OtbListSet() override {
    Node* n = head_;
    while (n != nullptr) {
      Node* next = n->next.load(std::memory_order_relaxed);
      delete n;
      n = next;
    }
  }

  OtbListSet(const OtbListSet&) = delete;
  OtbListSet& operator=(const OtbListSet&) = delete;

  // ---- transactional operations -----------------------------------------

  /// Transactional insert; false when the key is already present (which the
  /// paper treats as a read-only outcome — no semantic lock at commit).
  bool add(TxHost& tx, Key key) { return operation(tx, Op::kAdd, key); }

  /// Transactional remove; false when absent.
  bool remove(TxHost& tx, Key key) { return operation(tx, Op::kRemove, key); }

  /// Transactional membership test; never acquires locks.
  bool contains(TxHost& tx, Key key) { return operation(tx, Op::kContains, key); }

  // ---- snapshot (multi-version) reads ------------------------------------

  /// Membership as of the snapshot's stamp for this structure.  Walks the
  /// version chains exclusively: no read-set, no locks, no validation.
  /// The walk may start at a cached predecessor proven live at the stamp
  /// (hint::snapshot_locate).  Throws SnapshotMiss when a chain can no
  /// longer serve the stamp.
  bool contains_at(SnapshotTx& snap, Key key) const {
    const std::uint64_t t = snap.stamp_for(commit_seq());
    return hint::snapshot_locate(snap, hint_owner_id(), head_, key, t).second->key == key;
  }

  bool supports_snapshot_reads() const override { return true; }

  // ---- non-transactional helpers (setup / verification) -----------------

  /// Sequential insert used to seed benchmarks; not thread-safe.
  bool add_seq(Key key) {
    auto [pred, curr] = locate(key);
    if (curr->key == key) return false;
    Node* node = new Node(key);
    node->next.store(curr, std::memory_order_relaxed);
    pred->next.store(node, std::memory_order_release);
    // Seed versions at the current (quiescent — seq paths are not
    // thread-safe) begin count so chain stamps stay monotone.
    const std::uint64_t ts = commit_seq().begin_count();
    std::uint64_t unused = 0;
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

  std::vector<Key> snapshot_unsafe() const {
    std::vector<Key> out;
    for (const Node* c = head_->next.load(std::memory_order_acquire); c != tail_;
         c = c->next.load(std::memory_order_acquire)) {
      if (!c->marked.load(std::memory_order_acquire)) out.push_back(c->key);
    }
    return out;
  }

  // ---- OTB-DS protocol (§4.1.2) ------------------------------------------

  std::unique_ptr<OtbDsDesc> make_desc() const override {
    return std::make_unique<Desc>();
  }

  bool validate(const OtbDsDesc& base, bool check_locks) const override {
    const Desc& desc = static_cast<const Desc&>(base);
    // Phase 1: snapshot the involved locks and require them free.  The
    // scratch lives in the descriptor so repeated validations of one
    // transaction reuse the same storage (zero-allocation hot path).
    SmallVec<std::uint64_t, 2 * Desc::kInline>& snaps = desc.snaps;
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
    // Phase 2: semantic checks.
    for (const ReadEntry& e : desc.reads) {
      if (!validate_entry(e)) return false;
    }
    // Phase 3: lock versions unchanged while we validated.
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
    if (desc.writes.empty()) return true;  // read-only: nothing to do
    // Guideline 2 (§3.2.1): publish in descending key order.
    std::sort(desc.writes.begin(), desc.writes.end(),
              [](const WriteEntry& a, const WriteEntry& b) { return a.key > b.key; });
    if (use_locks && !acquire_semantic_locks(desc)) return false;
    // Commit-time validation: lock versions need no re-check, the involved
    // nodes are locked by us.
    return validate(desc, /*check_locks=*/false);
  }

  void do_on_commit(OtbDsDesc& base) override {
    Desc& desc = static_cast<Desc&>(base);
    ebr::Guard guard;
    for (const WriteEntry& e : desc.writes) {
      // Guideline 3: resume traversal from the saved pred; every node on the
      // resumed path is either the saved pred or a node this transaction
      // inserted (and holds locked), so the walk is race-free.
      Node* pred = e.pred;
      Node* curr = pred->next.load(std::memory_order_acquire);
      while (curr->key < e.key) {
        pred = curr;
        curr = pred->next.load(std::memory_order_acquire);
      }
      if (e.op == Op::kAdd) {
        Node* node = new Node(e.key);
        node->lock.try_lock();  // guideline 1: new nodes stay locked
        desc.locked.push_back(node);
        node->next.store(curr, std::memory_order_relaxed);
        pred->next.store(node, std::memory_order_release);
        // Version the insert: the new node's own chain gets its initial
        // successor (uniform resolve rule for nodes born at this stamp) and
        // pred's chain records the link change.
        mv_push(node->mv, curr, desc.mv_stamp, desc.mv_reclaimed);
        mv_push(pred->mv, node, desc.mv_stamp, desc.mv_reclaimed);
      } else {  // kRemove: curr is the victim (validation pinned it)
        Node* after = curr->next.load(std::memory_order_relaxed);
        curr->marked.store(true, std::memory_order_release);
        pred->next.store(after, std::memory_order_release);
        // Version the unlink: snapshots at stamps >= this one bypass curr.
        mv_push(pred->mv, after, desc.mv_stamp, desc.mv_reclaimed);
        ebr::retire(curr);
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
    // Nothing was published (on_commit never fails); release what we locked
    // without disturbing versions.
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
  enum class Op : std::uint8_t { kAdd, kRemove, kContains };

  struct Node {
    explicit Node(Key k) : key(k) {}
    ~Node() { delete mv; }
    const Key key;
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
    Op op;
    bool success = false;
  };

  struct WriteEntry {
    Node* pred;
    Node* curr;
    Op op;  // kAdd or kRemove only
    Key key;
  };

  struct Desc final : OtbDsDesc {
    /// Inline capacity: typical transactions run 1–5 operations (the
    /// paper's workloads); 8 keeps them heap-free with headroom.
    static constexpr std::size_t kInline = 8;
    SmallVec<ReadEntry, kInline> reads;
    SmallVec<WriteEntry, kInline> writes;
    // Up to two locks (pred + victim) per write, plus one per inserted node.
    SmallVec<Node*, 2 * kInline> locked;  // semantic locks held (commit phase only)
    /// Scratch for validate()'s lock snapshots (two words per read entry).
    mutable SmallVec<std::uint64_t, 2 * kInline> snaps;
    /// Level-1 traversal hints: key-ordered positions this transaction's own
    /// operations landed on.  Deliberately NOT cleared by reset() — a pooled
    /// descriptor hands them to the retry attempt, which inherits the
    /// already-proven positions; staleness is epoch-gated at consult time
    /// (hint::age_gate).
    SmallVec<LocalHint<Node>, 2 * kInline> hints;
    /// Oldest announce epoch any surviving hint was recorded under.
    std::uint64_t hint_epoch = 0;

    void reset() override {
      reads.clear();
      writes.clear();
      locked.clear();
      snaps.clear();
      OtbDsDesc::reset();
    }
  };

  /// Algorithm 1 (all three operations share its skeleton).
  bool operation(TxHost& tx, Op op, Key key) {
    Desc& desc = static_cast<Desc&>(tx.descriptor(*this));

    // Step 1: consult the local semantic write-set first.
    if (const WriteEntry* w = find_local(desc, key)) {
      if (w->op == Op::kAdd) {
        switch (op) {
          case Op::kAdd:
            return false;
          case Op::kContains:
            return true;
          case Op::kRemove:
            erase_local(desc, key);  // elimination; read-set entry remains
            return true;
        }
      } else {  // pending remove
        switch (op) {
          case Op::kRemove:
          case Op::kContains:
            return false;
          case Op::kAdd:
            erase_local(desc, key);  // elimination
            return true;
        }
      }
    }

    // Step 2: unmonitored traversal, seeded by the hint layer when enabled
    // (the entry point is advisory; everything after the walk is the
    // unchanged protocol).  Re-traverse when we land on a node mid-removal
    // so we never record an entry that is doomed to fail.
    metrics::TxTally& tally = tx.op_tally();
    const bool hints_on = traversal_hints_enabled();
    HintSource src = HintSource::kNone;
    Node* start =
        hints_on ? hint::pick_start(desc, key, hint_owner_id(), head_, src)
                 : head_;
    std::uint64_t steps = 0;
    Node* pred;
    Node* curr;
    for (;;) {
      std::tie(pred, curr) = locate_from(start, key, steps);
      if (!pred->marked.load(std::memory_order_acquire) &&
          !curr->marked.load(std::memory_order_acquire)) {
        break;
      }
      if (start != head_) {
        // Stale hint: no validation failed, so this is not a conflict —
        // just fall back to the full from-head traversal.
        start = head_;
        src = HintSource::kNone;
        continue;
      }
      tx.on_operation_validate();  // throws TxAbort when our snapshot broke
    }
    if (hints_on) {
      hint::count(tally, src);
      hint::remember(desc, hint_owner_id(), pred, curr, head_, tail_);
    }
    hint::sample_traversal(tally, steps);

    // Step 4 (decide + log); the host runs step 3 (post-validation) below.
    const bool found = curr->key == key;
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
    desc.reads.push_back({pred, curr, op, success});
    if (success && op != Op::kContains) {
      if (desc.writes.empty()) {
        // First write: pre-size the commit-path set so pre_commit/on_commit
        // (which run while semantic locks are held) never grow storage.
        // Both reserves are no-ops until a transaction exceeds the inline
        // capacity, i.e. for every typical workload.
        desc.writes.reserve(Desc::kInline);
        desc.locked.reserve(2 * Desc::kInline);
      }
      desc.writes.push_back({pred, curr, op, key});
    }

    // Step 3: post-validate everything the transaction has read so far.
    tx.on_operation_validate();
    return success;
  }

  bool validate_entry(const ReadEntry& e) const {
    const bool curr_live = !e.curr->marked.load(std::memory_order_acquire);
    if ((e.op == Op::kContains && e.success) || (e.op == Op::kAdd && !e.success)) {
      // Optimised rule: the found node just has to stay in the set; changes
      // to pred are not semantic conflicts (§3.2.1).
      return curr_live;
    }
    return curr_live && !e.pred->marked.load(std::memory_order_acquire) &&
           e.pred->next.load(std::memory_order_acquire) == e.curr;
  }

  /// Lock pred for adds, pred+curr for removes (the lazy-list rule), with
  /// pointer dedup.  CAS failure releases everything and reports false.
  bool acquire_semantic_locks(Desc& desc) {
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
      if (e.op == Op::kRemove && !lock_one(e.curr)) return false;
    }
    return true;
  }

  /// Linear write-set lookup — deliberate: write-sets hold a handful of
  /// entries (≤ Desc::kInline in every paper workload), where a flat scan
  /// beats hashing.  Crossover guard: if transactions ever carry ~32+
  /// writes, replace with a small key-indexed table; do not "fix" this for
  /// typical sizes.
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
