// RingSTM, single-writer variant (Spear et al.) — §2.1.3.
//
// Committed writers append their write bloom filter to a fixed ring stamped
// with a commit timestamp.  Readers validate by intersecting their read
// filter with every ring entry newer than their start time; writers
// serialize on a global commit lock (the "SW" flavour), re-validate, then
// publish both their writes and their ring entry.  A reader that falls so
// far behind that the ring has wrapped over its start position aborts.
//
// Two stamps bound the ring: `ring_index` (newest published entry, advanced
// before the write-back) and `last_complete` (newest entry whose write-back
// has finished).  A reader may only treat an entry as behind it once that
// entry is complete — otherwise it can read a value the entry is still
// about to overwrite and never validate against it (a lost update).  Each
// ring slot is a seqlock in the style of otb/mv.h's MvChain: the writer
// parks the slot's timestamp before rewriting the filter, and a reader
// re-checks the timestamp after intersecting.
#pragma once

#include <array>

#include "common/bloom_filter.h"
#include "common/platform.h"
#include "common/spinlock.h"
#include "stm/read_write_sets.h"
#include "stm/runtime.h"

namespace otb::stm {

struct RingSwGlobal final : AlgoGlobal {
  static constexpr std::size_t kRingSize = 1024;

  struct alignas(kCacheLine) RingEntry {
    std::atomic<std::uint64_t> timestamp{0};  // 0 = never used, or being rewritten
    std::array<std::atomic<std::uint64_t>, TxFilter::kWords> filter{};
  };

  /// Newest committed timestamp; entry i lives at ring[i % kRingSize].
  std::atomic<std::uint64_t> ring_index{0};
  /// Newest timestamp whose write-back has finished (<= ring_index).
  std::atomic<std::uint64_t> last_complete{0};
  /// Serializes writers (single-writer ring).
  SpinLock commit_lock;
  std::array<RingEntry, kRingSize> ring;

  explicit RingSwGlobal(const Config&) {}

  std::unique_ptr<Tx> make_tx(unsigned) override;
};

class RingSwTx final : public Tx {
 public:
  explicit RingSwTx(RingSwGlobal& global) : global_(global) {}

  void begin() override {
    read_filter_.clear();
    writes_.clear();
    write_filter_.clear();
    start_ = global_.last_complete.load(std::memory_order_acquire);
  }

  Word read_word(const TWord* addr) override {
    stats_.reads += 1;
    Word buffered;
    if (writes_.lookup(addr, &buffered)) return buffered;
    const Word value = addr->load(std::memory_order_acquire);
    read_filter_.add(addr);
    check_ring_suffix();
    return value;
  }

  void write_word(TWord* addr, Word value) override {
    stats_.writes += 1;
    writes_.put(addr, value);
    write_filter_.add(addr);
  }

  void commit() override {
    if (writes_.empty()) return;
    std::lock_guard<SpinLock> lk(global_.commit_lock);
    check_ring_suffix();  // final validation against writers we missed
    const std::uint64_t ts = global_.ring_index.load(std::memory_order_acquire) + 1;
    auto& entry = global_.ring[ts % RingSwGlobal::kRingSize];
    // Park the slot first: a reader still intersecting the entry this one
    // laps sees the timestamp move at its re-check (release fence pairs
    // with the reader's acquire fence in check_ring_suffix).
    entry.timestamp.store(0, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
    for (std::size_t w = 0; w < TxFilter::kWords; ++w) {
      entry.filter[w].store(write_filter_.word(w), std::memory_order_relaxed);
    }
    entry.timestamp.store(ts, std::memory_order_release);
    // Publish the ring entry *before* the write-back: a reader that observes
    // any of our new values is then guaranteed to also observe the entry and
    // abort on filter intersection (bloom filters have no false negatives).
    global_.ring_index.store(ts, std::memory_order_release);
    writes_.publish();
    global_.last_complete.store(ts, std::memory_order_release);
  }

  void rollback() override {}

 private:
  /// Intersect our read filter with every ring entry committed after we
  /// started; advance `start_` past validated entries whose write-back has
  /// finished.  An entry still being written back stays ahead of `start_`,
  /// so the next read re-checks it with that read's address in the filter.
  void check_ring_suffix() {
    const std::uint64_t done = global_.last_complete.load(std::memory_order_acquire);
    const std::uint64_t newest = global_.ring_index.load(std::memory_order_acquire);
    if (newest == start_) return;
    stats_.validations += 1;
    if (newest - start_ >= RingSwGlobal::kRingSize) {
      throw TxAbort{metrics::AbortReason::kRingWrap};  // wrapped
    }
    for (std::uint64_t i = start_ + 1; i <= newest; ++i) {
      const auto& entry = global_.ring[i % RingSwGlobal::kRingSize];
      if (entry.timestamp.load(std::memory_order_acquire) != i) {
        // The entry was overwritten under us — equivalent to a wrap.
        throw TxAbort{metrics::AbortReason::kRingWrap};
      }
      bool hit = false;
      for (std::size_t w = 0; w < TxFilter::kWords && !hit; ++w) {
        hit = (entry.filter[w].load(std::memory_order_relaxed) & read_filter_.word(w)) != 0;
      }
      std::atomic_thread_fence(std::memory_order_acquire);
      if (entry.timestamp.load(std::memory_order_relaxed) != i) {
        throw TxAbort{metrics::AbortReason::kRingWrap};  // lapped mid-intersect
      }
      if (hit) throw TxAbort{metrics::AbortReason::kValidation};
    }
    start_ = done;  // done <= newest: loaded first, and never ahead of ring_index
  }

  RingSwGlobal& global_;
  TxFilter read_filter_;
  TxFilter write_filter_;
  RedoWriteSet writes_;
  std::uint64_t start_ = 0;
};

inline std::unique_ptr<Tx> RingSwGlobal::make_tx(unsigned) {
  return std::make_unique<RingSwTx>(*this);
}

}  // namespace otb::stm
