// Parameterized correctness suite run against every STM algorithm in the
// framework (NOrec, TML, TL2, RingSW, InvalSTM, RTC, RInval): atomicity,
// isolation, snapshot consistency, read-own-writes, and conservation
// invariants under concurrency.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "stm/stm.h"

namespace otb::stm {
namespace {

class StmAlgoTest : public ::testing::TestWithParam<AlgoKind> {
 protected:
  static Config small_config() {
    Config cfg;
    cfg.max_threads = 16;
    return cfg;
  }
};

INSTANTIATE_TEST_SUITE_P(AllAlgos, StmAlgoTest,
                         ::testing::Values(AlgoKind::kNOrec, AlgoKind::kTML,
                                           AlgoKind::kTL2, AlgoKind::kRingSW,
                                           AlgoKind::kInvalSTM, AlgoKind::kRTC,
                                           AlgoKind::kRInval, AlgoKind::kCGL,
                                           AlgoKind::kTinySTM),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

TEST_P(StmAlgoTest, SingleThreadReadWrite) {
  Runtime rt(GetParam(), small_config());
  TVar<std::int64_t> x{10};
  TxThread th(rt);
  rt.atomically(th, [&](Tx& tx) {
    EXPECT_EQ(tx.read(x), 10);
    tx.write(x, std::int64_t{20});
    EXPECT_EQ(tx.read(x), 20);  // read-own-writes
  });
  EXPECT_EQ(x.load_direct(), 20);
}

TEST_P(StmAlgoTest, WritesInvisibleUntilCommitForLazyAlgos) {
  if (GetParam() == AlgoKind::kTML || GetParam() == AlgoKind::kCGL ||
      GetParam() == AlgoKind::kTinySTM) {
    GTEST_SKIP() << "eager algorithm";
  }
  Runtime rt(GetParam(), small_config());
  TVar<std::int64_t> x{1};
  TxThread th(rt);
  rt.atomically(th, [&](Tx& tx) {
    tx.write(x, std::int64_t{2});
    EXPECT_EQ(x.load_direct(), 1);  // redo log only
  });
  EXPECT_EQ(x.load_direct(), 2);
}

TEST_P(StmAlgoTest, ConcurrentCounterIncrements) {
  Runtime rt(GetParam(), small_config());
  TVar<std::int64_t> counter{0};
  constexpr int kThreads = 4, kIters = 250;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      TxThread th(rt);
      for (int i = 0; i < kIters; ++i) {
        rt.atomically(th, [&](Tx& tx) {
          tx.write(counter, tx.read(counter) + 1);
        });
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(counter.load_direct(), std::int64_t(kThreads) * kIters);
}

TEST_P(StmAlgoTest, BankTransfersConserveTotal) {
  Runtime rt(GetParam(), small_config());
  constexpr std::size_t kAccounts = 32;
  constexpr std::int64_t kInitial = 100;
  TArray<std::int64_t> accounts(kAccounts, kInitial);
  constexpr int kThreads = 4, kIters = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      TxThread th(rt);
      Xorshift rng{std::uint64_t(t) * 17 + 1};
      for (int i = 0; i < kIters; ++i) {
        const std::size_t from = rng.next_bounded(kAccounts);
        const std::size_t to = rng.next_bounded(kAccounts);
        const std::int64_t amount = 1 + std::int64_t(rng.next_bounded(5));
        rt.atomically(th, [&](Tx& tx) {
          tx.write(accounts[from], tx.read(accounts[from]) - amount);
          tx.write(accounts[to], tx.read(accounts[to]) + amount);
        });
      }
    });
  }
  // Concurrent auditors must always observe the conserved total (isolation).
  std::atomic<bool> stop{false};
  std::thread auditor([&] {
    TxThread th(rt);
    while (!stop.load()) {
      std::int64_t total = 0;
      rt.atomically(th, [&](Tx& tx) {
        total = 0;
        for (std::size_t a = 0; a < kAccounts; ++a) total += tx.read(accounts[a]);
      });
      EXPECT_EQ(total, std::int64_t(kAccounts) * kInitial);
    }
  });
  for (auto& th : threads) th.join();
  stop = true;
  auditor.join();
  std::int64_t total = 0;
  for (std::size_t a = 0; a < kAccounts; ++a) total += accounts[a].load_direct();
  EXPECT_EQ(total, std::int64_t(kAccounts) * kInitial);
}

TEST_P(StmAlgoTest, PairedVariablesNeverObservedTorn) {
  // Writers keep x == y; a reader transaction must never see them differ.
  Runtime rt(GetParam(), small_config());
  TVar<std::int64_t> x{0}, y{0};
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    TxThread th(rt);
    for (int i = 1; i <= 400; ++i) {
      rt.atomically(th, [&](Tx& tx) {
        tx.write(x, std::int64_t{i});
        tx.write(y, std::int64_t{i});
      });
    }
    stop = true;
  });
  std::thread reader([&] {
    TxThread th(rt);
    while (!stop.load()) {
      std::int64_t a = -1, b = -1;
      rt.atomically(th, [&](Tx& tx) {
        a = tx.read(x);
        b = tx.read(y);
      });
      EXPECT_EQ(a, b);
    }
  });
  writer.join();
  reader.join();
  EXPECT_EQ(x.load_direct(), 400);
  EXPECT_EQ(y.load_direct(), 400);
}

TEST_P(StmAlgoTest, WriteSkewPreventedOnOverlappingReads) {
  // Classic write-skew shape: each tx reads both vars and writes one,
  // keeping the invariant a + b <= 1 … serializable STMs must uphold it.
  Runtime rt(GetParam(), small_config());
  TVar<std::int64_t> a{0}, b{0};
  constexpr int kIters = 200;
  auto worker = [&](bool first) {
    TxThread th(rt);
    for (int i = 0; i < kIters; ++i) {
      rt.atomically(th, [&](Tx& tx) {
        const std::int64_t va = tx.read(a);
        const std::int64_t vb = tx.read(b);
        if (va + vb == 0) {
          tx.write(first ? a : b, std::int64_t{1});
        } else if (first && va == 1) {
          tx.write(a, std::int64_t{0});
        } else if (!first && vb == 1) {
          tx.write(b, std::int64_t{0});
        }
      });
      // Check committed state, read in one transaction: raw loads would also
      // see an eager (write-through) algorithm's tentative write, which its
      // commit-time validation may still roll back.
      std::int64_t sa = 0, sb = 0;
      rt.atomically(th, [&](Tx& tx) {
        sa = tx.read(a);
        sb = tx.read(b);
      });
      EXPECT_LE(sa + sb, 1) << "write skew!";
    }
  };
  std::thread t1(worker, true), t2(worker, false);
  t1.join();
  t2.join();
  EXPECT_LE(a.load_direct() + b.load_direct(), 1) << "write skew!";
}

TEST_P(StmAlgoTest, AbortStatisticsAccumulate) {
  Runtime rt(GetParam(), small_config());
  TVar<std::int64_t> x{0};
  constexpr int kThreads = 4, kIters = 150;
  std::atomic<std::uint64_t> commits{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      TxThread th(rt);
      for (int i = 0; i < kIters; ++i) {
        rt.atomically(th, [&](Tx& tx) { tx.write(x, tx.read(x) + 1); });
      }
      commits.fetch_add(th.tx().stats().commits);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(commits.load(), std::uint64_t(kThreads) * kIters);
  EXPECT_EQ(x.load_direct(), std::int64_t(kThreads) * kIters);
}

TEST_P(StmAlgoTest, ManySmallDisjointTransactionsScaleOut) {
  // Disjoint-address workload: no transaction should ever lose an update.
  Runtime rt(GetParam(), small_config());
  constexpr int kThreads = 4, kIters = 300;
  TArray<std::int64_t> slots(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      TxThread th(rt);
      for (int i = 0; i < kIters; ++i) {
        rt.atomically(th, [&](Tx& tx) {
          tx.write(slots[std::size_t(t)], tx.read(slots[std::size_t(t)]) + 1);
        });
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(slots[std::size_t(t)].load_direct(), kIters);
  }
}

TEST(StmRuntime, SlotsAreRecycled) {
  Runtime rt(AlgoKind::kNOrec);
  unsigned first;
  {
    TxThread a(rt);
    first = a.slot();
  }
  TxThread b(rt);
  EXPECT_EQ(b.slot(), first);
}

TEST(StmTVar, TypedRoundTrip) {
  TVar<double> d{3.5};
  EXPECT_DOUBLE_EQ(d.load_direct(), 3.5);
  d.store_direct(-1.25);
  EXPECT_DOUBLE_EQ(d.load_direct(), -1.25);
  TVar<std::uint32_t> u{7u};
  EXPECT_EQ(u.load_direct(), 7u);
}

TEST(StmWriteSet, OverwritesAndLookups) {
  RedoWriteSet ws;
  TWord a{1}, b{2};
  ws.put(&a, 10);
  ws.put(&b, 20);
  ws.put(&a, 11);
  Word out = 0;
  EXPECT_TRUE(ws.lookup(&a, &out));
  EXPECT_EQ(out, 11u);
  EXPECT_TRUE(ws.lookup(&b, &out));
  EXPECT_EQ(out, 20u);
  EXPECT_EQ(ws.size(), 2u);
  ws.publish();
  EXPECT_EQ(a.load(), 11u);
  EXPECT_EQ(b.load(), 20u);
  ws.clear();
  EXPECT_FALSE(ws.lookup(&a, &out));
}

TEST(StmWriteSet, GrowsPastInitialCapacity) {
  RedoWriteSet ws;
  std::vector<TWord> words(500);
  for (std::size_t i = 0; i < words.size(); ++i) {
    ws.put(&words[i], Word(i));
  }
  Word out = 0;
  for (std::size_t i = 0; i < words.size(); ++i) {
    ASSERT_TRUE(ws.lookup(&words[i], &out));
    EXPECT_EQ(out, Word(i));
  }
}

}  // namespace
}  // namespace otb::stm
