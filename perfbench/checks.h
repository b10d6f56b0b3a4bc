// Output checks of the service benchmark.  Each check compares what the
// program left behind (a quiescent walk of a structure, a recovered map, a
// server counter) with what the benchmark's clients tallied from the replies
// they received — never with an earlier run's output.  The functions are
// pure so selftest.cpp can feed each one a known-bad input.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Walk = std::vector<std::pair<std::int64_t, std::int64_t>>;

/// Collected check failures; empty means every check passed.
struct CheckLog {
  std::vector<std::string> failures;

  void fail(std::string what) { failures.push_back(std::move(what)); }
  bool ok() const { return failures.empty(); }
};

/// Map values carry their key in the bits above kValueKeyShift, so a value
/// read back for key k is one this workload could have written for k exactly
/// when (value >> kValueKeyShift) == k.  The low bits hold a writer nonce.
inline constexpr int kValueKeyShift = 20;
inline constexpr std::int64_t kNonceMask = (std::int64_t{1} << kValueKeyShift) - 1;

inline std::int64_t encode_value(std::int64_t key, std::int64_t nonce) {
  return (key << kValueKeyShift) | (nonce & kNonceMask);
}

inline bool value_valid(std::int64_t key, std::int64_t value) {
  return value >= 0 && (value >> kValueKeyShift) == key;
}

/// Per-key conservation over a key universe [0, key_range): a key's initial
/// presence, plus its successful inserting puts, minus its successful
/// erases, equals its presence in the final walk.  The walk must also be
/// strictly ascending (sorted, no duplicates), stay inside the universe and
/// hold only values valid for their keys.
inline void check_kv_conservation(const std::vector<std::uint8_t>& initial,
                                  const std::vector<std::int64_t>& inserts,
                                  const std::vector<std::int64_t>& erases,
                                  const Walk& final_walk, CheckLog& log) {
  const auto range = static_cast<std::int64_t>(initial.size());
  std::vector<std::uint8_t> present(initial.size(), 0);
  std::int64_t prev = -1;
  bool first = true;
  for (const auto& [k, v] : final_walk) {
    if (!first && k <= prev) {
      log.fail("final walk not strictly ascending at key " + std::to_string(k));
    }
    first = false;
    prev = k;
    if (k < 0 || k >= range) {
      log.fail("final walk holds key " + std::to_string(k) +
               " outside the workload's universe");
      continue;
    }
    present[static_cast<std::size_t>(k)] = 1;
    if (!value_valid(k, v)) {
      log.fail("final walk: key " + std::to_string(k) + " holds value " +
               std::to_string(v) + " no writer of this key produced");
    }
  }
  for (std::int64_t k = 0; k < range; ++k) {
    const auto i = static_cast<std::size_t>(k);
    const std::int64_t expect = initial[i] + inserts[i] - erases[i];
    if (expect != present[i]) {
      log.fail("key " + std::to_string(k) + ": initial " +
               std::to_string(initial[i]) + " + inserts " +
               std::to_string(inserts[i]) + " - erases " +
               std::to_string(erases[i]) + " = " + std::to_string(expect) +
               ", but the final walk says " + std::to_string(present[i]));
    }
  }
}

/// Job-scheduler conservation over jobs [1, n_jobs]: every seeded job ends
/// in exactly one of the ready queue or the lease map; successful claims
/// minus successful releases equals the number of leases; and each lease is
/// held by the client that claimed it and has not released it (`held[c]`
/// lists the jobs client c still holds).
inline void check_jobs(std::int64_t n_jobs, const std::vector<std::int64_t>& queue,
                       const Walk& leases, std::uint64_t claims_ok,
                       std::uint64_t releases_ok,
                       const std::vector<std::vector<std::int64_t>>& held,
                       CheckLog& log) {
  std::vector<int> seen(static_cast<std::size_t>(n_jobs) + 1, 0);
  const auto note = [&](std::int64_t job, const char* where) {
    if (job < 1 || job > n_jobs) {
      log.fail(std::string(where) + " holds unknown job " + std::to_string(job));
      return;
    }
    seen[static_cast<std::size_t>(job)] += 1;
  };
  for (const std::int64_t j : queue) note(j, "ready queue");
  for (const auto& [j, worker] : leases) note(j, "lease map");
  for (std::int64_t j = 1; j <= n_jobs; ++j) {
    const int n = seen[static_cast<std::size_t>(j)];
    if (n != 1) {
      log.fail("job " + std::to_string(j) + " is in " + std::to_string(n) +
               " places at the end (queue + leases), want exactly 1");
    }
  }
  if (claims_ok < releases_ok ||
      claims_ok - releases_ok != static_cast<std::uint64_t>(leases.size())) {
    log.fail("claims " + std::to_string(claims_ok) + " - releases " +
             std::to_string(releases_ok) + " != final leases " +
             std::to_string(leases.size()));
  }
  std::set<std::pair<std::int64_t, std::int64_t>> want;
  for (std::size_t c = 0; c < held.size(); ++c) {
    for (const std::int64_t j : held[c]) {
      want.emplace(j, static_cast<std::int64_t>(c));
    }
  }
  const std::set<std::pair<std::int64_t, std::int64_t>> got(leases.begin(),
                                                            leases.end());
  if (want != got) {
    log.fail("lease map (" + std::to_string(got.size()) +
             " entries) differs from the jobs the clients hold (" +
             std::to_string(want.size()) + ")");
  }
}

/// Recovery: the map rebuilt from the WAL directory equals the live map the
/// stopped service left, key by key and value by value.
inline void check_recovered(const Walk& live, const Walk& recovered,
                            CheckLog& log) {
  if (live == recovered) return;
  std::size_t i = 0;
  while (i < live.size() && i < recovered.size() && live[i] == recovered[i]) ++i;
  std::string at = "end of walk";
  if (i < live.size()) {
    at = "live key " + std::to_string(live[i].first);
  } else if (i < recovered.size()) {
    at = "recovered key " + std::to_string(recovered[i].first);
  }
  log.fail("recovered map (" + std::to_string(recovered.size()) +
           " keys) differs from the live map (" + std::to_string(live.size()) +
           " keys), first at " + at);
}

/// Frame accounting over the wire: the server decoded exactly the frames
/// the client sent, and the client got exactly one reply per frame.
inline void check_frames(std::uint64_t server_frames_in,
                         std::uint64_t client_frames_sent,
                         std::uint64_t client_replies, CheckLog& log) {
  if (server_frames_in != client_frames_sent) {
    log.fail("server net_frames_in " + std::to_string(server_frames_in) +
             " != frames the client sent " + std::to_string(client_frames_sent));
  }
  if (client_replies != client_frames_sent) {
    log.fail("client received " + std::to_string(client_replies) +
             " replies for " + std::to_string(client_frames_sent) + " frames");
  }
}

}  // namespace perfbench
