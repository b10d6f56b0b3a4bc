// Self-test of the benchmark's output checks: each check must pass on a
// consistent input and fail on a known-bad one.  Exit 0 when every case
// behaves, 1 otherwise (run.py runs this before every measurement).
#include <cstdio>
#include <string>
#include <vector>

#include "checks.h"

namespace {

int g_bad = 0;

void expect(bool want_ok, const perfbench::CheckLog& log, const char* name) {
  if (log.ok() != want_ok) {
    std::fprintf(stderr, "selftest: %s: check %s, expected it to %s\n", name,
                 log.ok() ? "passed" : "failed", want_ok ? "pass" : "fail");
    ++g_bad;
  }
}

struct KvCase {
  std::vector<std::uint8_t> initial{1, 0, 1, 0};
  std::vector<std::int64_t> inserts{0, 2, 1, 0};
  std::vector<std::int64_t> erases{1, 1, 1, 0};
  // Key 0 erased, key 1 inserted twice and erased once, key 2 erased and
  // re-inserted, key 3 untouched.
  perfbench::Walk walk{{1, perfbench::encode_value(1, 7)},
                       {2, perfbench::encode_value(2, 9)}};
};

void kv_cases() {
  {
    KvCase c;
    perfbench::CheckLog log;
    perfbench::check_kv_conservation(c.initial, c.inserts, c.erases, c.walk, log);
    expect(true, log, "kv conservation, consistent input");
  }
  {
    KvCase c;
    c.walk.push_back({3, perfbench::encode_value(3, 1)});  // key 3 flipped on
    perfbench::CheckLog log;
    perfbench::check_kv_conservation(c.initial, c.inserts, c.erases, c.walk, log);
    expect(false, log, "kv conservation, one key's presence flipped");
  }
  {
    KvCase c;
    c.walk.insert(c.walk.begin() + 1, c.walk[0]);  // duplicate key 1
    perfbench::CheckLog log;
    perfbench::check_kv_conservation(c.initial, c.inserts, c.erases, c.walk, log);
    expect(false, log, "kv conservation, duplicated key in the walk");
  }
  {
    KvCase c;
    c.walk[1].second = perfbench::encode_value(1, 9);  // key 2 holds key 1's value
    perfbench::CheckLog log;
    perfbench::check_kv_conservation(c.initial, c.inserts, c.erases, c.walk, log);
    expect(false, log, "kv conservation, value written for another key");
  }
  if (!perfbench::value_valid(5, perfbench::encode_value(5, 3)) ||
      perfbench::value_valid(5, perfbench::encode_value(6, 3))) {
    std::fprintf(stderr, "selftest: value_valid accepts a foreign value\n");
    ++g_bad;
  }
}

void job_cases() {
  // Jobs 1..5; client 0 holds 2, client 1 holds 4; 3 claims, 1 release.
  const std::vector<std::int64_t> queue{1, 3, 5};
  const perfbench::Walk leases{{2, 0}, {4, 1}};
  const std::vector<std::vector<std::int64_t>> held{{2}, {4}};
  {
    perfbench::CheckLog log;
    perfbench::check_jobs(5, queue, leases, 3, 1, held, log);
    expect(true, log, "jobs, consistent input");
  }
  {
    perfbench::CheckLog log;
    perfbench::check_jobs(5, {1, 5}, leases, 3, 1, held, log);  // job 3 lost
    expect(false, log, "jobs, a lost job");
  }
  {
    perfbench::CheckLog log;
    perfbench::check_jobs(5, {1, 2, 3, 5}, leases, 3, 1, held, log);  // 2 twice
    expect(false, log, "jobs, a duplicated job");
  }
  {
    perfbench::CheckLog log;
    perfbench::check_jobs(5, queue, leases, 4, 1, held, log);
    expect(false, log, "jobs, claims - releases != leases");
  }
  {
    perfbench::CheckLog log;
    perfbench::check_jobs(5, queue, {{2, 1}, {4, 1}}, 3, 1, held, log);
    expect(false, log, "jobs, a lease held by the wrong client");
  }
}

void recovery_cases() {
  const perfbench::Walk live{{1, perfbench::encode_value(1, 1)},
                             {4, perfbench::encode_value(4, 2)},
                             {9, perfbench::encode_value(9, 3)}};
  {
    perfbench::CheckLog log;
    perfbench::check_recovered(live, live, log);
    expect(true, log, "recovery, identical maps");
  }
  {
    perfbench::Walk missing = live;
    missing.erase(missing.begin() + 1);  // one acknowledged write lost
    perfbench::CheckLog log;
    perfbench::check_recovered(live, missing, log);
    expect(false, log, "recovery, one acknowledged write missing");
  }
  {
    perfbench::Walk stale = live;
    stale[2].second = perfbench::encode_value(9, 4);  // older value replayed
    perfbench::CheckLog log;
    perfbench::check_recovered(live, stale, log);
    expect(false, log, "recovery, a stale value");
  }
}

void frame_cases() {
  {
    perfbench::CheckLog log;
    perfbench::check_frames(1000, 1000, 1000, log);
    expect(true, log, "frames, balanced counts");
  }
  {
    perfbench::CheckLog log;
    perfbench::check_frames(999, 1000, 1000, log);
    expect(false, log, "frames, server count off by one");
  }
  {
    perfbench::CheckLog log;
    perfbench::check_frames(1000, 1000, 1001, log);
    expect(false, log, "frames, reply count off by one");
  }
}

}  // namespace

int main() {
  kv_cases();
  job_cases();
  recovery_cases();
  frame_cases();
  if (g_bad != 0) {
    std::fprintf(stderr, "selftest: %d case(s) misbehaved\n", g_bad);
    return 1;
  }
  return 0;
}
