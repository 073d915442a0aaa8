// Tests for the distributed, persistent evaluation tier: the MemoStore
// seam, the crash-safe on-disk DiskLogStore (bitwise persistence, torn-tail
// repair, fingerprint guard, warm-cache zero-resim runs), and the
// ProcessPoolBackend (bitwise parity with the serial path on synthetic
// functions, built-in problems and shipped decks; worker-crash isolation
// and retry; stats/hint transport over the wire).

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "circuits/netlist_problem.hpp"
#include "circuits/problems.hpp"
#include "circuits/sizing_problem.hpp"
#include "eval/cached_backend.hpp"
#include "eval/disk_log_store.hpp"
#include "eval/function_backend.hpp"
#include "eval/memo_store.hpp"
#include "eval/process_pool_backend.hpp"
#include "util/fmt.hpp"
#include "util/rng.hpp"

using namespace autockt;
using eval::EvalResult;
using eval::ParamVector;
using eval::SpecVector;

namespace fs = std::filesystem;

namespace {

/// A fresh, empty temp directory for one test.
std::string fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

/// Bitwise result comparison: ok results must carry identical double BITS
/// (NaN payloads, -0.0 and denormals included — EXPECT_EQ on doubles gets
/// all of those wrong); errors must carry the same message and code.
void expect_same_result(const EvalResult& a, const EvalResult& b,
                        const std::string& context) {
  ASSERT_EQ(a.ok(), b.ok()) << context;
  if (!a.ok()) {
    EXPECT_EQ(a.error().message, b.error().message) << context;
    EXPECT_EQ(a.error().code, b.error().code) << context;
    return;
  }
  ASSERT_EQ(a.value().size(), b.value().size()) << context;
  for (std::size_t i = 0; i < a.value().size(); ++i) {
    EXPECT_EQ(util::double_to_bits(a.value()[i]),
              util::double_to_bits(b.value()[i]))
        << context << " spec " << i;
  }
}

/// Deterministic leaf with irrational spec values, so any reordering or
/// precision loss in transport shows up as a bit mismatch.
EvalResult math_eval(const ParamVector& p) {
  double sum = 0.0;
  for (std::size_t i = 0; i < p.size(); ++i) {
    sum += std::sin(static_cast<double>(p[i]) * 1.7 +
                    static_cast<double>(i) * 0.3);
  }
  return SpecVector{sum, std::sqrt(std::fabs(sum) + 0.5), sum * 1e-300};
}

ParamVector key(std::initializer_list<int> v) { return ParamVector(v); }

std::vector<ParamVector> sample_points(const circuits::SizingProblem& prob,
                                       int count, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<ParamVector> points;
  for (int n = 0; n < count; ++n) {
    ParamVector p(prob.params.size());
    for (std::size_t i = 0; i < p.size(); ++i) {
      p[i] = static_cast<int>(rng.bounded(
          static_cast<std::uint64_t>(prob.params[i].grid_size())));
    }
    points.push_back(std::move(p));
  }
  return points;
}

/// Same points through both problems, batched AND one-by-one, bitwise.
void expect_problem_parity(const circuits::SizingProblem& pooled,
                           const circuits::SizingProblem& serial, int count,
                           const std::string& label) {
  auto points = sample_points(serial, count, 0xace0 + count);
  points.push_back(serial.center_params());
  const auto rp = pooled.evaluate_batch(points);
  const auto rs = serial.evaluate_batch(points);
  ASSERT_EQ(rp.size(), rs.size()) << label;
  for (std::size_t i = 0; i < points.size(); ++i) {
    expect_same_result(rp[i], rs[i],
                       label + " batch point " + std::to_string(i));
  }
  expect_same_result(pooled.evaluate(points[0]), rs[0],
                     label + " scalar point");
}

}  // namespace

// ---------------------------------------------------------------- MemoStore

TEST(MemoStore, InMemoryInsertLookupCountsAndClear) {
  eval::InMemoryStore store(4);
  EXPECT_FALSE(store.persistent());
  EXPECT_EQ(store.describe(), "memory");
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.approx_size(), 0u);

  EXPECT_TRUE(store.insert(key({1, 2}), EvalResult(SpecVector{3.0})));
  // Second insert for the same key loses the race; first value wins.
  EXPECT_FALSE(store.insert(key({1, 2}), EvalResult(SpecVector{99.0})));
  EXPECT_TRUE(store.insert(key({666}), EvalResult(util::Error{"nope", 7})));
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.approx_size(), 2u);

  EvalResult out = SpecVector{};
  bool replayed = true;
  ASSERT_TRUE(store.lookup(key({1, 2}), &out, &replayed));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value(), SpecVector{3.0});
  EXPECT_FALSE(replayed);  // inserted this run, not replayed from disk

  ASSERT_TRUE(store.lookup(key({666}), &out));
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.error().code, 7);
  EXPECT_FALSE(store.lookup(key({9, 9}), &out));

  // insert_replayed marks the entry as a disk hit for later lookups.
  EXPECT_TRUE(store.insert_replayed(key({5}), EvalResult(SpecVector{1.0})));
  ASSERT_TRUE(store.lookup(key({5}), &out, &replayed));
  EXPECT_TRUE(replayed);

  store.clear();
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.approx_size(), 0u);
  EXPECT_FALSE(store.lookup(key({1, 2}), &out));
}

TEST(MemoStore, Fingerprint64IsStable) {
  // Pin the exact hash values: fingerprints are persisted in cache file
  // headers, so the function (including its house seed constant, which
  // predates this layer and is NOT the textbook FNV offset basis) must
  // never drift — a drift would orphan every existing cache directory.
  EXPECT_EQ(eval::fingerprint64(""), 1469598103934665603ULL);
  EXPECT_EQ(eval::fingerprint64("abc"), 16242233503745875709ULL);
  EXPECT_NE(eval::fingerprint64("abc"), eval::fingerprint64("abd"));
  // Seeded chaining composes: fp(a+b) == fp(b, fp(a)).
  EXPECT_EQ(eval::fingerprint64("abc"),
            eval::fingerprint64("bc", eval::fingerprint64("a")));
}

// ---------------------------------------------------------------- DiskLogStore

TEST(DiskLogStore, PersistsBitwiseAcrossReopen) {
  const std::string dir = fresh_dir("autockt_disklog_roundtrip");
  const std::uint64_t fp = 0x1234abcdULL;

  // Spec values chosen to break any text round trip that is not bit-exact.
  const EvalResult awkward(SpecVector{
      -0.0, std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::infinity(),
      util::bits_to_double(0x7ff8deadbeef1234ULL),  // NaN with payload
      1.0 / 3.0});
  const EvalResult failure(util::Error{"DC failed to converge", 42});
  const EvalResult empty_msg(util::Error{"", 3});

  {
    auto store = eval::DiskLogStore::open(dir, fp);
    ASSERT_TRUE(store.ok()) << store.error().message;
    EXPECT_TRUE((*store)->persistent());
    EXPECT_EQ((*store)->replayed_entries(), 0u);
    EXPECT_TRUE((*store)->insert(key({0, 1}), awkward));
    EXPECT_TRUE((*store)->insert(key({2}), failure));
    EXPECT_TRUE((*store)->insert(key({3}), empty_msg));
    EXPECT_FALSE((*store)->insert(key({2}), awkward));  // first value wins
    EXPECT_EQ((*store)->size(), 3u);
  }

  auto store = eval::DiskLogStore::open(dir, fp);
  ASSERT_TRUE(store.ok()) << store.error().message;
  EXPECT_EQ((*store)->replayed_entries(), 3u);
  EXPECT_EQ((*store)->size(), 3u);

  EvalResult out = SpecVector{};
  bool replayed = false;
  ASSERT_TRUE((*store)->lookup(key({0, 1}), &out, &replayed));
  EXPECT_TRUE(replayed);
  expect_same_result(out, awkward, "awkward specs");
  ASSERT_TRUE((*store)->lookup(key({2}), &out));
  expect_same_result(out, failure, "memoized failure");
  ASSERT_TRUE((*store)->lookup(key({3}), &out));
  expect_same_result(out, empty_msg, "empty error message");

  // An insert made after reopen is NOT a replayed entry.
  EXPECT_TRUE((*store)->insert(key({7}), EvalResult(SpecVector{7.0})));
  ASSERT_TRUE((*store)->lookup(key({7}), &out, &replayed));
  EXPECT_FALSE(replayed);
}

TEST(DiskLogStore, RefusesForeignFingerprint) {
  const std::string dir = fresh_dir("autockt_disklog_guard");
  {
    auto store = eval::DiskLogStore::open(dir, 0xAAAA);
    ASSERT_TRUE(store.ok());
    (*store)->insert(key({1}), EvalResult(SpecVector{1.0}));
  }
  // Different problem definition: refuse rather than serve wrong results.
  auto wrong = eval::DiskLogStore::open(dir, 0xBBBB);
  ASSERT_FALSE(wrong.ok());
  EXPECT_NE(wrong.error().message.find("fingerprint"), std::string::npos)
      << wrong.error().message;
  // The right fingerprint still opens and still has the data.
  auto right = eval::DiskLogStore::open(dir, 0xAAAA);
  ASSERT_TRUE(right.ok()) << right.error().message;
  EXPECT_EQ((*right)->replayed_entries(), 1u);
}

TEST(DiskLogStore, TornTailIsTruncatedToLastGoodRecord) {
  const std::string dir = fresh_dir("autockt_disklog_torn");
  eval::DiskLogStore::Options opts;
  opts.file_shards = 1;  // everything in memo-0.log so the test can cut it
  opts.fsync_every = 1;
  {
    auto store = eval::DiskLogStore::open(dir, 0xF00D, opts);
    ASSERT_TRUE(store.ok());
    (*store)->insert(key({1}), EvalResult(SpecVector{1.5}));
    (*store)->insert(key({2}), EvalResult(SpecVector{2.5}));
    (*store)->insert(key({3}), EvalResult(SpecVector{3.5}));
  }

  // Simulate a crash mid-append: cut the last record mid-byte.
  const fs::path log = fs::path(dir) / "memo-0.log";
  const auto full_size = fs::file_size(log);
  fs::resize_file(log, full_size - 5);

  {
    auto store = eval::DiskLogStore::open(dir, 0xF00D, opts);
    ASSERT_TRUE(store.ok()) << store.error().message;
    EXPECT_EQ((*store)->replayed_entries(), 2u);
    EvalResult out = SpecVector{};
    EXPECT_TRUE((*store)->lookup(key({1}), &out));
    EXPECT_TRUE((*store)->lookup(key({2}), &out));
    EXPECT_FALSE((*store)->lookup(key({3}), &out));  // the torn one
    // The file was repaired in place: the torn bytes are gone, and the next
    // append lands on a clean boundary.
    EXPECT_LT(fs::file_size(log), full_size - 5);
    EXPECT_TRUE((*store)->insert(key({3}), EvalResult(SpecVector{3.5})));
  }

  auto store = eval::DiskLogStore::open(dir, 0xF00D, opts);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ((*store)->replayed_entries(), 3u);
}

TEST(DiskLogStore, CorruptRecordDropsItAndTheTail) {
  const std::string dir = fresh_dir("autockt_disklog_corrupt");
  eval::DiskLogStore::Options opts;
  opts.file_shards = 1;
  {
    auto store = eval::DiskLogStore::open(dir, 0xBEEF, opts);
    ASSERT_TRUE(store.ok());
    (*store)->insert(key({1}), EvalResult(SpecVector{1.0}));
    (*store)->insert(key({2}), EvalResult(SpecVector{2.0}));
    (*store)->insert(key({3}), EvalResult(SpecVector{3.0}));
  }

  // Flip one hex digit inside the SECOND record's spec payload: its
  // checksum no longer matches, so replay must stop before it.
  const fs::path log = fs::path(dir) / "memo-0.log";
  std::string text;
  {
    std::ifstream in(log, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    text = buf.str();
  }
  const std::size_t second = text.find("\nR ", text.find("\nR ") + 1) + 1;
  ASSERT_NE(second, std::string::npos);
  const std::size_t payload = text.find(" S ", second) + 3;
  text[payload + 4] = text[payload + 4] == '0' ? '1' : '0';
  {
    std::ofstream out(log, std::ios::binary | std::ios::trunc);
    out << text;
  }

  auto store = eval::DiskLogStore::open(dir, 0xBEEF, opts);
  ASSERT_TRUE(store.ok()) << store.error().message;
  // Only the record BEFORE the corruption survives; the checksum failure
  // truncates everything from the bad record on (append-only log, so
  // nothing after a bad record can be trusted to start on a boundary).
  EXPECT_EQ((*store)->replayed_entries(), 1u);
  EvalResult out = SpecVector{};
  EXPECT_TRUE((*store)->lookup(key({1}), &out));
  EXPECT_FALSE((*store)->lookup(key({2}), &out));
  EXPECT_FALSE((*store)->lookup(key({3}), &out));
}

// The satellite crash-safety scenario end to end: run, crash mid-append,
// reopen, re-run. The second run re-simulates ONLY the torn-off point; a
// third run costs zero simulator invocations.
TEST(DiskLogStore, WarmCacheRunsCostZeroSimulationsAfterTornTailRepair) {
  const std::string dir = fresh_dir("autockt_disklog_zero_resim");
  eval::DiskLogStore::Options opts;
  opts.file_shards = 1;
  const std::uint64_t fp = 0x5EED;

  auto calls = std::make_shared<std::atomic<long>>(0);
  auto make_leaf = [calls]() {
    return std::make_shared<eval::FunctionBackend>(
        [calls](const ParamVector& p) -> EvalResult {
          calls->fetch_add(1);
          return math_eval(p);
        },
        "counting");
  };
  // The same fixed-seed workload every run.
  std::vector<ParamVector> points;
  util::Rng rng(1234);
  for (int n = 0; n < 8; ++n) {
    points.push_back(
        {static_cast<int>(rng.bounded(50)), static_cast<int>(rng.bounded(50)),
         static_cast<int>(rng.bounded(50))});
  }

  std::vector<EvalResult> first;
  {
    auto store = eval::DiskLogStore::open(dir, fp, opts);
    ASSERT_TRUE(store.ok());
    eval::CachedBackend cached(make_leaf(), *store);
    first = cached.evaluate_batch(points);
    EXPECT_EQ(calls->load(), 8);
    EXPECT_EQ(cached.stats().disk_appends, 8);
    EXPECT_EQ(cached.stats().disk_hits, 0);
  }

  // Crash: the tail record is torn mid-byte.
  const fs::path log = fs::path(dir) / "memo-0.log";
  fs::resize_file(log, fs::file_size(log) - 3);

  calls->store(0);
  {
    auto store = eval::DiskLogStore::open(dir, fp, opts);
    ASSERT_TRUE(store.ok()) << store.error().message;
    EXPECT_EQ((*store)->replayed_entries(), 7u);
    eval::CachedBackend cached(make_leaf(), *store);
    const auto second = cached.evaluate_batch(points);
    // Exactly the torn-off point was re-simulated; everything replayed is
    // bitwise what the first run produced.
    EXPECT_EQ(calls->load(), 1);
    EXPECT_EQ(cached.stats().disk_hits, 7);
    for (std::size_t i = 0; i < points.size(); ++i) {
      expect_same_result(second[i], first[i],
                         "post-repair point " + std::to_string(i));
    }
  }

  calls->store(0);
  {
    auto store = eval::DiskLogStore::open(dir, fp, opts);
    ASSERT_TRUE(store.ok());
    EXPECT_EQ((*store)->replayed_entries(), 8u);
    eval::CachedBackend cached(make_leaf(), *store);
    const auto third = cached.evaluate_batch(points);
    EXPECT_EQ(calls->load(), 0) << "warm cache must cost zero simulations";
    EXPECT_EQ(cached.stats().simulations, 0);
    EXPECT_EQ(cached.stats().disk_hits, 8);
    for (std::size_t i = 0; i < points.size(); ++i) {
      expect_same_result(third[i], first[i],
                         "warm point " + std::to_string(i));
    }
  }
}

// ---------------------------------------------------------------- ProcessPool

TEST(ProcessPool, MatchesSerialBitwiseInInputOrder) {
  eval::ProcessPoolBackend::Options opts;
  opts.workers = 4;
  eval::ProcessPoolBackend pool(
      []() {
        return std::make_shared<eval::FunctionBackend>(math_eval, "math");
      },
      opts);
  EXPECT_EQ(pool.num_workers(), 4u);
  EXPECT_EQ(pool.name(), "procpool[4](worker)");

  eval::FunctionBackend serial(math_eval, "math");

  // 23 points: deliberately not divisible by 4, so shard boundaries and
  // reassembly order are both exercised.
  std::vector<ParamVector> points;
  for (int n = 0; n < 23; ++n) points.push_back({n, n * 3 + 1, 7 - n});
  const auto rp = pool.evaluate_batch(points);
  const auto rs = serial.evaluate_batch(points);
  ASSERT_EQ(rp.size(), 23u);
  for (std::size_t i = 0; i < points.size(); ++i) {
    expect_same_result(rp[i], rs[i], "point " + std::to_string(i));
  }
  expect_same_result(pool.evaluate({5, 16, 2}), serial.evaluate({5, 16, 2}),
                     "scalar evaluate");

  // Work done in children is visible in the parent's stats (the reply
  // carries an EvalStats delta): 23 batched + 1 scalar simulations.
  const auto stats = pool.stats();
  EXPECT_EQ(stats.simulations, 24);
  EXPECT_GE(stats.worker_dispatches, 4);
  EXPECT_EQ(stats.worker_restarts, 0);
  EXPECT_EQ(stats.worker_retries, 0);
}

TEST(ProcessPool, ErrorsAndHintsTravelTheWire) {
  eval::ProcessPoolBackend::Options opts;
  opts.workers = 2;
  eval::ProcessPoolBackend pool(
      []() {
        return std::make_shared<eval::FunctionBackend>(
            [](const ParamVector& p, eval::OpHint* hint) -> EvalResult {
              if (!p.empty() && p[0] == 666) {
                return util::Error{"injected failure", 7};
              }
              if (hint != nullptr) {
                hint->valid = true;
                hint->node_v = {0.25, -0.0,
                                static_cast<double>(p.empty() ? 0 : p[0])};
                hint->branch_i = {1e-9};
              }
              return math_eval(p);
            },
            "hinted");
      },
      opts);

  // Error results come back with message and code intact.
  const auto bad = pool.evaluate({666});
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().message, "injected failure");
  EXPECT_EQ(bad.error().code, 7);

  // A mixed batch: failures and successes keep their slots.
  const auto mixed = pool.evaluate_batch({{1, 2}, {666}, {3, 4}});
  ASSERT_EQ(mixed.size(), 3u);
  EXPECT_TRUE(mixed[0].ok());
  EXPECT_FALSE(mixed[1].ok());
  EXPECT_TRUE(mixed[2].ok());
  expect_same_result(mixed[0], math_eval({1, 2}), "mixed slot 0");

  // The child's hint write-back is copied into the caller's SimHint.
  eval::SimHint hint;
  const auto r = pool.evaluate({9, 9}, &hint);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(hint.ops.size(), 1u);
  EXPECT_TRUE(hint.ops[0].valid);
  ASSERT_EQ(hint.ops[0].node_v.size(), 3u);
  EXPECT_EQ(util::double_to_bits(hint.ops[0].node_v[1]),
            util::double_to_bits(-0.0));
  EXPECT_EQ(hint.ops[0].node_v[2], 9.0);
  EXPECT_EQ(hint.ops[0].branch_i, std::vector<double>{1e-9});
}

TEST(ProcessPool, CrashedWorkerIsReplacedAndPoisonPointIsolated) {
  eval::ProcessPoolBackend::Options opts;
  opts.workers = 2;
  eval::ProcessPoolBackend pool(
      []() {
        return std::make_shared<eval::FunctionBackend>(
            [](const ParamVector& p) -> EvalResult {
              // A poison point that reliably kills its worker process —
              // _exit, not an exception, so no error path can save it.
              if (!p.empty() && p[0] == -1) _exit(9);
              return math_eval(p);
            },
            "poisoned");
      },
      opts);

  // One poison point among innocents: the chunk retry isolates it to one
  // error result; every other point still evaluates.
  const auto results = pool.evaluate_batch({{1}, {-1}, {2}, {3}});
  ASSERT_EQ(results.size(), 4u);
  expect_same_result(results[0], math_eval({1}), "innocent 0");
  ASSERT_FALSE(results[1].ok());
  EXPECT_EQ(results[1].error().code, 70);
  expect_same_result(results[2], math_eval({2}), "innocent 2");
  expect_same_result(results[3], math_eval({3}), "innocent 3");

  const auto stats = pool.stats();
  EXPECT_GE(stats.worker_restarts, 1);
  EXPECT_GE(stats.worker_retries, 1);

  // The pool healed: the replacement worker serves the next request.
  expect_same_result(pool.evaluate({42}), math_eval({42}), "after crash");
}

TEST(ProcessPool, TransportErrorsAreNeverMemoized) {
  // A worker crash/timeout produces a kTransportErrorCode result. That is a
  // statement about the infrastructure, not the design point — memoizing it
  // (worse: durably, via a DiskLogStore) would replay the spurious error on
  // every revisit instead of re-simulating.
  auto calls = std::make_shared<std::atomic<int>>(0);
  auto flaky = std::make_shared<eval::FunctionBackend>(
      [calls](const ParamVector& p) -> EvalResult {
        if (!p.empty() && p[0] == 666) {
          return util::Error{"did not converge", 7};  // a simulator verdict
        }
        if (calls->fetch_add(1) == 0) {
          // First evaluation: what run_on_worker synthesizes after a failed
          // retry.
          return util::Error{"process pool: worker crashed or timed out",
                             eval::kTransportErrorCode};
        }
        return math_eval(p);
      },
      "flaky");

  const std::string dir = fresh_dir("transport-error-cache");
  auto opened = eval::DiskLogStore::open(dir, /*fingerprint=*/0xfeed);
  ASSERT_TRUE(opened.ok());
  eval::CachedBackend cached(flaky, opened.value());

  const auto first = cached.evaluate({4, 2});
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(first.error().code, eval::kTransportErrorCode);
  EXPECT_EQ(cached.size(), 0u) << "transport failure must not be cached";
  EXPECT_EQ(cached.stats().disk_appends, 0);

  // The revisit re-simulates (and the healthy result IS memoized).
  const auto second = cached.evaluate({4, 2});
  ASSERT_TRUE(second.ok());
  expect_same_result(second, math_eval({4, 2}), "healed revisit");
  EXPECT_EQ(calls->load(), 2);
  EXPECT_EQ(cached.size(), 1u);

  // Simulator verdicts, by contrast, stay memoized — including on disk.
  const auto verdict = cached.evaluate({666});
  ASSERT_FALSE(verdict.ok());
  EXPECT_EQ(verdict.error().code, 7);
  EXPECT_EQ(cached.size(), 2u);
  cached.flush();
  auto reopened = eval::DiskLogStore::open(dir, /*fingerprint=*/0xfeed);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened.value()->replayed_entries(), 2u)
      << "only the success and the simulator verdict may persist";
}

// ---------------------------------------------------------- problem parity

namespace {

circuits::ProblemOptions serial_options() {
  circuits::ProblemOptions o;
  o.cache = false;
  return o;
}

circuits::ProblemOptions pooled_options(std::size_t workers) {
  circuits::ProblemOptions o = serial_options();
  o.eval_workers = workers;
  return o;
}

}  // namespace

TEST(ProcessPoolProblemParity, BuiltinProblems) {
  expect_problem_parity(circuits::make_tia_problem(pooled_options(4)),
                        circuits::make_tia_problem(serial_options()), 5,
                        "tia");
  expect_problem_parity(circuits::make_two_stage_problem(pooled_options(4)),
                        circuits::make_two_stage_problem(serial_options()), 5,
                        "two_stage");
  expect_problem_parity(circuits::make_ngm_problem(pooled_options(4)),
                        circuits::make_ngm_problem(serial_options()), 5,
                        "ngm_ota");
  // PEX: each worker runs its shard's corners as lanes and folds them; the
  // worst case must still match the in-process stack.
  expect_problem_parity(circuits::make_ngm_pex_problem(pooled_options(4)),
                        circuits::make_ngm_pex_problem(serial_options()), 2,
                        "ngm_ota_pex");
}

TEST(ProcessPoolProblemParity, ShippedDecks) {
  const std::string dir = std::string(AUTOCKT_SOURCE_DIR) + "/examples/decks";
  for (const char* deck :
       {"rc_buffer.cir", "common_source.cir", "five_t_ota.cir"}) {
    const std::string path = dir + "/" + deck;
    auto pooled =
        circuits::make_netlist_problem_from_file(path, pooled_options(4));
    ASSERT_TRUE(pooled.ok()) << deck << ": " << pooled.error().message;
    auto serial =
        circuits::make_netlist_problem_from_file(path, serial_options());
    ASSERT_TRUE(serial.ok()) << deck;
    expect_problem_parity(*pooled, *serial, 4, deck);
  }
}

// ------------------------------------------------------- problem-level cache

TEST(ProblemDiskCache, WarmRunCostsZeroSimulations) {
  const std::string dir = fresh_dir("autockt_problem_cache");
  circuits::ProblemOptions options = serial_options();
  options.cache = true;
  options.cache_path = dir;

  const auto points = [&] {
    auto prob = circuits::make_tia_problem(options);
    auto pts = sample_points(prob, 4, 99);
    pts.push_back(prob.center_params());
    const auto cold = prob.evaluate_batch(pts);
    for (const auto& r : cold) EXPECT_TRUE(r.ok());
    EXPECT_GT(prob.backend->stats().simulations, 0);
    EXPECT_EQ(prob.backend->stats().disk_appends,
              static_cast<long>(pts.size()));
    return pts;
  }();

  // A brand-new problem over the same directory: every point replays from
  // disk, the leaf simulator is never invoked.
  auto warm = circuits::make_tia_problem(options);
  const auto results = warm.evaluate_batch(points);
  for (const auto& r : results) EXPECT_TRUE(r.ok());
  const auto stats = warm.backend->stats();
  EXPECT_EQ(stats.simulations, 0) << "warm cache must cost zero simulations";
  EXPECT_EQ(stats.disk_hits, static_cast<long>(points.size()));
  EXPECT_EQ(stats.cache_hits, static_cast<long>(points.size()));
}

TEST(ProblemDiskCache, RefusesCacheOfDifferentProblem) {
  const std::string dir = fresh_dir("autockt_problem_cache_guard");
  circuits::ProblemOptions options = serial_options();
  options.cache = true;
  options.cache_path = dir;
  { auto prob = circuits::make_tia_problem(options); }
  // Same directory, different problem definition: construction must fail
  // loudly instead of replaying the TIA's memo into the op-amp.
  EXPECT_THROW(circuits::make_two_stage_problem(options), std::runtime_error);
  // Deck problems surface the same refusal as an Error, not a throw.
  const std::string deck_path =
      std::string(AUTOCKT_SOURCE_DIR) + "/examples/decks/rc_buffer.cir";
  auto deck = circuits::make_netlist_problem_from_file(deck_path, options);
  ASSERT_FALSE(deck.ok());
  EXPECT_NE(deck.error().message.find("fingerprint"), std::string::npos)
      << deck.error().message;
}
