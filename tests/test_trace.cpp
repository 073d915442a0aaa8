// Tests for the span/trace layer (src/trace/): nesting and parent links,
// the runtime enable switch, fixed-seed record-count determinism through
// the full request path (characterization and PPO training), merge
// determinism when several threads drive one backend, the JSONL export schema,
// and the OBSERVABILITY.md glossary cross-check against the name registry
// and EvalStats::fields(). Every determinism assertion is on per-name
// record COUNTS — durations, thread ordinals and interleavings are
// explicitly outside the contract (see trace.hpp).
//
// When the layer is compiled out (-DAUTOCKT_TRACE=OFF) the recording tests
// skip and CompiledOutModeIsInert checks the empty-inline API instead; the
// file must compile in both configurations.

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "autockt/autockt.hpp"
#include "circuits/problems.hpp"
#include "circuits/synthetic.hpp"
#include "eval/function_backend.hpp"
#include "trace/names.hpp"
#include "trace/trace.hpp"
#include "util/json.hpp"

using namespace autockt;
using trace::RecordKind;
using trace::TraceRecord;

namespace {

/// RAII guard: every test leaves the process-wide recorder disabled and
/// empty, whatever path it exits through.
struct RecorderGuard {
  RecorderGuard() {
    trace::recorder().set_enabled(false);
    trace::recorder().reset();
  }
  ~RecorderGuard() {
    trace::recorder().set_enabled(false);
    trace::recorder().reset();
  }
};

bool compiled_in_or_skip() { return trace::compiled_in(); }

circuits::ProblemOptions serial_options() {
  circuits::ProblemOptions options;
  options.cache = false;
  return options;
}

/// Fixed-seed 2-iteration synthetic training run with one lane group
/// (num_workers=1, so collection and the holdout probe run on the calling
/// thread), traced end to end; returns the per-name record counts.
std::map<std::string, long> traced_training_counts() {
  auto problem = std::make_shared<const circuits::SizingProblem>(
      circuits::make_synthetic_problem(3, 21));
  core::AutoCktConfig config;
  config.seed = 3;
  config.env_config.horizon = 10;
  config.train_target_count = 6;
  config.ppo.max_iterations = 2;
  config.ppo.steps_per_iteration = 200;
  config.ppo.num_workers = 1;
  config.ppo.envs_per_worker = 4;
  config.holdout_target_count = 4;
  config.holdout_interval = 1;
  auto& rec = trace::recorder();
  rec.reset();
  rec.set_enabled(true);
  core::train_agent(problem, config);
  rec.set_enabled(false);
  return rec.counts_by_name();
}

}  // namespace

TEST(Trace, CompiledOutModeIsInert) {
  if (trace::compiled_in()) {
    GTEST_SKIP() << "trace layer compiled in; covered by the other tests";
  }
  RecorderGuard guard;
  auto& rec = trace::recorder();
  rec.set_enabled(true);
  {
    trace::TraceSpan span(trace::names::kEnvTick);
    trace::counter(trace::names::kEvalCacheHit, 2);
  }
  EXPECT_TRUE(rec.snapshot().empty());
  EXPECT_TRUE(rec.counts_by_name().empty());
}

TEST(Trace, DisabledRecorderProducesNoRecords) {
  if (!compiled_in_or_skip()) GTEST_SKIP() << "trace layer compiled out";
  RecorderGuard guard;
  {
    trace::TraceSpan span(trace::names::kEnvTick);
    trace::counter(trace::names::kEvalCacheHit);
  }
  EXPECT_TRUE(trace::recorder().snapshot().empty());
}

TEST(Trace, NestedSpansRecordParentsAndDepths) {
  if (!compiled_in_or_skip()) GTEST_SKIP() << "trace layer compiled out";
  RecorderGuard guard;
  auto& rec = trace::recorder();
  rec.set_enabled(true);
  {
    trace::TraceSpan outer(trace::names::kRlIteration);
    trace::counter(trace::names::kEvalCacheHit, 3);
    {
      trace::TraceSpan inner(trace::names::kRlCollect);
      trace::counter(trace::names::kEvalCacheMiss);
    }
  }
  rec.set_enabled(false);

  const std::vector<TraceRecord> records = rec.snapshot();
  ASSERT_EQ(records.size(), 4u);  // single thread: already in seq order

  const TraceRecord& outer = records[0];
  EXPECT_STREQ(outer.name, trace::names::kRlIteration);
  EXPECT_EQ(outer.kind, RecordKind::Span);
  EXPECT_EQ(outer.parent, -1);
  EXPECT_EQ(outer.depth, 0u);

  const TraceRecord& hit = records[1];
  EXPECT_STREQ(hit.name, trace::names::kEvalCacheHit);
  EXPECT_EQ(hit.kind, RecordKind::Counter);
  EXPECT_EQ(hit.value, 3);
  EXPECT_EQ(hit.parent, static_cast<std::int64_t>(outer.seq));
  EXPECT_EQ(hit.depth, 1u);

  const TraceRecord& inner = records[2];
  EXPECT_STREQ(inner.name, trace::names::kRlCollect);
  EXPECT_EQ(inner.parent, static_cast<std::int64_t>(outer.seq));
  EXPECT_EQ(inner.depth, 1u);
  EXPECT_LE(inner.duration_ns, outer.duration_ns);

  const TraceRecord& miss = records[3];
  EXPECT_EQ(miss.parent, static_cast<std::int64_t>(inner.seq));
  EXPECT_EQ(miss.depth, 2u);
}

TEST(Trace, CharacterizationCountsAreDeterministic) {
  if (!compiled_in_or_skip()) GTEST_SKIP() << "trace layer compiled out";
  RecorderGuard guard;
  const auto prob = circuits::make_tia_problem(serial_options());
  const auto center = prob.center_params();
  // Warm the thread-local workspace (and its one-off symbolic
  // factorization) outside the traced window: workspace construction
  // happens once per (thread, topology), so tracing it would make run A
  // and run B disagree by design, not by bug.
  ASSERT_TRUE(prob.evaluate(center).ok());

  auto& rec = trace::recorder();
  const auto run = [&] {
    rec.reset();
    rec.set_enabled(true);
    for (int i = 0; i < 3; ++i) EXPECT_TRUE(prob.evaluate(center).ok());
    rec.set_enabled(false);
    return rec.counts_by_name();
  };
  const auto first = run();
  const auto second = run();
  EXPECT_EQ(first, second);
  ASSERT_TRUE(first.count(trace::names::kEvalSimulate));
  EXPECT_EQ(first.at(trace::names::kEvalSimulate), 3);
  EXPECT_GT(first.at(trace::names::kSimNewtonIterations), 0);
  EXPECT_GT(first.at(trace::names::kSimSolveComplex), 0);
  // Every design is a one-lane pass of the one kernel: each Newton
  // iteration restamps one lane and writes one factor and one solve span,
  // and each evaluation restamps its one lane once for AC and once for
  // noise.
  const long newton = first.at(trace::names::kSimNewtonIterations);
  EXPECT_EQ(first.at(trace::names::kSimRestampReal), newton);
  EXPECT_EQ(first.at(trace::names::kSimFactorReal), newton);
  EXPECT_EQ(first.at(trace::names::kSimSolveReal), newton);
  EXPECT_EQ(first.at(trace::names::kSimRestampComplex), 2 * 3);
  EXPECT_EQ(first.at(trace::names::kSimSolveComplex),
            first.at(trace::names::kSimFactorComplex));
}

TEST(Trace, SinglePointRunsAsOneLaneOnTheDefaultStack) {
  // The factory-default schematic stack is Cached(Function): a cache miss
  // nests two eval/evaluate spans, and its one-lane batch writes four trace
  // records per Newton iteration: the Newton and restamp counters and one
  // factor and one solve span.
  if (!compiled_in_or_skip()) GTEST_SKIP() << "trace layer compiled out";
  RecorderGuard guard;
  const auto prob = circuits::make_tia_problem();
  auto point = prob.center_params();
  ASSERT_TRUE(prob.evaluate(point).ok());  // warm the workspace
  point[0] += 1;

  auto& rec = trace::recorder();
  rec.set_enabled(true);
  ASSERT_TRUE(prob.evaluate(point).ok());
  rec.set_enabled(false);
  auto counts = rec.counts_by_name();
  EXPECT_EQ(counts[trace::names::kEvalEvaluate], 2);
  EXPECT_EQ(counts[trace::names::kEvalSimulate], 1);
  EXPECT_GT(counts[trace::names::kSimFactorComplex], 0);
  const long newton = counts[trace::names::kSimNewtonIterations];
  EXPECT_GT(newton, 0);
  EXPECT_EQ(counts[trace::names::kSimRestampReal], newton);
  EXPECT_EQ(counts[trace::names::kSimFactorReal], newton);
  EXPECT_EQ(counts[trace::names::kSimSolveReal], newton);
  EXPECT_EQ(counts[trace::names::kSimDenseFallback], 0);
}

TEST(Trace, TrainingCountsAreDeterministic) {
  if (!compiled_in_or_skip()) GTEST_SKIP() << "trace layer compiled out";
  RecorderGuard guard;
  const auto first = traced_training_counts();
  const auto second = traced_training_counts();
  EXPECT_EQ(first, second);
  ASSERT_TRUE(first.count(trace::names::kRlIteration));
  EXPECT_EQ(first.at(trace::names::kRlIteration), 2);
  EXPECT_EQ(first.at(trace::names::kRlCollect), 2);
  EXPECT_EQ(first.at(trace::names::kRlValuePass), 2);
  EXPECT_EQ(first.at(trace::names::kRlUpdate), 2);
  EXPECT_EQ(first.at(trace::names::kRlHoldoutProbe), 2);
  EXPECT_GT(first.at(trace::names::kEnvTick), 0);
}

TEST(Trace, ThreadedBackendMergeIsDeterministic) {
  if (!compiled_in_or_skip()) GTEST_SKIP() << "trace layer compiled out";
  RecorderGuard guard;
  eval::FunctionBackend backend(
      [](const eval::ParamVector& p) -> eval::EvalResult {
        return eval::SpecVector{static_cast<double>(p[0] + p[1])};
      });

  constexpr int kThreads = 4;
  constexpr int kPointsPerThread = 3;
  auto& rec = trace::recorder();
  const auto run = [&] {
    rec.reset();
    rec.set_enabled(true);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&backend, t] {
        std::vector<eval::ParamVector> points;
        for (int i = 0; i < kPointsPerThread; ++i) {
          points.push_back({t, i});
        }
        const auto results = backend.evaluate_batch(points);
        EXPECT_EQ(results.size(), points.size());
      });
    }
    for (auto& th : threads) th.join();
    rec.set_enabled(false);
    return rec.counts_by_name();
  };
  const auto first = run();
  const auto second = run();
  // How the threads interleave varies run to run; the merged per-name
  // counts must not.
  EXPECT_EQ(first, second);
  ASSERT_TRUE(first.count(trace::names::kEvalSimulate));
  EXPECT_EQ(first.at(trace::names::kEvalSimulate),
            kThreads * kPointsPerThread);
  EXPECT_EQ(first.at(trace::names::kEvalEvaluateBatch), kThreads);
}

TEST(Trace, JsonlExportRoundTrips) {
  if (!compiled_in_or_skip()) GTEST_SKIP() << "trace layer compiled out";
  RecorderGuard guard;
  auto& rec = trace::recorder();
  rec.set_enabled(true);
  {
    trace::TraceSpan outer(trace::names::kDeployRun);
    trace::counter(trace::names::kEvalBatchPoints, 7);
    trace::TraceSpan inner(trace::names::kEnvReset);
  }
  rec.set_enabled(false);

  std::ostringstream out;
  rec.write_jsonl(out);
  std::istringstream in(out.str());
  std::string line;

  ASSERT_TRUE(std::getline(in, line));
  auto header = util::JsonValue::parse(line);
  ASSERT_TRUE(header.ok()) << header.error().message;
  EXPECT_EQ(header->find("type")->as_string(), "header");
  EXPECT_EQ(header->find("schema")->as_string(), "autockt-trace-v1");
  ASSERT_NE(header->find("record_count"), nullptr);
  const long expected =
      static_cast<long>(header->find("record_count")->as_number());
  EXPECT_EQ(expected, 3);
  ASSERT_NE(header->find("thread_count"), nullptr);

  long seen = 0;
  long counters = 0;
  while (std::getline(in, line)) {
    auto record = util::JsonValue::parse(line);
    ASSERT_TRUE(record.ok()) << record.error().message;
    const std::string type = record->find("type")->as_string();
    ASSERT_TRUE(type == "span" || type == "counter");
    for (const char* key : {"name", "thread", "seq", "parent", "depth",
                            "start_ns"}) {
      EXPECT_NE(record->find(key), nullptr) << key;
    }
    if (type == "span") {
      EXPECT_NE(record->find("dur_ns"), nullptr);
    } else {
      ++counters;
      EXPECT_EQ(record->find("value")->as_number(), 7.0);
    }
    ++seen;
  }
  EXPECT_EQ(seen, expected);
  EXPECT_EQ(counters, 1);
}

TEST(Trace, WriteJsonlFileCreatesParseableFile) {
  if (!compiled_in_or_skip()) GTEST_SKIP() << "trace layer compiled out";
  RecorderGuard guard;
  auto& rec = trace::recorder();
  rec.set_enabled(true);
  { trace::TraceSpan span(trace::names::kEnvTick); }
  rec.set_enabled(false);

  const std::string path = ::testing::TempDir() + "trace_roundtrip.jsonl";
  ASSERT_TRUE(rec.write_jsonl_file(path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  auto header = util::JsonValue::parse(line);
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(header->find("record_count")->as_number(), 1.0);
}

// ---- documentation cross-checks -------------------------------------------

namespace {

std::string read_doc(const std::string& relative) {
  std::ifstream in(std::string(AUTOCKT_SOURCE_DIR) + "/" + relative);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

}  // namespace

/// OBSERVABILITY.md's glossary must document every exported span/counter
/// name (as `name` in backticks) — the registry is the source of truth, so
/// adding a name without documenting it fails here.
TEST(Trace, ObservabilityGlossaryCoversNameRegistry) {
  const std::string doc = read_doc("docs/OBSERVABILITY.md");
  ASSERT_FALSE(doc.empty()) << "docs/OBSERVABILITY.md missing or unreadable";
  EXPECT_FALSE(trace::names::registry().empty());
  for (const auto& info : trace::names::registry()) {
    EXPECT_NE(doc.find("`" + std::string(info.name) + "`"), std::string::npos)
        << "OBSERVABILITY.md glossary is missing " << info.kind << " `"
        << info.name << "`";
  }
}

/// ... and every EvalStats field, since the same document explains the
/// counters that bench snapshots and stat dumps print.
TEST(Trace, ObservabilityGlossaryCoversEvalStatsFields) {
  const std::string doc = read_doc("docs/OBSERVABILITY.md");
  ASSERT_FALSE(doc.empty()) << "docs/OBSERVABILITY.md missing or unreadable";
  const eval::EvalStats stats;
  EXPECT_FALSE(stats.fields().empty());
  for (const auto& [name, value] : stats.fields()) {
    (void)value;
    EXPECT_NE(doc.find("`" + std::string(name) + "`"), std::string::npos)
        << "OBSERVABILITY.md glossary is missing EvalStats field `" << name
        << "`";
  }
}
