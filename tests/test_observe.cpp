// Tests for the serving observability layer: the streaming histogram
// against exact sorted-sample percentiles, the metrics registry, the
// HostProfiler, the bit-identical-with-observation-on parity grid
// (observers must never perturb the run), streaming-mode ServeReport
// aggregates against record mode, trace well-formedness (check_trace on a
// real run and on hand-built malformed timelines), and the
// ShardUsage::total_busy composition contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "baseline/cpu_backend.hpp"
#include "core/backend_factory.hpp"
#include "data/movielens.hpp"
#include "recsys/youtube_dnn.hpp"
#include "serve/load_gen.hpp"
#include "serve/observe.hpp"
#include "serve/runtime.hpp"
#include "serve/trace.hpp"
#include "serve_test_util.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace imars {
namespace {

using device::Ns;
using serve::ArrivalProcess;
using serve::BatchSpan;
using serve::CloseTrigger;
using serve::DynamicBatcher;
using serve::DynamicBatcherConfig;
using serve::HostProfiler;
using serve::LoadGenConfig;
using serve::LoadGenerator;
using serve::MetricsRegistry;
using serve::ObserverSink;
using serve::QosBatcher;
using serve::QosBatcherConfig;
using serve::QosClassConfig;
using serve::Request;
using serve::ServingConfig;
using serve::ServingRuntime;
using serve::StageSpan;
using serve::StreamingHistogram;
using serve::TraceEvent;
using serve::TraceLog;

// --- StreamingHistogram -----------------------------------------------------

TEST(StreamingHistogram, EmptyAndTinySamplesMatchPinnedSemantics) {
  StreamingHistogram h(0.01);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.percentile(50.0), 0.0);  // empty set -> 0.0
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);

  // n = 1: every percentile is the sample itself (rank p/100 * 0 = 0).
  h.record(123.5);
  for (const double p : {0.0, 50.0, 95.0, 99.0, 100.0})
    EXPECT_DOUBLE_EQ(h.percentile(p), 123.5) << "p" << p;
  EXPECT_DOUBLE_EQ(h.mean(), 123.5);

  // n = 2: the ends are exact, the midpoint interpolates exactly between
  // them — identical to util::percentile on the raw sample.
  h.record(1000.0);
  const std::vector<double> xs = {123.5, 1000.0};
  for (const double p : {0.0, 25.0, 50.0, 95.0, 100.0})
    EXPECT_DOUBLE_EQ(h.percentile(p), util::percentile(xs, p)) << "p" << p;
}

TEST(StreamingHistogram, ZeroAndNegativeSamplesLandInTheZeroBucket) {
  StreamingHistogram h(0.01);
  h.record(0.0);
  h.record(-5.0);
  h.record(10.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.min(), -5.0);
  EXPECT_DOUBLE_EQ(h.max(), 10.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.0), -5.0);
  EXPECT_DOUBLE_EQ(h.percentile(100.0), 10.0);
  // The middle rank is the zero-bucket representative: clamped to >= min.
  EXPECT_GE(h.percentile(50.0), -5.0);
  EXPECT_LE(h.percentile(50.0), 10.0);
}

TEST(StreamingHistogram, RandomizedStreamsMatchExactPercentiles) {
  // The acceptance bound: incremental percentiles within the bucket's
  // relative error of util::percentile over the retained sample. The
  // bucket representative is within rel_err of every member; linear
  // interpolation mixes two adjacent ranks, so 2.5 * rel_err is a safe
  // envelope for rel_err = 1%.
  const double rel_err = 0.01;
  const double tol = 2.5 * rel_err;
  for (const std::uint64_t seed : {1u, 7u, 21u}) {
    for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                                std::size_t{10}, std::size_t{1000}}) {
      for (const bool heavy_tail : {false, true}) {
        util::Xoshiro256 rng(seed * 1000 + n + (heavy_tail ? 1 : 0));
        StreamingHistogram h(rel_err);
        std::vector<double> xs;
        for (std::size_t i = 0; i < n; ++i) {
          // Uniform latencies, or a lognormal-ish heavy tail spanning six
          // decades — the regime log-bucketing exists for.
          const double x = heavy_tail ? std::exp(rng.uniform(0.0, 14.0))
                                      : rng.uniform(1.0, 1.0e6);
          xs.push_back(x);
          h.record(x);
        }
        ASSERT_EQ(h.count(), n);
        for (const double p : {0.0, 10.0, 50.0, 90.0, 95.0, 99.0, 100.0}) {
          const double exact = util::percentile(xs, p);
          const double approx = h.percentile(p);
          EXPECT_NEAR(approx, exact, tol * exact)
              << "seed=" << seed << " n=" << n << " heavy=" << heavy_tail
              << " p" << p;
        }
        // The side-tracked aggregates are exact.
        double sum = 0.0;
        for (double x : xs) sum += x;
        EXPECT_DOUBLE_EQ(h.sum(), sum);
        EXPECT_DOUBLE_EQ(h.min(), *std::min_element(xs.begin(), xs.end()));
        EXPECT_DOUBLE_EQ(h.max(), *std::max_element(xs.begin(), xs.end()));
      }
    }
  }
}

TEST(StreamingHistogram, MergeEqualsSingleStream) {
  util::Xoshiro256 rng(99);
  StreamingHistogram whole(0.01), left(0.01), right(0.01);
  for (std::size_t i = 0; i < 500; ++i) {
    const double x = std::exp(rng.uniform(0.0, 12.0));
    whole.record(x);
    (i % 2 == 0 ? left : right).record(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_DOUBLE_EQ(left.min(), whole.min());
  EXPECT_DOUBLE_EQ(left.max(), whole.max());
  for (const double p : {50.0, 95.0, 99.0})
    EXPECT_DOUBLE_EQ(left.percentile(p), whole.percentile(p)) << "p" << p;
}

TEST(StreamingHistogram, RejectsBadConfigs) {
  EXPECT_THROW(StreamingHistogram h(0.0), std::runtime_error);
  EXPECT_THROW(StreamingHistogram h(-0.1), std::runtime_error);
  EXPECT_THROW(StreamingHistogram h(1.0), std::runtime_error);
  StreamingHistogram a(0.01), b(0.02);
  EXPECT_THROW(a.merge(b), std::runtime_error);
}

// --- MetricsRegistry --------------------------------------------------------

TEST(MetricsRegistry, CountersGaugesAndHistograms) {
  MetricsRegistry reg;
  EXPECT_EQ(reg.counter("missing"), 0u);
  reg.add_counter("batches");
  reg.add_counter("batches", 4);
  EXPECT_EQ(reg.counter("batches"), 5u);
  reg.set_gauge("depth", 3.0);
  reg.set_gauge("depth", 7.0);  // last value wins
  EXPECT_DOUBLE_EQ(reg.gauges().at("depth"), 7.0);
  reg.histogram("lat").record(10.0);
  reg.histogram("lat").record(30.0);  // same object on re-lookup
  EXPECT_EQ(reg.histograms().at("lat").count(), 2u);
  EXPECT_DOUBLE_EQ(reg.histograms().at("lat").mean(), 20.0);
}

// --- HostProfiler -----------------------------------------------------------

struct HostSpanRecorder final : ObserverSink {
  std::vector<std::string> names;
  std::vector<double> durs;
  void on_host_span(std::string_view name, double start_us,
                    double dur_us) override {
    (void)start_us;
    names.emplace_back(name);
    durs.push_back(dur_us);
  }
};

TEST(HostProfiler, ScopesReportAndAccumulate) {
  HostSpanRecorder sink;
  HostProfiler prof;
  prof.enable(&sink);
  {
    HostProfiler::Scope a(prof, "outer");
    HostProfiler::Scope b(prof, "inner");
  }
  ASSERT_EQ(sink.names.size(), 2u);
  EXPECT_EQ(sink.names[0], "inner");  // destroyed innermost-first
  EXPECT_EQ(sink.names[1], "outer");
  for (double d : sink.durs) EXPECT_GE(d, 0.0);
  EXPECT_EQ(prof.total_us().size(), 2u);
  EXPECT_GE(prof.total_us().at("outer"), prof.total_us().at("inner"));

  // Disabled profiler: scopes are inert.
  HostProfiler off;
  { HostProfiler::Scope s(off, "never"); }
  EXPECT_TRUE(off.total_us().empty());
}

// --- CloseTrigger attribution ----------------------------------------------

Request make_request(std::size_t id, double t, std::size_t cls = 0) {
  Request r;
  r.id = id;
  r.user = id;
  r.client = id;
  r.qos_class = cls;
  r.enqueue = Ns{t};
  return r;
}

TEST(CloseTriggerTelemetry, BatcherAttributesEveryCloseReason) {
  DynamicBatcherConfig cfg;
  cfg.max_batch = 2;
  cfg.max_wait = Ns{100.0};
  DynamicBatcher b(cfg);
  b.add(make_request(0, 0.0));
  b.add(make_request(1, 1.0));
  auto size_batch = b.poll(Ns{1.0});
  ASSERT_TRUE(size_batch.has_value());
  EXPECT_EQ(size_batch->trigger, CloseTrigger::kSize);

  b.add(make_request(2, 10.0));
  auto deadline_batch = b.poll(Ns{110.0});
  ASSERT_TRUE(deadline_batch.has_value());
  EXPECT_EQ(deadline_batch->trigger, CloseTrigger::kDeadline);

  b.add(make_request(3, 120.0));
  auto flush_batch = b.flush(Ns{120.0});
  ASSERT_TRUE(flush_batch.has_value());
  EXPECT_EQ(flush_batch->trigger, CloseTrigger::kFlush);
}

TEST(CloseTriggerTelemetry, QosBatcherDistinguishesPreemptiveClose) {
  QosClassConfig urgent;
  urgent.name = "urgent";
  urgent.max_batch = 8;
  urgent.max_wait = Ns{1000.0};
  urgent.deadline = Ns{500.0};          // slack 300 < max_wait: preemptive
  urgent.service_estimate = Ns{200.0};
  QosClassConfig lax;
  lax.name = "lax";
  lax.max_batch = 8;
  lax.max_wait = Ns{100.0};  // plain deadline trigger, no SLO
  QosBatcherConfig cfg;
  cfg.classes = {urgent, lax};
  QosBatcher b(cfg);
  b.add(make_request(0, 0.0, 0));
  auto pre = b.poll(Ns{300.0});
  ASSERT_TRUE(pre.has_value());
  EXPECT_EQ(pre->trigger, CloseTrigger::kPreemptive);
  b.add(make_request(1, 400.0, 1));
  auto dl = b.poll(Ns{500.0});
  ASSERT_TRUE(dl.has_value());
  EXPECT_EQ(dl->trigger, CloseTrigger::kDeadline);
}

// --- runtime grid fixture ---------------------------------------------------

struct ObserveFixture {
  ObserveFixture() {
    data::MovieLensConfig dcfg;
    dcfg.num_users = 60;
    dcfg.num_items = 90;
    dcfg.history_min = 3;
    dcfg.history_max = 8;
    dcfg.seed = 141;
    ds = std::make_unique<data::MovieLensSynth>(dcfg);

    recsys::YoutubeDnnConfig mcfg;
    mcfg.seed = 143;
    model = std::make_unique<recsys::YoutubeDnn>(ds->schema(), mcfg);
    util::Xoshiro256 rng(147);
    model->train_filter_epoch(*ds, rng);
    model->train_rank_epoch(*ds, rng);

    for (std::size_t u = 0; u < ds->num_users(); ++u)
      users.push_back(model->make_context(*ds, u));

    cpu_cfg.candidates = 40;
    factory = core::cpu_backend_factory(*model, cpu_cfg);
  }

  struct RunOpts {
    std::size_t classes = 1;
    bool open = false;
    bool phased = false;  ///< max_inflight = 0 reference path
    bool gated = false;
    bool streaming = false;
    bool self_profile = false;
    double update_fraction = 0.0;
    ObserverSink* sink = nullptr;
  };

  serve::ServeReport run(const RunOpts& o) {
    ServingConfig cfg;
    cfg.shards = 3;
    cfg.k = 5;
    cfg.batcher.max_batch = 4;
    cfg.batcher.max_wait = Ns{300000.0};
    cfg.cache.capacity_rows = 1024;
    if (o.phased) cfg.max_inflight = 0;
    cfg.streaming_report = o.streaming;
    cfg.self_profile = o.self_profile;
    if (o.classes > 1) {
      QosClassConfig interactive;
      interactive.name = "interactive";
      interactive.max_batch = 2;
      interactive.max_wait = Ns{300000.0};
      interactive.deadline = Ns{150000.0};
      interactive.service_estimate = Ns{20000.0};
      interactive.weight = 2.0;
      QosClassConfig bulk;
      bulk.name = "bulk";
      bulk.max_batch = 4;
      bulk.max_wait = Ns{300000.0};
      bulk.weight = 4.0;
      QosClassConfig scavenger = bulk;
      scavenger.name = "scavenger";
      scavenger.weight = 0.0;
      cfg.qos.classes = {interactive, bulk, scavenger};
      if (o.gated) cfg.qos.admit_window = Ns{50000.0};
    }
    ServingRuntime rt(factory, cfg, core::ArchConfig{},
                      device::DeviceProfile::fefet45());
    if (o.sink != nullptr) rt.set_observer(o.sink);
    LoadGenConfig lg;
    lg.clients = 8;
    lg.total_queries = 40;
    lg.num_users = users.size();
    lg.seed = 171;
    lg.update_fraction = o.update_fraction;
    if (o.classes > 1) lg.class_mix = {0.2, 0.7, 0.1};
    if (o.open) {
      lg.arrivals = ArrivalProcess::kOpenPoisson;
      lg.rate_qps = 2.0e5;
    }
    LoadGenerator gen(lg);
    return rt.run(gen, users);
  }

  std::unique_ptr<data::MovieLensSynth> ds;
  std::unique_ptr<recsys::YoutubeDnn> model;
  std::vector<recsys::UserContext> users;
  baseline::CpuBackendConfig cpu_cfg;
  core::BackendFactory factory;
};

// --- observation parity: the load-bearing contract --------------------------

TEST(ObserveRuntime, ReportsBitIdenticalWithObservationAttached) {
  ObserveFixture fx;
  for (const std::size_t classes : {std::size_t{1}, std::size_t{3}}) {
    for (const bool open : {false, true}) {
      for (const bool phased : {false, true}) {
        ObserveFixture::RunOpts plain;
        plain.classes = classes;
        plain.open = open;
        plain.phased = phased;
        const auto unobserved = fx.run(plain);

        TraceLog trace;
        ObserveFixture::RunOpts observed = plain;
        observed.sink = &trace;
        observed.self_profile = true;
        const auto with_sink = fx.run(observed);

        serve_test::expect_reports_identical(unobserved, with_sink);
        EXPECT_GT(trace.events().size(), 0u)
            << "classes=" << classes << " open=" << open;
      }
    }
  }
}

TEST(ObserveRuntime, GatedRunBitIdenticalWithObservation) {
  ObserveFixture fx;
  ObserveFixture::RunOpts plain;
  plain.classes = 3;
  plain.open = true;
  plain.gated = true;
  const auto unobserved = fx.run(plain);
  TraceLog trace;
  ObserveFixture::RunOpts observed = plain;
  observed.sink = &trace;
  const auto with_sink = fx.run(observed);
  serve_test::expect_reports_identical(unobserved, with_sink);
}

// --- trace well-formedness on a real run -------------------------------------

TEST(ObserveRuntime, TraceOfRealRunIsWellFormed) {
  ObserveFixture fx;
  TraceLog trace;
  ObserveFixture::RunOpts o;
  o.classes = 3;
  o.open = true;
  o.gated = true;
  o.self_profile = true;
  o.update_fraction = 0.2;  // write-back spans land on the ET tracks
  o.sink = &trace;
  const auto report = fx.run(o);
  trace.finalize();

  const serve::TraceCheck check = serve::check_trace(trace.events());
  for (const auto& p : check.problems) ADD_FAILURE() << p;
  EXPECT_TRUE(check.ok);
  EXPECT_GT(check.unit_spans, 0u);
  EXPECT_EQ(check.batch_spans, report.batches);
  std::size_t trigger_sum = 0;
  for (const auto& [trigger, n] : check.trigger_counts) trigger_sum += n;
  EXPECT_EQ(trigger_sum, report.batches);

  // The registry audited the same run: per-trigger counters sum to the
  // batch total, spans were recorded, write traffic hit the ET tracks.
  const auto& reg = trace.registry();
  EXPECT_EQ(reg.counter("batches.total"), report.batches);
  EXPECT_GT(reg.counter("spans.stage"), 0u);
  EXPECT_GT(reg.counter("spans.write"), 0u);
  EXPECT_GT(report.updates, 0u);

  // Host self-profiling spans share the file on their own track.
  std::size_t host_spans = 0;
  for (const auto& e : trace.events())
    if (e.cat == "host") ++host_spans;
  EXPECT_GT(host_spans, 0u);
}

TEST(ObserveRuntime, WrittenTraceIsValidJsonArtifact) {
  ObserveFixture fx;
  TraceLog trace;
  ObserveFixture::RunOpts o;
  o.classes = 3;
  o.sink = &trace;
  (void)fx.run(o);
  const std::string path = "test_observe_trace.json";
  trace.write(path);
  std::ifstream f(path);
  ASSERT_TRUE(f.good());
  std::stringstream ss;
  ss << f.rdbuf();
  const std::string text = ss.str();
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(text.find("serve.summary"), std::string::npos);
  std::remove(path.c_str());
}

// --- check_trace on malformed timelines --------------------------------------

TraceEvent unit_span(double ts, double dur, int pid = 10, int tid = 1) {
  TraceEvent e;
  e.phase = TraceEvent::Phase::kComplete;
  e.name = "stage";
  e.cat = "unit";
  e.ts_us = ts;
  e.dur_us = dur;
  e.pid = pid;
  e.tid = tid;
  return e;
}

TEST(TraceCheck, FlagsOverlappingUnitSpans) {
  std::vector<TraceEvent> events = {unit_span(0.0, 10.0), unit_span(5.0, 10.0)};
  const auto check = serve::check_trace(events);
  EXPECT_FALSE(check.ok);
  // Different tracks: no overlap.
  events[1].tid = 2;
  EXPECT_TRUE(serve::check_trace(events).ok);
}

TEST(TraceCheck, FlagsBrokenNestingAndNegativeExtents) {
  // A non-unit span poking out of its enclosing span is not a stack.
  TraceEvent outer = unit_span(0.0, 10.0);
  outer.cat = "batch";
  TraceEvent inner = unit_span(5.0, 10.0);  // ends at 15 > 10
  inner.cat = "batch";
  const std::vector<TraceEvent> events = {outer, inner};
  EXPECT_FALSE(serve::check_trace(events).ok);

  const std::vector<TraceEvent> bad = {unit_span(0.0, -1.0)};
  EXPECT_FALSE(serve::check_trace(bad).ok);
}

TEST(TraceCheck, FlagsUnpairedAsyncAndUnknownTriggers) {
  TraceEvent begin;
  begin.phase = TraceEvent::Phase::kAsyncBegin;
  begin.name = "cls";
  begin.cat = "batch.queue";
  begin.ts_us = 0.0;
  begin.pid = 1;
  begin.id = 7;
  begin.str_args = {{"trigger", "size"}};
  TraceEvent end = begin;
  end.phase = TraceEvent::Phase::kAsyncEnd;
  end.ts_us = 5.0;
  end.str_args.clear();

  EXPECT_TRUE(serve::check_trace(std::vector<TraceEvent>{begin, end}).ok);
  // Begin without end.
  EXPECT_FALSE(serve::check_trace(std::vector<TraceEvent>{begin}).ok);
  // End without begin.
  EXPECT_FALSE(serve::check_trace(std::vector<TraceEvent>{end}).ok);
  // Unknown close trigger.
  TraceEvent weird = begin;
  weird.str_args = {{"trigger", "cosmic-ray"}};
  TraceEvent weird_end = end;
  EXPECT_FALSE(
      serve::check_trace(std::vector<TraceEvent>{weird, weird_end}).ok);
}

TEST(TraceCheck, SummarizeAggregatesCompleteSpans) {
  std::vector<TraceEvent> events = {unit_span(0.0, 10.0), unit_span(20.0, 5.0),
                                    unit_span(30.0, 2.0, 11, 1)};
  events[2].name = "other";
  const auto totals = serve::summarize_trace(events);
  ASSERT_EQ(totals.size(), 2u);
  EXPECT_EQ(totals[0].name, "stage");  // 15us total beats 2us
  EXPECT_EQ(totals[0].count, 2u);
  EXPECT_DOUBLE_EQ(totals[0].total_us, 15.0);
  EXPECT_DOUBLE_EQ(totals[0].max_us, 10.0);
  EXPECT_EQ(serve::summarize_trace(events, 1).size(), 1u);
}

// --- streaming-mode reports --------------------------------------------------

TEST(ObserveRuntime, StreamingAggregatesMatchRecordMode) {
  ObserveFixture fx;
  for (const std::size_t classes : {std::size_t{1}, std::size_t{3}}) {
    ObserveFixture::RunOpts record_opts;
    record_opts.classes = classes;
    record_opts.open = true;
    const auto record = fx.run(record_opts);
    ObserveFixture::RunOpts stream_opts = record_opts;
    stream_opts.streaming = true;
    const auto stream = fx.run(stream_opts);

    ASSERT_TRUE(stream.streaming.enabled);
    EXPECT_TRUE(stream.queries.empty());  // no per-query retention
    ASSERT_EQ(stream.size(), record.size());
    EXPECT_EQ(stream.batches, record.batches);
    EXPECT_DOUBLE_EQ(stream.makespan.value, record.makespan.value);

    // Means and QPS are exact; percentiles within the histogram resolution.
    const double tol = 2.5 * stream.streaming.rel_err;
    EXPECT_DOUBLE_EQ(stream.mean_latency_ns(), record.mean_latency_ns());
    EXPECT_DOUBLE_EQ(stream.qps(), record.qps());
    EXPECT_DOUBLE_EQ(stream.mean_energy_pj(), record.mean_energy_pj());
    EXPECT_NEAR(stream.p50_latency_ns(), record.p50_latency_ns(),
                tol * record.p50_latency_ns());
    EXPECT_NEAR(stream.p95_latency_ns(), record.p95_latency_ns(),
                tol * record.p95_latency_ns());
    EXPECT_NEAR(stream.p99_latency_ns(), record.p99_latency_ns(),
                tol * record.p99_latency_ns());

    for (std::size_t c = 0; c < classes; ++c) {
      EXPECT_NEAR(stream.class_mean_latency_ns(c),
                  record.class_mean_latency_ns(c),
                  1e-9 * record.class_mean_latency_ns(c) + 1e-9)
          << "class " << c;
      EXPECT_NEAR(stream.class_p99_latency_ns(c),
                  record.class_p99_latency_ns(c),
                  tol * record.class_p99_latency_ns(c))
          << "class " << c;
      EXPECT_DOUBLE_EQ(stream.class_qps(c), record.class_qps(c));
      EXPECT_NEAR(stream.device_share(c), record.device_share(c), 1e-12)
          << "class " << c;
    }
    EXPECT_NEAR(stream.fairness_error(), record.fairness_error(), 1e-12);

    // Record-only views refuse in streaming mode instead of lying.
    EXPECT_THROW((void)stream.latencies_ns(), std::runtime_error);
    EXPECT_THROW((void)stream.class_latencies_ns(0), std::runtime_error);
    EXPECT_THROW((void)stream.device_share(0, Ns{1.0}), std::runtime_error);
  }
}

// --- ShardUsage::total_busy composition --------------------------------------

TEST(ObserveRuntime, TotalBusyComposesStageAndWritePaths) {
  serve::ShardUsage u;
  u.stage_busy = {Ns{2.0}, Ns{3.0}};
  u.write_busy = Ns{5.0};
  EXPECT_DOUBLE_EQ(u.total_busy().value, 10.0);

  // On a real write-back run the write path is busy, is EXCLUDED from the
  // stage-utilization views, and is counted exactly once by total_busy.
  ObserveFixture fx;
  ObserveFixture::RunOpts o;
  o.update_fraction = 0.3;
  const auto report = fx.run(o);
  ASSERT_GT(report.updates, 0u);
  bool some_write = false;
  for (std::size_t s = 0; s < report.shards.size(); ++s) {
    const auto& shard = report.shards[s];
    device::Ns stage_sum;
    for (const auto& st : shard.stage_busy) stage_sum += st;
    EXPECT_DOUBLE_EQ(shard.total_busy().value,
                     (stage_sum + shard.write_busy).value)
        << "shard " << s;
    some_write = some_write || shard.write_busy.value > 0.0;
    // rank_utilization reads only the last stage unit, never the write path.
    EXPECT_DOUBLE_EQ(report.rank_utilization(s),
                     shard.stage_busy.back().value / report.makespan.value);
  }
  EXPECT_TRUE(some_write);
}

// Companion to the stage_utilization unknown-stage contract (pinned in
// test_stage_pipeline.cpp): the REPORT-level lookup refuses unknown graph
// nodes too, rather than returning a silent 0.0.
TEST(ObserveRuntime, StageUtilizationRejectsUnknownStage) {
  ObserveFixture fx;
  const auto report = fx.run(ObserveFixture::RunOpts{});
  ASSERT_FALSE(report.stage_names.empty());
  EXPECT_THROW((void)report.stage_utilization(0, "no-such-stage"),
               std::runtime_error);
}

}  // namespace
}  // namespace imars
