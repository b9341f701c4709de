// Microbenchmarks (google-benchmark) for the hot paths of the simulator:
// event-queue churn, RNG, decision process, AS-path construction, loop
// detection, packet forwarding throughput, and the full convergence hot
// loop. With BGPSIM_JSON=DIR the run drops a BENCH_micro_engine.json
// artifact (schema bgpsim-bench-1) holding every result row.
#include <benchmark/benchmark.h>

#include <optional>
#include <string>
#include <vector>

#include "bgp/decision.hpp"
#include "bgp/path_store.hpp"
#include "bgp/rib.hpp"
#include "common.hpp"
#include "fwd/engine.hpp"
#include "metrics/loop_detector.hpp"
#include "sim/event_queue.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"
#include "topo/generators.hpp"

namespace {

using namespace bgpsim;

void BM_EventQueuePushPop(benchmark::State& state) {
  // A/B over the queue backend: range(0) = 0 binary heap, 1 timer wheel.
  const auto backend = state.range(0) != 0 ? sim::QueueBackend::kWheel
                                           : sim::QueueBackend::kHeap;
  const auto n = static_cast<std::size_t>(state.range(1));
  sim::Rng rng{1};
  for (auto _ : state) {
    sim::EventQueue q{backend};
    for (std::size_t i = 0; i < n; ++i) {
      q.push(sim::SimTime::micros(
                 static_cast<std::int64_t>(rng.next_below(1'000'000))),
             [] {});
    }
    while (!q.empty()) benchmark::DoNotOptimize(q.pop().time);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EventQueuePushPop)
    ->Name("BM_EventQueuePushPop/heap")
    ->Args({0, 1024})
    ->Args({0, 16384});
BENCHMARK(BM_EventQueuePushPop)
    ->Name("BM_EventQueuePushPop/wheel")
    ->Args({1, 1024})
    ->Args({1, 16384});

void BM_SimulatorEventChain(benchmark::State& state) {
  const auto n = static_cast<std::int64_t>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    std::int64_t remaining = n;
    std::function<void()> chain = [&] {
      if (--remaining > 0) sim.schedule_after(sim::SimTime::micros(1), chain);
    };
    sim.schedule_at(sim::SimTime::zero(), chain);
    sim.run();
    benchmark::DoNotOptimize(sim.now());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_SimulatorEventChain)->Arg(10000);

void BM_RngUniform(benchmark::State& state) {
  sim::Rng rng{7};
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.uniform(0.1, 0.5));
  }
}
BENCHMARK(BM_RngUniform);

void BM_DecisionProcess(benchmark::State& state) {
  // Adj-RIB-In with `n` candidate routes of mixed lengths.
  const auto n = static_cast<net::NodeId>(state.range(0));
  bgp::AdjRibIn rib;
  for (net::NodeId peer = 1; peer <= n; ++peer) {
    std::vector<net::NodeId> hops{peer};
    for (net::NodeId h = 0; h < peer % 5; ++h) hops.push_back(100 + h);
    hops.push_back(0);
    rib.set(0, peer, bgp::AsPath{std::move(hops)});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(bgp::select_best(rib, 0, 50));
  }
}
BENCHMARK(BM_DecisionProcess)->Arg(8)->Arg(64);

void BM_LoopDetectorRecompute(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  metrics::LoopDetector d{n};
  // Chain everyone toward node 0.
  for (net::NodeId v = 1; v < n; ++v) {
    d.on_next_hop_change(v, v - 1, sim::SimTime::zero());
  }
  std::uint64_t flip = 0;
  for (auto _ : state) {
    // Flip one edge back and forth: forms/resolves a 2-node loop each time.
    const auto t = sim::SimTime::micros(static_cast<std::int64_t>(++flip));
    d.on_next_hop_change(0, (flip % 2) ? std::optional<net::NodeId>{1}
                                       : std::nullopt,
                         t);
  }
  benchmark::DoNotOptimize(d.records().size());
}
BENCHMARK(BM_LoopDetectorRecompute)->Arg(110);

void BM_AsPathPrepended(benchmark::State& state) {
  // The per-update operation of the convergence hot loop: adopting a
  // neighbor's path is one cons. range(0) toggles interning.
  const bool interned = state.range(0) != 0;
  bgp::PathStore store;
  std::optional<bgp::PathStore::Scope> scope;
  if (interned) scope.emplace(store);
  const bgp::AsPath base{4, 3, 2, 1, 0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(base.prepended(5));
  }
}
BENCHMARK(BM_AsPathPrepended)->Arg(0)->Arg(1);

void BM_ConvergenceHotLoop(benchmark::State& state) {
  // End to end: cold convergence + Tdown churn + packet draining on a
  // clique — the loop the figure benches spend their time in. range(0)
  // toggles path interning; both settings produce identical outputs (the
  // digest-equality suite enforces it), so the delta is pure speed.
  core::Scenario s;
  s.topology.kind = core::TopologyKind::kClique;
  s.topology.size = static_cast<std::size_t>(state.range(1));
  s.event = core::EventKind::kTdown;
  s.bgp.mrai = sim::SimTime::seconds(30);
  s.seed = 1;
  core::RunOptions options;
  options.trials = 1;
  options.jobs = 1;
  options.snap_cache = false;  // time the cold prelude every iteration
  options.path_interning = state.range(0) != 0;
  std::uint64_t events = 0;
  for (auto _ : state) {
    const core::TrialSet set = core::run_trials(s, options);
    events += set.runs.front().events_fired;
    benchmark::DoNotOptimize(set.convergence_time_s.mean);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_ConvergenceHotLoop)
    ->ArgNames({"intern", "n"})
    ->Args({0, 12})
    ->Args({1, 12})
    ->Unit(benchmark::kMillisecond);

void BM_PacketForwardingThroughput(benchmark::State& state) {
  // Chain of 16: measures per-hop cost of the data plane.
  auto topo = topo::make_chain(16);
  for (auto _ : state) {
    state.PauseTiming();
    sim::Simulator sim;
    std::vector<fwd::Fib> fibs(topo.node_count());
    for (net::NodeId v = 1; v < topo.node_count(); ++v) {
      fibs[v].set_next_hop(0, v - 1);
    }
    fwd::DataPlane plane{sim, topo, fibs, fwd::DataPlaneOptions::single(0)};
    state.ResumeTiming();
    for (int i = 0; i < 64; ++i) plane.inject(fwd::Injection{.source = 15});
    sim.run();
    benchmark::DoNotOptimize(plane.counters().delivered);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64 *
                          15);
}
BENCHMARK(BM_PacketForwardingThroughput);

void BM_DataPlaneHop(benchmark::State& state) {
  // A/B over the hop-store backend: range(0) = 0 binary heap, 1 per-tick
  // FIFO rings. A looping 2-node FIB keeps `n` packets bouncing until TTL
  // exhaustion, so the measurement is almost pure hop machinery: hop-store
  // push/pop plus one FIB decision per (node, prefix) cohort under rings,
  // per packet under the heap.
  const auto backend = state.range(0) != 0 ? fwd::PlaneBackend::kRings
                                           : fwd::PlaneBackend::kHeap;
  const auto n = static_cast<int>(state.range(1));
  auto topo = topo::make_chain(4);
  std::uint64_t hops = 0;
  for (auto _ : state) {
    state.PauseTiming();
    sim::Simulator sim;
    std::vector<fwd::Fib> fibs(topo.node_count());
    fibs[3].set_next_hop(0, 2);
    fibs[2].set_next_hop(0, 3);  // 2 <-> 3 loop: every packet dies by TTL
    fwd::DataPlaneOptions options = fwd::DataPlaneOptions::single(0);
    options.backend = backend;
    fwd::DataPlane plane{sim, topo, fibs, std::move(options)};
    state.ResumeTiming();
    for (int i = 0; i < n; ++i) {
      plane.inject(fwd::Injection{.source = 3, .ttl = 64});
    }
    sim.run();
    hops += plane.counters().ttl_exhausted * 63;
    benchmark::DoNotOptimize(plane.counters().ttl_exhausted);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(hops));
}
BENCHMARK(BM_DataPlaneHop)
    ->Name("BM_DataPlaneHop/heap")
    ->Args({0, 64})
    ->Args({0, 1024});
BENCHMARK(BM_DataPlaneHop)
    ->Name("BM_DataPlaneHop/ring")
    ->Args({1, 64})
    ->Args({1, 1024});

/// Console output as usual, plus every result row captured into a
/// core::Table so bench::emit_table can drop the bgpsim-bench-1 artifact.
class CapturingReporter final : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      double items_per_second = 0;
      if (const auto it = run.counters.find("items_per_second");
          it != run.counters.end()) {
        items_per_second = it->second.value;
      }
      table_.add_row({run.benchmark_name(),
                      core::fmt(run.GetAdjustedRealTime(), 1),
                      run.time_unit == benchmark::kMillisecond ? "ms" : "ns",
                      std::to_string(run.iterations),
                      core::fmt(items_per_second, 0)});
    }
    ConsoleReporter::ReportRuns(runs);
  }

  [[nodiscard]] const core::Table& table() const { return table_; }

 private:
  core::Table table_{
      {"benchmark", "real time", "unit", "iterations", "items/s"}};
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  CapturingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  bench::emit_table(reporter.table(), "engine microbenchmarks");
  benchmark::Shutdown();
  return 0;
}
