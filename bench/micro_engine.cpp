// google-benchmark microbenches of raw engine event throughput — the number
// the allocation-light event core exists to move. (Wall-clock costs of the
// simulator itself, not simulated time.)
//
// Items/sec IS events/sec. (The last ratios against the pre-calendar-queue
// engine are recorded in EXPERIMENTS.md and DESIGN.md §11.)
//
// Workload shapes:
//   WakeBurst   — same-timestamp fan-out, the simulator's dominant event
//                 shape (every Event/Notifier/Channel wake lands at now()).
//                 Exercises the same-time FIFO lane.
//   PendingHeap — a deep queue of distinct-time callbacks; exercises the
//                 calendar bands + callback slot pool.
//   HoldModel   — classic DES steady state: a fixed population of
//                 self-rescheduling timers at pseudo-random offsets.
//   SleepChain  — coroutine sleepers; includes intrinsic resume cost.
#include <benchmark/benchmark.h>

#include <coroutine>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/units.h"
#include "sim/engine.h"

namespace {

using namespace dpu;

std::uint64_t run_engine(sim::Engine& eng) {
  const std::uint64_t before = eng.events_executed();
  (void)eng.run();
  return eng.events_executed() - before;
}

// ---- WakeBurst ---------------------------------------------------------------

void BM_WakeBurst(benchmark::State& state) {
  const int burst = static_cast<int>(state.range(0));
  const std::uint64_t steps = 4000;
  std::int64_t events = 0;
  for (auto _ : state) {
    sim::Engine eng;
    std::uint64_t fired = 0;
    // leaf/driver must outlive run_engine: scheduled copies capture them by
    // reference.
    std::function<void()> leaf = [&fired] { ++fired; };
    std::function<void()> driver = [&] {
      ++fired;
      for (int i = 0; i < burst; ++i) eng.schedule_in(0, leaf);
      if (fired < steps * static_cast<std::uint64_t>(burst + 1)) eng.schedule_in(1, driver);
    };
    eng.schedule_at(0, driver);
    events += static_cast<std::int64_t>(run_engine(eng));
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(events);
}

// ---- PendingHeap -------------------------------------------------------------

void BM_PendingHeap(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::int64_t events = 0;
  std::uint64_t sink = 0;
  for (auto _ : state) {
    // Fill outside the timed region: the measured quantity is drain
    // throughput of an n-deep queue (pop + dispatch), not push cost.
    state.PauseTiming();
    auto eng = std::make_unique<sim::Engine>();
    std::uint64_t lcg = 0x9e3779b97f4a7c15ull;
    for (int i = 0; i < n; ++i) {
      lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
      eng->schedule_at(1 + (lcg >> 33), [&sink] { ++sink; });
    }
    state.ResumeTiming();
    events += static_cast<std::int64_t>(run_engine(*eng));
    state.PauseTiming();
    eng.reset();
    state.ResumeTiming();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(events);
}

// ---- HoldModel ---------------------------------------------------------------

void BM_HoldModel(benchmark::State& state) {
  const int population = static_cast<int>(state.range(0));
  const std::uint64_t total = 500000;
  std::int64_t events = 0;
  for (auto _ : state) {
    sim::Engine eng;
    std::uint64_t fired = 0;
    std::uint64_t lcg = 0x9e3779b97f4a7c15ull;
    std::function<void()> tick = [&] {
      ++fired;
      lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
      if (fired + static_cast<std::uint64_t>(population) <= total) {
        eng.schedule_in(1 + (lcg >> 33) % 1000, tick);
      }
    };
    for (int i = 0; i < population; ++i) {
      lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
      eng.schedule_at(1 + (lcg >> 33) % 1000, tick);
    }
    events += static_cast<std::int64_t>(run_engine(eng));
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(events);
}

// ---- SleepChain --------------------------------------------------------------

/// Fire-and-forget coroutine; the frame frees itself at completion.
struct Detached {
  struct promise_type {
    Detached get_return_object() { return {}; }
    std::suspend_never initial_suspend() noexcept { return {}; }
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_void() noexcept {}
    void unhandled_exception() noexcept { std::terminate(); }
  };
};

Detached sleeper(sim::Engine& eng, int sleeps) {
  struct Awaiter {
    sim::Engine& eng;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) { eng.resume_in(1, h); }
    void await_resume() const noexcept {}
  };
  for (int i = 0; i < sleeps; ++i) co_await Awaiter{eng};
}

void BM_SleepChain(benchmark::State& state) {
  const int procs = static_cast<int>(state.range(0));
  const int sleeps = 64;
  std::int64_t events = 0;
  for (auto _ : state) {
    sim::Engine eng;
    for (int p = 0; p < procs; ++p) sleeper(eng, sleeps);
    events += static_cast<std::int64_t>(run_engine(eng));
  }
  state.SetItemsProcessed(events);
}

BENCHMARK(BM_WakeBurst)->Arg(64);
BENCHMARK(BM_PendingHeap)->Arg(500000);
BENCHMARK(BM_HoldModel)->Arg(4096);
BENCHMARK(BM_SleepChain)->Arg(4096);

}  // namespace

BENCHMARK_MAIN();
