// dpulint self-test fixture: planted token-rule violations plus their
// waived twins. Never compiled — only lexed.
#include <chrono>
#include <thread>  // expect: thread
#include <vector>

#include "sim/engine.h"

// lint: thread ok: fixture demonstrating a waived thread include
#include <condition_variable>

// Macro-body include form: a wrapper macro must not launder the header in.
// The directive-only include scan of a classic linter never sees this one;
// dpulint records the `# include` token pair wherever it appears. (These
// lines also push the waiver above out of the 5-line lookback window.)
#define PULL_IN_LOCKS #include <mutex>  // expect: thread

namespace fixture {

void wall_clock_plants() {
  auto t0 = std::chrono::steady_clock::now();  // expect: wall-clock
  auto t1 = std::chrono::system_clock::now();  // expect: wall-clock
  srand(42);  // expect: wall-clock
  int r = rand();  // expect: wall-clock
  long s = time(nullptr);  // expect: wall-clock

  // lint: wall-clock ok: fixture demonstrating a waived clock read
  auto t2 = std::chrono::steady_clock::now();

  // Near-misses that must stay clean: prefixed identifiers and non-empty
  // argument lists are not the banned forms.
  int my_rand = my_rand_source();
  double interp = rand_interp(3);
  long t3 = timestamp(0);
}

void thread_plants() {
  std::mutex guard;  // expect: thread
  // lint: thread ok: fixture demonstrating a waived primitive
  std::condition_variable cv;
}

void ev_alloc_plants(EvNode* stale_ev_node) {
  auto* n = new EvNode();  // expect: ev-alloc
  auto* s = new sim::SlabNode(7);  // expect: ev-alloc
  delete stale_ev_node;  // expect: ev-alloc
  // lint: ev-alloc ok: fixture demonstrating a waived slab allocation
  auto* w = new EvNode();
  // Unrelated allocations stay clean.
  auto* v = new std::vector<int>();
  delete v;
}

void raw_post_plants(Transport& tp) {
  tp.post_ctrl_raw(1, 2);  // expect: raw-post
  // lint: raw-post ok: fixture demonstrating a waived raw post
  tp.post_flag_write_raw(3);
}

void fallback_ctx_plants() {
  int ctx_a = -7777;  // expect: fallback-ctx
  int ctx_b = -7778;  // expect: fallback-ctx
  // lint: fallback-ctx ok: fixture demonstrating a waived raw context
  int ctx_c = -7777;
  // Longer literals sharing the prefix are different numbers, not the
  // banned constants.
  int ctx_d = -77770;
  int ctx_e = 7777;
}

}  // namespace fixture
