#include "sim/engine.h"

#include <utility>

#include "sim/task.h"

namespace dpu::sim {

namespace {

/// Root driver coroutine: owns the spawned Task, records completion state.
/// Frames are kept (suspended at final_suspend) until the Engine destroys
/// them, so the Engine can always tear down in-flight processes.
struct Driver {
  struct promise_type {
    Driver get_return_object() {
      return Driver{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    std::suspend_always final_suspend() noexcept { return {}; }
    void return_void() noexcept {}
    void unhandled_exception() noexcept { std::terminate(); }  // drive() catches everything
  };
  std::coroutine_handle<promise_type> handle;
};

}  // namespace

struct SpawnAccess {
  static Driver drive(Task<void> task, std::shared_ptr<ProcState> state, Engine* eng) {
    try {
      co_await std::move(task);
    } catch (...) {
      state->error = std::current_exception();
      if (!eng->pending_error_) eng->pending_error_ = state->error;
    }
    state->done = true;
  }
};

Engine::Engine() { metrics_.link("engine.events_executed", &events_executed_); }

void Engine::CalendarQueue::refill_ready() {
  require(live_ > 0, "refill on empty queue");
  if (direct_) {
    if (direct_left_ == 0) {
      // Budget spent: fall through to rebase(), which re-samples the horizon
      // and re-decides between the wheel and the direct path.
      direct_ = false;
    } else {
      --direct_left_;
      // Heap pops ascend (time, tie_key), so the cohort arrives sorted and
      // needs neither bucket walk nor sort. The wheel is empty by the
      // direct-mode push invariant, so far_ holds every non-ready event.
      // One instant per refill: popping further ahead serializes the heap's
      // cache misses with no dispatch work to hide them (measured slower).
      const SimTime t0 = far_.top().time;
      do {
        ready_.push_back(far_.pop());
      } while (!far_.empty() && far_.top().time == t0);
      ready_head_ = 0;
      return;
    }
  }
  if (wheel_live_ == 0) rebase();
  if (direct_) {  // rebase re-entered the bypass; serve heap-direct
    const SimTime t0 = far_.top().time;
    do {
      ready_.push_back(far_.pop());
    } while (!far_.empty() && far_.top().time == t0);
    ready_head_ = 0;
    return;
  }
  while (buckets_[cursor_] == kNil) ++cursor_;
  // Pass 1: the bucket's earliest timestamp. Bucket lists are unordered
  // (prepend on push), but the band keeps them short.
  SimTime tmin = kTimeInfinity;
  for (std::uint32_t i = buckets_[cursor_]; i != kNil; i = slab_[i].next) {
    if (slab_[i].ev.time < tmin) tmin = slab_[i].ev.time;
  }
  // Pass 2: unlink the whole cohort at tmin in one sweep; later-timestamp
  // nodes stay threaded in place.
  std::uint32_t* link = &buckets_[cursor_];
  while (*link != kNil) {
    SlabNode& sn = slab_[*link];
    if (sn.ev.time == tmin) {
      ready_.push_back(sn.ev);
      const std::uint32_t freed = *link;
      *link = sn.next;
      sn.next = free_head_;
      free_head_ = freed;
      --wheel_live_;
    } else {
      link = &sn.next;
    }
  }
  std::sort(ready_.begin(), ready_.end(),
            [this](const EvNode& a, const EvNode& b) { return less(a, b); });
  ready_head_ = 0;
}

void Engine::CalendarQueue::rebase() {
  // Wheel and ready batch are empty; far_ holds everything. Sample the
  // horizon to re-derive the bucket width from observed event density.
  const SimTime t0 = far_.top().time;
  ready_.clear();  // reuse as the migration scratch buffer (it is empty)
  while (!far_.empty() && ready_.size() < kSample) ready_.push_back(far_.pop());
  const SimTime span = ready_.back().time - t0;
  const std::uint64_t mean_gap = span / ready_.size() + 1;
  int shift = 0;
  while ((1ull << shift) < mean_gap && shift < kMaxShift) ++shift;
  // Sparse-horizon bypass: when the derived band would average under two
  // events per bucket, every refill pays a bucket probe + unlink + sort for
  // cohorts of ~one event and the wheel is pure overhead — a plain heap
  // drain is faster (the PR-6 distinct-time regression). Serve refills
  // straight off far_ until the recheck budget expires, then re-sample.
  const std::uint64_t est_per_bucket =
      span == 0 ? ready_.size() : (static_cast<std::uint64_t>(ready_.size()) << shift) / span;
  if (est_per_bucket < 2) {
    for (const EvNode& n : ready_) far_.push(n);
    ready_.clear();
    direct_ = true;
    direct_left_ = kDirectRecheck;
    return;
  }
  band_start_ = t0;
  band_shift_ = shift;
  cursor_ = 0;
  // With the shift capped (astronomically sparse horizons) a sampled node
  // can still fall past the last bucket; it goes back to far_ and migrates
  // on a later rebase.
  for (const EvNode& n : ready_) {
    const std::uint64_t idx = (n.time - band_start_) >> band_shift_;
    if (idx < kBuckets) {
      wheel_push(static_cast<std::size_t>(idx), n);
    } else {
      far_.push(n);
    }
  }
  ready_.clear();
  // Migrate the rest of the new band out of the heap wholesale.
  while (!far_.empty()) {
    const std::uint64_t idx = (far_.top().time - band_start_) >> band_shift_;
    if (idx >= kBuckets) break;
    wheel_push(static_cast<std::size_t>(idx), far_.pop());
  }
}

Engine::~Engine() {
  // Drain scheduled work without executing it (slot destruction releases
  // callback captures), then destroy every root frame; nested frames are
  // destroyed recursively through Task ownership.
  queue_.clear();
  now_fifo_.clear();
  callback_slots_.clear();
  free_slots_.clear();
  for (auto& st : procs_) {
    if (st->root) {
      auto h = st->root;
      st->root = nullptr;
      h.destroy();
    }
  }
}

void Engine::schedule_at(SimTime t, std::function<void()> fn) {
  require(t >= now_, "scheduling into the past");
  std::size_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    callback_slots_[slot] = std::move(fn);
  } else {
    slot = callback_slots_.size();
    callback_slots_.push_back(std::move(fn));
  }
  push_node(EvNode{t, next_seq_++, (slot << 1) | kCallbackTag});
}

ProcHandle Engine::spawn(Task<void> task, std::string name) {
  auto state = std::make_shared<ProcState>();
  state->name = std::move(name);
  Driver d = SpawnAccess::drive(std::move(task), state, this);
  state->root = d.handle;
  procs_.push_back(state);
  resume_at(now_, d.handle);
  return ProcHandle(state);
}

RunResult Engine::run(SimTime until) {
  while (true) {
    const bool have_q = !queue_.empty();
    const bool have = have_q || !now_fifo_.empty();
    // Two-way merge on (time, seq): the FIFO holds current-timestamp events
    // in seq order, so comparing its front against the queue top recovers
    // the exact global dispatch order of a single queue.
    const bool from_fifo =
        !now_fifo_.empty() &&
        (!have_q || now_fifo_.front().time < queue_.top().time ||
         (now_fifo_.front().time == queue_.top().time &&
          now_fifo_.front().seq < queue_.top().seq));
    const SimTime next_t = have ? (from_fifo ? now_fifo_.front().time : queue_.top().time)
                                : kTimeInfinity;
    if (!settle_.empty() && next_t > now_) {
      // End of the current instant: run the settle hooks before the clock
      // advances (or the run ends). Hooks may queue events at now_ and
      // register further hooks, so loop back and re-merge.
      std::vector<std::function<void()>> batch;
      batch.swap(settle_);
      for (auto& fn : batch) {
        fn();
        if (pending_error_) {
          auto err = std::exchange(pending_error_, nullptr);
          std::rethrow_exception(err);
        }
      }
      continue;
    }
    if (!have) break;
    if (next_t > until) {
      now_ = until;
      return RunResult::kTimeLimit;
    }
    EvNode ev;
    if (from_fifo) {
      ev = now_fifo_.pop();
    } else {
      ev = queue_.pop();
      // Slow-arm slots are filled in schedule order but drained in time
      // order, so slot accesses are near-guaranteed cache misses on a deep
      // queue. Run an 8-deep prefetch pipeline over the armed ready batch;
      // at batch boundaries peek top() (order-neutral, may refill) and prime
      // the fresh batch's head so the pipeline restarts warm.
      constexpr std::size_t kPrefetchAhead = 8;
      auto prefetch_slot = [this](const EvNode& n) {
        if ((n.payload & kCallbackTag) != 0) {
          __builtin_prefetch(&callback_slots_[n.payload >> 1]);
        }
      };
      if (queue_.ready_remaining() > kPrefetchAhead) {
        prefetch_slot(queue_.ready_peek(kPrefetchAhead));
      } else if (!queue_.empty()) {
        prefetch_slot(queue_.top());
        const std::size_t warm = std::min(queue_.ready_remaining(), kPrefetchAhead);
        for (std::size_t k = 1; k < warm; ++k) prefetch_slot(queue_.ready_peek(k));
      }
    }
    now_ = ev.time;
    ++events_executed_;
    if ((ev.payload & kCallbackTag) == 0) {
      std::coroutine_handle<>::from_address(reinterpret_cast<void*>(ev.payload)).resume();
    } else {
      const std::size_t slot = ev.payload >> 1;
      auto fn = std::move(callback_slots_[slot]);
      // No need to null the moved-from slot: the next occupant's assignment
      // destroys any residue, and the destructor clears the pool wholesale.
      free_slots_.push_back(slot);
      fn();
    }
    if (pending_error_) {
      auto err = std::exchange(pending_error_, nullptr);
      std::rethrow_exception(err);
    }
  }
  return live_process_names().empty() ? RunResult::kCompleted : RunResult::kDeadlock;
}

std::vector<std::string> Engine::live_process_names() const {
  std::vector<std::string> names;
  for (const auto& st : procs_) {
    if (!st->done) names.push_back(st->name);
  }
  return names;
}

}  // namespace dpu::sim
