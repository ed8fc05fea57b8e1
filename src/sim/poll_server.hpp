// poll_server.hpp — a pinned polling process serving prioritized queues.
//
// Both LVRM and every VRI are modelled as PollServers: a loop pinned to one
// core that repeatedly (1) finds the highest-priority non-empty input queue,
// (2) dequeues one item, (3) spends its service cost on the core, (4) hands
// the item to the input's sink. This mirrors the thesis' non-blocking poll
// loops: control queues are checked before data queues (Sec 2.1), and within
// a priority class inputs are scanned round-robin so e.g. the TX queues of
// many VRIs cannot be starved by a hot RX ring.
//
// Hot-path memory model (DESIGN.md §9): serving an item performs no heap
// allocation. The in-service item lives in a member slot and the completion
// callback captures only `this` (stored inline in the event's Callback), so
// the simulated host overhead of a frame is not polluted by allocator
// noise. Input selection consults per-priority non-empty hints instead of
// scanning every queue: a control (priority 0) input with pending work is
// found without ever touching the data queues.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/units.hpp"
#include "sim/core.hpp"
#include "sim/queue.hpp"
#include "sim/simulator.hpp"

namespace lvrm::sim {

template <typename T>
class PollServer {
 public:
  /// Cost of serving one item (may depend on the item, e.g. per-byte copy).
  /// Receives a mutable reference: servers that must *decide* something to
  /// know the cost (LVRM's dispatch step) record the decision in the item.
  using CostFn = std::function<Nanos(T&)>;
  /// Invoked when service of an item completes (at the completion time).
  using Sink = std::function<void(T&&)>;
  /// Idle hook: invoked when the scan finds no serviceable input. Return
  /// true ONLY if the hook produced new work (e.g. stole a burst into one
  /// of this server's queues) — the scan then runs again. Returning true
  /// without producing work livelocks the loop.
  using IdleHook = std::function<bool()>;

  /// `pickup_latency` models the poll loop's discovery delay: when work
  /// arrives while the server is idle, one loop iteration over its sockets
  /// and queues passes before the item is noticed. Zero = immediate.
  PollServer(Simulator& sim, Core& core, OwnerId owner, std::string name = {},
             Nanos pickup_latency = 0)
      : sim_(sim),
        core_(&core),
        owner_(owner),
        name_(std::move(name)),
        pickup_latency_(pickup_latency) {}

  PollServer(const PollServer&) = delete;
  PollServer& operator=(const PollServer&) = delete;

  /// Registers an input queue. Lower `priority` is served first. The queue's
  /// observer is captured by this server. `batch` > 1 lets the server drain
  /// up to that many consecutive items from this input once selected (poll
  /// loops read NIC rings in bursts) before re-scanning priorities; each
  /// item is its own core event, charged and delivered in turn. Returns
  /// the input index.
  std::size_t add_input(BoundedQueue<T>& q, int priority, CostFn cost,
                        Sink sink, CostCategory category = CostCategory::kUser,
                        std::size_t batch = 1) {
    inputs_.push_back(Input{&q, priority, std::move(cost), std::move(sink),
                            category, batch < 1 ? 1 : batch,
                            /*nonempty=*/!q.empty(), /*class_idx=*/0});
    rebuild_classes();
    const std::size_t idx = inputs_.size() - 1;
    q.set_observer([this, idx] {
      note_nonempty(idx);
      if (pickup_latency_ > 0 && !serving_) {
        sim_.after(pickup_latency_, [this] { maybe_serve(); });
      } else {
        maybe_serve();
      }
    });
    return idx;
  }

  /// Starts/stops the loop. A stopped server leaves queued items in place.
  void start() {
    running_ = true;
    maybe_serve();
  }
  void stop() { running_ = false; }
  bool running() const { return running_; }

  /// Stops the loop and invokes `done` once the item currently in service
  /// has completed and been delivered — immediately when already idle.
  /// Queued items stay in place, exactly as with stop(). Used by the
  /// reset-free drain: the backlog may only be migrated after the last
  /// in-flight item has egressed, or a same-flow frame redispatched to an
  /// idle sibling could overtake it.
  void quiesce(std::function<void()> done) {
    running_ = false;
    if (!serving_) {
      done();
      return;
    }
    on_quiesced_ = std::move(done);
  }

  /// Moves the server to a different core (models kernel migration in the
  /// "default" affinity policy). A migration penalty is charged to the new
  /// core as system time.
  void migrate(Core& new_core, Nanos penalty) {
    core_ = &new_core;
    core_->charge(penalty, CostCategory::kSystem);
  }

  Core& core() const { return *core_; }
  OwnerId owner() const { return owner_; }
  const std::string& name() const { return name_; }
  /// Items whose service has completed.
  std::uint64_t served() const { return served_; }
  bool busy() const { return serving_; }

  /// Repairs a stale-HIGH non-empty hint after an EXTERNAL pop (a steal,
  /// recovery drain, or shed) emptied the queue behind the scheduler's
  /// back. Without this, a hot input's set hint makes every pick_input
  /// probe the empty queue first — the §9 stale-high repair fires once per
  /// scan instead of once, which on a stolen-dry link degenerates into a
  /// permanent extra probe per serve. Harmless when the queue still holds
  /// items or the hint is already clear.
  void repair_hint(std::size_t idx) {
    Input& in = inputs_[idx];
    if (in.nonempty && in.queue->empty()) {
      in.nonempty = false;
      --classes_[in.class_idx].nonempty_count;
    }
  }

  /// Installs the idle hook (see IdleHook). One per server; replaceable.
  void set_idle_hook(IdleHook hook) { idle_hook_ = std::move(hook); }

  /// Kicks the serve loop; harmless to call at any time.
  void maybe_serve() {
    if (!running_ || serving_) return;
    std::size_t idx = kNoInput;
    if (batch_remaining_ > 0 && current_input_ != kNoInput &&
        !inputs_[current_input_].queue->empty()) {
      idx = current_input_;
      --batch_remaining_;
    } else {
      idx = pick_input();
      current_input_ = idx;
      batch_remaining_ = idx == kNoInput ? 0 : inputs_[idx].batch - 1;
    }
    if (idx == kNoInput) {
      // Nothing serviceable: give the idle hook (work stealing, §17) one
      // chance to manufacture work before the loop parks.
      if (idle_hook_ && !in_idle_hook_) {
        in_idle_hook_ = true;
        const bool retry = idle_hook_();
        in_idle_hook_ = false;
        if (retry) maybe_serve();
      }
      return;
    }
    Input& in = inputs_[idx];
    in_service_ = in.queue->pop();
    const Nanos cost = in.cost ? in.cost(*in_service_) : 0;
    serving_ = true;
    in_service_input_ = &in;
    core_->run(cost, in.category, owner_, [this] { complete_one(); });
  }

 private:
  struct Input {
    BoundedQueue<T>* queue;
    int priority;
    CostFn cost;
    Sink sink;
    CostCategory category;
    std::size_t batch = 1;
    // Non-empty hint: set by the queue observer (which fires on every
    // empty->non-empty transition), cleared only when a scan observes the
    // queue actually empty. The hint can therefore be stale-HIGH (external
    // actors — recovery, drains, thieves — pop/clear queues without telling
    // us) but never stale-LOW, so a set hint is always safe to probe and a
    // cleared hint is always safe to skip.
    bool nonempty = false;
    std::size_t class_idx = 0;
  };

  struct PrioClass {
    int priority;
    std::vector<std::size_t> members;  // input indices, ascending
    std::size_t nonempty_count = 0;    // inputs with the hint set
  };

  static constexpr std::size_t kNoInput =
      std::numeric_limits<std::size_t>::max();

  void note_nonempty(std::size_t idx) {
    Input& in = inputs_[idx];
    if (!in.nonempty) {
      in.nonempty = true;
      ++classes_[in.class_idx].nonempty_count;
    }
  }

  void rebuild_classes() {
    classes_.clear();
    for (const Input& in : inputs_) {
      bool found = false;
      for (const PrioClass& c : classes_)
        if (c.priority == in.priority) found = true;
      if (!found) classes_.push_back(PrioClass{in.priority, {}, 0});
    }
    std::sort(classes_.begin(), classes_.end(),
              [](const PrioClass& a, const PrioClass& b) {
                return a.priority < b.priority;
              });
    for (std::size_t i = 0; i < inputs_.size(); ++i) {
      for (std::size_t c = 0; c < classes_.size(); ++c) {
        if (classes_[c].priority == inputs_[i].priority) {
          inputs_[i].class_idx = c;
          classes_[c].members.push_back(i);
          if (inputs_[i].nonempty) ++classes_[c].nonempty_count;
          break;
        }
      }
    }
  }

  /// Highest-priority non-empty input, round-robin within a priority class.
  /// Classes are scanned in ascending priority and the scan stops at the
  /// first class with genuinely pending work — a non-empty control input is
  /// found without inspecting any data queue. Within the class, the member
  /// closest to `rr_cursor_` in cyclic order wins, which is exactly the
  /// input the previous full cyclic scan would have selected.
  std::size_t pick_input() {
    const std::size_t n = inputs_.size();
    for (PrioClass& cls : classes_) {
      if (cls.nonempty_count == 0) continue;
      std::size_t best = kNoInput;
      std::size_t best_rank = n;
      for (std::size_t i : cls.members) {
        Input& in = inputs_[i];
        if (!in.nonempty) continue;
        if (in.queue->empty()) {  // stale-high hint: repair and skip
          in.nonempty = false;
          --cls.nonempty_count;
          continue;
        }
        const std::size_t rank = (i + n - rr_cursor_) % n;
        if (rank < best_rank) {
          best_rank = rank;
          best = i;
        }
      }
      if (best != kNoInput) {
        rr_cursor_ = (best + 1) % n;
        return best;
      }
    }
    return kNoInput;
  }

  /// Completion: move the item out of the in-service slot before invoking
  /// the sink, so a reentrant maybe_serve() from inside the sink can safely
  /// refill the slot.
  void complete_one() {
    serving_ = false;
    ++served_;
    Input* in = in_service_input_;
    T item = std::move(*in_service_);
    in_service_.reset();
    if (in->sink) in->sink(std::move(item));
    maybe_serve();
    notify_quiesced();
  }

  /// Fires a pending quiesce() callback once service has actually wound
  /// down (stop() keeps maybe_serve() from restarting it).
  void notify_quiesced() {
    if (serving_ || !on_quiesced_) return;
    auto done = std::move(on_quiesced_);
    on_quiesced_ = nullptr;
    done();
  }

  Simulator& sim_;
  Core* core_;
  OwnerId owner_;
  std::string name_;
  std::vector<Input> inputs_;
  std::vector<PrioClass> classes_;
  std::size_t rr_cursor_ = 0;
  Nanos pickup_latency_ = 0;
  std::size_t batch_remaining_ = 0;
  std::size_t current_input_ = kNoInput;
  bool running_ = false;
  bool serving_ = false;
  std::uint64_t served_ = 0;
  // Zero-alloc serving state: the in-service item is parked in
  // `in_service_`, so serving performs no heap allocation.
  std::optional<T> in_service_;
  Input* in_service_input_ = nullptr;
  IdleHook idle_hook_;
  bool in_idle_hook_ = false;
  std::function<void()> on_quiesced_;
};

}  // namespace lvrm::sim
