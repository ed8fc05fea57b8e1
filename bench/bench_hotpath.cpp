// bench_hotpath — host-side microbench of the allocation-free frame hot
// path.
//
// Unlike the exp* benches, which measure *simulated* time, this one measures
// REAL host nanoseconds spent per frame of simulation work — the overhead the
// thesis' Sec 3.5 optimizations target. Sections:
//
//   ring     : SpscRing/McRingBuffer throughput, try_push/try_pop one at a
//              time vs try_push_batch/try_pop_batch in bursts of 16.
//   kernel   : the event queue alone: schedule + fire of a 152 B frame
//              hand-off with 64 events standing, and the same with one far
//              timer cancelled and pushed again per event (a cancel-and-push
//              re-arm, the pattern sim::Timer avoids).
//   poll     : a PollServer inside a Simulator driving frames through a
//              cost+sink input drained in bursts of 16; host ns per
//              simulated frame.
//   dispatch : Dispatcher in flow mode, per-frame dispatch() over 16-frame
//              bursts of 4 hot flows.
//
// Emits BENCH_hotpath.json (flat key:number). With --baseline=FILE the run
// compares its per-frame host overhead (normalized by a calibration spin
// loop so the check is machine-independent) and the fan-in speedup ratio
// keys against the committed baseline. Every gate runs and prints its
// verdict; the exit code is 1 if any failed (regression beyond --tolerance,
// default 0.25, or an overhead gate below), 2 for an unreadable baseline.
//
//   telemetry: the same poll workload with the obs-layer hot-path touches
//              (snapshot-cadence check, sample tick, sampled latency
//              records) on vs off, interleaved; --check-telemetry-overhead=
//              0.03 turns the measured fraction into a CI gate.
//   tracing  : the §15 tracer. The interleaved micro loop isolates the
//              per-frame add-on of the hot-path touches (flight-recorder
//              store at every hop, pressure observation + adaptive sample
//              tick at dispatch, PathSpan append for the sampled subset);
//              a full LVRM/PF C++ pipeline run measures what a frame costs
//              the gateway end to end. --check-trace-overhead=0.03 gates
//              the ratio add-on / pipeline-frame-cost — see the comment at
//              the measurement for why the ratio, not an e2e difference.
//   tcp pipe : host ns per offered frame of a short Exp 4 run_tcp_trial
//              (100 Reno flows, 2000-frame bottleneck trunks), the one
//              section whose event heap runs deep. Additive and ungated.
//   padding  : a REAL two-thread SpscRing transfer — the producer and
//              consumer index blocks live on separate cache lines
//              (alignas(kCacheLine)); this is the workload that collapses
//              if that separation regresses (false sharing).
//   flowtable: host ns per hit lookup, FlowTable vs FlowTableV2, and the
//              v2 steady insert cost.
//   fabric   : the §17 MPMC link, and the real-thread ingress fan-in of
//              bench/fanin.hpp, SPSC mesh vs fabric, at three topologies.
//
// Every section times the host clock. The simulated outputs of Exp 5
// (shards), Exp 6 (overload) and Exp 9 (ring inventory, stealing) are
// pinned by the Golden.* ctests, not re-run here.
//
// Usage: bench_hotpath [--quick] [--out=BENCH_hotpath.json]
//                      [--baseline=FILE] [--tolerance=0.25]
//                      [--check-telemetry-overhead=FRAC]
//                      [--check-trace-overhead=FRAC]
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench/fanin.hpp"
#include "common/cli.hpp"
#include "common/rng.hpp"
#include "exp/experiments.hpp"
#include "lvrm/load_balancer.hpp"
#include "net/flow.hpp"
#include "net/flow_v2.hpp"
#include "net/frame.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "queue/mc_ring.hpp"
#include "queue/mpmc_link.hpp"
#include "queue/spsc_ring.hpp"
#include "sim/callback.hpp"
#include "sim/costs.hpp"
#include "sim/poll_server.hpp"
#include "sim/queue.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace lvrm;

double now_ns() {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double median_of(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

/// Median of `reps` timed runs of `fn()` (fn returns ns for its whole run).
template <typename Fn>
double median_ns(int reps, Fn fn) {
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(reps));
  fn();  // warm-up: faults pages, warms caches and branch predictors
  for (int r = 0; r < reps; ++r) samples.push_back(fn());
  return median_of(std::move(samples));
}

/// Best (minimum) of `reps` runs of a ns-per-item metric. Noise — preemption,
/// frequency dips, a busy sibling — only ever ADDS time, so the minimum is
/// the cleanest observation (same argument as the telemetry gate's
/// ratio-of-minimums). Used for the sections whose JSON keys feed speedup
/// ratios, where median-vs-median of two noisy series understates the
/// cleaner side.
template <typename Fn>
double best_min(int reps, Fn fn) {
  fn();  // warm-up
  double best = fn();
  for (int r = 1; r < reps; ++r) best = std::min(best, fn());
  return best;
}

/// Best (maximum) of `reps` runs of a throughput (Mops) metric — the dual
/// of best_min: noise only ever lowers throughput.
template <typename Fn>
double best_max(int reps, Fn fn) {
  fn();  // warm-up
  double best = fn();
  for (int r = 1; r < reps; ++r) best = std::max(best, fn());
  return best;
}

std::atomic<std::uint64_t> g_guard{0};  // defeats dead-code elimination

/// Fixed integer-mix spin loop; its measured time normalizes the regression
/// check across machines (a slower box scales both sides equally).
double calibration_ns(std::uint64_t iters) {
  const double t0 = now_ns();
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (std::uint64_t i = 0; i < iters; ++i) {
    x ^= x >> 33;
    x *= 0xFF51AFD7ED558CCDULL;
    x ^= x >> 29;
  }
  g_guard.fetch_add(x, std::memory_order_relaxed);
  return now_ns() - t0;
}

// --- ring: single vs batch ------------------------------------------------------

/// In real use a ring op is one step of a poll loop doing other work, not a
/// back-to-back microloop the compiler can fuse: member state is reloaded
/// and the call sequence re-issued every time. The barrier models that,
/// identically for every configuration — once per API call, so a 16-burst
/// pays it once where 16 single calls pay it 16 times. That per-call cost
/// is precisely what the batch API amortizes.
inline void call_boundary() { asm volatile("" ::: "memory"); }

/// Throughput of the batch API at a given burst size. `batch` = 1 measures
/// the same code path one item per call — the per-call index handshake
/// (cached-peer check + release publication) is paid per item instead of
/// per burst.
template <typename Ring>
double ring_mops(Ring& ring, std::uint64_t items, std::size_t batch) {
  std::uint64_t in_buf[64];
  std::uint64_t out_buf[64];
  for (std::size_t i = 0; i < 64; ++i) in_buf[i] = i;  // payload is opaque
  const double t0 = now_ns();
  std::uint64_t done = 0;
  std::uint64_t acc = 0;
  while (done < items) {
    // Transfer 16 items per outer round regardless of burst size, so loop
    // scaffolding is identical across the compared configurations.
    for (std::size_t base = 0; base < 16; base += batch) {
      ring.try_push_batch(in_buf, batch);
      call_boundary();
    }
    for (std::size_t base = 0; base < 16; base += batch) {
      const std::size_t popped = ring.try_pop_batch(out_buf, batch);
      call_boundary();
      acc += popped + out_buf[0];
    }
    done += 16;
  }
  const double elapsed = now_ns() - t0;
  g_guard.fetch_add(acc, std::memory_order_relaxed);
  // One transferred item = one push + one pop; count items, not halves.
  return static_cast<double>(items) * 1e3 / elapsed;  // Mops
}

/// Classic one-at-a-time API (try_push/try_pop), for reference.
template <typename Ring>
double ring_single_mops(Ring& ring, std::uint64_t items) {
  const double t0 = now_ns();
  std::uint64_t done = 0;
  std::uint64_t acc = 0;
  while (done < items) {
    for (int i = 0; i < 16; ++i) {
      ring.try_push(done + static_cast<std::uint64_t>(i));
      call_boundary();
    }
    for (int i = 0; i < 16; ++i) {
      auto v = ring.try_pop();
      call_boundary();
      if (v) acc += *v;
    }
    done += 16;
  }
  const double elapsed = now_ns() - t0;
  g_guard.fetch_add(acc, std::memory_order_relaxed);
  return static_cast<double>(items) * 1e3 / elapsed;
}

// --- kernel: the discrete-event queue on its own ---------------------------------

/// Schedules and fires frame hand-offs the way the per-frame events of
/// LvrmSystem and the testbed do: each event captures `[this, FrameMeta]`
/// (152 B, inside the Callback's inline buffer) and 64 events stand in the
/// queue. With `rearm`, every fired event also cancels and re-pushes one
/// far timer, the cost a cancel-and-push re-arm adds to an event. Returns
/// host ns per fired event.
class KernelBench {
 public:
  double run(std::uint64_t events, bool rearm) {
    constexpr int kStanding = 64;
    std::vector<Nanos> delays(4096);
    Rng rng(7);
    for (Nanos& d : delays) d = static_cast<Nanos>(1 + rng.uniform(2000));
    std::size_t next = 0;
    for (int i = 0; i < kStanding; ++i) schedule(delays[next++]);
    sim::EventId timer = sim_.after(sec(3600), [this] { ++sunk_; });
    const double t0 = now_ns();
    for (std::uint64_t i = 0; i < events; ++i) {
      sim_.step();
      schedule(delays[next++ % delays.size()]);
      if (rearm) {
        sim_.cancel(timer);
        timer = sim_.after(sec(3600), [this] { ++sunk_; });
      }
    }
    const double elapsed = now_ns() - t0;
    g_guard.fetch_add(sunk_, std::memory_order_relaxed);
    return elapsed / static_cast<double>(events);
  }

 private:
  void schedule(Nanos delay) {
    net::FrameMeta f;
    f.id = ++ids_;
    auto hand_off = [this, f] { sunk_ += f.id; };
    static_assert(sizeof(hand_off) == 152);
    static_assert(sim::Callback::stores_inline<decltype(hand_off)>);
    sim_.after(delay, std::move(hand_off));
  }

  sim::Simulator sim_;
  std::uint64_t ids_ = 0;
  std::uint64_t sunk_ = 0;
};

// --- poll: PollServer host overhead per simulated frame -------------------------

double poll_host_ns(std::uint64_t frames) {
  sim::Simulator sim;
  sim::Core core(sim, 0, 0);
  sim::BoundedQueue<net::FrameMeta> q(frames + 1, "bench-q");
  sim::PollServer<net::FrameMeta> server(sim, core, 0, "bench");
  std::uint64_t sunk = 0;
  server.add_input(
      q, /*priority=*/1, [](net::FrameMeta&) { return Nanos{100}; },
      [&sunk](net::FrameMeta&& f) { sunk += f.id; },
      sim::CostCategory::kUser, /*batch=*/16);
  server.start();
  const double t0 = now_ns();
  for (std::uint64_t i = 0; i < frames; ++i) {
    net::FrameMeta f;
    f.id = i;
    q.push(std::move(f));
  }
  sim.run_all();
  const double elapsed = now_ns() - t0;
  g_guard.fetch_add(sunk, std::memory_order_relaxed);
  return elapsed / static_cast<double>(frames);
}

// --- telemetry: hot-path overhead of the obs layer -------------------------------

/// Same workload as poll_host_ns(frames), with the Telemetry calls
/// LvrmSystem makes per frame when telemetry is on: the snapshot-cadence
/// check and the deterministic 1-in-N sample tick at RX, and — for the
/// sampled subset — the three latency records at TX. Counters and gauges
/// read LvrmSystem's own tallies at snapshot time, so they add nothing
/// here. `tel` null reproduces the telemetry-off configuration: the branch
/// is still there (LvrmSystem always pays one null check) but nothing else
/// is.
double poll_host_ns_telemetry(std::uint64_t frames, obs::Telemetry* tel) {
  sim::Simulator sim;
  sim::Core core(sim, 0, 0);
  sim::BoundedQueue<net::FrameMeta> q(frames + 1, "bench-q");
  sim::PollServer<net::FrameMeta> server(sim, core, 0, "bench");
  std::uint64_t sunk = 0;
  server.add_input(
      q, /*priority=*/1,
      [tel, &sim](net::FrameMeta& f) {
        if (tel) {
          tel->maybe_snapshot(sim.now());
          if (tel->should_sample()) f.obs_sampled = 1;
        }
        return Nanos{100};
      },
      [&sunk, tel](net::FrameMeta&& f) {
        if (tel && f.obs_sampled)
          tel->record_latency(static_cast<Nanos>(f.id & 1023), 100,
                              static_cast<Nanos>(f.id & 4095));
        sunk += f.id;
      },
      sim::CostCategory::kUser, /*batch=*/16);
  server.start();
  const double t0 = now_ns();
  for (std::uint64_t i = 0; i < frames; ++i) {
    net::FrameMeta f;
    f.id = i;
    q.push(std::move(f));
  }
  sim.run_all();
  const double elapsed = now_ns() - t0;
  g_guard.fetch_add(sunk, std::memory_order_relaxed);
  return elapsed / static_cast<double>(frames);
}

// --- tracing: hot-path overhead of the §15 tracer --------------------------------

/// Same workload again, with the exact per-frame touches LvrmSystem makes
/// when `tracing.enabled` is set: compact flight-recorder stores at RX
/// ingress + dispatch (cost fn) and VRI start/end + TX drain (sink) — five
/// per delivered frame, matching the real pipeline's hop count — plus the
/// pressure observation feeding the adaptive controller, the sample tick,
/// and the PathSpan append for the sampled subset. `tracer` null reproduces
/// tracing-off: one null check, nothing else, like the real hot path.
double poll_host_ns_tracing(std::uint64_t frames, obs::Tracer* tracer) {
  sim::Simulator sim;
  sim::Core core(sim, 0, 0);
  sim::BoundedQueue<net::FrameMeta> q(frames + 1, "bench-q");
  sim::PollServer<net::FrameMeta> server(sim, core, 0, "bench");
  std::uint64_t sunk = 0;
  server.add_input(
      q, /*priority=*/1,
      [tracer](net::FrameMeta& f) {
        if (tracer) {
          const Nanos t = static_cast<Nanos>(f.id);
          tracer->record(0, obs::TraceHop::kRxIngress, f.id, 0, -1, t, 84);
          tracer->observe_pressure(false, t);
          if (tracer->should_sample()) f.obs_sampled = 1;
          tracer->record(0, obs::TraceHop::kDispatch, f.id, 0, 0, t, 0,
                         f.obs_sampled != 0);
        }
        return Nanos{100};
      },
      [&sunk, tracer](net::FrameMeta&& f) {
        if (tracer) {
          const Nanos t = static_cast<Nanos>(f.id) + 100;
          const bool sampled = f.obs_sampled != 0;
          tracer->record(0, obs::TraceHop::kVriStart, f.id, 0, 0, t, 0,
                         sampled);
          tracer->record(0, obs::TraceHop::kVriEnd, f.id, 0, 0, t, 0,
                         sampled);
          tracer->record(0, obs::TraceHop::kTxDrain, f.id, 0, 0, t, 0,
                         sampled);
          if (sampled) {
            obs::PathSpan s;
            s.frame_id = f.id;
            s.gw_in = static_cast<Nanos>(f.id);
            s.gw_out = t;
            tracer->add_span(s);
          }
        }
        sunk += f.id;
      },
      sim::CostCategory::kUser, /*batch=*/16);
  server.start();
  const double t0 = now_ns();
  for (std::uint64_t i = 0; i < frames; ++i) {
    net::FrameMeta f;
    f.id = i;
    q.push(std::move(f));
  }
  sim.run_all();
  const double elapsed = now_ns() - t0;
  g_guard.fetch_add(sunk, std::memory_order_relaxed);
  return elapsed / static_cast<double>(frames);
}

// --- dispatch: per-frame flow-mode decisions -------------------------------------

net::FrameMeta make_flow_frame(std::uint32_t flow, std::uint64_t id) {
  net::FrameMeta f;
  f.id = id;
  f.src_ip = net::ipv4(10, 1, 0, 1) + flow;
  f.dst_ip = net::ipv4(10, 2, 0, 1);
  f.src_port = static_cast<std::uint16_t>(1000 + flow);
  f.dst_port = 9;
  f.protocol = 17;
  return f;
}

double dispatch_ns(std::uint64_t frames) {
  Dispatcher d(make_balancer(BalancerKind::kJoinShortestQueue, 1),
               BalancerGranularity::kFlow);
  const std::vector<VriView> views = {
      {0, 0.5, false}, {1, 0.3, false}, {2, 0.7, false}};
  constexpr std::size_t kBurst = 16;
  constexpr std::uint32_t kFlows = 4;  // hot flows per burst
  std::vector<net::FrameMeta> burst(kBurst);
  std::uint64_t acc = 0;
  const double t0 = now_ns();
  for (std::uint64_t done = 0; done < frames; done += kBurst) {
    for (std::size_t i = 0; i < kBurst; ++i)
      burst[i] = make_flow_frame(static_cast<std::uint32_t>(i) % kFlows,
                                 done + i);
    const Nanos now = static_cast<Nanos>(done);
    for (auto& f : burst)
      acc += static_cast<std::uint64_t>(d.dispatch(f, views, now));
  }
  const double elapsed = now_ns() - t0;
  g_guard.fetch_add(acc, std::memory_order_relaxed);
  return elapsed / static_cast<double>(frames);
}

// --- padding: real two-thread SPSC transfer --------------------------------------

/// Producer and consumer on separate host threads hammering one SpscRing.
/// The ring's alignas(kCacheLine) owner-grouped index blocks are what keep
/// the two cores from false-sharing; if that separation regresses, every
/// push invalidates the consumer's line and this number collapses.
double ring_padding_mops(std::uint64_t items) {
  queue::SpscRing<std::uint64_t> ring(1024);
  std::uint64_t sum = 0;
  // Yield when the ring stalls: with fewer host cores than threads a raw
  // spin burns the peer's whole scheduler quantum; when a core per thread
  // is available the 1024-deep ring makes stalls (and yields) rare.
  std::thread consumer([&] {
    std::uint64_t got = 0;
    while (got < items) {
      if (const auto v = ring.try_pop()) {
        sum += *v;
        ++got;
      } else {
        std::this_thread::yield();
      }
    }
  });
  const double t0 = now_ns();
  for (std::uint64_t i = 0; i < items;) {
    if (ring.try_push(i)) {
      ++i;
    } else {
      std::this_thread::yield();
    }
  }
  consumer.join();
  const double elapsed = now_ns() - t0;
  g_guard.fetch_add(sum, std::memory_order_relaxed);
  return static_cast<double>(items) * 1e3 / elapsed;
}

// --- MPMC link (DESIGN.md §17) ---------------------------------------------------

/// Real-thread MPMC transfer: `producers` pushers and `consumers` poppers
/// hammering one MpmcLink. Conservation is checked (sum of popped values);
/// the returned rate counts transferred items against wall clock.
double mpmc_threaded_mops(std::size_t producers, std::size_t consumers,
                          std::uint64_t per_producer, std::size_t capacity) {
  queue::MpmcLink<std::uint64_t> link(capacity);
  const std::uint64_t total = per_producer * producers;
  std::atomic<std::uint64_t> popped{0};
  std::atomic<std::uint64_t> sum{0};
  const double t0 = now_ns();
  std::vector<std::thread> threads;
  threads.reserve(producers + consumers);
  for (std::size_t p = 0; p < producers; ++p) {
    threads.emplace_back([&, p] {
      std::uint64_t buf[16];
      std::uint64_t sent = 0;
      while (sent < per_producer) {
        const std::size_t want = static_cast<std::size_t>(
            std::min<std::uint64_t>(16, per_producer - sent));
        for (std::size_t i = 0; i < want; ++i)
          buf[i] = (static_cast<std::uint64_t>(p) << 32) | (sent + i);
        const std::size_t ok = link.try_push_batch(buf, want);
        if (ok == 0) std::this_thread::yield();
        sent += ok;
      }
    });
  }
  for (std::size_t c = 0; c < consumers; ++c) {
    threads.emplace_back([&] {
      std::uint64_t buf[64];
      std::uint64_t local = 0;
      while (popped.load(std::memory_order_relaxed) < total) {
        const std::size_t got = link.try_pop_batch(buf, 64);
        if (got == 0) {
          std::this_thread::yield();
          continue;
        }
        for (std::size_t i = 0; i < got; ++i) local += buf[i] & 0xFFFFFFFFu;
        popped.fetch_add(got, std::memory_order_relaxed);
      }
      sum.fetch_add(local, std::memory_order_relaxed);
    });
  }
  for (auto& t : threads) t.join();
  const double elapsed = now_ns() - t0;
  g_guard.fetch_add(sum.load(), std::memory_order_relaxed);
  return static_cast<double>(total) * 1e3 / elapsed;
}

// --- tiny flat-JSON reader (baseline files are written by this binary) ----------

std::map<std::string, double> read_flat_json(const std::string& path) {
  std::map<std::string, double> out;
  std::ifstream in(path);
  if (!in) return out;
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  std::size_t pos = 0;
  while ((pos = text.find('"', pos)) != std::string::npos) {
    const std::size_t end = text.find('"', pos + 1);
    if (end == std::string::npos) break;
    const std::string key = text.substr(pos + 1, end - pos - 1);
    std::size_t colon = text.find(':', end);
    if (colon == std::string::npos) break;
    ++colon;
    while (colon < text.size() && (text[colon] == ' ')) ++colon;
    char* parsed_end = nullptr;
    const double value = std::strtod(text.c_str() + colon, &parsed_end);
    if (parsed_end != text.c_str() + colon) out[key] = value;
    pos = text.find(',', colon);
    if (pos == std::string::npos) break;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const bool quick = cli.get_bool("quick", false);
  const std::string out_path = cli.get_string("out", "BENCH_hotpath.json");
  const std::string baseline = cli.get_string("baseline", "");
  const double tolerance = cli.get_double("tolerance", 0.25);

  const std::uint64_t kRingItems = quick ? 400'000 : 4'000'000;
  const std::uint64_t kKernelEvents = quick ? 200'000 : 2'000'000;
  const std::uint64_t kPollFrames = quick ? 50'000 : 400'000;
  const std::uint64_t kDispatchFrames = quick ? 80'000 : 800'000;
  const std::uint64_t kCalibIters = 2'000'000;
  const int reps = quick ? 3 : 5;

  queue::SpscRing<std::uint64_t> spsc(1024);
  const double spsc_classic =
      median_ns(reps, [&] { return ring_single_mops(spsc, kRingItems); });
  const double spsc_single =
      median_ns(reps, [&] { return ring_mops(spsc, kRingItems, 1); });
  const double spsc_batch =
      median_ns(reps, [&] { return ring_mops(spsc, kRingItems, 16); });
  queue::McRingBuffer<std::uint64_t> mc(1024, 8);
  const double mc_single =
      median_ns(reps, [&] { return ring_mops(mc, kRingItems, 1); });
  const double mc_batch =
      median_ns(reps, [&] { return ring_mops(mc, kRingItems, 16); });

  // Pair each poll-overhead rep with a calibration sample taken immediately
  // before it: on a shared box the machine speed drifts over the run, so a
  // single start-of-run calibration does not track the speed in effect when
  // the guarded workload actually executes. The contemporaneous per-rep
  // ratio is what the regression check compares.
  std::vector<double> calib_samples, poll_samples, ratio_samples;
  calibration_ns(kCalibIters);        // warm-up
  poll_host_ns(kPollFrames);          // warm-up
  for (int r = 0; r < reps; ++r) {
    const double c = calibration_ns(kCalibIters);
    const double p = poll_host_ns(kPollFrames);
    calib_samples.push_back(c);
    poll_samples.push_back(p);
    ratio_samples.push_back(p / c);
  }
  const double calib = median_of(calib_samples);
  const double poll_item = median_of(poll_samples);
  const double host_ratio = median_of(ratio_samples);

  const double kernel_event = median_ns(
      reps, [&] { return KernelBench{}.run(kKernelEvents, /*rearm=*/false); });
  const double kernel_rearm = median_ns(
      reps, [&] { return KernelBench{}.run(kKernelEvents, /*rearm=*/true); });

  const double disp_frame =
      median_ns(reps, [&] { return dispatch_ns(kDispatchFrames); });

  // Two-thread false-sharing sentinel for the alignas(kCacheLine) ring
  // index separation.
  const std::uint64_t kPadItems = quick ? 500'000 : 2'000'000;
  const double pad_mops =
      best_max(reps, [&] { return ring_padding_mops(kPadItems); });

  // Telemetry overhead: interleave off/on runs so machine-speed drift hits
  // both sides equally, then compare each side's minimum (below). This is
  // the <3% CI gate (--check-telemetry-overhead).
  std::vector<double> tel_off_samples, tel_on_samples;
  {
    obs::Telemetry tel;
    // Longer runs than the other sections: the gate resolves a ~1% effect,
    // so each sample must average over enough frames to drown scheduler
    // jitter.
    const std::uint64_t tel_frames = kPollFrames * 4;
    poll_host_ns_telemetry(tel_frames, nullptr);  // warm-up
    poll_host_ns_telemetry(tel_frames, &tel);     // warm-up
    const int tel_reps = 3 * reps + 6;  // cheap runs; buy down the noise
    for (int r = 0; r < tel_reps; ++r) {
      const double off = poll_host_ns_telemetry(tel_frames, nullptr);
      const double on = poll_host_ns_telemetry(tel_frames, &tel);
      tel_off_samples.push_back(off);
      tel_on_samples.push_back(on);
    }
  }
  // Gate on the ratio of minimums: noise (preemption, frequency dips) only
  // ever ADDS time, so each side's minimum is its cleanest run and their
  // ratio isolates the per-frame telemetry cost from machine jitter.
  const double tel_off = *std::min_element(tel_off_samples.begin(),
                                           tel_off_samples.end());
  const double tel_on = *std::min_element(tel_on_samples.begin(),
                                          tel_on_samples.end());
  const double tel_overhead = tel_on / tel_off - 1.0;

  // §15 tracing overhead, micro view: the tracer's hop touches against the
  // bare poll-serve loop. Diagnostic only — the loop is far lighter than the
  // real per-frame pipeline, so this fraction wildly overstates the share
  // tracing takes of actual gateway work (it prices a ~13 ns cost against a
  // ~140 ns denominator instead of the pipeline's).
  std::vector<double> trace_off_samples, trace_on_samples;
  {
    obs::TracingConfig tcfg;
    tcfg.enabled = true;
    obs::Tracer tracer(tcfg, /*shards=*/1);
    const std::uint64_t trace_frames = kPollFrames * 4;
    poll_host_ns_tracing(trace_frames, nullptr);  // warm-up
    poll_host_ns_tracing(trace_frames, &tracer);  // warm-up
    const int trace_reps = 3 * reps + 6;
    for (int r = 0; r < trace_reps; ++r) {
      trace_off_samples.push_back(poll_host_ns_tracing(trace_frames, nullptr));
      trace_on_samples.push_back(poll_host_ns_tracing(trace_frames, &tracer));
    }
  }
  const double trace_off = *std::min_element(trace_off_samples.begin(),
                                             trace_off_samples.end());
  const double trace_on = *std::min_element(trace_on_samples.begin(),
                                            trace_on_samples.end());

  // The GATED tracing number composes two measurements from this run:
  //
  //   numerator   = the tracer's per-frame add-on in the interleaved micro
  //                 loop above (minimum-on minus minimum-off — both sides
  //                 share the loop, so the difference isolates the tracer).
  //   denominator = what a frame costs the gateway END TO END: host
  //                 wall-clock per offered frame through the full Fig 4.2
  //                 LVRM/PF C++ world (RX ring -> classify -> dispatch ->
  //                 VRI -> TX) at a fixed feasible rate.
  //
  // Gating the ratio of the two is deliberately NOT the same as differencing
  // two end-to-end wall-clock runs: on a shared CI runner the e2e numbers
  // jitter by ~10-15%, which swamps a 3% budget when it sits in a
  // difference, but only perturbs the budget by ~0.1-0.2 points when it
  // sits in a denominator this much larger than the numerator.
  auto pipeline_frame_ns = [&]() {
    lvrm::exp::WorldOptions opt;
    opt.mech = lvrm::exp::Mechanism::kLvrmPfCpp;
    opt.frame_bytes = 84;
    opt.warmup = quick ? msec(5) : msec(20);
    opt.measure = quick ? msec(60) : msec(250);
    const double t0 = now_ns();
    const auto res = lvrm::exp::run_udp_trial(opt, 400'000.0);
    const double elapsed = now_ns() - t0;
    g_guard.fetch_add(res.received, std::memory_order_relaxed);
    return elapsed / static_cast<double>(res.sent ? res.sent : 1);
  };
  std::vector<double> pipe_samples;
  pipeline_frame_ns();  // warm-up
  for (int r = 0; r < reps + 2; ++r)
    pipe_samples.push_back(pipeline_frame_ns());
  const double pipeline_frame =
      *std::min_element(pipe_samples.begin(), pipe_samples.end());

  // The same cost on the Exp 4 world: 100 closed-loop Reno flows both ways
  // through 2000-frame bottleneck trunks. Its frames wait on the trunks
  // and its timers re-arm on every ACK, so the event heap runs deep, which
  // the udp pipeline above never does. Host ns per frame the hosts offer.
  auto pipeline_tcp_frame_ns = [&]() {
    lvrm::exp::TcpWorldOptions opt;
    opt.warmup = quick ? msec(300) : msec(500);
    opt.measure = quick ? msec(200) : msec(1000);
    const double t0 = now_ns();
    const auto res = lvrm::exp::run_tcp_trial(opt);
    const double elapsed = now_ns() - t0;
    g_guard.fetch_add(res.retransmits, std::memory_order_relaxed);
    return elapsed / static_cast<double>(
                         res.frames_offered ? res.frames_offered : 1);
  };
  std::vector<double> tcp_pipe_samples;
  for (int r = 0; r < reps; ++r)
    tcp_pipe_samples.push_back(pipeline_tcp_frame_ns());
  const double pipeline_tcp_frame =
      *std::min_element(tcp_pipe_samples.begin(), tcp_pipe_samples.end());
  // Signed on purpose: a negative add-on means the on/off difference is
  // inside the loop's noise, and clamping it to zero would hide that.
  const double trace_addon = trace_on - trace_off;
  const double trace_overhead = trace_addon / pipeline_frame;

  // Flow-table generations (DESIGN.md §14, Exp 7 in miniature): host ns per
  // hit lookup on the classic linear-probe table vs the v2 bucketed-cuckoo
  // table at a fixed resident-flow count, plus the v2 steady insert cost
  // with incremental-growth work amortized in. Additive keys; the deep
  // scaling sweep (1M/4M/16M, mixes, pause percentiles) lives in
  // bench_exp7_flowscale.
  const std::size_t ft_n = quick ? 50'000 : 500'000;
  const std::size_t ft_ops = quick ? 100'000 : 400'000;
  auto ft_tuple = [](std::uint32_t i) {
    net::FiveTuple t;
    t.src_ip = 0x0A000000u + i;
    t.dst_ip = 0x0AC80001u;
    t.src_port = static_cast<std::uint16_t>(1024 + (i & 0x3FFF));
    t.dst_port = 443;
    t.protocol = 6;
    return t;
  };
  Rng ft_rng(42);
  std::vector<std::uint32_t> ft_order(ft_ops);
  for (auto& o : ft_order)
    o = static_cast<std::uint32_t>(ft_rng.uniform(ft_n));
  net::FlowTable ft_v1(ft_n, sec(30));
  net::FlowTableV2 ft_v2(4096, sec(30));
  for (std::uint32_t i = 0; i < ft_n; ++i) {
    ft_v1.insert(ft_tuple(i), static_cast<int>(i & 7), 0);
    ft_v2.insert(ft_tuple(i), static_cast<int>(i & 7), 0);
  }
  const double ft_v1_lookup = best_min(3, [&] {
    std::uint64_t sink = 0;
    const double t0 = now_ns();
    for (const std::uint32_t o : ft_order)
      sink += static_cast<std::uint64_t>(ft_v1.lookup(ft_tuple(o), 1).value_or(0));
    g_guard += sink;
    return (now_ns() - t0) / static_cast<double>(ft_ops);
  });
  const double ft_v2_lookup = best_min(3, [&] {
    std::uint64_t sink = 0;
    const double t0 = now_ns();
    for (const std::uint32_t o : ft_order)
      sink += static_cast<std::uint64_t>(ft_v2.lookup(ft_tuple(o), 1).value_or(0));
    g_guard += sink;
    return (now_ns() - t0) / static_cast<double>(ft_ops);
  });
  std::uint32_t ft_next = static_cast<std::uint32_t>(ft_n);
  const double ft_v2_insert = best_min(3, [&] {
    const double t0 = now_ns();
    for (std::size_t i = 0; i < ft_ops; ++i)
      ft_v2.insert(ft_tuple(ft_next++), static_cast<int>(i & 7), 1);
    return (now_ns() - t0) / static_cast<double>(ft_ops);
  });

  // MPMC link (DESIGN.md §17): same single-thread templates as the SPSC
  // block so the per-op cost of the CAS-claim/ordered-publish protocol is
  // directly comparable, plus real multi-producer transfers.
  queue::MpmcLink<std::uint64_t> mpmc(1024);
  const double mpmc_classic =
      median_ns(reps, [&] { return ring_single_mops(mpmc, kRingItems); });
  const double mpmc_single =
      median_ns(reps, [&] { return ring_mops(mpmc, kRingItems, 1); });
  const double mpmc_batch =
      median_ns(reps, [&] { return ring_mops(mpmc, kRingItems, 16); });
  const std::uint64_t kMtItems = quick ? 200'000 : 1'000'000;
  const double mpmc_2p2c = best_max(
      reps, [&] { return mpmc_threaded_mops(2, 2, kMtItems, 1024); });
  const double mpmc_4p4c = best_max(
      reps, [&] { return mpmc_threaded_mops(4, 4, kMtItems / 2, 1024); });

  // Fabric fan-in: aggregate real-thread ingress rate, mesh vs fabric, at
  // three shards x VRIs topologies. The speedup keys are ratios —
  // machine-independent — and are the ones the baseline gate watches.
  const std::uint64_t kPerVriItems = quick ? 24'000 : 96'000;
  // Mesh and fabric runs alternate, and the reps cycle through the three
  // topologies, so a burst of host noise lands on both sides of several
  // keys instead of on every rep of one; each side keeps its best run
  // (noise only ever lowers throughput). Their ratios feed the baseline
  // gate, so they get five times the usual reps.
  const int fanin_reps = 5 * reps;
  struct Fanin {
    std::size_t shards, vris;
    double mesh_mops, fab_mops;
  };
  Fanin fanin[] = {{4, 8, 0.0, 0.0}, {8, 16, 0.0, 0.0}, {16, 32, 0.0, 0.0}};
  for (int r = 0; r < fanin_reps; ++r) {
    for (Fanin& f : fanin) {
      f.mesh_mops = std::max(f.mesh_mops, bench::fabric_fanin_mops(
                                              false, f.shards, f.vris,
                                              kPerVriItems));
      f.fab_mops = std::max(f.fab_mops, bench::fabric_fanin_mops(
                                            true, f.shards, f.vris,
                                            kPerVriItems));
    }
  }
  const double fanin_mesh_4x8 = fanin[0].mesh_mops;
  const double fanin_fab_4x8 = fanin[0].fab_mops;
  const double fanin_mesh_8x16 = fanin[1].mesh_mops;
  const double fanin_fab_8x16 = fanin[1].fab_mops;
  const double fanin_mesh_16x32 = fanin[2].mesh_mops;
  const double fanin_fab_16x32 = fanin[2].fab_mops;

  std::ofstream out(out_path);
  out.precision(4);
  out << std::fixed;
  out << "{\n"
      << "  \"quick\": " << (quick ? 1 : 0) << ",\n"
      << "  \"calib_ns\": " << calib << ",\n"
      << "  \"ring_spsc_classic_mops\": " << spsc_classic << ",\n"
      << "  \"ring_spsc_batch1_mops\": " << spsc_single << ",\n"
      << "  \"ring_spsc_batch16_mops\": " << spsc_batch << ",\n"
      << "  \"ring_spsc_batch_speedup\": " << spsc_batch / spsc_single << ",\n"
      << "  \"ring_mc_batch1_mops\": " << mc_single << ",\n"
      << "  \"ring_mc_batch16_mops\": " << mc_batch << ",\n"
      << "  \"ring_mc_batch_speedup\": " << mc_batch / mc_single << ",\n"
      << "  \"poll_per_item_host_ns\": " << poll_item << ",\n"
      << "  \"dispatch_per_frame_ns\": " << disp_frame << ",\n"
      << "  \"ring_padding_mops\": " << pad_mops << ",\n"
      << "  \"flowtable_v1_lookup_ns\": " << ft_v1_lookup << ",\n"
      << "  \"flowtable_v2_lookup_ns\": " << ft_v2_lookup << ",\n"
      << "  \"flowtable_lookup_speedup\": " << ft_v1_lookup / ft_v2_lookup
      << ",\n"
      << "  \"flowtable_v2_insert_ns\": " << ft_v2_insert << ",\n"
      << "  \"mpmc_classic_mops\": " << mpmc_classic << ",\n"
      << "  \"mpmc_batch1_mops\": " << mpmc_single << ",\n"
      << "  \"mpmc_batch16_mops\": " << mpmc_batch << ",\n"
      << "  \"mpmc_batch_speedup\": " << mpmc_batch / mpmc_single << ",\n"
      << "  \"mpmc_mt_2p2c_mops\": " << mpmc_2p2c << ",\n"
      << "  \"mpmc_mt_4p4c_mops\": " << mpmc_4p4c << ",\n"
      << "  \"fabric_scaling_mesh_mops_4x8\": " << fanin_mesh_4x8 << ",\n"
      << "  \"fabric_scaling_fabric_mops_4x8\": " << fanin_fab_4x8 << ",\n"
      << "  \"fabric_scaling_agg_speedup_4x8\": "
      << fanin_fab_4x8 / fanin_mesh_4x8 << ",\n"
      << "  \"fabric_scaling_mesh_mops_8x16\": " << fanin_mesh_8x16 << ",\n"
      << "  \"fabric_scaling_fabric_mops_8x16\": " << fanin_fab_8x16 << ",\n"
      << "  \"fabric_scaling_agg_speedup_8x16\": "
      << fanin_fab_8x16 / fanin_mesh_8x16 << ",\n"
      << "  \"fabric_scaling_mesh_mops_16x32\": " << fanin_mesh_16x32 << ",\n"
      << "  \"fabric_scaling_fabric_mops_16x32\": " << fanin_fab_16x32
      << ",\n"
      << "  \"fabric_scaling_agg_speedup_16x32\": "
      << fanin_fab_16x32 / fanin_mesh_16x32 << ",\n"
      << "  \"poll_telemetry_off_ns\": " << tel_off << ",\n"
      << "  \"poll_telemetry_on_ns\": " << tel_on << ",\n"
      << "  \"telemetry_overhead_frac\": " << tel_overhead << ",\n"
      << "  \"poll_trace_off_ns\": " << trace_off << ",\n"
      << "  \"poll_trace_on_ns\": " << trace_on << ",\n"
      << "  \"trace_addon_ns\": " << trace_addon << ",\n"
      << "  \"pipeline_frame_ns\": " << pipeline_frame << ",\n"
      << "  \"pipeline_tcp_frame_ns\": " << pipeline_tcp_frame << ",\n"
      << "  \"trace_overhead_frac\": " << trace_overhead << ",\n"
      << "  \"per_frame_host_ratio\": " << std::scientific << host_ratio
      << std::fixed << ",\n"
      << "  \"kernel_event_ns\": " << kernel_event << ",\n"
      << "  \"kernel_rearm_ns\": " << kernel_rearm << "\n"
      << "}\n";
  out.close();

  std::printf("bench_hotpath (%s)\n", quick ? "quick" : "full");
  std::printf("  calib spin            : %.0f ns\n", calib);
  std::printf("  SpscRing classic      : %.1f Mops\n", spsc_classic);
  std::printf("  SpscRing batch 1/16   : %.1f / %.1f Mops (%.2fx)\n",
              spsc_single, spsc_batch, spsc_batch / spsc_single);
  std::printf("  McRing   batch 1/16   : %.1f / %.1f Mops (%.2fx)\n",
              mc_single, mc_batch, mc_batch / mc_single);
  std::printf("  poll per item         : %.1f host ns/frame\n", poll_item);
  std::printf("  kernel event / rearm  : %.1f / %.1f host ns/event\n",
              kernel_event, kernel_rearm);
  std::printf("  dispatch per frame    : %.1f ns\n", disp_frame);
  std::printf("  ring padding 2-thread : %.1f Mops\n", pad_mops);
  std::printf("  MpmcLink classic      : %.1f Mops\n", mpmc_classic);
  std::printf("  MpmcLink batch 1/16   : %.1f / %.1f Mops (%.2fx)\n",
              mpmc_single, mpmc_batch, mpmc_batch / mpmc_single);
  std::printf("  MpmcLink 2p2c / 4p4c  : %.1f / %.1f Mops\n", mpmc_2p2c,
              mpmc_4p4c);
  std::printf(
      "  fabric fan-in 8x16    : mesh %.1f vs fabric %.1f Mops (%.2fx)\n",
      fanin_mesh_8x16, fanin_fab_8x16, fanin_fab_8x16 / fanin_mesh_8x16);
  std::printf(
      "  flowtable v1/v2 hit   : %.1f / %.1f ns (%.2fx) at %zu flows; v2 "
      "insert %.1f ns\n",
      ft_v1_lookup, ft_v2_lookup, ft_v1_lookup / ft_v2_lookup, ft_n,
      ft_v2_insert);
  std::printf("  telemetry off/on      : %.1f / %.1f host ns/frame (%+.2f%%)\n",
              tel_off, tel_on, 100.0 * tel_overhead);
  std::printf("  tracing micro off/on  : %.1f / %.1f host ns/frame (%+.1f ns)\n",
              trace_off, trace_on, trace_addon);
  std::printf("  tracing vs pipeline   : %+.1f ns on %.1f ns/frame e2e (%+.2f%%)\n",
              trace_addon, pipeline_frame, 100.0 * trace_overhead);
  std::printf("  tcp pipeline (Exp 4)  : %.1f host ns/offered frame\n",
              pipeline_tcp_frame);
  std::printf("  wrote %s\n", out_path.c_str());

  // Every gate runs and prints its verdict, so one failing key cannot hide
  // another; the exit code reports whether any failed.
  bool failed = false;
  const double tel_gate = cli.get_double("check-telemetry-overhead", -1.0);
  if (tel_gate >= 0.0) {
    std::printf("  telemetry gate        : %+.2f%% vs %.0f%% allowed\n",
                100.0 * tel_overhead, 100.0 * tel_gate);
    if (tel_overhead > tel_gate) {
      std::printf("  telemetry hot-path overhead too high: FAIL\n");
      failed = true;
    } else {
      std::printf("  within telemetry budget: OK\n");
    }
  }

  const double trace_gate = cli.get_double("check-trace-overhead", -1.0);
  if (trace_gate >= 0.0) {
    std::printf("  tracing gate          : %+.2f%% vs %.0f%% allowed\n",
                100.0 * trace_overhead, 100.0 * trace_gate);
    if (trace_overhead > trace_gate) {
      std::printf("  tracing hot-path overhead too high: FAIL\n");
      failed = true;
    } else {
      std::printf("  within tracing budget : OK\n");
    }
  }

  if (!baseline.empty()) {
    const auto base = read_flat_json(baseline);
    // Normalize by the calibration loop so the check compares *relative*
    // overhead, not absolute speed of whatever machine CI landed on.
    const auto it_ratio = base.find("per_frame_host_ratio");
    if (it_ratio == base.end() || it_ratio->second <= 0.0) {
      std::printf("  baseline %s unreadable: FAIL\n", baseline.c_str());
      return 2;
    }
    const double base_ratio = it_ratio->second;
    const double now_ratio = host_ratio;
    std::printf(
        "  regression check      : now %.3e vs baseline %.3e "
        "(tolerance %.0f%%)\n",
        now_ratio, base_ratio, tolerance * 100.0);
    if (now_ratio > base_ratio * (1.0 + tolerance)) {
      std::printf("  per-frame host overhead regressed: FAIL\n");
      failed = true;
    } else {
      std::printf("  within tolerance: OK\n");
    }

    // Fabric-scaling gate: only the fan-in speedup RATIO keys are compared
    // — they divide out machine speed, unlike the raw mops keys. A current
    // ratio more than `tolerance` below the committed baseline's fails.
    // Baselines that predate these keys skip silently.
    const std::map<std::string, double> fabric_now = {
        {"fabric_scaling_agg_speedup_4x8", fanin_fab_4x8 / fanin_mesh_4x8},
        {"fabric_scaling_agg_speedup_8x16", fanin_fab_8x16 / fanin_mesh_8x16},
        {"fabric_scaling_agg_speedup_16x32",
         fanin_fab_16x32 / fanin_mesh_16x32},
    };
    for (const auto& [key, now_val] : fabric_now) {
      const auto it = base.find(key);
      if (it == base.end() || it->second <= 0.0) continue;
      const bool regressed = now_val < it->second * (1.0 - tolerance);
      std::printf("  %s: now %.3f vs baseline %.3f%s\n", key.c_str(), now_val,
                  it->second, regressed ? ": FAIL" : "");
      failed |= regressed;
    }
  }
  return failed ? 1 : 0;
}
