// layers.cpp — span bookkeeping and the replays that time single layers.
//
// A span from the benchmark's own files cannot reach inside a layer whose
// work runs in simulator events (the kernel, dispatch, the VR). For those
// the traced run captures the layer's inputs and replays them through the
// layer's public class, timing only that class.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <queue>
#include <unordered_map>

#include "bench.hpp"
#include "common/rng.hpp"
#include "lvrm/load_balancer.hpp"
#include "lvrm/vri.hpp"
#include "sim/simulator.hpp"

namespace e2e {

using namespace lvrm;

const char* span_name(SpanName n) {
  switch (n) {
    case kSimRun: return "sim.run_until";
    case kFromSender: return "traffic.from_sender";
    case kFromReceiver: return "traffic.from_receiver";
    case kIngress: return "lvrm.ingress";
    case kGatewayEgress: return "traffic.gateway_egress";
    case kTcpOnAck: return "tcp.on_ack_at_sender";
    case kTcpOnData: return "tcp.on_data_at_receiver";
    case kCapture: return "bench.capture";
    case kSpanNameCount: break;
  }
  return "?";
}

std::array<std::int64_t, kSpanNameCount> SpanLog::self_ns() const {
  std::array<std::int64_t, kSpanNameCount> self{};
  for (const Span& s : spans_) {
    const std::int64_t d = s.end - s.start;
    self[s.name] += d;
    if (s.parent >= 0) self[spans_[static_cast<std::size_t>(s.parent)].name] -= d;
  }
  return self;
}

std::array<std::uint64_t, kSpanNameCount> SpanLog::calls() const {
  std::array<std::uint64_t, kSpanNameCount> n{};
  for (const Span& s : spans_) ++n[s.name];
  return n;
}

bool SpanLog::write_csv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fprintf(f, "index,name,parent,frame_id,start_ns,end_ns\n");
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu,%s,%d,%llu,%lld,%lld\n", i,
                 span_name(static_cast<SpanName>(s.name)), s.parent,
                 static_cast<unsigned long long>(s.frame),
                 static_cast<long long>(s.start - t0),
                 static_cast<long long>(s.end - t0));
  }
  return std::fclose(f) == 0;
}

double reference_ns() {
  // Fixed work from the benchmark's own code, shaped like a discrete-event
  // loop: a binary heap of timed entries, a std::function per event, a
  // hash-map update and a small allocation. Nothing in the library runs
  // here, so no change to the program under test can move it.
  struct Ev {
    std::int64_t at;
    std::uint32_t slot;
    bool operator>(const Ev& o) const { return at > o.at; }
  };
  static std::vector<std::function<void(std::uint64_t)>> fns;
  static std::unordered_map<std::uint64_t, std::uint64_t> table;
  if (fns.empty()) {
    for (std::uint32_t i = 0; i < 64; ++i)
      fns.emplace_back([i](std::uint64_t k) {
        auto* p = new std::uint64_t[8]{k, i};
        table[k & 4095] += p[0] ^ p[1];
        delete[] p;
      });
  }
  std::priority_queue<Ev, std::vector<Ev>, std::greater<Ev>> heap;
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (std::uint32_t i = 0; i < 256; ++i) heap.push(Ev{std::int64_t{i}, i % 64});
  const std::int64_t t0 = host_now_ns();
  for (int i = 0; i < 20000; ++i) {
    const Ev e = heap.top();
    heap.pop();
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    fns[e.slot](x);
    heap.push(Ev{e.at + static_cast<std::int64_t>(x % 1000), e.slot});
  }
  return static_cast<double>(host_now_ns() - t0);
}

double replay_kernel_ns_per_event(double events_per_frame,
                                  double cancel_per_frame, std::uint64_t seed) {
  // Delays and cancel decisions are drawn up front so the timed loop holds
  // only Simulator calls.
  constexpr int kFrames = 100'000;
  Rng rng(seed ^ 0x5EEDULL);
  std::vector<int> per_frame(kFrames);
  std::vector<Nanos> delay;
  std::vector<std::uint8_t> cancel(kFrames);
  double owed = 0;
  double cancel_owed = 0;
  for (int i = 0; i < kFrames; ++i) {
    owed += events_per_frame;
    const int n = static_cast<int>(owed);
    owed -= n;
    per_frame[static_cast<std::size_t>(i)] = n;
    for (int k = 0; k < n; ++k)
      delay.push_back(static_cast<Nanos>(1 + rng.uniform(2000)));
    cancel_owed += cancel_per_frame;
    cancel[static_cast<std::size_t>(i)] = cancel_owed >= 1.0;
    if (cancel_owed >= 1.0) cancel_owed -= 1.0;
  }

  sim::Simulator sim;
  std::uint64_t fired = 0;
  // One timer far in the future, as an RTO timer is; a cancel re-arms it,
  // as every TCP ACK does. No other event is standing.
  sim::EventId timer = sim::kInvalidEvent;
  std::size_t d = 0;
  std::uint64_t events = 0;
  const std::int64_t t0 = host_now_ns();
  for (int i = 0; i < kFrames; ++i) {
    const int n = per_frame[static_cast<std::size_t>(i)];
    for (int k = 0; k < n; ++k) sim.after(delay[d++], [&fired] { ++fired; });
    if (cancel[static_cast<std::size_t>(i)]) {
      sim.cancel(timer);
      timer = sim.after(sec(3600) + i, [&fired] { ++fired; });
    }
    for (int k = 0; k < n; ++k) sim.step();
    events += static_cast<std::uint64_t>(n);
  }
  const std::int64_t t1 = host_now_ns();
  if (fired != events) return -1.0;  // the replay itself misbehaved
  return events == 0 ? 0.0 : static_cast<double>(t1 - t0) / static_cast<double>(events);
}

DispatchReplay replay_dispatch(const RepResult& traced, std::uint64_t seed) {
  const std::size_t begin = traced.captured_window_start;
  const std::size_t end = traced.captured.size();
  if (begin >= end) return {};
  const BalancerGranularity gran =
      traced.flow_mode ? BalancerGranularity::kFlow : BalancerGranularity::kFrame;
  // One dispatcher per shard, fed the frames its shard saw, as in the world.
  // The VRI views carry no load: the world's loads are not captured.
  std::vector<std::unique_ptr<Dispatcher>> shards;
  for (int s = 0; s < traced.dispatch_shards; ++s)
    shards.push_back(std::make_unique<Dispatcher>(
        make_balancer(BalancerKind::kJoinShortestQueue, seed), gran));
  std::vector<VriView> views;
  for (int v = 0; v < std::max(traced.vris, 1); ++v)
    views.push_back(VriView{v, 0.0, false});
  const auto feed = [&](std::size_t from, std::size_t to) {
    int sink = 0;
    for (std::size_t i = from; i < to; ++i) {
      const net::FrameMeta& f = traced.captured[i];
      Dispatcher& d = *shards[static_cast<std::size_t>(traced.captured_shard[i])];
      sink += d.dispatch(f, views, f.gw_in_at);
    }
    return sink;
  };
  // The warm-up fills the flow tables, untimed.
  int sink = feed(0, begin);
  DispatchStats before;
  for (const auto& d : shards) before += d->stats();
  const std::int64_t t0 = host_now_ns();
  sink += feed(begin, end);
  const std::int64_t t1 = host_now_ns();
  DispatchStats after;
  for (const auto& d : shards) after += d->stats();
  DispatchReplay out;
  out.ns_per_frame = sink < 0 ? -1.0
                              : static_cast<double>(t1 - t0) /
                                    static_cast<double>(end - begin);
  const std::uint64_t probes = after.flow_probes - before.flow_probes;
  out.hit_frac = probes == 0 ? 0.0
                             : static_cast<double>(after.flow_hits - before.flow_hits) /
                                   static_cast<double>(probes);
  return out;
}

double replay_vr_ns_per_frame(const RepResult& traced) {
  const auto begin = static_cast<std::ptrdiff_t>(traced.captured_window_start);
  if (traced.captured.size() <= traced.captured_window_start) return 0.0;
  CppVr vr(default_route_map());
  std::vector<net::FrameMeta> frames(traced.captured.begin() + begin,
                                     traced.captured.end());
  std::size_t forwarded = 0;
  const std::int64_t t0 = host_now_ns();
  for (net::FrameMeta& f : frames) forwarded += vr.process(f) ? 1 : 0;
  const std::int64_t t1 = host_now_ns();
  if (forwarded == 0) return -1.0;
  return static_cast<double>(t1 - t0) / static_cast<double>(frames.size());
}

}  // namespace e2e
