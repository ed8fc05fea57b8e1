#include "exp/rig.hpp"

namespace lvrm::exp {

FrameMaker port_flows(int flows) {
  return [flows](std::uint64_t n) {
    net::FrameMeta f;
    f.id = n;
    f.src_ip = net::ipv4(10, 1, 0, 1);
    f.dst_ip = net::ipv4(10, 2, 0, 1);
    f.src_port = static_cast<std::uint16_t>(
        1000 + (n + 1) % static_cast<std::uint64_t>(flows));
    return f;
  };
}

FrameMaker spread_flows(int flows) {
  return [flows](std::uint64_t n) {
    net::FrameMeta f;
    f.id = n;
    const auto flow =
        static_cast<std::uint32_t>(n % static_cast<std::uint64_t>(flows));
    f.src_ip = net::ipv4(10, 1, 0, 1) + (flow >> 4);
    f.dst_ip = net::ipv4(10, 2, 0, 1);
    f.src_port = static_cast<std::uint16_t>(2000 + (flow & 15));
    return f;
  };
}

FrameMaker host_flow(net::Ipv4Addr src) {
  return [src](std::uint64_t n) {
    net::FrameMeta f;
    f.id = n;
    f.src_ip = src;
    f.dst_ip = net::ipv4(10, 2, 0, 1);
    return f;
  };
}

FrameMaker trace_flows(int flows, int bytes) {
  return [flows, bytes](std::uint64_t n) {
    net::FrameMeta f;
    f.id = n;
    f.wire_bytes = bytes;
    const auto flow =
        static_cast<std::uint32_t>(n % static_cast<std::uint64_t>(flows));
    f.src_ip = net::ipv4(10, 1, 0, 1) + (flow >> 6);
    f.dst_ip = net::ipv4(10, 2, 0, 1) + (flow >> 6);
    f.src_port = static_cast<std::uint16_t>(9000 + (flow & 63));
    f.dst_port = 9;
    return f;
  };
}

net::FrameMeta port_frame(std::uint16_t src_port, std::uint64_t id,
                          int bytes) {
  net::FrameMeta f;
  f.id = id;
  f.wire_bytes = bytes;
  f.src_ip = net::ipv4(10, 1, 0, 1);
  f.dst_ip = net::ipv4(10, 2, 0, 1);
  f.src_port = src_port;
  f.dst_port = 9;
  return f;
}

LvrmConfig ram_config() {
  LvrmConfig cfg;
  cfg.adapter = AdapterKind::kMemory;
  cfg.allocator = AllocatorKind::kFixed;
  return cfg;
}

LvrmRig::LvrmRig(const LvrmConfig& cfg, const std::vector<VrConfig>& vrs)
    : sys(std::make_unique<LvrmSystem>(sim, topo, cfg)),
      faults(std::make_unique<FaultInjector>(sim, *sys)) {
  for (const VrConfig& vr : vrs) sys->add_vr(vr);
  sys->start();
  check.attach(*sys);
  sys->set_egress([this](net::FrameMeta&& f) {
    check.on_egress(f);
    latency_us.add(to_micros(sim.now() - f.gw_in_at));
    if (keep_egress) out.push_back(f);
    if (on_egress) on_egress(f);
  });
}

LvrmRig::LvrmRig(const LvrmConfig& cfg, int vris, Nanos dummy_load)
    : LvrmRig(cfg, {one_vr(vris, dummy_load)}) {}

VrConfig LvrmRig::one_vr(int vris, Nanos dummy_load) {
  VrConfig vr;
  vr.initial_vris = vris;
  vr.dummy_load = dummy_load;
  return vr;
}

bool LvrmRig::ingress(const net::FrameMeta& f) {
  check.offer();
  return sys->ingress(f);
}

void LvrmRig::source(Nanos from, std::function<Nanos()> step) {
  std::function<void()>& run = sources_.emplace_back();
  run = [this, step = std::move(step), &run] {
    if (stopped_) return;
    const Nanos delay = step();
    if (delay >= 0) sim.after(delay, [&run] { run(); });
  };
  sim.at(from, [&run] { run(); });
}

void LvrmRig::offer(double fps, Nanos until, FrameMaker make, Nanos from) {
  const Nanos gap = interval_for_rate(fps);
  source(from, [this, gap, until, make = std::move(make)]() -> Nanos {
    if (sim.now() >= until) return -1;
    ingress(make(next_id++));
    return gap;
  });
}

void LvrmRig::refill(int burst, std::size_t lanes, LaneMaker make,
                     Nanos every, Nanos until) {
  source(0, [this, burst, every, until, make = std::move(make),
             seq = std::vector<std::uint64_t>(lanes),
             lane = std::size_t{0}]() mutable -> Nanos {
    if (sim.now() >= until) return -1;
    for (int i = 0; i < burst; ++i) {
      const std::size_t l = lane;
      lane = (lane + 1) % seq.size();
      if (!ingress(make(l, seq[l]))) break;
      ++seq[l];
    }
    return every;
  });
}

void LvrmRig::refill(int burst, FrameMaker make) {
  refill(burst, 1,
         [make = std::move(make)](std::size_t, std::uint64_t n) {
           return make(n);
         },
         usec(50));
}

void LvrmRig::credit(double elephant_fps, int mice, double mice_fps,
                     int bytes, Nanos until) {
  struct Flow {
    std::uint16_t port;
    double fps;
    double credit = 0.0;
    std::uint64_t seq = 0;
  };
  std::vector<Flow> flows = {{kElephantPort, elephant_fps}};
  for (int m = 0; m < mice; ++m)
    flows.push_back({static_cast<std::uint16_t>(9000 + m), mice_fps / mice});
  const Nanos tick = usec(20);
  const double dt = to_seconds(tick);
  source(0, [this, bytes, until, tick, dt,
             flows = std::move(flows)]() mutable -> Nanos {
    if (sim.now() >= until) return -1;
    for (Flow& flow : flows) {
      flow.credit += flow.fps * dt;
      while (flow.credit >= 1.0) {
        flow.credit -= 1.0;
        if (!ingress(port_frame(flow.port, flow.seq, bytes))) break;
        ++flow.seq;
      }
    }
    return tick;
  });
}

std::string LvrmRig::drain() {
  stopped_ = true;
  sim.run_all();
  return conservation();
}

}  // namespace lvrm::exp
