// DESIGN.md §9's rule "no heap allocation per frame after warm-up", checked
// on the Fig 4.1 udp world: two UdpSenders through the Testbed into an
// LVRM/PF C++ gateway with 4 fixed VRIs, 84 B frames at 400 Kfps.
//
// This file replaces the global operator new to count allocations, which
// would count for every test linked into the same executable; it is built
// as its own test binary for that reason.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "exp/gateway.hpp"
#include "net/ip.hpp"
#include "sim/simulator.hpp"
#include "sim/topology.hpp"
#include "traffic/testbed.hpp"
#include "traffic/udp_sender.hpp"

namespace {

std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  // aligned_alloc wants the size as a multiple of the alignment.
  const auto a = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(a, (n == 0 ? a : (n + a - 1) / a * a)))
    return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_aligned_alloc(n, a);
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_aligned_alloc(n, a);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace lvrm {
namespace {

TEST(AllocationGuard, UdpSmallFramesAllocateNothingPerFrameAfterWarmup) {
  constexpr Nanos kWarmup = msec(50);
  constexpr Nanos kWindow = msec(200);  // 80k frames at 400 Kfps
  sim::Simulator sim;
  sim::CpuTopology topo;
  exp::GatewayOptions gopt;
  gopt.lvrm.allocator = AllocatorKind::kFixed;
  VrConfig vr;
  vr.initial_vris = 4;
  gopt.vrs = {vr};
  exp::GatewayUnderTest gw(sim, topo, exp::Mechanism::kLvrmPfCpp, gopt);
  traffic::Testbed bed(sim, traffic::Testbed::Config{});
  bed.set_gateway([&gw](net::FrameMeta f) { return gw.ingress(f); });
  gw.set_egress([&bed](net::FrameMeta&& f) { bed.gateway_egress(std::move(f)); });

  std::vector<std::unique_ptr<traffic::UdpSender>> senders;
  for (int h = 0; h < 2; ++h) {
    traffic::UdpSender::Config cfg;
    cfg.src_ip = net::ipv4(10, 1, static_cast<std::uint8_t>(h + 1), 1);
    cfg.dst_ip = net::ipv4(10, 2, static_cast<std::uint8_t>(h + 1), 1);
    cfg.wire_bytes = 84;
    cfg.flows = 16;
    cfg.profile = traffic::UdpSender::constant(200'000.0);
    cfg.stop_at = kWarmup + kWindow;
    senders.push_back(std::make_unique<traffic::UdpSender>(
        sim, cfg,
        [&bed, h](net::FrameMeta&& f) { bed.from_sender(h, std::move(f)); }));
    senders.back()->start();
  }

  sim.run_until(kWarmup);
  const std::uint64_t allocs0 = g_allocs.load(std::memory_order_relaxed);
  const std::uint64_t delivered0 =
      bed.delivered_to_receivers() + bed.delivered_to_senders();
  sim.run_until(kWarmup + kWindow);
  const std::uint64_t allocs =
      g_allocs.load(std::memory_order_relaxed) - allocs0;
  const std::uint64_t frames =
      bed.delivered_to_receivers() + bed.delivered_to_senders() - delivered0;

  ASSERT_GE(frames, 50'000u);
  const double per_frame =
      static_cast<double>(allocs) / static_cast<double>(frames);
  EXPECT_LT(per_frame, 0.01) << allocs << " allocations over " << frames
                             << " frames";
}

}  // namespace
}  // namespace lvrm
