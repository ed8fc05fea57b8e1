// fanin.hpp — the real-thread ingress fan-in that bench_hotpath (the
// fabric_scaling_* keys) and bench_exp9_fabric both time: an S-shard x V-VRI
// SPSC mesh against the MPMC link fabric of DESIGN.md §17.
#pragma once

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "queue/mpmc_link.hpp"
#include "queue/spsc_ring.hpp"

namespace lvrm::bench {

/// Defeats dead-code elimination of the consumers' reads.
inline std::atomic<std::uint64_t> fanin_sink{0};

/// Producer (and consumer) threads of one fan-in run: half the CPUs this
/// process may run on (what `nproc` prints), so producers plus consumers
/// never outnumber the CPUs. A stalled thread yields; with more threads
/// than CPUs the yield hands its CPU to another bench thread, and the ratio
/// then measures the host's scheduler as much as the topology.
inline std::size_t fanin_threads_per_side() {
  cpu_set_t set;
  std::size_t cpus = std::thread::hardware_concurrency();
  if (sched_getaffinity(0, sizeof(set), &set) == 0)
    cpus = static_cast<std::size_t>(CPU_COUNT(&set));
  return std::max<std::size_t>(1, cpus / 2);
}

/// Aggregate throughput (Mops) of an S-shard x V-VRI ingress fan-in on real
/// threads, mesh vs fabric topology, with the thread pool capped by
/// fanin_threads_per_side() so the comparison scales by TOPOLOGY (how many
/// rings a consumer must scan, how items concentrate) rather than by core
/// count. Traffic is sparse the way flow-affinity dispatch makes it: at any
/// moment only a couple of shards feed a given VRI (`kHotShards`), but the
/// mesh consumer cannot know which, so it sweeps all S per-VRI rings and
/// pays S-2 empty probes per pass — the cost the fabric deletes by
/// concentrating each VRI's ingress in one MpmcLink. Mesh: V*S SpscRings,
/// producer p sole pusher of its shards' rings, consumer c scanning all S
/// rings of each owned VRI. Fabric: V MpmcLinks, every producer pushing
/// straight into the destination VRI's one link.
inline double fabric_fanin_mops(bool fabric, std::size_t shards,
                                std::size_t vris, std::uint64_t per_vri) {
  const std::size_t per_side = fanin_threads_per_side();
  const std::size_t kProducers = std::min(per_side, shards);
  const std::size_t kConsumers = std::min(per_side, vris);
  const std::size_t kHotShards = std::min<std::size_t>(2, shards);
  const std::uint64_t per_pair = per_vri / kHotShards;
  const std::uint64_t total = per_pair * kHotShards * vris;
  // Equal aggregate buffering per VRI in both topologies: the fabric link
  // is as deep as the S mesh rings it replaces, matching how LvrmSystem
  // sizes them from one data queue capacity. The per-ring depth is kept
  // shallow (a served system drains ahead of its producers), which is
  // where the topologies diverge: a shallow mesh ring hands the consumer
  // fragmented sub-burst pops — one index handshake per few items — while
  // the link concentrates the same backlog into full-burst pops.
  const std::size_t kMeshCap = 16;
  std::vector<std::unique_ptr<queue::SpscRing<std::uint64_t>>> mesh;
  std::vector<std::unique_ptr<queue::MpmcLink<std::uint64_t>>> links;
  if (fabric) {
    for (std::size_t v = 0; v < vris; ++v)
      links.push_back(std::make_unique<queue::MpmcLink<std::uint64_t>>(
          kMeshCap * shards));
  } else {
    for (std::size_t i = 0; i < vris * shards; ++i)
      mesh.push_back(std::make_unique<queue::SpscRing<std::uint64_t>>(kMeshCap));
  }
  std::atomic<std::uint64_t> popped{0};
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(kProducers + kConsumers);
  for (std::size_t p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      std::uint64_t buf[16];
      for (std::size_t i = 0; i < 16; ++i) buf[i] = i;
      // Remaining quota per (vri, hot-shard) pair, walked round-robin so
      // every active destination stays warm the way a dispatch plane keeps
      // them. VRI v's hot shards are v%S, v+1%S, ... — spread so every
      // shard (and so every producer thread) carries an equal share.
      std::vector<std::pair<std::size_t, std::uint64_t>> work;  // {dst, rem}
      for (std::size_t v = 0; v < vris; ++v)
        for (std::size_t k = 0; k < kHotShards; ++k) {
          const std::size_t s = (v + k) % shards;
          if (s % kProducers != p) continue;
          work.emplace_back(fabric ? v : v * shards + s, per_pair);
        }
      std::size_t live = work.size();
      while (live > 0) {
        bool progressed = false;
        for (auto& [dst, rem] : work) {
          if (rem == 0) continue;
          const std::size_t want =
              static_cast<std::size_t>(std::min<std::uint64_t>(16, rem));
          const std::size_t ok = fabric
                                     ? links[dst]->try_push_batch(buf, want)
                                     : mesh[dst]->try_push_batch(buf, want);
          rem -= ok;
          if (ok > 0) progressed = true;
          if (rem == 0) --live;
        }
        if (!progressed) std::this_thread::yield();
      }
    });
  }
  for (std::size_t c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&, c] {
      std::uint64_t buf[64];
      std::uint64_t acc = 0;
      while (popped.load(std::memory_order_relaxed) < total) {
        std::uint64_t round = 0;
        for (std::size_t v = c; v < vris; v += kConsumers) {
          if (fabric) {
            const std::size_t got = links[v]->try_pop_batch(buf, 64);
            for (std::size_t i = 0; i < got; ++i) acc += buf[i];
            round += got;
          } else {
            for (std::size_t s = 0; s < shards; ++s) {
              const std::size_t got =
                  mesh[v * shards + s]->try_pop_batch(buf, 64);
              for (std::size_t i = 0; i < got; ++i) acc += buf[i];
              round += got;
            }
          }
        }
        if (round == 0)
          std::this_thread::yield();
        else
          popped.fetch_add(round, std::memory_order_relaxed);
      }
      fanin_sink.fetch_add(acc, std::memory_order_relaxed);
    });
  }
  for (auto& t : threads) t.join();
  const double elapsed_ns = std::chrono::duration<double, std::nano>(
                                std::chrono::steady_clock::now() - t0)
                                .count();
  return static_cast<double>(total) * 1e3 / elapsed_ns;
}

}  // namespace lvrm::bench
