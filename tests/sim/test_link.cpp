#include "sim/link.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <ostream>
#include <type_traits>
#include <vector>

#include "common/rng.hpp"

namespace lvrm::sim {
namespace {

TEST(Link, SerializationTimeMatchesRate) {
  Simulator sim;
  Link link(sim, 1e9, /*propagation=*/0, /*queue=*/16);
  Nanos delivered_at = -1;
  link.transmit(84, [&] { delivered_at = sim.now(); });
  sim.run_all();
  EXPECT_EQ(delivered_at, 84 * 8);  // 672 ns at 1 Gbps
}

TEST(Link, PropagationAdds) {
  Simulator sim;
  Link link(sim, 1e9, /*propagation=*/1000, 16);
  Nanos delivered_at = -1;
  link.transmit(125, [&] { delivered_at = sim.now(); });
  sim.run_all();
  EXPECT_EQ(delivered_at, 1000 + 1000);
}

TEST(Link, BackToBackFramesSerialize) {
  Simulator sim;
  Link link(sim, 1e9, 0, 16);
  std::vector<Nanos> times;
  for (int i = 0; i < 3; ++i)
    link.transmit(125, [&] { times.push_back(sim.now()); });
  sim.run_all();
  EXPECT_EQ(times, (std::vector<Nanos>{1000, 2000, 3000}));
}

TEST(Link, TailDropWhenQueueFull) {
  Simulator sim;
  Link link(sim, 1e9, 0, /*queue=*/2);
  int delivered = 0;
  // 1 on the wire + 2 queued fit; the 4th drops.
  for (int i = 0; i < 4; ++i)
    link.transmit(1000, [&] { ++delivered; });
  sim.run_all();
  EXPECT_EQ(delivered, 3);
  EXPECT_EQ(link.drops(), 1u);
  EXPECT_EQ(link.delivered(), 3u);
}

TEST(Link, QueueFreesAsWireDrains) {
  Simulator sim;
  Link link(sim, 1e9, 0, 1);
  int delivered = 0;
  link.transmit(1000, [&] { ++delivered; });  // on the wire
  link.transmit(1000, [&] { ++delivered; });  // queued
  EXPECT_FALSE(link.transmit(1000, [&] { ++delivered; }));  // dropped
  sim.run_until(9000);  // first two done; queue empty
  EXPECT_TRUE(link.transmit(1000, [&] { ++delivered; }));
  sim.run_all();
  EXPECT_EQ(delivered, 3);
}

TEST(Link, UtilizationTracked) {
  Simulator sim;
  Link link(sim, 1e9, 0, 16);
  link.transmit(125, nullptr);
  link.transmit(125, nullptr);
  sim.run_all();
  EXPECT_EQ(link.busy_time(), 2000);
}

TEST(Link, BacklogCountsFramesUntilTheirSerializationStarts) {
  Simulator sim;
  Link link(sim, 1e9, 0, 16);
  for (int i = 0; i < 4; ++i) link.transmit(1000, nullptr);  // 8 us each
  EXPECT_EQ(link.backlog(), 3u);  // one on the wire
  sim.run_until(8000);            // the second frame starts at 8000
  EXPECT_EQ(link.backlog(), 2u);
  sim.run_until(23'999);
  EXPECT_EQ(link.backlog(), 1u);
  sim.run_until(24'000);
  EXPECT_EQ(link.backlog(), 0u);
  sim.run_all();
  EXPECT_EQ(link.delivered(), 4u);
}

TEST(Link, LineRateCeiling) {
  // At 1 Gbps, 84-byte frames cap at ~1.488 Mfps: 1000 frames take ~672 us.
  Simulator sim;
  Link link(sim, 1e9, 0, 2000);
  int delivered = 0;
  for (int i = 0; i < 1000; ++i) link.transmit(84, [&] { ++delivered; });
  sim.run_until(usec(671));
  EXPECT_LT(delivered, 1000);
  sim.run_all();
  EXPECT_EQ(delivered, 1000);
  EXPECT_EQ(sim.now(), 1000 * 84 * 8);
}

// --- model check against the release-event link ----------------------------

// The reference model: sim::Link's rules in their direct form, where every
// delivery and every TX-slot release is its own kernel event. sim::Link
// must match it delivery for delivery and drop for drop.
class ReleaseEventLink {
 public:
  ReleaseEventLink(Simulator& sim, BitsPerSec rate, Nanos propagation,
                   std::size_t queue_limit)
      : sim_(sim),
        rate_(rate),
        propagation_(propagation),
        queue_limit_(queue_limit) {}

  template <typename F>
  bool transmit(std::int64_t bytes, F&& deliver) {
    const std::optional<Nanos> arrival = admit(bytes);
    if (!arrival) return false;
    sim_.at(*arrival, [this, deliver = std::forward<F>(deliver)]() mutable {
      ++delivered_;
      deliver();
    });
    return true;
  }

  std::uint64_t delivered() const { return delivered_; }
  std::uint64_t drops() const { return drops_; }
  std::size_t backlog() const { return backlog_; }
  Nanos busy_time() const { return busy_time_; }
  /// Release events fired so far: the events sim::Link no longer has.
  std::uint64_t releases_fired() const { return releases_fired_; }

 private:
  std::optional<Nanos> admit(std::int64_t bytes) {
    const Nanos now = sim_.now();
    const bool wire_busy = wire_free_at_ > now;
    if (wire_busy && backlog_ >= queue_limit_) {
      ++drops_;
      return std::nullopt;
    }
    const Nanos start = std::max(now, wire_free_at_);
    const Nanos wire = wire_time(bytes, rate_);
    wire_free_at_ = start + wire;
    busy_time_ += wire;
    if (wire_busy) {
      ++backlog_;
      sim_.at(start, [this] {
        --backlog_;
        ++releases_fired_;
      });
    }
    return wire_free_at_ + propagation_;
  }

  Simulator& sim_;
  BitsPerSec rate_;
  Nanos propagation_;
  std::size_t queue_limit_;
  Nanos wire_free_at_ = 0;
  std::size_t backlog_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t drops_ = 0;
  Nanos busy_time_ = 0;
  std::uint64_t releases_fired_ = 0;
};

/// One observation: what happened, when, and the link's counters then.
struct Record {
  char what;  // 'D' delivery, 'X' transmit, 'P' probe, 'S' step, 'U' run_until
  Nanos at;
  std::int64_t value;  // frame id, or transmit result
  std::uint64_t delivered;
  std::uint64_t drops;
  std::size_t backlog;
  Nanos busy;
  bool operator==(const Record&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Record& r) {
  return os << r.what << "@" << r.at << " v=" << r.value
            << " delivered=" << r.delivered << " drops=" << r.drops
            << " backlog=" << r.backlog << " busy=" << r.busy;
}

struct LinkCase {
  std::uint64_t seed;
  std::size_t queue_limit;
  Nanos propagation;
};

void PrintTo(const LinkCase& c, std::ostream* os) {
  *os << "seed" << c.seed << "_q" << c.queue_limit << "_prop" << c.propagation;
}

/// Drives one link with the schedule `c.seed` draws and logs every
/// delivery, transmit result and observation. Wire times are multiples of
/// 500 ns and probes land on the same grid, so deliveries, slot releases
/// and probes tie at exact nanoseconds all the time.
template <typename L>
std::vector<Record> drive(const LinkCase& c) {
  Simulator sim;
  L link(sim, 1e9, c.propagation, c.queue_limit);
  Rng rng(c.seed);
  std::vector<Record> log;
  std::int64_t next_frame = 0;

  const auto note = [&](char what, std::int64_t value) {
    log.push_back({what, sim.now(), value, link.delivered(), link.drops(),
                   link.backlog(), link.busy_time()});
  };
  const auto burst = [&](int frames) {
    static constexpr std::array<std::int64_t, 4> kBytes = {125, 250, 500,
                                                           1000};
    for (int i = 0; i < frames; ++i) {
      const std::int64_t id = next_frame++;
      const bool sent = link.transmit(kBytes[rng.uniform(kBytes.size())],
                                      [&note, id] { note('D', id); });
      note('X', sent ? id : -1);
    }
  };
  // Probes fire between, before or after deliveries and releases at the
  // same instant, decided by insertion order alone.
  std::function<void(std::int64_t)> probe = [&](std::int64_t id) {
    sim.after(static_cast<Nanos>(rng.uniform(24)) * 500, [&, id] {
      note('P', id);
      burst(static_cast<int>(rng.uniform(4)));
      if (rng.uniform(3) == 0) probe(id);
    });
  };
  // A step that fires the release events the reference has and sim::Link
  // does not leaves the two out of step, so the reference steps past them.
  const auto step = [&] {
    if constexpr (std::is_same_v<L, ReleaseEventLink>) {
      std::uint64_t releases = 0;
      do {
        releases = link.releases_fired();
        if (!sim.step()) return;
      } while (link.releases_fired() != releases);
    } else {
      sim.step();
    }
  };

  for (std::int64_t round = 0; round < 1000; ++round) {
    switch (rng.uniform(5)) {
      case 0:  // a back-to-back burst from outside any callback
        burst(1 + static_cast<int>(rng.uniform(6)));
        break;
      case 1:
        probe(round);
        break;
      case 2:
        step();
        note('S', 0);
        break;
      case 3:
        sim.run_until(sim.now() + static_cast<Nanos>(rng.uniform(8)) * 500);
        note('U', 0);
        break;
      default:
        for (int k = static_cast<int>(rng.uniform(6)); k > 0; --k) step();
        burst(static_cast<int>(rng.uniform(3)));
        break;
    }
  }
  sim.run_all();
  note('E', 0);
  return log;
}

class LinkModel : public ::testing::TestWithParam<LinkCase> {};

TEST_P(LinkModel, MatchesReleaseEventLink) {
  const std::vector<Record> want = drive<ReleaseEventLink>(GetParam());
  const std::vector<Record> got = drive<Link>(GetParam());
  const auto [w, g] = std::mismatch(want.begin(), want.end(), got.begin(),
                                    got.end());
  ASSERT_TRUE(w == want.end() && g == got.end())
      << "first difference at record " << (w - want.begin()) << ": want "
      << (w == want.end() ? Record{} : *w) << ", got "
      << (g == got.end() ? Record{} : *g);
  // The schedules must exercise what they are meant to.
  const auto count = [&](char what, auto pred) {
    return std::count_if(want.begin(), want.end(), [&](const Record& r) {
      return r.what == what && pred(r);
    });
  };
  std::vector<Nanos> delivery_times;
  for (const Record& r : want)
    if (r.what == 'D') delivery_times.push_back(r.at);
  const auto ties_a_delivery = [&](const Record& r) {
    return std::binary_search(delivery_times.begin(), delivery_times.end(),
                              r.at);
  };
  EXPECT_GT(count('X', [](const Record& r) { return r.value < 0; }), 20);
  EXPECT_GT(delivery_times.size(), 300u);
  EXPECT_GT(count('P', [](const Record& r) { return r.backlog > 0; }), 20);
  EXPECT_GT(count('P', ties_a_delivery), 20);
}

std::vector<LinkCase> link_cases() {
  std::vector<LinkCase> cases;
  for (std::uint64_t seed = 0; seed < 12; ++seed)
    cases.push_back({seed, 1 + seed % 3,
                     std::array<Nanos, 4>{0, 500, 2000, 7500}[seed / 3]});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Seeds, LinkModel, ::testing::ValuesIn(link_cases()));

}  // namespace
}  // namespace lvrm::sim
