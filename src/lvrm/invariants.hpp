// invariants.hpp — InvariantChecker: the one check of the promises LVRM's
// data path makes, fed by the drop hook and the caller's egress callback.
//
//   * Per-flow FIFO (Sec 3.3): the frames of one 5-tuple leave in the order
//     they were offered. Ids must grow with offer order within a flow; a
//     frame whose id is below the last id its flow egressed counts one
//     regression and becomes the flow's last id.
//   * Shard affinity (DESIGN.md §11): each frame of a 5-tuple leaves through
//     the dispatcher shard the flow's previous frame took.
//   * Conservation: delivered + hooked drops == offered, and for every
//     DropCause LvrmSystem's drop ledger equals the hook's tally, so a drop
//     that bypasses the hook fails and names its cause even where the
//     totals balance. The RX rings' own tail-drop count, kept apart from
//     the ledger, must equal the hook's kRxRingFull tally too.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>

#include "lvrm/types.hpp"
#include "net/flow.hpp"
#include "net/frame.hpp"

namespace lvrm {

class LvrmSystem;

class InvariantChecker {
 public:
  using ClassFn = std::function<std::size_t(const net::FrameMeta&)>;

  /// Routes every drop `sys` reports through its drop hook to on_drop().
  /// The caller's egress callback calls on_egress() itself.
  void attach(LvrmSystem& sys);
  /// Counts frames offered to the system (ingress() calls, accepted or not).
  void offer(std::uint64_t frames = 1) { offered_ += frames; }
  void on_egress(const net::FrameMeta& f);
  void on_drop(const net::FrameMeta& f, DropCause cause);
  /// Also splits the delivered and dropped tallies by `cls(frame)`, which
  /// must be below kClasses, for conservation per flow class.
  void split_by(ClassFn cls) { class_of_ = std::move(cls); }
  static constexpr std::size_t kClasses = 8;

  std::uint64_t offered() const { return offered_; }
  std::uint64_t delivered() const { return delivered_; }
  std::uint64_t dropped() const;
  std::uint64_t drops(DropCause cause) const {
    return drops_[static_cast<std::size_t>(cause)];
  }
  std::uint64_t delivered(std::size_t c) const { return by_class_.at(c)[0]; }
  std::uint64_t dropped(std::size_t c) const { return by_class_.at(c)[1]; }
  std::uint64_t fifo_violations() const { return fifo_violations_; }
  std::uint64_t affinity_violations() const { return affinity_violations_; }

  /// Empty when delivered + hooked drops == offered, `sys.drops(c)` equals
  /// the hook's tally for every cause c, and so does `sys.rx_ring_drops()`
  /// for kRxRingFull; otherwise names each mismatch.
  std::string conservation(const LvrmSystem& sys) const;
  /// conservation() plus the FIFO regressions and shard changes, if any.
  std::string verdict(const LvrmSystem& sys) const;

 private:
  struct Flow {
    std::uint64_t last_id = 0;
    std::int16_t shard = -1;
  };
  std::unordered_map<net::FiveTuple, Flow, net::TupleHash> flows_;
  std::array<std::uint64_t, kDropCauses> drops_{};
  ClassFn class_of_;
  // Per flow class: {delivered, dropped}.
  std::array<std::array<std::uint64_t, 2>, kClasses> by_class_{};
  std::uint64_t offered_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t fifo_violations_ = 0;
  std::uint64_t affinity_violations_ = 0;
};

}  // namespace lvrm
