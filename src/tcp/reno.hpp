// reno.hpp — TCP Reno flow model over the simulated network.
//
// Experiments 3c and 4 drive LVRM with "realistic FTP/TCP servers and
// clients": bidirectional flows whose rates are governed by TCP's congestion
// control reacting to tail drops at the gateway's 1-Gbps output link. This
// model implements the Reno loss-recovery machinery that produces those
// dynamics: slow start, congestion avoidance (AIMD), triple-duplicate-ACK
// fast retransmit + fast recovery, RTO with exponential backoff and Karn's
// rule for RTT sampling, and a fixed receive window with an optional
// application drain rate (the thesis notes the FTP client's socket/file I/O
// scheduling throttles sources, Sec 4.5).
//
// Sequence numbers count whole segments, not bytes — every data segment is
// full-sized, which matches the bulk-transfer FTP workload and keeps the
// model exact.
#pragma once

#include <cstdint>
#include <functional>
#include <set>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "net/frame.hpp"
#include "sim/simulator.hpp"
#include "sim/timer.hpp"

namespace lvrm::tcp {

struct RenoConfig {
  std::int32_t flow_index = 0;
  int segment_wire_bytes = 1538;
  int ack_wire_bytes = 84;
  int payload_bytes = 1448;         // goodput per segment
  double initial_cwnd = 2.0;        // segments
  std::uint32_t rwnd_segments = 44; // ~64 KB window
  Nanos min_rto = msec(200);
  Nanos max_rto = sec(60);
  /// 0 = unbounded transfer; otherwise stop after this many segments.
  std::uint64_t file_segments = 0;
  /// Receiver application drain rate in bits/s (0 = unlimited). ACKs are
  /// released only after the app has "read" the data from the socket.
  BitsPerSec app_drain_rate = 0;
  /// Uniform per-segment send jitter (0 = none). Real hosts never stay
  /// phase-locked; without this, identical deterministic flows synchronize
  /// their losses and fairness collapses into lockout.
  Nanos send_jitter = 0;
  /// Uniform jitter on ACK release at the receiver (0 = none): the FTP
  /// client process must be scheduled by the kernel to read the socket
  /// (Sec 4.5), which decorrelates the flows' ACK clocks. FIFO per flow.
  Nanos ack_jitter = 0;
  /// Addressing carried in emitted FrameMeta (drives VR classification and
  /// flow-based balancing at the gateway).
  net::Ipv4Addr sender_ip = 0;
  net::Ipv4Addr receiver_ip = 0;
  std::uint16_t sender_port = 20;  // ftp-data
  std::uint16_t receiver_port = 50000;
};

/// One unidirectional bulk-transfer flow (sender + receiver endpoints).
/// The owner wires `send_data` toward the gateway's sender-side interface
/// and `send_ack` toward its receiver-side interface, and feeds delivered
/// frames back through on_data_at_receiver()/on_ack_at_sender(). Frames the
/// network drops are simply never fed back — loss needs no signalling.
class RenoFlow {
 public:
  using SendFn = std::function<void(net::FrameMeta)>;

  RenoFlow(sim::Simulator& sim, RenoConfig config, SendFn send_data,
           SendFn send_ack);
  RenoFlow(const RenoFlow&) = delete;
  RenoFlow& operator=(const RenoFlow&) = delete;

  /// Opens the flow at time `at` (connection handshake is abstracted away;
  /// FTP control-channel chatter is negligible next to the bulk data).
  void start(Nanos at);

  /// Delivery callbacks (invoked by the experiment harness).
  void on_data_at_receiver(const net::FrameMeta& frame);
  void on_ack_at_sender(const net::FrameMeta& frame);

  // --- statistics -----------------------------------------------------------
  std::uint64_t segments_sent() const { return segments_sent_; }
  std::uint64_t segments_delivered() const { return delivered_; }
  std::uint64_t retransmits() const { return retransmits_; }
  std::uint64_t timeouts() const { return timeouts_; }
  /// Arrivals of segments the receiver already had — the footprint of
  /// spurious (reordering-triggered) retransmissions.
  std::uint64_t spurious_deliveries() const { return spurious_rx_; }
  double cwnd() const { return cwnd_; }
  bool finished() const {
    return config_.file_segments != 0 && send_base_ >= config_.file_segments;
  }

  /// Goodput in bits/s over [from, to], counting in-order delivered data.
  BitsPerSec goodput(Nanos from, Nanos to) const;

  /// Marks the start of a measurement window (delivered counter snapshot).
  void begin_measurement(Nanos now);
  std::uint64_t delivered_since_mark() const { return delivered_ - mark_; }
  Nanos mark_time() const { return mark_time_; }

 private:
  // sender side
  void try_send();
  void emit_segment(std::uint64_t seq, bool retransmit);
  void arm_rto();
  void on_rto();
  void sample_rtt(Nanos rtt);
  std::uint64_t in_flight() const { return next_seq_ - send_base_; }
  double window() const;

  // receiver side
  void deliver_in_order(std::uint64_t seq);
  void emit_ack();

  sim::Simulator& sim_;
  RenoConfig config_;
  SendFn send_data_;
  SendFn send_ack_;

  // --- sender state ---
  std::uint64_t next_seq_ = 0;   // next new segment to send
  std::uint64_t send_base_ = 0;  // lowest unacked segment
  double cwnd_;
  double ssthresh_ = 1e9;
  int dup_acks_ = 0;
  bool in_recovery_ = false;
  std::uint64_t recover_ = 0;  // recovery ends when ack passes this
  sim::Timer rto_timer_;
  Nanos rto_ = msec(1000);
  Nanos srtt_ = 0;
  Nanos rttvar_ = 0;
  bool rtt_valid_ = false;
  std::uint64_t rtt_probe_seq_ = 0;
  Nanos rtt_probe_time_ = -1;
  int rto_backoff_ = 0;

  // --- receiver state ---
  std::uint64_t recv_next_ = 0;
  std::set<std::uint64_t> out_of_order_;
  Nanos app_free_at_ = 0;

  Rng rng_{1};
  Nanos last_send_release_ = 0;
  Nanos last_ack_release_ = 0;

  // --- stats ---
  std::uint64_t segments_sent_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t retransmits_ = 0;
  std::uint64_t timeouts_ = 0;
  std::uint64_t spurious_rx_ = 0;
  std::uint64_t mark_ = 0;
  Nanos mark_time_ = 0;
  Nanos start_time_ = 0;
};

}  // namespace lvrm::tcp
