#include "tcp/reno.hpp"

#include <algorithm>

#include "net/headers.hpp"

namespace lvrm::tcp {

RenoFlow::RenoFlow(sim::Simulator& sim, RenoConfig config, SendFn send_data,
                   SendFn send_ack)
    : sim_(sim),
      config_(config),
      send_data_(std::move(send_data)),
      send_ack_(std::move(send_ack)),
      cwnd_(config.initial_cwnd),
      rto_timer_(sim, [this] { on_rto(); }),
      rto_(config.min_rto * 2),
      rng_(0x7C0FFEE0 + static_cast<std::uint64_t>(config.flow_index)) {}

void RenoFlow::start(Nanos at) {
  start_time_ = at;
  sim_.at(at, [this] { try_send(); });
}

double RenoFlow::window() const {
  return std::min(cwnd_, static_cast<double>(config_.rwnd_segments));
}

void RenoFlow::try_send() {
  while (static_cast<double>(in_flight()) < window()) {
    if (config_.file_segments != 0 && next_seq_ >= config_.file_segments)
      return;
    emit_segment(next_seq_, /*retransmit=*/false);
    ++next_seq_;
  }
}

void RenoFlow::emit_segment(std::uint64_t seq, bool retransmit) {
  net::FrameMeta f;
  f.kind = net::FrameKind::kTcpData;
  f.wire_bytes = config_.segment_wire_bytes;
  f.protocol = net::kProtoTcp;
  f.src_ip = config_.sender_ip;
  f.dst_ip = config_.receiver_ip;
  f.src_port = config_.sender_port;
  f.dst_port = config_.receiver_port;
  f.flow_index = config_.flow_index;
  f.tcp_seq = seq;
  f.created_at = sim_.now();
  ++segments_sent_;
  if (retransmit) {
    ++retransmits_;
  } else if (rtt_probe_time_ < 0) {
    // Karn's rule: sample RTT only on segments sent exactly once.
    rtt_probe_seq_ = seq;
    rtt_probe_time_ = sim_.now();
  }
  if (config_.send_jitter > 0) {
    // Jittered but FIFO within the flow: a later segment never overtakes an
    // earlier one (that would fabricate reordering the host stack avoids).
    const Nanos draw = static_cast<Nanos>(
        rng_.uniform(static_cast<std::uint64_t>(config_.send_jitter)));
    const Nanos release = std::max(sim_.now() + draw, last_send_release_);
    last_send_release_ = release;
    sim_.at(release, [this, f] { send_data_(f); });
  } else {
    send_data_(f);
  }
  arm_rto();
}

void RenoFlow::arm_rto() {
  rto_timer_.arm(sim_.now() + std::min(config_.max_rto, rto_ << rto_backoff_));
}

void RenoFlow::on_rto() {
  if (in_flight() == 0) return;
  ++timeouts_;
  ssthresh_ = std::max(static_cast<double>(in_flight()) / 2.0, 2.0);
  cwnd_ = 1.0;
  dup_acks_ = 0;
  in_recovery_ = false;
  rto_backoff_ = std::min(rto_backoff_ + 1, 4);
  rtt_probe_time_ = -1;  // in-flight probe is now ambiguous
  // Go-back-N restart: resend the base segment; subsequent segments are
  // clocked out by returning ACKs.
  emit_segment(send_base_, /*retransmit=*/true);
}

void RenoFlow::sample_rtt(Nanos rtt) {
  if (!rtt_valid_) {
    srtt_ = rtt;
    rttvar_ = rtt / 2;
    rtt_valid_ = true;
  } else {
    const Nanos err = rtt > srtt_ ? rtt - srtt_ : srtt_ - rtt;
    rttvar_ = (3 * rttvar_ + err) / 4;
    srtt_ = (7 * srtt_ + rtt) / 8;
  }
  rto_ = std::max(config_.min_rto, srtt_ + 4 * rttvar_);
}

void RenoFlow::on_ack_at_sender(const net::FrameMeta& frame) {
  const std::uint64_t ack = frame.tcp_seq;  // next expected segment
  if (ack > send_base_) {
    // --- new data acknowledged ---
    if (rtt_probe_time_ >= 0 && ack > rtt_probe_seq_) {
      sample_rtt(sim_.now() - rtt_probe_time_);
      rtt_probe_time_ = -1;
    }
    rto_backoff_ = 0;
    send_base_ = ack;
    dup_acks_ = 0;
    if (in_recovery_) {
      if (ack >= recover_) {
        // Full recovery: deflate.
        in_recovery_ = false;
        cwnd_ = ssthresh_;
      } else {
        // Partial ACK (NewReno): retransmit the next hole, stay in recovery.
        emit_segment(send_base_, /*retransmit=*/true);
        cwnd_ = std::max(cwnd_ - (ack > send_base_ ? 0.0 : 0.0), ssthresh_);
      }
    } else if (cwnd_ < ssthresh_) {
      cwnd_ += 1.0;  // slow start
    } else {
      cwnd_ += 1.0 / cwnd_;  // congestion avoidance
    }
    if (in_flight() == 0) {
      rto_timer_.disarm();
    } else {
      arm_rto();
    }
    try_send();
    return;
  }

  // A stale cumulative ACK (SEG.ACK < SND.UNA) is ignored per RFC 793 —
  // reordered ACKs must not masquerade as duplicates.
  if (ack < send_base_) return;

  // --- duplicate ACK (ack == send_base_) ---
  if (in_flight() == 0) return;
  ++dup_acks_;
  if (in_recovery_) {
    cwnd_ += 1.0;  // window inflation per extra dup
    try_send();
    return;
  }
  if (dup_acks_ == 3) {
    ssthresh_ = std::max(static_cast<double>(in_flight()) / 2.0, 2.0);
    cwnd_ = ssthresh_ + 3.0;
    in_recovery_ = true;
    recover_ = next_seq_;
    rtt_probe_time_ = -1;
    emit_segment(send_base_, /*retransmit=*/true);
  }
}

void RenoFlow::on_data_at_receiver(const net::FrameMeta& frame) {
  const std::uint64_t seq = frame.tcp_seq;
  if (seq < recv_next_ || out_of_order_.count(seq)) ++spurious_rx_;
  if (seq == recv_next_) {
    deliver_in_order(seq);
    while (!out_of_order_.empty() && *out_of_order_.begin() == recv_next_) {
      out_of_order_.erase(out_of_order_.begin());
      deliver_in_order(recv_next_);
    }
  } else if (seq > recv_next_) {
    out_of_order_.insert(seq);
  }
  // Cumulative (possibly duplicate) ACK for every arriving segment.
  emit_ack();
}

void RenoFlow::deliver_in_order(std::uint64_t) {
  ++recv_next_;
  ++delivered_;
}

void RenoFlow::emit_ack() {
  Nanos release = sim_.now();
  if (config_.app_drain_rate > 0) {
    // The FTP client must read the data from the socket (and write the file)
    // before the window slides; model as a drain-rate release time.
    const Nanos drain =
        wire_time(config_.payload_bytes, config_.app_drain_rate);
    app_free_at_ = std::max(app_free_at_, sim_.now()) + drain;
    release = app_free_at_;
  }
  if (config_.ack_jitter > 0) {
    const Nanos draw = static_cast<Nanos>(
        rng_.uniform(static_cast<std::uint64_t>(config_.ack_jitter)));
    // FIFO per flow: cumulative ACKs must not overtake each other, or stale
    // cumacks would masquerade as duplicate ACKs at the sender.
    release = std::max(release + draw, last_ack_release_);
  }
  last_ack_release_ = release;
  net::FrameMeta ack;
  ack.kind = net::FrameKind::kTcpAck;
  ack.wire_bytes = config_.ack_wire_bytes;
  ack.protocol = net::kProtoTcp;
  ack.src_ip = config_.receiver_ip;
  ack.dst_ip = config_.sender_ip;
  ack.src_port = config_.receiver_port;
  ack.dst_port = config_.sender_port;
  ack.flow_index = config_.flow_index;
  ack.tcp_seq = recv_next_;
  ack.created_at = release;
  if (release <= sim_.now()) {
    send_ack_(ack);
  } else {
    sim_.at(release, [this, ack] { send_ack_(ack); });
  }
}

BitsPerSec RenoFlow::goodput(Nanos from, Nanos to) const {
  if (to <= from) return 0.0;
  return static_cast<double>(delivered_) *
         static_cast<double>(config_.payload_bytes) * 8.0 /
         to_seconds(to - from);
}

void RenoFlow::begin_measurement(Nanos now) {
  mark_ = delivered_;
  mark_time_ = now;
}

}  // namespace lvrm::tcp
