// flight_recorder.hpp — always-on per-shard frame flight recorder (§15).
//
// A bounded overwrite-oldest ring of compact fixed-size TraceRecords, one
// ring per dispatcher shard, written for EVERY frame at every pipeline hop
// (RX ingress, dispatch, VRI service start/end, TX drain, every drop exit).
// It is the black box: nothing is exported in steady state, but when a VRI
// crashes, the health monitor quarantines one, or the degradation ladder
// reaches admission, the ring is snapshotted into a FlightDump — "the last
// few milliseconds before the incident".
//
// The record is <= 32 bytes (static_asserted) so a 4096-slot ring is one
// 128 KiB array per shard and a record() is a single struct store plus a
// masked increment — cheap enough to stay on for all frames, which is what
// the bench_hotpath --check-trace-overhead CI gate enforces. Single-writer
// per ring (each shard's poll loop owns its recorder), wait-free: no CAS,
// no locks, overwrite-oldest beyond capacity.
//
// The store is deliberately a PLAIN cached store, not a non-temporal one.
// Streaming stores look attractive for a write-only ring, but the hops of
// one frame are scattered across the poll loop's timeline, so each 32-byte
// record is a partial write-combining line that gets evicted before its
// neighbour arrives — measured ~6x slower than letting the two-records-per-
// line pattern ride the cache.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/units.hpp"

namespace lvrm::obs {

/// Pipeline hop a TraceRecord marks. Values are stable (they appear in
/// flight-dump JSON); append only.
enum class TraceHop : std::uint8_t {
  kRxIngress = 0,  // accepted into a shard's RX ring (aux = wire bytes)
  kDispatch = 1,   // popped from the RX ring and dispatched (aux unused)
  kVriStart = 2,   // VRI began servicing the frame
  kVriEnd = 3,     // VRI finished servicing (pushed to data_out)
  kTxDrain = 4,    // TX drain relayed the frame to egress
  kDrop = 5,       // any drop/shed/quarantine exit (aux = DropCause)
};

const char* to_string(TraceHop h);

/// One compact flight record. 32 bytes, plain POD.
struct TraceRecord {
  std::uint64_t frame_id = 0;
  std::int64_t t = 0;         // sim time, ns
  std::uint32_t aux = 0;      // hop-specific (DropCause code for kDrop)
  std::int16_t vr = -1;
  std::int16_t vri = -1;
  std::uint8_t hop = 0;       // TraceHop
  std::uint8_t shard = 0;     // dispatcher shard whose ring this is
  std::uint16_t flags = 0;    // bit 0: frame is a latency/path-span sample
};
static_assert(sizeof(TraceRecord) <= 32,
              "flight records must stay compact (<= 32 B, §15 contract)");

/// A snapshot of one (or all) shard recorder(s) taken at an incident.
struct FlightDump {
  Nanos time = 0;          // sim time of the trigger
  std::string reason;      // "vri_crash" / "quarantine" / "admission" / ...
  int shard = -1;          // triggering shard, -1 when not shard-specific
  int vr = -1;             // affected VR (when known)
  int vri = -1;            // affected VRI (when known)
  std::uint64_t seq = 0;   // dump sequence number since start
  std::uint64_t records_total = 0;  // records written (not retained) so far
  std::vector<TraceRecord> records;  // oldest -> newest across shards
};

/// Bounded overwrite-oldest ring of TraceRecords. Single-writer wait-free:
/// record() is a store + masked increment; readers snapshot().
class FlightRecorder {
 public:
  /// Capacity is rounded up to a power of two (masked indexing, no modulo
  /// on the hot path); 0 is treated as 1.
  explicit FlightRecorder(std::size_t capacity);

  void record(const TraceRecord& r) {
    ring_[head_ & mask_] = r;
    ++head_;
  }

  /// Oldest-to-newest copy of the retained records.
  std::vector<TraceRecord> snapshot() const;

  std::uint64_t total() const { return head_; }
  std::uint64_t overwritten() const {
    return head_ > ring_.size() ? head_ - ring_.size() : 0;
  }
  std::size_t capacity() const { return ring_.size(); }
  std::size_t size() const {
    return head_ < ring_.size() ? static_cast<std::size_t>(head_)
                                : ring_.size();
  }

 private:
  std::vector<TraceRecord> ring_;  // power-of-two size, pre-filled
  std::uint64_t mask_ = 0;
  std::uint64_t head_ = 0;  // next write position; also records-total
};

}  // namespace lvrm::obs
