// flow.hpp — 5-tuple flows and the connection-tracking hash table.
//
// Flow-based load balancing (Sec 3.3, Fig 3.3 "balance") must send every
// frame of a flow to the VRI that served the flow's first frame, so frames
// are never reordered within a flow. The thesis explicitly replaced dynamic
// arrays with a hash table "for the performance issues in the connection
// tracking functions, which are called for each incoming data frame", and
// stamps entries with a timestamp on each hit. FlowTable reproduces that:
// open-addressing, linear probing, per-entry last-seen time, idle expiry.
//
// FlowTable is the paper-scale table every Dispatcher uses (thousands of
// flows). The million-flow FlowTableV2 (cache-line-bucketed tags,
// incremental resize, idle-expiry GC wheel — DESIGN.md §14) lives in
// flow_v2.hpp and backs the firewall VR's connection tracker. Both share
// FiveTuple, hash_tuple and the resize-event vocabulary below.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "common/units.hpp"
#include "net/frame.hpp"
#include "net/ip.hpp"

namespace lvrm::net {

struct FiveTuple {
  Ipv4Addr src_ip = 0;
  Ipv4Addr dst_ip = 0;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint8_t protocol = 0;

  bool operator==(const FiveTuple&) const = default;

  static FiveTuple from_frame(const FrameMeta& f) {
    return FiveTuple{f.src_ip, f.dst_ip, f.src_port, f.dst_port, f.protocol};
  }
};

/// 64-bit mix hash over the tuple fields (xxhash-style avalanche).
std::uint64_t hash_tuple(const FiveTuple& t);

/// hash_tuple as the hasher of an unordered container keyed by FiveTuple.
struct TupleHash {
  std::size_t operator()(const FiveTuple& t) const {
    return static_cast<std::size_t>(hash_tuple(t));
  }
};

/// The tuple packed into two words — the exact representation FlowTableV2
/// stores per slot, so a stored key can be re-hashed (cuckoo displacement,
/// incremental migration) without unpacking back to a FiveTuple.
struct PackedTuple {
  std::uint64_t a = 0;  // src_ip:32 | dst_ip:32
  std::uint64_t b = 0;  // src_port:32 | dst_port:16 | protocol:8 (zero-padded)

  bool operator==(const PackedTuple&) const = default;
};

PackedTuple pack_tuple(const FiveTuple& t);

/// Avalanche over the packed words; hash_tuple(t) == hash_packed(pack_tuple(t)).
std::uint64_t hash_packed(PackedTuple k);

/// Why a flow table rebuilt (or, for the v2 table, ran its incremental
/// migration), as reported to the table's resize hook.
enum class FlowResizeCause : std::uint8_t {
  kLoadFactor = 0,      // live entries passed the load factor: capacity doubles
  kTombstonePurge = 1,  // v1 only: churned tombstones forced a same-size rebuild
  kIncrementalStep = 2, // v2 only: a bounded-work migration finished draining
};

const char* to_string(FlowResizeCause c);

/// One resize episode. The v1 table emits a single event per stop-the-world
/// rehash; the v2 table emits one at migration start (migrated == 0) and one
/// at completion (migrated == buckets_before), never per step — a 16M-entry
/// migration is ~2M steps and would drown the audit ring.
struct FlowResizeEvent {
  FlowResizeCause cause = FlowResizeCause::kLoadFactor;
  std::size_t buckets_before = 0;  // slot capacity before
  std::size_t buckets_after = 0;   // slot capacity after
  std::size_t migrated = 0;        // entries moved so far (v2), 0|live for v1
};

using FlowResizeHook = std::function<void(const FlowResizeEvent&)>;

/// Connection-tracking table mapping flows to VRI indices.
class FlowTable {
 public:
  /// Sentinel returned by probe() when the table holds neither the key nor
  /// any free slot — a genuinely full table. Public so the regression tests
  /// can assert the failure mode instead of the silent slot-0 aliasing this
  /// replaced.
  static constexpr std::size_t kNoSlot = ~std::size_t{0};

  /// `capacity_hint` is rounded up to a power of two; the table rehashes
  /// when live entries PLUS tombstones exceed load factor 0.7 — tombstones
  /// lengthen probe chains exactly like live entries, so a churned table
  /// (connect/disconnect cycles) must rebuild even when `size()` stays
  /// small. The rebuild doubles only when live entries alone warrant it;
  /// otherwise it rehashes at the same size, purging tombstones.
  /// `idle_timeout` expires entries not seen for that long (expired entries
  /// are reclaimed lazily on probe).
  explicit FlowTable(std::size_t capacity_hint = 1024,
                     Nanos idle_timeout = sec(30));

  /// Looks up the flow, refreshing its timestamp on hit.
  std::optional<int> lookup(const FiveTuple& t, Nanos now);

  /// Inserts/overwrites the flow's VRI assignment. Returns false — loudly,
  /// with an error log — when the table is full and `max_buckets` forbids
  /// growing; the flow stays untracked rather than aliasing another flow's
  /// slot (the pre-fix behavior).
  bool insert(const FiveTuple& t, int vri, Nanos now);

  /// Removes all entries assigned to `vri` (called when a VRI is destroyed
  /// so stale assignments cannot point at a dead instance). Returns how
  /// many live flows were evicted — the drain path reports that as the
  /// number of flows migrated to siblings.
  std::size_t evict_vri(int vri);

  /// Caps growth: rehash never exceeds this many slots (0 = unbounded, the
  /// default). With a cap, a full table makes insert() fail instead of
  /// growing — the regression surface for the probe() sentinel.
  void set_max_buckets(std::size_t cap) { max_buckets_ = cap; }

  /// Observer called once per stop-the-world rehash with its cause.
  void set_resize_hook(FlowResizeHook hook) { on_resize_ = std::move(hook); }

  std::size_t size() const { return live_; }
  std::size_t tombstones() const { return tombstones_; }
  std::size_t bucket_count() const { return slots_.size(); }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t insert_failures() const { return insert_failures_; }

 private:
  enum class State : std::uint8_t { kEmpty, kLive, kTombstone };

  struct Slot {
    FiveTuple tuple;
    Nanos last_seen = 0;
    int vri = -1;
    State state = State::kEmpty;
  };

  /// Slot of t, or of the first free slot of its chain, or kNoSlot when the
  /// table is full and t absent.
  std::size_t probe(const FiveTuple& t) const;
  void rehash(std::size_t buckets, FlowResizeCause cause);
  bool expired(const Slot& s, Nanos now) const {
    return idle_timeout_ > 0 && now - s.last_seen > idle_timeout_;
  }

  std::vector<Slot> slots_;
  std::size_t live_ = 0;
  std::size_t tombstones_ = 0;
  std::size_t mask_ = 0;
  std::size_t max_buckets_ = 0;
  Nanos idle_timeout_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t insert_failures_ = 0;
  FlowResizeHook on_resize_;
};

}  // namespace lvrm::net
