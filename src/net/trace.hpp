// trace.hpp — frame traces for the main-memory socket adapter (Exp 1c/1d).
//
// The thesis loads "a trace of 100M minimum-sized frames into main memory"
// so LVRM's internal overhead can be measured without the network. This
// module provides (a) a deterministic metadata trace generator and (b) a
// simple length-prefixed binary format for traces of real frame buffers.
// Neither has a user outside the tests yet: the RAM-trace trials generate
// their frames on the fly (exp/rig.hpp), and no example reads the binary
// format. A planned real-thread data plane is to replay them.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "net/frame.hpp"
#include "net/ip.hpp"

namespace lvrm::net {

struct TraceSpec {
  std::uint64_t frames = 1'000'000;
  int wire_bytes = 84;
  /// Source subnets to draw src addresses from (one per VR, round-robin);
  /// defaults to a single 10.1.0.0/16 if empty.
  std::vector<Prefix> src_subnets;
  Ipv4Addr dst_base = ipv4(10, 2, 0, 1);
  int flows = 64;  // distinct 5-tuples to cycle through
  std::uint64_t seed = 42;
};

/// Generates a deterministic metadata trace.
std::vector<FrameMeta> generate_trace(const TraceSpec& spec);

/// Length-prefixed binary serialization of raw frame buffers:
///   magic "LVRMTRC1", u64 count, then per frame: u32 length + bytes.
void write_trace(std::ostream& os,
                 const std::vector<std::vector<std::uint8_t>>& frames);
std::vector<std::vector<std::uint8_t>> read_trace(std::istream& is);

/// Classic libpcap format (LINKTYPE_ETHERNET, microsecond timestamps), so
/// traces open in tcpdump/wireshark. Frame i is stamped `base + i*gap`.
void write_pcap(std::ostream& os,
                const std::vector<std::vector<std::uint8_t>>& frames,
                Nanos base = 0, Nanos gap = usec(10));

struct PcapRecord {
  Nanos timestamp = 0;
  std::vector<std::uint8_t> frame;
};

/// Reads back a pcap file written by write_pcap (or any little-endian
/// microsecond-resolution Ethernet pcap). Throws std::runtime_error on a
/// malformed file.
std::vector<PcapRecord> read_pcap(std::istream& is);

}  // namespace lvrm::net
