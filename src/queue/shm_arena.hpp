// shm_arena.hpp — simulated System-V shared memory segment ids.
//
// The real LVRM allocates one shared memory segment per IPC queue via
// shmget() and hands the identifier to each VRI through its main() arguments
// (Sec 3.8). Inside this repository LVRM and the VRIs share an address space
// and every simulated queue carries its frames itself, so ShmArena keeps
// only the bookkeeping of that protocol — integer identifiers and the size
// each one reserves, released by destroy() — which is what LvrmSystem's
// segment count and arena-byte audit read. No adapter or queue is
// initialized from a segment id, and no segment memory is allocated.
#pragma once

#include <cstddef>
#include <unordered_map>

namespace lvrm::queue {

using SegmentId = int;
inline constexpr SegmentId kInvalidSegment = -1;

class ShmArena {
 public:
  /// shmget() analogue: reserves a segment of `bytes`, returns its id.
  SegmentId create(std::size_t bytes);

  /// shmctl(IPC_RMID) analogue; destroying an unknown id is a no-op.
  void destroy(SegmentId id);

  std::size_t segment_count() const { return segments_.size(); }
  std::size_t total_bytes() const { return total_bytes_; }

 private:
  std::unordered_map<SegmentId, std::size_t> segments_;  // id -> bytes
  SegmentId next_id_ = 1000;  // arbitrary non-zero base, like real shm ids
  std::size_t total_bytes_ = 0;
};

}  // namespace lvrm::queue
