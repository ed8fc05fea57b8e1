#include "queue/shm_arena.hpp"

namespace lvrm::queue {

SegmentId ShmArena::create(std::size_t bytes) {
  const SegmentId id = next_id_++;
  segments_.emplace(id, bytes);
  total_bytes_ += bytes;
  return id;
}

void ShmArena::destroy(SegmentId id) {
  const auto it = segments_.find(id);
  if (it == segments_.end()) return;
  total_bytes_ -= it->second;
  segments_.erase(it);
}

}  // namespace lvrm::queue
