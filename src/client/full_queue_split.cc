#include "client/full_queue_split.h"

#include <algorithm>
#include <cmath>

#include "sim/check.h"

namespace bdisk::client {

FullQueueSplit::FullQueueSplit(const broadcast::BroadcastProgram& program,
                               const broadcast::CycleSpanTable* table,
                               std::uint32_t threshold,
                               const server::PullQueue& queue)
    : program_(&program),
      table_(table),
      threshold_(threshold),
      length_(program.Length()),
      queue_(&queue) {}

void FullQueueSplit::Init(const sim::AliasSampler& pages, std::uint32_t pos) {
  BDISK_CHECK_MSG(pages.size() == program_->DbSize(),
                  "stream-A table must cover the database");
  weight_.resize(pages.size());
  for (std::size_t p = 0; p < pages.size(); ++p) {
    weight_[p] = static_cast<std::uint64_t>(
        std::ldexp(pages.Probability(p), 52));
    total_ += weight_[p];
    if (queue_->IsQueued(static_cast<PageId>(p))) queued_ += weight_[p];
  }
  Rebuild(pos);
}

void FullQueueSplit::OnDequeued(PageId page) {
  queued_ -= weight_[page];
  if (InWindow(page, pos_)) queued_filtered_ -= weight_[page];
  if (queue_->Empty()) {
    BDISK_CHECK_MSG(queued_ == 0 && queued_filtered_ == 0,
                    "queued weight must be exactly 0 on an empty queue");
  }
}

void FullQueueSplit::Sync(std::uint32_t pos) {
  if (pos == pos_ || length_ == 0) return;
  const std::uint32_t gap = pos > pos_ ? pos - pos_ : length_ - pos_ + pos;
  if (gap > std::min(threshold_ + 1, length_)) {
    Rebuild(pos);
    return;
  }
  for (std::uint32_t i = 0; i < gap; ++i) Step();
}

void FullQueueSplit::Step() {
  const std::uint32_t next = pos_ + 1 == length_ ? 0 : pos_ + 1;
  // A window of the whole cycle holds every scheduled page at every
  // position: F never changes.
  if (threshold_ + 1 < length_) {
    // F(pos) → F(pos+1): program[pos] may leave, program[pos+T+1] enters.
    const PageId* data = program_->ScheduleData();
    const PageId out = data[pos_];
    std::uint32_t in_pos = pos_ + threshold_ + 1;
    if (in_pos >= length_) in_pos -= length_;
    const PageId in = data[in_pos];
    if (out != broadcast::kNoPage && !InWindow(out, next)) Shift(out, false);
    if (in != broadcast::kNoPage && !InWindow(in, pos_)) Shift(in, true);
  }
  pos_ = next;
}

void FullQueueSplit::Rebuild(std::uint32_t pos) {
  filtered_ = 0;
  queued_filtered_ = 0;
  pos_ = pos;
  if (length_ == 0) return;  // Pure-Pull: nothing is ever filtered.
  const std::uint32_t span = std::min(threshold_ + 1, length_);
  const PageId* data = program_->ScheduleData();
  for (std::uint32_t k = 0; k < span; ++k) {
    std::uint32_t at = pos + k;
    if (at >= length_) at -= length_;
    const PageId page = data[at];
    // Count each page once, at its first occurrence in the window.
    if (page == broadcast::kNoPage ||
        program_->DistanceToNext(pos, page) != k) {
      continue;
    }
    Shift(page, true);
  }
}

}  // namespace bdisk::client
