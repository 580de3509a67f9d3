#ifndef BDISK_CLIENT_FULL_QUEUE_SPLIT_H_
#define BDISK_CLIENT_FULL_QUEUE_SPLIT_H_

#include <cstdint>
#include <vector>

#include "broadcast/broadcast_program.h"
#include "broadcast/span_table.h"
#include "server/pull_queue.h"
#include "sim/alias_sampler.h"

namespace bdisk::client {

using broadcast::PageId;

/// The class masses of the virtual client's stream A while the pull queue
/// is full (DESIGN.md, "Full-queue collapse").
///
/// An arrival for page p at schedule position pos is filtered when p's next
/// push is within the threshold T (p ∈ F(pos), the distinct pages of
/// program[pos..pos+T]), else coalesced when p is queued, else dropped.
/// With stream-A weights w, the masses are
///   filtered  m_f = Σ_{F(pos)} w,
///   coalesced m_c = Σ_{queued ∖ F(pos)} w,
///   dropped   m_d = W − m_f − m_c.
/// Weights are integer fixed-point units (2^-52 of the total), so every
/// sum is exact: the queued sum is 0 whenever the queue is empty, and the
/// three masses add up to W exactly.
///
/// Cost: O(1) per queue change (OnQueued/OnDequeued), and Sync(pos) walks
/// the window one push slot at a time (two membership tests per step), or
/// rebuilds it in O(min(T+1, cycle)) when that is cheaper — amortized O(1)
/// per elapsed slot whatever T or the queue depth. Nothing is allocated or
/// tracked until Init(): the owner feeds it queue changes from then on.
class FullQueueSplit {
 public:
  /// `table` (may be null) answers the threshold decision for `threshold`
  /// slots; all three must outlive the split.
  FullQueueSplit(const broadcast::BroadcastProgram& program,
                 const broadcast::CycleSpanTable* table,
                 std::uint32_t threshold, const server::PullQueue& queue);

  bool Ready() const { return !weight_.empty(); }

  /// Builds the fixed-point weights from `pages`' probabilities and the
  /// sums for the queue's current contents at position `pos`. O(DbSize).
  void Init(const sim::AliasSampler& pages, std::uint32_t pos);

  /// Queue-content changes, from Init on.
  void OnQueued(PageId page) {
    queued_ += weight_[page];
    if (InWindow(page, pos_)) queued_filtered_ += weight_[page];
  }
  void OnDequeued(PageId page);

  /// Moves the tracked schedule position to `pos`.
  void Sync(std::uint32_t pos);

  /// The masses at the tracked position, in fixed-point units.
  std::uint64_t Total() const { return total_; }
  std::uint64_t Filtered() const { return filtered_; }
  std::uint64_t Coalesced() const { return queued_ - queued_filtered_; }

  /// True iff `page` is in F(pos) at the tracked position.
  bool IsFiltered(PageId page) const { return InWindow(page, pos_); }

 private:
  bool InWindow(PageId page, std::uint32_t pos) const {
    if (length_ == 0) return false;
    return table_ != nullptr
               ? !table_->ShouldPull(page, pos)
               : program_->DistanceToNext(pos, page) <= threshold_;
  }
  // `page` enters or leaves F at the tracked position.
  void Shift(PageId page, bool enters) {
    const std::uint64_t w = weight_[page];
    const bool queued = queue_->IsQueued(page);
    if (enters) {
      filtered_ += w;
      if (queued) queued_filtered_ += w;
    } else {
      filtered_ -= w;
      if (queued) queued_filtered_ -= w;
    }
  }
  void Step();
  void Rebuild(std::uint32_t pos);

  const broadcast::BroadcastProgram* program_;
  const broadcast::CycleSpanTable* table_;
  std::uint32_t threshold_;
  std::uint32_t length_;
  const server::PullQueue* queue_;

  std::vector<std::uint64_t> weight_;  // Empty until Init.
  std::uint64_t total_ = 0;            // W.
  std::uint64_t filtered_ = 0;         // Σ_{F(pos_)} w.
  std::uint64_t queued_ = 0;           // Σ_{queued} w.
  std::uint64_t queued_filtered_ = 0;  // Σ_{queued ∩ F(pos_)} w.
  std::uint32_t pos_ = 0;
};

}  // namespace bdisk::client

#endif  // BDISK_CLIENT_FULL_QUEUE_SPLIT_H_
