// tmcsim -- per-process mailbox.
//
// The paper's communication package gives every process an asynchronous
// mailbox; messages wait in MMU-allocated buffers until the process issues a
// matching receive, so undrained mailboxes hold node memory -- part of the
// memory pressure the paper measures under high multiprogramming levels.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "mem/mmu.h"
#include "net/message.h"
#include "node/program.h"

namespace tmc::node {

class Mailbox {
 public:
  struct Delivered {
    net::Message message;
    mem::Block buffer;  // freed when the receiver consumes the message
  };

  void deposit(net::Message message, mem::Block buffer) {
    queue_.push_back(Delivered{message, std::move(buffer)});
  }

  /// Removes and returns the oldest message matching `tag` (kAnyTag matches
  /// everything); nullopt if none is waiting. O(1) when the oldest message
  /// matches, as almost every take does.
  std::optional<Delivered> take(int tag) {
    for (std::size_t i = head_; i < queue_.size(); ++i) {
      if (tag == kAnyTag || queue_[i].message.tag == tag) {
        Delivered d = std::move(queue_[i]);
        if (i == head_) {
          drop_front();
        } else {
          queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(i));
        }
        return d;
      }
    }
    return std::nullopt;
  }

  /// True if a message matching `tag` is waiting.
  [[nodiscard]] bool has(int tag) const {
    for (std::size_t i = head_; i < queue_.size(); ++i) {
      if (tag == kAnyTag || queue_[i].message.tag == tag) return true;
    }
    return false;
  }

  [[nodiscard]] std::size_t size() const { return queue_.size() - head_; }
  [[nodiscard]] bool empty() const { return size() == 0; }
  /// Bytes of node memory currently pinned by undelivered messages.
  [[nodiscard]] std::size_t buffered_bytes() const {
    std::size_t total = 0;
    for (std::size_t i = head_; i < queue_.size(); ++i) {
      total += queue_[i].buffer.size();
    }
    return total;
  }

 private:
  /// Consumes the front entry. The consumed prefix is erased once it is
  /// half the vector, so each entry moves O(1) times however deep the
  /// mailbox stays.
  void drop_front() {
    ++head_;
    if (2 * head_ >= queue_.size()) {
      queue_.erase(queue_.begin(),
                   queue_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
  }

  /// Arrival order, oldest first, from head_ on; entries before head_ were
  /// taken (moved from). Mailboxes on a busy node run dozens deep, so a
  /// take from the front advances the cursor instead of shifting the rest.
  /// Unlike a deque, a vector allocates nothing at construction, which
  /// matters because every Process embeds a mailbox.
  std::vector<Delivered> queue_;
  std::size_t head_ = 0;
};

}  // namespace tmc::node
