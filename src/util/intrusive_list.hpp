// Intrusive singly-linked FIFO queue.
//
// Used for per-object message queues and the node-wise scheduling queue;
// both are FIFO and never need random removal, so a head/tail singly-linked
// list with an embedded `next` pointer gives O(1) push/pop with zero
// allocation — the idiom the paper's hand-written C runtime uses. The queue
// is two words (no element count: it sits in every object header), so
// size() walks the list; hot paths test empty() instead.
#pragma once

#include <cstddef>

#include "util/assert.hpp"

namespace abcl::util {

// T must expose a public member `T* <NextMember>` reachable via the member
// pointer given as the template argument.
template <class T, T* T::* Next>
class IntrusiveFifo {
 public:
  IntrusiveFifo() = default;

  // The queue does not own its elements; destruction with elements still
  // linked is legal (the owner reclaims them through its pools).
  bool empty() const { return head_ == nullptr; }
  std::size_t size() const {
    std::size_t n = 0;
    for (T* cur = head_; cur != nullptr; cur = cur->*Next) ++n;
    return n;
  }

  T* front() const { return head_; }

  void push_back(T* t) {
    ABCL_DCHECK(t != nullptr);
    t->*Next = nullptr;
    if (tail_ == nullptr) {
      head_ = tail_ = t;
    } else {
      tail_->*Next = t;
      tail_ = t;
    }
  }

  T* pop_front() {
    T* t = head_;
    if (t == nullptr) return nullptr;
    head_ = t->*Next;
    if (head_ == nullptr) tail_ = nullptr;
    t->*Next = nullptr;
    return t;
  }

  // Removes the first element matching `pred`; O(n). Needed only by
  // selective reception's message-queue scan, which the paper also performs.
  template <class Pred>
  T* remove_first_if(Pred&& pred) {
    T* prev = nullptr;
    for (T* cur = head_; cur != nullptr; prev = cur, cur = cur->*Next) {
      if (pred(*cur)) {
        if (prev == nullptr) {
          head_ = cur->*Next;
        } else {
          prev->*Next = cur->*Next;
        }
        if (tail_ == cur) tail_ = prev;
        cur->*Next = nullptr;
        return cur;
      }
    }
    return nullptr;
  }

  template <class Fn>
  void for_each(Fn&& fn) const {
    for (T* cur = head_; cur != nullptr; cur = cur->*Next) fn(*cur);
  }

  void clear() { head_ = tail_ = nullptr; }

 private:
  T* head_ = nullptr;
  T* tail_ = nullptr;
};

}  // namespace abcl::util
