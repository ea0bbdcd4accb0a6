// Move-only `void()` callable with small-buffer storage.
//
// The discrete-event scheduler stores one callback per pending event; with
// std::function a capture such as (receiver, packet handle, sender id) never
// fits libstdc++'s tiny inline buffer, so each one pays a heap allocation,
// and std::function additionally requires copyability, which forbids
// capturing move-only state. InlineFunction gives the hot path a 56-byte
// inline buffer — enough for every event the channel schedules (a
// fault-free transmission's arrival event captures only the channel and a
// pool index; fault-path deliveries and link failures capture a node, a
// packet handle and an id or two) — and falls back to the heap only for
// genuinely large captures (e.g. a relayed Packet moved into a jittered
// rebroadcast).
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace xfa {
namespace detail {

struct InlineFunctionOps {
  void (*invoke)(void* storage);
  // Move-constructs into `dst` from `src`, then destroys `src`'s payload.
  void (*relocate)(void* dst, void* src);
  void (*destroy)(void* storage);
};

template <typename F>
inline constexpr InlineFunctionOps kInlineTargetOps = {
    [](void* storage) { (*static_cast<F*>(storage))(); },
    [](void* dst, void* src) {
      F* from = static_cast<F*>(src);
      ::new (dst) F(std::move(*from));
      from->~F();
    },
    [](void* storage) { static_cast<F*>(storage)->~F(); },
};

template <typename F>
inline constexpr InlineFunctionOps kHeapTargetOps = {
    [](void* storage) { (**static_cast<F**>(storage))(); },
    [](void* dst, void* src) {
      ::new (dst) F*(*static_cast<F**>(src));
    },
    [](void* storage) { delete *static_cast<F**>(storage); },
};

}  // namespace detail

class InlineFunction {
 public:
  /// Captures up to this many bytes live inline (no allocation).
  static constexpr std::size_t kInlineBytes = 56;

  InlineFunction() = default;

  template <typename F,
            typename D = std::decay_t<F>,
            typename = std::enable_if_t<
                !std::is_same_v<D, InlineFunction> &&
                std::is_invocable_r_v<void, D&>>>
  InlineFunction(F&& fn) {  // NOLINT(google-explicit-constructor)
    if constexpr (sizeof(D) <= kInlineBytes &&
                  alignof(D) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<D>) {
      ::new (storage_) D(std::forward<F>(fn));
      ops_ = &detail::kInlineTargetOps<D>;
    } else {
      ::new (storage_) D*(new D(std::forward<F>(fn)));
      ops_ = &detail::kHeapTargetOps<D>;
    }
  }

  InlineFunction(InlineFunction&& other) noexcept { take(other); }

  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      reset();
      take(other);
    }
    return *this;
  }

  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;

  ~InlineFunction() { reset(); }

  void operator()() { ops_->invoke(storage_); }

  explicit operator bool() const { return ops_ != nullptr; }

 private:
  void take(InlineFunction& other) noexcept {
    if (other.ops_ != nullptr) {
      other.ops_->relocate(storage_, other.storage_);
      ops_ = other.ops_;
      other.ops_ = nullptr;
    }
  }

  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
  const detail::InlineFunctionOps* ops_ = nullptr;
};

}  // namespace xfa
