// tmcsim -- move-only type-erased callable with small-buffer optimization.
//
// Event callbacks and allocation grants frequently capture RAII resources
// (e.g. mem::Block), which are move-only; std::function requires copyable
// callables and std::move_only_function is C++23. This is the minimal
// move-only equivalent we need.
//
// The event kernel constructs and destroys one of these per scheduled event,
// so typical lambdas (a few pointers of captured state) must not touch the
// heap: callables up to kInlineSize bytes that are nothrow-move-constructible
// live in an inline buffer; larger (or throwing-move) callables fall back to
// a heap allocation. Dispatch is a three-entry vtable of plain function
// pointers rather than a virtual base, so the inline case is a single
// indirect call with no allocation anywhere.
#pragma once

#include <cstddef>
#include <cstring>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>

namespace tmc::sim {

template <typename Signature>
class UniqueFunction;

template <typename R, typename... Args>
class UniqueFunction<R(Args...)> {
 public:
  /// Callables at most this large (and at most kInlineAlign-aligned) with a
  /// non-throwing move constructor are stored inline; 48 bytes covers the
  /// kernel's event lambdas (a handful of pointers/ids) with room to spare.
  /// Pointer alignment fits every capture the simulator makes (pointers,
  /// ids, SimTimes, Blocks) and keeps the object at 56 bytes, where
  /// max_align_t's 16 would pad it to 64 and every record embedding one by
  /// up to 16 more; a more-aligned callable takes the heap path.
  static constexpr std::size_t kInlineSize = 48;
  static constexpr std::size_t kInlineAlign = alignof(void*);

  UniqueFunction() = default;
  UniqueFunction(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  template <typename F>
    requires(!std::is_same_v<std::decay_t<F>, UniqueFunction> &&
             std::is_invocable_r_v<R, std::decay_t<F>&, Args...>)
  UniqueFunction(F&& f) {  // NOLINT(google-explicit-constructor)
    construct(std::forward<F>(f));
  }

  /// Replaces the held callable with one constructed from `f` in place, so
  /// a container of UniqueFunctions (the event kernel's slot pool) takes a
  /// callable without building a temporary UniqueFunction and relocating
  /// it. An rvalue UniqueFunction is moved in.
  template <typename F>
    requires(std::is_same_v<F, UniqueFunction> ||
             (!std::is_same_v<std::decay_t<F>, UniqueFunction> &&
              std::is_invocable_r_v<R, std::decay_t<F>&, Args...>))
  void emplace(F&& f) {
    if constexpr (std::is_same_v<F, UniqueFunction>) {
      *this = std::move(f);
    } else {
      reset();
      construct(std::forward<F>(f));
    }
  }

  UniqueFunction(UniqueFunction&& other) noexcept { move_from(other); }
  UniqueFunction& operator=(UniqueFunction&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  UniqueFunction(const UniqueFunction&) = delete;
  UniqueFunction& operator=(const UniqueFunction&) = delete;

  ~UniqueFunction() { reset(); }

  R operator()(Args... args) {
    return vtable_->call(storage_, std::forward<Args>(args)...);
  }

  explicit operator bool() const { return vtable_ != nullptr; }

  /// True if the held callable lives in the inline buffer (no heap block).
  /// Empty functions hold nothing and report false.
  [[nodiscard]] bool uses_inline_storage() const {
    return vtable_ != nullptr && vtable_->inline_storage;
  }

  /// Whether a callable of type F would be stored inline.
  template <typename F>
  [[nodiscard]] static constexpr bool stores_inline() {
    return sizeof(F) <= kInlineSize && alignof(F) <= kInlineAlign &&
           std::is_nothrow_move_constructible_v<F>;
  }

 private:
  union Storage {
    alignas(kInlineAlign) std::byte inline_bytes[kInlineSize];
    void* heap;
  };
  struct VTable {
    R (*call)(Storage&, Args&&...);
    /// Move-constructs dst's payload from src's and destroys src's payload.
    /// Null when a raw memcpy of Storage is equivalent (trivially copyable
    /// payloads and heap pointers), so bulk moves -- e.g. the event kernel's
    /// slot pool regrowing -- skip the indirect call entirely.
    void (*relocate)(Storage& dst, Storage& src) noexcept;
    /// Null when destruction is a no-op (trivially destructible payloads).
    void (*destroy)(Storage&) noexcept;
    bool inline_storage;
  };

  template <typename F>
  static F& inline_ref(Storage& s) {
    return *std::launder(reinterpret_cast<F*>(s.inline_bytes));
  }

  template <typename F>
  struct InlineOps {
    static R call(Storage& s, Args&&... args) {
      return std::invoke(inline_ref<F>(s), std::forward<Args>(args)...);
    }
    static void relocate(Storage& dst, Storage& src) noexcept {
      ::new (static_cast<void*>(dst.inline_bytes))
          F(std::move(inline_ref<F>(src)));
      inline_ref<F>(src).~F();
    }
    static void destroy(Storage& s) noexcept { inline_ref<F>(s).~F(); }
    static constexpr VTable vtable{
        &call, std::is_trivially_copyable_v<F> ? nullptr : &relocate,
        std::is_trivially_destructible_v<F> ? nullptr : &destroy, true};
  };

  template <typename F>
  struct HeapOps {
    static F& ref(Storage& s) { return *static_cast<F*>(s.heap); }
    static R call(Storage& s, Args&&... args) {
      return std::invoke(ref(s), std::forward<Args>(args)...);
    }
    static void destroy(Storage& s) noexcept { delete static_cast<F*>(s.heap); }
    // Relocation is just the pointer changing hands: memcpy covers it.
    static constexpr VTable vtable{&call, nullptr, &destroy, false};
  };

  template <typename F>
  void construct(F&& f) {
    using D = std::decay_t<F>;
    if constexpr (stores_inline<D>()) {
      ::new (static_cast<void*>(storage_.inline_bytes)) D(std::forward<F>(f));
      vtable_ = &InlineOps<D>::vtable;
    } else {
      storage_.heap = new D(std::forward<F>(f));
      vtable_ = &HeapOps<D>::vtable;
    }
  }

  void move_from(UniqueFunction& other) noexcept {
    vtable_ = other.vtable_;
    if (vtable_ != nullptr) {
      if (vtable_->relocate == nullptr) {
        std::memcpy(&storage_, &other.storage_, sizeof(Storage));
      } else {
        vtable_->relocate(storage_, other.storage_);
      }
      other.vtable_ = nullptr;
    }
  }

  void reset() noexcept {
    if (vtable_ != nullptr) {
      if (vtable_->destroy != nullptr) vtable_->destroy(storage_);
      vtable_ = nullptr;
    }
  }

  const VTable* vtable_ = nullptr;
  Storage storage_;
};

}  // namespace tmc::sim
