// Flat open-addressed hash containers keyed by interned Symbols. These back
// the engine's per-scope variable/alias maps, which the seed kept in
// std::map<std::string, ...>: every variable read paid an O(log n) chain of
// string comparisons plus node-pointer chasing. With interned keys a lookup
// is one multiplicative hash and a short linear probe over contiguous slots.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/interner.h"

namespace phpsafe {

namespace detail {

/// Fibonacci hashing: symbol ids are small and dense, so spreading them with
/// the golden-ratio multiplier avoids clustering without a full hash.
inline size_t symbol_slot(Symbol key, size_t mask) noexcept {
    return (key.id() * 2654435769u) & mask;
}

constexpr uint32_t kEmptyKey = 0xFFFFFFFFu;
constexpr uint32_t kTombstoneKey = 0xFFFFFFFEu;

}  // namespace detail

/// Open-addressed Symbol → V map with linear probing and tombstone erase.
/// Iteration order is unspecified; callers that need determinism must sort.
/// Slots are allocated on the first insert, not on construction: most
/// engine scopes never bind a variable, and an empty map costs no heap.
template <typename V>
class SymbolMap {
public:
    SymbolMap() = default;

    V& operator[](Symbol key) {
        if (V* found = find(key)) return *found;
        if (slots_.empty())
            slots_.resize(kInitialCapacity);
        else if ((used_ + 1) * 10 >= slots_.size() * 7)
            rehash(slots_.size() * 2);
        const size_t mask = slots_.size() - 1;
        size_t i = detail::symbol_slot(key, mask);
        while (slots_[i].key != detail::kEmptyKey &&
               slots_[i].key != detail::kTombstoneKey)
            i = (i + 1) & mask;
        if (slots_[i].key == detail::kEmptyKey) ++used_;
        slots_[i].key = key.id();
        slots_[i].value = V{};
        ++size_;
        return slots_[i].value;
    }

    V* find(Symbol key) noexcept {
        if (slots_.empty()) return nullptr;
        const size_t mask = slots_.size() - 1;
        size_t i = detail::symbol_slot(key, mask);
        for (;;) {
            Slot& slot = slots_[i];
            if (slot.key == detail::kEmptyKey) return nullptr;
            if (slot.key == key.id()) return &slot.value;
            i = (i + 1) & mask;
        }
    }

    const V* find(Symbol key) const noexcept {
        return const_cast<SymbolMap*>(this)->find(key);
    }

    bool contains(Symbol key) const noexcept { return find(key) != nullptr; }

    bool erase(Symbol key) noexcept {
        if (slots_.empty()) return false;
        const size_t mask = slots_.size() - 1;
        size_t i = detail::symbol_slot(key, mask);
        for (;;) {
            Slot& slot = slots_[i];
            if (slot.key == detail::kEmptyKey) return false;
            if (slot.key == key.id()) {
                slot.key = detail::kTombstoneKey;
                slot.value = V{};
                --size_;
                return true;
            }
            i = (i + 1) & mask;
        }
    }

    size_t size() const noexcept { return size_; }
    bool empty() const noexcept { return size_ == 0; }

    /// Frees the slots; the next insert allocates them afresh.
    void clear() {
        std::vector<Slot>().swap(slots_);
        used_ = 0;
        size_ = 0;
    }

    /// Visits every live (Symbol, value) pair.
    template <typename Fn>
    void for_each(Fn&& fn) const {
        for (const Slot& slot : slots_)
            if (slot.key != detail::kEmptyKey && slot.key != detail::kTombstoneKey)
                fn(Symbol{slot.key}, slot.value);
    }

private:
    static constexpr size_t kInitialCapacity = 16;  // power of two

    struct Slot {
        uint32_t key = detail::kEmptyKey;
        V value{};
    };

    void rehash(size_t new_capacity) {
        std::vector<Slot> old = std::move(slots_);
        slots_.assign(new_capacity, Slot{});
        used_ = 0;
        size_ = 0;
        for (Slot& slot : old)
            if (slot.key != detail::kEmptyKey && slot.key != detail::kTombstoneKey) {
                const size_t mask = slots_.size() - 1;
                size_t i = detail::symbol_slot(Symbol{slot.key}, mask);
                while (slots_[i].key != detail::kEmptyKey) i = (i + 1) & mask;
                slots_[i].key = slot.key;
                slots_[i].value = std::move(slot.value);
                ++used_;
                ++size_;
            }
    }

    std::vector<Slot> slots_;
    size_t used_ = 0;  ///< live + tombstone slots (load-factor accounting)
    size_t size_ = 0;  ///< live slots
};

/// Symbol set with the same layout (used for `global` alias names).
class SymbolSet {
public:
    void insert(Symbol key) { map_[key] = true; }
    bool contains(Symbol key) const noexcept { return map_.contains(key); }
    size_t size() const noexcept { return map_.size(); }
    void clear() { map_.clear(); }

private:
    SymbolMap<bool> map_;
};

}  // namespace phpsafe
