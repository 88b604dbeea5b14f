// Small string helpers shared across modules. PHP identifiers are
// case-insensitive for functions/classes but case-sensitive for variables;
// the fold helpers here implement the ASCII case-insensitive comparisons the
// knowledge base and the engine need.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace phpsafe {

/// ASCII lowercase copy (PHP function/class names are matched case-insensitively).
std::string ascii_lower(std::string_view s);

/// Case-insensitive ASCII equality.
bool iequals(std::string_view a, std::string_view b) noexcept;

bool starts_with(std::string_view s, std::string_view prefix) noexcept;
bool ends_with(std::string_view s, std::string_view suffix) noexcept;

/// Splits on a single character; no empty-token suppression.
std::vector<std::string> split(std::string_view s, char sep);

/// Joins with a separator.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// Trims ASCII whitespace from both ends.
std::string_view trim(std::string_view s) noexcept;

/// Replaces all occurrences of `from` (non-empty) with `to`.
std::string replace_all(std::string s, std::string_view from, std::string_view to);

/// Byte-wise three-way compare under ASCII case folding, without allocating.
/// Equivalent to ascii_lower(a).compare(ascii_lower(b)) on every input.
constexpr int folded_compare(std::string_view a, std::string_view b) noexcept {
    const size_t n = a.size() < b.size() ? a.size() : b.size();
    for (size_t i = 0; i < n; ++i) {
        char ca = a[i], cb = b[i];
        if (ca >= 'A' && ca <= 'Z') ca = static_cast<char>(ca - 'A' + 'a');
        if (cb >= 'A' && cb <= 'Z') cb = static_cast<char>(cb - 'A' + 'a');
        if (ca != cb)
            return static_cast<unsigned char>(ca) <
                           static_cast<unsigned char>(cb)
                       ? -1
                       : 1;
    }
    if (a.size() == b.size()) return 0;
    return a.size() < b.size() ? -1 : 1;
}

/// Appends the ASCII-lowercased bytes of `s` to `out` without a temporary;
/// reusing one `out` buffer across calls makes repeated folds allocation-free
/// once the buffer has grown to the longest name seen.
template <typename String>
void append_folded(String& out, std::string_view s) {
    for (char c : s) {
        if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
        out.push_back(c);
    }
}

/// Transparent ordered-map comparator for case-insensitive name tables.
/// Keys are stored lowercased (so iteration order matches a plain std::less
/// map over folded keys); lookups may pass any mixed-case string_view and
/// never allocate a folded temporary.
struct FoldedLess {
    using is_transparent = void;
    constexpr bool operator()(std::string_view a,
                              std::string_view b) const noexcept {
        return folded_compare(a, b) < 0;
    }
};

/// FNV-1a 64-bit hash — the content-addressing primitive of the incremental
/// analysis service (service/cache.h): file texts and cache keys are hashed
/// with it. Stable across platforms and runs (no seed, no pointer mixing),
/// which is what lets cache keys live beyond one process.
constexpr uint64_t fnv1a64(std::string_view bytes,
                           uint64_t seed = 0xcbf29ce484222325ull) noexcept {
    uint64_t h = seed;
    for (char c : bytes) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

}  // namespace phpsafe
