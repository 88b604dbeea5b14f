// Bump-pointer arena for the per-file program model. The parser allocates
// every AST node (and every decoded/synthesized string) from one Arena owned
// by the ParsedFile, so a whole file's model costs a handful of block
// mallocs instead of one heap allocation per node, and teardown is a single
// sweep instead of a pointer-chasing destructor cascade.
//
// Ownership rules (see docs/performance.md, "The memory model"):
//   - Nodes hold raw non-owning pointers to other nodes in the same arena.
//   - string_view fields point either into the retained source text or into
//     this arena; both live exactly as long as the owning ParsedFile.
//   - Non-trivially-destructible objects (nodes with std::vector children)
//     are registered on a destructor list and destroyed LIFO by ~Arena();
//     trivially-destructible objects cost nothing at teardown.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace phpsafe {

class Arena {
public:
    static constexpr size_t kDefaultBlockBytes = 64 * 1024;
    static constexpr size_t kMinBlockBytes = 1024;

    Arena() = default;

    /// An arena whose first block is sized for about `expected_bytes`
    /// (rounded up to a power of two, clamped to [kMinBlockBytes,
    /// kDefaultBlockBytes]); each later block doubles, up to
    /// kDefaultBlockBytes. A small file's model then reserves a few KiB,
    /// not a whole default block.
    static Arena sized_for(size_t expected_bytes) {
        Arena arena;
        arena.next_block_bytes_ = std::bit_ceil(
            std::clamp(expected_bytes, kMinBlockBytes, kDefaultBlockBytes));
        return arena;
    }

    /// The thread's current arena, read by default-constructed
    /// ArenaAllocators. Nodes hold allocator-aware vectors; binding the
    /// arena for the duration of a parse makes every child list the parser
    /// builds land in the file's arena without threading the arena through
    /// each container's constructor.
    static Arena*& current() noexcept {
        static thread_local Arena* tls_current = nullptr;
        return tls_current;
    }

    /// RAII scope: makes `arena` the thread's current arena.
    class Bind {
    public:
        explicit Bind(Arena& arena) noexcept
            : previous_(current()) {
            current() = &arena;
        }
        ~Bind() { current() = previous_; }
        Bind(const Bind&) = delete;
        Bind& operator=(const Bind&) = delete;

    private:
        Arena* previous_;
    };

    Arena(Arena&& other) noexcept { steal(other); }
    Arena& operator=(Arena&& other) noexcept {
        if (this != &other) {
            release();
            steal(other);
        }
        return *this;
    }

    Arena(const Arena&) = delete;
    Arena& operator=(const Arena&) = delete;

    ~Arena() { release(); }

    /// Raw aligned allocation. `align` must be a power of two.
    void* allocate(size_t size, size_t align) {
        char* p = align_up(cursor_, align);
        if (p + size > end_ || !cursor_) return allocate_slow(size, align);
        cursor_ = p + size;
        bytes_allocated_ += size;
        return p;
    }

    /// Placement-constructs a T in the arena. Objects whose destructor does
    /// real work (vectors of children, owned buffers) are registered and
    /// destroyed by ~Arena(); trivial ones are simply abandoned.
    template <typename T, typename... Args>
    T* create(Args&&... args) {
        void* mem = allocate(sizeof(T), alignof(T));
        T* obj = new (mem) T(std::forward<Args>(args)...);
        if constexpr (!std::is_trivially_destructible_v<T>) {
            auto* node = static_cast<DtorNode*>(
                allocate(sizeof(DtorNode), alignof(DtorNode)));
            node->object = obj;
            node->destroy = [](void* p) { static_cast<T*>(p)->~T(); };
            node->next = dtors_;
            dtors_ = node;
        }
        return obj;
    }

    /// Copies `s` into the arena and returns a view that lives as long as
    /// the arena does. Empty input returns an empty view without allocating.
    std::string_view store(std::string_view s) {
        if (s.empty()) return {};
        char* mem = static_cast<char*>(allocate(s.size(), 1));
        std::memcpy(mem, s.data(), s.size());
        string_bytes_ += s.size();
        return {mem, s.size()};
    }

    /// Bytes handed out to callers.
    uint64_t bytes_allocated() const noexcept { return bytes_allocated_; }
    /// Heap blocks backing the arena — the arena's entire malloc traffic.
    uint64_t block_count() const noexcept { return block_count_; }
    /// Bytes reserved from the heap (>= bytes_allocated, block granularity);
    /// what the service's file pool charges a parsed file.
    uint64_t bytes_reserved() const noexcept { return bytes_reserved_; }
    /// Bytes copied into the arena via store().
    uint64_t string_bytes() const noexcept { return string_bytes_; }

private:
    struct Block {
        Block* next;
        size_t size;  ///< usable payload bytes following this header
    };
    struct DtorNode {
        void* object;
        void (*destroy)(void*);
        DtorNode* next;
    };

    static char* align_up(char* p, size_t align) noexcept {
        const uintptr_t v = reinterpret_cast<uintptr_t>(p);
        return reinterpret_cast<char*>((v + align - 1) & ~(align - 1));
    }

    Block* new_block(size_t payload) {
        char* raw = static_cast<char*>(::operator new(sizeof(Block) + payload));
        Block* block = reinterpret_cast<Block*>(raw);
        block->next = nullptr;
        block->size = payload;
        bytes_reserved_ += payload;
        ++block_count_;
        return block;
    }

    void* allocate_slow(size_t size, size_t align) {
        if (size + align > kDefaultBlockBytes) {
            // Oversized request: dedicated block chained behind the head so
            // the current bump block keeps filling its tail.
            Block* block = new_block(size + align);
            if (blocks_) {
                block->next = blocks_->next;
                blocks_->next = block;
            } else {
                blocks_ = block;
            }
            char* p = align_up(reinterpret_cast<char*>(block) + sizeof(Block),
                               align);
            bytes_allocated_ += size;
            return p;
        }
        size_t payload = next_block_bytes_;
        while (payload < size + align) payload *= 2;
        next_block_bytes_ = std::min(payload * 2, kDefaultBlockBytes);
        Block* block = new_block(payload);
        block->next = blocks_;
        blocks_ = block;
        cursor_ = reinterpret_cast<char*>(block) + sizeof(Block);
        end_ = cursor_ + payload;
        char* p = align_up(cursor_, align);
        cursor_ = p + size;
        bytes_allocated_ += size;
        return p;
    }

    void release() noexcept {
        for (DtorNode* d = dtors_; d; d = d->next) d->destroy(d->object);
        dtors_ = nullptr;
        Block* b = blocks_;
        while (b) {
            Block* next = b->next;
            ::operator delete(static_cast<void*>(b));
            b = next;
        }
        blocks_ = nullptr;
        cursor_ = end_ = nullptr;
        next_block_bytes_ = kDefaultBlockBytes;
        bytes_allocated_ = bytes_reserved_ = string_bytes_ = 0;
        block_count_ = 0;
    }

    void steal(Arena& other) noexcept {
        blocks_ = std::exchange(other.blocks_, nullptr);
        cursor_ = std::exchange(other.cursor_, nullptr);
        end_ = std::exchange(other.end_, nullptr);
        dtors_ = std::exchange(other.dtors_, nullptr);
        next_block_bytes_ =
            std::exchange(other.next_block_bytes_, kDefaultBlockBytes);
        bytes_allocated_ = std::exchange(other.bytes_allocated_, 0);
        bytes_reserved_ = std::exchange(other.bytes_reserved_, 0);
        string_bytes_ = std::exchange(other.string_bytes_, 0);
        block_count_ = std::exchange(other.block_count_, 0);
    }

    Block* blocks_ = nullptr;
    char* cursor_ = nullptr;
    char* end_ = nullptr;
    DtorNode* dtors_ = nullptr;
    size_t next_block_bytes_ = kDefaultBlockBytes;  ///< payload of the next block
    uint64_t bytes_allocated_ = 0;
    uint64_t bytes_reserved_ = 0;
    uint64_t string_bytes_ = 0;
    uint64_t block_count_ = 0;
};

/// Allocator that serves from the arena bound at the allocator's
/// construction (Arena::current()), falling back to the heap when no arena
/// is bound — so AST nodes default-constructed outside a parse (tests,
/// synthesized fixtures) still work. Deallocation is a no-op for
/// arena-backed memory: the arena reclaims everything at teardown.
template <typename T>
class ArenaAllocator {
public:
    using value_type = T;
    /// Growth discards the old buffer inside the arena; stealing buffers on
    /// move keeps that waste bounded to the final size per container.
    using propagate_on_container_move_assignment = std::true_type;
    using propagate_on_container_swap = std::true_type;

    ArenaAllocator() noexcept : arena_(Arena::current()) {}
    explicit ArenaAllocator(Arena* arena) noexcept : arena_(arena) {}
    template <typename U>
    ArenaAllocator(const ArenaAllocator<U>& other) noexcept
        : arena_(other.arena()) {}

    T* allocate(size_t n) {
        if (arena_)
            return static_cast<T*>(arena_->allocate(n * sizeof(T), alignof(T)));
        return static_cast<T*>(::operator new(n * sizeof(T)));
    }
    void deallocate(T* p, size_t) noexcept {
        if (!arena_) ::operator delete(static_cast<void*>(p));
    }

    Arena* arena() const noexcept { return arena_; }

    friend bool operator==(const ArenaAllocator& a,
                           const ArenaAllocator& b) noexcept {
        return a.arena_ == b.arena_;
    }
    friend bool operator!=(const ArenaAllocator& a,
                           const ArenaAllocator& b) noexcept {
        return !(a == b);
    }

private:
    Arena* arena_;
};

/// Vector whose buffer lives in the thread's current arena (heap when none
/// is bound). The AST's child lists use this: same push_back interface, no
/// per-list heap allocation, freed wholesale with the owning arena.
template <typename T>
using ArenaVector = std::vector<T, ArenaAllocator<T>>;

}  // namespace phpsafe
