// Global allocation counter for the tests' no-allocation assertions. The
// replacement operator new/delete live in alloc_counter.cpp, a translation
// unit of their own: were they defined next to the tests, GCC would inline
// the replacement operator delete into gtest's `new TestClass` sites and
// report its std::free as -Wmismatched-new-delete.
#pragma once

#include <cstdint>

/// Heap allocations (global operator new calls) made so far by the process.
std::uint64_t heap_allocations() noexcept;
