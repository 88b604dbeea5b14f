// The "host" block of a committed BENCH_*.json baseline: the cores, build
// type, compiler and source revision its figures were measured with, so a
// reader can tell which machine and build a number belongs to.
#pragma once

#include <cstdint>
#include <thread>

#include "util/json_writer.h"

#ifndef PHPSAFE_BUILD_TYPE
#define PHPSAFE_BUILD_TYPE "unknown"
#endif
#ifndef PHPSAFE_COMPILER
#define PHPSAFE_COMPILER "unknown"
#endif
#ifndef PHPSAFE_SOURCE_REVISION
#define PHPSAFE_SOURCE_REVISION "unknown"
#endif

namespace phpsafe::bench {

inline void write_host(JsonWriter& w) {
    w.key("host").begin_object();
    w.kv("cores", static_cast<uint64_t>(std::thread::hardware_concurrency()));
    w.kv("build_type", PHPSAFE_BUILD_TYPE);
    w.kv("compiler", PHPSAFE_COMPILER);
    w.kv("source_revision", PHPSAFE_SOURCE_REVISION);
    w.end_object();
}

}  // namespace phpsafe::bench
