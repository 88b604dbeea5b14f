#include "obs/trace.h"

#include <algorithm>
#include <sstream>

#include "util/json_writer.h"
#include "util/timing.h"

namespace phpsafe::obs {

Tracer::Tracer(bool enabled) : enabled_(enabled), epoch_(wall_seconds()) {}

Tracer::Span::Span(
    Tracer* tracer, std::string_view name,
    std::initializer_list<std::pair<std::string_view, std::string_view>> args)
    : tracer_(tracer) {
    record_.name.assign(name);
    record_.args.reserve(args.size());
    for (const auto& [key, value] : args)
        record_.args.emplace_back(std::string(key), std::string(value));
    record_.wall_start = wall_seconds() - tracer->epoch_;
    cpu_start_ = thread_cpu_seconds();
    counters_start_ = tls();
}

void Tracer::Span::note(std::string_view key, std::string_view value) {
    if (!tracer_) return;
    record_.args.emplace_back(std::string(key), std::string(value));
}

void Tracer::Span::end() {
    if (!tracer_) return;
    record_.counters = tls() - counters_start_;
    record_.cpu_seconds = thread_cpu_seconds() - cpu_start_;
    record_.wall_seconds =
        wall_seconds() - tracer_->epoch_ - record_.wall_start;
    Tracer* tracer = tracer_;
    tracer_ = nullptr;
    tracer->commit(std::move(record_));
}

Tracer::Span Tracer::span(
    std::string_view name,
    std::initializer_list<std::pair<std::string_view, std::string_view>> args) {
    if (!enabled_) return Span{};
    return Span(this, name, args);
}

void Tracer::commit(SpanRecord&& record) {
    const std::thread::id self = std::this_thread::get_id();
    std::lock_guard<std::mutex> lock(mutex_);
    record.thread = thread_index(self);
    records_.push_back(std::move(record));
}

int Tracer::thread_index(std::thread::id id) {
    const auto it = std::find(threads_.begin(), threads_.end(), id);
    if (it != threads_.end()) return static_cast<int>(it - threads_.begin());
    threads_.push_back(id);
    return static_cast<int>(threads_.size()) - 1;
}

std::vector<SpanRecord> Tracer::records() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return records_;
}

size_t Tracer::record_count() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return records_.size();
}

std::string Tracer::chrome_trace_json() const {
    const std::vector<SpanRecord> spans = records();
    std::ostringstream os;
    JsonWriter w(os);
    w.begin_object();
    w.key("traceEvents").begin_array();
    for (const SpanRecord& span : spans) {
        w.begin_object();
        w.kv("name", span.name);
        w.kv("cat", "phpsafe");
        w.kv("ph", "X");  // complete event: ts + dur
        w.kv("pid", 1);
        w.kv("tid", span.thread);
        w.kv("ts", span.wall_start * 1e6, 3);
        w.kv("dur", span.wall_seconds * 1e6, 3);
        w.key("args").begin_object();
        for (const SpanArg& arg : span.args) w.kv(arg.first, arg.second);
        w.kv("cpu_ms", span.cpu_seconds * 1e3, 3);
        w.end_object();
        w.end_object();
    }
    w.end_array();
    w.end_object();
    return os.str();
}

std::string Tracer::flat_json() const {
    const std::vector<SpanRecord> spans = records();
    std::ostringstream os;
    JsonWriter w(os, 2);
    w.begin_object();
    w.key("spans").begin_array();
    for (const SpanRecord& span : spans) {
        w.begin_object();
        w.kv("name", span.name);
        for (const SpanArg& arg : span.args) w.kv(arg.first, arg.second);
        w.kv("thread", span.thread);
        w.kv("wall_start_ms", span.wall_start * 1e3, 3);
        w.kv("wall_ms", span.wall_seconds * 1e3, 3);
        w.kv("cpu_ms", span.cpu_seconds * 1e3, 3);
        // Only the counters the span actually moved: a scan span shows its
        // cache traffic and taint work without 30 zero fields.
        w.key("counters").begin_object();
        span.counters.for_each_field([&](const char* name, uint64_t value) {
            if (value) w.kv(name, value);
        });
        w.end_object();
        w.end_object();
    }
    w.end_array();
    w.end_object();
    os << "\n";
    return os.str();
}

}  // namespace phpsafe::obs
