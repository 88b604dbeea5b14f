// Span tracing for the observability subsystem. A Span measures one
// (plugin, version, tool, stage) unit of work — wall clock and per-thread
// CPU — and a Tracer collects spans from any number of threads. Two
// exporters: the Chrome trace-event format (load trace.json in
// chrome://tracing or https://ui.perfetto.dev) and a flat JSON array for
// scripted analysis.
//
// Cost model: a *disabled* tracer is free — span() returns an inert Span
// without copying a byte or allocating (tests/obs_test.cpp asserts this),
// so instrumentation can stay in place unconditionally. A tracer starts
// disabled unless constructed with Tracer(true). The exporters return
// strings and use only the standard library and util/json_writer.h.
#pragma once

#include <initializer_list>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "obs/counters.h"

namespace phpsafe::obs {

/// One label attached to a span ("plugin" → "wp-forum", "stage" → "lex").
using SpanArg = std::pair<std::string, std::string>;

/// A completed span, as stored by the tracer.
struct SpanRecord {
    std::string name;           ///< stage name ("lex", "analyze", ...)
    std::vector<SpanArg> args;  ///< plugin / version / tool labels
    double wall_start = 0;      ///< seconds since the tracer was created
    double wall_seconds = 0;    ///< wall-clock duration
    double cpu_seconds = 0;     ///< CPU consumed by the recording thread
    int thread = 0;             ///< dense per-tracer thread index
    /// Counter increments the recording thread performed inside the span
    /// (a CounterDelta over its lifetime) — cache traffic, taint work.
    /// The flat exporter emits the nonzero fields.
    Counters counters;
};

class Tracer {
public:
    explicit Tracer(bool enabled = false);

    bool enabled() const noexcept { return enabled_; }

    /// RAII handle for an in-flight span; records on end() or destruction.
    /// Move-only. An inert Span (from a disabled tracer) does nothing.
    class Span {
    public:
        Span() = default;
        Span(Span&& other) noexcept { *this = std::move(other); }
        Span& operator=(Span&& other) noexcept {
            if (this != &other) {
                end();
                tracer_ = other.tracer_;
                record_ = std::move(other.record_);
                cpu_start_ = other.cpu_start_;
                counters_start_ = other.counters_start_;
                other.tracer_ = nullptr;
            }
            return *this;
        }
        Span(const Span&) = delete;
        Span& operator=(const Span&) = delete;
        ~Span() { end(); }

        bool active() const noexcept { return tracer_ != nullptr; }

        /// Attaches a label; no-op on an inert span.
        void note(std::string_view key, std::string_view value);

        /// Finishes the span and hands it to the tracer. Idempotent.
        void end();

    private:
        friend class Tracer;
        Span(Tracer* tracer, std::string_view name,
             std::initializer_list<std::pair<std::string_view, std::string_view>>
                 args);

        Tracer* tracer_ = nullptr;
        SpanRecord record_;
        double cpu_start_ = 0;
        Counters counters_start_;
    };

    /// Opens a span. Arguments are string_views so a disabled tracer copies
    /// nothing: `auto s = tracer.span("analyze", {{"tool", name}});`.
    Span span(std::string_view name,
              std::initializer_list<std::pair<std::string_view, std::string_view>>
                  args = {});

    /// Snapshot of everything recorded so far (thread-safe).
    std::vector<SpanRecord> records() const;
    size_t record_count() const;

    /// Chrome trace-event JSON ({"traceEvents":[...]}; ts/dur in µs).
    std::string chrome_trace_json() const;

    /// Flat JSON: {"spans":[{name, args..., wall_ms, cpu_ms,
    /// counters:{...nonzero deltas...}}, ...]}.
    std::string flat_json() const;

private:
    void commit(SpanRecord&& record);
    int thread_index(std::thread::id id);

    const bool enabled_;
    const double epoch_;  ///< wall_seconds() at construction
    mutable std::mutex mutex_;
    std::vector<SpanRecord> records_;
    std::vector<std::thread::id> threads_;  ///< index = dense thread id
};

}  // namespace phpsafe::obs
