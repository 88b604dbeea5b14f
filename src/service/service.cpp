#include "service/service.h"

#include <utility>

#include "util/strings.h"
#include "util/timing.h"

namespace phpsafe::service {

/// One queued/running scan. Awaiters block on `cv` until `done`. The
/// lifecycle field makes cancellation race-free: a worker claims the scan
/// with a kQueued→kRunning CAS, cancel() with kQueued→kCancelled — exactly
/// one of them wins.
struct PendingScan {
    enum State { kQueued = 0, kRunning, kCancelled };

    ScanRequest request;
    uint64_t fingerprint = 0;
    std::atomic<int> state{kQueued};
    std::mutex mutex;
    std::condition_variable cv;
    bool done = false;
    ScanResponse response;
};

uint64_t AnalysisService::spec_content_hash(const SourceFileSpec& spec) {
    if (spec.parsed) return spec.parsed->content_hash;
    if (spec.known_hash != 0) return spec.known_hash;
    return php::content_hash(spec.text);
}

uint64_t AnalysisService::request_fingerprint(const ScanRequest& request) {
    uint64_t h = fnv1a64(request.plugin);
    h = fnv1a64("\x1f", h);
    h = fnv1a64(request.preset, h);
    h = fnv1a64("\x1f", h);
    for (const SourceFileSpec& file : request.files) {
        h = fnv1a64("\x1f", h);
        h = fnv1a64(file.name, h);
        h = fnv1a64("\x1f", h);
        uint64_t content = spec_content_hash(file);
        char bytes[8];
        for (char& b : bytes) {
            b = static_cast<char>(content & 0xff);
            content >>= 8;
        }
        h = fnv1a64(std::string_view(bytes, sizeof bytes), h);
    }
    return h;
}

AnalysisService::AnalysisService(ServiceOptions options)
    : options_(std::move(options)), cache_(options_.budgets) {
    // Every preset runs hermetic (AnalysisOptions::hermetic_summaries):
    // summaries are computed context-free in declaration order. The served
    // result is then what validate::validate_result's hermetic baseline
    // scan reproduces trace-for-trace (finding_signature), and only that
    // match arms summary seeding for the per-fix verification rescans.
    Tool phpsafe = make_phpsafe_tool();
    phpsafe.options.hermetic_summaries = true;
    presets_.emplace("phpsafe", std::move(phpsafe));
    Tool rips = make_rips_like_tool();
    rips.options.hermetic_summaries = true;
    presets_.emplace("rips", std::move(rips));
    Tool pixy = make_pixy_like_tool();
    pixy.options.hermetic_summaries = true;
    presets_.emplace("pixy", std::move(pixy));

    team_ = std::make_unique<TaskTeam>(
        WorkerPool::resolve_parallelism(options_.workers));
}

// ~team_ (declared last, destroyed first) resumes a paused queue and runs
// every remaining scan to completion, so no awaiter is left hanging.
AnalysisService::~AnalysisService() = default;

void AnalysisService::pause() { team_->pause(); }

void AnalysisService::resume() { team_->resume(); }

size_t AnalysisService::queue_depth() const { return team_->depth(); }

AnalysisService::Ticket AnalysisService::submit(ScanRequest request) {
    const uint64_t fingerprint = request_fingerprint(request);
    const int priority = request.priority;
    Ticket ticket;
    std::shared_ptr<PendingScan> scan;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto it = in_flight_.find(fingerprint);
        if (it != in_flight_.end()) {
            std::shared_ptr<PendingScan> existing = it->second.lock();
            if (existing &&
                existing->state.load(std::memory_order_acquire) !=
                    PendingScan::kCancelled) {
                ticket.scan_ = std::move(existing);
                ticket.coalesced = true;
                return ticket;
            }
        }
        if (options_.max_queue_depth != 0 &&
            team_->depth() >= options_.max_queue_depth) {
            // Admission control: answer immediately instead of queueing.
            // The rejected scan never enters the dedup map.
            auto rejected = std::make_shared<PendingScan>();
            rejected->request = std::move(request);
            rejected->response.rejected = true;
            rejected->response.result.plugin = rejected->request.plugin;
            rejected->response.result.diagnostics.push_back(Diagnostic{
                Severity::kFatal, SourceLocation{},
                "scan rejected: queue depth limit reached"});
            rejected->done = true;
            ticket.scan_ = std::move(rejected);
            return ticket;
        }
        scan = std::make_shared<PendingScan>();
        scan->request = std::move(request);
        scan->fingerprint = fingerprint;
        in_flight_[fingerprint] = scan;
    }
    maybe_shed();
    team_->post(priority,
                [this, scan] { run_scan(scan); });
    ticket.scan_ = std::move(scan);
    return ticket;
}

ScanResponse AnalysisService::await(const Ticket& ticket) {
    if (!ticket.scan_) return {};
    PendingScan& scan = *ticket.scan_;
    std::unique_lock<std::mutex> lock(scan.mutex);
    scan.cv.wait(lock, [&] { return scan.done; });
    ScanResponse response = scan.response;
    response.deduplicated = ticket.coalesced;
    return response;
}

ScanResponse AnalysisService::scan(ScanRequest request) {
    return await(submit(std::move(request)));
}

void AnalysisService::clear_cache() {
    cache_.clear();
    std::lock_guard<std::mutex> lock(validate_mutex_);
    validate_cache_.clear();
    validate_order_.clear();
}

ValidateResponse AnalysisService::validate(const ScanRequest& request) {
    const double wall_start = wall_seconds();
    const uint64_t fingerprint = request_fingerprint(request);
    {
        std::lock_guard<std::mutex> lock(validate_mutex_);
        const auto it = validate_cache_.find(fingerprint);
        if (it != validate_cache_.end()) {
            ValidateResponse response = *it->second;
            response.from_validate_cache = true;
            response.wall_seconds = wall_seconds() - wall_start;
            return response;
        }
    }

    ValidateResponse response;
    response.scan = scan(request);
    if (response.scan.cancelled || response.scan.rejected) {
        response.wall_seconds = wall_seconds() - wall_start;
        return response;
    }

    // The replay needs the concrete project, which the scan path does not
    // hand out: rebuild it from the request's specs. Pinned ASTs (watch
    // sessions) ride through without re-parsing; plain texts parse fresh.
    php::Project project(request.plugin);
    for (const SourceFileSpec& file : request.files) {
        if (file.parsed)
            project.add_parsed(file.parsed);
        else
            project.add_file(file.name, file.text);
    }
    DiagnosticSink sink;
    project.parse_all(sink);

    // Same preset resolution as perform_scan, so the analyzer configuration
    // fix verification re-runs is exactly the one that produced the
    // findings.
    const auto preset_it = presets_.find(request.preset);
    const Tool& tool =
        preset_it != presets_.end() ? preset_it->second : presets_.at("phpsafe");

    validate::ValidateOptions vopts;  // workers auto: PHPSAFE_JOBS aware
    response.report = validate::validate_result(project, tool.kb, tool.options,
                                                response.scan.result, vopts);
    response.tiered = response.scan.result;
    validate::apply_confidence(response.tiered, response.report);

    {
        std::lock_guard<std::mutex> lock(validate_mutex_);
        constexpr size_t kValidateCacheCap = 32;
        if (validate_cache_
                .emplace(fingerprint,
                         std::make_shared<const ValidateResponse>(response))
                .second) {
            validate_order_.push_back(fingerprint);
            if (validate_order_.size() > kValidateCacheCap) {
                validate_cache_.erase(validate_order_.front());
                validate_order_.erase(validate_order_.begin());
            }
        }
    }
    response.wall_seconds = wall_seconds() - wall_start;
    return response;
}

bool AnalysisService::cancel(const Ticket& ticket) {
    if (!ticket.scan_) return false;
    int expected = PendingScan::kQueued;
    if (!ticket.scan_->state.compare_exchange_strong(
            expected, PendingScan::kCancelled, std::memory_order_acq_rel))
        return false;
    // Release the fingerprint immediately: a new identical submit must run
    // fresh rather than coalesce onto a corpse. The queued task still runs
    // (cheaply) to deliver the cancelled response to awaiters.
    release_fingerprint(ticket.scan_);
    return true;
}

void AnalysisService::maybe_shed() {
    const size_t watermark = options_.pressure_queue_depth != 0
                                 ? options_.pressure_queue_depth
                                 : options_.max_queue_depth / 2;
    if (watermark == 0) return;
    if (team_->depth() < watermark) {
        shed_armed_.store(true, std::memory_order_relaxed);
        return;
    }
    // Rising edge only: a sustained deep queue sheds once, then re-arms
    // after it drains. Target half the resident bytes — AnalysisCache::shed
    // takes whole results first and parsed files last.
    if (shed_armed_.exchange(false, std::memory_order_relaxed))
        cache_.shed(cache_.stats().bytes_resident / 2);
}

void AnalysisService::release_fingerprint(
    const std::shared_ptr<PendingScan>& scan) {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = in_flight_.find(scan->fingerprint);
    if (it == in_flight_.end()) return;
    // Only erase our own registration: a cancelled scan's slot may already
    // be occupied by a fresh identical submit.
    const std::shared_ptr<PendingScan> current = it->second.lock();
    if (!current || current == scan) in_flight_.erase(it);
}

void AnalysisService::finish(const std::shared_ptr<PendingScan>& scan,
                             ScanResponse response) {
    // The two critical sections here are deliberately tiny and disjoint:
    // the dedup map entry is released under the service mutex, the done
    // flag is flipped under the scan's own mutex — a slow scan completing
    // never holds the service-wide lock while awaiters wake up.
    release_fingerprint(scan);
    {
        std::lock_guard<std::mutex> lock(scan->mutex);
        scan->response = std::move(response);
        scan->done = true;
    }
    scan->cv.notify_all();
}

void AnalysisService::run_scan(const std::shared_ptr<PendingScan>& scan) {
    int expected = PendingScan::kQueued;
    if (!scan->state.compare_exchange_strong(expected, PendingScan::kRunning,
                                             std::memory_order_acq_rel)) {
        // cancel() won the race while the scan was queued.
        ScanResponse response;
        response.cancelled = true;
        response.result.plugin = scan->request.plugin;
        finish(scan, std::move(response));
        return;
    }
    scan->response.dispatch_seq =
        dispatch_counter_.fetch_add(1, std::memory_order_relaxed) + 1;
    ScanResponse response;
    try {
        response = perform_scan(*scan);
    } catch (const std::exception& e) {
        response = {};
        response.result.plugin = scan->request.plugin;
        response.result.diagnostics.push_back(
            Diagnostic{Severity::kFatal, SourceLocation{}, e.what()});
    } catch (...) {
        response = {};
        response.result.plugin = scan->request.plugin;
        response.result.diagnostics.push_back(Diagnostic{
            Severity::kFatal, SourceLocation{}, "unknown scan failure"});
    }
    response.dispatch_seq = scan->response.dispatch_seq;
    finish(scan, std::move(response));
}

ScanResponse AnalysisService::perform_scan(PendingScan& scan) {
    const double wall_start = wall_seconds();
    obs::Tracer inert(false);
    obs::Tracer& tracer = options_.tracer ? *options_.tracer : inert;
    auto scan_span = tracer.span("service.scan", {{"plugin", scan.request.plugin},
                                                  {"preset", scan.request.preset}});
    const obs::CounterDelta delta;
    ScanResponse response;

    const auto preset_it = presets_.find(scan.request.preset);
    const Tool& tool =
        preset_it != presets_.end() ? preset_it->second : presets_.at("phpsafe");
    const AnalysisOptions& options = tool.options;
    const std::string preset_fp = options.fingerprint();

    // Path 1: the exact (content, preset) pair was scanned before.
    bool served = false;
    if (options_.reuse_results) {
        if (auto cached = cache_.find_result(preset_fp, scan.fingerprint)) {
            response.result = *cached;
            response.from_result_cache = true;
            served = true;
        }
    }

    if (!served) {
        // Model construction, with per-file AST reuse.
        php::Project project(scan.request.plugin);
        {
            auto build_span =
                tracer.span("service.build", {{"plugin", scan.request.plugin}});
            for (const SourceFileSpec& file : scan.request.files) {
                if (file.parsed) {
                    // Pinned by the requester (watch sessions): no hash, no
                    // cache probe — the shared_ptr alone keeps it alive.
                    project.add_parsed(file.parsed);
                    continue;
                }
                const uint64_t hash = file.known_hash != 0
                                          ? file.known_hash
                                          : php::content_hash(file.text);
                if (auto cached = cache_.find_file(file.name, hash))
                    project.add_parsed(std::move(cached));
                else
                    project.add_file(file.name, file.text);
            }
            DiagnosticSink sink;
            project.parse_all(sink);
            // Pinned files skip (re)insertion: they bypassed the probe on
            // the way in, and their owner keeps them resident regardless.
            const auto& parsed_files = project.files();
            for (size_t i = 0; i < parsed_files.size(); ++i) {
                if (i < scan.request.files.size() && scan.request.files[i].parsed)
                    continue;
                cache_.insert_file(parsed_files[i]);
            }
        }
        response.files_reused = project.build_stats().files_reused;

        Engine engine(tool.kb, options);
        {
            auto run_span =
                tracer.span("service.analyze", {{"plugin", scan.request.plugin},
                                                {"tool", tool.name}});
            const double cpu_start = thread_cpu_seconds();
            response.result = engine.analyze(project);
            response.result.cpu_seconds = thread_cpu_seconds() - cpu_start;
        }

        if (options_.reuse_results) {
            response.result.counters = delta.take();
            cache_.insert_result(preset_fp, scan.fingerprint, response.result);
        }
    }

    response.counters = delta.take();
    if (!response.from_result_cache) response.result.counters = response.counters;
    response.wall_seconds = wall_seconds() - wall_start;
    scan_span.note("result_cache", response.from_result_cache ? "hit" : "miss");
    scan_span.end();
    return response;
}

}  // namespace phpsafe::service
