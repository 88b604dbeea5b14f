#include "service/server.h"

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <istream>
#include <map>
#include <ostream>
#include <thread>
#include <utility>

namespace phpsafe::service {

void SyncLineWriter::write_line(const std::string& line) {
    std::lock_guard<std::mutex> lock(mutex_);
    out_ << line << "\n" << std::flush;
}

AnalysisServer::AnalysisServer(ServerOptions options)
    : options_(std::move(options)),
      owned_service_(std::make_unique<AnalysisService>(options_.service)),
      service_(owned_service_.get()) {}

AnalysisServer::AnalysisServer(AnalysisService& service, ServerOptions options)
    : options_(std::move(options)), service_(&service) {}

AnalysisServer::~AnalysisServer() = default;

namespace {

/// One response the session owes its client, in request order. Scan items
/// carry the ticket the writer must await; every other op carries a
/// deferred renderer, which runs execute() on the writer thread only when
/// the writer reaches it — so a `stats` request observes every scan the
/// session submitted before it, and `clear` cannot race past an in-flight
/// earlier scan of its own session.
struct SessionItem {
    AnalysisService::Ticket ticket;
    std::function<std::string()> render;
};

/// The in-order response pump of one session. The reader thread pushes,
/// the writer thread pops; close() marks the end of the request stream.
class SessionQueue {
public:
    void push(SessionItem item) {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            items_.push_back(std::move(item));
        }
        cv_.notify_one();
    }

    void close() {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            closed_ = true;
        }
        cv_.notify_one();
    }

    /// Pops the next item; false once the queue is closed and drained.
    bool pop(SessionItem& out) {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [this] { return closed_ || !items_.empty(); });
        if (items_.empty()) return false;
        out = std::move(items_.front());
        items_.pop_front();
        return true;
    }

private:
    std::mutex mutex_;
    std::condition_variable cv_;
    std::deque<SessionItem> items_;
    bool closed_ = false;
};

}  // namespace

int AnalysisServer::serve_serial(std::istream& in, std::ostream& out) {
    WatchSession watch(*service_);
    int served = 0;
    while (auto request = read_next_request(in, options_.max_line_bytes)) {
        ++served;
        out << execute(*request, *service_, watch, options_.deterministic)
            << "\n"
            << std::flush;
        if (request->op == NdjsonRequest::Op::kQuit) break;
    }
    return served;
}

int AnalysisServer::serve_session(std::istream& in, SyncLineWriter& out,
                                  int base_priority) {
    AnalysisService& service = *service_;
    const bool deterministic = options_.deterministic;

    // Per-session watch state. Touched only from the writer thread (every
    // non-scan op runs there), so no lock of its own is needed.
    WatchSession watch(service);

    SessionQueue queue;
    std::thread writer([&] {
        SessionItem item;
        while (queue.pop(item)) {
            if (item.ticket.valid())
                out.write_line(render_scan_line(service.await(item.ticket),
                                                deterministic));
            else
                out.write_line(item.render());
        }
    });

    // Last still-relevant scan per supersede slot: a new request in the
    // slot cancels its predecessor if that one has not started yet.
    std::map<std::string, AnalysisService::Ticket> slots;

    int served = 0;
    while (auto request = read_next_request(in, options_.max_line_bytes)) {
        ++served;
        if (request->op == NdjsonRequest::Op::kScan) {
            request->scan.priority += base_priority;
            AnalysisService::Ticket ticket =
                service.submit(std::move(request->scan));
            if (!request->slot.empty()) {
                const auto previous = slots.find(request->slot);
                if (previous != slots.end())
                    service.cancel(previous->second);
                slots[request->slot] = ticket;
            }
            queue.push({std::move(ticket), {}});
            continue;
        }
        // Every other op is a barrier: execute() runs on the writer thread
        // after every earlier response, and the reader admits no later
        // request until it has — exactly the serve_serial order, so stats
        // snapshots and watch transcripts match the serial loop byte for
        // byte.
        const bool quit = request->op == NdjsonRequest::Op::kQuit;
        auto executed = std::make_shared<std::promise<void>>();
        std::future<void> barrier = executed->get_future();
        queue.push({{}, [&, executed, pending = std::move(*request)]() mutable {
                        std::string reply =
                            execute(pending, service, watch, deterministic);
                        executed->set_value();
                        return reply;
                    }});
        barrier.wait();
        if (quit) break;
    }

    queue.close();
    writer.join();
    return served;
}

int AnalysisServer::serve_session(std::istream& in, std::ostream& out,
                                  int base_priority) {
    SyncLineWriter writer(out);
    return serve_session(in, writer, base_priority);
}

}  // namespace phpsafe::service
