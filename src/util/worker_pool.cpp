#include "util/worker_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <latch>

namespace phpsafe {

namespace {

/// The team whose thread this is: run() from it must not wait for
/// helpers, since the caller may be the only thread free to run them.
thread_local const TaskTeam* current_team = nullptr;

}  // namespace

int resolve_parallelism(int requested) {
    if (requested >= 1) return requested;
    if (const char* jobs = std::getenv("PHPSAFE_JOBS")) {
        const int parsed = std::atoi(jobs);
        if (parsed >= 1) return parsed;
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw >= 1 ? static_cast<int>(hw) : 1;
}

/// One run() call, co-owned by the caller and every helper that took a
/// slot: a helper that starts after the caller returned claims no index,
/// so it never touches `fn`.
struct TaskTeam::Job {
    Job(const std::function<void(size_t)>& f, size_t n)
        : fn(f), count(n), done(static_cast<std::ptrdiff_t>(n)) {}

    const std::function<void(size_t)>& fn;
    const size_t count;
    size_t helpers = 0;  ///< slots still on offer; guarded by the team mutex
    std::atomic<size_t> next{0};  ///< next unclaimed index
    std::latch done;              ///< counts finished indices down to 0
    std::mutex mutex;             ///< guards `error`
    std::exception_ptr error;

    void drain() {
        for (size_t i = next.fetch_add(1); i < count; i = next.fetch_add(1)) {
            try {
                fn(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(mutex);
                if (!error) error = std::current_exception();
            }
            done.count_down();
        }
    }
};

TaskTeam::TaskTeam(int threads) {
    const int count = std::max(threads, 0);
    threads_.reserve(static_cast<size_t>(count));
    for (int i = 0; i < count; ++i)
        threads_.emplace_back([this] { thread_loop(); });
}

TaskTeam::~TaskTeam() {
    {
        std::lock_guard<std::mutex> lock(mutex_);
        paused_ = false;
        shutdown_ = true;
    }
    cv_.notify_all();
    for (std::thread& t : threads_) t.join();
}

void TaskTeam::post(int priority, std::function<void()> task) {
    if (threads_.empty()) return task();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        queue_[priority].push_back(std::move(task));
        ++depth_;
    }
    cv_.notify_one();
}

void TaskTeam::run(size_t count, const std::function<void(size_t)>& fn) {
    if (count == 0) return;
    const auto job = std::make_shared<Job>(fn, count);
    size_t helpers = 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (current_team != this && !paused_)
            helpers = std::min(count - 1, threads_.size());
        job->helpers = helpers;
        if (helpers > 0) jobs_.push_back(job);
    }
    if (helpers > 0) cv_.notify_all();
    job->drain();
    if (helpers > 0) {
        // Every index is claimed now: withdraw the slots no thread took.
        std::lock_guard<std::mutex> lock(mutex_);
        std::erase(jobs_, job);
    }
    job->done.wait();
    if (job->error) std::rethrow_exception(job->error);
}

size_t TaskTeam::depth() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return depth_;
}

void TaskTeam::pause() {
    std::lock_guard<std::mutex> lock(mutex_);
    paused_ = true;
}

void TaskTeam::resume() {
    {
        std::lock_guard<std::mutex> lock(mutex_);
        paused_ = false;
    }
    cv_.notify_all();
}

void TaskTeam::thread_loop() {
    current_team = this;
    for (;;) {
        std::function<void()> task;
        std::shared_ptr<Job> job;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            cv_.wait(lock, [this] {
                return (!paused_ && (depth_ > 0 || !jobs_.empty())) ||
                       (shutdown_ && depth_ == 0);
            });
            if (!paused_ && !jobs_.empty()) {
                // Fork-join helpers go ahead of every queued task.
                job = jobs_.front();
                if (--job->helpers == 0) jobs_.pop_front();
            } else if (depth_ == 0) {
                return;  // shutdown with a drained queue
            } else {
                const auto bucket = queue_.begin();  // highest priority first
                task = std::move(bucket->second.front());
                bucket->second.pop_front();
                if (bucket->second.empty()) queue_.erase(bucket);
                --depth_;
                // The pop that empties the queue must wake siblings blocked
                // on the shutdown predicate, or they would sleep forever.
                if (shutdown_ && depth_ == 0) cv_.notify_all();
            }
        }
        if (job)
            job->drain();
        else
            task();
    }
}

}  // namespace phpsafe
