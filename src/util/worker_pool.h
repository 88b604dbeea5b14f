// The codebase's one thread pool: a persistent team of threads with two
// ways to hand it work.
//
// post() is the streaming shape the analysis service uses: enqueue a task
// with a priority and return immediately; team threads continuously drain
// the queue highest-priority-first (FIFO within a priority), so a
// long-running task never blocks the dispatch of unrelated later ones.
//
// run(count, fn) is the fork-join shape the evaluation driver and the
// validation fan-out use: the caller and any idle team threads claim
// indices from one shared counter, and run() returns once every index is
// done. Idle threads take fork-join work ahead of every queued task. A
// served validate therefore fans out on the service's own threads and
// starts none of its own.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace phpsafe {

/// Resolves a requested parallelism: values >= 1 pass through; 0 or
/// negative mean "auto" — the PHPSAFE_JOBS environment variable when set,
/// otherwise std::thread::hardware_concurrency().
int resolve_parallelism(int requested);

class TaskTeam {
public:
    /// Starts `threads` dedicated threads; 0 (or negative) starts none, and
    /// then post() and run() execute on the calling thread.
    explicit TaskTeam(int threads);

    /// Resumes a paused queue and runs every remaining task to completion
    /// before joining — queued work is a promise to its submitter.
    ~TaskTeam();

    TaskTeam(const TaskTeam&) = delete;
    TaskTeam& operator=(const TaskTeam&) = delete;

    int thread_count() const noexcept {
        return static_cast<int>(threads_.size());
    }

    /// Enqueues a task. Higher priority runs sooner; equal priorities run
    /// in post order. Tasks must not throw — they run user completion
    /// logic that owns its own error channel; an escaping exception
    /// terminates (std::terminate) rather than being silently dropped.
    void post(int priority, std::function<void()> task);

    /// Calls fn(i) for every i in [0, count) and blocks until all are done;
    /// rethrows the first exception fn threw. The calling thread takes part,
    /// and up to min(count - 1, threads) idle team threads help. Called from
    /// one of this team's threads, or while the team is paused, it runs
    /// every index on the caller alone, so it never waits on a thread that
    /// cannot come.
    void run(size_t count, const std::function<void(size_t)>& fn);

    /// Tasks queued but not yet started (fork-join helpers not counted).
    size_t depth() const;

    /// While paused, threads finish their current task and then idle; the
    /// queue only accumulates. Used by tests to build provable backlogs.
    void pause();
    void resume();

private:
    struct Job;

    void thread_loop();

    mutable std::mutex mutex_;
    std::condition_variable cv_;
    std::vector<std::thread> threads_;
    /// priority → FIFO of tasks at that priority; iteration order is
    /// descending priority via the comparator.
    std::map<int, std::deque<std::function<void()>>, std::greater<int>> queue_;
    size_t depth_ = 0;
    /// run() calls still offering helper slots, oldest first.
    std::deque<std::shared_ptr<Job>> jobs_;
    bool paused_ = false;
    bool shutdown_ = false;
};

}  // namespace phpsafe
