#pragma once

#include "error.hpp"
#include "fault.hpp"
#include "message.hpp"
#include "sched.hpp"

#include <check/check.hpp>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

namespace simmpi::detail {

/// Who aborted the world and why; shared with every mailbox so waiters
/// can throw a structured AbortedError instead of blocking forever.
struct AbortInfo {
    int         rank;
    std::string cause;
};

/// Deadline of one blocking wait: absent means wait forever. `ms` keeps
/// the configured duration for diagnostics in TimeoutError.
struct Deadline {
    std::optional<std::chrono::steady_clock::time_point> at;
    std::int64_t                                         ms = 0;
};

/// Per-rank incoming-message queue. Senders push envelopes; the owning
/// rank blocks until an envelope matching (context, src, tag) arrives.
/// Matching scans front-to-back, which preserves MPI's non-overtaking
/// guarantee per (context, src, tag) stream.
///
/// Every blocking wait also watches for two unblocking events: the world
/// being aborted (poison(): the wait throws AbortedError) and the
/// caller's deadline expiring (throws TimeoutError). Both checks happen
/// under the mailbox mutex, so a poison can never race past a waiter.
class Mailbox {
public:
    /// Deterministic-scheduler hookup (installed before rank-threads
    /// start): waits become scheduling points on this mailbox's channel,
    /// and push/poison notify the controller.
    void set_scheduler(Scheduler* s) { sched_ = s; }

    void push(Envelope&& env) {
        {
            l5race::AnnouncedLock held(mutex_, "Mailbox::push", "mailbox.mutex");
            // the envelope carries the sender's clock: matching it in pop
            // is a happens-before edge from everything before this send
            env.race_seq = l5race::publish_token();
            L5_SHARED_WRITE(this, "queue_", "Mailbox::push");
            queue_.push_back(std::move(env));
        }
        cv_.notify_all();
        if (sched_) sched_->notify(this);
    }

    /// Wake every waiter with an abort error; subsequent waits throw too.
    void poison(std::shared_ptr<const AbortInfo> info) {
        {
            l5race::AnnouncedLock held(mutex_, "Mailbox::poison", "mailbox.mutex");
            L5_SHARED_WRITE(this, "poison_", "Mailbox::poison");
            if (!poison_) poison_ = std::move(info);
        }
        cv_.notify_all();
        if (sched_) sched_->notify(this);
    }

    /// Blocks until a matching envelope is available, removes and returns it.
    Envelope pop(std::uint64_t context, int src, int tag, const Deadline& dl = {}) {
        l5race::AnnouncedLock held(mutex_, "Mailbox::pop", "mailbox.mutex");
        for (;;) {
            check_poison();
            if (auto it = find(context, src, tag); it != queue_.end()) {
                Envelope env = std::move(*it);
                queue_.erase(it);
                L5_SHARED_WRITE(this, "queue_", "Mailbox::pop");
                l5race::consume_token(env.race_seq);
                return env;
            }
            wait(held.lock(), dl, "recv", src, tag);
        }
    }

    /// Non-destructive probe; nullopt when no matching envelope is queued.
    std::optional<Status> probe(std::uint64_t context, int src, int tag) {
        l5race::AnnouncedLock held(mutex_, "Mailbox::probe", "mailbox.mutex");
        check_poison();
        L5_SHARED_READ(this, "queue_", "Mailbox::probe");
        if (auto it = find(context, src, tag); it != queue_.end())
            return Status{it->src, it->tag, it->size(), it->check_seq};
        return std::nullopt;
    }

    /// Blocking probe: waits until a matching envelope is queued.
    Status probe_wait(std::uint64_t context, int src, int tag, const Deadline& dl = {}) {
        l5race::AnnouncedLock held(mutex_, "Mailbox::probe_wait", "mailbox.mutex");
        for (;;) {
            check_poison();
            L5_SHARED_READ(this, "queue_", "Mailbox::probe_wait");
            if (auto it = find(context, src, tag); it != queue_.end())
                return Status{it->src, it->tag, it->size(), it->check_seq};
            wait(held.lock(), dl, "probe", src, tag);
        }
    }

    /// Blocking probe across several contexts (e.g., all the
    /// intercommunicators a server rank serves): waits until a matching
    /// envelope arrives on any of them; `which` receives its index.
    /// Blocks on the condition variable — no spinning.
    Status probe_wait_any(std::span<const std::uint64_t> contexts, int src, int tag,
                          std::size_t* which, const Deadline& dl = {}) {
        l5race::AnnouncedLock held(mutex_, "Mailbox::probe_wait_any", "mailbox.mutex");
        for (;;) {
            check_poison();
            L5_SHARED_READ(this, "queue_", "Mailbox::probe_wait_any");
            for (std::size_t k = 0; k < contexts.size(); ++k) {
                if (auto it = find(contexts[k], src, tag); it != queue_.end()) {
                    if (which) *which = k;
                    return Status{it->src, it->tag, it->size(), it->check_seq};
                }
            }
            wait(held.lock(), dl, "probe_any", src, tag);
        }
    }

private:
    void check_poison() const {
        L5_SHARED_READ(this, "poison_", "Mailbox::check_poison");
        if (poison_) throw AbortedError(poison_->rank, poison_->cause);
    }

    void wait(std::unique_lock<std::mutex>& lock, const Deadline& dl, const char* where, int src,
              int tag) {
        if (sched_ && sched_->attached_here() && sched_->usable()) {
            // deterministic mode: descheduled through the controller;
            // deadlines run on simulated time (they fire, deterministically,
            // only when the whole world is otherwise blocked)
            if (!sched_->block(lock, this, where, src, tag, dl.at, dl.ms))
                throw TimeoutError(dl.ms, where, src, tag);
            return; // spurious returns fall out to the caller's re-check loop
        }
        if (!dl.at) {
            cv_.wait(lock); // lint: allow-bare-wait(free-running path; sched_->block above covers deterministic mode)
            return;
        }
        if (std::chrono::steady_clock::now() >= *dl.at)
            throw TimeoutError(dl.ms, where, src, tag);
        cv_.wait_until(lock, *dl.at); // lint: allow-bare-wait(free-running path; sched_->block above covers deterministic mode)
    }

    std::deque<Envelope>::iterator find(std::uint64_t context, int src, int tag) {
        for (auto it = queue_.begin(); it != queue_.end(); ++it) {
            if (it->context != context) continue;
            if (src != any_source && it->src != src) continue;
            if (tag != any_tag && it->tag != tag) continue;
            return it;
        }
        return queue_.end();
    }

    std::mutex                       mutex_;
    std::condition_variable          cv_;
    std::deque<Envelope>             queue_;
    std::shared_ptr<const AbortInfo> poison_;
    Scheduler*                       sched_ = nullptr;
};

/// Shared state of one "MPI world": a mailbox per rank plus a counter
/// used to allocate communicator context ids collectively, the abort
/// state that poisons every mailbox when a rank-thread fails, the
/// world-default deadline, and the optional fault-injection plan.
class World {
public:
    explicit World(int size) : mailboxes_(static_cast<std::size_t>(size)) {
        for (auto& mb : mailboxes_)
            mb = std::make_unique<Mailbox>();
    }

    int size() const { return static_cast<int>(mailboxes_.size()); }

    Mailbox& mailbox(int world_rank) {
        if (world_rank < 0 || world_rank >= size())
            throw Error("simmpi: world rank " + std::to_string(world_rank) + " out of range");
        return *mailboxes_[static_cast<std::size_t>(world_rank)];
    }

    /// Reserve `count` fresh context ids; returns the first. Call from a
    /// single rank and broadcast the result — context ids must be agreed
    /// upon by every member of the new communicator.
    std::uint64_t reserve_contexts(std::uint64_t count) {
        return next_context_.fetch_add(count, std::memory_order_relaxed);
    }

    // --- failure containment ---------------------------------------------

    /// Mark the world aborted (first caller wins) and wake every blocked
    /// waiter; all further communication ops throw AbortedError.
    void abort(int rank, const std::string& cause) {
        std::lock_guard<std::mutex> lock(abort_mutex_);
        if (abort_info_) return;
        abort_info_ = std::make_shared<const AbortInfo>(AbortInfo{rank, cause});
        aborted_.store(true, std::memory_order_release);
        for (auto& mb : mailboxes_) mb->poison(abort_info_);
    }

    bool aborted() const { return aborted_.load(std::memory_order_acquire); }

    /// Throw AbortedError when the world has been aborted (send-side
    /// check: sends never block, so they consult the flag directly).
    void check_abort() const {
        if (!aborted()) return;
        std::lock_guard<std::mutex> lock(abort_mutex_);
        throw AbortedError(abort_info_->rank, abort_info_->cause);
    }

    // --- deadlines --------------------------------------------------------

    /// World-default timeout for blocking waits; <= 0 disables.
    void set_default_timeout_ms(std::int64_t ms) {
        default_timeout_ms_.store(ms, std::memory_order_relaxed);
    }
    std::int64_t default_timeout_ms() const {
        return default_timeout_ms_.load(std::memory_order_relaxed);
    }

    // --- fault injection --------------------------------------------------

    /// Install the plan before rank-threads start (not thread-safe later).
    void set_faults(FaultPlan plan) {
        faults_ = std::make_unique<FaultState>(std::move(plan), size());
    }
    FaultState* faults() const { return faults_.get(); }

    // --- deterministic scheduling ----------------------------------------

    /// Install the cooperative scheduler before rank-threads start (not
    /// thread-safe later); every mailbox wait becomes a scheduling point.
    void set_scheduler(const SchedConfig& cfg) {
        sched_ = std::make_unique<Scheduler>(cfg, size());
        for (auto& mb : mailboxes_) mb->set_scheduler(sched_.get());
    }
    Scheduler* sched() const { return sched_.get(); }

    // --- correctness checking ---------------------------------------------

    /// Install the MPI-semantics checker before rank-threads start (not
    /// thread-safe later); every comm op gains a checker hook.
    void set_checker(const l5check::CheckConfig& cfg) {
        checker_ = std::make_unique<l5check::Checker>(cfg, size());
    }
    l5check::Checker* checker() const { return checker_.get(); }

private:
    std::vector<std::unique_ptr<Mailbox>> mailboxes_;
    std::atomic<std::uint64_t>            next_context_{1}; // 0 = world communicator
    mutable std::mutex                    abort_mutex_;
    std::shared_ptr<const AbortInfo>      abort_info_;
    std::atomic<bool>                     aborted_{false};
    std::atomic<std::int64_t>             default_timeout_ms_{-1};
    std::unique_ptr<FaultState>           faults_;
    std::unique_ptr<Scheduler>            sched_;
    std::unique_ptr<l5check::Checker>     checker_;
};

} // namespace simmpi::detail
