#pragma once

// l5race: predictive concurrency analysis for the coop-scheduled runtime.
//
// Two analyses share one instrumentation layer, armed via L5_RACE (or
// programmatically through simmpi::RunOptions::race):
//
//  1. A hybrid lockset + vector-clock race detector over explicitly
//     annotated shared cells (L5_SHARED_READ / L5_SHARED_WRITE). The
//     happens-before relation is deliberately *strong*: only thread
//     spawn/join, seq_cst atomic publish/consume pairs, and mailbox
//     envelope handoffs create edges. Lock release->acquire and cv
//     notify->wake do NOT — instead, locks enter per-thread locksets and
//     a pair of conflicting accesses is excused only when a common lock
//     covers both. A race found this way is *predicted*: it holds in
//     every feasible schedule, not just the one that ran, which is what
//     lets one seeded run generalize over the swept schedule space (and
//     what TSan cannot do under L5_SCHED, where the coop scheduler
//     serializes threads).
//
//  2. A lockdep-style lock-order analysis over CoopLock/Guard (and
//     pseudo-lock, e.g. mvcc::ReadSection) acquisitions: a global graph
//     of lock-class order edges, cycle detection ("this run never
//     deadlocked, but these two sites can"), declared forbidden edges
//     (the serve-lock-after-pin invariant as a graph rule), and a
//     lock-across-wait lint for cv-style waits that hold anything beyond
//     exactly one level of the wait's own mutex (the dones_cv_ hang
//     shape: the cv releases one level, so anything extra can deadlock
//     the waker).
//
// Every hook costs one relaxed atomic load when disarmed, mirroring
// l5check. This header depends only on simmpi/error.hpp so the check
// library stays below libsimmpi in the layering.

#include <simmpi/error.hpp>

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

namespace l5race {

/// A predicted race / lock-order violation escalated to an error
/// (Action::raise). `kind()` is the machine-readable category:
/// "predicted-race", "lockdep-cycle", "lockdep-rule", "lock-across-wait".
class RaceError : public simmpi::Error {
public:
    RaceError(std::string kind, const std::string& text)
        : simmpi::Error("l5race: " + text), kind_(std::move(kind)) {}

    const std::string& kind() const { return kind_; }

private:
    std::string kind_;
};

/// One finding. `site_a` is the earlier/holding site, `site_b` the
/// access/acquisition that completed the pattern; findings are deduped
/// process-wide by (kind, site_a, site_b).
struct Diagnostic {
    std::string kind;
    std::string site_a;
    std::string site_b;
    std::string message;
    std::string repro; ///< copy-pasteable L5_SCHED line when a deterministic schedule is active

    std::string text() const;
};

/// Detector configuration, from RunOptions::race or the environment:
///
///   L5_RACE=0|off      — disarmed (default)
///   L5_RACE=1|raise    — first finding throws RaceError at the site
///   L5_RACE=report     — findings collect; printed + exported at finalize
///   L5_RACE_OUT=<path> — additionally write a machine-readable report
///                        (one tab-separated finding per line) at
///                        finalize; mh5sched --race aggregates these
struct RaceConfig {
    enum class Action {
        report, ///< collect diagnostics, never throw
        raise,  ///< throw RaceError at the first finding
    };

    Action      action = Action::raise;
    std::string out_path; ///< empty = no report file

    static std::optional<RaceConfig> from_env();
};

namespace detail {
extern std::atomic<int> g_armed;

void lock_acquired_impl(const void* m, const char* site, const char* lock_class, bool pseudo);
void lock_released_impl(const void* m);
void declare_lock_impl(const void* m, const char* lock_class);
void forbid_edge_impl(const char* holder_class, const char* acquired_class, const char* why);
void on_access_impl(const void* obj, const char* cell, bool is_write, const char* site);
void on_cv_block_impl(const void* wait_mutex, const char* site);
std::uint64_t publish_token_impl();
void consume_token_impl(std::uint64_t token);
void atomic_publish_impl(const void* chan);
void atomic_consume_impl(const void* chan);
void thread_exit_impl();
void thread_joined_impl(std::thread::id id);
} // namespace detail

/// One relaxed load: is any detector state being collected?
inline bool armed() { return detail::g_armed.load(std::memory_order_relaxed) != 0; }

// --- lock instrumentation (CoopLock, Guard, explicit holds) -----------------

/// The calling thread acquired mutex `m` at `site`. `lock_class` names
/// the lockdep class on first sight (defaults to the first-acquire site
/// string). Recursive re-acquisition nests. May throw RaceError (raise
/// mode) on a lock-order violation — call it *after* the physical lock
/// so unwinding stays consistent.
inline void lock_acquired(const void* m, const char* site, const char* lock_class = nullptr) {
    if (armed()) detail::lock_acquired_impl(m, site, lock_class, false);
}
inline void lock_released(const void* m) {
    if (armed()) detail::lock_released_impl(m);
}

/// A pseudo-lock (e.g. mvcc::ReadSection): participates in the lockdep
/// graph and forbidden-edge rules but is excluded from race-excusing
/// locksets (many threads may "hold" it at once) and from the
/// lock-across-wait lint.
inline void pseudo_lock_acquired(const void* m, const char* site, const char* lock_class) {
    if (armed()) detail::lock_acquired_impl(m, site, lock_class, true);
}
inline void pseudo_lock_released(const void* m) {
    if (armed()) detail::lock_released_impl(m);
}

/// Name `m`'s lockdep class explicitly (e.g. "dist_vol.mutex").
inline void declare_lock(const void* m, const char* lock_class) {
    if (armed()) detail::declare_lock_impl(m, lock_class);
}

/// Declare that acquiring a lock of class `acquired_class` while holding
/// one of `holder_class` is always a bug, even before any cycle exists
/// (the serve-lock-after-pin invariant as a graph edge rule).
inline void forbid_edge(const char* holder_class, const char* acquired_class, const char* why) {
    if (armed()) detail::forbid_edge_impl(holder_class, acquired_class, why);
}

/// A held mutex, announced to l5race by the same object: the constructor
/// locks and then reports the acquisition; the destructor reports the
/// release and then unlocks. Every local declared after it is destroyed
/// inside both the real hold and lockdep's view of it, and nothing can be
/// declared between the two. `lock()` hands condition-variable waits the
/// underlying std::unique_lock.
///
///   l5race::AnnouncedLock lock(mutex_, "Mailbox::push", "mailbox.mutex");
template <class Mutex>
class AnnouncedLock {
public:
    AnnouncedLock(Mutex& m, const char* site, const char* lock_class = nullptr) : lk_(m) {
        if (armed()) {
            detail::lock_acquired_impl(&m, site, lock_class, false);
            m_ = &m;
        }
    }
    ~AnnouncedLock() {
        if (m_) lock_released(m_);
    }
    AnnouncedLock(const AnnouncedLock&)            = delete;
    AnnouncedLock& operator=(const AnnouncedLock&) = delete;

    std::unique_lock<Mutex>& lock() { return lk_; }

private:
    std::unique_lock<Mutex> lk_;
    const void*             m_ = nullptr;
};

// --- shared-cell access hooks -----------------------------------------------

inline void on_read(const void* obj, const char* cell, const char* site) {
    if (armed()) detail::on_access_impl(obj, cell, false, site);
}
inline void on_write(const void* obj, const char* cell, const char* site) {
    if (armed()) detail::on_access_impl(obj, cell, true, site);
}

/// Annotate an access to a shared cell: `obj` scopes the instance, `cell`
/// names the field, `site` the access point. One relaxed load when
/// disarmed.
#define L5_SHARED_READ(obj, cell, site) ::l5race::on_read((obj), (cell), (site))
#define L5_SHARED_WRITE(obj, cell, site) ::l5race::on_write((obj), (cell), (site))

// --- happens-before edges ---------------------------------------------------

/// One-shot handoff channel (mailbox envelope, thread spawn): the sender
/// publishes its clock under a fresh token, the receiver consumes it.
/// Returns 0 when disarmed; consume of 0 (or an already-consumed token)
/// is a no-op.
inline std::uint64_t publish_token() {
    return armed() ? detail::publish_token_impl() : 0;
}
inline void consume_token(std::uint64_t token) {
    if (token != 0 && armed()) detail::consume_token_impl(token);
}

/// Accumulating channel keyed by object address (a seq_cst atomic):
/// store/RMW publishes, load/RMW consumes.
inline void atomic_publish(const void* chan) {
    if (armed()) detail::atomic_publish_impl(chan);
}
inline void atomic_consume(const void* chan) {
    if (armed()) detail::atomic_consume_impl(chan);
}
inline void atomic_rmw(const void* chan) {
    if (armed()) {
        detail::atomic_consume_impl(chan);
        detail::atomic_publish_impl(chan);
    }
}

/// Thread termination/join edges: the dying thread publishes on a channel
/// keyed by its std::thread::id; the joiner consumes it after join().
inline void thread_exit() {
    if (armed()) detail::thread_exit_impl();
}
inline void thread_joined(std::thread::id id) {
    if (armed()) detail::thread_joined_impl(id);
}

// --- cv-wait lint -----------------------------------------------------------

/// Called at every coop_wait/coop_wait_deadline site with the address of
/// the wait's own mutex. Reports "lock-across-wait" when the calling
/// thread holds any instrumented lock beyond exactly one level of that
/// mutex. Mailbox message waits are deliberately exempt (sync serve
/// legitimately blocks on a mailbox holding the serve mutex).
inline void on_cv_block(const void* wait_mutex, const char* site) {
    if (armed()) detail::on_cv_block_impl(wait_mutex, site);
}

// --- lifecycle --------------------------------------------------------------

/// Arm the process-wide detector; returns false (and changes nothing)
/// when already armed, so nested Runtime::runs share the outer arming.
bool arm(const RaceConfig& cfg);

/// Install the repro-line hook (Runtime wires the active L5_SCHED spec).
void set_repro_hook(std::function<std::string()> hook);

/// Report + export collected findings, write the L5_RACE_OUT file, then
/// reset all detector state and disarm. Never throws: in raise mode the
/// first finding already threw at its site.
void finalize();

/// Findings of the most recently finalized armed run (process-wide, for
/// tests — mirrors l5check::last_check_diagnostics).
std::vector<Diagnostic> last_race_diagnostics();

} // namespace l5race
