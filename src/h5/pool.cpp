#include "pool.hpp"

#include "check/race.hpp"
#include "obs/metrics.hpp"

#include <algorithm>
#include <deque>
#include <mutex>

namespace h5 {
namespace {

using Buffers = std::vector<std::vector<std::byte>>;

/// The process-wide piece pool. Its mutex is the lockdep leaf class
/// "h5.pool": nothing under it takes another lock or frees a buffer.
struct Pool {
    std::mutex                         mutex;
    std::deque<std::vector<std::byte>> held; ///< oldest first
    std::size_t                        held_bytes = 0;
    std::size_t                        live       = 0; ///< handed out, not yet given back
    /// High-water mark of `live`, raised by a miss only once its fresh
    /// allocation is complete: a buffer given back meanwhile is surplus
    std::size_t peak = 0;
    int         vols = 0; ///< live VOL instances

    obs::Counter& hits       = obs::Registry::global().counter("pool.hits");
    obs::Counter& misses     = obs::Registry::global().counter("pool.misses");
    obs::Gauge&   bytes_held = obs::Registry::global().gauge("pool.bytes_held");

    /// Evict oldest-first into `out` until held + live fit under `limit`.
    void trim(Buffers& out, std::size_t limit) {
        while (!held.empty() && held_bytes + live > limit) {
            held_bytes -= held.front().size();
            out.push_back(std::move(held.front()));
            held.pop_front();
        }
        bytes_held.set(static_cast<std::int64_t>(held_bytes));
    }
};

/// The pool's mutex, held and announced to l5race. Evicted buffers go to
/// a `Buffers` declared before it, so they are freed after unlock.
struct Locked {
    static Pool& pool() {
        static Pool* p = new Pool; // never destroyed: trees may die during static teardown
        return *p;
    }
    Pool&                             p = pool();
    l5race::AnnouncedLock<std::mutex> lk;
    explicit Locked(const char* site) : lk(p.mutex, site, "h5.pool") {
        L5_SHARED_WRITE(&p, "held", site);
    }
};

} // namespace

std::vector<std::byte> take_piece_bytes(std::size_t n) {
    if (n < piece_pool_floor) return std::vector<std::byte>(n);
    std::vector<std::byte> buf;
    {
        Buffers evicted; // freed before a miss allocates its own
        Locked  l("pool/take");
        l.p.live += n;
        // newest first: its pages are the likeliest to still be cached
        for (auto it = l.p.held.rbegin(); it != l.p.held.rend(); ++it)
            if (it->size() == n) {
                buf = std::move(*it);
                l.p.held.erase(std::next(it).base());
                l.p.held_bytes -= n;
                break;
            }
        (buf.empty() ? l.p.misses : l.p.hits).inc();
        l.p.trim(evicted, std::max(l.p.peak, l.p.live));
    }
    if (!buf.empty()) return buf;
    buf.resize(n);
    Locked l("pool/take");
    l.p.peak = std::max(l.p.peak, l.p.live);
    return buf;
}

void give_piece_bytes(std::vector<std::byte>&& buf) noexcept {
    const std::size_t n = buf.size();
    if (n < piece_pool_floor) return;
    Buffers evicted;
    Locked  l("pool/give");
    l.p.live -= std::min(l.p.live, n);
    if (l.p.vols > 0 && buf.capacity() == n) {
        l.p.held.push_back(std::move(buf));
        l.p.held_bytes += n;
    }
    l.p.trim(evicted, l.p.peak);
}

PiecePoolStats piece_pool_stats() {
    Locked l("pool/stats");
    return {l.p.held_bytes, l.p.live, l.p.peak};
}

void count_vol(int delta) noexcept {
    Buffers drained;
    Locked  l("pool/count_vol");
    if ((l.p.vols += delta) == 0) l.p.trim(drained, 0);
}

} // namespace h5
