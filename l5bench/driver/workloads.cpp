/// The four workloads as task bodies of one workflow: 2 producer and 2
/// consumer rank-threads. Only public API is called, and every call is
/// timed from outside into the rank's UnitRec.

#include "bench.hpp"

#include <h5/api.hpp>
#include <lowfive/stream/stream.hpp>
#include <workflow/workflow.hpp>

#include <cstdio>
#include <filesystem>

namespace l5bench {

namespace {

constexpr const char* grid_file   = "l5bench_grid.h5";
constexpr const char* many_file   = "l5bench_many.h5";
constexpr const char* stream_file = "l5bench_steps.h5";

// dataset ids in unit_key(): grid and particles, then many_datasets' ids
constexpr std::uint64_t grid_id = 0, particles_id = 1, first_many_id = 16;

// --- timing -------------------------------------------------------------------

/// Run `f`, adding its duration to `r.api[a]`.
template <class F>
decltype(auto) timed(UnitRec& r, Api a, F&& f) {
    struct Stop {
        UnitRec& r;
        Api      a;
        double   t0;
        ~Stop() { r.api[a] += now_s() - t0; }
    } stop{r, a, now_s()};
    return f();
}

// --- decomposition ------------------------------------------------------------

/// Start of part i of n elements split into `parts` near-equal parts.
std::int64_t split(std::uint64_t n, int parts, int i) {
    return static_cast<std::int64_t>(n * static_cast<std::uint64_t>(i)
                                     / static_cast<std::uint64_t>(parts));
}

diy::Bounds full_box(const std::vector<std::uint64_t>& dims) {
    diy::Bounds b(static_cast<int>(dims.size()));
    for (std::size_t d = 0; d < dims.size(); ++d) b.max[d] = static_cast<std::int64_t>(dims[d]);
    return b;
}

/// Producers own x-slabs (dim 0), consumers z-slabs (the last dim): the
/// decompositions cross, so every consumer reads strided pieces of short
/// runs from every producer.
diy::Bounds grid_box(const std::vector<std::uint64_t>& dims, bool producer, int rank) {
    diy::Bounds       b   = full_box(dims);
    const std::size_t dim = producer ? 0 : dims.size() - 1;
    b.min[dim]            = split(dims[dim], producer ? nprod : ncons, rank);
    b.max[dim]            = split(dims[dim], producer ? nprod : ncons, rank + 1);
    return b;
}

h5::Dataspace box_space(const std::vector<std::uint64_t>& dims, const diy::Bounds& b) {
    h5::Dataspace s(dims);
    s.select_box(b);
    return s;
}

/// Call fn(global row-major offset, length, packed offset) for every row
/// (run along the last dim) of box `b` in row-major order.
template <class F>
void for_rows(const std::vector<std::uint64_t>& dims, const diy::Bounds& b, F&& fn) {
    const std::size_t nd = dims.size();
    const auto        row = static_cast<std::uint64_t>(b.max[nd - 1] - b.min[nd - 1]);
    if (b.size() == 0) return;
    std::vector<std::int64_t> idx(b.min.begin(), b.min.begin() + static_cast<std::ptrdiff_t>(nd));
    std::uint64_t             packed = 0;
    for (;;) {
        std::uint64_t off = 0;
        for (std::size_t d = 0; d < nd; ++d)
            off = off * dims[d] + static_cast<std::uint64_t>(idx[d]);
        fn(off, row, packed);
        packed += row;
        std::size_t d = nd - 1;
        for (;;) {
            if (d == 0) return;
            --d;
            if (++idx[d] < b.max[d]) break;
            idx[d] = b.min[d];
        }
    }
}

void fill_box(std::uint64_t key, const std::vector<std::uint64_t>& dims, const diy::Bounds& b,
              std::uint64_t* out) {
    for_rows(dims, b, [&](std::uint64_t off, std::uint64_t n, std::uint64_t p) {
        for (std::uint64_t k = 0; k < n; ++k) out[p + k] = value_at(key, off + k);
    });
}

std::uint64_t check_box(std::uint64_t key, const std::vector<std::uint64_t>& dims,
                        const diy::Bounds& b, const std::uint64_t* in) {
    std::uint64_t bad = 0;
    for_rows(dims, b, [&](std::uint64_t off, std::uint64_t n, std::uint64_t p) {
        for (std::uint64_t k = 0; k < n; ++k) bad += in[p + k] != value_at(key, off + k);
    });
    return bad;
}

/// Particles [lo, hi) as float32x3 records.
void fill_particles(std::uint64_t key, std::uint64_t lo, std::uint64_t hi, float* out) {
    for (std::uint64_t i = 3 * lo; i < 3 * hi; ++i) out[i - 3 * lo] = fvalue_at(key, i);
}

std::uint64_t check_particles(std::uint64_t key, std::uint64_t lo, std::uint64_t hi,
                              const float* in) {
    std::uint64_t bad = 0;
    for (std::uint64_t i = 3 * lo; i < 3 * hi; ++i) bad += in[i - 3 * lo] != fvalue_at(key, i);
    return bad;
}

/// The 1-d selection [lo, hi) of an n-element dataset.
h5::Dataspace range_space(std::uint64_t n, std::uint64_t lo, std::uint64_t hi) {
    diy::Bounds b(1);
    b.min[0] = static_cast<std::int64_t>(lo);
    b.max[0] = static_cast<std::int64_t>(hi);
    return box_space({n}, b);
}

h5::Datatype particle_type() {
    return h5::Datatype::compound(12)
        .insert("x", 0, h5::dt::float32())
        .insert("y", 4, h5::dt::float32())
        .insert("z", 8, h5::dt::float32());
}

/// One read's outcome into the record: attempted, and failed on any
/// mismatching element.
void tally(UnitRec& r, std::uint64_t mismatches, std::uint64_t bytes) {
    ++r.attempted;
    if (mismatches) ++r.failed;
    r.bytes += bytes;
}

// --- one session's rank body ---------------------------------------------------

struct RankCtx {
    workflow::Context& ctx;
    const Shape&       s;
    const SessionSpec& sp;
    Buffers&           buf;
    RankLog&           log;
    std::vector<double>& walls; ///< the session's round walls (world rank 0)
    bool               producer;
    int                rank; ///< within its task

    /// The dataset key producers write for `unit` (stale injection aside).
    std::uint64_t write_key(std::uint64_t unit, std::uint64_t id) const {
        const bool stale = producer && rank == 0 && unit == sp.stale_unit && unit > 0;
        return unit_key(sp.seed, stale ? unit - 1 : unit, id);
    }

    std::uint64_t particle_lo(int r) const {
        return static_cast<std::uint64_t>(split(s.particles, producer ? nprod : ncons, r));
    }

    // grid_crossed / file_passthru ---------------------------------------------

    void fill_grid(std::uint64_t unit) {
        fill_box(write_key(unit, grid_id), s.grid, grid_box(s.grid, true, rank), buf.grid.data());
        fill_particles(write_key(unit, particles_id), particle_lo(rank), particle_lo(rank + 1),
                       buf.particles.data());
    }

    void produce_grid(UnitRec& r) {
        const std::uint64_t lo = particle_lo(rank), hi = particle_lo(rank + 1);
        h5::File f  = timed(r, Create, [&] { return h5::File::create(grid_file, ctx.vol); });
        auto     dg = timed(r, Create, [&] {
            return f.create_group("grid").create_dataset("values", h5::dt::uint64(),
                                                         h5::Dataspace(s.grid));
        });
        auto dp = timed(r, Create, [&] {
            return f.create_group("particles").create_dataset("xyz", particle_type(),
                                                              h5::Dataspace({s.particles}));
        });
        const auto gsel = box_space(s.grid, grid_box(s.grid, true, rank));
        timed(r, Write, [&] { dg.write(buf.grid.data(), gsel); });
        const auto psel = range_space(s.particles, lo, hi);
        timed(r, Write, [&] { dp.write(buf.particles.data(), psel); });
        r.publish = now_s();
        timed(r, CloseProducer, [&] {
            f.close();
            ctx.vol->drop_file(grid_file);
        });
    }

    void consume_grid(UnitRec& r) {
        const std::uint64_t lo = particle_lo(rank), hi = particle_lo(rank + 1);
        h5::File   f    = timed(r, Open, [&] { return h5::File::open(grid_file, ctx.vol); });
        auto       dg   = timed(r, OpenDataset, [&] { return f.open_dataset("grid/values"); });
        const auto gsel = box_space(s.grid, grid_box(s.grid, false, rank));
        timed(r, Read, [&] { dg.read(buf.grid.data(), gsel); });
        auto       dp   = timed(r, OpenDataset, [&] { return f.open_dataset("particles/xyz"); });
        const auto psel = range_space(s.particles, lo, hi);
        timed(r, Read, [&] { dp.read(buf.particles.data(), psel); });
        timed(r, CloseConsumer, [&] { f.close(); });
        r.delivered = now_s();
    }

    void check_grid(std::uint64_t unit, UnitRec& r) {
        const auto          box = grid_box(s.grid, false, rank);
        const std::uint64_t lo = particle_lo(rank), hi = particle_lo(rank + 1);
        tally(r, check_box(unit_key(sp.seed, unit, grid_id), s.grid, box, buf.grid.data()),
              box.size() * 8);
        tally(r, check_particles(unit_key(sp.seed, unit, particles_id), lo, hi,
                                 buf.particles.data()),
              (hi - lo) * 12);
        if (rank == 0) r.datasets = 2;
    }

    // many_datasets ----------------------------------------------------------

    std::uint64_t many_lo(int r) const {
        return static_cast<std::uint64_t>(split(s.dset_len, nprod, r));
    }
    std::uint64_t many_id(int g, int d) const {
        return first_many_id + static_cast<std::uint64_t>(g * s.dsets + d);
    }
    static std::string name2(char c, int i) {
        char b[16];
        std::snprintf(b, sizeof b, "%c%02d", c, i);
        return b;
    }

    void fill_many(std::uint64_t unit) {
        const std::uint64_t lo = many_lo(rank), n = many_lo(rank + 1) - lo;
        for (int g = 0; g < s.groups; ++g)
            for (int d = 0; d < s.dsets; ++d) {
                const std::uint64_t key = write_key(unit, many_id(g, d));
                std::uint64_t*      out =
                    buf.grid.data() + static_cast<std::uint64_t>(g * s.dsets + d) * n;
                for (std::uint64_t k = 0; k < n; ++k) out[k] = value_at(key, lo + k);
            }
    }

    void produce_many(std::uint64_t unit, UnitRec& r) {
        const std::uint64_t lo = many_lo(rank), n = many_lo(rank + 1) - lo;
        const auto          sel = range_space(s.dset_len, lo, lo + n);
        h5::File f = timed(r, Create, [&] { return h5::File::create(many_file, ctx.vol); });
        for (int g = 0; g < s.groups; ++g) {
            auto grp = timed(r, Create, [&] { return f.create_group(name2('g', g)); });
            for (int d = 0; d < s.dsets; ++d) {
                auto ds = timed(r, Create, [&] {
                    return grp.create_dataset(name2('d', d), h5::dt::uint64(),
                                              h5::Dataspace({s.dset_len}));
                });
                const std::uint64_t* in =
                    buf.grid.data() + static_cast<std::uint64_t>(g * s.dsets + d) * n;
                timed(r, Write, [&] {
                    ds.write(in, sel);
                    ds.write_attribute("key", unit_key(sp.seed, unit, many_id(g, d)));
                });
            }
        }
        r.publish = now_s();
        timed(r, CloseProducer, [&] {
            f.close();
            ctx.vol->drop_file(many_file);
        });
    }

    /// Every consumer rank opens every dataset and reads it whole.
    void consume_many(UnitRec& r, std::vector<std::uint64_t>& keys) {
        keys.assign(static_cast<std::size_t>(s.groups * s.dsets), 0);
        h5::File f = timed(r, Open, [&] { return h5::File::open(many_file, ctx.vol); });
        for (int g = 0; g < s.groups; ++g) {
            auto grp = timed(r, OpenDataset, [&] { return f.open_group(name2('g', g)); });
            for (int d = 0; d < s.dsets; ++d) {
                const auto i  = static_cast<std::size_t>(g * s.dsets + d);
                auto       ds =
                    timed(r, OpenDataset, [&] { return grp.open_dataset(name2('d', d)); });
                timed(r, Read, [&] {
                    ds.read(buf.grid.data() + i * s.dset_len);
                    keys[i] = ds.read_attribute<std::uint64_t>("key");
                });
            }
        }
        timed(r, CloseConsumer, [&] { f.close(); });
        r.delivered = now_s();
    }

    void check_many(std::uint64_t unit, UnitRec& r, const std::vector<std::uint64_t>& keys) {
        for (int g = 0; g < s.groups; ++g)
            for (int d = 0; d < s.dsets; ++d) {
                const auto          i   = static_cast<std::size_t>(g * s.dsets + d);
                const std::uint64_t key = unit_key(sp.seed, unit, many_id(g, d));
                const std::uint64_t* in = buf.grid.data() + i * s.dset_len;
                std::uint64_t        bad = keys[i] != key;
                for (std::uint64_t k = 0; k < s.dset_len; ++k) bad += in[k] != value_at(key, k);
                tally(r, bad, s.dset_len * 8);
            }
        if (rank == 0) r.datasets = static_cast<std::uint64_t>(s.groups * s.dsets);
    }

    // rounds: grid_crossed, file_passthru, many_datasets -------------------------

    /// One round runs from the barrier before the producers' File::create
    /// to the barrier after the consumers' File::close; inputs are made
    /// before it and outputs checked after it.
    void rounds() {
        const simmpi::Comm&        world = ctx.world;
        std::vector<std::uint64_t> keys;
        for (std::uint64_t u = 0;; ++u) {
            const bool more = u < sp.max_units && (u < sp.min_units || now_s() < sp.deadline);
            const int  go   = world.bcast_value<int>(world.rank() == 0 && more, 0);
            if (!go) break;
            const std::uint64_t unit = sp.unit_base + u;
            if (producer) s.workload == Workload::ManyDatasets ? fill_many(unit) : fill_grid(unit);
            UnitRec r;
            world.barrier();
            r.begin = now_s();
            if (s.workload == Workload::ManyDatasets)
                producer ? produce_many(unit, r) : consume_many(r, keys);
            else
                producer ? produce_grid(r) : consume_grid(r);
            r.end = now_s();
            world.barrier();
            if (world.rank() == 0) walls.push_back(now_s() - r.begin);
            if (!producer) {
                if (s.workload == Workload::ManyDatasets)
                    check_many(unit, r, keys);
                else
                    check_grid(unit, r);
            }
            log.units.push_back(r);
        }
    }

    // stream_steps -----------------------------------------------------------

    void stream_steps() {
        const auto box = grid_box(s.grid, producer, rank);
        const auto sel = box_space(s.grid, box);
        if (producer) {
            lowfive::stream::Writer w(ctx.vol, stream_file);
            for (std::uint64_t u = 0; u < sp.max_units; ++u) {
                // producer rank 0 decides for both every 8 steps, so the
                // two publish the same number of steps
                if (u % 8 == 0
                    && !ctx.local.bcast_value<int>(
                        rank == 0 && (u < sp.min_units || now_s() < sp.deadline), 0))
                    break;
                const std::uint64_t unit = sp.unit_base + u;
                fill_box(write_key(unit, grid_id), s.grid, box, buf.grid.data());
                UnitRec r;
                r.begin    = now_s();
                h5::File& f = timed(r, BeginStep, [&]() -> h5::File& { return w.begin_step(); });
                auto      d = timed(r, Create, [&] {
                    return f.create_dataset("v", h5::dt::uint64(), h5::Dataspace(s.grid));
                });
                timed(r, Write, [&] { d.write(buf.grid.data(), sel); });
                timed(r, EndStep, [&] { w.end_step(); });
                r.end = r.publish = now_s();
                log.units.push_back(r);
                if (u % 64 == 0) sample_live();
            }
            w.close();
        } else {
            lowfive::stream::Reader rd(ctx.vol, stream_file);
            for (std::uint64_t u = 0;; ++u) {
                UnitRec r;
                r.begin = now_s();
                if (!timed(r, NextStep, [&] { return rd.next_step(); })) break;
                auto d = timed(r, OpenDataset, [&] { return rd.file().open_dataset("v"); });
                timed(r, Read, [&] { d.read(buf.grid.data(), sel); });
                const std::uint64_t unit = sp.unit_base + u;
                // a skipped or repeated step is a failed read as well
                const bool in_order = rd.current_step().value() == u;
                tally(r, check_box(unit_key(sp.seed, unit, grid_id), s.grid, box, buf.grid.data())
                             + !in_order,
                      box.size() * 8);
                if (rank == 0) r.datasets = 1;
                r.end = r.delivered = now_s();
                log.units.push_back(r);
            }
            rd.close();
        }
    }

    void sample_live() {
        const auto snap = ctx.vol->metrics().snapshot();
        if (auto it = snap.gauges.find("n_snapshots_live"); it != snap.gauges.end())
            log.snapshots_live_max = std::max(log.snapshots_live_max, it->second);
    }
};

} // namespace

std::uint64_t Shape::grid_points() const {
    std::uint64_t n = grid.empty() ? 0 : 1;
    for (auto d : grid) n *= d;
    return n;
}

Shape Shape::make(Workload w, bool tiny) {
    Shape s;
    s.workload = w;
    switch (w) {
    case Workload::GridCrossed: // 64 MiB grid + 3 MiB particles (the file_passthru shape)
        s.grid        = tiny ? h5::Extent{8, 8, 6} : h5::Extent{256, 256, 128};
        s.particles   = tiny ? 100 : 1u << 18;
        s.trace_units = 3;
        break;
    case Workload::FilePassthru: // 64 MiB grid + 3 MiB particles: fits the page cache
        s.grid        = tiny ? h5::Extent{8, 8, 6} : h5::Extent{256, 256, 128};
        s.particles   = tiny ? 100 : 1u << 18;
        s.trace_units = 3;
        break;
    case Workload::ManyDatasets: // 32 groups x 32 datasets of 1024 uint64
        s.groups      = tiny ? 3 : 32;
        s.dsets       = tiny ? 4 : 32;
        s.dset_len    = tiny ? 64 : 1024;
        s.trace_units = 2;
        break;
    case Workload::StreamSteps: // 1 MiB steps
        s.grid        = tiny ? h5::Extent{8, 16} : h5::Extent{256, 512};
        s.trace_units = tiny ? 16 : 1000;
        break;
    }
    return s;
}

double SessionLog::setup_s() const {
    double last = 0;
    for (double e : entered) last = std::max(last, e);
    return last - t_call;
}

void run_session(const Shape& s, const SessionSpec& sp, std::vector<Buffers>& buffers,
                 SessionLog& log) {
    const int world_size = nprod + ncons;
    log.entered.assign(world_size, 0);
    log.ranks.assign(world_size, RankLog{});

    auto body = [&](workflow::Context& ctx) {
        const int wr    = ctx.world.rank();
        log.entered[wr] = now_s();
        if (sp.bare) return;
        RankCtx rc{ctx,       s,
                   sp,        buffers[static_cast<std::size_t>(wr)],
                   log.ranks[static_cast<std::size_t>(wr)], log.walls,
                   ctx.task_index == 0, ctx.rank()};
        if (s.stream())
            rc.stream_steps();
        else
            rc.rounds();
        ctx.world.barrier();
        rc.log.vol = ctx.vol->metrics().snapshot();
    };

    workflow::Options opts;
    opts.mode = s.file_mode() ? workflow::Mode::file() : workflow::Mode::in_situ();

    auto& tracer      = obs::Tracer::instance();
    log.global_before = obs::Registry::global().snapshot();
    if (log.traced) {
        tracer.clear();
        tracer.set_enabled(true);
    }
    log.t_call = now_s();
    try {
        workflow::run({{"producer", nprod, body}, {"consumer", ncons, body}},
                      {workflow::Link{0, 1, "*"}}, opts);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "l5bench: session failed: %s\n", e.what());
        log.crashed = true;
    }
    if (log.traced) {
        tracer.set_enabled(false);
        log.events         = tracer.snapshot();
        log.dropped_events = tracer.dropped();
        tracer.clear();
    }
    log.global_after = obs::Registry::global().snapshot();
    if (s.file_mode()) std::filesystem::remove(grid_file);
}

std::vector<Buffers> make_buffers(const Shape& s) {
    std::vector<Buffers> b(nprod + ncons);
    for (int wr = 0; wr < nprod + ncons; ++wr) {
        const bool producer = wr < nprod;
        const int  rank     = producer ? wr : wr - nprod;
        auto&      x        = b[static_cast<std::size_t>(wr)];
        if (s.workload == Workload::ManyDatasets) {
            const std::uint64_t per =
                producer ? static_cast<std::uint64_t>(split(s.dset_len, nprod, rank + 1)
                                                      - split(s.dset_len, nprod, rank))
                         : s.dset_len;
            x.grid.assign(static_cast<std::size_t>(s.groups * s.dsets) * per, 0);
        } else {
            x.grid.assign(grid_box(s.grid, producer, rank).size(), 0);
            const int           parts = producer ? nprod : ncons;
            const std::uint64_t lo = static_cast<std::uint64_t>(split(s.particles, parts, rank));
            const std::uint64_t hi =
                static_cast<std::uint64_t>(split(s.particles, parts, rank + 1));
            x.particles.assign(3 * (hi - lo), 0.0f);
        }
    }
    return b;
}

} // namespace l5bench
