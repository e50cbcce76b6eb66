/// Folding session records into the benchmark's metrics. Every timing
/// quantile comes from the sorted raw samples, never from the program's
/// log2-bucketed obs::Histogram.

#include "bench.hpp"

#include <algorithm>
#include <cstring>
#include <map>

namespace l5bench {

double quantile(std::vector<double> v, double q) {
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    const double      pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo  = static_cast<std::size_t>(pos);
    if (lo + 1 >= v.size()) return v.back();
    return v[lo] + (pos - static_cast<double>(lo)) * (v[lo + 1] - v[lo]);
}

namespace {

bool producer_rank(std::size_t wr) { return wr < static_cast<std::size_t>(nprod); }

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// The per-unit (round or step) view of one session.
struct Units {
    std::vector<double> wall, stall, read, latency;
    double              span = 0; ///< measured wall time of the session
    std::uint64_t       bytes = 0, datasets = 0, attempted = 0, failed = 0, n = 0;
};

template <class F>
double side_max(const SessionLog& s, bool producer, std::size_t u, F&& f) {
    double m = 0;
    for (std::size_t wr = 0; wr < s.ranks.size(); ++wr)
        if (producer_rank(wr) == producer && u < s.ranks[wr].units.size())
            m = std::max(m, f(s.ranks[wr].units[u]));
    return m;
}

Units units_of(const Shape& shape, const SessionLog& s) {
    Units out;
    std::size_t n_prod = ~std::size_t{0}, n_cons = ~std::size_t{0};
    for (std::size_t wr = 0; wr < s.ranks.size(); ++wr) {
        auto& n = producer_rank(wr) ? n_prod : n_cons;
        n       = std::min(n, s.ranks[wr].units.size());
        for (const auto& r : s.ranks[wr].units) {
            out.bytes += r.bytes;
            out.datasets += r.datasets;
            out.attempted += r.attempted;
            out.failed += r.failed;
        }
    }
    out.n = shape.stream() ? n_cons : s.walls.size();
    // a published step no consumer delivered is a failed step
    if (shape.stream() && n_prod > n_cons) {
        out.attempted += n_prod - n_cons;
        out.failed += n_prod - n_cons;
    }
    auto total     = [](const UnitRec& r) { return r.api_total(); };
    auto publish   = [](const UnitRec& r) { return r.publish; };
    auto delivered = [](const UnitRec& r) { return r.delivered; };
    for (std::size_t u = 0; u < out.n; ++u) {
        out.stall.push_back(side_max(s, true, u, total));
        out.read.push_back(side_max(s, false, u, total));
        const double done = side_max(s, false, u, delivered);
        out.latency.push_back(done - side_max(s, true, u, publish));
        if (!shape.stream()) {
            out.wall.push_back(s.walls[u]);
            out.span += s.walls[u];
        } else if (u > 0) {
            out.wall.push_back(done - side_max(s, false, u - 1, delivered));
        }
    }
    if (shape.stream() && out.n > 0) {
        double first = s.ranks[0].units.front().begin;
        for (std::size_t wr = 0; wr < static_cast<std::size_t>(nprod); ++wr)
            first = std::min(first, s.ranks[wr].units.front().begin);
        out.span = side_max(s, false, out.n - 1, delivered) - first;
    }
    return out;
}

void append(std::vector<double>& to, const std::vector<double>& from) {
    to.insert(to.end(), from.begin(), from.end());
}

std::uint64_t counter(const obs::Registry::Snapshot& s, const char* name) {
    auto it = s.counters.find(name);
    return it == s.counters.end() ? 0 : it->second;
}

/// Highest whole percentile with at least 10 samples above it, or 0.
int tail_percentile(std::vector<double> v) {
    std::sort(v.begin(), v.end());
    for (int p = 99; p >= 50; --p) {
        const double q = quantile(v, p / 100.0);
        const auto   above = v.end() - std::upper_bound(v.begin(), v.end(), q);
        if (above >= 10) return p;
    }
    return 0;
}

void describe(const char* name, const std::vector<double>& v) {
    const int tp = tail_percentile(v);
    std::printf("# samples %-16s n=%zu p50=%.6g p90=%.6g", name, v.size(), quantile(v, 0.5),
                quantile(v, 0.9));
    if (tp)
        std::printf(" p%d=%.6g (highest percentile with >= 10 samples above)\n", tp,
                    quantile(v, tp / 100.0));
    else
        std::printf(" (fewer than 20 samples: no tail percentile has 10 above)\n");
}

} // namespace

std::vector<Metric> end_to_end(const Shape& shape, const std::vector<SessionLog>& sessions,
                               const std::vector<std::vector<double>>& setup_groups,
                               double peak_rss_mib, Outcome& out) {
    // every sample of the run: each p50 is the median of all of them
    std::vector<double> setups, wall, stall, read, latency;
    std::uint64_t       bytes = 0, datasets = 0;
    for (const auto& g : setup_groups) append(setups, g);
    std::printf("# session round_s_p50:");
    for (const auto& s : sessions) {
        Units u = units_of(shape, s);
        append(wall, u.wall);
        append(stall, u.stall);
        append(read, u.read);
        append(latency, u.latency);
        out.units += u.n;
        out.attempted += u.attempted;
        out.failed += u.failed;
        bytes += u.bytes;
        datasets += u.datasets;
        if (!u.wall.empty()) std::printf(" %.6g", quantile(u.wall, 0.5));
    }
    // set-up: the quietest group's median; a spin-up is a few thread
    // start-ups, so a burst of outside load shifts a whole group
    std::printf("\n# set-up group medians:");
    double setup = 0;
    for (const auto& g : setup_groups) {
        const double m = quantile(g, 0.5);
        std::printf(" %.6g", m);
        if (setup == 0 || m < setup) setup = m;
    }
    std::printf("\n# peak_rss_mib %.6g (getrusage high-water mark, not gated)\n", peak_rss_mib);
    describe("setup_s", setups);
    describe("round_s", wall);
    describe("producer_stall_s", stall);
    describe("consumer_read_s", read);
    describe("step_latency_s", latency);

    const double failed   = static_cast<double>(out.failed);
    const double ok_ratio = out.attempted ? 1.0 - failed / static_cast<double>(out.attempted) : 0.0;
    // throughputs: bytes and datasets per unit at the median round
    const double round_p50 = quantile(wall, 0.5);
    const double units     = static_cast<double>(std::max<std::uint64_t>(out.units, 1));
    const double per_s     = round_p50 > 0 ? 1.0 / round_p50 : 0;
    return {
        {"setup_s", setup, "s"},
        {"round_s_p50", round_p50, "s"},
        {"producer_stall_s_p50", quantile(stall, 0.5), "s"},
        {"consumer_read_s_p50", quantile(read, 0.5), "s"},
        {"payload_GBps", static_cast<double>(bytes) / units * per_s / 1e9, "GB/s"},
        {"datasets_per_s", static_cast<double>(datasets) / units * per_s, "1/s"},
        {"steps_per_s", per_s, "1/s"},
        {"step_latency_s_p50", quantile(latency, 0.5), "s"},
        {"ops_ok_ratio", ok_ratio, "ratio"},
    };
}

namespace {

/// Per-layer name of each Api family (indexed by Api) and its side.
struct ApiLayer {
    const char* name;
    bool        producer;
};
constexpr ApiLayer api_layers[] = {
    {"h5.create_s", true},          {"h5.write_s", true},         {"h5.close_producer_s", true},
    {"h5.open_s", false},           {"h5.open_dataset_s", false}, {"h5.read_s", false},
    {"h5.close_consumer_s", false}, {"stream.begin_step_s", true}, {"stream.end_step_s", true},
    {"stream.next_step_s", false},
};
static_assert(std::size(api_layers) == kApis);

/// VOL registry counters, per unit, max over the ranks of one side.
struct VolLayer {
    const char* name;
    const char* counter;
    bool        producer;
    double      scale; ///< ns -> s, or 1 for counts
    const char* unit;
};
constexpr VolLayer vol_layers[] = {
    {"lowfive.index_s", "time_index_ns", true, 1e-9, "s"},
    {"lowfive.serve_s", "time_serve_ns", true, 1e-9, "s"},
    {"lowfive.query_s", "time_query_ns", false, 1e-9, "s"},
    {"lowfive.query_intersect_s", "time_query_intersect_ns", false, 1e-9, "s"},
    {"lowfive.query_data_s", "time_query_data_ns", false, 1e-9, "s"},
    {"lowfive.query_copy_s", "time_query_copy_ns", false, 1e-9, "s"},
    {"lowfive.intersect_queries", "n_intersect_queries", false, 1, "count"},
    {"lowfive.data_queries", "n_data_queries", false, 1, "count"},
    {"lowfive.bytes_served", "bytes_served", true, 1, "B"},
    {"lowfive.zero_copy_pieces", "n_zero_copy_pieces", true, 1, "count"},
    {"stream.publish_waits", "n_step_publish_waits", true, 1, "count"},
    {"stream.pin_rollbacks", "n_step_pin_rollbacks", false, 1, "count"},
    {"mvcc.snapshot_pins", "n_snapshot_pins", true, 1, "count"},
    {"mvcc.snapshot_gc", "n_snapshot_gc", true, 1, "count"},
};

/// simmpi totals of one trace lane, folded from the program's own spans.
struct Lane {
    double messages = 0, recv_s = 0, probe_any_s = 0, collective_s = 0;
};

bool starts_with(const char* s, const char* p) { return std::strncmp(s, p, std::strlen(p)) == 0; }

/// Fold one session's simmpi events into per-lane totals. Rank lanes
/// count only events inside the rank's own unit intervals (so the
/// benchmark's barriers stay out); lane -1 (threads outside a rank, i.e.
/// background serve threads) counts everything. pt2pt spans nested in a
/// collective count as collective time only.
std::map<int, Lane> fold_simmpi(const SessionLog& s) {
    std::map<int, Lane> lanes;
    std::map<int, std::vector<std::pair<std::uint64_t, const char*>>> open; // lane -> stack
    auto inside = [&](int lane, std::uint64_t ts) {
        if (lane < 0) return true;
        if (static_cast<std::size_t>(lane) >= s.ranks.size()) return false;
        const double t = static_cast<double>(ts) * 1e-9;
        for (const auto& u : s.ranks[static_cast<std::size_t>(lane)].units)
            if (t >= u.begin && t <= u.end) return true;
        return false;
    };
    for (const auto& e : s.events) {
        if (!e.cat || std::strcmp(e.cat, "simmpi") != 0) continue;
        auto& stack = open[e.rank];
        if (e.type == obs::EventType::Instant) {
            if (std::strcmp(e.name, "pt2pt.send") == 0 && inside(e.rank, e.ts_ns))
                lanes[e.rank].messages += 1;
        } else if (e.type == obs::EventType::Begin) {
            stack.emplace_back(e.ts_ns, e.name);
        } else if (e.type == obs::EventType::End) {
            if (stack.empty() || std::strcmp(stack.back().second, e.name) != 0) continue;
            const auto [t0, name] = stack.back();
            stack.pop_back();
            if (!inside(e.rank, t0)) continue;
            const bool in_coll = std::any_of(stack.begin(), stack.end(), [](const auto& o) {
                return starts_with(o.second, "coll.");
            });
            const double d = static_cast<double>(e.ts_ns - t0) * 1e-9;
            Lane&        l = lanes[e.rank];
            if (starts_with(name, "coll.")) {
                if (!in_coll) l.collective_s += d;
            } else if (!in_coll) {
                if (std::strcmp(name, "pt2pt.probe_any") == 0)
                    l.probe_any_s += d;
                else if (starts_with(name, "pt2pt.recv"))
                    l.recv_s += d;
            }
        }
    }
    return lanes;
}


} // namespace

std::vector<Metric> per_layer(const Shape& shape, const std::vector<SessionLog>& sessions,
                              Outcome& out) {
    const std::size_t world = nprod + ncons;
    // per-unit samples of each API family (max over side ranks)
    std::vector<std::vector<double>> api(kApis);
    // per world rank, summed over traced sessions
    std::vector<std::map<std::string, double>> vol(world);
    std::vector<double>                        api_sum(world, 0.0);
    std::map<int, Lane>                        lanes;
    std::map<std::string, double>              global;
    std::vector<double> traced_wall, untraced_wall;
    double              units = 0, span = 0;
    std::int64_t        live_max = 0;
    std::uint64_t       dropped = 0;

    for (const auto& s : sessions) {
        const Units u = units_of(shape, s);
        out.units += u.n;
        out.attempted += u.attempted;
        out.failed += u.failed;
        if (!s.traced) {
            append(untraced_wall, u.wall);
            continue;
        }
        append(traced_wall, u.wall);
        units += static_cast<double>(u.n);
        span += u.span;
        dropped += s.dropped_events;
        for (std::size_t i = 0; i < kApis; ++i)
            for (std::size_t k = 0; k < u.n; ++k)
                api[i].push_back(side_max(s, api_layers[i].producer, k,
                                          [&](const UnitRec& r) { return r.api[i]; }));
        for (std::size_t wr = 0; wr < world; ++wr) {
            const auto& r = s.ranks[wr];
            for (const auto& [name, v] : r.vol.counters) vol[wr][name] += static_cast<double>(v);
            for (std::size_t k = 0; k < std::min<std::size_t>(u.n, r.units.size()); ++k)
                api_sum[wr] += r.units[k].api_total();
            if (producer_rank(wr)) live_max = std::max(live_max, r.snapshots_live_max);
        }
        for (const char* c : {"kernel.bytes", "kernel.segments", "par.jobs", "par.chunks",
                              "par.steals", "par.inline"})
            global[c] += static_cast<double>(counter(s.global_after, c)
                                             - counter(s.global_before, c));
        for (const auto& [lane, l] : fold_simmpi(s)) {
            Lane& t = lanes[lane];
            t.messages += l.messages;
            t.recv_s += l.recv_s;
            t.probe_any_s += l.probe_any_s;
            t.collective_s += l.collective_s;
        }
    }
    if (dropped)
        std::printf("# warning: %llu trace events dropped (buffer full); simmpi.* undercount\n",
                    static_cast<unsigned long long>(dropped));

    const double per = units > 0 ? 1.0 / units : 0;
    std::vector<Metric> m;
    for (std::size_t i = 0; i < kApis; ++i)
        m.push_back({api_layers[i].name, quantile(api[i], 0.5), "s"});
    m.push_back({"h5.native_write_s", shape.file_mode() ? quantile(api[Write], 0.5) : 0.0, "s"});
    m.push_back({"h5.native_read_s", shape.file_mode() ? quantile(api[Read], 0.5) : 0.0, "s"});

    auto side = [&](bool producer, auto&& value) {
        double best = 0;
        for (std::size_t wr = 0; wr < world; ++wr)
            if (producer_rank(wr) == producer) best = std::max(best, value(wr));
        return best;
    };
    for (const auto& l : vol_layers)
        m.push_back({l.name,
                     side(l.producer, [&](std::size_t wr) { return vol[wr][l.counter]; })
                         * l.scale * per,
                     l.unit});
    double hits = 0, misses = 0;
    for (std::size_t wr = nprod; wr < world; ++wr) {
        hits += vol[wr]["n_intersect_cache_hits"];
        misses += vol[wr]["n_intersect_cache_misses"];
    }
    m.push_back({"lowfive.intersect_cache_hit_ratio", ratio(hits, hits + misses), "ratio"});
    m.push_back({"mvcc.snapshots_live_max", static_cast<double>(live_max), "count"});

    m.push_back({"h5.kernel_bytes", global["kernel.bytes"] * per, "B"});
    m.push_back({"h5.kernel_segments", global["kernel.segments"] * per, "count"});
    m.push_back({"h5.kernel_bytes_per_segment",
                 ratio(global["kernel.bytes"], global["kernel.segments"]), "B"});
    m.push_back({"h5.par_jobs", global["par.jobs"] * per, "count"});
    m.push_back({"h5.par_steal_ratio", ratio(global["par.steals"], global["par.chunks"]), "ratio"});
    m.push_back({"h5.par_inline", global["par.inline"] * per, "count"});

    // lane -1 (background serve threads) counts as one more producer lane
    auto lane_side = [&](bool producer, double Lane::*f) {
        double best = 0;
        for (const auto& [lane, l] : lanes)
            if ((lane < 0 || producer_rank(static_cast<std::size_t>(lane))) == producer)
                best = std::max(best, l.*f);
        return best * per;
    };
    for (bool producer : {true, false}) {
        const std::string sfx = producer ? ".producer" : ".consumer";
        m.push_back({"simmpi.messages" + sfx, lane_side(producer, &Lane::messages), "count"});
        m.push_back({"simmpi.recv_s" + sfx, lane_side(producer, &Lane::recv_s), "s"});
        m.push_back({"simmpi.probe_any_s" + sfx, lane_side(producer, &Lane::probe_any_s), "s"});
        m.push_back({"simmpi.collective_s" + sfx, lane_side(producer, &Lane::collective_s), "s"});
    }

    auto api_time = [&](std::size_t wr) { return api_sum[wr]; };
    m.push_back({"trace.coverage_producer", ratio(side(true, api_time), span), "ratio"});
    m.push_back({"trace.coverage_consumer", ratio(side(false, api_time), span), "ratio"});
    m.push_back({"trace.overhead_ratio",
                 ratio(quantile(traced_wall, 0.5), quantile(untraced_wall, 0.5)), "ratio"});
    return m;
}

} // namespace l5bench
