/// l5bench driver: runs one workload for a fixed time in this process and
/// prints every metric by name and unit. The last line of stdout is one
/// JSON object {"correct", "attempted", "failed", "metrics"}.
///
///   l5bench --workload grid_crossed|many_datasets|stream_steps|file_passthru
///           --seed N --seconds S --trace 0|1 [--tiny] [--inject-stale]
///
/// --trace 0 prints the end-to-end metrics (tracing off throughout);
/// --trace 1 alternates untraced and traced sessions and prints the
/// per-layer metrics. --tiny shrinks every input (for tests);
/// --inject-stale makes one producer rank write the previous round's
/// values once, which validation must catch (for tests).
///
/// Exit status: 0 when every delivered element validated, 1 on any
/// mismatch or failed session, 2 on bad arguments or a refused
/// environment.

#include "bench.hpp"

#include <h5/copy.hpp>
#include <h5/par.hpp>

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <set>
#include <string>

extern char** environ;

namespace {

using namespace l5bench;

struct Args {
    std::string   workload;
    std::uint64_t seed    = 0;
    double        seconds = 0;
    int           trace   = -1;
    bool          tiny = false, inject_stale = false;
};

[[noreturn]] void usage(const char* why) {
    std::fprintf(stderr,
                 "l5bench: %s\nusage: l5bench --workload grid_crossed|many_datasets|stream_steps|"
                 "file_passthru --seed N --seconds S --trace 0|1 [--tiny] [--inject-stale]\n",
                 why);
    std::exit(2);
}

Args parse(int argc, char** argv) {
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (k == "--tiny") {
            a.tiny = true;
            continue;
        }
        if (k == "--inject-stale") {
            a.inject_stale = true;
            continue;
        }
        if (i + 1 >= argc) usage(("missing value for " + k).c_str());
        const char* v = argv[++i];
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.seed = std::strtoull(v, nullptr, 10);
        else if (k == "--seconds")
            a.seconds = std::atof(v);
        else if (k == "--trace")
            a.trace = std::atoi(v);
        else
            usage(("unknown argument " + k).c_str());
    }
    if (a.seconds <= 0) usage("--seconds must be positive");
    if (a.trace != 0 && a.trace != 1) usage("--trace must be 0 or 1");
    return a;
}

Workload parse_workload(const std::string& w) {
    static const std::map<std::string, Workload> names{
        {"grid_crossed", Workload::GridCrossed},
        {"many_datasets", Workload::ManyDatasets},
        {"stream_steps", Workload::StreamSteps},
        {"file_passthru", Workload::FilePassthru},
    };
    auto it = names.find(w);
    if (it == names.end()) usage(("unknown workload '" + w + "'").c_str());
    return it->second;
}

/// Every environment variable the program reads.
const char* const program_knobs[] = {
    "L5_CHECK",      "L5_COMPRESS",    "L5_DATA_THREADS", "L5_FAULTS",     "L5_MODE",
    "L5_PAR_THRESHOLD", "L5_PFS_BW_MBPS", "L5_PFS_LAT_MS", "L5_PFS_LOCK_US", "L5_RACE",
    "L5_RACE_OUT",   "L5_SCHED",       "L5_STEP_POLICY",  "L5_STEP_WINDOW", "L5_TIMEOUT_MS",
    "L5_TRACE",      "L5_WIRE_MBPS",
};

/// Knobs that turn the program into a different one (checkers, the
/// deterministic scheduler, fault injection, file tracing).
const char* const refused_knobs[] = {"L5_CHECK", "L5_RACE", "L5_SCHED", "L5_FAULTS", "L5_TRACE"};

bool knob_set(const char* name) {
    const char* v = std::getenv(name);
    return v && *v && std::strcmp(v, "0") != 0;
}

/// Best-of-3 single-thread memcpy bandwidth over `bytes`, GB/s.
double memcpy_GBps(std::size_t bytes) {
    std::vector<char> src(bytes, 1), dst(bytes, 0);
    double            best = 0;
    for (int t = 0; t < 3; ++t) {
        const auto t0 = std::chrono::steady_clock::now();
        std::memcpy(dst.data(), src.data(), bytes);
        const auto   t1 = std::chrono::steady_clock::now();
        const double s  = std::chrono::duration<double>(t1 - t0).count();
        if (dst[bytes / 2] != 1) std::abort();
        if (s > 0) best = std::max(best, static_cast<double>(bytes) / s / 1e9);
    }
    return best;
}

void print_config(const Args& a, const Shape& s, long l3_bytes, double memcpy_gbps,
                  std::size_t memcpy_bytes) {
    std::printf("# config workload=%s seed=%llu seconds=%g trace=%d tiny=%d\n", a.workload.c_str(),
                static_cast<unsigned long long>(a.seed), a.seconds, a.trace, a.tiny ? 1 : 0);
    std::set<std::string> knobs(std::begin(program_knobs), std::end(program_knobs));
    for (char** e = environ; *e; ++e)
        if (std::strncmp(*e, "L5_", 3) == 0)
            knobs.insert(std::string(*e).substr(0, std::strcspn(*e, "=")));
    for (const auto& k : knobs) {
        const char* v = std::getenv(k.c_str());
        std::printf("# config %s=%s\n", k.c_str(), v ? v : "(unset)");
    }
    std::printf("# host nproc=%ld kern_dispatch=%s par_workers=%d l3_bytes=%ld memcpy_GBps=%.3f "
                "(single thread, %zu MiB)\n",
                sysconf(_SC_NPROCESSORS_ONLN), h5::kern::dispatch_name(), h5::par::workers(),
                l3_bytes, memcpy_gbps, memcpy_bytes >> 20);
    if (s.workload == Workload::ManyDatasets)
        std::printf("# shape %d groups x %d datasets x %llu uint64\n", s.groups, s.dsets,
                    static_cast<unsigned long long>(s.dset_len));
    else
        std::printf("# shape grid %llu MiB (%s) + %llu MiB particles; L3 %ld MiB\n",
                    static_cast<unsigned long long>(s.grid_points() * 8 >> 20),
                    s.grid.size() == 3 ? "3-d uint64" : "2-d uint64",
                    static_cast<unsigned long long>(s.particles * 12 >> 20), l3_bytes >> 20);
}

} // namespace

int main(int argc, char** argv) {
    const Args     args  = parse(argc, argv);
    const Shape    shape = Shape::make(parse_workload(args.workload), args.tiny);
    for (const char* k : refused_knobs)
        if (knob_set(k)) {
            std::fprintf(stderr,
                         "l5bench: refusing to measure with %s set: it measures a different "
                         "program\n",
                         k);
            return 2;
        }

    obs::Tracer::instance().set_capacity(1u << 17);
    std::vector<Buffers>             buffers;
    std::vector<SessionLog>          sessions;
    std::vector<std::vector<double>> setup_groups;
    std::uint64_t                    next_unit = 0;
    bool                             crashed   = false;

    auto run = [&](SessionSpec spec, bool traced) {
        spec.seed      = args.seed;
        spec.unit_base = next_unit;
        SessionLog log;
        log.traced = traced;
        run_session(shape, spec, buffers, log);
        std::uint64_t n = 0;
        for (const auto& r : log.ranks) n = std::max<std::uint64_t>(n, r.units.size());
        next_unit += n;
        crashed = crashed || log.crashed;
        return log;
    };
    // set-up samples: spin-up-only sessions of the same workflow shape
    auto spin_ups = [&](int n) {
        SessionSpec bare;
        bare.bare = true;
        std::vector<double> g;
        for (int k = 0; !crashed && k < n; ++k) g.push_back(run(bare, false).setup_s());
        return g;
    };

    // warm-up: lazy set-up (the first spin-up, pool threads, first-touch of
    // the buffers) stays out of the measured sessions
    spin_ups(1);
    buffers = make_buffers(shape);
    SessionSpec warm;
    warm.min_units = warm.max_units = shape.stream() ? 64 : 1;
    run(warm, false);

    // equal time slices of about 5 s, one session each, each untraced one
    // preceded by a group of 50 spin-ups
    const std::uint64_t first_unit = next_unit;
    const double        t0         = now_s();
    const double        t_end      = t0 + args.seconds;
    const int           slices     = std::max(2, static_cast<int>(args.seconds / 5 + 0.5));
    for (int k = 0; !crashed && now_s() < t_end; ++k) {
        const bool traced = args.trace && k % 2 == 1;
        if (!args.trace) setup_groups.push_back(spin_ups(50));
        SessionSpec spec;
        spec.deadline   = std::min(t_end, t0 + args.seconds * (k + 1) / slices);
        spec.min_units  = shape.stream() ? 8 : 1;
        spec.stale_unit = args.inject_stale ? first_unit : ~0ull;
        if (traced) spec.max_units = static_cast<std::uint64_t>(shape.trace_units);
        sessions.push_back(run(spec, traced));
    }

    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const double peak_rss_mib = static_cast<double>(ru.ru_maxrss) / 1024.0;
    buffers.clear();
    buffers.shrink_to_fit();

    long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
    if (l3 <= 0) l3 = 32l << 20;
    const std::size_t memcpy_bytes =
        args.tiny ? std::size_t{16} << 20 : static_cast<std::size_t>(4 * l3);
    print_config(args, shape, l3, memcpy_GBps(memcpy_bytes), memcpy_bytes);

    Outcome             out;
    std::vector<Metric> metrics =
        args.trace ? per_layer(shape, sessions, out)
                   : end_to_end(shape, sessions, setup_groups, peak_rss_mib, out);
    const bool correct = !crashed && out.units > 0 && out.attempted > 0 && out.failed == 0;
    std::printf("# outcome units=%llu attempted=%llu failed=%llu crashed=%d\n",
                static_cast<unsigned long long>(out.units),
                static_cast<unsigned long long>(out.attempted),
                static_cast<unsigned long long>(out.failed), crashed ? 1 : 0);
    for (const auto& m : metrics)
        std::printf("# metric %-36s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(std::max<std::uint64_t>(out.attempted, 1)),
                static_cast<unsigned long long>(out.failed + (crashed ? 1 : 0)));
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                    metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
    std::printf("}}\n");
    return correct ? 0 : 1;
}
