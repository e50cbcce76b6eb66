#pragma once

/// Shared types of the l5bench driver: workload shapes, the per-rank
/// records a session fills, and the value function every delivered
/// element is checked against.

#include <obs/metrics.hpp>
#include <obs/trace.hpp>

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace l5bench {

enum class Workload { GridCrossed, ManyDatasets, StreamSteps, FilePassthru };

/// Sizes of one workload. The grid is split along dim 0 across producers
/// and along the last dim across consumers; particles are split
/// contiguously on both sides.
struct Shape {
    Workload                   workload = Workload::GridCrossed;
    std::vector<std::uint64_t> grid;          ///< grid extent (uint64 elements); empty = none
    std::uint64_t              particles = 0; ///< float32x3 records per round
    int                        groups    = 0; ///< many_datasets: groups per file
    int                        dsets     = 0; ///< many_datasets: datasets per group
    std::uint64_t              dset_len  = 0; ///< many_datasets: uint64 per dataset
    int                        trace_units = 0; ///< rounds/steps per traced session

    static Shape make(Workload w, bool tiny);

    bool          file_mode() const { return workload == Workload::FilePassthru; }
    bool          stream() const { return workload == Workload::StreamSteps; }
    std::uint64_t grid_points() const;
};

inline constexpr int nprod = 2, ncons = 2; ///< rank-threads per side

/// Timed families of public API calls, each a benchmark-side span.
enum Api {
    Create,        ///< File::create, create_group, create_dataset
    Write,         ///< Dataset::write, write_attribute
    CloseProducer, ///< producer File::close and drop_file
    Open,          ///< consumer File::open
    OpenDataset,   ///< open_group, open_dataset
    Read,          ///< Dataset::read, read_attribute
    CloseConsumer, ///< consumer File::close
    BeginStep,     ///< stream::Writer::begin_step
    EndStep,       ///< stream::Writer::end_step
    NextStep,      ///< stream::Reader::next_step
    kApis
};

/// One rank's record of one round (or stream step).
struct UnitRec {
    std::array<double, kApis> api{}; ///< seconds inside each API family
    double        begin = 0, end = 0; ///< the rank's work interval (trace clock, s)
    double        publish   = 0;      ///< producer: data handed to LowFive
    double        delivered = 0;      ///< consumer: data read (and, for steps, validated)
    std::uint64_t bytes = 0, attempted = 0, failed = 0, datasets = 0;

    double api_total() const {
        double s = 0;
        for (double a : api) s += a;
        return s;
    }
};

struct RankLog {
    std::vector<UnitRec>    units;
    obs::Registry::Snapshot vol;              ///< the rank's VOL registry at session end
    std::int64_t            snapshots_live_max = 0;
};

/// Everything one workflow::run records.
struct SessionLog {
    bool                    traced = false;
    double                  t_call = 0;  ///< when workflow::run was called
    std::vector<double>     entered;     ///< per world rank: task-body entry
    std::vector<RankLog>    ranks;       ///< per world rank
    std::vector<double>     walls;       ///< per round: world-rank-0 wall (round workloads)
    obs::Registry::Snapshot global_before, global_after; ///< kernel.* / par.*
    std::vector<obs::Event> events;      ///< traced sessions only
    std::uint64_t           dropped_events = 0;
    bool                    crashed = false;

    double setup_s() const;
};

/// Per-session controls.
struct SessionSpec {
    std::uint64_t seed      = 0;
    std::uint64_t unit_base = 0;   ///< global index of the first round/step
    double        deadline  = 0;   ///< trace-clock seconds; no new unit after it
    std::uint64_t min_units = 1;   ///< units run regardless of the deadline
    std::uint64_t max_units = ~0ull;
    std::uint64_t stale_unit = ~0ull; ///< producer rank 0 writes unit-1 data here (tests)
    bool          bare = false;    ///< spin-up only: bodies return on entry
};

/// Per-world-rank buffers, allocated once per process and reused so
/// first-touch page faults stay out of the timed rounds.
struct Buffers {
    std::vector<std::uint64_t> grid;
    std::vector<float>         particles;
};

/// Per-world-rank buffers for `shape`.
std::vector<Buffers> make_buffers(const Shape& shape);

/// Run one session (one workflow::run) of `shape`.
void run_session(const Shape& shape, const SessionSpec& spec, std::vector<Buffers>& buffers,
                 SessionLog& log);

// --- reporting (report.cpp) ------------------------------------------------------

struct Metric {
    std::string name;
    double      value = 0;
    std::string unit;
};

/// Exact quantile q of raw samples (linear interpolation between the
/// two closest order statistics of the sorted samples).
double quantile(std::vector<double> v, double q);

/// Operation counts over every measured session.
struct Outcome {
    std::uint64_t units = 0, attempted = 0, failed = 0;
};

/// End-to-end metrics from untraced sessions: each p50 is the median of
/// every sample of the run, set-up the median of the quietest group of
/// spin-ups; fills `out` from every session.
std::vector<Metric> end_to_end(const Shape& shape, const std::vector<SessionLog>& sessions,
                               const std::vector<std::vector<double>>& setup_groups,
                               double peak_rss_mib, Outcome& out);

/// Per-layer metrics from traced sessions (untraced ones give the
/// baseline of trace.overhead_ratio); fills `out` from every session.
std::vector<Metric> per_layer(const Shape& shape, const std::vector<SessionLog>& sessions,
                              Outcome& out);

inline double now_s() { return static_cast<double>(obs::now_ns()) * 1e-9; }

// --- the value function -------------------------------------------------------

inline std::uint64_t mix64(std::uint64_t x) {
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return x;
}

/// Key of one dataset's contents in one round or step: every delivered
/// value is a function of (seed, unit, dataset, position), so a stale,
/// torn or misplaced element fails validation.
inline std::uint64_t unit_key(std::uint64_t seed, std::uint64_t unit, std::uint64_t dataset) {
    return mix64(mix64(mix64(seed) ^ unit) + dataset);
}

/// Linear in the position, so filling and checking run at memory speed;
/// the hashed key still makes another unit's or dataset's value, or a
/// shifted position, differ.
inline std::uint64_t value_at(std::uint64_t key, std::uint64_t pos) {
    return key + pos * 0x9E3779B97F4A7C15ULL;
}

/// float32 value: 24 bits, exactly representable.
inline float fvalue_at(std::uint64_t key, std::uint64_t pos) {
    return static_cast<float>(value_at(key, pos) >> 40);
}

} // namespace l5bench
