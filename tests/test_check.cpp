/// Seeded buggy mini-programs for the mh5check correctness checker: each
/// plants one MPI-semantics defect and asserts the named diagnostic (and,
/// for schedule-dependent findings, the copy-pasteable L5_SCHED repro
/// line). The clean-suite tests assert the checker stays silent on
/// well-formed programs, so it can serve as a default regression oracle.

#include <check/check.hpp>
#include <lowfive/lowfive.hpp>
#include <simmpi/simmpi.hpp>
#include <workflow/workflow.hpp>

#include <gtest/gtest.h>

#include <array>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

using namespace simmpi;

namespace {

/// Save/restore one environment variable around a test body.
class EnvGuard {
public:
    explicit EnvGuard(const char* name) : name_(name) {
        const char* v = std::getenv(name);
        if (v) saved_ = v;
    }
    ~EnvGuard() {
        if (saved_)
            setenv(name_, saved_->c_str(), 1);
        else
            unsetenv(name_);
    }

private:
    const char*                name_;
    std::optional<std::string> saved_;
};

Runtime::RunOptions raise_opts() {
    Runtime::RunOptions opts;
    opts.check = l5check::CheckConfig{}; // default action: raise
    return opts;
}

Runtime::RunOptions report_opts() {
    Runtime::RunOptions opts;
    opts.check = l5check::CheckConfig{l5check::CheckConfig::Action::report};
    return opts;
}

/// Run `fn` on `n` ranks expecting a CheckError — thrown directly from
/// Runtime::run (finalize lints) or carried as the primary cause of a
/// RankFailure (mid-run diagnostics kill the offending rank).
template <typename Fn>
l5check::CheckError expect_check_error(int n, Fn&& fn,
                                       Runtime::RunOptions opts = raise_opts()) {
    try {
        Runtime::run(n, [&](Comm& c, int) { fn(c); }, opts);
    } catch (const l5check::CheckError& e) {
        return e;
    } catch (const RankFailure& rf) {
        try {
            std::rethrow_exception(rf.cause());
        } catch (const l5check::CheckError& e) {
            return e;
        } catch (const std::exception& e) {
            ADD_FAILURE() << "primary cause is not a CheckError: " << e.what();
        }
    }
    ADD_FAILURE() << "expected a CheckError diagnostic";
    return l5check::CheckError("none", "no diagnostic raised");
}

/// Ranks 1 and 2 race their tag-7 sends into rank 0's any-source
/// receive; rank 0 holds the receive until both are pending so the race
/// is visible on every schedule.
void wildcard_race_program(Comm& c) {
    if (c.rank() == 0) {
        while (!c.iprobe(1, 7) || !c.iprobe(2, 7)) {
        }
        std::vector<std::byte> raw;
        c.recv(any_source, 7, raw);
        c.recv(any_source, 7, raw);
    } else {
        c.send_value(0, 7, c.rank());
    }
}

} // namespace

// --- wildcard-receive nondeterminism ----------------------------------------

TEST(Check, WildcardRaceRaisesNamingBothCandidates) {
    Runtime::RunOptions opts = raise_opts();
    opts.sched               = SchedConfig{}; // deterministic: repro is exact
    opts.sched->seed         = 11;
    auto e = expect_check_error(3, wildcard_race_program, opts);
    EXPECT_EQ(e.kind(), "wildcard-race");
    const std::string what = e.what();
    EXPECT_NE(what.find("recv on rank 0 (src=any, tag=7"), std::string::npos) << what;
    EXPECT_NE(what.find("send from rank 1 (tag 7)"), std::string::npos) << what;
    EXPECT_NE(what.find("send from rank 2 (tag 7)"), std::string::npos) << what;
    EXPECT_NE(what.find("schedule-dependent"), std::string::npos) << what;
    // copy-pasteable repro: the exact L5_SCHED value of this run
    EXPECT_NE(what.find("L5_SCHED='seed=11,policy=random"), std::string::npos) << what;
}

TEST(Check, WildcardRaceReportModeRecordsOneDiagnostic) {
    Runtime::RunOptions opts = report_opts();
    opts.sched               = SchedConfig{};
    opts.sched->seed         = 11;
    Runtime::run(3, [](Comm& c, int) { wildcard_race_program(c); }, opts);
    auto diags = l5check::last_check_diagnostics();
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].kind, "wildcard-race");
    EXPECT_NE(diags[0].message.find("rank 1"), std::string::npos);
    EXPECT_NE(diags[0].message.find("rank 2"), std::string::npos);
    EXPECT_NE(diags[0].repro.find("L5_SCHED='seed=11,policy=random"), std::string::npos);
    EXPECT_EQ(diags[0].text().find("[wildcard-race] recv on rank 0"), 0u);
}

TEST(Check, WildcardRaceWithoutSchedulerPointsAtMh5sched) {
    Runtime::run(3, [](Comm& c, int) { wildcard_race_program(c); }, report_opts());
    auto diags = l5check::last_check_diagnostics();
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_NE(diags[0].repro.find("mh5sched --check"), std::string::npos);
}

TEST(Check, CommutativeAnnotationSuppressesRace) {
    Runtime::run(3,
                 [](Comm& c, int) {
                     if (c.rank() == 0) c.check_commutative(7, "test: summed drain");
                     wildcard_race_program(c);
                 },
                 raise_opts());
    EXPECT_TRUE(l5check::last_check_diagnostics().empty());
}

// --- collective-order mismatches --------------------------------------------

TEST(Check, CollectiveKindMismatch) {
    auto e = expect_check_error(2, [](Comm& c) {
        if (c.rank() == 0) {
            c.barrier();
        } else {
            std::vector<std::byte> buf;
            c.bcast(buf, 0);
        }
    });
    EXPECT_EQ(e.kind(), "collective-mismatch");
    const std::string what = e.what();
    EXPECT_NE(what.find("barrier"), std::string::npos) << what;
    EXPECT_NE(what.find("bcast"), std::string::npos) << what;
    EXPECT_NE(what.find("collective #0"), std::string::npos) << what;
}

TEST(Check, CollectiveRootMismatch) {
    auto e = expect_check_error(2, [](Comm& c) { (void)c.bcast_value<int>(7, c.rank()); });
    EXPECT_EQ(e.kind(), "collective-mismatch");
    EXPECT_NE(std::string(e.what()).find("different root"), std::string::npos) << e.what();
}

TEST(Check, CollectiveElementSizeMismatch) {
    auto e = expect_check_error(2, [](Comm& c) {
        if (c.rank() == 0)
            (void)c.bcast_value<std::int32_t>(7, 0);
        else
            (void)c.bcast_value<double>(0.0, 0);
    });
    EXPECT_EQ(e.kind(), "collective-mismatch");
    EXPECT_NE(std::string(e.what()).find("different element size"), std::string::npos)
        << e.what();
}

// --- resource lints at finalize ---------------------------------------------

TEST(Check, LeakedNonblockingRequest) {
    std::vector<std::byte> buf;
    auto                   e = expect_check_error(1, [&](Comm& c) {
        (void)c.irecv(0, 3, buf); // never waited, never tested
    });
    EXPECT_EQ(e.kind(), "leaked-request");
    const std::string what = e.what();
    EXPECT_NE(what.find("rank 0 leaked a nonblocking receive (src=0, tag=3)"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("never completed by wait() or test()"), std::string::npos) << what;
}

TEST(Check, NeverProbedAndUnmatchedSendLints) {
    auto e = expect_check_error(3, [](Comm& c) {
        if (c.rank() == 0) {
            c.send_value(1, 9, 1); // rank 1 never even probes this
            c.send_value(2, 10, 2); // rank 2 probes but never receives
        } else if (c.rank() == 2) {
            while (!c.iprobe(0, 10)) {
            }
        }
    });
    EXPECT_EQ(e.kind(), "never-probed");
    EXPECT_NE(std::string(e.what()).find("rank 0 sent"), std::string::npos) << e.what();
    auto diags = l5check::last_check_diagnostics();
    ASSERT_EQ(diags.size(), 2u);
    EXPECT_EQ(diags[0].kind, "never-probed");
    EXPECT_NE(diags[0].message.find("to rank 1 (tag 9"), std::string::npos);
    EXPECT_EQ(diags[1].kind, "unmatched-send");
    EXPECT_NE(diags[1].message.find("to rank 2 (tag 10"), std::string::npos);
}

TEST(Check, TagCollisionWithDistVolControlRange) {
    auto e = expect_check_error(2, [](Comm& c) {
        // dist_vol claims 901-904 on its own (dup'ed) communicator...
        lowfive::DistMetadataVol vol(c.dup());
        // ...so user traffic on tag 904 of the *world* communicator collides
        if (c.rank() == 0)
            c.send_value(1, 904, 1);
        else
            (void)c.recv_value<int>(0, 904);
    });
    EXPECT_EQ(e.kind(), "tag-collision");
    const std::string what = e.what();
    EXPECT_NE(what.find("tag 904"), std::string::npos) << what;
    EXPECT_NE(what.find("reserved control-tag range [901, 904] of dist_vol"),
              std::string::npos)
        << what;
}

// --- buffer-contract checks --------------------------------------------------

TEST(Check, RecvValueCountMismatch) {
    auto e = expect_check_error(2, [](Comm& c) {
        if (c.rank() == 0)
            c.send_value<std::int32_t>(1, 5, 7);
        else
            (void)c.recv_value<std::uint64_t>(0, 5);
    });
    EXPECT_EQ(e.kind(), "count-mismatch");
    const std::string what = e.what();
    EXPECT_NE(what.find("recv_value on rank 1 (src=0, tag=5)"), std::string::npos) << what;
    EXPECT_NE(what.find("expected 8 bytes but the arriving envelope carries 4"),
              std::string::npos)
        << what;
}

TEST(Check, RecvVectorCountMismatch) {
    auto e = expect_check_error(2, [](Comm& c) {
        if (c.rank() == 0) {
            std::array<std::byte, 6> six{};
            c.send(1, 5, six.data(), six.size());
        } else {
            (void)c.recv_vector<std::uint32_t>(0, 5);
        }
    });
    EXPECT_EQ(e.kind(), "count-mismatch");
    EXPECT_NE(std::string(e.what()).find("recv_vector on rank 1"), std::string::npos)
        << e.what();
}

TEST(Check, RecvIntoCountMismatch) {
    auto e = expect_check_error(2, [](Comm& c) {
        if (c.rank() == 0) {
            std::array<std::int32_t, 3> three{1, 2, 3};
            c.send(1, 4, three.data(), sizeof(three));
        } else {
            std::array<std::int32_t, 2> two{};
            (void)c.recv_into(0, 4, two.data(), sizeof(two));
        }
    });
    EXPECT_EQ(e.kind(), "count-mismatch");
    EXPECT_NE(std::string(e.what()).find("recv_into on rank 1 (src=0, tag=4) expected 8 bytes "
                                         "but the arriving envelope carries 12"),
              std::string::npos)
        << e.what();
}

TEST(Check, RecvIntoTooSmallStillThrowsInReportMode) {
    // report mode records the diagnostic without raising, so the
    // receive's own error surfaces with its unchanged text
    Runtime::run(
        2,
        [](Comm& c, int rank) {
            if (rank == 0) {
                std::array<std::int32_t, 3> three{1, 2, 3};
                c.send(1, 4, three.data(), sizeof(three));
                return;
            }
            std::array<std::int32_t, 2> two{};
            try {
                (void)c.recv_into(0, 4, two.data(), sizeof(two));
                ADD_FAILURE() << "recv_into accepted a 12-byte message into 8 bytes";
            } catch (const Error& e) {
                EXPECT_STREQ(e.what(), "simmpi: recv_into buffer too small (8 < 12)");
            }
        },
        report_opts());
}

// --- clean programs stay silent ----------------------------------------------

TEST(Check, CleanProgramProducesZeroDiagnostics) {
    Runtime::run(4,
                 [](Comm& c, int) {
                     c.barrier();
                     auto sum = c.allreduce(c.rank());
                     EXPECT_EQ(sum, 6);
                     auto v = c.bcast_value<int>(c.rank() == 2 ? 41 : 0, 2);
                     EXPECT_EQ(v, 41);
                     // deterministic pt2pt ring with a nonblocking receive
                     std::vector<std::byte> in;
                     Request                rq = c.irecv((c.rank() + 3) % 4, 1, in);
                     c.send_value((c.rank() + 1) % 4, 1, c.rank());
                     rq.wait();
                     auto parts = c.gather_values(c.rank(), 0);
                     if (c.rank() == 0) { EXPECT_EQ(parts.size(), 4u); }
                     (void)c.scatter_value(std::vector<int>{0, 1, 2, 3}, 0);
                 },
                 raise_opts());
    EXPECT_TRUE(l5check::last_check_diagnostics().empty());
}

TEST(Check, DistVolWorkflowCleanUnderChecker) {
    // the dist_vol protocol itself (serve loop, any-source drains,
    // control tags) must be diagnostic-free: its wildcard receives are
    // registered as an order-insensitive drain via check_reserve_tags
    constexpr std::uint64_t rows = 8, cols = 4;
    workflow::Options opts;
    opts.mode    = workflow::Mode::in_situ();
    opts.runtime = raise_opts();
    workflow::run(
        {
            {"producer", 2,
             [&](workflow::Context& ctx) {
                 h5::File f = h5::File::create("check_clean.h5", ctx.vol);
                 auto d = f.create_dataset("vals", h5::dt::uint64(), h5::Dataspace({rows, cols}));
                 // each producer rank writes its half of the rows
                 const std::uint64_t r0 = rows / 2 * static_cast<std::uint64_t>(ctx.rank());
                 h5::Dataspace sel({rows, cols});
                 sel.select_box(std::array<std::uint64_t, 2>{r0, 0},
                                std::array<std::uint64_t, 2>{rows / 2, cols});
                 std::vector<std::uint64_t> vals(rows / 2 * cols);
                 for (std::size_t i = 0; i < vals.size(); ++i)
                     vals[i] = r0 * cols + static_cast<std::uint64_t>(i);
                 d.write(vals.data(), sel);
                 f.close();
             }},
            {"consumer", 2,
             [&](workflow::Context& ctx) {
                 h5::File f = h5::File::open("check_clean.h5", ctx.vol);
                 auto     vals = f.open_dataset("vals").read_vector<std::uint64_t>();
                 ASSERT_EQ(vals.size(), rows * cols);
                 for (std::size_t i = 0; i < vals.size(); ++i) EXPECT_EQ(vals[i], i);
                 f.close();
             }},
        },
        {workflow::Link{0, 1, "*"}}, opts);
    EXPECT_TRUE(l5check::last_check_diagnostics().empty());
}

// --- configuration -----------------------------------------------------------

TEST(Check, ConfigFromEnv) {
    EnvGuard guard("L5_CHECK");

    unsetenv("L5_CHECK");
    EXPECT_FALSE(l5check::CheckConfig::from_env().has_value());

    setenv("L5_CHECK", "0", 1);
    EXPECT_FALSE(l5check::CheckConfig::from_env().has_value());

    setenv("L5_CHECK", "1", 1);
    auto cfg = l5check::CheckConfig::from_env();
    ASSERT_TRUE(cfg.has_value());
    EXPECT_EQ(cfg->action, l5check::CheckConfig::Action::raise);

    setenv("L5_CHECK", "report", 1);
    cfg = l5check::CheckConfig::from_env();
    ASSERT_TRUE(cfg.has_value());
    EXPECT_EQ(cfg->action, l5check::CheckConfig::Action::report);

    setenv("L5_CHECK", "sometimes", 1);
    EXPECT_THROW(l5check::CheckConfig::from_env(), Error);
}

TEST(Check, CheckerOffByDefaultLetsBuggyProgramsRun) {
    EnvGuard guard("L5_CHECK");
    unsetenv("L5_CHECK");
    // the same planted race and leak run to completion when the checker
    // is off: zero-cost default, diagnosis strictly opt-in
    std::vector<std::byte> buf;
    Runtime::run(3, [&](Comm& c, int) {
        wildcard_race_program(c);
        if (c.rank() == 0) (void)c.irecv(1, 99, buf);
    });
}
