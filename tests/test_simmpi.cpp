#include <simmpi/simmpi.hpp>

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>

using namespace simmpi;

TEST(SimMpi, WorldSizeAndRanks) {
    std::atomic<int> sum{0};
    Runtime::run(7, [&](Comm& c) {
        EXPECT_EQ(c.size(), 7);
        EXPECT_GE(c.rank(), 0);
        EXPECT_LT(c.rank(), 7);
        sum += c.rank();
    });
    EXPECT_EQ(sum.load(), 21);
}

TEST(SimMpi, RunRejectsBadWorldSize) {
    EXPECT_THROW(Runtime::run(0, [](Comm&) {}), Error);
    EXPECT_THROW(Runtime::run(-3, [](Comm&) {}), Error);
}

TEST(SimMpi, TaskExceptionPropagates) {
    EXPECT_THROW(Runtime::run(2, [](Comm& c) {
        c.barrier();
        if (c.rank() == 1) throw std::runtime_error("boom");
    }),
                 std::runtime_error);
}

TEST(SimMpi, PointToPointRoundtrip) {
    Runtime::run(2, [](Comm& c) {
        if (c.rank() == 0) {
            std::vector<int> data{1, 2, 3, 4};
            c.send_span<int>(1, 7, data);
            auto echoed = c.recv_vector<int>(1, 8);
            EXPECT_EQ(echoed, (std::vector<int>{4, 3, 2, 1}));
        } else {
            auto data = c.recv_vector<int>(0, 7);
            std::reverse(data.begin(), data.end());
            c.send_span<int>(0, 8, data);
        }
    });
}

TEST(SimMpi, MessagesDoNotOvertakePerSourceAndTag) {
    Runtime::run(2, [](Comm& c) {
        constexpr int n = 200;
        if (c.rank() == 0) {
            for (int i = 0; i < n; ++i) c.send_value(1, 5, i);
        } else {
            for (int i = 0; i < n; ++i) EXPECT_EQ(c.recv_value<int>(0, 5), i);
        }
    });
}

TEST(SimMpi, TagSelectsMessage) {
    Runtime::run(2, [](Comm& c) {
        if (c.rank() == 0) {
            c.send_value(1, 10, 100);
            c.send_value(1, 20, 200);
        } else {
            // receive in the opposite order of sending, by tag
            EXPECT_EQ(c.recv_value<int>(0, 20), 200);
            EXPECT_EQ(c.recv_value<int>(0, 10), 100);
        }
    });
}

TEST(SimMpi, AnySourceAnyTag) {
    Runtime::run(4, [](Comm& c) {
        if (c.rank() == 0) {
            // the total is a sum, so this any-source drain is
            // intentionally order-insensitive
            c.check_commutative(any_tag, "summed drain");
            int total = 0;
            for (int i = 1; i < 4; ++i) {
                Status st;
                total += c.recv_value<int>(any_source, any_tag, &st);
                EXPECT_GE(st.source, 1);
                EXPECT_EQ(st.tag, st.source);
            }
            EXPECT_EQ(total, 1 + 2 + 3);
        } else {
            c.send_value(0, c.rank(), c.rank());
        }
    });
}

TEST(SimMpi, ProbeReportsSizeWithoutConsuming) {
    Runtime::run(2, [](Comm& c) {
        if (c.rank() == 0) {
            std::vector<double> v(13, 3.5);
            c.send_span<double>(1, 3, v);
        } else {
            Status st = c.probe(0, 3);
            EXPECT_EQ(st.count, 13 * sizeof(double));
            auto v = c.recv_vector<double>(0, 3);
            EXPECT_EQ(v.size(), 13u);
        }
    });
}

TEST(SimMpi, IprobeNonblocking) {
    Runtime::run(2, [](Comm& c) {
        if (c.rank() == 0) {
            c.barrier();
            EXPECT_FALSE(c.iprobe(1, 99).has_value());
            c.send_value(1, 42, 1);
        } else {
            c.barrier();
            while (!c.iprobe(0, 42)) {}
            EXPECT_EQ(c.recv_value<int>(0, 42), 1);
        }
    });
}

TEST(SimMpi, IsendIrecvWait) {
    Runtime::run(2, [](Comm& c) {
        if (c.rank() == 0) {
            int  v   = 17;
            auto req = c.isend(1, 1, &v, sizeof(v));
            EXPECT_TRUE(req.done());
        } else {
            std::vector<std::byte> buf;
            auto                   req = c.irecv(0, 1, buf);
            Status                 st  = req.wait();
            EXPECT_EQ(st.count, sizeof(int));
            int v = 0;
            std::memcpy(&v, buf.data(), sizeof(v));
            EXPECT_EQ(v, 17);
        }
    });
}

TEST(SimMpi, BarrierSynchronizes) {
    std::atomic<int> phase{0};
    Runtime::run(8, [&](Comm& c) {
        phase.fetch_add(1);
        c.barrier();
        EXPECT_EQ(phase.load(), 8);
    });
}

TEST(SimMpi, BcastFromEveryRoot) {
    Runtime::run(5, [](Comm& c) {
        for (int root = 0; root < c.size(); ++root) {
            int v = c.rank() == root ? root * 11 : -1;
            v     = c.bcast_value(v, root);
            EXPECT_EQ(v, root * 11);
        }
    });
}

TEST(SimMpi, GatherCollectsAtRoot) {
    Runtime::run(6, [](Comm& c) {
        int  mine = c.rank() * c.rank();
        auto all  = c.gather(std::span<const std::byte>(
                                reinterpret_cast<const std::byte*>(&mine), sizeof(mine)),
                            2);
        if (c.rank() == 2) {
            ASSERT_EQ(all.size(), 6u);
            for (int r = 0; r < 6; ++r) {
                int v = 0;
                std::memcpy(&v, all[static_cast<std::size_t>(r)].data(), sizeof(v));
                EXPECT_EQ(v, r * r);
            }
        } else {
            for (int r = 0; r < 6; ++r)
                if (r != c.rank()) { EXPECT_TRUE(all.empty() || all[static_cast<std::size_t>(r)].empty()); }
        }
    });
}

TEST(SimMpi, AllgatherValue) {
    Runtime::run(5, [](Comm& c) {
        auto all = c.allgather_value(c.rank() + 100);
        ASSERT_EQ(all.size(), 5u);
        for (int r = 0; r < 5; ++r) EXPECT_EQ(all[static_cast<std::size_t>(r)], r + 100);
    });
}

TEST(SimMpi, AllreduceSumAndMax) {
    Runtime::run(6, [](Comm& c) {
        EXPECT_EQ(c.allreduce(c.rank()), 15);
        EXPECT_EQ(c.allreduce(c.rank(), [](int a, int b) { return std::max(a, b); }), 5);
    });
}

TEST(SimMpi, AlltoallPersonalized) {
    Runtime::run(4, [](Comm& c) {
        std::vector<std::vector<std::byte>> out(4);
        for (int r = 0; r < 4; ++r) {
            int v = c.rank() * 10 + r;
            out[static_cast<std::size_t>(r)].resize(sizeof(v));
            std::memcpy(out[static_cast<std::size_t>(r)].data(), &v, sizeof(v));
        }
        auto in = c.alltoall(std::move(out));
        ASSERT_EQ(in.size(), 4u);
        for (int r = 0; r < 4; ++r) {
            int v = 0;
            std::memcpy(&v, in[static_cast<std::size_t>(r)].data(), sizeof(v));
            EXPECT_EQ(v, r * 10 + c.rank());
        }
    });
}

TEST(SimMpi, SplitByParity) {
    Runtime::run(6, [](Comm& c) {
        Comm sub = c.split(c.rank() % 2);
        EXPECT_EQ(sub.size(), 3);
        EXPECT_EQ(sub.rank(), c.rank() / 2);
        // traffic in the subcommunicator is isolated from the parent
        int sum = sub.allreduce(c.rank());
        EXPECT_EQ(sum, c.rank() % 2 == 0 ? 0 + 2 + 4 : 1 + 3 + 5);
    });
}

TEST(SimMpi, SplitKeyReordersRanks) {
    Runtime::run(4, [](Comm& c) {
        // key = -rank reverses the order
        Comm sub = c.split(0, -c.rank());
        EXPECT_EQ(sub.rank(), c.size() - 1 - c.rank());
    });
}

TEST(SimMpi, IntercommSendRecv) {
    Runtime::run(5, [](Comm& c) {
        std::vector<int> a{0, 1, 2}, b{3, 4};
        Comm             ic = Comm::create_intercomm(c, a, b);
        ASSERT_TRUE(ic.valid());
        EXPECT_TRUE(ic.is_inter());
        if (c.rank() <= 2) {
            EXPECT_EQ(ic.size(), 3);
            EXPECT_EQ(ic.peer_size(), 2);
            // each producer sends its rank to every consumer
            for (int d = 0; d < 2; ++d) ic.send_value(d, 1, ic.rank());
        } else {
            EXPECT_EQ(ic.size(), 2);
            EXPECT_EQ(ic.peer_size(), 3);
            int sum = 0;
            for (int s = 0; s < 3; ++s) sum += ic.recv_value<int>(s, 1);
            EXPECT_EQ(sum, 0 + 1 + 2);
        }
    });
}

TEST(SimMpi, IntercommNonMembersGetInvalidComm) {
    Runtime::run(4, [](Comm& c) {
        std::vector<int> a{0}, b{1};
        Comm             ic = Comm::create_intercomm(c, a, b);
        if (c.rank() >= 2)
            EXPECT_FALSE(ic.valid());
        else
            EXPECT_TRUE(ic.valid());
    });
}

TEST(SimMpi, IntercommOverlapRejected) {
    EXPECT_THROW(Runtime::run(2, [](Comm& c) {
        std::vector<int> a{0, 1}, b{1};
        (void)Comm::create_intercomm(c, a, b);
    }),
                 Error);
}

TEST(SimMpi, CollectivesOnIntercommRejected) {
    EXPECT_THROW(Runtime::run(2, [](Comm& c) {
        std::vector<int> a{0}, b{1};
        Comm             ic = Comm::create_intercomm(c, a, b);
        ic.barrier();
    }),
                 Error);
}

TEST(SimMpi, LargePayloadIntegrity) {
    Runtime::run(2, [](Comm& c) {
        constexpr std::size_t n = 1 << 20;
        if (c.rank() == 0) {
            std::vector<std::uint64_t> v(n);
            std::iota(v.begin(), v.end(), 0);
            c.send_span<std::uint64_t>(1, 2, v);
        } else {
            auto v = c.recv_vector<std::uint64_t>(0, 2);
            ASSERT_EQ(v.size(), n);
            EXPECT_EQ(v.front(), 0u);
            EXPECT_EQ(v[n / 2], n / 2);
            EXPECT_EQ(v.back(), n - 1);
        }
    });
}

TEST(SimMpi, ManyRanksStress) {
    // ring pass around 64 ranks
    Runtime::run(64, [](Comm& c) {
        int next = (c.rank() + 1) % c.size();
        int prev = (c.rank() + c.size() - 1) % c.size();
        if (c.rank() == 0) {
            c.send_value(next, 1, 1);
            EXPECT_EQ(c.recv_value<int>(prev, 1), c.size());
        } else {
            int v = c.recv_value<int>(prev, 1);
            c.send_value(next, 1, v + 1);
        }
    });
}

TEST(SimMpi, UserTagsMustBeNonNegative) {
    // every rank throws on its own send, so no rank is left blocked
    EXPECT_THROW(Runtime::run(2, [](Comm& c) { c.send_value((c.rank() + 1) % 2, -5, 0); }), Error);
}

TEST(SimMpi, RecvIntoFanOutPayloadDeliversEveryByte) {
    // one shared payload enqueued at three ranks: each recv_into must copy
    // the whole buffer straight out of the shared bytes, and the sender's
    // buffer must stay intact for the receivers still holding it
    constexpr std::size_t n = (1u << 16) + 13;
    Runtime::run(4, [&](Comm& c) {
        if (c.rank() == 0) {
            std::vector<std::byte> bytes(n);
            for (std::size_t i = 0; i < n; ++i)
                bytes[i] = static_cast<std::byte>((i * 131 + 7) & 0xff);
            const SharedPayload shared = make_shared_payload(std::move(bytes));
            for (int dest = 1; dest < 4; ++dest) c.send_shared(dest, 3, shared);
            c.barrier();
            EXPECT_EQ(shared->size(), n);
        } else {
            std::vector<std::byte> got(n + 8, std::byte{0xee});
            const Status           st = c.recv_into(0, 3, got.data(), got.size());
            EXPECT_EQ(st.source, 0);
            EXPECT_EQ(st.count, n);
            for (std::size_t i = 0; i < n; ++i)
                ASSERT_EQ(got[i], static_cast<std::byte>((i * 131 + 7) & 0xff)) << i;
            for (std::size_t i = n; i < got.size(); ++i) ASSERT_EQ(got[i], std::byte{0xee});
            c.barrier();
        }
    });
}
