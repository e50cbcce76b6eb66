#include "dataspaces.hpp"

#include <diy/serialization.hpp>

#include <cstring>
#include <map>
#include <thread>

namespace baselines::dataspaces {

namespace {

enum class Req : std::uint8_t { PutLocal = 1, Query = 2, Finalize = 3 };

constexpr int tag_index       = 21;
constexpr int tag_index_reply = 22;
constexpr int tag_pull        = 23;
constexpr int tag_pull_reply  = 24;
constexpr int tag_done        = 25;

int shard_of(const std::string& name, int version, int nservers) {
    return static_cast<int>((std::hash<std::string>{}(name) ^ static_cast<std::size_t>(version))
                            % static_cast<std::size_t>(nservers));
}

/// Iterate the rows of `want` (a sub-box of `have`), giving the row-major
/// element offsets of each row's start within both boxes' buffers.
template <typename Fn>
void for_each_row(const diy::Bounds& have, const diy::Bounds& want, Fn&& fn) {
    if (want.empty()) return;
    const int  d    = have.dim;
    const auto last = static_cast<std::size_t>(d - 1);
    const auto row  = static_cast<std::uint64_t>(want.max[last] - want.min[last]);

    auto strides = [&](const diy::Bounds& b) {
        std::array<std::uint64_t, diy::max_dim> s{};
        s[static_cast<std::size_t>(d - 1)] = 1;
        for (int i = d - 2; i >= 0; --i)
            s[static_cast<std::size_t>(i)] =
                s[static_cast<std::size_t>(i + 1)]
                * static_cast<std::uint64_t>(b.max[static_cast<std::size_t>(i + 1)]
                                             - b.min[static_cast<std::size_t>(i + 1)]);
        return s;
    };
    auto hs = strides(have), ws = strides(want);

    std::array<std::int64_t, diy::max_dim> pt{};
    for (int i = 0; i < d; ++i) pt[static_cast<std::size_t>(i)] = want.min[static_cast<std::size_t>(i)];
    for (;;) {
        std::uint64_t hoff = 0, woff = 0;
        for (int i = 0; i < d; ++i) {
            auto u = static_cast<std::size_t>(i);
            hoff += static_cast<std::uint64_t>(pt[u] - have.min[u]) * hs[u];
            woff += static_cast<std::uint64_t>(pt[u] - want.min[u]) * ws[u];
        }
        fn(hoff, woff, row);

        int i = d - 2;
        for (; i >= 0; --i) {
            auto u = static_cast<std::size_t>(i);
            if (++pt[u] < want.max[u]) break;
            pt[u] = want.min[u];
        }
        if (i < 0) break;
    }
}

/// Pack the sub-box `want` out of a row-major buffer of `have`.
void extract_box(const diy::Bounds& have, const std::byte* have_buf, const diy::Bounds& want,
                 std::byte* out, std::size_t elem) {
    for_each_row(have, want, [&](std::uint64_t hoff, std::uint64_t woff, std::uint64_t row) {
        std::memcpy(out + woff * elem, have_buf + hoff * elem, row * elem);
    });
}

/// Scatter a packed `want` buffer into a row-major buffer of `have`.
void insert_box(const diy::Bounds& have, std::byte* have_buf, const diy::Bounds& want,
                const std::byte* in, std::size_t elem) {
    for_each_row(have, want, [&](std::uint64_t hoff, std::uint64_t woff, std::uint64_t row) {
        std::memcpy(have_buf + hoff * elem, in + woff * elem, row * elem);
    });
}

} // namespace

// --- Server ---------------------------------------------------------------

void Server::run(const simmpi::Comm& producers_ic, const simmpi::Comm& consumers_ic) {
    // the index server is an order-insensitive drain by design: puts
    // accumulate and queries are answered once the part count is reached,
    // whatever order requests arrive in
    producers_ic.check_commutative(tag_index, "index-server drain");
    consumers_ic.check_commutative(tag_index, "index-server drain");
    struct Key {
        std::string name;
        int         version;
        bool        operator<(const Key& o) const {
            return name != o.name ? name < o.name : version < o.version;
        }
    };
    std::map<Key, std::vector<std::pair<int, diy::Bounds>>> index;

    struct PendingQuery {
        int         src;
        diy::Bounds box;
        int         nparts;
    };
    std::map<Key, std::vector<PendingQuery>> pending;

    int finalizes_needed = producers_ic.peer_size() + consumers_ic.peer_size();
    int finalizes        = 0;

    auto answer = [&](const Key& key, const PendingQuery& q) {
        diy::BinaryBuffer reply;
        std::uint64_t     n = 0;
        for (const auto& [rank, b] : index[key])
            if (diy::intersects(b, q.box)) ++n;
        reply.save(n);
        for (const auto& [rank, b] : index[key])
            if (diy::intersects(b, q.box)) {
                reply.save<std::int32_t>(rank);
                b.save(reply);
            }
        consumers_ic.send(q.src, tag_index_reply, std::move(reply).take());
    };

    auto handle = [&](const simmpi::Comm& ic) {
        std::vector<std::byte> raw;
        auto                   st = ic.recv(simmpi::any_source, tag_index, raw);
        diy::BinaryBuffer      bb{std::move(raw)};
        auto                   req = static_cast<Req>(bb.load<std::uint8_t>());
        switch (req) {
        case Req::PutLocal: {
            Key key;
            bb.load(key.name);
            key.version = bb.load<std::int32_t>();
            diy::Bounds b = diy::Bounds::load(bb);
            index[key].emplace_back(st.source, b);
            // a newly complete version may release pending queries
            auto pit = pending.find(key);
            if (pit != pending.end()) {
                auto& waiting = pit->second;
                for (auto qit = waiting.begin(); qit != waiting.end();) {
                    if (static_cast<int>(index[key].size()) >= qit->nparts) {
                        answer(key, *qit);
                        qit = waiting.erase(qit);
                    } else {
                        ++qit;
                    }
                }
            }
            break;
        }
        case Req::Query: {
            Key key;
            bb.load(key.name);
            key.version = bb.load<std::int32_t>();
            PendingQuery q;
            q.src    = st.source;
            q.nparts = bb.load<std::int32_t>();
            q.box    = diy::Bounds::load(bb);
            if (static_cast<int>(index[key].size()) >= q.nparts)
                answer(key, q);
            else
                pending[key].push_back(q);
            break;
        }
        case Req::Finalize:
            ++finalizes;
            break;
        }
    };

    const std::array<const simmpi::Comm*, 2> comms{&producers_ic, &consumers_ic};
    while (finalizes < finalizes_needed) {
        std::size_t which = 0;
        simmpi::Comm::probe_any(comms, simmpi::any_source, tag_index, &which);
        handle(*comms[which]);
    }
}

// --- ProducerClient ----------------------------------------------------------

ProducerClient::ProducerClient(simmpi::Comm servers_ic, simmpi::Comm consumers_ic)
    : servers_(std::move(servers_ic)), consumers_(std::move(consumers_ic)) {}

void ProducerClient::put_local(const std::string& name, int version, const diy::Bounds& bounds,
                               const void* data, std::size_t elem) {
    diy::BinaryBuffer bb;
    bb.save(static_cast<std::uint8_t>(Req::PutLocal));
    bb.save(name);
    bb.save<std::int32_t>(version);
    bounds.save(bb);
    servers_.send(shard_of(name, version, servers_.peer_size()), tag_index, std::move(bb).take());
    entries_.push_back({name, version, bounds, data, elem});
}

void ProducerClient::serve_pulls() {
    // pulls address disjoint regions and dones only count: service order
    // cannot change any result
    consumers_.check_commutative(simmpi::any_tag, "pull/done drain");
    int dones = 0;
    while (dones < consumers_.peer_size()) {
        // block until either a pull or a done arrives (the only two tags
        // consumers send in this phase)
        auto next = consumers_.probe(simmpi::any_source, simmpi::any_tag);
        if (next.tag == tag_done) {
            std::vector<std::byte> raw;
            consumers_.recv(next.source, tag_done, raw);
            ++dones;
            continue;
        }
        std::vector<std::byte> raw;
        auto                   st = consumers_.recv(next.source, tag_pull, raw);
        diy::BinaryBuffer      bb{std::move(raw)};
        std::string            name;
        bb.load(name);
        int         version = bb.load<std::int32_t>();
        diy::Bounds want    = diy::Bounds::load(bb);

        const Entry* entry = nullptr;
        for (const auto& e : entries_)
            if (e.name == name && e.version == version) entry = &e;
        if (!entry) throw std::runtime_error("dataspaces: pull for unregistered region");

        std::vector<std::byte> payload(want.size() * entry->elem);
        extract_box(entry->bounds, static_cast<const std::byte*>(entry->data), want,
                    payload.data(), entry->elem);
        consumers_.send(st.source, tag_pull_reply, std::move(payload));
    }
}

void ProducerClient::finalize() {
    // every server must hear the finalize
    for (int s = 0; s < servers_.peer_size(); ++s) {
        diy::BinaryBuffer bb;
        bb.save(static_cast<std::uint8_t>(Req::Finalize));
        servers_.send(s, tag_index, std::move(bb).take());
    }
    entries_.clear();
}

// --- ConsumerClient ----------------------------------------------------------

ConsumerClient::ConsumerClient(simmpi::Comm servers_ic, simmpi::Comm producers_ic)
    : servers_(std::move(servers_ic)), producers_(std::move(producers_ic)) {}

void ConsumerClient::get(const std::string& name, int version, int nparts, const diy::Bounds& box,
                         void* out, std::size_t elem) {
    // 1. ask the index server which producers intersect my box
    {
        diy::BinaryBuffer bb;
        bb.save(static_cast<std::uint8_t>(Req::Query));
        bb.save(name);
        bb.save<std::int32_t>(version);
        bb.save<std::int32_t>(nparts);
        box.save(bb);
        servers_.send(shard_of(name, version, servers_.peer_size()), tag_index, std::move(bb).take());
    }
    int  shard = shard_of(name, version, servers_.peer_size());
    auto reply = [&] {
        std::vector<std::byte> raw;
        servers_.recv(shard, tag_index_reply, raw);
        return diy::BinaryBuffer{std::move(raw)};
    }();

    auto                                          n = reply.load<std::uint64_t>();
    std::vector<std::pair<int, diy::Bounds>>      holders;
    for (std::uint64_t i = 0; i < n; ++i) {
        int rank = reply.load<std::int32_t>();
        holders.emplace_back(rank, diy::Bounds::load(reply));
    }

    // 2. pull the intersections directly from the producers
    std::vector<diy::Bounds> wants;
    for (const auto& [rank, b] : holders) {
        auto common = diy::intersect(b, box);
        if (!common) continue;
        diy::BinaryBuffer bb;
        bb.save(name);
        bb.save<std::int32_t>(version);
        common->save(bb);
        producers_.send(rank, tag_pull, std::move(bb).take());
        wants.push_back(*common);
    }
    std::size_t k = 0;
    for (const auto& [rank, b] : holders) {
        if (!diy::intersects(b, box)) continue;
        std::vector<std::byte> payload;
        producers_.recv(rank, tag_pull_reply, payload);
        insert_box(box, static_cast<std::byte*>(out), wants[k], payload.data(), elem);
        ++k;
    }
}

void ConsumerClient::done() {
    for (int p = 0; p < producers_.peer_size(); ++p)
        producers_.send(p, tag_done, nullptr, 0);
}

void ConsumerClient::finalize() {
    for (int s = 0; s < servers_.peer_size(); ++s) {
        diy::BinaryBuffer bb;
        bb.save(static_cast<std::uint8_t>(Req::Finalize));
        servers_.send(s, tag_index, std::move(bb).take());
    }
}

} // namespace baselines::dataspaces
