#include "comm.hpp"

#include <obs/trace.hpp>

#include <algorithm>
#include <map>

namespace simmpi {

namespace {

void append_bytes(std::vector<std::byte>& out, const void* data, std::size_t n) {
    const auto* p = static_cast<const std::byte*>(data);
    out.insert(out.end(), p, p + n);
}

} // namespace

void Comm::set_default_deadline(std::int64_t ms) const {
    if (!world_) throw Error("simmpi: operation on an invalid communicator");
    world_->set_default_timeout_ms(ms);
}

std::int64_t Comm::effective_deadline_ms() const {
    if (!world_) return -1;
    std::int64_t ms = timeout_ms_ >= 0 ? timeout_ms_ : world_->default_timeout_ms();
    return ms > 0 ? ms : -1;
}

detail::Deadline Comm::deadline() const {
    std::int64_t ms = effective_deadline_ms();
    if (ms <= 0) return {};
    return {std::chrono::steady_clock::now() + std::chrono::milliseconds(ms), ms};
}

detail::Mailbox& Comm::peer_mailbox(int dest) const {
    if (!world_) throw Error("simmpi: operation on an invalid communicator");
    if (dest < 0 || dest >= peer_size())
        throw Error("simmpi: destination rank " + std::to_string(dest) + " out of range (peer size "
                    + std::to_string(peer_size()) + ")");
    return world_->mailbox(peer_group_[static_cast<std::size_t>(dest)]);
}

void Comm::send(int dest, int tag, const void* data, std::size_t bytes) const {
    std::vector<std::byte> payload(bytes);
    if (bytes) std::memcpy(payload.data(), data, bytes);
    send(dest, tag, std::move(payload));
}

void Comm::send(int dest, int tag, std::vector<std::byte>&& payload) const {
    send_shared(dest, tag, make_shared_payload(std::move(payload)));
}

void Comm::send_shared(int dest, int tag, SharedPayload payload) const {
    if (tag < 0) throw Error("simmpi: user tags must be non-negative");
    if (!world_) throw Error("simmpi: operation on an invalid communicator");
    sched_point("send");
    world_->check_abort();
    fault_op(tag, true);
    obs::instant("pt2pt.send", "simmpi",
                 {{"comm", context_, nullptr},
                  {"peer", static_cast<std::uint64_t>(dest), nullptr},
                  {"tag", static_cast<std::uint64_t>(tag), nullptr},
                  {"bytes", payload ? payload->size() : 0, nullptr}});
    detail::Envelope env;
    env.context = context_;
    env.src     = rank_;
    env.tag     = tag;
    env.payload = std::move(payload);
    if (auto* ck = checker())
        env.check_seq = ck->on_send(world_rank(), peer_world_rank(dest), context_, tag,
                                    env.size());
    peer_mailbox(dest).push(std::move(env));
}

Status Comm::recv_payload(int src, int tag, const char* span_name, SharedPayload& out) const {
    if (!world_) throw Error("simmpi: operation on an invalid communicator");
    sched_point("recv");
    obs::Span span(span_name, "simmpi",
                   {{"comm", context_, nullptr},
                    {"peer", static_cast<std::uint64_t>(src), nullptr},
                    {"tag", static_cast<std::uint64_t>(tag), nullptr}});
    fault_op(tag, false);
    detail::Envelope env = my_mailbox().pop(context_, src, tag, deadline());
    Status           st{env.src, env.tag, env.size(), env.check_seq};
    if (auto* ck = checker())
        ck->on_recv(world_rank(), context_, peer_world_rank(src), tag,
                    peer_world_rank(env.src), env.tag, env.check_seq);
    span.end_arg("bytes", st.count);
    out = std::move(env.payload);
    return st;
}

Status Comm::recv(int src, int tag, std::vector<std::byte>& out) const {
    SharedPayload payload;
    Status        st = recv_payload(src, tag, "pt2pt.recv", payload);
    out              = detail::take_payload(std::move(payload));
    return st;
}

Status Comm::recv_shared(int src, int tag, SharedPayload& out) const {
    return recv_payload(src, tag, "pt2pt.recv_shared", out);
}

Status Comm::recv_into(int src, int tag, void* buf, std::size_t capacity) const {
    // copy straight out of the envelope's payload: one copy whether or
    // not the buffer is shared with other destinations
    SharedPayload payload;
    Status        st = recv_payload(src, tag, "pt2pt.recv", payload);
    if (st.count > capacity) {
        check_count(src, tag, "recv_into", capacity, st.count);
        throw Error("simmpi: recv_into buffer too small (" + std::to_string(capacity)
                    + " < " + std::to_string(st.count) + ")");
    }
    if (st.count) std::memcpy(buf, payload->data(), st.count);
    return st;
}

Status Comm::probe(int src, int tag) const {
    if (!world_) throw Error("simmpi: operation on an invalid communicator");
    sched_point("probe");
    obs::Span span("pt2pt.probe", "simmpi",
                   {{"comm", context_, nullptr},
                    {"tag", static_cast<std::uint64_t>(tag), nullptr}});
    fault_op(tag, false);
    Status st = my_mailbox().probe_wait(context_, src, tag, deadline());
    if (auto* ck = checker())
        ck->on_probe(world_rank(), context_, peer_world_rank(src), tag,
                     peer_world_rank(st.source), st.tag, st.check_seq);
    return st;
}

std::optional<Status> Comm::iprobe(int src, int tag) const {
    if (!world_) throw Error("simmpi: operation on an invalid communicator");
    sched_point("iprobe");
    std::optional<Status> st = my_mailbox().probe(context_, src, tag);
    if (st)
        if (auto* ck = checker())
            ck->on_probe(world_rank(), context_, peer_world_rank(src), tag,
                         peer_world_rank(st->source), st->tag, st->check_seq);
    return st;
}

Status Comm::probe_any(std::span<const Comm* const> comms, int src, int tag, std::size_t* which) {
    if (comms.empty()) throw Error("simmpi: probe_any needs at least one communicator");
    const Comm& first = *comms.front();
    if (!first.world_) throw Error("simmpi: probe_any on an invalid communicator");

    std::vector<std::uint64_t> contexts;
    contexts.reserve(comms.size());
    for (const Comm* c : comms) {
        if (!c->world_ || c->world_ != first.world_
            || c->group_[static_cast<std::size_t>(c->rank_)]
                   != first.group_[static_cast<std::size_t>(first.rank_)])
            throw Error("simmpi: probe_any communicators must share this rank's mailbox");
        contexts.push_back(c->context_);
    }
    obs::Span span("pt2pt.probe_any", "simmpi",
                   {{"comms", contexts.size(), nullptr},
                    {"tag", static_cast<std::uint64_t>(tag), nullptr}});
    first.sched_point("probe_any");
    first.fault_op(tag, false);
    std::size_t k  = 0;
    Status      st = first.my_mailbox().probe_wait_any(contexts, src, tag, &k, first.deadline());
    const Comm& hit = *comms[k];
    if (auto* ck = hit.checker())
        ck->on_probe(hit.world_rank(), hit.context_, hit.peer_world_rank(src), tag,
                     hit.peer_world_rank(st.source), st.tag, st.check_seq);
    if (which) *which = k;
    return st;
}

Request Comm::isend(int dest, int tag, const void* data, std::size_t bytes) const {
    send(dest, tag, data, bytes); // buffered: completes immediately
    return Request::completed_send(bytes);
}

Request Comm::irecv(int src, int tag, std::vector<std::byte>& out) const {
    Request r = Request::pending_recv(*this, src, tag, &out);
    if (auto* ck = checker()) r.check_id_ = ck->on_irecv(world_rank(), peer_world_rank(src), tag);
    return r;
}

void Comm::check_count(int src, int tag, const char* what, std::size_t expected,
                       std::size_t got) const {
    if (auto* ck = checker())
        ck->on_count_mismatch(world_rank(), peer_world_rank(src), tag, what, expected, got);
}

void Comm::coll_check(const char* kind, int root, std::size_t elem) const {
    if (auto* ck = checker()) ck->on_collective(world_rank(), context_, kind, root, elem);
}

// --- internal collective plumbing -----------------------------------------

void Comm::coll_send(int dest, int tag, std::span<const std::byte> data) const {
    coll_send(dest, tag, std::vector<std::byte>(data.begin(), data.end()));
}

void Comm::coll_send(int dest, int tag, std::vector<std::byte>&& data) const {
    coll_send_shared(dest, tag, make_shared_payload(std::move(data)));
}

void Comm::coll_send_shared(int dest, int tag, SharedPayload data) const {
    sched_point("coll_send");
    world_->check_abort();
    fault_op(tag, true);
    detail::Envelope env;
    env.context = coll_context();
    env.src     = rank_;
    env.tag     = tag;
    env.payload = std::move(data);
    if (auto* ck = checker())
        env.check_seq = ck->on_send(world_rank(), peer_world_rank(dest), coll_context(), tag,
                                    env.size(), /*collective=*/true);
    peer_mailbox(dest).push(std::move(env));
}

std::vector<std::byte> Comm::coll_recv(int src, int tag) const {
    sched_point("coll_recv");
    fault_op(tag, false);
    detail::Envelope env = my_mailbox().pop(coll_context(), src, tag, deadline());
    if (auto* ck = checker())
        ck->on_recv(world_rank(), coll_context(), peer_world_rank(src), tag,
                    peer_world_rank(env.src), env.tag, env.check_seq);
    return detail::take_payload(std::move(env.payload));
}

// --- collectives ------------------------------------------------------------

void Comm::barrier() const {
    check_intra("barrier");
    coll_check("barrier", -1, 0);
    obs::Span span("coll.barrier", "simmpi",
                   {{"comm", context_, nullptr},
                    {"size", static_cast<std::uint64_t>(size()), nullptr}});
    const int tag = static_cast<int>((*coll_seq_)++ % (1u << 28)) * 4;
    if (rank_ == 0) {
        for (int r = 1; r < size(); ++r) (void)coll_recv(r, tag);
        for (int r = 1; r < size(); ++r) coll_send(r, tag + 1, std::vector<std::byte>{});
    } else {
        coll_send(0, tag, std::vector<std::byte>{});
        (void)coll_recv(0, tag + 1);
    }
}

void Comm::bcast(std::vector<std::byte>& data, int root) const { bcast_n(data, root, 0); }

void Comm::bcast_n(std::vector<std::byte>& data, int root, std::size_t elem) const {
    check_intra("bcast");
    coll_check("bcast", root, elem);
    obs::Span span("coll.bcast", "simmpi",
                   {{"comm", context_, nullptr},
                    {"root", static_cast<std::uint64_t>(root), nullptr},
                    {"bytes", data.size(), nullptr}});
    const int tag = static_cast<int>((*coll_seq_)++ % (1u << 28)) * 4;
    if (rank_ == root) {
        // one refcounted buffer fanned out to the whole group (the root
        // keeps `data`, so a single copy replaces the former N-1)
        auto shared = make_shared_payload(std::vector<std::byte>(data.begin(), data.end()));
        for (int r = 0; r < size(); ++r)
            if (r != root) coll_send_shared(r, tag, shared);
    } else {
        data = coll_recv(root, tag);
    }
}

std::vector<std::vector<std::byte>> Comm::gather(std::span<const std::byte> mine, int root) const {
    return gather_n(mine, root, 0);
}

std::vector<std::vector<std::byte>> Comm::gather_n(std::span<const std::byte> mine, int root,
                                                   std::size_t elem) const {
    check_intra("gather");
    coll_check("gather", root, elem);
    obs::Span span("coll.gather", "simmpi",
                   {{"comm", context_, nullptr},
                    {"root", static_cast<std::uint64_t>(root), nullptr},
                    {"bytes", mine.size(), nullptr}});
    const int tag = static_cast<int>((*coll_seq_)++ % (1u << 28)) * 4;
    std::vector<std::vector<std::byte>> out;
    if (rank_ == root) {
        out.resize(static_cast<std::size_t>(size()));
        out[static_cast<std::size_t>(root)].assign(mine.begin(), mine.end());
        for (int r = 0; r < size(); ++r)
            if (r != root) out[static_cast<std::size_t>(r)] = coll_recv(r, tag);
    } else {
        coll_send(root, tag, mine);
    }
    return out;
}

std::vector<std::vector<std::byte>> Comm::allgather(std::span<const std::byte> mine) const {
    return allgather_n(mine, 0);
}

std::vector<std::vector<std::byte>> Comm::allgather_n(std::span<const std::byte> mine,
                                                      std::size_t elem) const {
    check_intra("allgather");
    coll_check("allgather", -1, elem);
    obs::Span span("coll.allgather", "simmpi",
                   {{"comm", context_, nullptr}, {"bytes", mine.size(), nullptr}});
    // gather at rank 0, then broadcast the concatenation (2N messages, not N^2)
    auto gathered = gather_n(mine, 0, elem);

    std::vector<std::byte> packed;
    if (rank_ == 0) {
        for (auto& part : gathered) {
            std::uint64_t n = part.size();
            append_bytes(packed, &n, sizeof(n));
            append_bytes(packed, part.data(), part.size());
        }
    }
    bcast(packed, 0);

    std::vector<std::vector<std::byte>> out(static_cast<std::size_t>(size()));
    std::size_t                         off = 0;
    for (auto& part : out) {
        std::uint64_t n = 0;
        std::memcpy(&n, packed.data() + off, sizeof(n));
        off += sizeof(n);
        part.assign(packed.begin() + static_cast<std::ptrdiff_t>(off),
                    packed.begin() + static_cast<std::ptrdiff_t>(off + n));
        off += n;
    }
    return out;
}

std::vector<std::vector<std::byte>> Comm::alltoall(std::vector<std::vector<std::byte>>&& outgoing) const {
    check_intra("alltoall");
    if (outgoing.size() != static_cast<std::size_t>(size()))
        throw Error("simmpi: alltoall requires one payload per rank");
    coll_check("alltoall", -1, 0);
    std::size_t out_bytes = 0;
    for (const auto& p : outgoing) out_bytes += p.size();
    obs::Span span("coll.alltoall", "simmpi",
                   {{"comm", context_, nullptr}, {"bytes", out_bytes, nullptr}});
    const int tag = static_cast<int>((*coll_seq_)++ % (1u << 28)) * 4;
    for (int r = 0; r < size(); ++r)
        coll_send(r, tag, std::move(outgoing[static_cast<std::size_t>(r)]));
    std::vector<std::vector<std::byte>> incoming(static_cast<std::size_t>(size()));
    for (int r = 0; r < size(); ++r)
        incoming[static_cast<std::size_t>(r)] = coll_recv(r, tag);
    return incoming;
}

std::vector<std::byte> Comm::scatter(std::vector<std::vector<std::byte>>&& parts, int root) const {
    return scatter_n(std::move(parts), root, 0);
}

std::vector<std::byte> Comm::scatter_n(std::vector<std::vector<std::byte>>&& parts, int root,
                                       std::size_t elem) const {
    check_intra("scatter");
    coll_check("scatter", root, elem);
    obs::Span span("coll.scatter", "simmpi",
                   {{"comm", context_, nullptr},
                    {"root", static_cast<std::uint64_t>(root), nullptr}});
    const int tag = static_cast<int>((*coll_seq_)++ % (1u << 28)) * 4;
    if (rank_ == root) {
        if (parts.size() != static_cast<std::size_t>(size()))
            throw Error("simmpi: scatter requires one part per rank");
        for (int r = 0; r < size(); ++r) {
            if (r == root) continue;
            coll_send(r, tag, std::move(parts[static_cast<std::size_t>(r)]));
        }
        return std::move(parts[static_cast<std::size_t>(root)]);
    }
    return coll_recv(root, tag);
}

// --- communicator management -------------------------------------------------

Comm Comm::split(int color, int key) const {
    check_intra("split");

    struct Entry {
        int color, key, rank;
    };
    auto entries = allgather_value(Entry{color, key, rank_});

    // distinct colors, sorted, determine context assignment
    std::vector<int> colors;
    for (const auto& e : entries) colors.push_back(e.color);
    std::sort(colors.begin(), colors.end());
    colors.erase(std::unique(colors.begin(), colors.end()), colors.end());

    std::uint64_t base = 0;
    if (rank_ == 0) base = world_->reserve_contexts(2 * colors.size());
    base = bcast_value(base, 0);

    const auto color_idx = static_cast<std::size_t>(
        std::lower_bound(colors.begin(), colors.end(), color) - colors.begin());

    // my subgroup, ordered by (key, parent rank)
    std::vector<Entry> mine;
    for (const auto& e : entries)
        if (e.color == color) mine.push_back(e);
    std::stable_sort(mine.begin(), mine.end(), [](const Entry& a, const Entry& b) {
        return a.key != b.key ? a.key < b.key : a.rank < b.rank;
    });

    std::vector<int> group;
    int              new_rank = -1;
    for (const auto& e : mine) {
        if (e.rank == rank_) new_rank = static_cast<int>(group.size());
        group.push_back(group_[static_cast<std::size_t>(e.rank)]);
    }
    return Comm(world_, base + 2 * color_idx, group, group, new_rank, false);
}

Comm Comm::dup() const {
    check_intra("dup");
    std::uint64_t base = 0;
    if (rank_ == 0) base = world_->reserve_contexts(2);
    base = bcast_value(base, 0);
    return Comm(world_, base, group_, peer_group_, rank_, inter_);
}

Comm Comm::create_intercomm(const Comm& parent, std::span<const int> group_a,
                            std::span<const int> group_b) {
    parent.check_intra("create_intercomm");
    std::uint64_t base = 0;
    if (parent.rank_ == 0) base = parent.world_->reserve_contexts(2);
    base = parent.bcast_value(base, 0);

    auto to_world = [&](std::span<const int> parent_ranks) {
        std::vector<int> world_ranks;
        world_ranks.reserve(parent_ranks.size());
        for (int pr : parent_ranks) {
            if (pr < 0 || pr >= parent.size())
                throw Error("simmpi: create_intercomm rank out of range");
            world_ranks.push_back(parent.group_[static_cast<std::size_t>(pr)]);
        }
        return world_ranks;
    };
    std::vector<int> wa = to_world(group_a);
    std::vector<int> wb = to_world(group_b);

    auto find_in = [&](std::span<const int> parent_ranks) {
        for (std::size_t i = 0; i < parent_ranks.size(); ++i)
            if (parent_ranks[i] == parent.rank_) return static_cast<int>(i);
        return -1;
    };
    int ia = find_in(group_a);
    int ib = find_in(group_b);
    if (ia >= 0 && ib >= 0)
        throw Error("simmpi: create_intercomm groups must be disjoint");

    if (ia >= 0) return Comm(parent.world_, base, wa, wb, ia, true);
    if (ib >= 0) return Comm(parent.world_, base, wb, wa, ib, true);
    return Comm{}; // not a member of either group
}

// --- Request -----------------------------------------------------------------

Status Request::wait() {
    if (!done_) {
        status_ = comm_.recv(src_, tag_, *out_);
        done_   = true;
        if (check_id_)
            if (auto* ck = comm_.checker()) ck->on_request_done(check_id_);
    }
    return status_;
}

bool Request::test(Status* status) {
    if (!done_) {
        if (!comm_.iprobe(src_, tag_)) return false;
        status_ = comm_.recv(src_, tag_, *out_);
        done_   = true;
        if (check_id_)
            if (auto* ck = comm_.checker()) ck->on_request_done(check_id_);
    }
    if (status) *status = status_;
    return true;
}

void wait_all(std::span<Request> requests) {
    for (auto& r : requests) r.wait();
}

} // namespace simmpi
