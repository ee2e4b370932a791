"""Tests for client-side fragment reconstruction (§2.4.3)."""

import pytest

from repro import errors
from repro.cluster import build_local_cluster
from repro.cluster.failures import FailureInjector
from repro.log.fragment import Fragment
from repro.log.reader import LogReader
from repro.log.reconstruct import Reconstructor
from repro.rpc import messages as m
from repro.rpc.transport import TransportWrapper

SVC = 3


def written_cluster(cluster, blocks=12, size=25000, **log_kwargs):
    log = cluster.make_log(client_id=1, **log_kwargs)
    payloads = [bytes([i + 1]) * size for i in range(blocks)]
    addresses = [log.write_block(SVC, payload) for payload in payloads]
    log.flush().wait()
    return log, payloads, addresses


def corrupt_payload(cluster, server_id, fid):
    """Flip one payload bit of a stored fragment, header left intact."""
    from repro.log.fragment import HEADER_SIZE

    FailureInjector(cluster).corrupt_fragment(
        server_id, fid, bit_index=8 * HEADER_SIZE + 3)


def count_retrieves(monkeypatch, server, fid):
    """Every later retrieve of ``fid`` from ``server`` appends to the
    returned list, whole, partial or batched alike."""
    seen = []
    retrieve, retrieve_many = server.retrieve, server.retrieve_many

    def counted(wanted, *args, **kwargs):
        if wanted == fid:
            seen.append(fid)
        return retrieve(wanted, *args, **kwargs)

    def counted_many(ranges, *args, **kwargs):
        seen.extend(f for f, _offset, _length in ranges if f == fid)
        return retrieve_many(ranges, *args, **kwargs)

    monkeypatch.setattr(server, "retrieve", counted)
    monkeypatch.setattr(server, "retrieve_many", counted_many)
    return seen


def stripe_of(cluster, log, fid):
    """(member_fid, server_id) per stripe member, in index order."""
    holder = log.known_location(fid)
    header = Fragment.decode(
        bytes(cluster.servers[holder].retrieve(fid))).header
    return [(header.stripe_base_fid + i, header.servers[i])
            for i in range(header.stripe_width)]


class TestReconstruction:
    def test_missing_data_fragment_rebuilt(self, cluster4):
        log, payloads, addresses = written_cluster(cluster4)
        victim = cluster4.servers["s1"]
        lost = victim.list_fids()
        victim.crash()
        rec = Reconstructor(cluster4.transport, "client-1")
        for fid in lost:
            image = rec.fetch(fid)
            fragment = Fragment.decode(image)
            assert fragment.fid == fid

    def test_reconstructed_blocks_byte_identical(self, cluster4):
        log, payloads, addresses = written_cluster(cluster4)
        direct = [log.read(addr) for addr in addresses]
        cluster4.servers["s0"].crash()
        fresh = cluster4.make_log(client_id=1)
        via_parity = [fresh.read(addr) for addr in addresses]
        assert via_parity == direct == payloads

    def test_missing_parity_fragment_recomputed(self, cluster4):
        log, _payloads, _addresses = written_cluster(cluster4)
        # Find a parity fragment and its host.
        parity_fid, host = None, None
        for sid, server in cluster4.servers.items():
            for fid in server.list_fids():
                fragment = Fragment.decode(server.retrieve(fid))
                if fragment.header.is_parity:
                    parity_fid, host = fid, sid
                    original = server.retrieve(fid)
        assert parity_fid is not None
        cluster4.servers[host].crash()
        rec = Reconstructor(cluster4.transport, "client-1")
        rebuilt = rec.fetch(parity_fid)
        rebuilt_fragment = Fragment.decode(rebuilt)
        original_fragment = Fragment.decode(original)
        assert rebuilt_fragment.header.is_parity
        assert rebuilt_fragment.payload == original_fragment.payload

    def test_two_failures_in_group_unrecoverable(self, cluster4):
        log, _payloads, _addresses = written_cluster(cluster4)
        lost = cluster4.servers["s1"].list_fids()
        cluster4.servers["s1"].crash()
        cluster4.servers["s2"].crash()
        rec = Reconstructor(cluster4.transport, "client-1")
        with pytest.raises(errors.ReconstructionError):
            rec.fetch(lost[0])

    def test_nonexistent_fragment_unreconstructable(self, cluster4):
        written_cluster(cluster4)
        rec = Reconstructor(cluster4.transport, "client-1")
        from repro.util.fids import make_fid

        with pytest.raises(errors.ReconstructionError):
            rec.fetch(make_fid(1, 4000))

    def test_reconstruction_counts_and_cache(self, cluster4):
        log, _payloads, _addresses = written_cluster(cluster4)
        lost = cluster4.servers["s1"].list_fids()
        cluster4.servers["s1"].crash()
        rec = Reconstructor(cluster4.transport, "client-1")
        rec.fetch(lost[0])
        rec.fetch(lost[0])  # second fetch served from the image cache
        assert rec.reconstructions == 1

    def test_rebuild_to_replacement_server(self, cluster4):
        from repro.server import ServerConfig, StorageServer

        log, payloads, addresses = written_cluster(cluster4)
        lost = sorted(cluster4.servers["s3"].list_fids())
        cluster4.servers["s3"].crash()
        spare = StorageServer(ServerConfig("spare", fragment_size=1 << 16))
        cluster4.transport.add_server(spare)
        rec = Reconstructor(cluster4.transport, "client-1")
        for fid in lost:
            rec.rebuild_to_server(fid, "spare")
        assert sorted(spare.list_fids()) == lost
        # A fresh reader finds the fragments on the spare via broadcast.
        fresh = cluster4.make_log(client_id=1)
        for i, addr in enumerate(addresses):
            assert fresh.read(addr) == payloads[i]

    def test_transparent_to_servers(self, cluster4):
        """Servers never see reconstruction traffic beyond ordinary
        retrieves: no special ops, no server-to-server calls."""
        log, _payloads, addresses = written_cluster(cluster4)
        before = {sid: server.retrieve_ops
                  for sid, server in cluster4.servers.items()}
        cluster4.servers["s1"].crash()
        log.read(addresses[0])
        # Only retrieve counters moved on the survivors.
        for sid, server in cluster4.servers.items():
            if sid == "s1":
                continue
            assert server.retrieve_ops >= before[sid]
            assert server.store_ops <= 20  # unchanged by reads


class TestCorruptionPaths:
    """Silent corruption: checksum mismatch must trigger a parity
    rebuild, and two damaged members must fail loudly, not quietly."""

    def test_crc_mismatch_triggers_rebuild(self, cluster4):
        log, payloads, addresses = written_cluster(cluster4)
        victim = None
        for sid in sorted(cluster4.servers):
            fids = sorted(cluster4.servers[sid].list_fids())
            if fids:
                victim, fid = sid, fids[0]
                break
        pristine = bytes(cluster4.servers[victim].retrieve(fid))
        corrupt_payload(cluster4, victim, fid)
        rec = Reconstructor(cluster4.transport, "client-1", verify=True)
        image = rec.fetch(fid)
        assert image == pristine
        assert rec.corruptions_detected == 1
        assert rec.reconstructions == 1

    def test_unverified_fetch_misses_corruption(self, cluster4):
        """Without verify=True the direct path trusts the server — the
        flag, not the Reconstructor, buys the end-to-end check."""
        log, _payloads, _addresses = written_cluster(cluster4)
        for sid in sorted(cluster4.servers):
            fids = sorted(cluster4.servers[sid].list_fids())
            if fids:
                victim, fid = sid, fids[0]
                break
        pristine = bytes(cluster4.servers[victim].retrieve(fid))
        corrupt_payload(cluster4, victim, fid)
        rec = Reconstructor(cluster4.transport, "client-1")
        assert rec.fetch(fid) != pristine

    def test_corrupt_plus_crash_is_unrecoverable(self, cluster4):
        """One corrupt member + one crashed member of the same stripe:
        single parity cannot recover both, and the error must say so.

        Member 0 is corrupted and member 2's server crashed; member 1
        stays healthy so the stripe descriptor itself is discoverable —
        the failure is about recovery, not location.
        """
        log, _payloads, addresses = written_cluster(cluster4)
        members = stripe_of(cluster4, log, addresses[0].fid)
        target_fid, target_server = members[0]
        corrupt_payload(cluster4, target_server, target_fid)
        cluster4.servers[members[2][1]].crash()
        rec = Reconstructor(cluster4.transport, "client-1", verify=True)
        with pytest.raises(errors.UnrecoverableError) as excinfo:
            rec.fetch(target_fid)
        assert "single parity cannot recover both" in str(excinfo.value)

    def test_double_corruption_is_unrecoverable(self, cluster4):
        log, _payloads, addresses = written_cluster(cluster4)
        members = stripe_of(cluster4, log, addresses[0].fid)
        for member_fid, member_server in (members[0], members[2]):
            corrupt_payload(cluster4, member_server, member_fid)
        rec = Reconstructor(cluster4.transport, "client-1", verify=True)
        with pytest.raises(errors.UnrecoverableError):
            rec.fetch(members[0][0])

    def test_unrecoverable_is_a_reconstruction_error(self):
        # Existing callers catching ReconstructionError keep working.
        assert issubclass(errors.UnrecoverableError,
                          errors.ReconstructionError)


@pytest.mark.usefixtures("two_second_allowance")
class TestLongLivedCache:
    """The log layer keeps one reconstructor, so a lost fragment is
    rebuilt once for all the block reads that land in it."""

    def _lose_a_full_fragment(self, cluster, log, addresses, blocks=8):
        """Crash the server of a fragment holding ``blocks`` blocks;
        returns those blocks' indices and their fragment's fid."""
        by_fid = {}
        for index, addr in enumerate(addresses):
            by_fid.setdefault(addr.fid, []).append(index)
        fid = next(fid for fid, indices in sorted(by_fid.items())
                   if len(indices) >= blocks)
        cluster.servers[log.known_location(fid)].crash()
        return by_fid[fid][:blocks], fid

    def test_eight_reads_of_a_lost_fragment_rebuild_it_once(
            self, cluster4, monkeypatch):
        log, payloads, addresses = written_cluster(cluster4, blocks=40,
                                                   size=4096)
        indices, _fid = self._lose_a_full_fragment(cluster4, log, addresses)
        survivors = [s for s in cluster4.servers.values() if s.available]

        def retrieves():
            return sum(server.retrieve_ops for server in survivors)

        bills = []
        real = Reconstructor.reconstruct

        def counted(self, fid):
            before = retrieves()
            try:
                return real(self, fid)
            finally:
                bills.append(retrieves() - before)

        monkeypatch.setattr(Reconstructor, "reconstruct", counted)
        before = retrieves()
        for index in indices:
            assert log.read(addresses[index]) == payloads[index]
        assert len(bills) == 1
        assert bills[0] > 0
        assert retrieves() - before == bills[0]
        report = log.health_report()["log"]["reconstruct"]
        assert report["reconstructions"] == 1
        assert report["cached_images"] == 1

    def test_healthy_run_leaves_the_cache_empty(self, cluster4):
        log, payloads, addresses = written_cluster(cluster4)
        assert [log.read(addr) for addr in addresses] == payloads
        assert log.read_ranges([(a.fid, a.offset, a.length)
                                for a in addresses]) == payloads
        # A direct fetch through the reconstructor is never cached.
        log.reconstructor.fetch(addresses[0].fid)
        assert not log.reconstructor.cache
        assert log.health_report()["log"]["reconstruct"] == {
            "reconstructions": 0, "corruptions_detected": 0,
            "cached_images": 0}

    def test_delete_evicts_the_rebuilt_image(self, cluster4):
        log, payloads, addresses = written_cluster(cluster4, blocks=40,
                                                   size=4096)
        indices, fid = self._lose_a_full_fragment(cluster4, log, addresses)
        addr = addresses[indices[0]]
        assert log.read(addr) == payloads[indices[0]]
        assert fid in log.reconstructor.cache
        header = Fragment.decode(log.reconstructor.cache[fid]).header
        assert log.delete_fids(header.sibling_fids()) == []
        assert fid not in log.reconstructor.cache
        with pytest.raises(errors.ReconstructionError):
            log.read(addr)

    @pytest.mark.parametrize("verify_reads", [False, True])
    def test_corrupt_survivor(self, verify_reads, monkeypatch):
        """RS(2+2): the read fragment's server is down and the stripe's
        other data member is silently corrupt. Unverified, the corrupt
        survivor poisons the decode and nothing is cached; verified, it
        is erased too — retrieved and counted once — and both are
        rebuilt from the two parities."""
        cluster = build_local_cluster(num_servers=4, fragment_size=1 << 16,
                                      server_slots=512)
        log = cluster.make_log(client_id=1, parity_fragments=2,
                               coding="rs", verify_reads=verify_reads)
        payloads = [bytes([i + 1]) * 25000 for i in range(8)]
        addresses = [log.write_block(SVC, payload) for payload in payloads]
        log.flush().wait()
        members = stripe_of(cluster, log, addresses[0].fid)
        lost = next(index for index, (fid, _server) in enumerate(members)
                    if fid == addresses[0].fid)
        other_fid, other_server = members[1 - lost]
        corrupt_payload(cluster, other_server, other_fid)
        cluster.servers[members[lost][1]].crash()
        retrieves = count_retrieves(monkeypatch, cluster.servers[other_server],
                                    other_fid)
        if not verify_reads:
            with pytest.raises(errors.ReconstructionError):
                log.read(addresses[0])
            assert not log.reconstructor.cache
            return
        assert log.read(addresses[0]) == payloads[0]
        assert log.reconstructor.corruptions_detected == len(retrieves) == 1
        assert sorted(log.reconstructor.cache) == sorted(
            (addresses[0].fid, other_fid))


@pytest.mark.usefixtures("two_second_allowance")
class TestOneLadder:
    """Every read entry point climbs the reconstructor's one ladder: a
    bad copy is retrieved once, counted once, and rebuilt from parity;
    a fragment nobody holds is located by one broadcast."""

    ENTRY_POINTS = ["log.read_fragment", "log.read_range", "log.read_ranges",
                    "reader.read_fragment", "reader.read_fragment(prefetched)"]

    def _read(self, cluster, log, addr, entry):
        """The block at ``addr`` read through ``entry``, and the
        reconstructor that served it."""
        if entry == "log.read_range":
            return (log.read_range(addr.fid, addr.offset, addr.length),
                    log.reconstructor)
        if entry == "log.read_ranges":
            return (log.read_ranges([(addr.fid, addr.offset, addr.length)])[0],
                    log.reconstructor)
        if entry == "log.read_fragment":
            image = log.read_fragment(addr.fid)
            reconstructor = log.reconstructor
        else:
            reader = LogReader(Reconstructor(
                cluster.transport, log.config.principal,
                locations=log.locations, verify=log.reconstructor.verify))
            prefetched = None
            if entry.endswith("(prefetched)"):
                prefetched = cluster.transport.call(
                    log.known_location(addr.fid), m.RetrieveRequest(
                        fid=addr.fid, principal=log.config.principal),
                ).payload
            image = reader.read_fragment(addr.fid, prefetched).encode()
            reconstructor = reader.reconstructor
        return (bytes(image[addr.offset:addr.offset + addr.length]),
                reconstructor)

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_corrupt_copy_is_retrieved_once(self, cluster4, monkeypatch,
                                            entry):
        log, payloads, addresses = written_cluster(cluster4,
                                                   verify_reads=True)
        addr = addresses[0]
        holder = log.known_location(addr.fid)
        corrupt_payload(cluster4, holder, addr.fid)
        retrieves = count_retrieves(monkeypatch, cluster4.servers[holder],
                                    addr.fid)
        data, reconstructor = self._read(cluster4, log, addr, entry)
        assert data == payloads[0]
        assert len(retrieves) == 1
        assert reconstructor.corruptions_detected == 1
        assert reconstructor.reconstructions == 1

    @pytest.mark.parametrize("entry", ["log.read_fragment",
                                       "reader.read_fragment"])
    def test_unverified_torn_copy_is_rebuilt(self, cluster4, monkeypatch,
                                             entry):
        """The header check is not optional: a torn copy is an erasure
        even when payload checksums are off."""
        log, payloads, addresses = written_cluster(cluster4)
        addr = addresses[0]
        holder = log.known_location(addr.fid)
        FailureInjector(cluster4).tear_fragment(holder, addr.fid,
                                                keep_fraction=0.25)
        retrieves = count_retrieves(monkeypatch, cluster4.servers[holder],
                                    addr.fid)
        data, reconstructor = self._read(cluster4, log, addr, entry)
        assert data == payloads[0]
        assert len(retrieves) == 1
        assert reconstructor.corruptions_detected == 1

    @pytest.mark.parametrize("entry", ["log.read_fragment",
                                       "reader.read_fragment"])
    def test_unlocatable_fid_costs_one_broadcast(self, cluster4, monkeypatch,
                                                 entry):
        from repro.util.fids import make_fid

        log, _payloads, _addresses = written_cluster(cluster4)
        reader = LogReader(Reconstructor(
            cluster4.transport, log.config.principal,
            locations=log.locations))
        before_parity = []
        real = Reconstructor.reconstruct

        def counted(self, fid):
            before_parity.append(log.locations.broadcasts - start)
            return real(self, fid)

        monkeypatch.setattr(Reconstructor, "reconstruct", counted)
        fid = make_fid(1, 4000)
        start = log.locations.broadcasts
        if entry == "reader.read_fragment":
            assert reader.read_fragment(fid) is None
        else:
            with pytest.raises(errors.ReconstructionError):
                log.read_fragment(fid)
        assert before_parity == [1]


@pytest.mark.usefixtures("two_second_allowance")
class TestVerifiedRollforward:
    """A verified client recovers through verified reads: records carry
    no checksum of their own, so only the fragment's payload CRC stands
    between a flipped bit and a wrong recovered block."""

    @pytest.mark.parametrize("record_offset", range(8, 37, 4))
    def test_flipped_record_bit_is_rebuilt_not_replayed(self, cluster4,
                                                        record_offset):
        from repro.chaos.harness import build_client, read_all
        from repro.log.config import LogConfig

        config = LogConfig(client_id=1, fragment_size=1 << 16)
        group = sorted(cluster4.servers)
        client = build_client(cluster4.transport, group, config,
                              verify_reads=True)
        oracle = {block: bytes([block + 1]) * 3000 for block in range(20)}
        for block, data in oracle.items():
            client.disk.write(block, data)
        client.stack.flush().wait()
        # The newest record is the last one in the newest data fragment.
        images = {(fid, sid): Fragment.decode(bytes(server.retrieve(fid)))
                  for sid, server in cluster4.servers.items()
                  for fid in server.list_fids()}
        fid, holder = max(key for key, fragment in images.items()
                          if not fragment.header.is_parity)
        last = [item for item in images[fid, holder].items()
                if item.record is not None][-1]
        FailureInjector(cluster4).corrupt_fragment(
            holder, fid, bit_index=8 * (last.data_offset + record_offset))
        fresh = build_client(cluster4.transport, group, config,
                             verify_reads=True)
        fresh.stack.recover_all()
        assert read_all(fresh.disk) == oracle


class Recording(TransportWrapper):
    """Keeps every single call's request and every scattered plan."""

    def __init__(self, inner):
        super().__init__(inner)
        self.calls, self.plans = [], []

    def call(self, server_id, request):
        self.calls.append(request)
        return self.inner.call(server_id, request)

    def submit_many(self, plan):
        plan = list(plan)
        self.plans.append([request for _server_id, request in plan])
        return self.inner.submit_many(plan)

    def requests(self):
        return self.calls + [r for plan in self.plans for r in plan]

    def clear(self):
        del self.calls[:], self.plans[:]


def rs_stripe(cluster, **log_kwargs):
    """One full RS(4+2) stripe over s0..s5: returns the log, its block
    payloads and addresses, and ``(fid, server)`` per member."""
    log, payloads, addresses = written_cluster(
        cluster, blocks=8, group=cluster.stripe_group(
            ["s0", "s1", "s2", "s3", "s4", "s5"]),
        parity_fragments=2, coding="rs", **log_kwargs)
    members = stripe_of(cluster, log, addresses[0].fid)
    assert len(members) == 6
    return log, payloads, addresses, members


@pytest.fixture
def cluster8():
    """Eight servers: an RS(4+2) group s0..s5 plus spares s6 and s7."""
    return build_local_cluster(num_servers=8, fragment_size=1 << 16,
                               server_slots=512)


@pytest.mark.usefixtures("two_second_allowance")
class TestStripeTable:
    """A client rebuilds a stripe it sealed, or learned in a census,
    from the table: no descriptor probe, no location broadcast, one
    survivor scatter, and only what was asked for."""

    def test_sealed_stripe_rebuild_is_one_scatter_no_broadcast(
            self, cluster4):
        recording = Recording(cluster4.transport)
        log, payloads, addresses = written_cluster(cluster4,
                                                   transport=recording)
        cluster4.servers[log.known_location(addresses[0].fid)].crash()
        recording.clear()
        assert log.read(addresses[0]) == payloads[0]
        assert not any(isinstance(request, m.HoldsRequest)
                       for request in recording.requests())
        assert [len(plan) for plan in recording.plans] == [3]
        assert all(isinstance(request, m.RetrieveRequest)
                   for request in recording.plans[0])

    def test_census_seeds_the_table_of_a_recovered_client(
            self, cluster4, monkeypatch):
        from repro.services.logical_disk import LogicalDiskService

        stack = cluster4.make_stack(client_id=1)
        disk = stack.push(LogicalDiskService(2))
        blocks = {block: bytes([block + 1]) * 20000 for block in range(12)}
        first_fid = {block: disk.write(block, data).fid
                     for block, data in blocks.items()}[0]
        stack.flush().wait()
        fresh = cluster4.make_stack(client_id=1)
        fresh_disk = fresh.push(LogicalDiskService(2))
        fresh.recover_all()
        cluster4.servers[fresh.log.known_location(first_fid)].crash()
        probes = []
        real = Reconstructor._probe_stripe

        def probe(self, fid):
            probes.append(fid)
            return real(self, fid)

        monkeypatch.setattr(Reconstructor, "_probe_stripe", probe)
        broadcasts = fresh.log.locations.broadcasts
        assert {block: fresh_disk.read(block) for block in blocks} == blocks
        assert fresh.log.reconstructor.reconstructions > 0
        assert probes == []
        assert fresh.log.locations.broadcasts == broadcasts

    def test_both_neighbours_of_a_mid_stripe_fid_in_one_scatter(
            self, cluster8):
        """RS(4+2): fid - 1 and fid + 1 are lost, fid is not (a third
        erasure would exceed the parity), so no probe of a lost fid's
        neighbours can find the descriptor at distance 1. Reading either
        rebuilds both from the four survivors in one scatter."""
        recording = Recording(cluster8.transport)
        log, _payloads, _addresses, members = rs_stripe(cluster8,
                                                        transport=recording)
        (before, _), _middle, (after, _) = members[1:4]
        images = {fid: bytes(cluster8.servers[server].retrieve(fid))
                  for fid, server in members}
        for fid in (before, after):
            cluster8.servers[dict(members)[fid]].crash()
        recording.clear()
        assert log.read_fragment(before) == images[before]
        assert log.read_fragment(after) == images[after]
        # The lost copy's own retrieve, then one rebuild scatter to
        # every other member; the second read is served from the cache.
        assert [sorted(r.fid for r in plan) for plan in recording.plans] \
            == [[before], sorted(fid for fid, _server in members
                                 if fid != before)]

    def test_data_read_rebuilds_no_parity(self, cluster8):
        log, payloads, addresses, members = rs_stripe(cluster8)
        data_fid, data_server = members[0]
        parity_fid, parity_server = members[4]
        for server in (data_server, parity_server):
            cluster8.servers[server].crash()
        block = next(index for index, addr in enumerate(addresses)
                     if addr.fid == data_fid)
        assert log.read(addresses[block]) == payloads[block]
        assert list(log.reconstructor.cache) == [data_fid]
        assert parity_fid not in log.reconstructor.cache

    def test_repair_fetches_each_survivor_once(self, cluster8):
        """A stripe that lost one data and one parity member: repair
        asks for the parity first, and that one survivor fetch also
        rebuilds the data member."""
        from collections import Counter

        from repro.health import RepairDaemon

        recording = Recording(cluster8.transport)
        log, _payloads, _addresses, members = rs_stripe(cluster8,
                                                        transport=recording)
        lost = [members[1], members[5]]
        for _fid, server in lost:
            cluster8.servers[server].crash()
        recording.clear()
        daemon = RepairDaemon(recording, 1, ["s6", "s7"],
                              locations=log.locations)
        assert daemon.run() == 2
        whole_reads = Counter(r.fid for r in recording.requests()
                              if isinstance(r, m.RetrieveRequest)
                              and r.length == -1)
        # Each of the four survivors once and each repaired copy's
        # read-back once; the lost data member is also tried once at
        # the home its descriptor names, in the rebuild's scatter.
        assert whole_reads == Counter(fid for fid, _server in members) \
            + Counter([lost[0][0]])
        assert [type(plan[0]) for plan in recording.plans
                if any(isinstance(r, m.HoldsRequest) for r in plan)] == \
            [m.HoldsRequest]
        assert {log.locations.get(fid) for fid, _server in lost} == \
            {"s6", "s7"}

    def test_a_read_past_the_end_costs_two_broadcasts(self):
        """Every stripe below the fid is in the table, so the probe's
        window is the fids above it: the read's own locate and the
        window make one broadcast each, no header is read, and no
        table lookup is counted as a hit."""
        from collections import Counter

        from repro.bench.ablations import _fill_stripes

        cluster, log, _addresses = _fill_stripes(4, 1 << 16, stripes=4)
        last = max(fid for node in cluster.server_nodes.values()
                   for fid in node.server.list_fids())
        recording = Recording(log.transport)
        log.locations.transport = log.reconstructor.transport = recording
        log.transport.take_deferred_time()
        hits = log.locations.hits
        with pytest.raises(errors.ReconstructionError):
            log.read_fragment(last + 1)
        assert Counter(type(request).__name__
                       for request in recording.requests()) == \
            {"HoldsRequest": 8}
        assert log.transport.take_deferred_time() < 0.01
        # Bounding the window by the table is not a lookup.
        assert log.locations.hits == hits

    def test_the_probe_ring_never_widens(self):
        """A fresh reconstructor (empty table) rebuilds member 0 of a
        stripe whose members 0 and 1 are lost: one broadcast for the
        fid, one for the probe window, one header scatter and one
        survivor scatter."""
        from collections import Counter

        from repro.bench.ablations import _fill_stripes
        from repro.log.fragment import HEADER_SIZE

        cluster, log, _addresses = _fill_stripes(
            6, 1 << 16, stripes=3, parity_fragments=2, coding="rs")
        fids = sorted(fid for node in cluster.server_nodes.values()
                      for fid in node.server.list_fids())
        assert len(fids) == 18
        target = fids[6]
        image = bytes(cluster.server_nodes[log.known_location(
            target)].server.retrieve(target))
        header = Fragment.decode(image).header
        assert header.stripe_base_fid == target
        for server in header.servers[:2]:
            cluster.crash_server(server)
        recording = Recording(log.transport)
        rebuilder = Reconstructor(recording, log.config.principal)
        log.transport.take_deferred_time()
        assert rebuilder.fetch(target) == image
        assert [Counter(type(request).__name__ for request in plan)
                for plan in recording.plans] == [
            {"HoldsRequest": 6}, {"HoldsRequest": 6},
            {"RetrieveRequest": 12}, {"RetrieveRequest": 5}]
        assert all(request.length == HEADER_SIZE
                   for request in recording.plans[2])
        assert log.transport.take_deferred_time() < 0.12

    def test_short_rebuild_finds_a_moved_member_by_one_broadcast(self):
        cluster = build_local_cluster(num_servers=5, fragment_size=1 << 16,
                                      server_slots=512)
        log, payloads, addresses = written_cluster(
            cluster, group=cluster.stripe_group(["s0", "s1", "s2", "s3"]))
        members = stripe_of(cluster, log, addresses[0].fid)
        moved, old_home = next(member for member in members
                               if member[0] != addresses[0].fid)
        principal = log.config.principal
        image = cluster.transport.call(old_home, m.RetrieveRequest(
            fid=moved, principal=principal)).payload
        cluster.transport.call("s4", m.StoreRequest(
            fid=moved, data=bytes(image), principal=principal))
        cluster.transport.call(old_home, m.DeleteRequest(
            fid=moved, principal=principal))
        cluster.servers[log.known_location(addresses[0].fid)].crash()
        broadcasts = log.locations.broadcasts
        assert log.read(addresses[0]) == payloads[0]
        assert log.locations.broadcasts - broadcasts == 1
        assert log.known_location(moved) == "s4"
