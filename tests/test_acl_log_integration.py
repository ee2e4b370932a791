"""End-to-end ACL protection of a client's log (§2.4.2 integrated)."""

import pytest

from repro import errors
from repro.cluster import build_local_cluster
from repro.log import LogConfig, LogLayer
from repro.rpc import messages as m

SVC = 8


@pytest.fixture
def secured():
    """Enforcing cluster where client 1's log is ACL-protected."""
    cluster = build_local_cluster(num_servers=3, fragment_size=1 << 16,
                                  enforce_acls=True)
    # The same AID must exist on every server in the group; create it
    # everywhere (ids allocate deterministically from 1).
    for server_id in cluster.transport.server_ids():
        aid = cluster.transport.call(server_id, m.CreateAclRequest(
            readers=("client-1",), writers=("client-1",))).value
    log = LogLayer(cluster.transport, cluster.stripe_group(),
                   LogConfig(client_id=1, fragment_size=1 << 16,
                             fragment_aid=aid))
    addr = log.write_block(SVC, b"private-bytes" * 100)
    log.flush().wait()
    return cluster, log, addr, aid


class TestAclProtectedLog:
    def test_owner_reads_fine(self, secured):
        _cluster, log, addr, _aid = secured
        assert log.read(addr) == b"private-bytes" * 100

    def test_stranger_denied(self, secured):
        cluster, _log, addr, _aid = secured
        for server_id in cluster.transport.server_ids():
            try:
                cluster.transport.call(server_id, m.RetrieveRequest(
                    fid=addr.fid, principal="eve"))
            except errors.AccessDeniedError:
                return
            except errors.FragmentNotFoundError:
                continue
        pytest.fail("no server denied the stranger")

    def test_stranger_cannot_delete(self, secured):
        cluster, _log, addr, _aid = secured
        holder = cluster.transport.broadcast_holds([addr.fid])[addr.fid]
        with pytest.raises(errors.AccessDeniedError):
            cluster.transport.call(holder, m.DeleteRequest(
                fid=addr.fid, principal="eve"))

    def test_acl_membership_grants_new_client(self, secured):
        cluster, _log, addr, aid = secured
        holder = cluster.transport.broadcast_holds([addr.fid])[addr.fid]
        with pytest.raises(errors.AccessDeniedError):
            cluster.transport.call(holder, m.RetrieveRequest(
                fid=addr.fid, principal="client-2"))
        # Add client-2 to the ACL on that server: access opens up,
        # without touching any stored data (the paper's point).
        cluster.transport.call(holder, m.ModifyAclRequest(
            aid=aid, readers=("client-1", "client-2")))
        response = cluster.transport.call(holder, m.RetrieveRequest(
            fid=addr.fid, principal="client-2"))
        assert response.payload

    def test_owner_recovery_works_under_acls(self, secured):
        cluster, log, _addr, _aid = secured
        log.checkpoint(SVC, b"protected-cp").wait()
        from repro.log.recovery import recover_service_state

        recovered = recover_service_state(cluster.transport, 1,
                                          {SVC: False},
                                          principal="client-1").services[SVC]
        assert recovered.checkpoint_state == b"protected-cp"

    def test_reconstruction_respects_acls(self, secured):
        cluster, log, addr, _aid = secured
        holder = cluster.transport.broadcast_holds([addr.fid])[addr.fid]
        cluster.servers[holder].crash()
        # The owner reconstructs through parity (it can read siblings)...
        assert log.read(addr) == b"private-bytes" * 100
        # ...a stranger cannot: sibling reads are denied.
        from repro.log.reconstruct import Reconstructor

        thief = Reconstructor(cluster.transport, principal="eve")
        with pytest.raises(errors.SwarmError):
            thief.fetch(addr.fid)
