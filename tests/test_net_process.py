"""Real-process network plane: netd children, kill -9, self-healing.

Everything here is marked ``net``: each test spawns actual
``python -m repro.server.netd`` child processes (one OS process per
storage server, each behind its own loopback TCP listener), points a
:class:`TcpTransport` at the printed addresses, and drives the full
client stack over real sockets.

The centerpiece is the kill -9 scenario from the issue: a member dies
by SIGKILL mid-workload, the client's retries exhaust against the
refused connections, the :class:`HealthMonitor` declares the server
dead, the log layer reforms onto the spare, and a *fresh* client over a
*fresh* transport recovers every byte — with the victim still dead.
"""

import os
import signal
import subprocess
import sys
import time

import pytest

from repro import errors
from repro.health import HealthMonitor
from repro.log.config import LogConfig
from repro.log.layer import LogLayer
from repro.rpc import messages as m
from repro.rpc import net
from repro.rpc.net import TcpTransport
from repro.rpc.retry import RetryingTransport, RetryPolicy

SVC = 3
FRAG = 1 << 12
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

pytestmark = pytest.mark.net


class NetdFleet:
    """Launch one netd child per server id; harvest the READY banners."""

    def __init__(self, server_ids, fragment_size=FRAG, total_slots=512):
        self.procs = {}
        self.addresses = {}
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        try:
            for server_id in server_ids:
                proc = subprocess.Popen(
                    [sys.executable, "-m", "repro.server.netd",
                     "--server-id", server_id, "--port", "0",
                     "--fragment-size", str(fragment_size),
                     "--total-slots", str(total_slots)],
                    stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                    text=True, bufsize=1, env=env, cwd=REPO_ROOT)
                self.procs[server_id] = proc
            for server_id, proc in self.procs.items():
                banner = proc.stdout.readline().split()
                assert banner[:2] == ["NETD", "READY"], banner
                assert banner[2] == server_id
                self.addresses[server_id] = (banner[3], int(banner[4]))
        except BaseException:
            self.close()
            raise

    def kill_dash_9(self, server_id):
        proc = self.procs[server_id]
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait(timeout=10)

    def close(self):
        for proc in self.procs.values():
            if proc.poll() is None:
                proc.kill()
            proc.wait(timeout=10)
            proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class TestNetdProcesses:
    def test_store_retrieve_against_child_process(self):
        with NetdFleet(["s0"]) as fleet:
            with TcpTransport(fleet.addresses) as tcp:
                tcp.call("s0", m.StoreRequest(fid=77, data=b"over the wall"))
                got = tcp.call("s0", m.RetrieveRequest(fid=77))
                assert bytes(got.payload) == b"over the wall"

    def test_killed_child_becomes_unavailable(self):
        with NetdFleet(["s0", "s1"]) as fleet:
            with TcpTransport(fleet.addresses) as tcp:
                tcp.call("s0", m.StoreRequest(fid=1, data=b"x"))
                fleet.kill_dash_9("s0")
                with pytest.raises(errors.ServerUnavailableError):
                    tcp.call("s0", m.RetrieveRequest(fid=1))
                tcp.probe("s1")  # the survivor still answers

    def test_kill9_reform_and_fresh_client_recovery(self):
        """The full self-healing loop over real processes.

        s0..s3 form the group, s4 idles as the spare. A workload is
        running when s1 is SIGKILLed; retry exhaustion against the dead
        socket drives the failure detector to "dead", the next flushes
        reform onto s4, and every block — written before or after the
        kill — is readable both by the original client and by a fresh
        client over a fresh transport, with s1 still a corpse.
        """
        victim = "s1"
        with NetdFleet(["s0", "s1", "s2", "s3", "s4"]) as fleet:
            with TcpTransport(fleet.addresses) as tcp:
                monitor = HealthMonitor(seed=7)
                log = LogLayer(
                    tcp, ("s0", "s1", "s2", "s3"),
                    LogConfig(client_id=1, fragment_size=FRAG,
                              spare_servers=("s4",)),
                    retry_policy=RetryPolicy(max_attempts=2,
                                             base_backoff_s=0.001,
                                             max_backoff_s=0.002, seed=7),
                    verify_reads=True, health_monitor=monitor)

                payloads = {}
                block = 0
                for _ in range(6):           # healthy prefix, made durable
                    data = bytes([block % 251 + 1]) * 800
                    payloads[block] = (log.write_block(SVC, data), data)
                    block += 1
                log.flush().wait()

                fleet.kill_dash_9(victim)

                for round_no in range(30):   # degraded rounds until reform
                    for _ in range(3):
                        data = bytes([round_no + 1, block % 251]) * 700
                        payloads[block] = (log.write_block(SVC, data), data)
                        block += 1
                    log.flush().wait(allow_degraded=True)
                    if log.reforms:
                        break
                else:
                    raise AssertionError("no automatic reform after kill -9")

                reform = log.reforms[0]
                assert reform["departed"] == victim
                assert reform["replacement"] == "s4"
                assert monitor.status(victim) == "dead"

                # Post-reform writes land cleanly on the new group.
                for _ in range(6):
                    data = bytes([block % 251 + 2]) * 900
                    payloads[block] = (log.write_block(SVC, data), data)
                    block += 1
                log.flush().wait()

                for addr, data in payloads.values():
                    assert log.read(addr) == data

            # Fresh client, fresh sockets, no warm state — the victim
            # is still dead, so anything it held alone must come back
            # through parity reconstruction.
            with TcpTransport(fleet.addresses) as tcp2:
                fresh = LogLayer(
                    tcp2, ("s0", "s2", "s3", "s4"),
                    LogConfig(client_id=1, fragment_size=FRAG),
                    retry_policy=RetryPolicy(max_attempts=2,
                                             base_backoff_s=0.001,
                                             max_backoff_s=0.002, seed=8),
                    verify_reads=True)
                for addr, data in payloads.values():
                    assert fresh.read(addr) == data

    def test_stopped_child_misses_the_request_deadline(self, monkeypatch):
        """A server that accepts requests and never answers (SIGSTOP):
        the client's deadline turns it into ServerUnavailableError, a
        plan fails only its future, the failure detector ends at dead,
        and after SIGCONT the next call reconnects and reads back."""
        monkeypatch.setattr(net, "REQUEST_TIMEOUT_S", 0.5)
        with NetdFleet(["s0", "s1"]) as fleet:
            with TcpTransport(fleet.addresses) as tcp:
                tcp.call("s0", m.StoreRequest(fid=5, data=b"before the stop"))
                tcp.call("s1", m.StoreRequest(fid=6, data=b"still up"))
                stopped = fleet.procs["s0"].pid
                os.kill(stopped, signal.SIGSTOP)
                try:
                    start = time.perf_counter()
                    with pytest.raises(errors.ServerUnavailableError):
                        tcp.call("s0", m.RetrieveRequest(fid=5))
                    assert time.perf_counter() - start < 2.0

                    on_stopped, on_live = tcp.submit_many([
                        ("s0", m.RetrieveRequest(fid=5)),
                        ("s1", m.RetrieveRequest(fid=6))])
                    assert isinstance(on_stopped.exception,
                                      errors.ServerUnavailableError)
                    assert bytes(on_live.result().payload) == b"still up"

                    monitor = HealthMonitor(seed=5)
                    retrying = RetryingTransport(
                        tcp, RetryPolicy(max_attempts=2, base_backoff_s=0.001,
                                         max_backoff_s=0.002, seed=5),
                        monitor=monitor, sleep=lambda _s: None)
                    for _ in range(2):
                        with pytest.raises(errors.ServerUnavailableError):
                            retrying.call("s0", m.RetrieveRequest(fid=5))
                    assert monitor.status("s0") == "dead"
                finally:
                    os.kill(stopped, signal.SIGCONT)
                got = tcp.call("s0", m.RetrieveRequest(fid=5))
                assert bytes(got.payload) == b"before the stop"

    def test_wall_clock_backoff_actually_sleeps(self):
        """Over a real wire the retry backoff is wall time, not ledger."""
        with NetdFleet(["s0"]) as fleet:
            with TcpTransport(fleet.addresses) as tcp:
                fleet.kill_dash_9("s0")
                log = LogLayer(
                    tcp, ("s0",),
                    LogConfig(client_id=1, fragment_size=FRAG),
                    retry_policy=RetryPolicy(max_attempts=3,
                                             base_backoff_s=0.02,
                                             max_backoff_s=0.04,
                                             jitter=0.0, seed=1),
                    retry_sleep=time.sleep)
                start = time.perf_counter()
                with pytest.raises(errors.ServerUnavailableError):
                    log.write_block(SVC, b"z" * 100)
                    log.flush().wait()
                elapsed = time.perf_counter() - start
                assert elapsed >= 0.05  # 0.02 + 0.04 backoffs were slept
