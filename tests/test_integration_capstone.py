"""Capstone integration: every layer of the system working together.

One client stack carrying cleaner + ARU + encryption + compression +
cache + Sting, driven through churn, client crashes, cleaning, and a
server failure — the whole paper in one test module. Plus determinism
checks: the simulated testbed must produce bit-identical results run
to run, which is what makes the benchmark figures trustworthy.
"""

import pytest

from repro.cluster import build_local_cluster
from repro.services import (
    AruService,
    CacheService,
    CleanerService,
    CompressionService,
    EncryptionService,
)
from repro.sting import StingFileSystem

SERVICES = dict(cleaner=1, aru=2, encrypt=3, compress=4, cache=5, sting=6)
KEY = b"integration-key-16b!"


def full_stack(cluster):
    stack = cluster.make_stack(client_id=1)
    cleaner = stack.push(CleanerService(SERVICES["cleaner"],
                                        utilization_threshold=0.7))
    stack.push(AruService(SERVICES["aru"]))
    stack.push(EncryptionService(SERVICES["encrypt"], key=KEY))
    stack.push(CompressionService(SERVICES["compress"]))
    stack.push(CacheService(SERVICES["cache"], capacity_bytes=2 << 20))
    fs = stack.push(StingFileSystem(SERVICES["sting"], block_size=4096))
    return stack, cleaner, fs


class TestFullStack:
    def test_everything_at_once(self, cluster4):
        stack, cleaner, fs = full_stack(cluster4)
        fs.format()
        fs.mkdir("/work")

        # Churn through the full stack (encrypted + compressed blocks).
        contents = {}
        for round_no in range(5):
            for index in range(15):
                path = "/work/f%02d" % index
                data = (b"round-%d " % round_no) * (100 + 37 * index)
                fs.write_file(path, data)
                contents[path] = data
        fs.unmount()

        # Ciphertext on the wire: no plaintext visible at any server.
        for server in cluster4.servers.values():
            for fid in server.list_fids():
                assert b"round-0 round-0" not in server.retrieve(fid)

        # Clean, then verify every file.
        cleaner.clean(target_stripes=100)
        for path, data in contents.items():
            assert fs.read_file(path) == data

        # Client crash: recover the whole stack.
        fs.unmount()
        stack2, cleaner2, fs2 = full_stack(cluster4)
        stack2.recover_all()
        for path, data in contents.items():
            assert fs2.read_file(path) == data

        # Server failure on top: reads still good (parity + decrypt).
        cluster4.servers["s3"].crash()
        fs2._inodes.clear()
        fs2._dirents.clear()
        for path in list(contents)[:5]:
            assert fs2.read_file(path) == contents[path]

    def test_double_crash_with_cleaning_between(self, cluster4):
        stack, cleaner, fs = full_stack(cluster4)
        fs.format()
        for index in range(10):
            fs.write_file("/f%d" % index, bytes([index]) * 9000)
        fs.unmount()

        stack2, cleaner2, fs2 = full_stack(cluster4)
        stack2.recover_all()
        for index in range(10):
            fs2.write_file("/f%d" % index, bytes([index + 100]) * 9000)
        fs2.unmount()
        cleaner2.clean(target_stripes=50)
        fs2.unmount()

        stack3, _cleaner3, fs3 = full_stack(cluster4)
        stack3.recover_all()
        for index in range(10):
            assert fs3.read_file("/f%d" % index) == bytes([index + 100]) * 9000


class TestDeterminism:
    def test_sim_write_bench_bit_identical(self):
        from repro.workloads.microbench import run_write_bench

        first = run_write_bench(2, 3, blocks=500)
        second = run_write_bench(2, 3, blocks=500)
        assert first.elapsed_s == second.elapsed_s
        assert first.raw_bytes == second.raw_bytes

    def test_mab_bit_identical(self):
        from repro.workloads.mab import run_mab_on_ext2, run_mab_on_sting

        assert run_mab_on_sting().elapsed_s == run_mab_on_sting().elapsed_s
        assert run_mab_on_ext2().elapsed_s == run_mab_on_ext2().elapsed_s

    def test_functional_log_layout_deterministic(self):
        def build():
            cluster = build_local_cluster(num_servers=3,
                                          fragment_size=1 << 16)
            log = cluster.make_log(client_id=1)
            for index in range(50):
                log.write_block(9, bytes([index]) * 3000)
            log.flush().wait()
            return {sid: sorted(server.list_fids())
                    for sid, server in cluster.servers.items()}

        assert build() == build()
