"""Sting crash recovery and cleaner integration."""

import pytest

from repro.services.cache import CacheService
from repro.services.cleaner import CleanerService
from repro.sting.fs import ROOT_INO, StingFileSystem


def build(cluster, client_id=1):
    stack = cluster.make_stack(client_id=client_id)
    cleaner = stack.push(CleanerService(1, utilization_threshold=0.6))
    stack.push(CacheService(2, capacity_bytes=4 << 20))
    fs = stack.push(StingFileSystem(3, block_size=4096))
    return stack, cleaner, fs


class TestRecovery:
    def test_recover_after_unmount(self, cluster4):
        stack, _cleaner, fs = build(cluster4)
        fs.format()
        fs.mkdir("/d")
        fs.write_file("/d/f", b"payload" * 100)
        fs.unmount()

        stack2, _c2, fs2 = build(cluster4)
        stack2.recover_all()
        assert fs2.formatted
        assert fs2.read_file("/d/f") == b"payload" * 100
        assert fs2.listdir("/") == ["d"]

    def test_recover_after_sync_without_checkpoint(self, cluster4):
        stack, _cleaner, fs = build(cluster4)
        fs.format()
        fs.write_file("/a", b"1111")
        fs.unmount()
        fs.write_file("/b", b"2222")
        fs.sync()   # durable tail, no checkpoint

        stack2, _c2, fs2 = build(cluster4)
        stack2.recover_all()
        assert fs2.read_file("/a") == b"1111"
        assert fs2.read_file("/b") == b"2222"

    def test_unsynced_tail_lost_cleanly(self, cluster4):
        stack, _cleaner, fs = build(cluster4)
        fs.format()
        fs.write_file("/kept", b"safe")
        fs.unmount()
        fs.write_file("/lost", b"never flushed")  # crash before sync

        stack2, _c2, fs2 = build(cluster4)
        stack2.recover_all()
        assert fs2.read_file("/kept") == b"safe"
        assert not fs2.exists("/lost")

    def test_recovery_replays_overwrites_in_order(self, cluster4):
        stack, _cleaner, fs = build(cluster4)
        fs.format()
        fs.unmount()
        for version in range(5):
            fs.write_file("/f", b"version-%d" % version)
        fs.sync()
        stack2, _c2, fs2 = build(cluster4)
        stack2.recover_all()
        assert fs2.read_file("/f") == b"version-4"

    def test_recovery_of_deletions(self, cluster4):
        stack, _cleaner, fs = build(cluster4)
        fs.format()
        fs.write_file("/doomed", b"x")
        fs.unmount()
        fs.unlink("/doomed")
        fs.sync()
        stack2, _c2, fs2 = build(cluster4)
        stack2.recover_all()
        assert not fs2.exists("/doomed")

    def test_inode_numbers_not_reused_after_recovery(self, cluster4):
        stack, _cleaner, fs = build(cluster4)
        fs.format()
        ino_a = fs.create("/a", b"a")
        fs.unmount()
        stack2, _c2, fs2 = build(cluster4)
        stack2.recover_all()
        ino_b = fs2.create("/b", b"b")
        assert ino_b > ino_a

    def test_double_crash_recovery(self, cluster4):
        stack, _cleaner, fs = build(cluster4)
        fs.format()
        fs.write_file("/gen0", b"zero")
        fs.unmount()

        stack2, _c2, fs2 = build(cluster4)
        stack2.recover_all()
        fs2.write_file("/gen1", b"one")
        fs2.sync()

        stack3, _c3, fs3 = build(cluster4)
        stack3.recover_all()
        assert fs3.read_file("/gen0") == b"zero"
        assert fs3.read_file("/gen1") == b"one"

    def test_recovery_with_failed_server(self, cluster4):
        stack, _cleaner, fs = build(cluster4)
        fs.format()
        blob = bytes(range(256)) * 100
        fs.write_file("/big", blob)
        fs.unmount()
        cluster4.servers["s0"].crash()
        stack2, _c2, fs2 = build(cluster4)
        stack2.recover_all()
        assert fs2.read_file("/big") == blob

    def test_loading_an_inode_applies_only_its_own_patches(self, cluster4):
        stack, _cleaner, fs = build(cluster4)
        fs.format()
        fs.unmount()
        blobs = {"/f%02d" % index: bytes([index]) * 9000
                 for index in range(12)}
        for path, blob in blobs.items():
            fs.write_file(path, blob)   # three blocks each, after the checkpoint
        fs.sync()

        stack2, _c2, fs2 = build(cluster4)
        stack2.recover_all()
        before = {ino: dict(blocks) for ino, blocks in fs2._patches.items()}
        assert len(before) >= len(blobs)
        ino = fs2._lookup("/f05")       # loads the root: it takes its own
        rest = {other: blocks for other, blocks in before.items()
                if other != ROOT_INO}
        assert fs2._patches == rest
        inode = fs2._load_inode(ino)
        assert before[ino]
        for index, addr in before[ino].items():
            assert inode.blocks[index] == addr
        del rest[ino]
        assert fs2._patches == rest
        for path, blob in blobs.items():
            assert fs2.read_file(path) == blob


class TestCleanerIntegration:
    def _churn(self, fs):
        contents = {}
        for round_no in range(6):
            for index in range(25):
                path = "/files/f%02d" % index
                data = bytes([round_no * 11 + index]) * (3000 + 101 * index)
                fs.write_file(path, data)
                contents[path] = data
        return contents

    def test_cleaning_under_live_filesystem(self, cluster4):
        stack, cleaner, fs = build(cluster4)
        fs.format()
        fs.mkdir("/files")
        contents = self._churn(fs)
        fs.unmount()
        moved = cleaner.clean(target_stripes=100)
        assert cleaner.stripes_cleaned > 0
        for path, data in contents.items():
            assert fs.read_file(path) == data

    def test_recovery_after_cleaning(self, cluster4):
        stack, cleaner, fs = build(cluster4)
        fs.format()
        fs.mkdir("/files")
        contents = self._churn(fs)
        fs.unmount()
        cleaner.clean(target_stripes=100)
        fs.unmount()  # persist post-move metadata

        stack2, _c2, fs2 = build(cluster4)
        stack2.recover_all()
        for path, data in contents.items():
            assert fs2.read_file(path) == data

    def test_crash_between_clean_and_checkpoint(self, cluster4):
        stack, cleaner, fs = build(cluster4)
        fs.format()
        fs.mkdir("/files")
        contents = self._churn(fs)
        fs.unmount()
        cleaner.clean(target_stripes=100)
        stack.flush().wait()  # crash here: moves durable, no checkpoint

        stack2, _c2, fs2 = build(cluster4)
        stack2.recover_all()
        for path, data in contents.items():
            assert fs2.read_file(path) == data

    def test_space_reclaimed_under_churn(self, cluster4):
        stack, cleaner, fs = build(cluster4)
        fs.format()
        fs.mkdir("/files")
        self._churn(fs)
        fs.unmount()
        before = sum(len(server.slots)
                     for server in cluster4.servers.values())
        cleaner.clean(target_stripes=100)
        after = sum(len(server.slots)
                    for server in cluster4.servers.values())
        assert after < before


class TestMultiClientIsolation:
    def test_two_clients_share_servers_without_interference(self, cluster4):
        stack_a, _ca, fs_a = build(cluster4, client_id=1)
        stack_b, _cb, fs_b = build(cluster4, client_id=2)
        fs_a.format()
        fs_b.format()
        fs_a.write_file("/mine", b"client-1 data")
        fs_b.write_file("/mine", b"client-2 data")
        fs_a.unmount()
        fs_b.unmount()
        assert fs_a.read_file("/mine") == b"client-1 data"
        assert fs_b.read_file("/mine") == b"client-2 data"

        # Each client recovers its own log.
        stack_a2, _c, fs_a2 = build(cluster4, client_id=1)
        stack_a2.recover_all()
        stack_b2, _c, fs_b2 = build(cluster4, client_id=2)
        stack_b2.recover_all()
        assert fs_a2.read_file("/mine") == b"client-1 data"
        assert fs_b2.read_file("/mine") == b"client-2 data"
