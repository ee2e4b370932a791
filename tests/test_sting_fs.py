"""Functional tests for the Sting file system."""

import pytest

from repro import errors
from repro.services.cleaner import CleanerService
from repro.sting import directory as dircodec
from repro.sting.fs import StingFileSystem


@pytest.fixture
def fs(cluster4):
    stack = cluster4.make_stack(client_id=1)
    filesystem = stack.push(StingFileSystem(3, block_size=4096))
    filesystem.format()
    return filesystem


@pytest.fixture
def decodes(monkeypatch):
    """Every directory decode, by the length of the bytes decoded."""
    calls = []
    real = dircodec.decode_entries

    def counting(data):
        calls.append(len(data))
        return real(data)

    monkeypatch.setattr(dircodec, "decode_entries", counting)
    return calls


class TestNamespace:
    def test_format_creates_empty_root(self, fs):
        assert fs.listdir("/") == []
        assert fs.stat("/").is_dir

    def test_mkdir_and_listdir(self, fs):
        fs.mkdir("/a")
        fs.mkdir("/a/b")
        assert fs.listdir("/") == ["a"]
        assert fs.listdir("/a") == ["b"]

    def test_mkdir_existing_rejected(self, fs):
        fs.mkdir("/a")
        with pytest.raises(errors.FileExistsFsError):
            fs.mkdir("/a")

    def test_mkdir_missing_parent(self, fs):
        with pytest.raises(errors.FileNotFoundFsError):
            fs.mkdir("/no/such/parent")

    def test_create_and_exists(self, fs):
        fs.create("/f.txt", b"hi")
        assert fs.exists("/f.txt")
        assert not fs.exists("/g.txt")

    def test_create_under_file_rejected(self, fs):
        fs.create("/f", b"")
        with pytest.raises(errors.NotADirectoryFsError):
            fs.create("/f/child", b"")

    def test_unlink(self, fs):
        fs.create("/f", b"data")
        fs.unlink("/f")
        assert not fs.exists("/f")

    def test_unlink_directory_rejected(self, fs):
        fs.mkdir("/d")
        with pytest.raises(errors.IsADirectoryFsError):
            fs.unlink("/d")

    def test_rmdir_empty_only(self, fs):
        fs.mkdir("/d")
        fs.create("/d/f", b"")
        with pytest.raises(errors.DirectoryNotEmptyFsError):
            fs.rmdir("/d")
        fs.unlink("/d/f")
        fs.rmdir("/d")
        assert not fs.exists("/d")

    def test_rmdir_on_file_rejected(self, fs):
        fs.create("/f", b"")
        with pytest.raises(errors.NotADirectoryFsError):
            fs.rmdir("/f")

    def test_root_operations_rejected(self, fs):
        with pytest.raises(errors.FileSystemError):
            fs.unlink("/")
        with pytest.raises(errors.FileSystemError):
            fs.mkdir("/")

    def test_walk(self, fs):
        fs.mkdir("/a")
        fs.mkdir("/a/b")
        fs.create("/a/f1", b"")
        fs.create("/a/b/f2", b"")
        walked = list(fs.walk("/"))
        assert walked[0] == ("/", ["a"], [])
        assert ("/a", ["b"], ["f1"]) in walked
        assert ("/a/b", [], ["f2"]) in walked


class TestRename:
    def test_same_directory(self, fs):
        fs.create("/old", b"x")
        fs.rename("/old", "/new")
        assert fs.exists("/new") and not fs.exists("/old")
        assert fs.read_file("/new") == b"x"

    def test_across_directories(self, fs):
        fs.mkdir("/src")
        fs.mkdir("/dst")
        fs.create("/src/f", b"move-me")
        fs.rename("/src/f", "/dst/g")
        assert fs.read_file("/dst/g") == b"move-me"
        assert fs.listdir("/src") == []

    def test_overwrites_existing_file(self, fs):
        fs.create("/a", b"new")
        fs.create("/b", b"old")
        fs.rename("/a", "/b")
        assert fs.read_file("/b") == b"new"
        assert not fs.exists("/a")

    def test_onto_nonempty_directory_rejected(self, fs):
        fs.mkdir("/d")
        fs.create("/d/x", b"")
        fs.create("/f", b"")
        with pytest.raises(errors.DirectoryNotEmptyFsError):
            fs.rename("/f", "/d")

    def test_directory_rename_moves_subtree(self, fs):
        fs.mkdir("/d")
        fs.create("/d/inner", b"deep")
        fs.rename("/d", "/e")
        assert fs.read_file("/e/inner") == b"deep"

    def test_missing_source(self, fs):
        with pytest.raises(errors.FileNotFoundFsError):
            fs.rename("/ghost", "/x")


class TestFileIo:
    def test_whole_file_round_trip(self, fs):
        fs.write_file("/f", b"contents here")
        assert fs.read_file("/f") == b"contents here"

    def test_multi_block_file(self, fs):
        blob = bytes(range(256)) * 200   # 51,200 B > several 4 KB blocks
        fs.write_file("/big", blob)
        assert fs.read_file("/big") == blob
        assert fs.stat("/big").size == len(blob)

    def test_overwrite_replaces(self, fs):
        fs.write_file("/f", b"version-1-is-long")
        fs.write_file("/f", b"v2")
        assert fs.read_file("/f") == b"v2"

    def test_fd_read_write_seek(self, fs):
        fd = fs.open("/f", create=True)
        fs.write(fd, b"0123456789")
        fs.seek(fd, 2)
        assert fs.read(fd, 4) == b"2345"
        fs.seek(fd, 5)
        fs.write(fd, b"XY")
        fs.close(fd)
        assert fs.read_file("/f") == b"01234XY789"

    def test_append_mode(self, fs):
        fs.write_file("/log", b"start:")
        fd = fs.open("/log", append=True)
        fs.write(fd, b"more")
        fs.close(fd)
        assert fs.read_file("/log") == b"start:more"

    def test_closed_fd_rejected(self, fs):
        fd = fs.open("/f", create=True)
        fs.close(fd)
        with pytest.raises(errors.BadFileDescriptorError):
            fs.read(fd, 1)

    def test_open_missing_without_create(self, fs):
        with pytest.raises(errors.FileNotFoundFsError):
            fs.open("/missing")

    def test_open_directory_rejected(self, fs):
        fs.mkdir("/d")
        with pytest.raises(errors.IsADirectoryFsError):
            fs.open("/d")

    def test_read_past_eof_truncates(self, fs):
        fs.write_file("/f", b"abc")
        fd = fs.open("/f")
        assert fs.read(fd, 100) == b"abc"
        assert fs.read(fd, 100) == b""

    def test_sparse_write_zero_fills(self, fs):
        fd = fs.open("/sparse", create=True)
        fs.seek(fd, 10000)
        fs.write(fd, b"END")
        fs.close(fd)
        data = fs.read_file("/sparse")
        assert len(data) == 10003
        assert data[:10000] == b"\x00" * 10000
        assert data[10000:] == b"END"

    def test_partial_block_overwrite(self, fs):
        fs.write_file("/f", b"A" * 10000)
        fd = fs.open("/f")
        fs.seek(fd, 4000)
        fs.write(fd, b"B" * 200)
        fs.close(fd)
        data = fs.read_file("/f")
        assert data[4000:4200] == b"B" * 200
        assert data[3999:4000] == b"A" and data[4200:4201] == b"A"
        assert len(data) == 10000

    def test_truncate_shrink(self, fs):
        fs.write_file("/f", b"x" * 9000)
        fs.truncate("/f", 5000)
        assert fs.read_file("/f") == b"x" * 5000

    def test_truncate_extend_zero_fills(self, fs):
        fs.write_file("/f", b"ab")
        fs.truncate("/f", 10)
        assert fs.read_file("/f") == b"ab" + b"\x00" * 8

    def test_truncate_to_zero(self, fs):
        fs.write_file("/f", b"full")
        fs.truncate("/f", 0)
        assert fs.read_file("/f") == b""

    def test_empty_file(self, fs):
        fs.create("/empty")
        assert fs.read_file("/empty") == b""
        assert fs.stat("/empty").size == 0


class TestDurability:
    def test_data_reaches_servers_on_sync(self, fs, cluster4):
        fs.write_file("/f", b"durable")
        fs.sync()
        stored = sum(server.bytes_stored
                     for server in cluster4.servers.values())
        assert stored > 0

    def test_reads_after_sync_with_server_down(self, fs, cluster4):
        blob = bytes(range(256)) * 300
        fs.write_file("/big", blob)
        fs.sync()
        cluster4.servers["s1"].crash()
        assert fs.read_file("/big") == blob


class InjectedWriteFailure(Exception):
    pass


class TestDirectoryTable:
    """Each directory is decoded once, then served from memory."""

    def test_reads_decode_no_directory(self, fs, decodes):
        fs.mkdir("/d")
        for index in range(8):
            fs.write_file("/d/f%d" % index, bytes([index]) * (index + 1))
        del decodes[:]
        for index in range(8):
            assert fs.read_file("/d/f%d" % index) == bytes([index]) * (index + 1)
        # Decoding on every lookup would be 16: the root and /d per read.
        assert decodes == []

    def test_recovered_client_decodes_each_directory_once(self, cluster4,
                                                          decodes):
        stack = cluster4.make_stack(client_id=1)
        fs = stack.push(StingFileSystem(3, block_size=4096))
        fs.format()
        fs.mkdir("/a")
        fs.mkdir("/a/b")
        paths = ["/top", "/a/mid", "/a/b/leaf"]
        for path in paths:
            fs.write_file(path, path.encode())
        fs.unmount()

        stack2 = cluster4.make_stack(client_id=1)
        fs2 = stack2.push(StingFileSystem(3, block_size=4096))
        stack2.recover_all()
        del decodes[:]
        for _ in range(3):
            for path in paths:
                assert fs2.read_file(path) == path.encode()
        assert fs2.listdir("/a") == ["b", "mid"]
        assert len(decodes) == 3    # /, /a and /a/b, once each

    def test_failed_directory_write_leaves_no_table(self, fs, decodes,
                                                    monkeypatch):
        fs.mkdir("/d")
        fs.write_file("/d/a", b"a")
        ino = fs._lookup("/d")
        assert ino in fs._dirents
        real = fs.stack.write_block
        failures = [InjectedWriteFailure("directory block write")]

        def fail_once(*args, **kwargs):
            if failures:
                raise failures.pop()
            return real(*args, **kwargs)

        monkeypatch.setattr(fs.stack, "write_block", fail_once)
        # An empty file writes no data block: the first block written is
        # the directory's.
        with pytest.raises(InjectedWriteFailure):
            fs.create("/d/b")
        assert not failures
        assert ino not in fs._dirents
        del decodes[:]
        fs.exists("/d/a")
        assert len(decodes) == 1    # the next lookup decodes from the log
        inode = fs._load_inode(ino)
        assert fs._dirents[ino] == dircodec.decode_entries(fs._read_all(inode))
