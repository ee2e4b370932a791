"""Property-based testing of Sting against an in-memory oracle.

Random sequences of file-system operations run simultaneously against
Sting (on a real Swarm cluster) and a trivial dict-based oracle; states
must agree at every step. A second property checks the crash-recovery
invariant: after unmount + recovery, the recovered tree equals the
oracle exactly. After every operation, each directory table Sting keeps
in memory must equal that directory decoded afresh from the log.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import errors
from repro.cluster import build_local_cluster
from repro.sting import directory as dircodec
from repro.sting.fs import StingFileSystem

NAMES = ["a", "b", "c", "f1", "f2"]  # disjoint from directory names
NESTED = "/dir1/sub"  # made and removed by the ops; None in the oracle
DIRS = ["/", "/dir1", "/dir2", NESTED]


def op_strategy():
    paths = st.sampled_from(["%s/%s" % (d if d != "/" else "", n)
                             for d in DIRS for n in NAMES])
    return st.one_of(
        st.tuples(st.just("write"), paths, st.binary(max_size=12000)),
        st.tuples(st.just("append"), paths, st.binary(min_size=1,
                                                      max_size=3000)),
        st.tuples(st.just("unlink"), paths, st.just(b"")),
        st.tuples(st.just("truncate"), paths,
                  st.integers(min_value=0, max_value=15000)),
        st.tuples(st.just("rename"), st.tuples(paths, paths), st.just(b"")),
        st.tuples(st.sampled_from(["mkdir", "rmdir"]), st.just(NESTED),
                  st.just(b"")),
    )


def fresh_fs():
    cluster = build_local_cluster(num_servers=3, fragment_size=1 << 16,
                                  server_slots=1024)
    stack = cluster.make_stack(client_id=1)
    fs = stack.push(StingFileSystem(1, block_size=2048))
    fs.format()
    fs.mkdir("/dir1")
    fs.mkdir("/dir2")
    return cluster, stack, fs


def parent_exists(oracle, path):
    return not path.startswith(NESTED + "/") or NESTED in oracle


def apply_op(fs, oracle, op):
    """Apply one op to both systems; they must agree on the outcome."""
    kind, arg, data = op
    if kind == "write":
        if parent_exists(oracle, arg):
            fs.write_file(arg, data)
            oracle[arg] = data
        else:
            with pytest.raises(errors.FileNotFoundFsError):
                fs.write_file(arg, data)
    elif kind == "append":
        if arg in oracle:
            fd = fs.open(arg, append=True)
            fs.write(fd, data)
            fs.close(fd)
            oracle[arg] = oracle[arg] + data
    elif kind == "unlink":
        if arg in oracle:
            fs.unlink(arg)
            del oracle[arg]
        else:
            with pytest.raises(errors.FileSystemError):
                fs.unlink(arg)
    elif kind == "truncate":
        path, size = arg, data
        if path in oracle:
            fs.truncate(path, size)
            old = oracle[path]
            oracle[path] = (old[:size] if size <= len(old)
                            else old + b"\x00" * (size - len(old)))
    elif kind == "rename":
        src, dst = arg
        if src in oracle and src != dst:
            if parent_exists(oracle, dst):
                fs.rename(src, dst)
                oracle[dst] = oracle.pop(src)
            else:
                with pytest.raises(errors.FileNotFoundFsError):
                    fs.rename(src, dst)
    elif kind == "mkdir":
        if arg in oracle:
            with pytest.raises(errors.FileExistsFsError):
                fs.mkdir(arg)
        else:
            fs.mkdir(arg)
            oracle[arg] = None
    elif kind == "rmdir":
        if arg not in oracle:
            with pytest.raises(errors.FileNotFoundFsError):
                fs.rmdir(arg)
        elif any(path.startswith(arg + "/") for path in oracle):
            with pytest.raises(errors.DirectoryNotEmptyFsError):
                fs.rmdir(arg)
        else:
            fs.rmdir(arg)
            del oracle[arg]
    assert_tables_coherent(fs)


def assert_tables_coherent(fs):
    """Every cached directory table equals the directory's bytes read
    from the log and decoded, bypassing the table."""
    for ino, entries in fs._dirents.items():
        inode = fs._load_inode(ino)
        assert entries == dircodec.decode_entries(fs._read_all(inode)), ino


def assert_same(fs, oracle):
    files = {path for path, data in oracle.items() if data is not None}
    for path in files:
        assert fs.read_file(path) == oracle[path], path
    # No phantom files or directories: walk and compare the population.
    found, found_dirs = set(), set()
    for directory, dirs, names in fs.walk("/"):
        prefix = "" if directory == "/" else directory
        found.update("%s/%s" % (prefix, name) for name in names)
        found_dirs.update("%s/%s" % (prefix, name) for name in dirs)
    assert found == files
    assert found_dirs == {"/dir1", "/dir2"} | (set(oracle) - files)


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=st.lists(op_strategy(), max_size=30))
def test_sting_matches_oracle(ops):
    _cluster, _stack, fs = fresh_fs()
    oracle = {}
    for op in ops:
        apply_op(fs, oracle, op)
    assert_same(fs, oracle)


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=st.lists(op_strategy(), max_size=20))
def test_recovered_state_matches_oracle(ops):
    cluster, stack, fs = fresh_fs()
    oracle = {}
    for op in ops:
        apply_op(fs, oracle, op)
    fs.unmount()

    stack2 = cluster.make_stack(client_id=1)
    fs2 = stack2.push(StingFileSystem(1, block_size=2048))
    stack2.recover_all()
    assert_same(fs2, oracle)


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=st.lists(op_strategy(), max_size=20),
       victim=st.sampled_from(["s0", "s1", "s2"]))
def test_oracle_holds_with_one_server_down(ops, victim):
    cluster, stack, fs = fresh_fs()
    oracle = {}
    for op in ops:
        apply_op(fs, oracle, op)
    fs.sync()
    cluster.servers[victim].crash()
    # Drop the in-memory inodes and directory tables: force reads.
    fs._inodes.clear()
    fs._dirents.clear()
    assert_same(fs, oracle)
