"""The Sting file system service.

Implements the standard UNIX file-system operations — create, open,
read, write, mkdir, unlink, rename, stat, truncate — as a Swarm service
layered on the log. Like Sprite LFS it never overwrites: every change
appends new data blocks and a new inode block, then updates the
in-memory *inode map* (ino → inode-block address). The inode map is the
only root metadata; it is checkpointed periodically and rebuilt after a
crash by replaying the automatic CREATE/DELETE records, whose
``create_info`` carries ``(ino, block-index)``.

Directories are kept parsed. The first lookup through a directory
decodes its blocks into a name → ino table; later lookups read that
table from memory, as the inode map is read. The bound: one table per
live directory, with the same lifetime as the loaded inode — there is
no size knob and no eviction. Invalidation: only this client writes its
directories (Sting is a per-client file system), so a table changes
only when this client rewrites the directory. A rewrite drops the table
before the write and stores the new one after it succeeds, so a write
that raises leaves no table the log does not hold; removing a directory
drops its table; ``format`` and ``restore`` start with none. A cleaner
move changes a block's address, not the bytes, so it touches no table.

What Sting does *not* do is the point of the paper: no log management,
no striping, no parity, no cleaning, no reconstruction — the layers
below provide all of it.
"""

from __future__ import annotations

import struct
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.errors import (
    BadFileDescriptorError,
    DirectoryNotEmptyFsError,
    FileExistsFsError,
    FileNotFoundFsError,
    FileSystemError,
    IsADirectoryFsError,
    NotADirectoryFsError,
)
from repro.log.address import BlockAddress
from repro.log.records import Record, RecordType, decode_record_payload_block
from repro.services.base import Service
from repro.sting import directory as dircodec
from repro.sting.inode import (
    FileType,
    INODE_BLOCK_INDEX,
    Inode,
    decode_create_info,
    encode_create_info,
)
from repro.sting.path import normalize, split_parent, split_path

ROOT_INO = 1

_IMAP_ENTRY = struct.Struct(">QQII")


class OpenFile:
    """One open file description (position + inode reference)."""

    def __init__(self, fd: int, ino: int, append: bool = False) -> None:
        self.fd = fd
        self.ino = ino
        self.pos = 0
        self.append = append
        self.closed = False


class StingFileSystem(Service):
    """A UNIX-like local file system whose disk is a Swarm log."""

    def __init__(self, service_id: int, block_size: int = 8192) -> None:
        super().__init__(service_id, "sting")
        self.block_size = block_size
        self._imap: Dict[int, BlockAddress] = {}
        self._inodes: Dict[int, Inode] = {}
        self._dirty: Set[int] = set()
        # ino -> {block index -> address}: replayed or cleaner-moved
        # blocks of inodes not yet loaded.
        self._patches: Dict[int, Dict[int, BlockAddress]] = {}
        # ino -> a directory's parsed name -> ino table (module docstring).
        self._dirents: Dict[int, Dict[str, int]] = {}
        self._next_ino = ROOT_INO
        self._next_fd = 3
        self._fds: Dict[int, OpenFile] = {}
        self._clock = 0
        self.formatted = False

    # ------------------------------------------------------------------
    # Mount lifecycle
    # ------------------------------------------------------------------

    def format(self) -> None:
        """Create an empty file system (a fresh root directory)."""
        root = Inode(ino=ROOT_INO, ftype=FileType.DIRECTORY,
                     block_size=self.block_size)
        self._inodes[ROOT_INO] = root
        self._dirents = {}
        self._next_ino = ROOT_INO + 1
        self._write_dir_entries(root, {})
        self._flush_inode(root)
        self.formatted = True

    def sync(self) -> None:
        """Flush dirty inodes and force buffered log data to the servers."""
        for ino in sorted(self._dirty):
            inode = self._inodes.get(ino)
            if inode is not None:
                self._flush_inode(inode)
        self._dirty.clear()
        self.stack.flush().wait()

    def unmount(self) -> None:
        """Sync everything and write a checkpoint (clean shutdown)."""
        self.sync()
        self.stack.checkpoint(self).wait()

    # ------------------------------------------------------------------
    # Inode plumbing
    # ------------------------------------------------------------------

    def _now(self) -> int:
        self._clock += 1
        return self._clock

    def _load_inode(self, ino: int) -> Inode:
        inode = self._inodes.get(ino)
        if inode is None:
            addr = self._imap.get(ino)
            if addr is None:
                raise FileNotFoundFsError("no inode %d" % ino)
            inode = Inode.decode(self.stack.read_block(self, addr))
            self._inodes[ino] = inode
        self._apply_patches(inode)
        return inode

    def _apply_patches(self, inode: Inode) -> None:
        """Fold replayed/cleaner block moves into a loaded inode."""
        inode.blocks.update(self._patches.pop(inode.ino, {}))

    def _flush_inode(self, inode: Inode) -> None:
        """Append the inode's current image and repoint the inode map."""
        old = self._imap.get(inode.ino)
        addr = self.stack.write_block(
            self, inode.encode(),
            create_info=encode_create_info(inode.ino, INODE_BLOCK_INDEX))
        self._imap[inode.ino] = addr
        if old is not None:
            self.stack.delete_block(self, old, create_info=encode_create_info(
                inode.ino, INODE_BLOCK_INDEX))
        self._dirty.discard(inode.ino)

    def _mark_dirty(self, inode: Inode) -> None:
        inode.mtime = self._now()
        self._dirty.add(inode.ino)

    def _allocate_ino(self) -> int:
        self._next_ino += 1
        return self._next_ino - 1

    # ------------------------------------------------------------------
    # Directory plumbing
    # ------------------------------------------------------------------

    def _read_dir_entries(self, inode: Inode) -> Dict[str, int]:
        """The directory's cached table; callers must not mutate it."""
        entries = self._dirents.get(inode.ino)
        if entries is None:
            if not inode.is_dir:
                raise NotADirectoryFsError(
                    "inode %d is not a directory" % inode.ino)
            entries = dircodec.decode_entries(self._read_all(inode))
            self._dirents[inode.ino] = entries
        return entries

    def _write_dir_entries(self, inode: Inode, entries: Dict[str, int]) -> None:
        self._dirents.pop(inode.ino, None)
        self._write_all(inode, dircodec.encode_entries(entries))
        self._dirents[inode.ino] = dict(entries)

    def _lookup(self, path: str) -> int:
        """Resolve a path to an inode number."""
        ino = ROOT_INO
        for part in split_path(path):
            inode = self._load_inode(ino)
            entries = self._read_dir_entries(inode)
            if part not in entries:
                raise FileNotFoundFsError("no such path: %r" % path)
            ino = entries[part]
        return ino

    def _lookup_parent(self, path: str) -> Tuple[Inode, str]:
        parent_path, name = split_parent(path)
        if not name:
            raise FileSystemError("operation on the root directory")
        dircodec.validate_name(name)
        parent = self._load_inode(self._lookup(parent_path))
        if not parent.is_dir:
            raise NotADirectoryFsError("%r is not a directory" % parent_path)
        return parent, name

    # ------------------------------------------------------------------
    # File content plumbing
    # ------------------------------------------------------------------

    def _read_block(self, inode: Inode, index: int) -> bytes:
        addr = inode.blocks.get(index)
        if addr is None:
            # Sparse hole: zero-filled up to the block the size implies.
            return b""
        return self.stack.read_block(self, addr)

    def _write_block(self, inode: Inode, index: int, data: bytes) -> None:
        info = encode_create_info(inode.ino, index)
        old = inode.blocks.get(index)
        addr = self.stack.write_block(self, data, create_info=info)
        inode.blocks[index] = addr
        if old is not None:
            self.stack.delete_block(self, old, create_info=info)

    def _read_all(self, inode: Inode) -> bytes:
        return self._read_span(inode, 0, inode.size)

    def _read_span(self, inode: Inode, offset: int, length: int) -> bytes:
        length = max(0, min(length, inode.size - offset))
        if length <= 0:
            return b""
        bs = inode.block_size
        out = bytearray()
        index = offset // bs
        pos = offset
        end = offset + length
        while pos < end:
            block = self._read_block(inode, index)
            block_start = index * bs
            want_from = pos - block_start
            want_to = min(end - block_start, bs)
            chunk = block[want_from:want_to]
            # Zero-fill sparse/short blocks.
            if len(chunk) < want_to - want_from:
                chunk = chunk + b"\x00" * (want_to - want_from - len(chunk))
            out += chunk
            index += 1
            pos = block_start + bs
        return bytes(out)

    def _write_span(self, inode: Inode, offset: int, data: bytes) -> None:
        if offset < 0:
            raise FileSystemError("negative write offset")
        if not data:
            return
        bs = inode.block_size
        pos = offset
        remaining = memoryview(bytes(data))
        while remaining.nbytes > 0:
            index = pos // bs
            block_start = index * bs
            in_block_off = pos - block_start
            take = min(bs - in_block_off, remaining.nbytes)
            chunk = bytes(remaining[:take])
            if in_block_off == 0 and take == bs:
                new_block = chunk
            else:
                old = self._read_block(inode, index)
                if len(old) < in_block_off:
                    old = old + b"\x00" * (in_block_off - len(old))
                new_block = old[:in_block_off] + chunk + old[in_block_off + take:]
            self._write_block(inode, index, new_block)
            remaining = remaining[take:]
            pos += take
        inode.size = max(inode.size, offset + len(data))
        self._mark_dirty(inode)

    def _write_all(self, inode: Inode, data: bytes) -> None:
        """Replace a file's entire contents."""
        self._truncate_blocks(inode, 0)
        inode.size = 0
        if data:
            self._write_span(inode, 0, data)
        else:
            self._mark_dirty(inode)

    def _truncate_blocks(self, inode: Inode, keep_blocks: int) -> None:
        for index in [i for i in inode.blocks if i >= keep_blocks]:
            addr = inode.blocks.pop(index)
            self.stack.delete_block(self, addr,
                                    create_info=encode_create_info(
                                        inode.ino, index))

    # ------------------------------------------------------------------
    # Public API: namespace operations
    # ------------------------------------------------------------------

    def mkdir(self, path: str) -> int:
        """Create a directory; returns its inode number."""
        parent, name = self._lookup_parent(path)
        entries = dict(self._read_dir_entries(parent))
        if name in entries:
            raise FileExistsFsError("path exists: %r" % path)
        child = Inode(ino=self._allocate_ino(), ftype=FileType.DIRECTORY,
                      block_size=self.block_size)
        self._inodes[child.ino] = child
        self._write_dir_entries(child, {})
        entries[name] = child.ino
        self._write_dir_entries(parent, entries)
        return child.ino

    def create(self, path: str, data: bytes = b"") -> int:
        """Create a regular file (optionally with contents); returns ino."""
        parent, name = self._lookup_parent(path)
        entries = dict(self._read_dir_entries(parent))
        if name in entries:
            raise FileExistsFsError("path exists: %r" % path)
        child = Inode(ino=self._allocate_ino(), ftype=FileType.FILE,
                      block_size=self.block_size)
        self._inodes[child.ino] = child
        self._mark_dirty(child)
        if data:
            self._write_span(child, 0, data)
        entries[name] = child.ino
        self._write_dir_entries(parent, entries)
        return child.ino

    def unlink(self, path: str) -> None:
        """Remove a regular file and delete its blocks."""
        parent, name = self._lookup_parent(path)
        entries = dict(self._read_dir_entries(parent))
        if name not in entries:
            raise FileNotFoundFsError("no such path: %r" % path)
        inode = self._load_inode(entries[name])
        if inode.is_dir:
            raise IsADirectoryFsError("%r is a directory" % path)
        self._remove_inode(inode)
        del entries[name]
        self._write_dir_entries(parent, entries)

    def rmdir(self, path: str) -> None:
        """Remove an empty directory."""
        parent, name = self._lookup_parent(path)
        entries = dict(self._read_dir_entries(parent))
        if name not in entries:
            raise FileNotFoundFsError("no such path: %r" % path)
        inode = self._load_inode(entries[name])
        if not inode.is_dir:
            raise NotADirectoryFsError("%r is not a directory" % path)
        if self._read_dir_entries(inode):
            raise DirectoryNotEmptyFsError("directory not empty: %r" % path)
        self._remove_inode(inode)
        del entries[name]
        self._write_dir_entries(parent, entries)

    def _remove_inode(self, inode: Inode) -> None:
        self._truncate_blocks(inode, 0)
        addr = self._imap.pop(inode.ino, None)
        if addr is not None:
            self.stack.delete_block(self, addr, create_info=encode_create_info(
                inode.ino, INODE_BLOCK_INDEX))
        self._inodes.pop(inode.ino, None)
        self._dirents.pop(inode.ino, None)
        self._dirty.discard(inode.ino)

    def rename(self, old_path: str, new_path: str) -> None:
        """Move/rename a file or directory (POSIX rename semantics)."""
        src_parent, src_name = self._lookup_parent(old_path)
        src_entries = dict(self._read_dir_entries(src_parent))
        if src_name not in src_entries:
            raise FileNotFoundFsError("no such path: %r" % old_path)
        moving_ino = src_entries[src_name]
        dst_parent, dst_name = self._lookup_parent(new_path)
        same_dir = dst_parent.ino == src_parent.ino
        dst_entries = (src_entries if same_dir
                       else dict(self._read_dir_entries(dst_parent)))
        existing = dst_entries.get(dst_name)
        if existing is not None and existing != moving_ino:
            target = self._load_inode(existing)
            if target.is_dir:
                if self._read_dir_entries(target):
                    raise DirectoryNotEmptyFsError(
                        "rename target not empty: %r" % new_path)
            self._remove_inode(target)
        del src_entries[src_name]
        dst_entries[dst_name] = moving_ino
        self._write_dir_entries(src_parent, src_entries)
        if not same_dir:
            self._write_dir_entries(dst_parent, dst_entries)

    def listdir(self, path: str) -> List[str]:
        """Sorted names in a directory."""
        inode = self._load_inode(self._lookup(path))
        return sorted(self._read_dir_entries(inode))

    def exists(self, path: str) -> bool:
        """Whether ``path`` resolves."""
        try:
            self._lookup(path)
            return True
        except FileNotFoundFsError:
            return False

    def stat(self, path: str) -> Inode:
        """The inode behind ``path`` (callers must not mutate it)."""
        return self._load_inode(self._lookup(path))

    def walk(self, path: str = "/") -> Iterator[Tuple[str, List[str], List[str]]]:
        """os.walk-style traversal: yields (dir, subdirs, files)."""
        inode = self._load_inode(self._lookup(path))
        entries = self._read_dir_entries(inode)
        dirs, files = [], []
        for name, ino in sorted(entries.items()):
            child = self._load_inode(ino)
            (dirs if child.is_dir else files).append(name)
        yield normalize(path), dirs, files
        for name in dirs:
            child_path = normalize(path + "/" + name)
            yield from self.walk(child_path)

    # ------------------------------------------------------------------
    # Public API: file descriptors and I/O
    # ------------------------------------------------------------------

    def open(self, path: str, create: bool = False,
             append: bool = False) -> int:
        """Open a regular file; returns a file descriptor."""
        try:
            ino = self._lookup(path)
        except FileNotFoundFsError:
            if not create:
                raise
            ino = self.create(path)
        inode = self._load_inode(ino)
        if inode.is_dir:
            raise IsADirectoryFsError("%r is a directory" % path)
        fd = self._next_fd
        self._next_fd += 1
        handle = OpenFile(fd, ino, append=append)
        if append:
            handle.pos = inode.size
        self._fds[fd] = handle
        return fd

    def close(self, fd: int) -> None:
        """Close a file descriptor."""
        handle = self._handle(fd)
        handle.closed = True
        del self._fds[fd]

    def read(self, fd: int, length: int) -> bytes:
        """Read up to ``length`` bytes at the descriptor's position."""
        handle = self._handle(fd)
        inode = self._load_inode(handle.ino)
        data = self._read_span(inode, handle.pos, length)
        handle.pos += len(data)
        return data

    def write(self, fd: int, data: bytes) -> int:
        """Write ``data`` at the descriptor's position; returns count."""
        handle = self._handle(fd)
        inode = self._load_inode(handle.ino)
        if handle.append:
            handle.pos = inode.size
        self._write_span(inode, handle.pos, data)
        handle.pos += len(data)
        return len(data)

    def seek(self, fd: int, pos: int) -> int:
        """Set the descriptor's position."""
        handle = self._handle(fd)
        if pos < 0:
            raise FileSystemError("negative seek position")
        handle.pos = pos
        return pos

    def truncate(self, path: str, size: int) -> None:
        """Shrink or extend a file to ``size`` bytes."""
        inode = self._load_inode(self._lookup(path))
        if inode.is_dir:
            raise IsADirectoryFsError("%r is a directory" % path)
        if size < inode.size:
            keep = (size + inode.block_size - 1) // inode.block_size
            # Rewrite the boundary block shortened.
            if size % inode.block_size and (keep - 1) in inode.blocks:
                boundary = self._read_block(inode, keep - 1)
                self._write_block(inode, keep - 1,
                                  boundary[:size % inode.block_size])
            self._truncate_blocks(inode, keep)
        inode.size = size
        self._mark_dirty(inode)

    def _handle(self, fd: int) -> OpenFile:
        handle = self._fds.get(fd)
        if handle is None or handle.closed:
            raise BadFileDescriptorError("bad file descriptor %d" % fd)
        return handle

    # -- whole-file conveniences ------------------------------------------------

    def write_file(self, path: str, data: bytes) -> None:
        """Create or replace ``path`` with ``data``."""
        try:
            ino = self._lookup(path)
        except FileNotFoundFsError:
            self.create(path, data)
            return
        inode = self._load_inode(ino)
        if inode.is_dir:
            raise IsADirectoryFsError("%r is a directory" % path)
        self._write_all(inode, data)

    def read_file(self, path: str) -> bytes:
        """Entire contents of ``path``."""
        inode = self._load_inode(self._lookup(path))
        if inode.is_dir:
            raise IsADirectoryFsError("%r is a directory" % path)
        return self._read_all(inode)

    # ------------------------------------------------------------------
    # Service lifecycle (checkpoints, replay, cleaner moves)
    # ------------------------------------------------------------------

    def checkpoint_state(self) -> bytes:
        """Serialize the inode map (dirty inodes are flushed first)."""
        for ino in sorted(self._dirty):
            inode = self._inodes.get(ino)
            if inode is not None:
                self._flush_inode(inode)
        self._dirty.clear()
        out = [struct.pack(">QQI", self._next_ino, self._clock,
                           len(self._imap))]
        for ino in sorted(self._imap):
            addr = self._imap[ino]
            out.append(_IMAP_ENTRY.pack(ino, addr.fid, addr.offset,
                                        addr.length))
        return b"".join(out)

    def restore(self, state: Optional[bytes], records: List[Record]) -> None:
        """Rebuild the inode map from a checkpoint plus replayed records."""
        self._imap = {}
        self._inodes = {}
        self._dirty = set()
        self._patches = {}
        self._dirents = {}
        self._fds = {}
        self._next_ino = ROOT_INO + 1
        if state:
            self._next_ino, self._clock, count = struct.unpack_from(">QQI",
                                                                    state, 0)
            pos = 20
            for _ in range(count):
                ino, fid, offset, length = _IMAP_ENTRY.unpack_from(state, pos)
                self._imap[ino] = BlockAddress(fid, offset, length)
                pos += _IMAP_ENTRY.size
        for record in records:
            if record.rtype not in (RecordType.CREATE, RecordType.DELETE):
                continue
            addr, owner, info = decode_record_payload_block(record.payload)
            if owner != self.service_id:
                continue
            decoded = decode_create_info(info)
            if decoded is None:
                continue
            ino, index = decoded
            if record.rtype == RecordType.CREATE:
                self._next_ino = max(self._next_ino, ino + 1)
                if index == INODE_BLOCK_INDEX:
                    self._imap[ino] = addr
                else:
                    self._patches.setdefault(ino, {})[index] = addr
            else:  # DELETE
                if index == INODE_BLOCK_INDEX and self._imap.get(ino) == addr:
                    del self._imap[ino]
                elif self._patches.get(ino, {}).get(index) == addr:
                    del self._patches[ino][index]
        self.formatted = ROOT_INO in self._imap

    def on_block_moved(self, old_addr: BlockAddress, new_addr: BlockAddress,
                       create_info: bytes) -> None:
        """Cleaner relocated one of our blocks: repoint metadata."""
        decoded = decode_create_info(create_info)
        if decoded is None:
            return
        ino, index = decoded
        if index == INODE_BLOCK_INDEX:
            if self._imap.get(ino) == old_addr:
                self._imap[ino] = new_addr
        else:
            inode = self._inodes.get(ino)
            if inode is not None and inode.blocks.get(index) == old_addr:
                inode.blocks[index] = new_addr
                self._dirty.add(ino)
            else:
                self._patches.setdefault(ino, {})[index] = new_addr
