"""Exception hierarchy for the Swarm reproduction.

Every error raised by the library derives from :class:`SwarmError` so that
callers can catch library failures with a single ``except`` clause while
still being able to distinguish the precise failure mode.
"""

from __future__ import annotations


class SwarmError(Exception):
    """Base class for every error raised by this library."""


class ConfigError(SwarmError):
    """A configuration value is invalid or inconsistent."""


# ---------------------------------------------------------------------------
# Storage-server errors
# ---------------------------------------------------------------------------

class ServerError(SwarmError):
    """Base class for storage-server failures."""


class ServerUnavailableError(ServerError):
    """The server is crashed, partitioned, or administratively down."""


class FragmentNotFoundError(ServerError):
    """No fragment with the requested FID exists on this server."""


class FragmentExistsError(ServerError):
    """A fragment with the requested FID already exists (stores are
    write-once)."""


class OutOfSlotsError(ServerError):
    """The server has no free fragment slots left on its disk."""


class AccessDeniedError(ServerError):
    """An ACL check rejected the request."""


class AclNotFoundError(ServerError):
    """No ACL with the requested AID exists."""


class BadRequestError(ServerError):
    """The request is malformed (bad offsets, overlapping AID ranges, ...)."""


class ScriptError(ServerError):
    """A SwarmScript program failed to parse or execute."""


class CorruptMetadataError(ServerError):
    """The server's durable fragment map is damaged somewhere other than
    the torn tail a crash can leave, so it cannot be rebuilt."""


# ---------------------------------------------------------------------------
# Log-layer errors
# ---------------------------------------------------------------------------

class LogError(SwarmError):
    """Base class for log-layer failures."""


class BlockNotFoundError(LogError):
    """The requested block address does not resolve to live data."""


class CorruptFragmentError(LogError):
    """A fragment failed checksum or structural validation."""


class ReconstructionError(LogError):
    """A missing fragment could not be reconstructed from its stripe."""


class UnrecoverableError(ReconstructionError):
    """Two or more members of one stripe are missing or corrupt: the
    stripe's single parity cannot recover the data. Raised instead of
    returning garbage so callers can distinguish genuine data loss from
    a transient locate failure."""


# ---------------------------------------------------------------------------
# Service / file-system errors
# ---------------------------------------------------------------------------

class ServiceError(SwarmError):
    """Base class for stacked-service failures."""


class AruError(ServiceError):
    """Atomic-recovery-unit misuse (e.g. ending an ARU that never began)."""


class FileSystemError(SwarmError):
    """Base class for Sting and baseline file-system failures."""


class FileNotFoundFsError(FileSystemError):
    """Path lookup failed."""


class FileExistsFsError(FileSystemError):
    """Path already exists where a new entry was to be created."""


class NotADirectoryFsError(FileSystemError):
    """A path component that must be a directory is a regular file."""


class IsADirectoryFsError(FileSystemError):
    """A file operation was applied to a directory."""


class DirectoryNotEmptyFsError(FileSystemError):
    """Attempted to remove a non-empty directory."""


class BadFileDescriptorError(FileSystemError):
    """Operation on a closed or invalid file handle."""


# ---------------------------------------------------------------------------
# Simulation errors
# ---------------------------------------------------------------------------

class SimulationError(SwarmError):
    """Base class for discrete-event simulator misuse."""
