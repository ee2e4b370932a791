"""Log-layer configuration."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.errors import ConfigError
from repro.log.fragment import MAX_STRIPE_WIDTH
from repro.server.config import DEFAULT_FRAGMENT_SIZE


@dataclass(frozen=True)
class LogConfig:
    """Per-client log parameters.

    Attributes
    ----------
    client_id:
        This client's numeric identity; embedded in the high bits of
        every FID the client allocates, so clients never need to
        coordinate FID assignment.
    fragment_size:
        Fragment capacity in bytes (1 MB in the prototype); must match
        the servers' slot size.
    principal:
        Name presented for ACL checks (defaults to ``client-<id>``).
    """

    client_id: int
    fragment_size: int = DEFAULT_FRAGMENT_SIZE
    principal: str = ""
    fragment_aid: int = 0
    """ACL id to tag every stored fragment with (0 = untagged).

    When set, the whole byte range of each fragment this client stores
    is protected by that ACL (§2.4.2): servers with enforcement on will
    refuse reads/deletes from principals outside the ACL. Create the
    ACL on every server in the stripe group first.
    """
    spare_servers: Tuple[str, ...] = ()
    """Standby servers the auto-reform policy may draft into the stripe
    group when a member is declared dead. Order is preference order; a
    spare is used at most once. Empty means a dead member is dropped
    and the group shrinks (never below ``max(2, parity_fragments + 1)``
    servers)."""
    pipeline_stores: bool = True
    """Dispatch a stripe's fragment stores as one ``submit_many`` plan
    (overlapped on the simulated testbed) instead of each store as its
    own one-op plan, one at a time."""
    group_commit_bytes: int = 4096
    """Coalesce service records smaller than this into a client-side
    batch flushed before the next block append, checkpoint, or flush.
    0 disables group commit (every record hits a builder immediately)."""
    max_inflight_reads: int = 2
    """Read-ahead window: how many fragment retrieves a sequential
    reader keeps in flight while consuming the log in order; each
    window's retrieves go out as one overlapped scatter. 1 restores the
    strict one-fragment-ahead prefetch."""
    parity_fragments: int = 1
    """Parity members per stripe (``m`` of the k-of-n code). 1 is the
    paper's rotated single parity; 0 writes replication-free stripes
    (no redundancy); 2+ requires ``coding="rs"`` and tolerates that
    many simultaneous member losses per stripe. Clamped at stripe
    close so a group always keeps at least one data member."""
    coding: str = "xor"
    """Erasure-coding engine: ``"xor"`` (single parity, the original
    byte-identical path) or ``"rs"`` (Reed-Solomon over GF(256), any
    ``parity_fragments``)."""

    def __post_init__(self) -> None:
        if self.client_id < 0:
            raise ConfigError("client_id must be non-negative")
        if self.fragment_size < 4096:
            raise ConfigError("fragment_size unreasonably small")
        if self.max_inflight_reads < 1:
            raise ConfigError("max_inflight_reads must be >= 1")
        if self.group_commit_bytes < 0:
            raise ConfigError("group_commit_bytes must be >= 0")
        if len(set(self.spare_servers)) != len(self.spare_servers):
            raise ConfigError("duplicate server in spare_servers")
        if not 0 <= self.parity_fragments < MAX_STRIPE_WIDTH:
            raise ConfigError("parity_fragments must be in [0, %d)"
                              % MAX_STRIPE_WIDTH)
        if self.coding not in ("xor", "rs"):
            raise ConfigError("unknown coding scheme %r" % (self.coding,))
        if self.coding == "xor" and self.parity_fragments > 1:
            raise ConfigError(
                "xor coding supports at most one parity fragment; use "
                "coding='rs' for parity_fragments=%d" % self.parity_fragments)
        if not self.principal:
            object.__setattr__(self, "principal", "client-%d" % self.client_id)
