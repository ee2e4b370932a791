"""swarm-fsck: verify and repair one client's striped log.

The scrubber asks every reachable server for the client's FIDs
(a diagnostic ``ListFids`` operation), fetches each fragment, and
checks three invariant families:

* **Integrity** — every fragment image parses and its header checksum
  matches (payload structure is walked item by item).
* **Stripe consistency** — every member of a stripe agrees on the
  stripe descriptor, and every parity member's payload equals the
  coding engine's encode of its data siblings' images (XOR for single
  parity, Reed–Solomon slots for ``m ≥ 2``).
* **Availability** — stripes missing at most ``m`` members (``m`` =
  the stripe's parity count) are *degraded* (still recoverable); with
  more missing — or any member missing from a replication-free
  ``m=0`` stripe — they are *lost*.

``repair_client_log`` re-materializes missing-but-recoverable fragments
onto a designated server, returning the log to full redundancy. Its
rebuilds run through the background
:class:`~repro.health.repair.RepairDaemon`, and every fragment it
writes goes through the one verified store,
:meth:`~repro.log.reconstruct.Reconstructor.store_verified`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.errors import SwarmError
from repro.health.repair import RepairDaemon
from repro.log.coding import engine_for_stripe
from repro.log.fragment import (
    Fragment,
    FragmentBuilder,
    FragmentHeader,
    HEADER_SIZE,
    make_parity_fragment,
)
from repro.log.location import list_client_fids
from repro.log.reconstruct import Reconstructor
from repro.rpc import messages as m
from repro.rpc.completion import scatter_call


@dataclass
class StripeFinding:
    """Health of one stripe."""

    base_fid: int
    width: int
    present: List[int] = field(default_factory=list)
    missing: List[int] = field(default_factory=list)
    corrupt: List[int] = field(default_factory=list)
    parity_valid: Optional[bool] = None
    parity_count: int = 1
    """Parity members this stripe carries (``m`` of its k-of-n code);
    bounds how many bad members stay recoverable. 0 for
    replication-free stripes, whose every loss is final."""
    torn_tail: bool = False
    """The present members form an exact prefix of the stripe (all of
    them intact) and everything after — more than parity could rebuild —
    is missing: the signature of a client that died mid-scatter. The
    landed prefix is a consistent log tail (stores dispatch in stripe
    order), so the stripe is *torn*, not lost: nothing in the missing
    suffix was ever durable, and repair can complete the stripe with
    empty sealed members plus recomputed parity."""

    @property
    def status(self) -> str:
        """``healthy`` / ``degraded`` (recoverable) / ``torn`` /
        ``lost``."""
        bad = len(self.missing) + len(self.corrupt)
        if bad == 0 and self.parity_valid is not False:
            return "healthy"
        if self.parity_count and bad <= self.parity_count:
            return "degraded"
        if self.torn_tail:
            return "torn"
        return "lost"


@dataclass
class FsckReport:
    """Everything the scrubber found for one client log."""

    client_id: int
    fragments_checked: int = 0
    stripes: List[StripeFinding] = field(default_factory=list)
    locations: Dict[int, str] = field(default_factory=dict)
    """Where the scrub found each fid (the listing sweep's answer)."""
    headers: Dict[int, FragmentHeader] = field(default_factory=dict)
    """Each scrubbed stripe's descriptor by base fid: the header of its
    highest-fid member that parsed."""

    @property
    def healthy(self) -> bool:
        """True when every stripe is fully intact."""
        return all(s.status == "healthy" for s in self.stripes)

    @property
    def repairable(self) -> bool:
        """True when every stripe is healthy, degraded, or torn —
        i.e. :func:`repair_client_log` can return the log to full
        health without losing anything that was ever durable."""
        return all(s.status != "lost" for s in self.stripes)

    def by_status(self, status: str) -> List[StripeFinding]:
        """Stripes with the given status."""
        return [s for s in self.stripes if s.status == status]

    def summary(self) -> str:
        """One-line human summary."""
        return ("client %d: %d fragments, %d stripes "
                "(%d healthy, %d degraded, %d torn, %d lost)"
                % (self.client_id, self.fragments_checked,
                   len(self.stripes), len(self.by_status("healthy")),
                   len(self.by_status("degraded")),
                   len(self.by_status("torn")),
                   len(self.by_status("lost"))))


def _fetch_all(transport, targets: Dict[int, str],
               principal: str) -> Dict[int, bytes]:
    """Fetch many fragments concurrently; failures are simply absent."""
    plan = sorted(targets.items())
    futures = scatter_call(
        transport,
        [(server_id, m.RetrieveRequest(fid=fid, principal=principal))
         for fid, server_id in plan])
    images: Dict[int, bytes] = {}
    for (fid, _server_id), future in zip(plan, futures):
        if not future.ok:
            continue
        images[fid] = bytes(future.value.payload)
    return images


def check_client_log(transport, client_id: int,
                     principal: str = "") -> FsckReport:
    """Scrub every stripe of one client's log."""
    report = FsckReport(client_id=client_id,
                        locations=list_client_fids(transport, client_id,
                                                   principal))
    fetched = _fetch_all(transport, report.locations, principal)
    # Parse what is present; learn stripe shapes from headers.
    images: Dict[int, bytes] = {}
    corrupt: Set[int] = set()
    for fid, image in sorted(fetched.items()):
        report.fragments_checked += 1
        try:
            fragment = Fragment.decode(image, verify_payload=True)
        except SwarmError:
            corrupt.add(fid)
            continue
        images[fid] = image
        # Group into stripes by descriptor. A corrupt fragment cannot
        # name its own stripe, but a surviving sibling's descriptor
        # covers it (consecutive FIDs), so known stripes absorb corrupt
        # members below.
        report.headers[fragment.header.stripe_base_fid] = fragment.header

    for base, header in sorted(report.headers.items()):
        width, nparity = header.stripe_width, header.parity_count
        finding = StripeFinding(base_fid=base, width=width,
                                parity_count=nparity)
        member_images: Dict[int, bytes] = {}
        for offset in range(width):
            fid = base + offset
            if fid in corrupt:
                finding.corrupt.append(fid)
            elif fid in images:
                finding.present.append(fid)
                member_images[offset] = images[fid]
            else:
                finding.missing.append(fid)
        if not finding.missing and not finding.corrupt and nparity:
            ndata = width - nparity
            data_images = [member_images[off] for off in range(ndata)]
            expected = engine_for_stripe(nparity).encode(data_images)
            finding.parity_valid = all(
                bytes(Fragment.decode(member_images[ndata + slot]).payload)
                == expected[slot]
                for slot in range(nparity))
        if finding.missing and not finding.corrupt:
            # Torn-tail signature: intact prefix, missing suffix. Stores
            # dispatch in stripe order, so a client dying mid-scatter
            # leaves exactly this shape — the suffix was never durable.
            npresent = len(finding.present)
            prefix = [base + off for off in range(npresent)]
            suffix = [base + off for off in range(npresent, width)]
            finding.torn_tail = (finding.present == prefix
                                 and finding.missing == suffix)
        report.stripes.append(finding)
    return report


def repair_client_log(transport, client_id: int,
                      target_server: Union[str, Sequence[str]],
                      principal: str = "") -> int:
    """Re-materialize every recoverable missing/corrupt fragment.

    Returns the number of fragments restored. Corrupt fragments are
    deleted from their servers first; then one
    :class:`~repro.health.repair.RepairDaemon` rebuilds every degraded
    stripe's lost members, and torn stripes are seal-completed last.

    ``target_server`` may be one server name or a sequence of them;
    with several, the daemon spreads a stripe's lost members
    round-robin in stripe order, so a double-erasure stripe's two
    rebuilt fragments land on *distinct* servers (two members of one
    stripe on one server would turn that server back into a
    double-loss single point of failure).
    """
    daemon = RepairDaemon(transport, client_id, target_server,
                          principal=principal)
    report = check_client_log(transport, client_id, principal)
    # The scrub's listing and headers seed the daemon's location cache
    # and stripe table, so the rebuilds below neither broadcast nor
    # probe.
    daemon.locations.learn_listing(report.locations, report.headers.values())
    degraded = report.by_status("degraded")
    # Purge every corrupt fragment in one scatter before rebuilding: a
    # rebuilt image must never race its damaged predecessor.
    purge = sorted((fid, report.locations[fid])
                   for finding in degraded for fid in finding.corrupt)
    scatter_call(
        transport,
        [(server_id, m.DeleteRequest(fid=fid, principal=principal))
         for fid, server_id in purge])
    for fid, _server_id in purge:
        daemon.locations.evict(fid)
    for finding in degraded:
        daemon.enqueue(finding.corrupt + finding.missing)
    restored = 0
    while daemon.pending:
        restored += daemon.step()
    for finding in report.by_status("torn"):
        restored += _complete_torn_stripe(daemon.reconstructor, finding)
    return restored


def _complete_torn_stripe(rebuilder: Reconstructor,
                          finding: StripeFinding) -> int:
    """Seal-complete a torn-tail stripe back to full health.

    The missing suffix was never durable (stores dispatch in stripe
    order), so nothing is reconstructed: each missing *data* slot gets
    an empty sealed fragment carrying the stripe's own descriptor, and
    each parity slot is recomputed over the real prefix plus those
    empties. Returns the number of fragments stored and verified; a
    store failure leaves the stripe torn (never half-wrong — parity
    goes last, a fill that fails its read-back is deleted, and readers
    treat a missing member as torn exactly as before).
    """
    held = {fid: rebuilder.locations.get(fid) for fid in finding.present}
    images = _fetch_all(rebuilder.transport,
                        {fid: sid for fid, sid in held.items()
                         if sid is not None}, rebuilder.principal)
    if sorted(images) != finding.present:
        return 0  # a prefix member vanished since the scan; re-run fsck
    sample = Fragment.decode(images[finding.present[0]]).header
    base, width = finding.base_fid, finding.width
    servers = sample.servers
    parity_index = sample.parity_index
    ndata = width - sample.parity_count
    if len(servers) < width:
        return 0  # descriptor predates full-width server lists
    data_images: List[bytes] = []
    fills: List[Tuple[int, bytes]] = []  # (fid, image) to store, in order
    for offset in range(ndata):
        fid = base + offset
        if fid in images:
            data_images.append(images[fid])
            continue
        builder = FragmentBuilder(fid, sample.client_id, HEADER_SIZE + 1)
        fragment = builder.seal(base, width, offset, parity_index, servers)
        image = fragment.encode()
        data_images.append(image)
        fills.append((fid, image))
    engine = engine_for_stripe(sample.parity_count)
    if engine is not None:
        for slot, payload in enumerate(engine.encode(data_images)):
            fid = base + ndata + slot
            if fid in images:
                continue
            parity = make_parity_fragment(
                fid, sample.client_id, payload, base, width, ndata + slot,
                servers, parity_index)
            fills.append((fid, parity.encode()))
    stored = 0
    for fid, image in fills:
        try:
            rebuilder.store_verified(fid, image, servers[fid - base])
        except SwarmError:
            return stored
        stored += 1
    return stored
