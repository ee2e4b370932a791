"""Outside-in tracing: timing wrappers on the public callables of each
layer, installed from here and removed again — ``repro`` itself carries
no instrumentation.

A *span* is one call of a wrapped callable: ``[key, parent, start,
end]`` where ``key`` indexes :attr:`Tracer.keys` (layer, name),
``parent`` is the index of the enclosing span on the *same thread* (-1
for none) and times are ``perf_counter`` seconds. Spans stay in memory
until the round is over. A layer's self time is its spans' durations
minus the time their same-thread children cover.

On the TCP plane the caller thread sits blocked inside
``TcpTransport.call/submit/submit_many`` while two event-loop threads
do codec, dispatch and server work. That blocked time is reported as
``rpc.net`` *wait*; the loop threads' busy spans are subtracted from it
and what remains is ``rpc.net`` *self* (asyncio, syscalls, thread
hand-off), so the layers still sum to the caller's wall time.

What this cannot see: generator and coroutine bodies (wrapping them
would time only their creation, so they are left alone and their time
lands in the consuming layer), private helpers, and modules that are
not a listed layer (``log.reader``, ``log.records``, ``util.packing``,
…) — all of those count as self time of the nearest wrapped caller.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: The root span the harness opens around every timed operation.
WINDOW = ("harness", "op_window")

#: layer -> classes whose public methods are wrapped ("module:Class").
LAYER_CLASSES: Dict[str, Sequence[str]] = {
    "sting": ("repro.sting.fs:StingFileSystem",),
    "services.stack": ("repro.services.stack:ServiceStack",),
    "services.logical_disk": (
        "repro.services.logical_disk:LogicalDiskService",),
    "services.cache": ("repro.services.cache:CacheService",),
    "services.cleaner": ("repro.services.cleaner:CleanerService",),
    "log.layer": ("repro.log.layer:LogLayer", "repro.log.layer:FlushTicket"),
    "log.fragment": ("repro.log.fragment:FragmentBuilder",
                     "repro.log.fragment:Fragment",
                     "repro.log.fragment:FragmentHeader"),
    "log.coding": ("repro.log.coding:XorAccumulator",
                   "repro.log.coding:RSAccumulator",
                   "repro.log.coding:XorEngine",
                   "repro.log.coding:ReedSolomonEngine"),
    "log.reconstruct": ("repro.log.reconstruct:Reconstructor",),
    "log.location": ("repro.log.location:LocationCache",),
    "log.recovery": (),
    "util.checksums": (),
    "rpc.retry": ("repro.rpc.retry:RetryingTransport",),
    "rpc.transport": ("repro.rpc.transport:Transport",
                      "repro.rpc.transport:LocalTransport"),
    "rpc.net": ("repro.rpc.net:TcpTransport",),
    "rpc.codec": (),
    "rpc.dispatch": (),
    "server.server": ("repro.server.server:StorageServer",),
    "server.slots": ("repro.server.slots:SlotTable",),
    "server.backend": ("repro.server.backend:MemoryBackend",),
}

#: layer -> functions reached through a module-level name. A by-name
#: import (``from x import f``) binds ``f`` in the *importing* module,
#: so that is the name that must be patched.
LAYER_FUNCTIONS: Dict[str, Sequence[str]] = {
    "log.fragment": ("repro.log.layer:make_parity_fragment",),
    "log.coding": ("repro.log.layer:make_engine",
                   "repro.log.reconstruct:decode_data",
                   "repro.log.reconstruct:engine_for_stripe",
                   "repro.log.coding:decode_data",
                   "repro.log.coding:decode_matrix",
                   "repro.log.coding:scale_bytes"),
    "log.recovery": ("repro.services.stack:recover_service_state",
                     "repro.log.recovery:find_newest_marked_fid",
                     "repro.log.recovery:load_checkpoint_table"),
    "util.checksums": ("repro.log.fragment:crc32_of",),
    "rpc.codec": ("repro.rpc.net:decode_message",
                  "repro.rpc.net:frame_parts"),
    "rpc.dispatch": ("repro.rpc.net:dispatch",
                     "repro.rpc.transport:dispatch"),
    "server.backend": ("repro.server.slots:encode_fragment_map",
                       "repro.server.slots:decode_fragment_map"),
}

LAYERS: Tuple[str, ...] = tuple(LAYER_CLASSES)

#: Caller-thread spans whose duration is time blocked on the wire.
WAIT_SPANS = frozenset(("TcpTransport.call", "TcpTransport.submit",
                        "TcpTransport.submit_many"))


#: The one function whose result is also measured: the bytes of every
#: frame it builds are the bytes put on the wire.
FRAME_PARTS = "repro.rpc.net:frame_parts"

#: Accessors and predicates that run for well under a microsecond:
#: timing them would cost more than they do (one of them is called
#: 30,000 times per fs_churn round). Their time stays in the caller.
TOO_SMALL = frozenset((
    "FragmentBuilder.free_payload", "FragmentBuilder.fits_block",
    "FragmentBuilder.fits_record", "FragmentBuilder.max_block_size",
    "FragmentBuilder.buffered_image", "Fragment.encode",
    "LogLayer.max_block_size", "LogLayer.crash_point",
    "LogLayer.known_location", "LogLayer.inflight_stripes",
    "LogLayer.pending_events", "LocationCache.get",
    "SlotTable.info_of", "SlotTable.slot_of",
))


class Tracer:
    """Span store plus the install/uninstall of the wrappers.

    A wrapper does as little as it can: two clock reads and one tuple
    appended to one shared list when the call *returns* (``list.append``
    is atomic under the GIL, so three threads can share it). Who called
    whom is worked out afterwards, from the nesting of the intervals
    (:func:`nest`).
    """

    def __init__(self) -> None:
        self.active = False
        self.keys: List[Tuple[str, str]] = [WINDOW]
        self.records: List[tuple] = []      # (key, thread, start, end)
        self.frame_sizes: List[int] = []    # bytes of each frame built
        self.caller_thread: Optional[int] = None
        # (owner, attribute, original, wrapper), built by the first install
        self._targets: List[Tuple[object, str, object, object]] = []
        self.installed = False

    # -- recording ----------------------------------------------------------

    def window_begin(self) -> None:
        """Open one timed operation: wrappers record from here on."""
        self.active = True

    def window_end(self, start: float, end: float) -> None:
        """Close it; the window itself becomes the root span, with the
        harness's own clock readings."""
        self.active = False
        if self.caller_thread is None:
            self.caller_thread = threading.get_ident()
        self.records.append((0, self.caller_thread, start, end))

    def wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        """``fn`` with a span around every call made inside a window."""
        key = len(self.keys)
        self.keys.append((layer, name))
        tracer, record = self, self.records.append
        clock, ident = perf_counter, threading.get_ident

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record((key, ident(), start, clock()))

        return traced

    def _sized(self, frame_parts: Callable) -> Callable:
        """``frame_parts`` that also notes how many bytes each frame has."""
        tracer, note = self, self.frame_sizes.append

        @functools.wraps(frame_parts)
        def sized(request_id, msg):
            parts = frame_parts(request_id, msg)
            if tracer.active:
                note(sum(map(len, parts)))
            return parts

        return sized

    def take_round(self) -> Tuple[Dict[int, List[list]], int]:
        """Hand over and forget what was recorded since the last call:
        the spans, nested per thread, and the bytes put on the wire."""
        records, wire_bytes = self.records[:], sum(self.frame_sizes)
        del self.records[:], self.frame_sizes[:]
        return nest(records), wire_bytes

    # -- install / uninstall ------------------------------------------------

    def install(self) -> None:
        """Patch every target; a pass-through until a window opens."""
        if self.installed:
            raise RuntimeError("tracer already installed")
        if not self._targets:
            for layer, owner, attr, display in iter_targets():
                raw = vars(owner)[attr]
                bound = isinstance(raw, (classmethod, staticmethod))
                fn = raw.__func__ if bound else raw
                if display == FRAME_PARTS:
                    fn = self._sized(fn)
                new = self.wrap(layer, display.split(":")[1], fn)
                self._targets.append(
                    (owner, attr, raw, type(raw)(new) if bound else new))
        for owner, attr, _raw, new in self._targets:
            setattr(owner, attr, new)
        self.installed = True

    def uninstall(self) -> None:
        """Put every original back."""
        for owner, attr, raw, _new in self._targets:
            setattr(owner, attr, raw)
        self.installed = False


def nest(records: Iterable[tuple]) -> Dict[int, List[list]]:
    """Turn ``(key, thread, start, end)`` records, in any order, into
    per-thread span lists ``[key, parent, start, end]`` in start order,
    ``parent`` indexing the same list (-1 for none).

    Calls on one thread nest, so a span's parent is the innermost span
    that started before it and has not ended yet. An enclosing span
    sorts first when two start on the same clock tick.
    """
    by_thread: Dict[int, List[list]] = {}
    for key, thread, start, end in sorted(
            records, key=lambda r: (r[1], r[2], -r[3])):
        by_thread.setdefault(thread, []).append([key, -1, start, end])
    for spans in by_thread.values():
        open_spans: List[int] = []
        for index, span in enumerate(spans):
            while open_spans and spans[open_spans[-1]][3] <= span[2]:
                open_spans.pop()
            if open_spans:
                span[1] = open_spans[-1]
            open_spans.append(index)
    return by_thread


def _resolve(path: str):
    module_name, attr = path.split(":")
    return importlib.import_module(module_name), attr


def _traceable(raw) -> bool:
    fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
    return (inspect.isfunction(fn)
            and not inspect.isgeneratorfunction(fn)
            and not inspect.iscoroutinefunction(fn))


def iter_targets() -> Iterable[Tuple[str, object, str, str]]:
    """Every ``(layer, owner, attribute, display name)`` to patch.

    For a class the public methods it defines itself; for a function
    the module-level name given in :data:`LAYER_FUNCTIONS`.
    """
    for layer in LAYERS:
        for path in LAYER_CLASSES[layer]:
            module, class_name = _resolve(path)
            cls = getattr(module, class_name)
            for attr, raw in vars(cls).items():
                if (not attr.startswith("_") and _traceable(raw)
                        and "%s.%s" % (class_name, attr) not in TOO_SMALL):
                    yield (layer, cls, attr,
                           "%s:%s.%s" % (module.__name__, class_name, attr))
        for path in LAYER_FUNCTIONS.get(layer, ()):
            module, attr = _resolve(path)
            yield layer, module, attr, path


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------


def self_times(spans: Sequence[Sequence]) -> List[float]:
    """Self time of each span of one thread: its duration minus the
    durations of its direct children (children nest, never overlap)."""
    selfs = [span[3] - span[2] for span in spans]
    for span in spans:
        if span[1] >= 0:
            selfs[span[1]] -= span[3] - span[2]
    return selfs


class Budget:
    """One round's spans folded into per-layer totals (seconds)."""

    def __init__(self) -> None:
        self.wall = 0.0                 # sum of the op windows
        self.unattributed = 0.0         # window time inside no layer
        self.self_s: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
        self.calls: Dict[str, int] = {layer: 0 for layer in LAYERS}
        self.wait_s = 0.0               # caller blocked in TcpTransport
        self.loop_busy_s = 0.0          # event-loop threads' span time
        self.calls_by_name: Dict[str, int] = {}
        self.durations: Dict[str, List[float]] = {}   # by span name


def fold(by_thread: Dict[int, Sequence[Sequence]],
         keys: Sequence[Tuple[str, str]], caller_thread: int,
         keep: Iterable[str] = ()) -> Budget:
    """Fold one round's spans into a :class:`Budget`.

    ``keep`` names the spans whose individual durations are wanted
    (for per-call medians). By construction
    ``sum(self_s.values()) + unattributed == wall``.
    """
    budget = Budget()
    keep = set(keep)
    for tid, spans in by_thread.items():
        on_caller = tid == caller_thread
        for span, self_s in zip(spans, self_times(spans)):
            layer, name = keys[span[0]]
            duration = span[3] - span[2]
            if span[0] == 0:
                budget.wall += duration
                budget.unattributed += self_s
                continue
            budget.self_s[layer] += self_s
            budget.calls[layer] += 1
            budget.calls_by_name[name] = budget.calls_by_name.get(name, 0) + 1
            if not on_caller:
                budget.loop_busy_s += self_s
            elif name in WAIT_SPANS:
                budget.wait_s += duration
            if name in keep:
                budget.durations.setdefault(name, []).append(duration)
    # The loop threads worked while the caller was blocked: take their
    # busy time out of rpc.net so nothing is counted twice.
    budget.self_s["rpc.net"] -= budget.loop_busy_s
    return budget
