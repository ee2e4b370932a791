"""Golden wire frames: one pinned frame per RPC message type.

The on-disk fragment format already has a golden; this is the same for
the wire. ``frame_parts(7, msg)`` — header stamped from ``wire_size``,
body from the codec — is hashed for one fixed instance of every message
class in :mod:`repro.rpc.messages`. A digest that moves means the bytes
a deployed peer would see moved: a PR that folds verbs or reshapes the
codec changes these knowingly and says so, or not at all.
"""

import dataclasses
import hashlib

import pytest

from repro.rpc import codec, messages as m
from repro.rpc.net import frame_parts

REQUEST_ID = 7

#: (fixed instance, first 16 hex digits of sha256 over its frame).
GOLDEN = [
    (m.StoreRequest(fid=(3 << 40) | 9, data=bytes(range(48)),
                    principal="alice", marked=True,
                    acl_ranges=((0, 16, 2), (16, 32, 5))),
     "f5ecbb5e46efc32e"),
    (m.RetrieveRequest(fid=(3 << 40) | 9, offset=64, length=1024,
                       principal="alice"),
     "29825af2bf56eb6c"),
    (m.MultiRetrieveRequest(ranges=((11, 0, 64), (12, 128, 256)),
                            principal="cleaner"),
     "7fa93bd921c2f7fe"),
    (m.DeleteRequest(fid=77, principal="alice"), "ea81939790e33ad9"),
    (m.PreallocateRequest(fid=78, principal="alice"), "512349b3f1a50b36"),
    (m.LastMarkedRequest(client_id=3, principal="alice"),
     "b54249e62964f7fb"),
    (m.HoldsRequest(fids=(1, 2, 2**63 - 1), principal="probe"),
     "27d9a6ad2fc49ac9"),
    (m.CreateAclRequest(readers=("alice", "bob"), writers=("carol",),
                        principal="root"),
     "44eb94d1388cdcec"),
    (m.ModifyAclRequest(aid=4, readers=("dave",), writers=None,
                        principal="root"),
     "be65f9ff6e62ceb5"),
    (m.DeleteAclRequest(aid=4, principal="root"), "aae3ad6f8523f01b"),
    (m.ListFidsRequest(client_id=3, principal="fsck"), "6a2a43a781fb9ac2"),
    (m.EvalScriptRequest(script="puts [fragments]", principal="root"),
     "979e149bbc7f8360"),
    (m.Response(value=-2, payload=b"\x00\xffpayload", text="ok"),
     "68eec081fb25de38"),
    (m.ErrorResponse(error_class="FragmentNotFoundError",
                     message="fid 77 gone"),
     "c68e151ace4db3a5"),
]


@pytest.mark.parametrize("message, digest", GOLDEN,
                         ids=[type(msg).__name__ for msg, _ in GOLDEN])
def test_frame_is_pinned(message, digest):
    frame = b"".join(frame_parts(REQUEST_ID, message))
    assert hashlib.sha256(frame).hexdigest()[:16] == digest, frame.hex()


def test_every_message_class_is_pinned():
    declared = {cls for cls in vars(m).values()
                if dataclasses.is_dataclass(cls) and isinstance(cls, type)}
    assert {type(msg) for msg, _ in GOLDEN} == declared
    # One verb-table row per message class; only the replies have no
    # server handler.
    assert set(codec.VERBS) == declared
    assert {cls for cls, verb in codec.VERBS.items()
            if verb.handle is None} == {m.Response, m.ErrorResponse}
