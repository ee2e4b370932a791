"""Stripe placement: one :class:`Placement` per client.

See :mod:`repro.placement.policy` for the model: a placement answers
"which servers hold stripe *n*" from a view history keyed by stripe
number, which makes reform, grow and shrink reallocation-free; a static
stripe group is a history with one view.
"""

from repro.placement.policy import (
    Placement,
    PlacementView,
    decode_views,
    encode_views,
)

__all__ = ["Placement", "PlacementView", "decode_views", "encode_views"]
