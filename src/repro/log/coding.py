"""Pluggable k-of-n erasure coding for the striped log.

The paper's stripes tolerate exactly one failure (RAID-5-style XOR
parity). This module generalizes the write/reconstruct math to *(k data,
m parity)* codes. Two engines share the writer's three methods —
``encode(data_images)`` (every parity payload), ``encode_slot(data_images,
slot)`` (one of them) and ``make_accumulator()`` (a running parity the
log folds fragments into as they fill) — plus ``name`` and
``parity_count``:

* :class:`XorEngine` — the original single-parity path, bit-identical
  to the pre-refactor XOR code;
* :class:`ReedSolomonEngine` — a systematic Reed–Solomon code over
  GF(256) that recovers any ``m`` erased stripe members.

The writer gets its engine from :func:`make_engine`. Readers need no
engine to decode: the module-level :func:`decode_data` rebuilds erased
data images from any ``k`` survivors, and :func:`engine_for_stripe`
gives the engine that re-encodes or checks a stored stripe's parity,
from the stripe's geometry alone.

**Coefficients.** Parity slot ``j`` of a stripe with data images
``D_0..D_{k-1}`` is ``P_j = sum_i C[j][i] * D_i`` over GF(256), where
``C`` is a *normalized Cauchy matrix*: start from
``C0[j][i] = 1 / (x_j + y_i)`` with ``x_j = j`` and ``y_i = m + i``
(GF addition is XOR, and the two index sets never collide), then scale
each column so row 0 is all ones and each row so column 0 is all ones.
Every square submatrix of a Cauchy matrix is invertible, and scaling
rows/columns by nonzero constants preserves that, so *any* ``m``
erasures are recoverable. The normalization buys two properties this
module leans on hard:

* for ``m == 1`` the matrix is the single all-ones row — Reed–Solomon
  degenerates to plain XOR, so the on-disk format needs **no scheme
  tag**: readers pick the engine purely from the stripe geometry, and
  existing single-parity stripes decode unchanged;
* ``C[j][i]`` depends only on ``(m, j, i)``, never on ``k`` — the
  matrix for a short stripe is a column prefix of the full-width one,
  so incremental accumulation can start before the final stripe width
  is known (stripes close short at flush time).

**Vectorized arithmetic.** Multiplying a whole image by a constant
``c`` is a 256-byte table lookup (``bytes.translate``); accumulating is
the same little-endian big-int XOR :class:`~repro.log.stripe.ParityAccumulator`
uses. Multiplies by 1 skip the translate entirely, which is what keeps
the XOR path's wall-clock unchanged.

**Erasure decode.** A stripe is a systematic codeword: rows ``0..k-1``
of the generator are the identity (the data images themselves), rows
``k..k+m-1`` are ``C``. Any ``k`` surviving rows form an invertible
``k×k`` matrix; its inverse (cached per ``(k, m, survivor-set)``)
turns survivors back into the erased data images.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ConfigError
from repro.log.stripe import ParityAccumulator, parity_of_fast

GF_POLY = 0x11D
"""The field's primitive polynomial (x^8+x^4+x^3+x^2+1); 2 generates
the multiplicative group, so log/exp tables cover every element."""

_EXP: List[int] = [0] * 512
_LOG: List[int] = [0] * 256


def _build_tables() -> None:
    value = 1
    for power in range(255):
        _EXP[power] = value
        _LOG[value] = power
        value <<= 1
        if value & 0x100:
            value ^= GF_POLY
    for power in range(255, 512):
        _EXP[power] = _EXP[power - 255]


_build_tables()


def gf_mul(a: int, b: int) -> int:
    """Product of two field elements."""
    if a == 0 or b == 0:
        return 0
    return _EXP[_LOG[a] + _LOG[b]]


def gf_inv(a: int) -> int:
    """Multiplicative inverse (``a`` must be nonzero)."""
    if a == 0:
        raise ZeroDivisionError("0 has no inverse in GF(256)")
    return _EXP[255 - _LOG[a]]


def gf_div(a: int, b: int) -> int:
    """``a / b`` in the field (``b`` must be nonzero)."""
    if b == 0:
        raise ZeroDivisionError("division by 0 in GF(256)")
    if a == 0:
        return 0
    return _EXP[_LOG[a] + 255 - _LOG[b]]


_MUL_TABLES: Dict[int, bytes] = {}


def mul_table(c: int) -> bytes:
    """The 256-entry ``bytes.translate`` table for multiply-by-``c``."""
    table = _MUL_TABLES.get(c)
    if table is None:
        table = bytes(gf_mul(c, v) for v in range(256))
        _MUL_TABLES[c] = table
    return table


def scale_bytes(data, c: int) -> bytes:
    """``c * data`` element-wise — one translate, no Python loop."""
    if c == 1:
        return bytes(data)
    if c == 0:
        return bytes(len(data))
    return bytes(data).translate(mul_table(c))


# ----------------------------------------------------------------------
# The normalized Cauchy coding matrix
# ----------------------------------------------------------------------

_COEFFICIENTS: Dict[Tuple[int, int, int], int] = {}


def coding_coefficient(m: int, j: int, i: int) -> int:
    """``C[j][i]`` for an ``m``-parity code — independent of ``k``."""
    key = (m, j, i)
    value = _COEFFICIENTS.get(key)
    if value is None:
        if m + i > 255:
            raise ConfigError("stripe too wide for GF(256) coding")
        # Column-scale so row 0 is all ones, then row-scale so column 0
        # is all ones; both preserve every submatrix's invertibility.
        raw = gf_div(gf_inv(j ^ (m + i)), gf_inv(m + i))
        row_unit = gf_div(gf_inv(j ^ m), gf_inv(m))
        value = gf_div(raw, row_unit)
        _COEFFICIENTS[key] = value
    return value


def coding_matrix(k: int, m: int) -> List[List[int]]:
    """The full ``m × k`` parity coefficient matrix."""
    return [[coding_coefficient(m, j, i) for i in range(k)]
            for j in range(m)]


def generator_row(k: int, m: int, row: int) -> List[int]:
    """Row ``row`` of the systematic generator ``[I_k ; C]``.

    Rows ``0..k-1`` are data (identity); rows ``k..k+m-1`` are parity.
    """
    if row < k:
        return [1 if col == row else 0 for col in range(k)]
    return [coding_coefficient(m, row - k, i) for i in range(k)]


def gf_matrix_invert(matrix: Sequence[Sequence[int]]) -> List[List[int]]:
    """Gauss–Jordan inverse of a square matrix over GF(256)."""
    n = len(matrix)
    aug = [list(row) + [1 if c == r else 0 for c in range(n)]
           for r, row in enumerate(matrix)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col]), None)
        if pivot is None:
            raise ValueError("matrix is singular over GF(256)")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv_pivot = gf_inv(aug[col][col])
        if inv_pivot != 1:
            aug[col] = [gf_mul(v, inv_pivot) for v in aug[col]]
        for r in range(n):
            factor = aug[r][col]
            if r == col or factor == 0:
                continue
            aug[r] = [v ^ gf_mul(factor, p)
                      for v, p in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


_DECODE_CACHE: Dict[Tuple[int, int, Tuple[int, ...]], List[List[int]]] = {}


def decode_matrix(k: int, m: int,
                  rows: Tuple[int, ...]) -> List[List[int]]:
    """Inverse of the generator restricted to survivor ``rows``.

    ``rows`` is a sorted tuple of ``k`` distinct generator row indices
    (``< k`` data, ``>= k`` parity). Row ``t`` of the result expresses
    data image ``t`` as a combination of the survivors, in ``rows``
    order. Cached: degraded reads over the same erasure pattern pay
    the Gauss–Jordan solve once.
    """
    key = (k, m, rows)
    inverse = _DECODE_CACHE.get(key)
    if inverse is None:
        inverse = gf_matrix_invert([generator_row(k, m, row)
                                    for row in rows])
        _DECODE_CACHE[key] = inverse
    return inverse


def _combine(coefficients: Iterable[int], images: Sequence[bytes],
             length: int) -> bytes:
    """``sum_i coefficients[i] * images[i]`` padded to ``length``."""
    acc = 0
    for coefficient, image in zip(coefficients, images):
        if coefficient == 0:
            continue
        if coefficient == 1:
            acc ^= int.from_bytes(image, "little")
        else:
            acc ^= int.from_bytes(
                bytes(image).translate(mul_table(coefficient)), "little")
    return acc.to_bytes(length, "little")


def decode_data(k: int, m: int, present: Dict[int, bytes]) -> Dict[int, bytes]:
    """Recover every erased data image of a stripe.

    ``present`` maps generator row indices to their bytes: index
    ``i < k`` is data image ``i``; index ``k + j`` is parity slot
    ``j``'s *payload*. At least ``k`` rows must be present. Returns
    ``{data_index: image}`` for the erased data rows, each padded to
    the longest survivor (trailing zeros, which fragment headers make
    harmless) — byte-identical to the XOR recovery for ``m == 1``.
    """
    erased = [i for i in range(k) if i not in present]
    if not erased:
        return {}
    rows = tuple(sorted(present))[:k]
    if len(rows) < k:
        raise ValueError(
            "%d survivors cannot rebuild a %d-data stripe" % (len(rows), k))
    inverse = decode_matrix(k, m, rows)
    survivors = [present[row] for row in rows]
    length = max(len(image) for image in survivors)
    return {target: _combine(inverse[target], survivors, length)
            for target in erased}


# ----------------------------------------------------------------------
# Incremental accumulators (the write-behind window's running parity)
# ----------------------------------------------------------------------

class XorAccumulator:
    """Engine-shaped wrapper around :class:`ParityAccumulator`.

    Single parity ignores which data member a range came from, so this
    delegates straight to the original accumulator — same buckets, same
    ``consumed`` accounting, same emitted bytes.
    """

    def __init__(self) -> None:
        self._acc = ParityAccumulator()

    @property
    def consumed(self) -> int:
        return self._acc.consumed

    def add_range(self, data_index: int, offset: int, data) -> None:
        self._acc.add_range(offset, data)

    def payloads(self) -> List[bytes]:
        return [self._acc.parity_payload()]


class RSAccumulator:
    """Running Reed–Solomon parity, one XOR accumulator per slot.

    Each fold scales the range by the slot's coefficient for that data
    member and XORs it into the slot's buckets; coefficient-1 folds
    (every fold of slot 0, and all of column 0) skip the translate.
    ``consumed`` counts every byte folded into every slot, so the
    layer's cost accounting scales with ``m`` exactly as the work does.
    """

    def __init__(self, parity_count: int) -> None:
        self._m = parity_count
        self._slots = [ParityAccumulator() for _ in range(parity_count)]

    @property
    def consumed(self) -> int:
        return sum(slot.consumed for slot in self._slots)

    def add_range(self, data_index: int, offset: int, data) -> None:
        raw: Optional[bytes] = None
        for j, slot in enumerate(self._slots):
            coefficient = coding_coefficient(self._m, j, data_index)
            if coefficient == 1:
                slot.add_range(offset, data)
            elif coefficient:
                if raw is None:
                    raw = bytes(data)
                slot.add_range(offset, raw.translate(mul_table(coefficient)))

    def payloads(self) -> List[bytes]:
        return [slot.parity_payload() for slot in self._slots]


# ----------------------------------------------------------------------
# Engines
# ----------------------------------------------------------------------

class XorEngine:
    """The original single-parity XOR path, bit-identical."""

    name = "xor"
    parity_count = 1

    def encode(self, data_images: Sequence[bytes]) -> List[bytes]:
        return [parity_of_fast(data_images)]

    def encode_slot(self, data_images: Sequence[bytes], slot: int) -> bytes:
        if slot != 0:
            raise ValueError("XOR has a single parity slot")
        return parity_of_fast(data_images)

    def make_accumulator(self) -> XorAccumulator:
        return XorAccumulator()


class ReedSolomonEngine:
    """Systematic Reed–Solomon over GF(256), any ``m`` parity slots."""

    name = "rs"

    def __init__(self, parity_count: int) -> None:
        if parity_count < 1:
            raise ConfigError("Reed-Solomon needs at least one parity slot")
        self.parity_count = parity_count

    def encode(self, data_images: Sequence[bytes]) -> List[bytes]:
        if not data_images:
            return [b""] * self.parity_count
        length = max(len(image) for image in data_images)
        return [self.encode_slot(data_images, slot, _length=length)
                for slot in range(self.parity_count)]

    def encode_slot(self, data_images: Sequence[bytes], slot: int,
                    _length: Optional[int] = None) -> bytes:
        if not 0 <= slot < self.parity_count:
            raise ValueError("parity slot %d out of range" % slot)
        if not data_images:
            return b""
        length = _length if _length is not None else \
            max(len(image) for image in data_images)
        coefficients = [coding_coefficient(self.parity_count, slot, i)
                        for i in range(len(data_images))]
        return _combine(coefficients, data_images, length)

    def make_accumulator(self) -> RSAccumulator:
        return RSAccumulator(self.parity_count)


CODING_SCHEMES = ("xor", "rs")


def make_engine(coding: str, parity_count: int):
    """The engine for a config's ``(coding, parity_fragments)`` pair.

    Returns ``None`` for ``parity_count == 0`` (replication-free
    stripes have nothing to encode).
    """
    if parity_count <= 0:
        return None
    if coding == "xor":
        if parity_count > 1:
            raise ConfigError(
                "xor coding supports a single parity fragment; "
                "use coding='rs' for parity_fragments=%d" % parity_count)
        return XorEngine()
    if coding == "rs":
        return ReedSolomonEngine(parity_count)
    raise ConfigError("unknown coding scheme %r (choose from %s)"
                      % (coding, ", ".join(CODING_SCHEMES)))


def engine_for_stripe(parity_count: int):
    """The engine a *reader* needs, from stripe geometry alone.

    ``parity_count`` is the stripe's parity member count
    (:attr:`~repro.log.fragment.FragmentHeader.parity_count`). The
    normalized matrix makes ``m == 1`` literally XOR, so no scheme tag
    is stored anywhere — geometry is sufficient. Returns ``None`` for
    stripes without parity.
    """
    if parity_count == 0:
        return None
    if parity_count == 1:
        return XorEngine()
    return ReedSolomonEngine(parity_count)
