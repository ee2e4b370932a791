"""Property tests for the pluggable erasure-coding engines.

Covers the tentpole guarantees end to end:

* GF(256) arithmetic is a field (the log/exp tables are consistent);
* the normalized Cauchy matrix has the structural properties the rest
  of the system leans on — an all-ones row for ``m == 1`` (so XOR *is*
  Reed–Solomon at one parity and the on-disk format needs no scheme
  tag), a k-independent prefix (so incremental accumulation can start
  before the stripe width is known), and invertibility of every
  survivor selection (so any ``m`` erasures decode);
* seeded random (k, m, erasure-set) round trips through encode/decode;
* incremental accumulation is byte-exact against one-shot encode for
  arbitrary range splits;
* the refactored XOR write path is bit-identical to the pre-refactor
  one, pinned by a golden on-disk digest captured before the refactor.
"""

import hashlib
import itertools
import random

import pytest
from hypothesis import given, strategies as st

from repro.cluster import build_local_cluster
from repro.errors import ConfigError
from repro.log.coding import (
    ReedSolomonEngine,
    RSAccumulator,
    XorEngine,
    coding_coefficient,
    coding_matrix,
    decode_data,
    decode_matrix,
    generator_row,
    gf_div,
    gf_inv,
    gf_matrix_invert,
    gf_mul,
    make_engine,
    mul_table,
    scale_bytes,
)
from repro.log.stripe import parity_of_fast


class TestFieldArithmetic:
    @given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255))
    def test_mul_associative_commutative_distributive(self, a, b, c):
        assert gf_mul(a, b) == gf_mul(b, a)
        assert gf_mul(gf_mul(a, b), c) == gf_mul(a, gf_mul(b, c))
        assert gf_mul(a, b ^ c) == gf_mul(a, b) ^ gf_mul(a, c)

    @given(st.integers(1, 255))
    def test_inverse(self, a):
        assert gf_mul(a, gf_inv(a)) == 1
        assert gf_div(1, a) == gf_inv(a)

    @given(st.integers(0, 255), st.integers(1, 255))
    def test_div_undoes_mul(self, a, b):
        assert gf_div(gf_mul(a, b), b) == a

    @given(st.integers(0, 255))
    def test_identity_and_zero(self, a):
        assert gf_mul(a, 1) == a
        assert gf_mul(a, 0) == 0

    def test_zero_has_no_inverse(self):
        with pytest.raises(ZeroDivisionError):
            gf_inv(0)

    @given(st.integers(0, 255), st.binary(max_size=300))
    def test_translate_table_matches_scalar_mul(self, c, data):
        assert scale_bytes(data, c) == bytes(gf_mul(c, v) for v in data)

    def test_mul_table_identity_for_one(self):
        assert mul_table(1) == bytes(range(256))


class TestCodingMatrix:
    def test_m1_row_is_all_ones(self):
        """At one parity the code *is* XOR — the no-scheme-tag property."""
        for k in range(1, 15):
            assert coding_matrix(k, 1) == [[1] * k]

    def test_row0_and_column0_are_ones(self):
        for m in range(1, 6):
            matrix = coding_matrix(12, m)
            assert matrix[0] == [1] * 12
            assert all(row[0] == 1 for row in matrix)

    def test_prefix_stable_in_k(self):
        """C[j][i] never depends on k: short stripes are prefixes."""
        for m in (1, 2, 3):
            wide = coding_matrix(14, m)
            for k in range(1, 14):
                narrow = coding_matrix(k, m)
                assert [row[:k] for row in wide] == narrow

    def test_every_square_submatrix_invertible(self):
        """Any m×m selection of columns inverts — any m erasures decode."""
        m, k = 3, 8
        matrix = coding_matrix(k, m)
        for cols in itertools.combinations(range(k), m):
            square = [[matrix[j][i] for i in cols] for j in range(m)]
            inverse = gf_matrix_invert(square)
            for r in range(m):
                for c in range(m):
                    got = 0
                    for t in range(m):
                        got ^= gf_mul(square[r][t], inverse[t][c])
                    assert got == (1 if r == c else 0)

    def test_width_limit(self):
        with pytest.raises(ConfigError):
            coding_coefficient(200, 0, 100)

    @given(st.integers(1, 4), st.integers(2, 10), st.data())
    def test_decode_matrix_is_inverse(self, m, k, data):
        """A·A⁻¹ = I for every survivor selection the decoder can face."""
        rows = tuple(sorted(data.draw(
            st.permutations(list(range(k + m))).map(lambda p: p[:k]))))
        inverse = decode_matrix(k, m, rows)
        selected = [generator_row(k, m, row) for row in rows]
        # Multiply inverse · selected — should be the identity.
        for r in range(k):
            for c in range(k):
                got = 0
                for t in range(k):
                    got ^= gf_mul(inverse[r][t], selected[t][c])
                assert got == (1 if r == c else 0)


class TestRoundTrip:
    def test_seeded_random_erasures(self):
        """300 random (k, m, erasure-set) draws must all round-trip."""
        rng = random.Random(0xC0DE)
        for _ in range(300):
            k = rng.randint(1, 9)
            m = rng.randint(1, 4)
            engine = ReedSolomonEngine(m)
            images = [rng.randbytes(rng.randint(0, 400)) for _ in range(k)]
            parities = engine.encode(images)
            length = max((len(img) for img in images), default=0)
            assert all(len(p) == length for p in parities)
            erase = rng.randint(1, min(m, k))
            erased = set(rng.sample(range(k), erase))
            present = {i: images[i] for i in range(k) if i not in erased}
            # Offer a random sufficient subset of the parity rows too.
            for j in rng.sample(range(m), m)[:erase + rng.randint(0, m - erase)]:
                present[k + j] = parities[j]
            if len(present) < k:
                continue  # not enough survivors offered; skip draw
            recovered = decode_data(k, m, present)
            assert set(recovered) == erased
            for i in erased:
                padded = images[i] + bytes(length - len(images[i]))
                assert recovered[i] == padded

    def test_too_many_erasures_raises(self):
        engine = ReedSolomonEngine(2)
        images = [b"abc", b"defg", b"hi"]
        parities = engine.encode(images)
        present = {0: images[0], 3: parities[0]}  # 2 of 3 data lost, 1 parity
        with pytest.raises(ValueError):
            decode_data(3, 2, present)

    def test_m1_parity_equals_xor(self):
        """Reed–Solomon at one parity emits the XOR payload, bit for bit."""
        rng = random.Random(7)
        images = [rng.randbytes(rng.randint(1, 300)) for _ in range(5)]
        assert ReedSolomonEngine(1).encode(images) == [parity_of_fast(images)]
        assert XorEngine().encode(images) == [parity_of_fast(images)]

    @given(st.integers(1, 3), st.lists(st.binary(max_size=200), min_size=1,
                                       max_size=6),
           st.data())
    def test_single_parity_rebuild_matches_survivor_xor(self, m, images,
                                                        data):
        """Decoding one erased member from data+parity survivors."""
        k = len(images)
        engine = ReedSolomonEngine(m)
        parities = engine.encode(images)
        missing = data.draw(st.integers(0, k - 1))
        present = {i: img for i, img in enumerate(images) if i != missing}
        present[k] = parities[0]
        recovered = decode_data(k, m, present)
        length = max(len(img) for img in images)
        assert recovered[missing] == images[missing] + bytes(
            length - len(images[missing]))


class TestIncrementalAccumulation:
    def test_incremental_equals_one_shot_random_splits(self):
        """Range-at-a-time folding is byte-exact vs whole-image encode."""
        rng = random.Random(0xACC)
        for _ in range(60):
            k = rng.randint(1, 6)
            m = rng.randint(1, 4)
            engine = ReedSolomonEngine(m)
            images = [rng.randbytes(rng.randint(1, 500)) for _ in range(k)]
            acc = engine.make_accumulator()
            for index, image in enumerate(images):
                # Feed each image as disjoint ranges in shuffled order.
                cuts = sorted(rng.sample(range(1, len(image)),
                                         min(3, len(image) - 1))
                              ) if len(image) > 1 else []
                bounds = [0] + cuts + [len(image)]
                pieces = [(bounds[p], image[bounds[p]:bounds[p + 1]])
                          for p in range(len(bounds) - 1)]
                rng.shuffle(pieces)
                for offset, piece in pieces:
                    acc.add_range(index, offset, piece)
            assert acc.payloads() == engine.encode(images)

    def test_consumed_scales_with_parity_count(self):
        """Cost accounting: RS folds every byte into every slot."""
        images = [b"\x55" * 100, b"\xaa" * 100]
        for m in (1, 2, 3):
            acc = RSAccumulator(m)
            for index, image in enumerate(images):
                acc.add_range(index, 0, image)
            assert acc.consumed == m * sum(len(img) for img in images)

    def test_xor_accumulator_matches_engine(self):
        engine = make_engine("xor", 1)
        images = [b"abcdef", b"ghijklmn", b"op"]
        acc = engine.make_accumulator()
        for index, image in enumerate(images):
            acc.add_range(index, 0, image)
        assert acc.payloads() == engine.encode(images)


GOLDEN_XOR_DIGEST = \
    "3c7bf75cd54cbbf06304cfc1559bd90de977417ee8c3a3ae887140d41759d0f1"


class TestXorBitIdentity:
    def test_golden_on_disk_digest(self):
        """The refactored write path emits pre-refactor bytes exactly.

        The digest was captured on the commit *before* the coding-engine
        refactor, over every fragment image a fixed deterministic
        workload leaves on every server. Any change to header packing,
        parity math, or placement under the default (xor, m=1) config
        breaks this test — which is the point.
        """
        cluster = build_local_cluster(num_servers=4, fragment_size=1 << 12,
                                      server_slots=512)
        log = cluster.make_log(client_id=1)
        for i in range(40):
            data = bytes([(i * 11 + 5) % 256]) * (1200 + 37 * (i % 7))
            log.write_block(3, data, b"\x00\x01\x02\x03")
        log.flush().wait()
        digest = hashlib.sha256()
        for sid in sorted(cluster.servers):
            server = cluster.servers[sid]
            for fid in sorted(server.list_fids()):
                image = server.retrieve(fid, 0, -1)
                digest.update(sid.encode())
                digest.update(fid.to_bytes(8, "big"))
                digest.update(hashlib.sha256(image).digest())
        assert digest.hexdigest() == GOLDEN_XOR_DIGEST


class TestEngineSelection:
    def test_make_engine_validation(self):
        assert make_engine("xor", 0) is None
        assert make_engine("rs", 0) is None
        assert isinstance(make_engine("xor", 1), XorEngine)
        assert isinstance(make_engine("rs", 3), ReedSolomonEngine)
        with pytest.raises(ConfigError):
            make_engine("xor", 2)
        with pytest.raises(ConfigError):
            make_engine("raid6", 1)

    def test_engine_for_stripe_geometry(self):
        from repro.log.coding import engine_for_stripe
        from repro.log.fragment import FragmentHeader, NO_PARITY

        def parity_count(width, parity_index):
            return FragmentHeader(
                fid=1, client_id=1, is_parity=False, marked=False,
                stripe_base_fid=1, stripe_width=width, stripe_index=0,
                parity_index=parity_index, payload_len=0, item_count=0,
                first_lsn=0, last_lsn=0,
                servers=("s",) * width).parity_count

        assert parity_count(4, NO_PARITY) == 0
        assert parity_count(4, 4) == 0  # m == 0 layout
        assert parity_count(4, 3) == 1
        assert parity_count(6, 4) == 2
        assert engine_for_stripe(0) is None
        assert isinstance(engine_for_stripe(1), XorEngine)
        rs = engine_for_stripe(2)
        assert isinstance(rs, ReedSolomonEngine)
        assert rs.parity_count == 2
