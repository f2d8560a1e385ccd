import random

import numpy as np
import pytest

from cubicorbit import gf2, load_recurrence_matrices
from cubicorbit.gf2 import Gf2Matrix32, solve_linear_system
from conftest import gf2_mul, numpy_transpose, parity


def random_matrix(rng: random.Random) -> Gf2Matrix32:
    return Gf2Matrix32(tuple(rng.getrandbits(32) for _ in range(32)))


class TestMatrix:
    def test_shape_enforced(self):
        with pytest.raises(ValueError):
            Gf2Matrix32((0,) * 31)
        with pytest.raises(ValueError):
            Gf2Matrix32((1 << 40,) + (0,) * 31)

    def test_identity_action(self):
        ident = Gf2Matrix32(tuple(1 << (31 - i) for i in range(32)))
        rng = random.Random(1)
        vs = [rng.getrandbits(32) for _ in range(50)]
        for v in vs:
            assert gf2_mul(ident, v) == v
        assert ident.apply(np.array(vs, dtype=np.uint32)).tolist() == vs

    def test_mul_is_linear(self):
        rng = random.Random(2)
        m = random_matrix(rng)
        us = np.array([rng.getrandbits(32) for _ in range(50)], dtype=np.uint32)
        vs = np.array([rng.getrandbits(32) for _ in range(50)], dtype=np.uint32)
        for u, v in zip(us.tolist(), vs.tolist()):
            assert gf2_mul(m, u ^ v) == gf2_mul(m, u) ^ gf2_mul(m, v)
        assert (m.apply(us ^ vs) == m.apply(us) ^ m.apply(vs)).all()

    def test_apply_builds_its_tables_once(self, monkeypatch):
        transposes = []
        transpose = gf2._transpose

        def counted(words):
            transposes.append(1)
            return transpose(words)

        monkeypatch.setattr(gf2, "_transpose", counted)
        rng = random.Random(3)
        m = random_matrix(rng)
        assert "_tables" not in m.__dict__  # nothing built before first use
        vs = [rng.getrandbits(32) for _ in range(50)]
        for _ in range(2):
            got = m.apply(np.array(vs, dtype=np.uint32)).tolist()
            assert got == [gf2_mul(m, v) for v in vs]
        assert len(transposes) == 1
        tables = m._byte_tables()
        assert len(transposes) == 1
        assert not tables.flags.writeable
        with pytest.raises(ValueError):
            tables[0, 1] = 0

    def test_row_indexing_is_one_based(self):
        m = Gf2Matrix32((0xDEADBEEF,) + (0,) * 31)
        assert m.row(1) == 0xDEADBEEF
        assert m.row(2) == 0
        # row 1 of the product is the MSB of the output
        assert gf2_mul(m, 0xDEADBEEF) >> 31 == parity(0xDEADBEEF & 0xDEADBEEF)

    def test_from_function_matches_direct_mul(self):
        rng = random.Random(4)
        m = random_matrix(rng)
        rebuilt = Gf2Matrix32.from_function(lambda v: gf2_mul(m, v))
        assert rebuilt == m

    def test_from_columns_transposes(self):
        rng = random.Random(6)
        m = random_matrix(rng)
        t = Gf2Matrix32.from_columns(m.rows)  # rows of m as columns
        for i in range(1, 33):
            for j in range(1, 33):
                assert (t.row(i) >> (32 - j)) & 1 == (m.row(j) >> (32 - i)) & 1
        assert Gf2Matrix32.from_columns(t.rows) == m

    def test_from_columns_checks_its_columns(self):
        # a column of 33 bits, a negative one, a float one, and 31 columns
        for columns in ([1 << 32] + [0] * 31, [0] * 31 + [-1],
                        [0] * 5 + [1.0] + [0] * 26, [0] * 31):
            with pytest.raises(ValueError):
                Gf2Matrix32.from_columns(columns)


def transpose_cases():
    """Random, identity, all-ones and every single-bit 32x32 matrix."""
    rng = random.Random(7)
    yield from ([rng.getrandbits(32) for _ in range(32)] for _ in range(50))
    yield [1 << (31 - i) for i in range(32)]
    yield [0xFFFFFFFF] * 32
    for i in range(32):
        for j in range(32):
            yield [1 << (31 - j) if k == i else 0 for k in range(32)]


class TestTranspose:
    def test_matches_the_numpy_transpose(self):
        for words in transpose_cases():
            assert gf2._transpose(words) == numpy_transpose(words)

    def test_is_its_own_inverse(self):
        for words in transpose_cases():
            assert gf2._transpose(gf2._transpose(words)) == words

    def test_takes_numpy_words(self):
        words = [random.Random(8).getrandbits(32) for _ in range(32)]
        assert gf2._transpose(np.array(words, dtype=np.uint32)) == \
            numpy_transpose(words)

    def test_recurrence_matrices_are_pinned(self):
        a, b = load_recurrence_matrices()
        assert a.rows == (
            0x30560C85, 0x22450881, 0x66440981, 0x00044801, 0xB34428C1,
            0xA3D70AA5, 0x668C18B1, 0x22240808, 0x23460881, 0x00880002,
            0x02408080, 0x20604800, 0x09032204, 0x220C0891, 0x02400081,
            0x22560885, 0x22450881, 0x26448981, 0x32524C04, 0x81012040,
            0x26C419A1, 0x02004890, 0xA3442CC1, 0x89830020, 0x628419B3,
            0x02640008, 0x224608C1, 0x00080022, 0x20448811, 0x20404808,
            0x09132200, 0x00400012)
        # B has rank one: row 2 repeated at rows 6, 13, 20, 24 and 31
        assert b.rows == tuple(0x89130204 if i in (2, 6, 13, 20, 24, 31) else 0
                               for i in range(1, 33))


class TestSolver:
    def test_recovers_random_matrix_pair(self):
        rng = random.Random(5)
        m = random_matrix(rng)

        def equations():
            while True:
                v = rng.getrandbits(32)
                yield v, gf2_mul(m, v)

        sols = solve_linear_system(equations(), 32, 32)
        assert sols is not None
        # solution k packs column k+1 across the 32 row-systems
        rebuilt_rows = []
        for i in range(32):
            r = 0
            for k in range(32):
                r = (r << 1) | ((sols[k] >> (31 - i)) & 1)
            rebuilt_rows.append(r)
        assert Gf2Matrix32(tuple(rebuilt_rows)) == m

    def test_rank_deficient_returns_none(self):
        # vectors confined to a 16-dimensional subspace can never reach rank 32
        rng = random.Random(6)
        eqs = [(rng.getrandbits(16), rng.getrandbits(1)) for _ in range(200)]
        assert solve_linear_system(eqs, 32, 1) is None

    def test_single_rhs_system(self):
        # 3 unknowns over 3 independent equations: x1=1, x2=0, x3=1
        eqs = [(0b100, 1), (0b010, 0), (0b001, 1)]
        assert solve_linear_system(eqs, 3, 1) == [1, 0, 1]

    def test_coupled_system(self):
        # x1^x2 = 1, x2^x3 = 1, x3 = 1  ->  x = (1, 0, 1)
        eqs = [(0b110, 1), (0b011, 1), (0b001, 1)]
        assert solve_linear_system(eqs, 3, 1) == [1, 0, 1]
