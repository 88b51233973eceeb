"""The sign-grid transform and the projector-chain routine against the
nested loops they replace.

The references below are the explicit loops over sign patterns.  Projector
chains must agree bit for bit; expansions, syntheses and closed forms agree
to 1e-14 on unit-scale inputs and exactly on dyadic ones.  The singlet pair
table has no projector chain left, so its closed form meets the loop to 1e-14.
"""

from itertools import product

import numpy as np
import pytest

from boolebell import leggett_garg as lg
from boolebell import quantum as q
from boolebell import tables
from boolebell.tables import sign_transform
from oracles import extended_eprb_prob3_chain

SIGNS = (+1, -1)
TOL = 1e-14


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------

def ref_transform(f):
    n = f.ndim
    e = np.zeros(f.shape)
    for t in product(range(2), repeat=n):
        for idx in product(range(2), repeat=n):
            sign = np.prod([SIGNS[i] for i, member in zip(idx, t) if member])
            e[t] += sign * f[idx]
    return e


def ref_expand3(values):
    acc = dict(e0=0.0, e1=0.0, e2=0.0, e3=0.0, e12=0.0, e13=0.0, e23=0.0, e123=0.0)
    for (i1, i2, i3) in product(range(2), repeat=3):
        s1, s2, s3 = SIGNS[i1], SIGNS[i2], SIGNS[i3]
        v = float(values[i1, i2, i3])
        for name, sign in (("e0", 1), ("e1", s1), ("e2", s2), ("e3", s3),
                           ("e12", s1 * s2), ("e13", s1 * s3), ("e23", s2 * s3),
                           ("e123", s1 * s2 * s3)):
            acc[name] += sign * v
    return acc


def ref_synth3(c):
    arr = np.empty((2, 2, 2))
    for i1, i2, i3 in product(range(2), repeat=3):
        s1, s2, s3 = SIGNS[i1], SIGNS[i2], SIGNS[i3]
        arr[i1, i2, i3] = (c["e0"] + s1 * c["e1"] + s2 * c["e2"] + s3 * c["e3"]
                           + s1 * s2 * c["e12"] + s1 * s3 * c["e13"]
                           + s2 * s3 * c["e23"] + s1 * s2 * s3 * c["e123"]) / 8.0
    return arr


def ref_expand2(values):
    e = dict(e0=0.0, e1=0.0, e2=0.0, e12=0.0)
    for i1, i2 in product(range(2), repeat=2):
        s1, s2 = SIGNS[i1], SIGNS[i2]
        v = float(values[i1, i2])
        e["e0"] += v
        e["e1"] += s1 * v
        e["e2"] += s2 * v
        e["e12"] += s1 * s2 * v
    return e


def ref_synth2(c):
    return np.array([[(c["e0"] + s1 * c["e1"] + s2 * c["e2"] + s1 * s2 * c["e12"]) / 4.0
                      for s2 in SIGNS] for s1 in SIGNS])


def ref_filter2(rho, a, b):
    p = np.empty(4)
    for i1, s1 in enumerate(SIGNS):
        m1 = q.projector(s1, a)
        for i2, s2 in enumerate(SIGNS):
            m2 = q.projector(s2, b)
            p[(i1 << 1) | i2] = np.trace(rho.matrix @ m1 @ m2 @ m1).real
    return p


def ref_filter3(rho, a, b, c):
    p = np.empty(8)
    for i1, s1 in enumerate(SIGNS):
        m1 = q.projector(s1, a)
        for i2, s2 in enumerate(SIGNS):
            m2 = q.projector(s2, b)
            for i3, s3 in enumerate(SIGNS):
                m3 = q.projector(s3, c)
                chain = m1 @ m2 @ m3 @ m2 @ m1
                p[(i1 << 2) | (i2 << 1) | i3] = np.trace(rho.matrix @ chain).real
    return p


def ref_singlet_pair(u, v):
    rho = q.singlet()
    p = np.empty(4)
    for i1, s1 in enumerate(SIGNS):
        m1 = q.op_on(q.projector(s1, u), 1, 2)
        for i2, s2 in enumerate(SIGNS):
            m2 = q.op_on(q.projector(s2, v), 2, 2)
            p[(i1 << 1) | i2] = np.trace(rho.matrix @ m1 @ m2).real
    return p


def ref_extended3_chain(a, b, c):
    rho = q.singlet()
    p = np.empty(8)
    for i1, s1 in enumerate(SIGNS):
        m1 = q.op_on(q.projector(s1, a), 1, 2)
        for i2, s2 in enumerate(SIGNS):
            m2 = q.op_on(q.projector(s2, b), 2, 2)
            for i3, s3 in enumerate(SIGNS):
                m3 = q.op_on(q.projector(s3, c), 2, 2)
                chain = m1 @ m2 @ m3 @ m2 @ m1
                p[(i1 << 2) | (i2 << 1) | i3] = np.trace(rho.matrix @ chain).real
    return p


def ref_extended4(a, b, c, d):
    rho = q.singlet()
    p = np.empty(16)
    for i1, s1 in enumerate(SIGNS):
        m1 = q.op_on(q.projector(s1, a), 1, 2)
        for i4, s4 in enumerate(SIGNS):
            m4 = q.op_on(q.projector(s4, d), 1, 2)
            for i2, s2 in enumerate(SIGNS):
                m2 = q.op_on(q.projector(s2, b), 2, 2)
                for i3, s3 in enumerate(SIGNS):
                    m3 = q.op_on(q.projector(s3, c), 2, 2)
                    chain = m1 @ m4 @ m2 @ m3 @ m2 @ m4 @ m1
                    p[(i1 << 3) | (i2 << 2) | (i3 << 1) | i4] = \
                        np.trace(rho.matrix @ chain).real
    return p


def ref_index(signs):
    """The grid index of a sign pattern: bit 1 where the sign is -1."""
    return tuple(int(s < 0) for s in signs)


def ref_pair_correlation(p, n, i, j):
    grid = p.reshape([2] * n)
    total = 0.0
    for idx in product(range(2), repeat=n):
        total += SIGNS[idx[i - 1]] * SIGNS[idx[j - 1]] * grid[idx]
    return total


def ref_filter3_closed(x, a, b, c):
    xa, ab, bc = float(x @ a), float(a @ b), float(b @ c)
    return np.array([(1.0 + s1 * xa + s2 * xa * ab + s3 * xa * ab * bc
                      + s1 * s2 * ab + s1 * s3 * ab * bc + s2 * s3 * bc
                      + s1 * s2 * s3 * xa * bc) / 8.0
                     for s1, s2, s3 in product(SIGNS, repeat=3)])


def ref_filter2_closed(x, a, b):
    xa, ab = float(x @ a), float(a @ b)
    return np.array([(1.0 + s1 * xa + s2 * xa * ab + s1 * s2 * ab) / 4.0
                     for s1, s2 in product(SIGNS, repeat=2)])


def ref_extended3_closed(ta, tb, tc):
    cba, ccb = np.cos(tb - ta), np.cos(tc - tb)
    return np.array([(1.0 - s1 * s2 * cba - s1 * s3 * cba * ccb + s2 * s3 * ccb) / 8.0
                     for s1, s2, s3 in product(SIGNS, repeat=3)])


def bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

RNG = np.random.default_rng(20)


def _random_direction():
    v = RNG.normal(size=3)
    return v / np.linalg.norm(v)


DEGREES = (0.0, 30.0, 45.0, 60.0, 90.0, 120.0, 180.0, 270.0)
DIRECTIONS = ([tuple(q.coplanar_direction(np.radians(t)) for t in angles)
               for angles in product(DEGREES[::3], repeat=4)]
              + [tuple(q.coplanar_direction(t) for t in RNG.uniform(0, 7, 4))
                 for _ in range(40)]
              + [tuple(_random_direction() for _ in range(4)) for _ in range(40)])
POLARIZATIONS = [np.zeros(3), np.array([0.0, 0.0, 1.0]), np.array([0.6, 0.0, 0.8]),
                 np.array([0.3, -0.2, 0.4])]


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------

class TestSignTransform:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_equals_the_explicit_signed_sum(self, n):
        for _ in range(20):
            f = RNG.uniform(-2, 2, (2,) * n)
            assert np.allclose(sign_transform(f), ref_transform(f), rtol=0, atol=TOL)
            dyadic = RNG.integers(-16, 17, (2,) * n) / 8.0
            assert np.array_equal(sign_transform(dyadic), ref_transform(dyadic))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_round_trip(self, n):
        for _ in range(20):
            f = RNG.uniform(-2, 2, (2,) * n)
            assert np.allclose(sign_transform(sign_transform(f)) / 2 ** n, f,
                               rtol=0, atol=TOL)
            dyadic = RNG.integers(-16, 17, (2,) * n) / 8.0
            assert np.array_equal(sign_transform(sign_transform(dyadic)) / 2 ** n, dyadic)

    def test_expansions_and_syntheses_match_the_loops(self):
        for _ in range(200):
            f2, f3 = RNG.uniform(-2, 2, (2, 2)), RNG.uniform(-2, 2, (2, 2, 2))
            got2 = tables.expand2(tables.FuncTable2(f2)).to_dict()
            got3 = tables.expand3(tables.FuncTable3(f3)).to_dict()
            assert list(got2) == list(ref_expand2(f2)) and list(got3) == list(ref_expand3(f3))
            assert np.allclose(list(got2.values()), list(ref_expand2(f2).values()),
                               rtol=0, atol=TOL)
            assert np.allclose(list(got3.values()), list(ref_expand3(f3).values()),
                               rtol=0, atol=TOL)
            c2 = dict(zip(("e0", "e1", "e2", "e12"), RNG.uniform(-2, 2, 4)))
            c3 = dict(zip(ref_expand3(f3), RNG.uniform(-2, 2, 8)))
            assert np.allclose(tables.synth2(tables.ExpansionCoeffs2(**c2)).values,
                               ref_synth2(c2), rtol=0, atol=TOL)
            assert np.allclose(tables.synth3(tables.ExpansionCoeffs3(**c3)).values,
                               ref_synth3(c3), rtol=0, atol=TOL)

    def test_dyadic_tables_are_exact(self):
        for _ in range(100):
            f3 = RNG.integers(-16, 17, (2, 2, 2)) / 8.0
            assert tables.expand3(tables.FuncTable3(f3)).to_dict() == ref_expand3(f3)
            c3 = dict(zip(ref_expand3(f3), RNG.integers(-16, 17, 8) / 4.0))
            assert np.array_equal(tables.synth3(tables.ExpansionCoeffs3(**c3)).values,
                                  ref_synth3(c3))
            a12, a13, a23 = RNG.integers(-2, 3, 3) / 8.0
            coeffs = dict(e0=1.0, e1=0.0, e2=0.0, e3=0.0, e12=a12, e13=a13, e23=a23, e123=0.0)
            assert np.array_equal(tables.construct_g3(1.0, a12, a13, a23).values,
                                  ref_synth3(coeffs))

    def test_table_keys_and_values_follow_the_grid_convention(self):
        f3 = tables.FuncTable3(np.arange(8.0).reshape(2, 2, 2))
        assert list(f3.to_dict()) == ["+++", "++-", "+-+", "+--", "-++", "-+-", "--+", "---"]
        assert list(f3.to_dict().values()) == list(range(8))
        assert np.array_equal(tables.FuncTable3.from_dict(f3.to_dict()).values, f3.values)
        assert f3.value(-1, 1, -1) == 5.0
        f2 = tables.FuncTable2(np.arange(4.0).reshape(2, 2))
        assert f2.to_dict() == {"++": 0.0, "+-": 1.0, "-+": 2.0, "--": 3.0}
        assert f2.value(1, -1) == 1.0
        table = q.ProbabilityTable(np.arange(8.0).reshape(2, 2, 2) / 28.0)
        assert table.to_dict() == {k: v / 28.0 for k, v in f3.to_dict().items()}
        assert table.value(-1, 1, -1) == 5.0 / 28.0


class TestProjectorChains:
    def test_chain_tables_are_bit_identical_to_the_loops(self):
        for a, b, c, d in DIRECTIONS:
            assert np.allclose(q.singlet_pair_table(a, b).p, ref_singlet_pair(a, b),
                               rtol=0, atol=TOL)
            assert np.array_equal(bits(extended_eprb_prob3_chain(a, b, c).p),
                                  bits(ref_extended3_chain(a, b, c)))
            assert np.array_equal(bits(q.extended_eprb_prob4_chain(a, b, c, d)[0].p),
                                  bits(ref_extended4(a, b, c, d)))
            for x in POLARIZATIONS:
                rho = q.spin_half_state(x)
                assert np.array_equal(bits(q.filter_prob2(rho, a, b).p),
                                      bits(ref_filter2(rho, a, b)))
                assert np.array_equal(bits(q.filter_prob3(rho, a, b, c).p),
                                      bits(ref_filter3(rho, a, b, c)))

    def test_pair_correlation_on_four_variables(self):
        for a, b, c, d in DIRECTIONS[::7]:
            table, pairs = q.extended_eprb_prob4(a, b, c, d)
            for key, value in pairs.items():
                i, j = int(key[1]), int(key[2])
                assert value == pytest.approx(ref_pair_correlation(table.p, 4, i, j),
                                              abs=TOL)
        p = RNG.random(16)
        table = q.ProbabilityTable((p / p.sum()).reshape((2,) * 4))
        for (i, j), value in tables.pair_coefficients(sign_transform(table.values)).items():
            assert value == pytest.approx(ref_pair_correlation(table.p, 4, i, j), abs=TOL)

    def test_closed_forms_match_the_loops(self):
        for a, b, c, _ in DIRECTIONS:
            for x in POLARIZATIONS:
                assert np.allclose(q.filter_prob2_closed(x, a, b).p,
                                   ref_filter2_closed(x, a, b), rtol=0, atol=TOL)
                assert np.allclose(q.filter_prob3_closed(x, a, b, c).p,
                                   ref_filter3_closed(x, a, b, c), rtol=0, atol=TOL)
        for angles in RNG.uniform(0, 7, (50, 3)):
            assert np.allclose(q.extended_eprb_prob3(*angles)[0].p,
                               ref_extended3_closed(*angles), rtol=0, atol=TOL)

    def test_chain_tables_do_not_use_the_transform(self, monkeypatch):
        # the dense route stays an independent oracle for the closed forms;
        # extended_eprb_prob4_chain reads its pair correlations off its table
        # with the transform, after the chain
        def boom(values):
            raise AssertionError("the projector chain called the sign transform")
        monkeypatch.setattr(q, "sign_transform", boom)
        monkeypatch.setattr(tables, "sign_transform", boom)
        a, b, c, d = DIRECTIONS[-1]
        rho = q.spin_half_state(POLARIZATIONS[-1])
        q.filter_prob2(rho, a, b)
        q.filter_prob3(rho, a, b, c)
        extended_eprb_prob3_chain(a, b, c)
        with pytest.raises(AssertionError):
            q.extended_eprb_prob4_chain(a, b, c, d)
        for closed, args in ((q.extended_eprb_prob4, (a, b, c, d)),
                             (q.filter_prob3_closed, (POLARIZATIONS[-1], a, b, c)),
                             (q.singlet_pair_table, (a, b))):
            with pytest.raises(AssertionError):
                closed(*args)


def ref_chain_table(c0, links, order):
    """P(S) = (1 + c0 S_p1)/2 prod_k (1 + rho_k S_pk S_pk+1)/2 along the path
    p = order, as a loop over the sign patterns."""
    n = len(order)
    p = np.empty((2,) * n)
    for idx in product(range(2), repeat=n):
        s = [SIGNS[idx[v - 1]] for v in order]
        value = (1.0 + c0 * s[0]) / 2.0
        for k, rho in enumerate(links):
            value *= (1.0 + rho * s[k] * s[k + 1]) / 2.0
        p[idx] = value
    return p


class TestChainCoeffs:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_equals_the_product_form(self, n):
        for _ in range(20):
            c0, *links = RNG.uniform(-1, 1, n)
            order = tuple(int(v) for v in RNG.permutation(n) + 1)
            e = tables.chain_coeffs(c0, links, order)
            assert np.allclose(sign_transform(e) / 2 ** n, ref_chain_table(c0, links, order),
                               rtol=0, atol=TOL)
            assert np.array_equal(tables.chain_coeffs(c0, links),
                                  tables.chain_coeffs(c0, links, tuple(range(1, n + 1))))

    def test_a_zero_c0_leaves_no_negative_zero(self):
        e = tables.chain_coeffs(0.0, (-0.5, -0.25, 0.75))
        assert not np.signbit(e[e == 0.0]).any()


def _unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


# each returns the closed form and the oracle of one chain table at a random
# parameter point
def _filter2(rng):
    x, a, b = _unit(rng) * rng.random(), _unit(rng), _unit(rng)
    return (q.filter_prob2_closed(x, a, b).values,
            q.filter_prob2(q.spin_half_state(x), a, b).values)


def _filter3(rng):
    x, a, b, c = _unit(rng) * rng.random(), _unit(rng), _unit(rng), _unit(rng)
    return (q.filter_prob3_closed(x, a, b, c).values,
            q.filter_prob3(q.spin_half_state(x), a, b, c).values)


def _singlet(rng):
    a, b = _unit(rng), _unit(rng)
    return q.singlet_pair_table(a, b).values, ref_singlet_pair(a, b).reshape(2, 2)


def _extended3(rng):
    # arbitrary vectors: the chain's links are -a.b and b.c
    a, b, c = _unit(rng), _unit(rng), _unit(rng)
    return (sign_transform(tables.chain_coeffs(0.0, (-(a @ b), b @ c))) / 8.0,
            extended_eprb_prob3_chain(a, b, c).values)


def _extended4(rng):
    dirs = [_unit(rng) for _ in range(4)]
    return q.extended_eprb_prob4(*dirs)[0].values, q.extended_eprb_prob4_chain(*dirs)[0].values


def _leggett_garg(rng):
    p = lg.LGParams(rng.uniform(-3, 3), *rng.uniform(0, 3, 3))
    c1, c2, c3 = np.cos(2.0 * p.omega * np.array([p.dt1, p.dt2, p.dt3]))
    oracle = np.empty((2, 2, 2))
    for basis, prob in zip(lg.BASIS, np.abs(lg.evolve_triple(p).amplitudes) ** 2):
        oracle[ref_index(basis[1:])] = prob
    e = tables.chain_coeffs(c1, (c2, c3))
    assert lg.lg_triple_correlations(p) == pytest.approx((e[1, 1, 0], e[1, 0, 1], e[0, 1, 1]),
                                                         rel=0, abs=TOL)
    return sign_transform(e) / 8.0, oracle


class TestChainTables:
    """Three routes to every exact table: closed form, dense oracle (the
    projector chain, the loop reference, or ``evolve_triple``), and seeded
    ``draw_codes`` frequencies from the closed table."""

    DRAWS = 20000

    @pytest.mark.parametrize("seed, routes", enumerate(
        (_filter2, _filter3, _singlet, _extended3, _extended4, _leggett_garg)))
    def test_three_routes_agree(self, seed, routes):
        rng = np.random.default_rng(seed)
        for _ in range(5):
            closed, oracle = routes(rng)
            assert np.allclose(closed, oracle, rtol=0, atol=TOL)
            p = np.clip(closed.ravel(), 0.0, 1.0)
            freq = np.bincount(tables.draw_codes(p, rng, self.DRAWS), minlength=p.size) / self.DRAWS
            stderr = np.sqrt(p * (1.0 - p) / self.DRAWS)
            assert np.all(np.abs(freq - p) <= 5.0 * stderr + 1e-12)


class TestSignRowSampler:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_rows_follow_the_grid_order(self, n):
        rows = tables.sign_rows(n)
        assert rows.dtype == np.int8 and not rows.flags.writeable
        assert [ref_index(r) for r in rows] == list(product(range(2), repeat=n))

    def test_draw_is_the_inverse_cdf_of_one_uniform_per_row(self):
        probs = np.array([0.1, 0.0, 0.25, 0.65])
        got = tables.draw_codes(probs, np.random.default_rng(4), 1000)
        u = np.random.default_rng(4).random(1000)
        idx = np.searchsorted(np.cumsum(probs), u, side="right")
        assert np.array_equal(got, idx)
        assert not np.any(got == 1)  # zero-probability row

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_draw_is_the_searchsorted_index_on_the_sign_grid(self, n):
        probs = np.random.default_rng(n).dirichlet(np.ones(2 ** n))
        got = tables.draw_codes(probs, np.random.default_rng(10 + n), 5000)
        rng = np.random.default_rng(10 + n)
        cdf = np.cumsum(probs)
        cdf[-1] = 1.0
        want = np.searchsorted(cdf[:-1], rng.random(5000), side="right")
        assert got.dtype == np.uint8 and np.array_equal(got, want)
        # the index of a row is its sign code, and code_signs inverts sign_codes
        rows = tables.sign_rows(n)[got]
        assert np.array_equal(tables.sign_codes(*rows.T), got)
        assert all(np.array_equal(col, want_col)
                   for col, want_col in zip(tables.code_signs(got, n), rows.T))

    def test_rounding_never_draws_past_the_last_row(self):
        # cumulative sums that fall short of 1 still map every uniform to a row
        probs = np.full(3, 0.333)
        rng = np.random.default_rng(5)
        assert set(tables.draw_codes(probs, rng, 20_000).tolist()) == {0, 1, 2}


B = tables.BLOCK


class TestStreamCursors:
    @pytest.mark.parametrize("count", [1, B - 1, B, B + 1, 3 * B + 7])
    def test_cursors_draw_the_whole_draws_block_by_block(self, count):
        # three whole draws from one generator, then one more double: the
        # cursors, drawn a block at a time and interleaved, give the same
        # bits, and the generator goes on where the whole draws left it;
        # draw_uniform gives the bits of uniform
        seed = np.random.SeedSequence(count).spawn(2)[1]
        whole = np.random.default_rng(seed)
        want = [whole.random(count), whole.uniform(0.0, 2.0 * np.pi, count),
                whole.uniform(-1.0, 1.0, count), whole.random(1)]
        rng = np.random.default_rng(seed)
        cursors = tables.stream_cursors(rng, count, 3)
        got = [[], [], []]
        for block in tables.blocks(count):
            size = block.stop - block.start
            got[2].append(tables.draw_uniform(cursors[2], -1.0, 1.0, size))
            got[0].append(cursors[0].random(size))
            got[1].append(tables.draw_uniform(cursors[1], 0.0, 2.0 * np.pi, size))
        got = [np.concatenate(parts) for parts in got] + [rng.random(1)]
        assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))

    def test_a_buffered_32_bit_output_is_kept(self):
        # the half of a 64-bit output left by a uint32 draw is drawn next,
        # before and after the cursors alike
        rng, whole = np.random.default_rng(3), np.random.default_rng(3)
        rng.integers(0, 2 ** 32, dtype=np.uint32)
        whole.integers(0, 2 ** 32, dtype=np.uint32)
        whole.random(2 * 10)
        tables.stream_cursors(rng, 10, 2)
        assert rng.integers(0, 2 ** 32, 3, dtype=np.uint32).tolist() == \
            whole.integers(0, 2 ** 32, 3, dtype=np.uint32).tolist()

    @pytest.mark.parametrize("bit", [np.random.MT19937, np.random.Philox, np.random.PCG64DXSM,
                                     np.random.SFC64])
    def test_other_bit_generators_are_refused(self, bit):
        with pytest.raises(TypeError, match="need a PCG64 generator, got " + bit.__name__):
            tables.stream_cursors(np.random.Generator(bit(1)), 10, 2)


class TestSignCodes:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_codes_are_the_flat_sign_index(self, n):
        rows = np.concatenate([tables.sign_rows(n),
                               RNG.choice(np.array([1, -1], dtype=np.int8), (200, n))])
        codes = tables.sign_codes(*rows.T)
        assert codes.shape == (rows.shape[0],)
        assert codes.tolist() == [np.ravel_multi_index(ref_index(r), (2,) * n) for r in rows]
        assert np.array_equal(codes[:2 ** n], np.arange(2 ** n))

    def test_scalar_columns_give_a_scalar_code(self):
        codes = tables.sign_codes(1, -1, np.int8(-1))
        assert codes.shape == () and int(codes) == 3


class TestSignTable:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_n_is_read_from_the_array(self, n):
        values = RNG.uniform(-1, 1, (2,) * n)
        table = tables.SignTable(values)
        assert table.n == n and not table.values.flags.writeable
        assert tables.SignTable.from_dict(table.to_dict()) == table
        for signs in product(SIGNS, repeat=n):
            assert table.value(*signs) == values[ref_index(signs)]
        pairs = tables.pair_coefficients(sign_transform(table.values))
        assert list(pairs) == [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        for (i, j), value in pairs.items():
            assert value == float(sign_transform(values)[
                tuple(int(k in (i, j)) for k in range(1, n + 1))])
            assert value == pytest.approx(ref_pair_correlation(values.ravel(), n, i, j),
                                          abs=TOL)
        if n == 3:   # the literal positions the chain readers used
            rng = np.random.default_rng(3)
            for _ in range(20):
                c0, *links = rng.uniform(-1, 1, 3)
                e = tables.chain_coeffs(c0, links, tuple(int(v) for v in rng.permutation(3) + 1))
                assert tables.pair_coefficients(e) == {
                    (1, 2): e[1, 1, 0], (1, 3): e[1, 0, 1], (2, 3): e[0, 1, 1]}

    def test_subclasses_fix_n(self):
        with pytest.raises(ValueError, match="FuncTable2 needs a 2x2 array"):
            tables.FuncTable2(np.zeros((2, 2, 2)))
        with pytest.raises(ValueError, match="SignTable needs a 2x2x2 array"):
            tables.SignTable(np.zeros((2, 3, 2)))
        with pytest.raises(ValueError, match="expected 3 signs"):
            tables.FuncTable3(np.zeros((2, 2, 2))).value(1, 1)
        assert tables.FuncTable2.n == 2 and tables.FuncTable3.n == 3

    def test_probability_tables_are_sign_tables(self):
        table = q.ProbabilityTable(np.arange(8.0).reshape(2, 2, 2) / 28.0)
        assert isinstance(table, tables.SignTable) and table.n == 3
        assert table.values.shape == (2, 2, 2)
        assert not table.p.flags.writeable
        assert np.shares_memory(table.p, table.values)
        assert table != tables.SignTable(table.values)
