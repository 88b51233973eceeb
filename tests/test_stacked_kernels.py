"""Stacked dense-oracle kernels against the per-pattern loops they replaced.

Each reference below is the earlier loop, kept verbatim in its arithmetic:
one projector chain per sign pattern, one ``expectation`` call per operator
and component, one ``bit_count`` test per coefficient and chain position.
The stacked kernels must give the same bits, compared with ``tobytes`` so
that a -0.0 turning into 0.0 fails as well: the JSON envelopes would show it.
Inputs mix random states and directions with axis-aligned and coplanar
settings, equal settings and pure or maximally mixed states, where exact
zeros (and their signs) appear.
"""

from functools import reduce
from itertools import product

import numpy as np
import pytest

from boolebell import quantum as q
from boolebell import tables
from oracles import extended_eprb_prob3_chain, maximally_mixed

SEEDS = range(8)
CASES = 40

AXES = [np.array(v, dtype=float) for v in np.vstack([np.eye(3), -np.eye(3)])]
COPLANAR = [q.coplanar_direction(np.radians(t)) for t in range(0, 360, 15)]


# ---------------------------------------------------------------------------
# references: the per-pattern loops
# ---------------------------------------------------------------------------

def ref_op_on(op2, particle, n):
    mat = np.eye(1, dtype=complex)
    for i in range(1, n + 1):
        mat = np.kron(mat, op2 if i == particle else q.ID2)
    return mat


def ref_chain_table(rho, stages, word, state_first=False):
    spins = max(k for _, k in stages)
    projs = [[ref_op_on(q.projector(s, d), k, spins) for s in (+1, -1)] for d, k in stages]
    p = np.empty((2,) * len(stages))
    for pattern in product(range(2), repeat=len(stages)):
        chain = [projs[k][pattern[k]] for k in word]
        if state_first:
            p[pattern] = np.trace(reduce(np.matmul, chain, rho.matrix)).real
        else:
            p[pattern] = np.trace(rho.matrix @ reduce(np.matmul, chain)).real
    return p


def ref_commutator_diagnostics(a, b, c, rho):
    ops = {"ab": np.kron(q.pauli_dot(a), q.pauli_dot(b)),
           "ac": np.kron(q.pauli_dot(a), q.pauli_dot(c)),
           "bc": np.kron(q.pauli_dot(b), q.pauli_dot(c))}
    norms, entries = {}, []
    for x_name, y_name in (("ab", "ac"), ("ab", "bc"), ("ac", "bc")):
        x, y = ops[x_name], ops[y_name]
        comm = x @ y - y @ x
        norms[f"[{x_name},{y_name}]"] = float(np.linalg.norm(comm, ord=2))
        z = 1j * comm
        var_x = q.expectation(rho, x @ x) - q.expectation(rho, x) ** 2
        var_y = q.expectation(rho, y @ y) - q.expectation(rho, y) ** 2
        zmean = np.trace(rho.matrix @ z)
        rhs = float(abs(zmean) ** 2) / 4.0
        lhs = var_x * var_y
        entries.append((f"({x_name},{y_name})", lhs, rhs, lhs >= rhs - 1e-10))
    return norms, entries


def ref_separable_terms(comps, a, b, c):
    """(t_ab, t_ac, t_bc), or the error message for unequal sides."""
    means = {}
    for name, d in zip("ABC", (a, b, c)):
        op = q.pauli_dot(d)
        left_vals = np.array([q.expectation(left, op) for _, left, _ in comps])
        right_vals = np.array([q.expectation(right, op) for _, _, right in comps])
        gap = float(np.max(np.abs(left_vals - right_vals)))
        if gap > 1e-10:
            return (f"subsystem averages along {name} differ between the two sides "
                    f"(max gap {gap}); the correlation bound requires them equal")
        means[name] = left_vals
    w = np.array([wk for wk, _, _ in comps])
    return (float(np.sum(w * means["A"] * means["B"])),
            float(np.sum(w * means["A"] * means["C"])),
            float(np.sum(w * means["B"] * means["C"])))


def ref_chain_coeffs(c0, links, order=None):
    n = len(links) + 1
    e = np.ones(2 ** n)
    for k, factor in enumerate((c0, *links)):
        for t in range(2 ** n):
            if (t % (1 << (n - k))).bit_count() % 2:
                e[t] *= factor
    e += 0.0
    e = e.reshape((2,) * n)
    return e if order is None else e.transpose([order.index(v) for v in range(1, n + 1)])


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def direction(rng):
    r = rng.random()
    if r < 0.2:
        return AXES[rng.integers(len(AXES))]
    if r < 0.45:
        return COPLANAR[rng.integers(len(COPLANAR))]
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def settings(rng, k):
    """k directions, some of them repeated."""
    dirs = [direction(rng)]
    for _ in range(k - 1):
        dirs.append(dirs[-1] if rng.random() < 0.2 else direction(rng))
    return dirs


def polarization(rng):
    r = rng.random()
    if r < 0.15:
        return np.zeros(3)
    if r < 0.4:
        return direction(rng)
    return direction(rng) * rng.random()


def two_spin_state(rng):
    r = rng.random()
    if r < 0.3:
        return q.singlet()
    if r < 0.45:
        return maximally_mixed(2)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    mat = g @ g.conj().T
    mat /= np.trace(mat).real
    return q.DensityMatrix((mat + mat.conj().T) / 2, 2)


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes(), (got, want)


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------

def test_op_on_matches_kron_chain():
    """Bit for bit on up to two spins, signed zeros included, and a stack
    embeds like its operators one at a time."""
    rng = np.random.default_rng(0)
    parts = [0.0, -0.0, 1.0, -1.0, 0.5]
    ops = rng.choice(parts, size=(200, 2, 2)) + 0j
    ops.imag = rng.choice(parts, size=(200, 2, 2))
    for n in (1, 2):
        for particle in range(1, n + 1):
            stacked = q.op_on(ops, particle, n)
            for op, got in zip(ops, stacked):
                assert_same_bits(q.op_on(op, particle, n), ref_op_on(op, particle, n))
                assert_same_bits(got, ref_op_on(op, particle, n))


@pytest.mark.parametrize("seed", SEEDS)
def test_filter_chains_match_per_pattern_loop(seed):
    rng = np.random.default_rng(seed)
    for _ in range(CASES):
        rho = q.spin_half_state(polarization(rng))
        a, b, c = settings(rng, 3)
        assert_same_bits(q.filter_prob2(rho, a, b).values,
                         ref_chain_table(rho, ((a, 1), (b, 1)), (0, 1, 0), state_first=True))
        assert_same_bits(q.filter_prob3(rho, a, b, c).values,
                         ref_chain_table(rho, ((a, 1), (b, 1), (c, 1)), (0, 1, 2, 1, 0)))


@pytest.mark.parametrize("seed", SEEDS)
def test_extended_chains_match_per_pattern_loop(seed):
    rng = np.random.default_rng(100 + seed)
    for _ in range(CASES):
        a, b, c, d = settings(rng, 4)
        assert_same_bits(extended_eprb_prob3_chain(a, b, c).values,
                         ref_chain_table(q.singlet(), ((a, 1), (b, 2), (c, 2)),
                                         (0, 1, 2, 1, 0)))
        table, pairs = q.extended_eprb_prob4_chain(a, b, c, d)
        want = ref_chain_table(q.singlet(), ((a, 1), (b, 2), (c, 2), (d, 1)),
                               (0, 3, 1, 2, 1, 3, 0))
        assert_same_bits(table.values, want)
        want_pairs = tables.pair_coefficients(tables.sign_transform(want))
        assert_same_bits(list(pairs.values()), list(want_pairs.values()))


@pytest.mark.parametrize("seed", SEEDS)
def test_commutator_diagnostics_match_per_pair_loop(seed):
    rng = np.random.default_rng(200 + seed)
    for _ in range(CASES):
        a, b, c = settings(rng, 3)
        rho = two_spin_state(rng)
        diag = q.commutator_diagnostics(a, b, c, rho)
        norms, entries = ref_commutator_diagnostics(a, b, c, rho)
        assert list(diag.commutator_norms) == list(norms)
        assert_same_bits(list(diag.commutator_norms.values()), list(norms.values()))
        got = [(u.pair, u.lhs, u.rhs, u.satisfied) for u in diag.uncertainty]
        assert [(p, s) for p, _, _, s in got] == [(p, s) for p, _, _, s in entries]
        assert_same_bits([(lhs, rhs) for _, lhs, rhs, _ in got],
                         [(lhs, rhs) for _, lhs, rhs, _ in entries])


@pytest.mark.parametrize("seed", SEEDS)
def test_separable_check_matches_per_component_loop(seed):
    rng = np.random.default_rng(300 + seed)
    for _ in range(CASES):
        a, b, c = settings(rng, 3)
        k = int(rng.integers(1, 5))
        w = rng.random(k) + 0.05
        w /= w.sum()
        comps = []
        for wk in w:
            left = q.spin_half_state(polarization(rng))
            # mostly the same state on both sides, so that the bound applies
            right = left if rng.random() < 0.8 else q.spin_half_state(polarization(rng))
            comps.append((float(wk), left, right))
        want = ref_separable_terms(comps, a, b, c)
        if isinstance(want, str):
            with pytest.raises(ValueError) as err:
                q.separable_bound_check(comps, a, b, c)
            assert str(err.value) == want
            continue
        report = q.separable_bound_check(comps, a, b, c)
        ref = q.SEPARABLE.report(*want)
        assert_same_bits([(cl.lhs, cl.rhs, cl.slack) for cl in report.clauses],
                         [(cl.lhs, cl.rhs, cl.slack) for cl in ref.clauses])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_chain_coeffs_match_bit_count_loop(n):
    rng = np.random.default_rng(400 + n)
    for _ in range(4 * CASES):
        factors = [float(rng.choice([0.0, -0.0, 1.0, -1.0, 0.5]))
                   if rng.random() < 0.3 else float(rng.uniform(-1, 1)) for _ in range(n)]
        order = None if rng.random() < 0.3 else tuple(int(v) for v in rng.permutation(n) + 1)
        assert_same_bits(tables.chain_coeffs(factors[0], factors[1:], order),
                         ref_chain_coeffs(factors[0], factors[1:], order))


@pytest.mark.parametrize("c0, links, bad", [
    (0.0, (np.inf,), "inf"), (np.nan, (), "nan"), (0.5, (0.2, -np.inf), "-inf"),
    (float("inf"), (0.5, 0.5), "inf"), (0.5, (np.float64("nan"), 0.1), "nan")])
def test_chain_coeffs_refuses_non_finite_input(c0, links, bad):
    with pytest.raises(ValueError, match=f"chain coefficients must be finite, got {bad}$"):
        tables.chain_coeffs(c0, links)


@pytest.mark.parametrize("x, message", [
    ([2.0, 0.0, 0.0], r"polarization vector must satisfy \|x\| <= 1, got \[2\. 0\. 0\.\]"),
    ([np.nan, 0.0, 0.0], r"polarization vector must satisfy \|x\| <= 1, got \[nan"),
    ([0.0, np.inf, 0.0], r"polarization vector must satisfy \|x\| <= 1"),
    ([0.6, 0.6, 0.6], r"polarization vector must satisfy \|x\| <= 1"),
    ([0.0, 0.0], "polarization vector needs 3 components")])
def test_closed_form_filters_validate_x_like_spin_half_state(x, message):
    a, b, c = AXES[2], AXES[0], AXES[1]
    for call in (lambda: q.spin_half_state(x), lambda: q.filter_prob2_closed(x, a, b),
                 lambda: q.filter_prob3_closed(x, a, b, c)):
        with pytest.raises(ValueError, match=message):
            call()
