"""Routes that only the tests read: the dense states, tables and searches the
tests hold the package's closed forms and stacked kernels against, and the
stored-event filters that the pipeline's counts and the dataset projections
are held against, the row counts that every producer's CountTable is held
against, and a fresh interpreter that times the calls whose cost must not
grow with a count."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import boolebell
from boolebell import quantum as q
from boolebell.classical import FactorizableModel, analytic_correlation
from boolebell.reports import SLACK_TOL
from boolebell.tables import (CountTable, ExpansionCoeffs2, marginals_compatible, sign_codes,
                              synth2)


def row_counts(rows) -> CountTable:
    """The counts of +-1 rows of shape (M, n), through ``sign_codes``: the
    rows the samplers and the reader built before they counted."""
    rows = np.asarray(rows)
    return CountTable.of_codes(sign_codes(*rows.T), rows.shape[1])


def common_parameter_fit(model: FactorizableModel, a: float, b: float, c: float):
    """Search for a shared-parameter product representation of the three pair
    distributions at settings (a,b), (a,c), (b,c).

    A representation with one parameter shared across all three setting pairs
    exists exactly when one joint three-variable distribution has the three
    pair tables as marginals (take the outcome triple itself as the
    parameter), so the search reduces to the marginal-compatibility
    feasibility check.  The identical-threshold law always admits one; the
    opposite-threshold law fails at suitable angles, showing that its pairing
    of thresholds cannot be rewritten with a single shared parameter.
    """
    tabs = [synth2(ExpansionCoeffs2(1.0, 0.0, 0.0, analytic_correlation(model, x, y)))
            for x, y in ((a, b), (a, c), (b, c))]
    return marginals_compatible(*tabs)


def maximally_mixed(n: int) -> q.DensityMatrix:
    dim = 2 ** n
    return q.DensityMatrix(np.eye(dim, dtype=complex) / dim, n)


def diag_prob(rho: q.DensityMatrix) -> q.ProbabilityTable:
    """Diagonal of the state in the product basis: the probability of each
    sign pattern of simultaneous z-projections."""
    return q.ProbabilityTable(np.real(np.diag(rho.matrix)).reshape((2,) * rho.n))


def extended_eprb_prob3_chain(a, b, c) -> q.ProbabilityTable:
    """Projector-chain route for arbitrary unit vectors: the left particle is
    analyzed along a, the right particle along b then c."""
    return q._chain_table(q.singlet(), ((a, 1), (b, 2), (c, 2)), (0, 1, 2, 1, 0))


def separable_mixture(components) -> q.DensityMatrix:
    """Probability-weighted mixture of product states of two single spins."""
    mat = np.zeros((4, 4), dtype=complex)
    for w, left, right in zip(*q._normalize_components(components)):
        mat += w * q._kron(left, right)
    return q.DensityMatrix(mat, 2)


def chsh_slab_scan(emat):
    """Violation count, maximum and first argmax in (a, b, c, d) order of
    |E(a,b) - E(a,c) + E(d,b) + E(d,c)|, one full n^3 slab per a: every one
    of the n^4 quadruples is evaluated, as
    ((E[a,b] - E[a,c]) + E[b,d]) + E[c,d]."""
    n = len(emat)
    slab = np.empty((n, n, n))
    count, best, where = 0, -1.0, (0, 0, 0, 0)
    for a in range(n):
        np.add((emat[a, :, None] - emat[a, None, :])[:, :, None], emat[:, None, :],
               out=slab)
        slab += emat[None, :, :]
        np.abs(slab, out=slab)
        count += int(np.count_nonzero(slab > 2.0 + SLACK_TOL))
        top = float(slab.max())
        if top > best:
            best = top
            where = (a, *(int(i) for i in np.unravel_index(int(slab.argmax()), slab.shape)))
    return count, best, where


def coincidence_counts(raw, window: float) -> np.ndarray:
    """Coincidences per schedule index and outcome pair, in one pass over the
    stored event times: one 2x2 count grid of (S1, S2) per schedule index,
    in sign-grid order, over the event pairs with |t1 - t2| <= window.  A
    NaN gap fails the comparison and is dropped, as in
    ``coincidence_filter``."""
    # codes 4 pair + sign_codes(S1, S2); code 4 n_pairs is the discard bin
    n_pairs = len(raw.schedule)
    discard = 4 * n_pairs
    codes = raw.pair.astype(np.min_scalar_type(discard))
    codes *= 4
    codes += sign_codes(raw.s1, raw.s2)
    np.putmask(codes, ~(np.abs(raw.t1 - raw.t2) <= window), discard)
    return np.bincount(codes, minlength=discard + 1)[:-1].reshape(n_pairs, 2, 2)


def coincidence_filter(raw, window: float, setting_filter: tuple[str, str]):
    """Keep the pairs of every schedule entry whose key is the filter (left
    id, right id) and whose detection times differ by at most the window W
    (positive or infinite), and count them.  Returns None when nothing
    survives (the explicit empty-selection signal)."""
    if not (window > 0.0):
        raise ValueError("window must be positive (math.inf allowed)")
    entries = [k for k, pair in enumerate(raw.schedule) if pair.key == tuple(setting_filter)]
    mask = np.isin(raw.pair, entries) & (np.abs(raw.t1 - raw.t2) <= window)
    if not np.any(mask):
        return None
    return row_counts(np.column_stack([raw.s1[mask], raw.s2[mask]]))


def reduce_dataset(rows: np.ndarray, indices: tuple[int, ...]) -> np.ndarray:
    """Project every +-1 row onto the given strictly increasing 1-based
    indices: rows of 2 to 4 columns, like any other dataset."""
    idx = tuple(int(i) for i in indices)
    n = rows.shape[1]
    if any(i < 1 or i > n for i in idx):
        raise ValueError(f"indices must lie in 1..{n}, got {idx}")
    if any(b <= a for a, b in zip(idx, idx[1:])):
        raise ValueError(f"indices must be strictly increasing, got {idx}")
    if len(idx) not in (2, 3, 4):
        raise ValueError(f"tuple arity must be 2, 3 or 4, got {len(idx)}")
    return rows[:, [i - 1 for i in idx]]


def fresh_call(expr: str) -> tuple[object, float, int]:
    """Evaluate ``expr`` (with ``np``, ``classical`` and ``leggett_garg`` in
    scope) in a fresh interpreter: its JSON value, the seconds it took and
    the peak of the memory tracemalloc traced meanwhile.  The timeout makes a
    call whose cost grows with a huge count a failure, not a hang."""
    probe = ("import json, time, tracemalloc\n"
             "import numpy as np\n"
             "from boolebell import classical, leggett_garg\n"
             "tracemalloc.start()\n"
             "start = time.perf_counter()\n"
             f"value = {expr}\n"
             "seconds = time.perf_counter() - start\n"
             "print(json.dumps([value, seconds, tracemalloc.get_traced_memory()[1]]))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(boolebell.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    return tuple(json.loads(out.stdout))
