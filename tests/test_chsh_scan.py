"""The screened CHSH kernel against the full slab loop, bit for bit.

``classical._chsh_scan`` evaluates only the triples (a, b, c) whose screen
bound can reach the maximum or the limit; ``oracles.chsh_slab_scan``
evaluates all n^4 quadruples with the same association.  The count, the
bits of the maximum and the first argmax must be equal, on model grids, on
singlet matrices that break the bound, and on matrices whose near-maximum
entries differ by single ulps.
"""

import numpy as np
import pytest

from boolebell import classical as cl
from boolebell.reports import SLACK_TOL
from oracles import chsh_slab_scan

LAWS = ("uniform", "delta_equal", "delta_opposite")
STEPS = ("random", 30.0, 45.0, 90.0, 180.0)


def assert_same_scan(emat):
    count, best, where = cl._chsh_scan(emat)
    ref_count, ref_best, ref_where = chsh_slab_scan(emat)
    assert (count, best.hex(), where) == (ref_count, ref_best.hex(), ref_where)
    return count, best


def symmetric_ulp_nudge(emat, rng):
    """emat with each upper-triangle entry moved by -1, 0 or +1 ulp,
    mirrored so the matrix stays symmetric."""
    steps = rng.integers(-1, 2, size=emat.shape)
    out = np.where(steps > 0, np.nextafter(emat, np.inf),
                   np.where(steps < 0, np.nextafter(emat, -np.inf), emat))
    return np.triu(out) + np.triu(out, 1).T


@pytest.mark.parametrize("step", STEPS)
@pytest.mark.parametrize("law", LAWS)
def test_seeded_grids_match_the_slab_oracle(law, step):
    rng = np.random.default_rng([LAWS.index(law), STEPS.index(step)])
    for k in range(12):
        n = int(rng.integers(1, 41))
        deg = float(rng.uniform(5.0, 25.0)) if step == "random" else step
        angles = np.radians(rng.uniform(0.0, 360.0) + deg * np.arange(n))
        if k % 3 == 0:   # repeated angles: many exact ties
            angles = rng.choice(angles, n)
        assert_same_scan(cl.correlation_law(law, angles[:, None] - angles[None, :]))


@pytest.mark.parametrize("n", [6, 17, 33])
def test_singlet_violations_match_the_slab_oracle(n):
    rng = np.random.default_rng(n)
    angles = rng.uniform(0.0, 2.0 * np.pi, n)
    count, best = assert_same_scan(-np.cos(angles[:, None] - angles[None, :]))
    assert count > 0 and best > 2.0 + SLACK_TOL


def test_singlet_tsirelson_grid_matches_the_slab_oracle():
    # 0, 45, 90, 135 degrees reach 2 sqrt(2), many times over
    angles = np.radians(np.arange(0.0, 720.0, 45.0))
    count, best = assert_same_scan(-np.cos(angles[:, None] - angles[None, :]))
    assert count > 0 and best == pytest.approx(2.0 * np.sqrt(2.0))


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("law", ["delta_equal", "delta_opposite", "singlet"])
def test_ulp_ties_match_the_slab_oracle(law, seed):
    # on 30 and 45 degree grids many quadruples tie at the maximum; nudging
    # entries by single ulps splits the ties below the screen's rounding, and
    # the second scale puts the maximum on the limit 2 + SLACK_TOL itself
    rng = np.random.default_rng(seed)
    deg = 30.0 if seed % 2 else 45.0
    angles = np.radians(rng.uniform(0.0, 360.0) + deg * np.arange(int(rng.integers(4, 25))))
    diff = angles[:, None] - angles[None, :]
    emat = -np.cos(diff) if law == "singlet" else cl.correlation_law(law, diff)
    for scale in (1.0, (2.0 + SLACK_TOL) / chsh_slab_scan(emat)[1]):
        assert_same_scan(symmetric_ulp_nudge(scale * emat, rng))


def test_one_angle():
    assert cl._chsh_scan(np.array([[0.5]])) == (0, 1.0, (0, 0, 0, 0))


# grids of repeated angles: every triple is a candidate, and exact ties
# between pieces decide the first argmax
DEGENERATE_GRIDS = (np.array([0.0, np.pi] * 10), np.radians(np.arange(0.0, 1800.0, 90.0)),
                    np.radians(np.arange(0.0, 720.0, 45.0)))


def assert_same_scans_on(angles):
    diff = angles[:, None] - angles[None, :]
    for law in LAWS:
        assert_same_scan(cl.correlation_law(law, diff))
    assert_same_scan(-np.cos(diff))


@pytest.mark.parametrize("block", [1, 7, 1 << 9])
def test_block_size_does_not_move_the_bits(monkeypatch, block):
    # blocks of a few a-slabs raise the candidate threshold as they go
    monkeypatch.setattr(cl, "CHSH_BLOCK", block)
    rng = np.random.default_rng(block)
    for law in LAWS:
        angles = np.radians(rng.uniform(0.0, 360.0) + 10.0 * np.arange(20))
        assert_same_scan(cl.correlation_law(law, angles[:, None] - angles[None, :]))
    angles = rng.uniform(0.0, 2.0 * np.pi, 20)
    assert_same_scan(-np.cos(angles[:, None] - angles[None, :]))
    if block < 1 << 9:   # full candidacy across block and batch edges
        for angles in DEGENERATE_GRIDS:
            assert_same_scans_on(angles)


@pytest.mark.parametrize("angles", DEGENERATE_GRIDS,
                         ids=["half_turns", "right_angles", "eighth_turns"])
def test_degenerate_grids_match_the_slab_oracle(angles):
    assert_same_scans_on(angles)
