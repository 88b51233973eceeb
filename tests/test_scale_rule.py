"""One scale rule for exact verdicts.

A clause, a coefficient match or a non-negativity test passes when it fails
by at most SLACK_TOL times the magnitude of the inputs' total (e0, or a
table's mass).  So a verdict on a genuine table does not depend on the
table's scale, and at a total of 0 the rule is exact.
"""

import json

import numpy as np
import pytest

from boolebell import pipeline, tables
from boolebell.cli import main

SCALES = (1.0, 1e3, 1e6, 1e9, 1e12, 1e15)


def sparse_tables(count, scale, seed):
    """Seeded triple tables: each entry kept with probability 1/2, drawn
    uniform on [0, scale) and rounded to the thousandth, so that many lie on
    a clause boundary."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        keep = rng.random(8) < 0.5
        values = np.where(keep, np.round(rng.uniform(0.0, scale, 8), 3), 0.0)
        yield tables.FuncTable3(values.reshape(2, 2, 2))


@pytest.mark.parametrize("scale", SCALES)
def test_genuine_marginals_reconstruct_at_every_scale(scale):
    refused, negative = 0, 0
    for table in sparse_tables(3000, scale, seed=13):
        try:
            rec = tables.reconstruct_f3(*table.marginals())
        except ValueError:
            refused += 1
            continue
        negative += not rec.table.is_nonnegative()
    assert (refused, negative) == (0, 0)


def _verdicts(check, *coeffs):
    """The clause verdicts of a check, or None where it refuses its input."""
    try:
        return [c.satisfied for c in check(*coeffs).clauses]
    except ValueError:
        return None


def _accepted(a0, a12, a13, a23):
    """Whether construct_g3 builds the table and a triple source takes it."""
    try:
        pipeline.TripleProcessSource(tables.construct_g3(a0, a12, a13, a23),
                                     {"a": 1, "b": 2, "c": 3})
    except ValueError:
        return False
    return True


def _outcomes(c):
    """ebbi_check's and theorem3_check's clause verdicts on the pair
    coefficients, and whether construct_g3 and a triple source take them."""
    return {"ebbi": _verdicts(tables.ebbi_check, c.e0, c.e12, c.e13, c.e23),
            "theorem3": _verdicts(tables.theorem3_check, c.e12, c.e13, c.e23, c.e0),
            "construct": _accepted(c.e0, c.e12, c.e13, c.e23)}


def test_verdicts_do_not_depend_on_the_total():
    """Genuine triple tables scaled to a total of 1 and of 1e9: the same
    verdict clause by clause at both totals, and every one admissible."""
    differ = {"ebbi": 0, "theorem3": 0, "construct": 0}
    for table in sparse_tables(2000, 1.0, seed=29):
        total = table.values.sum()
        if total == 0.0:
            continue
        unit, big = (_outcomes(tables.expand3(tables.FuncTable3(table.values * (scale / total))))
                     for scale in (1.0, 1e9))
        assert all(unit["ebbi"]) and unit["construct"]
        for name in differ:
            differ[name] += big[name] != unit[name]
    assert differ == {"ebbi": 0, "theorem3": 0, "construct": 0}


def test_a_zero_total_is_exact(capsys):
    assert main(["ebbi", "--e", "0", "1e-13", "0", "0"]) == 0
    report = json.loads(capsys.readouterr().out)["reports"]["ebbi"]
    first = report["clauses"][0]
    assert first["description"] == "|e12| <= e0"
    assert (first["satisfied"], first["slack"]) == (False, -1e-13)
    assert report["all_satisfied"] is False
    assert tables.ebbi_check(0.0, 0.0, 0.0, 0.0).all_satisfied


def test_a_negative_total_keeps_the_tolerance_positive(capsys, tmp_path):
    """Three all-(-1) tables: e0 = -4, so a tolerance read off e0 itself
    would be negative and report matching coefficients as mismatched."""
    path = tmp_path / "tabs.json"
    path.write_text(json.dumps({name: dict.fromkeys(("++", "+-", "-+", "--"), -1)
                                for name in ("f", "fhat", "ftilde")}))
    assert main(["theorem", "--which", "reconstruct", "--tables", str(path)]) == 0
    values = json.loads(capsys.readouterr().out)["values"]
    assert values["compatible"] is False
    assert values["failures"] == [
        "f has a negative entry (min -1.0)",
        "fhat has a negative entry (min -1.0)",
        "ftilde has a negative entry (min -1.0)",
        "clause failed: |e + ehat| <= e0 + etilde (lhs=0.0, rhs=-4.0)",
        "clause failed: |e - ehat| <= e0 - etilde (lhs=0.0, rhs=-4.0)",
        "clause failed: |e + etilde| <= e0 + ehat (lhs=0.0, rhs=-4.0)",
        "clause failed: |e - etilde| <= e0 - ehat (lhs=0.0, rhs=-4.0)",
        "clause failed: |etilde + ehat| <= e0 + e (lhs=0.0, rhs=-4.0)",
        "clause failed: |etilde - ehat| <= e0 - e (lhs=0.0, rhs=-4.0)",
    ]
    # a boundary clause (slack 0) at e0 = -1 still holds
    report = tables.theorem1_check(tables.ExpansionCoeffs2(-1.0, 0.0, 0.0, -1.0))
    assert [c.satisfied for c in report.clauses] == [False, False, True]
