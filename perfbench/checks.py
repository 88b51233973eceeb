"""Output checks computed apart from the program.

Nothing here imports the package under test: closed forms, clause families
and sweep results are recomputed with numpy from the operation's own
parameters, and every check returns a list of error strings (empty when the
output is correct).  A check never allocates more than O(n^3) for an n-angle
grid, well below what the checked operation itself allocates.
"""

from __future__ import annotations

import csv
import json
import math
from itertools import combinations_with_replacement, product
from pathlib import Path

import jsonschema
import numpy as np

from workloads import dataset_rows

SLACK_TOL = 1e-12
CYCLIC = ((1, 2, 3), (3, 1, 2), (2, 3, 1))
SIGMA_FACTOR = 5.0


class Checker:
    def __init__(self, schema_path: str | Path):
        schema = json.loads(Path(schema_path).read_text())
        self.validator = jsonschema.Draft202012Validator(schema)

    def check(self, op: dict, output) -> list[str]:
        try:
            if "argv" in op:
                return self._check_cli(op, output)
            return self._check_exact(op, output)
        except (KeyError, TypeError, ValueError, IndexError, OSError) as exc:
            return [f"{op['kind']}: output could not be checked: {exc!r}"]

    def _envelope(self, text: str) -> tuple[dict | None, list[str]]:
        def reject(name):
            raise ValueError(f"non-JSON constant {name}")
        try:
            env = json.loads(text, parse_constant=reject)
        except ValueError as exc:
            return None, [f"output is not strict JSON: {exc}"]
        errors = [f"schema: {e.message}" for e in self.validator.iter_errors(env)]
        errors += check_reports_consistent(env.get("reports") or {})
        return env, errors

    def _check_cli(self, op: dict, out: dict) -> list[str]:
        if out["rc"] != 0:
            return [f"exit status {out['rc']}: {out['stderr'].strip()[:200]}"]
        kind = op["kind"]
        if kind == "factorizable-csv":
            return check_factorizable_csv(op)
        env, errors = self._envelope(out["stdout"])
        if env is None:
            return errors
        fn = {"sweep-factorizable": check_sweep_factorizable,
              "sweep-extended-eprb": check_sweep_extended_eprb,
              "sweep-leggett-garg": check_sweep_leggett_garg,
              "pipeline": check_pipeline, "pipeline-dump": check_pipeline,
              "lg-samples": check_lg_samples,
              "factorizable-samples": check_factorizable_samples,
              "dataset-read": check_dataset}[kind]
        return errors + fn(op, env["values"], env["reports"])

    def _check_exact(self, op: dict, env: dict) -> list[str]:
        try:
            text = json.dumps(env, allow_nan=False)
        except (TypeError, ValueError) as exc:
            return [f"{op['kind']}: envelope is not strict JSON: {exc}"]
        env = json.loads(text)
        errors = [f"schema: {e.message}" for e in self.validator.iter_errors(env)]
        errors += check_reports_consistent(env["reports"])
        fn = EXACT_CHECKS[op["kind"]]
        return errors + fn(op["p"], env["values"], env["reports"])


# ---------------------------------------------------------------------------
# clause families, recomputed from their formulas
# ---------------------------------------------------------------------------

def _pairs3(f12, f13, f23):
    vals = {(1, 2): f12, (1, 3): f13, (2, 3): f23}
    return lambda i, j: vals[(min(i, j), max(i, j))]


def fam_boole(f12, f13, f23, e0=1.0, anti=False):
    v = _pairs3(f12, f13, f23)
    return [(abs(v(i, j) + s * v(i, k)), e0 + (-s if anti else s) * v(j, k))
            for i, j, k in CYCLIC for s in (1, -1)]


def fam_ebbi(e0, e12, e13, e23):
    out = [(abs(x), e0) for x in (e12, e13, e23)]
    out += fam_boole(e12, e13, e23, e0)
    out += [(-3.0 * e0, -(s1 * s2 * e12) - (s1 * s3 * e13) - (s2 * s3 * e23))
            for s1, s2, s3 in product((1, -1), repeat=3)]
    return out


def _three_runs(a, b, c, rhs, orders=((0, 1, 2), (0, 2, 1), (2, 1, 0))):
    vals = (a, b, c)
    return [(abs(vals[x] + s * vals[y]), rhs(s, vals[z]))
            for x, y, z in orders for s in (1, -1)]


def fam_pair_bound(f, fhat, ftilde, e0=1.0):
    return _three_runs(f, fhat, ftilde, lambda s, c: 3.0 * e0 - abs(c))


def fam_compat(e, ehat, etilde, e0):
    return _three_runs(e, ehat, etilde, lambda s, c: e0 + s * c)


def fam_separable(tab, tac, tbc):
    return _three_runs(tab, tac, tbc, lambda s, c: 1.0 + s * c,
                       orders=((0, 1, 2), (0, 2, 1), (1, 2, 0)))


def fam_chsh(f13, f23, f14, f24):
    return [(abs(u * f13 - v * f23 + w * f14 + u * v * w * f24), 2.0)
            for u in (1, -1) for v in (1, -1) for w in (1, -1)]


def compare_family(name: str, report: dict, expected, tol=1e-12) -> list[str]:
    clauses = report["clauses"]
    if len(clauses) != len(expected):
        return [f"{name}: {len(clauses)} clauses, expected {len(expected)}"]
    errors = []
    for k, (cl, (lhs, rhs)) in enumerate(zip(clauses, expected)):
        if not (_close(cl["lhs"], lhs, tol) and _close(cl["rhs"], rhs, tol)):
            errors.append(f"{name} clause {k} ({cl['description']}): reported "
                          f"{cl['lhs']!r} <= {cl['rhs']!r}, recomputed {lhs!r} <= {rhs!r}")
    return errors


def check_reports_consistent(reports: dict) -> list[str]:
    """slack = rhs - lhs, satisfied = slack >= -1e-12, all_satisfied = all."""
    errors = []
    for name, rep in reports.items():
        if rep is None:
            continue
        sat = []
        for cl in rep["clauses"]:
            slack = cl["rhs"] - cl["lhs"]
            if cl["slack"] != slack or cl["satisfied"] != (slack >= -SLACK_TOL):
                errors.append(f"{name}: inconsistent clause {cl['description']}")
            sat.append(cl["satisfied"])
        if rep["all_satisfied"] != all(sat):
            errors.append(f"{name}: all_satisfied disagrees with its clauses")
    return errors


def _close(a, b, tol=1e-12) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def _sigma_ok(got, expect, n) -> bool:
    sigma = math.sqrt(max(1.0 - expect * expect, 0.0) / n)
    return abs(got - expect) <= SIGMA_FACTOR * sigma + 1e-12


def pair_model_e(mu: str, d):
    """Closed-form pair correlation of the threshold models at a - b = d."""
    if mu == "uniform":
        return -np.cos(d) / 2.0
    if mu == "equal":
        return 1.0 - (4.0 / np.pi) * np.abs(np.sin(d / 2.0))
    return (4.0 / np.pi) * np.abs(np.cos(d / 2.0)) - 1.0


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def _slack_min_rows(lhs_rhs):
    """lhs_rhs: list of (lhs, rhs) arrays; returns the per-point slack matrix."""
    return np.stack([rhs - lhs for lhs, rhs in lhs_rhs], axis=-1)


def check_sweep_factorizable(op, values, reports) -> list[str]:
    errors = []
    start, stop, step = op["grid"]
    grid = [math.radians(v) for v in np.arange(start, stop + 1e-9, step)]
    ang = np.array(grid)
    n = len(grid)
    e = pair_model_e(op["mu"], ang[:, None] - ang[None, :])
    idx = np.array(list(combinations_with_replacement(range(n), 3)))
    ia, ib, ic = idx[:, 0], idx[:, 1], idx[:, 2]
    eab, eac, ebc = e[ia, ib], e[ia, ic], e[ib, ic]
    if values["n_triples"] != len(idx):
        errors.append(f"n_triples {values['n_triples']} != {len(idx)}")
    for fam, anti, count_key, worst_key in (
            ("bell", True, "bell_violations", "worst_bell"),
            ("boole", False, "boole_violations", "worst_boole")):
        slack = _slack_min_rows(fam_boole(eab, eac, ebc, 1.0, anti))
        count = int(np.count_nonzero((slack < -SLACK_TOL).any(axis=1)))
        if values[count_key] != count:
            errors.append(f"{count_key} {values[count_key]} != recomputed {count}")
        worst = values[worst_key]
        if not _close(worst["slack"], float(slack.min())):
            errors.append(f"{worst_key} slack {worst['slack']!r} != {float(slack.min())!r}")
        a, b, c = worst["angles"]
        w = [float(x) for x in pair_model_e(op["mu"], np.array([a - b, a - c, b - c]))]
        at = fam_boole(*w, 1.0, anti)
        if not any(_close(lhs, worst["lhs"]) and _close(rhs, worst["rhs"])
                   and _close(rhs - lhs, worst["slack"]) for lhs, rhs in at):
            errors.append(f"{worst_key} witness {worst['angles']} does not reproduce "
                          f"slack {worst['slack']!r}")
    # CHSH: combo = x[a,(b,c)] + y[d,(b,c)], in O(n^3) memory
    x = (e[:, :, None] - e[:, None, :]).reshape(n, n * n).T
    y = (e[:, :, None] + e[:, None, :]).reshape(n, n * n).T
    hi = np.maximum(x.max(axis=1) + y.max(axis=1), -(x.min(axis=1) + y.min(axis=1)))
    chsh_max = float(hi.max())
    bound = 2.0 + SLACK_TOL
    count = 0
    for row in np.nonzero(hi > bound)[0]:
        ys = np.sort(y[row])
        count += int(n * n - np.searchsorted(ys, bound - x[row], side="right").sum()
                     + np.searchsorted(ys, -bound - x[row], side="left").sum())
    if values["n_quadruples"] != n ** 4:
        errors.append(f"n_quadruples {values['n_quadruples']} != {n ** 4}")
    if values["chsh_violations"] != count:
        errors.append(f"chsh_violations {values['chsh_violations']} != recomputed {count}")
    if count:
        errors.append(f"factorizable {op['mu']} model exceeds the CHSH bound")
    if not _close(values["chsh_max"], chsh_max):
        errors.append(f"chsh_max {values['chsh_max']!r} != recomputed {chsh_max!r}")
    worst = values["worst_chsh"]
    a, b, c, d = worst["angles"]
    combo = abs(float(pair_model_e(op["mu"], a - b) - pair_model_e(op["mu"], a - c)
                      + pair_model_e(op["mu"], d - b) + pair_model_e(op["mu"], d - c)))
    if not (_close(combo, values["chsh_max"]) and _close(worst["slack"], 2.0 - combo)):
        errors.append(f"worst_chsh witness {worst['angles']} gives {combo!r}, "
                      f"reported {values['chsh_max']!r}")
    return errors


def _ebbi_grid_slacks(k12, k13, k23):
    return _slack_min_rows([(np.asarray(lhs), np.asarray(rhs))
                            for lhs, rhs in fam_ebbi(1.0, k12, k13, k23)])


def _check_grid_sweep(name, slack, values) -> list[str]:
    errors = []
    count = int(np.count_nonzero((slack < -SLACK_TOL).any(axis=-1)))
    if values["violations"] != count:
        errors.append(f"{name}: violations {values['violations']} != recomputed {count}")
    if count:
        errors.append(f"{name}: triple-derived coefficients violate the clause family")
    if not _close(values["worst_slack"], float(slack.min())):
        errors.append(f"{name}: worst_slack {values['worst_slack']!r} != "
                      f"recomputed {float(slack.min())!r}")
    return errors


def check_sweep_extended_eprb(op, values, reports) -> list[str]:
    thetas = np.arange(0.0, 2.0 * np.pi - 1e-9, math.radians(op["step"]))
    tb, tc = np.meshgrid(thetas, thetas, indexing="ij")
    c1, c2 = np.cos(tb), np.cos(tc - tb)
    errors = _check_grid_sweep("extended-eprb",
                               _ebbi_grid_slacks(-c1, -c1 * c2, c2), values)
    if values["points"] != thetas.size ** 2:
        errors.append(f"points {values['points']} != {thetas.size ** 2}")
    return errors


def check_sweep_leggett_garg(op, values, reports) -> list[str]:
    ts = np.linspace(0.0, np.pi, op["points"])
    w2, w3 = np.meshgrid(ts, ts, indexing="ij")
    c2, c3 = np.cos(2.0 * w2), np.cos(2.0 * w3)
    return _check_grid_sweep("leggett-garg", _ebbi_grid_slacks(c2, c3 * c2, c3), values)


# ---------------------------------------------------------------------------
# lab
# ---------------------------------------------------------------------------

SETTING_PAIRS = (("a", "b"), ("a", "c"), ("b", "c"))


def _source_e(source: str, t1: float, t2: float) -> float:
    if source == "singlet":
        return -math.cos(t1 - t2)
    if source == "triple":
        # the CLI's triple source is construct_g3(1, 1/4, 1/4, 1/4): every
        # pair coefficient is 1/4 whatever the settings
        return 0.25
    return float(pair_model_e(source.split(":", 1)[1], t1 - t2))


def check_pipeline(op, values, reports) -> list[str]:
    errors = []
    m = op["m"]
    rad = dict(zip("abc", (math.radians(v) for v in op["angles"])))
    counts, corr = values["counts"], values["correlations"]
    infinite = op["window"] == "inf"
    if values["empty_pairs"] or corr is None:
        return [f"empty setting pairs {values['empty_pairs']}"]
    for p, (l, r) in enumerate(SETTING_PAIRS):
        key = l + r
        share = m // 3 + (1 if p < m % 3 else 0)
        kept = counts[key]
        if (infinite or op["jitter"] == 0.0) and kept != share:
            errors.append(f"{key}: kept {kept} of a round-robin share of {share}")
        elif kept > share:
            errors.append(f"{key}: kept {kept} > generated {share}")
        if infinite and not _sigma_ok(corr[key], _source_e(op["source"], rad[l], rad[r]), kept):
            errors.append(f"{key}: correlation {corr[key]!r} more than 5 sigma from "
                          f"{_source_e(op['source'], rad[l], rad[r])!r} (n={kept})")
    f = (corr["ab"], corr["ac"], corr["bc"])
    errors += compare_family("pair_bound", reports["pair_bound"], fam_pair_bound(*f))
    errors += compare_family("boole_direct", reports["boole_direct"], fam_boole(*f))
    errors += compare_family("boole_anticorrelated", reports["boole_anticorrelated"],
                             fam_boole(*f, anti=True))
    if not reports["pair_bound"]["all_satisfied"]:
        errors.append("three-run pair bound violated")
    for conv in ("direct", "anticorrelated"):
        want = ("consistent with triples" if reports[f"boole_{conv}"]["all_satisfied"]
                else "triples hypothesis rejected")
        if values[f"verdict_{conv}"] != want:
            errors.append(f"verdict_{conv} {values[f'verdict_{conv}']!r} != {want!r}")
    if op["events_out"]:
        errors += check_event_log(op, counts, corr, rad)
    return errors


def check_event_log(op, counts, corr, rad) -> list[str]:
    """The log has 2m+1 lines, follows the round-robin schedule and, after
    the same window, gives back exactly the reported counts and
    correlations."""
    m, window = op["m"], math.inf if op["window"] == "inf" else op["window"]
    with open(op["events_out"], newline="") as fh:
        rows = list(csv.reader(fh))
    if len(rows) != 2 * m + 1:
        return [f"event log has {len(rows)} lines, expected {2 * m + 1}"]
    if rows[0] != ["alpha", "station", "s", "t", "setting_id", "angle"]:
        return [f"event log header {rows[0]}"]
    body = rows[1:]
    alpha = np.array([int(r[0]) for r in body])
    station = np.array([int(r[1]) for r in body])
    s = np.array([int(r[2]) for r in body])
    t = np.array([float(r[3]) for r in body])
    ids = [r[4] for r in body]
    angle = np.array([float(r[5]) for r in body])
    errors = []
    pair_no = np.repeat(np.arange(1, m + 1), 2)
    if not (np.array_equal(alpha, pair_no)
            and np.array_equal(station, np.tile([1, 2], m))):
        errors.append("event log alpha/station columns out of order")
    if not np.all(np.abs(s) == 1):
        errors.append("event log outcome outside +-1")
    delay = t - pair_no
    if np.any(delay < 0.0) or np.any(delay > op["jitter"]):
        errors.append("event log detection times outside [alpha, alpha + jitter]")
    sched = (pair_no[::2] - 1) % 3
    want_ids = [SETTING_PAIRS[p][st] for p in sched.tolist() for st in (0, 1)]
    if ids != want_ids:
        errors.append("event log setting ids do not follow the round-robin schedule")
    if not np.array_equal(angle, np.array([rad[i] for i in want_ids])):
        errors.append("event log angles differ from the settings")
    s1, s2, t1, t2 = s[0::2], s[1::2], t[0::2], t[1::2]
    keep = np.abs(t1 - t2) <= window
    for p, (l, r) in enumerate(SETTING_PAIRS):
        mask = keep & (sched == p)
        kept = int(mask.sum())
        num = int(np.sum(s1[mask] * s2[mask]))
        if kept != counts[l + r] or (kept and num / kept != corr[l + r]):
            errors.append(f"{l + r}: event log gives {kept} pairs, correlation "
                          f"{num / max(kept, 1)!r}; reported {counts[l + r]}, "
                          f"{corr[l + r]!r}")
    return errors


def lg_closed(omega, dt):
    c2 = math.cos(2.0 * omega * dt[1])
    c3 = math.cos(2.0 * omega * dt[2])
    return (c2, c3 * c2, c3), (c2, math.cos(2.0 * omega * (dt[1] + dt[2])), c3)


def check_lg_samples(op, values, reports) -> list[str]:
    errors = []
    triple, pair = lg_closed(op["omega"], op["dt"])
    tc = values["triple_correlations"]
    got = (tc["E12"], tc["E13"], tc["E23"])
    pc = values["pair_correlations"]
    if not all(map(_close, got, triple)):
        errors.append(f"triple correlations {got} != closed form {triple}")
    if not all(map(_close, (pc["E"], pc["Ehat"], pc["Etilde"]), pair)):
        errors.append(f"pair correlations {pc} != closed form {pair}")
    emp = values["empirical_correlations"]
    for key, expect in zip(("E12", "E13", "E23"), triple):
        if not _sigma_ok(emp[key], expect, op["samples"]):
            errors.append(f"sampled {key} {emp[key]!r} more than 5 sigma from {expect!r}")
    errors += compare_family("triple", reports["triple"], fam_ebbi(1.0, *triple))
    errors += compare_family("pair_substitution", reports["pair_substitution"],
                             fam_ebbi(1.0, *pair))
    if not reports["triple"]["all_satisfied"]:
        errors.append("genuine triple correlations violate the clause family")
    return errors


def _factorizable_e(op) -> float:
    a, b = (math.radians(v) for v in op["angles"])
    return float(pair_model_e(op["mu"], a - b))


def check_factorizable_samples(op, values, reports) -> list[str]:
    expect = _factorizable_e(op)
    errors = []
    if not _close(values["analytic"], expect):
        errors.append(f"analytic {values['analytic']!r} != closed form {expect!r}")
    if not _sigma_ok(values["empirical"], expect, op["samples"]):
        errors.append(f"empirical {values['empirical']!r} more than 5 sigma from {expect!r}")
    return errors


def check_factorizable_csv(op) -> list[str]:
    lines = Path(op["out"]).read_text().split("\n")
    if lines[0] != "s1,s2" or lines[-1] != "" or len(lines) != op["samples"] + 2:
        return [f"sample CSV: header {lines[0]!r}, {len(lines) - 2} rows, "
                f"expected {op['samples']}"]
    code = {"+1,+1": 1, "-1,-1": 1, "+1,-1": -1, "-1,+1": -1}
    try:
        prod = sum(code[row] for row in lines[1:-1])
    except KeyError as exc:
        return [f"sample CSV: bad row {exc}"]
    expect = _factorizable_e(op)
    got = prod / op["samples"]
    if not _sigma_ok(got, expect, op["samples"]):
        return [f"sample CSV correlation {got!r} more than 5 sigma from {expect!r}"]
    return []


def check_dataset(op, values, reports) -> list[str]:
    rows = dataset_rows(op)
    n, m = op["n"], op["rows"]
    errors = []
    f = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            f[(i, j)] = int(np.sum(rows[:, i - 1] * rows[:, j - 1])) / m
            if values[f"F{i}{j}"] != f[(i, j)]:
                errors.append(f"F{i}{j} {values[f'F{i}{j}']!r} != exact {f[(i, j)]!r}")
    if n == 3:
        args = (f[(1, 2)], f[(1, 3)], f[(2, 3)])
        errors += compare_family("boole_triple", reports["boole_triple"], fam_boole(*args))
        errors += compare_family("pair_bound", reports["pair_bound"], fam_pair_bound(*args))
        if not reports["boole_triple"]["all_satisfied"]:
            errors.append("a dataset of triples violates the Boole family")
    elif n == 4:
        errors += compare_family("chsh", reports["chsh"],
                                 fam_chsh(f[(1, 3)], f[(2, 3)], f[(1, 4)], f[(2, 4)]))
        if not reports["chsh"]["all_satisfied"]:
            errors.append("a dataset of quadruples violates the CHSH family")
    elif reports:
        errors.append("pair dataset produced reports")
    return errors


# ---------------------------------------------------------------------------
# exact
# ---------------------------------------------------------------------------

def _signs(n):
    return list(product((1, -1), repeat=n))


def _table_key(signs):
    return "".join("+" if s > 0 else "-" for s in signs)


def _coplanar(t):
    return np.array([math.sin(t), 0.0, math.cos(t)])


def x_substitution(p, values, reports) -> list[str]:
    ta, tb, tc = p["angles"]
    e = (-math.cos(ta - tb), -math.cos(ta - tc), -math.cos(tb - tc))
    got = (values["E"], values["Ehat"], values["Etilde"])
    errors = [] if all(_close(g, w, 1e-10) for g, w in zip(got, e)) else \
        [f"singlet correlations {got} != -a.b {e}"]
    errors += compare_family("boole_direct", reports["boole_direct"], fam_boole(*got))
    errors += compare_family("boole_anticorrelated", reports["boole_anticorrelated"],
                             fam_boole(*got, anti=True))
    for name, sign in (("marginals_direct", 1), ("marginals_anticorrelated", -1)):
        compat = values[name]
        errors += compare_family(name, compat["clause_report"],
                                 fam_compat(*(sign * g for g in got), 1.0),
                                 1e-10)
        if compat["compatible"] != compat["clause_report"]["all_satisfied"]:
            errors.append(f"{name}: compatible flag disagrees with its clauses")
    return errors


def x_extended_triple(p, values, reports) -> list[str]:
    ta, tb, tc = p["angles"]
    cba, ccb = math.cos(tb - ta), math.cos(tc - tb)
    errors = []
    for s1, s2, s3 in _signs(3):
        want = (1 - s1 * s2 * cba - s1 * s3 * cba * ccb + s2 * s3 * ccb) / 8.0
        got = values["table"][_table_key((s1, s2, s3))]
        if not _close(got, want, 1e-12):
            errors.append(f"P{_table_key((s1, s2, s3))} {got!r} != closed form {want!r}")
    co = values["coeffs"]
    want = {"e0": 1.0, "e1": 0.0, "e2": 0.0, "e3": 0.0, "e12": -cba,
            "e13": -cba * ccb, "e23": ccb, "e123": 0.0}
    if not all(_close(co[k], v) for k, v in want.items()):
        errors.append(f"coefficients {co} != {want}")
    errors += compare_family("ebbi", reports["ebbi"],
                             fam_ebbi(1.0, co["e12"], co["e13"], co["e23"]))
    if not reports["ebbi"]["all_satisfied"]:
        errors.append("genuine triple coefficients violate the clause family")
    return errors


def x_extended_quadruple(p, values, reports) -> list[str]:
    a, b, c, d = (_coplanar(t) for t in p["angles"])
    ab, bc, ad = a @ b, b @ c, a @ d
    want = {"E12": -ab, "E13": -ab * bc, "E14": ad, "E23": bc,
            "E24": -ab * ad, "E34": -ab * ad * bc}
    got = values["pair_correlations"]
    errors = [f"{k} {got[k]!r} != closed form {w!r}" for k, w in want.items()
              if not _close(got[k], w, 1e-10)]
    errors += compare_family("chsh", reports["chsh"],
                             [(abs(got["E12"] - got["E13"] + got["E24"] + got["E34"]), 2.0)])
    if not reports["chsh"]["all_satisfied"]:
        errors.append("quadruple correlations violate CHSH")
    total = sum(values["table"].values())
    if not _close(total, 1.0, 1e-10) or min(values["table"].values()) < -1e-12:
        errors.append("quadruple table is not a probability table")
    return errors


def x_filter3(p, values, reports) -> list[str]:
    x, a, b, c = (np.array(p[k]) for k in ("x", "a", "b", "c"))
    xa, ab, bc = x @ a, a @ b, b @ c
    errors = []
    for s1, s2, s3 in _signs(3):
        want = (1 + s1 * xa + s2 * xa * ab + s3 * xa * ab * bc + s1 * s2 * ab
                + s1 * s3 * ab * bc + s2 * s3 * bc + s1 * s2 * s3 * xa * bc) / 8.0
        key = _table_key((s1, s2, s3))
        for route in ("chain", "closed_form"):
            if not _close(values[route][key], want, 1e-10):
                errors.append(f"{route} P{key} {values[route][key]!r} != {want!r}")
    return errors


def x_schwartz(p, values, reports) -> list[str]:
    a, b, c = (np.array(p[k]) for k in "abc")
    e, ehat, bc = -(a @ b), -(a @ c), b @ c
    errors = [] if (_close(values["E"], e, 1e-10) and _close(values["Ehat"], ehat, 1e-10)
                    and _close(values["bc"], bc)) else \
        [f"singlet correlations {values['E']!r}, {values['Ehat']!r} != {e!r}, {ehat!r}"]
    errors += compare_family(
        "schwartz", reports["schwartz"],
        [((values["E"] + s * values["Ehat"]) ** 2, 2.0 * (1.0 + s * bc)) for s in (1, -1)])
    if not reports["schwartz"]["all_satisfied"]:
        errors.append("singlet correlations violate the Schwartz bound")
    cos2 = [float((a @ (b + s * c)) ** 2 / ((b + s * c) @ (b + s * c))) for s in (1, -1)]
    if not (_close(values["cos2_plus"], cos2[0], 1e-10)
            and _close(values["cos2_minus"], cos2[1], 1e-10)):
        errors.append(f"cos^2 factors {values['cos2_plus']!r}, {values['cos2_minus']!r} "
                      f"!= {cos2}")
    if values["coplanar"] != (abs(a @ np.cross(b, c)) <= 1e-10):
        errors.append("coplanar flag wrong")
    return errors


def x_separable(p, values, reports) -> list[str]:
    w = np.array(p["weights"])
    x = np.array(p["x"])
    means = {k: x @ np.array(p[k]) for k in "abc"}
    t = [float(np.sum(w * means[i] * means[j])) for i, j in ("ab", "ac", "bc")]
    errors = compare_family("separable", reports["separable"], fam_separable(*t), 1e-10)
    if not reports["separable"]["all_satisfied"]:
        errors.append("a separable mixture violates its correlation bound")
    return errors


_PAULI = (np.array([[0, 1], [1, 0]], dtype=complex),
          np.array([[0, -1j], [1j, 0]], dtype=complex),
          np.array([[1, 0], [0, -1]], dtype=complex))


def x_commutators(p, values, reports) -> list[str]:
    def sig(v):
        return sum(vi * s for vi, s in zip(v, _PAULI))
    psi = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)
    ops = {k: np.kron(sig(p[k[0]]), sig(p[k[1]])) for k in ("ab", "ac", "bc")}

    def mean(op):
        return complex(psi.conj() @ op @ psi)
    errors = []
    for entry, (xn, yn) in zip(values["uncertainty"], (("ab", "ac"), ("ab", "bc"), ("ac", "bc"))):
        x, y = ops[xn], ops[yn]
        comm = x @ y - y @ x
        norm = float(np.linalg.norm(comm, 2))
        got = values["commutator_norms"][f"[{xn},{yn}]"]
        if not _close(got, norm, 1e-10):
            errors.append(f"||[{xn},{yn}]|| {got!r} != {norm!r}")
        lhs = (1.0 - mean(x).real ** 2) * (1.0 - mean(y).real ** 2)
        rhs = abs(mean(1j * comm)) ** 2 / 4.0
        if not (_close(entry["lhs"], lhs, 1e-10) and _close(entry["rhs"], rhs, 1e-10)
                and entry["satisfied"]):
            errors.append(f"uncertainty ({xn},{yn}) {entry} != lhs {lhs!r} rhs {rhs!r}")
    return errors


def x_ebbi(p, values, reports) -> list[str]:
    return compare_family("ebbi", reports["ebbi"], fam_ebbi(*p["coeffs"]))


def x_theorem1(p, values, reports) -> list[str]:
    e0, e1, e2, e12 = p["coeffs"]
    errors = compare_family("theorem1", reports["theorem1"],
                            [(0.0, e0), (abs(e1 + e2), e0 + e12), (abs(e1 - e2), e0 - e12)])
    for s1, s2 in _signs(2):
        want = (e0 + s1 * e1 + s2 * e2 + s1 * s2 * e12) / 4.0
        if not _close(values["table"][_table_key((s1, s2))], want):
            errors.append(f"synthesized table entry {_table_key((s1, s2))} wrong")
    nonneg = min(values["table"].values()) >= -1e-12
    if nonneg != reports["theorem1"]["all_satisfied"]:
        errors.append("theorem 1 verdict disagrees with the sign of the table")
    return errors


def x_theorem3(p, values, reports) -> list[str]:
    e0, e, ehat, etilde = p["coeffs"]
    return compare_family("theorem3", reports["theorem3"],
                          fam_pair_bound(e, ehat, etilde, e0))


def _coefficients3(table: dict) -> dict:
    out = {}
    for name, pick in (("0", ()), ("1", (0,)), ("2", (1,)), ("3", (2,)), ("12", (0, 1)),
                       ("13", (0, 2)), ("23", (1, 2)), ("123", (0, 1, 2))):
        out[name] = sum(math.prod(sg[i] for i in pick) * table[_table_key(sg)]
                        for sg in _signs(3))
    return out


def x_construct(p, values, reports) -> list[str]:
    a0, a12, a13, a23 = values["coeffs"]
    g = np.array(p["g"]).reshape(2, 2, 2)
    sg = np.array([1.0, -1.0])
    want = (g.sum(), np.einsum("ijk,i,j->", g, sg, sg), np.einsum("ijk,i,k->", g, sg, sg),
            np.einsum("ijk,j,k->", g, sg, sg))
    errors = [] if all(_close(x, w) for x, w in zip((a0, a12, a13, a23), want)) else \
        ["input coefficients differ from the table they were made from"]
    if min(values["table"].values()) < -1e-12:
        errors.append("constructed table has a negative entry")
    co = _coefficients3(values["table"])
    got = (co["0"], co["12"], co["13"], co["23"])
    if not all(_close(x, w) for x, w in zip(got, (a0, a12, a13, a23))) or \
            any(abs(co[k]) > 1e-12 * max(1.0, a0) for k in ("1", "2", "3", "123")):
        errors.append(f"constructed table gives coefficients {co}, not {values['coeffs']}")
    errors += compare_family("ebbi", reports["ebbi"], fam_ebbi(a0, a12, a13, a23))
    return errors


def x_reconstruct(p, values, reports) -> list[str]:
    g = np.array(p["g"]).reshape(2, 2, 2)
    errors = [] if values["compatible"] else ["marginals of one table reported incompatible"]
    t = values["table"]
    rec = np.array([t[_table_key(sg)] for sg in _signs(3)]).reshape(2, 2, 2)
    if rec.min() < -1e-12:
        errors.append("reconstructed table has a negative entry")
    for ax in (2, 1, 0):
        if not np.allclose(rec.sum(axis=ax), g.sum(axis=ax), rtol=0, atol=1e-12):
            errors.append(f"reconstructed marginal over axis {ax} differs from the input")
    lo, hi = values["e123_interval"]
    if not lo - 1e-12 <= values["e123"] <= hi + 1e-12:
        errors.append(f"e123 {values['e123']!r} outside [{lo!r}, {hi!r}]")
    sg = np.array([1.0, -1.0])
    e = [float(np.einsum("ij,i,j->", g.sum(axis=ax), sg, sg)) for ax in (2, 1, 0)]
    errors += compare_family("compatibility", reports["compatibility"],
                             fam_compat(*e, float(g.sum())))
    return errors


def x_lg_closed(p, values, reports) -> list[str]:
    triple, pair = lg_closed(p["omega"], p["dt"])
    errors = []
    if not (all(map(_close, values["triple"], triple))
            and all(map(_close, values["pair"], pair))):
        errors.append(f"closed forms {values['triple']}, {values['pair']} != {triple}, {pair}")
    errors += compare_family("triple", reports["triple"], fam_ebbi(1.0, *triple))
    errors += compare_family("pair_substitution", reports["pair_substitution"],
                             fam_ebbi(1.0, *pair))
    if not reports["triple"]["all_satisfied"]:
        errors.append("genuine triple correlations violate the clause family")
    return errors


EXACT_CHECKS = {
    "substitution": x_substitution, "extended-triple": x_extended_triple,
    "extended-quadruple": x_extended_quadruple, "filter3": x_filter3,
    "schwartz": x_schwartz, "separable": x_separable, "commutators": x_commutators,
    "ebbi": x_ebbi, "theorem1": x_theorem1, "theorem3": x_theorem3,
    "construct": x_construct, "reconstruct": x_reconstruct, "lg-closed": x_lg_closed,
}
