"""Operation plans for the three workloads and the code that runs them.

A plan is a seeded sequence of rounds.  Every round holds the same operation
kinds in the same numbers; only their parameters and sizes are drawn, and the
order of the operations inside a round is shuffled.  Sizes come from
continuous (log-uniform) ranges, stratified inside a round so that every
round spans the whole range; some kinds also run at the top of their range in
every round, which keeps each run's peak memory at the same operation size
whatever the seed.

Operations reach the program only through ``cli.main(argv)`` and public
library functions, looked up on their modules at call time so that the
traced run's wrappers are seen.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import zlib

import numpy as np

WORKLOADS = ("sweep", "lab", "exact")

# kind -> (count per round, (low, high) size range, ops per round at the top
# of the range)
SWEEP_KINDS = {
    "sweep-factorizable": (4, (600, 3000), 1),
    "sweep-extended-eprb": (4, (600, 3000), 1),
    "sweep-leggett-garg": (4, (600, 3000), 1),
}
LAB_KINDS = {
    "pipeline": (3, (100_000, 1_000_000), 2),
    "pipeline-dump": (1, (5_000, 30_000), 0),
    "lg-samples": (3, (100_000, 1_000_000), 0),
    "factorizable-samples": (3, (100_000, 1_000_000), 0),
    "factorizable-csv": (2, (10_000, 100_000), 0),
    "dataset-read": (2, (10_000, 100_000), 0),
}
# single-point reports: no size; the counts place the 50th and 90th
# percentiles inside a kind's latency cluster rather than between two.
EXACT_KINDS = {
    "theorem1": 3, "theorem3": 3, "ebbi": 6,
    "lg-closed": 3, "reconstruct": 3, "construct": 3, "extended-triple": 4,
    "separable": 2, "schwartz": 2, "filter3": 2, "commutators": 2,
    "substitution": 2, "extended-quadruple": 8,
}
MU = ("uniform", "equal", "opposite")
SOURCES = ("singlet", "triple", "pair:uniform", "pair:equal", "pair:opposite")


def _log_between(lo: float, hi: float, u: float) -> float:
    return lo * (hi / lo) ** u


def _stratified(rng: np.random.Generator, count: int) -> list[float]:
    return [(i + rng.random()) / count for i in range(count)]


def _fmt(x: float) -> str:
    return repr(float(x))


class Plan:
    """Seeded source of rounds for one workload."""

    def __init__(self, workload: str, seed: int, workdir: str):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.workdir = workdir
        key = zlib.crc32(workload.encode())
        self.rng = np.random.default_rng(np.random.SeedSequence([int(seed), key]))
        self._serial = 0

    def kinds(self) -> list[str]:
        return list({"sweep": SWEEP_KINDS, "lab": LAB_KINDS,
                     "exact": EXACT_KINDS}[self.workload])

    def round(self) -> list[dict]:
        ops = []
        if self.workload == "exact":
            for kind, count in EXACT_KINDS.items():
                ops.extend(self.op(kind) for _ in range(count))
        else:
            table = SWEEP_KINDS if self.workload == "sweep" else LAB_KINDS
            for kind, (count, _, top) in table.items():
                us = _stratified(self.rng, count - top) + [1.0] * top
                ops.extend(self.op(kind, u) for u in us)
        order = self.rng.permutation(len(ops))
        return [ops[i] for i in order]

    def warmups(self, u: float) -> list[dict]:
        """One operation of each kind at the relative size u (0 = bottom of
        the range, 1 = top)."""
        return [self.op(kind, u) for kind in self.kinds()]

    def _path(self, suffix: str) -> str:
        self._serial += 1
        return os.path.join(self.workdir, f"op{self._serial}{suffix}")

    def op(self, kind: str, u: float = 0.0) -> dict:
        rng = self.rng
        if self.workload == "sweep":
            lo, hi = SWEEP_KINDS[kind][1]
            target = _log_between(lo, hi, u)
            return _sweep_op(kind, target, rng)
        if self.workload == "lab":
            lo, hi = LAB_KINDS[kind][1]
            size = int(round(_log_between(lo, hi, u)))
            return self._lab_op(kind, size, rng)
        return _exact_op(kind, rng)

    def _lab_op(self, kind: str, size: int, rng) -> dict:
        seed = int(rng.integers(0, 2 ** 31))
        if kind in ("pipeline", "pipeline-dump"):
            finite = bool(rng.random() < 0.5)
            jitter = 0.0 if rng.random() < 1 / 3 else float(rng.uniform(0.1, 2.0))
            op = {"kind": kind, "source": SOURCES[int(rng.integers(len(SOURCES)))],
                  "angles": [float(x) for x in rng.uniform(0.0, 360.0, 3)],
                  "window": float(rng.uniform(0.05, 1.0)) if finite else "inf",
                  "jitter": jitter, "exponent": float(rng.uniform(0.0, 4.0)),
                  "m": size, "seed": seed, "items": size,
                  "events_out": self._path(".csv") if kind == "pipeline-dump" else None}
            argv = ["epr-pipeline", "--source", op["source"], "--angles",
                    *map(_fmt, op["angles"]),
                    "--window", op["window"] if op["window"] == "inf" else _fmt(op["window"]),
                    "--samples", str(size), "--jitter", _fmt(jitter),
                    "--jitter-exponent", _fmt(op["exponent"]), "--seed", str(seed)]
            if op["events_out"]:
                argv += ["--events-out", op["events_out"]]
        elif kind == "lg-samples":
            op = {"kind": kind, "omega": float(rng.uniform(0.5, 2.0)),
                  "dt": [float(rng.uniform(0.0, 1.0)), float(rng.uniform(0.0, math.pi)),
                         float(rng.uniform(0.0, math.pi))],
                  "samples": size, "seed": seed, "items": size}
            argv = ["leggett-garg", "--omega", _fmt(op["omega"]), "--dt",
                    *map(_fmt, op["dt"]), "--samples", str(size), "--seed", str(seed)]
        elif kind in ("factorizable-samples", "factorizable-csv"):
            op = {"kind": kind, "mu": MU[int(rng.integers(3))],
                  "angles": [float(x) for x in rng.uniform(-360.0, 360.0, 2)],
                  "samples": size, "seed": seed, "items": size,
                  "out": self._path(".csv") if kind == "factorizable-csv" else None}
            argv = ["factorizable", "--mu", op["mu"], "--angles",
                    *map(_fmt, op["angles"]), "--samples", str(size),
                    "--seed", str(seed)]
            if op["out"]:
                argv += ["--format", "csv", "--out", op["out"]]
        else:  # dataset-read
            op = {"kind": kind, "n": int(rng.integers(2, 5)), "rows": size,
                  "data_seed": seed, "items": size, "input": self._path(".csv")}
            argv = ["dataset", "--input", op["input"]]
        op["argv"] = argv
        return op


def _sweep_op(kind: str, target: float, rng) -> dict:
    if kind == "sweep-factorizable":
        n = 3
        while math.comb(n + 3, 3) <= target:
            n += 1
        start = float(rng.uniform(0.0, 360.0))
        step = float(rng.uniform(5.0, 25.0))
        stop = start + step * (n - 1)
        mu = MU[int(rng.integers(3))]
        n = len(np.arange(start, stop + 1e-9, step))
        return {"kind": kind, "mu": mu, "grid": [start, stop, step], "n": n,
                "items": math.comb(n + 2, 3),
                "argv": ["sweep", "--what", "factorizable", "--mu", mu,
                         "--grid", _fmt(start), _fmt(stop), _fmt(step)]}
    if kind == "sweep-extended-eprb":
        step = 360.0 / math.sqrt(target)
        k = len(np.arange(0.0, 2.0 * np.pi - 1e-9, math.radians(step)))
        # START and STOP are passed as 0 and 360: the program reads only STEP
        return {"kind": kind, "step": step, "items": k * k,
                "argv": ["sweep", "--what", "extended-eprb",
                         "--grid", "0", "360", _fmt(step)]}
    points = max(2, int(round(math.sqrt(target))))
    return {"kind": kind, "points": points, "items": points * points,
            "argv": ["sweep", "--what", "leggett-garg", "--points", str(points)]}


def _unit(rng) -> list[float]:
    v = rng.normal(size=3)
    return [float(x) for x in v / np.linalg.norm(v)]


def _ball(rng) -> list[float]:
    return [float(x) for x in np.asarray(_unit(rng)) * rng.random() ** (1 / 3)]


def _coeffs(rng) -> list[float]:
    e0 = float(rng.uniform(0.5, 2.0))
    return [e0] + [float(x) for x in rng.uniform(-e0, e0, 3)]


def _exact_op(kind: str, rng) -> dict:
    if kind in ("substitution", "extended-triple"):
        p = {"angles": [float(x) for x in rng.uniform(0.0, 2 * math.pi, 3)]}
    elif kind == "extended-quadruple":
        p = {"angles": [float(x) for x in rng.uniform(0.0, 2 * math.pi, 4)]}
    elif kind == "filter3":
        p = {"x": _ball(rng), "a": _unit(rng), "b": _unit(rng), "c": _unit(rng)}
    elif kind in ("schwartz", "commutators"):
        p = {"a": _unit(rng), "b": _unit(rng), "c": _unit(rng)}
    elif kind == "separable":
        k = int(rng.integers(1, 5))
        w = rng.random(k) + 0.05
        p = {"weights": [float(x) for x in w / w.sum()],
             "x": [_ball(rng) for _ in range(k)],
             "a": _unit(rng), "b": _unit(rng), "c": _unit(rng)}
    elif kind in ("ebbi", "theorem3"):
        p = {"coeffs": _coeffs(rng)}
    elif kind == "theorem1":
        e0, e1, e2, e12 = _coeffs(rng)
        p = {"coeffs": [e0, e1, e2, e12]}
    elif kind in ("construct", "reconstruct"):
        p = {"g": [float(x) for x in rng.random(8) + 1e-3]}
    elif kind == "lg-closed":
        p = {"omega": float(rng.uniform(0.5, 2.0)),
             "dt": [float(rng.uniform(0.0, 1.0)), float(rng.uniform(0.0, math.pi)),
                    float(rng.uniform(0.0, math.pi))]}
    else:
        raise ValueError(f"unknown exact kind {kind!r}")
    return {"kind": kind, "p": p, "items": 1}


def write_dataset_input(op: dict) -> None:
    """Write the dataset an operation reads (outside the timed region)."""
    rows = dataset_rows(op)
    with open(op["input"], "w") as fh:
        fh.write(",".join(f"s{i}" for i in range(1, op["n"] + 1)) + "\n")
        text = np.where(rows > 0, "+1", "-1")
        fh.write("\n".join(",".join(r) for r in text.tolist()) + "\n")


def dataset_rows(op: dict) -> np.ndarray:
    """The +-1 rows of a dataset-read operation, made from its own seed:
    sign patterns drawn from a random distribution over the 2^n patterns."""
    rng = np.random.default_rng(op["data_seed"])
    n = op["n"]
    patterns = 1 - 2 * ((np.arange(2 ** n)[:, None] >> np.arange(n)) & 1)
    probs = rng.dirichlet(np.full(2 ** n, 0.7))
    return patterns[rng.choice(2 ** n, size=op["rows"], p=probs)].astype(np.int64)


class Runner:
    """Runs operations against the package imported in this process."""

    def __init__(self):
        from boolebell import cli, leggett_garg, quantum, tables
        self.cli, self.lg, self.q, self.tables = cli, leggett_garg, quantum, tables

    def prepare(self, op: dict):
        """Return a zero-argument callable that performs the operation and
        returns its output; inputs are built here, outside the timed call."""
        if "argv" in op:
            if op["kind"] == "dataset-read":
                write_dataset_input(op)
            argv = op["argv"]
            return lambda: self._cli(argv)
        return getattr(self, "_x_" + op["kind"].replace("-", "_"))(op["p"])

    def _cli(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = self.cli.main(argv)
        return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}

    # --- exact single-point reports -------------------------------------
    def _x_substitution(self, p):
        q = self.q
        dirs = [q.coplanar_direction(t) for t in p["angles"]]

        def run():
            rep = q.eprb_substitution_report(*dirs)
            return {"scenario": "substitution", "params": p,
                    "values": {"E": rep.e, "Ehat": rep.ehat, "Etilde": rep.etilde,
                               "marginals_direct": rep.marginals_direct.to_dict(),
                               "marginals_anticorrelated":
                                   rep.marginals_anticorrelated.to_dict()},
                    "reports": {"boole_direct": rep.boole_direct.to_dict(),
                                "boole_anticorrelated":
                                    rep.boole_anticorrelated.to_dict()}}
        return run

    def _x_extended_triple(self, p):
        q, tables = self.q, self.tables

        def run():
            table, coeffs = q.extended_eprb_prob3(*p["angles"])
            rep = tables.ebbi_check(1.0, coeffs.e12, coeffs.e13, coeffs.e23)
            return {"scenario": "extended-triple", "params": p,
                    "values": {"table": table.to_dict(), "coeffs": coeffs.to_dict()},
                    "reports": {"ebbi": rep.to_dict()}}
        return run

    def _x_extended_quadruple(self, p):
        q = self.q
        dirs = [q.coplanar_direction(t) for t in p["angles"]]

        def run():
            table, pairs = q.extended_eprb_prob4(*dirs)
            rep = q.check_chsh_quadruple(pairs)
            return {"scenario": "extended-quadruple", "params": p,
                    "values": {"table": table.to_dict(), "pair_correlations": pairs},
                    "reports": {"chsh": rep.to_dict()}}
        return run

    def _x_filter3(self, p):
        q = self.q
        rho = q.spin_half_state(p["x"])
        a, b, c = (np.array(p[k]) for k in "abc")

        def run():
            chain = q.filter_prob3(rho, a, b, c)
            closed = q.filter_prob3_closed(p["x"], a, b, c)
            return {"scenario": "filter3", "params": p,
                    "values": {"chain": chain.to_dict(),
                               "closed_form": closed.to_dict()},
                    "reports": {}}
        return run

    def _x_schwartz(self, p):
        q = self.q
        a, b, c = (np.array(p[k]) for k in "abc")

        def run():
            r = q.schwartz_bound(a, b, c)
            return {"scenario": "schwartz", "params": p,
                    "values": {"E": r.e, "Ehat": r.ehat, "bc": r.bc,
                               "cos2_plus": r.cos2_plus, "cos2_minus": r.cos2_minus,
                               "sharpness": r.sharpness, "coplanar": bool(r.coplanar),
                               "equality": bool(r.equality)},
                    "reports": {"schwartz": r.report.to_dict()}}
        return run

    def _x_separable(self, p):
        q = self.q
        comps = [(w, q.spin_half_state(x)) for w, x in zip(p["weights"], p["x"])]
        a, b, c = (np.array(p[k]) for k in "abc")

        def run():
            rep = q.separable_bound_check(comps, a, b, c)
            return {"scenario": "separable", "params": p, "values": {},
                    "reports": {"separable": rep.to_dict()}}
        return run

    def _x_commutators(self, p):
        q = self.q
        rho = q.singlet()
        a, b, c = (np.array(p[k]) for k in "abc")

        def run():
            diag = q.commutator_diagnostics(a, b, c, rho)
            return {"scenario": "commutators", "params": p,
                    "values": diag.to_dict(), "reports": {}}
        return run

    def _x_ebbi(self, p):
        tables = self.tables

        def run():
            rep = tables.ebbi_check(*p["coeffs"])
            return {"scenario": "ebbi", "params": p, "values": {},
                    "reports": {"ebbi": rep.to_dict()}}
        return run

    def _x_theorem1(self, p):
        tables = self.tables
        c = tables.ExpansionCoeffs2(*p["coeffs"])

        def run():
            rep = tables.theorem1_check(c)
            return {"scenario": "theorem-1", "params": p,
                    "values": {"table": tables.synth2(c).to_dict()},
                    "reports": {"theorem1": rep.to_dict()}}
        return run

    def _x_theorem3(self, p):
        tables = self.tables
        e0, e, ehat, etilde = p["coeffs"]

        def run():
            rep = tables.theorem3_check(e, ehat, etilde, e0)
            return {"scenario": "theorem-3", "params": p, "values": {},
                    "reports": {"theorem3": rep.to_dict()}}
        return run

    def _x_construct(self, p):
        tables = self.tables
        a0, a12, a13, a23 = pair_coefficients(p["g"])

        def run():
            table = tables.construct_g3(a0, a12, a13, a23)
            return {"scenario": "construct", "params": p,
                    "values": {"coeffs": [a0, a12, a13, a23],
                               "table": table.to_dict()},
                    "reports": {"ebbi": tables.ebbi_check(a0, a12, a13, a23).to_dict()}}
        return run

    def _x_reconstruct(self, p):
        tables = self.tables
        g = np.array(p["g"]).reshape(2, 2, 2)
        f, fhat, ftilde = (tables.FuncTable2(g.sum(axis=ax)) for ax in (2, 1, 0))

        def run():
            compat = tables.marginals_compatible(f, fhat, ftilde)
            rec = tables.reconstruct_f3(f, fhat, ftilde)
            return {"scenario": "reconstruct", "params": p,
                    "values": {"compatible": compat.compatible,
                               "table": rec.table.to_dict(), "e123": rec.e123,
                               "e123_interval": list(rec.e123_interval)},
                    "reports": {"compatibility": compat.clause_report.to_dict()}}
        return run

    def _x_lg_closed(self, p):
        lg = self.lg
        params = lg.LGParams(p["omega"], *p["dt"])

        def run():
            triple = lg.lg_triple_correlations(params)
            pair = lg.lg_pair_correlations(params)
            return {"scenario": "lg-closed", "params": p,
                    "values": {"triple": list(triple), "pair": list(pair)},
                    "reports": {"triple": lg.lg_inequality_check(*triple).to_dict(),
                                "pair_substitution":
                                    lg.lg_inequality_check(*pair).to_dict()}}
        return run


def pair_coefficients(g) -> tuple[float, float, float, float]:
    """(a0, a12, a13, a23) of a 2x2x2 table given flat, index 0 <-> S=+1,
    variable 1 slowest."""
    t = np.array(g, dtype=float).reshape(2, 2, 2)
    s = np.array([1.0, -1.0])
    return (float(t.sum()),
            float(np.einsum("ijk,i,j->", t, s, s)),
            float(np.einsum("ijk,i,k->", t, s, s)),
            float(np.einsum("ijk,j,k->", t, s, s)))


# Calls each operation makes into the traced functions at this version of
# the program; the traced run compares its counts with these.
def expected_calls(op: dict) -> dict[str, int]:
    kind = op["kind"]
    c: dict[str, int] = {}

    def add(name, k=1):
        c[name] = c.get(name, 0) + k

    def report(family_clauses, times=1, rendered=0):
        add("reports.make_clause", family_clauses * times)
        add("reports.make_report", times)
        if rendered:
            add("reports.InequalityReport.to_dict", rendered)

    def ebbi(times=1):
        add("tables.ebbi_check", times)
        report(17, times)

    if "argv" in op:
        add("cli.main")
        add("cli.build_parser")
    if kind == "sweep-factorizable":
        t = op["items"]
        add("classical.model_inequality_sweep")
        add("classical.analytic_correlation", 3 * t)
        add("datasets.check_boole_triple", t)
        add("datasets.check_boole_triple_anticorrelated", t)
        report(6, 2 * t)
    elif kind == "sweep-extended-eprb":
        ebbi(op["items"])
    elif kind == "sweep-leggett-garg":
        t = op["items"]
        add("leggett_garg.lg_triple_correlations", t)
        add("leggett_garg.lg_inequality_check", t)
        ebbi(t)
        add("reports.make_report", t)
    elif kind in ("pipeline", "pipeline-dump"):
        add("pipeline.run_three_settings")
        add("pipeline.generate_events", 2 if kind == "pipeline-dump" else 1)
        add("pipeline.coincidence_filter", 3)
        add("datasets.DichotomicDataset", 3)
        add("datasets.correlation", 3)
        add("datasets.check_boole_triple")
        add("datasets.check_boole_triple_anticorrelated")
        add("datasets.check_pair_bound")
        report(6, 3, rendered=3)
        if op["source"] == "triple":
            add("tables.construct_g3")
            ebbi()
        if kind == "pipeline-dump":
            add("pipeline.RawDataset.write_csv")
    elif kind == "lg-samples":
        add("leggett_garg.lg_triple_correlations")
        add("leggett_garg.lg_inequality_check", 2)
        ebbi(2)
        add("reports.make_report", 2)
        add("reports.InequalityReport.to_dict", 2)
        add("leggett_garg.sample_triples")
        add("datasets.DichotomicDataset")
        add("datasets.correlation", 3)
    elif kind in ("factorizable-samples", "factorizable-csv"):
        add("cli.cmd_factorizable")
        add("classical.analytic_correlation")
        add("classical.sample_pair")
        add("datasets.DichotomicDataset")
        add("datasets.correlation")
    elif kind == "dataset-read":
        n = op["n"]
        add("datasets.read_dataset_csv")
        add("datasets.DichotomicDataset")
        add("datasets.correlation", n * (n - 1) // 2)
        if n == 3:
            add("datasets.check_boole_triple")
            add("datasets.check_pair_bound")
            report(6, 2, rendered=2)
        elif n == 4:
            add("datasets.check_chsh")
            report(8, 1, rendered=1)
    elif kind == "substitution":
        add("quantum.eprb_substitution_report")
        add("quantum.singlet_pair_table", 3)
        add("tables.expand2", 9)
        add("tables.marginals_compatible", 2)
        add("datasets.check_boole_triple")
        add("datasets.check_boole_triple_anticorrelated")
        report(6, 4, rendered=4)
    elif kind == "extended-triple":
        add("quantum.extended_eprb_prob3")
        add("tables.expand3")
        ebbi()
        add("reports.InequalityReport.to_dict")
    elif kind == "extended-quadruple":
        add("quantum.extended_eprb_prob4")
        report(1, rendered=1)
    elif kind == "filter3":
        add("quantum.filter_prob3")
    elif kind == "schwartz":
        add("quantum.schwartz_bound")
        report(2, rendered=1)
    elif kind == "separable":
        add("quantum.separable_bound_check")
        report(6, rendered=1)
    elif kind == "commutators":
        add("quantum.commutator_diagnostics")
    elif kind == "ebbi":
        ebbi()
        add("reports.InequalityReport.to_dict")
    elif kind == "theorem1":
        add("tables.theorem1_check")
        report(3, rendered=1)
    elif kind == "theorem3":
        add("tables.theorem3_check")
        report(6, rendered=1)
    elif kind == "construct":
        add("tables.construct_g3")
        ebbi(2)
        add("reports.InequalityReport.to_dict")
    elif kind == "reconstruct":
        add("tables.marginals_compatible", 2)
        add("tables.reconstruct_f3")
        add("tables.expand2", 9)
        add("tables.synth3")
        report(6, 2, rendered=1)
    elif kind == "lg-closed":
        add("leggett_garg.lg_triple_correlations")
        add("leggett_garg.lg_inequality_check", 2)
        ebbi(2)
        add("reports.make_report", 2)
        add("reports.InequalityReport.to_dict", 2)
    return c
