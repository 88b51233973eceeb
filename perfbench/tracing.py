"""Tracing from outside the program: wrappers around the public functions of
each module, spans kept in memory, per-layer metrics at the end.

Every wrapped name is replaced wherever the package binds it (the defining
module and every module that imported it by name), so a call through any of
those bindings is seen.  Self time is a span's duration minus the time of its
traced child spans.  Aggregates cover every call; the spans themselves are
kept up to MAX_SPANS and written out when the run ends.
"""

from __future__ import annotations

import math
import sys
import time
import tracemalloc
from array import array

MAX_SPANS = 100_000


def _rows_of_first(args, kwargs, result):
    return args[0].m


def _dataset_rows(args, kwargs, result):
    return args[0].data.shape[0]


def _result_rows(args, kwargs, result):
    return result.m


def _arg(pos, name):
    return lambda args, kwargs, result: kwargs[name] if name in kwargs else args[pos]


def _csv_rows(args, kwargs, result):
    ns = args[0]
    return ns.samples if ns.format == "csv" else None


def _triples(args, kwargs, result):
    return math.comb(len(args[1]) + 2, 3)


# traced name -> (module, attribute path, size of one call or None)
TARGETS = {
    "reports.make_clause": ("reports", "make_clause", None),
    "reports.make_report": ("reports", "make_report", None),
    "reports.InequalityReport.to_dict": ("reports", "InequalityReport.to_dict", None),
    "datasets.check_boole_triple": ("datasets", "check_boole_triple", None),
    "datasets.check_boole_triple_anticorrelated":
        ("datasets", "check_boole_triple_anticorrelated", None),
    "datasets.check_pair_bound": ("datasets", "check_pair_bound", None),
    "datasets.check_chsh": ("datasets", "check_chsh", None),
    "datasets.correlation": ("datasets", "correlation", _rows_of_first),
    "datasets.DichotomicDataset": ("datasets", "DichotomicDataset.__post_init__",
                                   _dataset_rows),
    "datasets.read_dataset_csv": ("datasets", "read_dataset_csv", _result_rows),
    "tables.ebbi_check": ("tables", "ebbi_check", None),
    "tables.expand2": ("tables", "expand2", None),
    "tables.expand3": ("tables", "expand3", None),
    "tables.synth3": ("tables", "synth3", None),
    "tables.marginals_compatible": ("tables", "marginals_compatible", None),
    "tables.reconstruct_f3": ("tables", "reconstruct_f3", None),
    "tables.construct_g3": ("tables", "construct_g3", None),
    "tables.theorem1_check": ("tables", "theorem1_check", None),
    "tables.theorem3_check": ("tables", "theorem3_check", None),
    "quantum.singlet_pair_table": ("quantum", "singlet_pair_table", None),
    "quantum.eprb_substitution_report": ("quantum", "eprb_substitution_report", None),
    "quantum.extended_eprb_prob3": ("quantum", "extended_eprb_prob3", None),
    "quantum.extended_eprb_prob4": ("quantum", "extended_eprb_prob4", None),
    "quantum.filter_prob3": ("quantum", "filter_prob3", None),
    "quantum.schwartz_bound": ("quantum", "schwartz_bound", None),
    "quantum.separable_bound_check": ("quantum", "separable_bound_check", None),
    "quantum.commutator_diagnostics": ("quantum", "commutator_diagnostics", None),
    "leggett_garg.lg_triple_correlations": ("leggett_garg", "lg_triple_correlations", None),
    "leggett_garg.lg_inequality_check": ("leggett_garg", "lg_inequality_check", None),
    "leggett_garg.sample_triples": ("leggett_garg", "sample_triples", _arg(1, "m")),
    "classical.model_inequality_sweep": ("classical", "model_inequality_sweep", _triples),
    "classical.analytic_correlation": ("classical", "analytic_correlation", None),
    "classical.sample_pair": ("classical", "sample_pair", _arg(4, "count")),
    "pipeline.generate_events": ("pipeline", "generate_events", _arg(2, "m")),
    "pipeline.coincidence_filter": ("pipeline", "coincidence_filter", _rows_of_first),
    "pipeline.run_three_settings": ("pipeline", "run_three_settings", None),
    "pipeline.RawDataset.write_csv": ("pipeline", "RawDataset.write_csv", _rows_of_first),
    "cli.build_parser": ("cli", "build_parser", None),
    "cli.main": ("cli", "main", None),
    "cli.cmd_factorizable": ("cli", "cmd_factorizable", _csv_rows),
}
# functions whose peak allocation is measured, in a separate pass
MEMORY_TARGETS = ("classical.model_inequality_sweep", "pipeline.run_three_settings")


class Tracer:
    def __init__(self):
        self.names = list(TARGETS)
        self.absent: list[str] = []
        # (namespace, attribute, original, wrapper) for every binding
        self._sites: list[tuple] = []
        n = len(self.names)
        self.count = [0] * n
        self.total_ns = [0] * n
        self.self_ns = [0] * n
        self.sized_ns = [0] * n
        self.sized_self_ns = [0] * n
        self.size = [0] * n
        self.peak_alloc = [0] * n
        self.kind_counts: dict[str, list[int]] = {}
        self.op_names: dict[str, int] = {}
        self._stack: list[list] = []
        self._span_stack: list[int] = []
        self._counts: list[int] | None = None
        self.memory_pass = False
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self._find_sites()

    def _find_sites(self):
        """Every binding of every traced function in the package."""
        mods = {name.split(".")[-1]: mod for name, mod in list(sys.modules.items())
                if name == "boolebell" or name.startswith("boolebell.")}
        for i, name in enumerate(self.names):
            modname, path, _ = TARGETS[name]
            owner = mods.get(modname)
            parts = path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part, None)
            fn = getattr(owner, parts[-1], None) if owner is not None else None
            if fn is None or not callable(fn):
                self.absent.append(name)
                continue
            wrapper = self._wrap(i, fn, TARGETS[name][2])
            if len(parts) > 1:
                self._sites.append((owner, parts[-1], fn, wrapper))
                continue
            for mod in mods.values():
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._sites.append((mod, attr, fn, wrapper))

    def install(self):
        for owner, attr, _, wrapper in self._sites:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, fn, _ in self._sites:
            setattr(owner, attr, fn)

    def _wrap(self, i, fn, size_of):
        stack = self._stack
        perf = time.perf_counter_ns
        memory = self.names[i] in MEMORY_TARGETS

        def traced(*args, **kwargs):
            if self.memory_pass:
                if not memory:
                    return fn(*args, **kwargs)
                tracemalloc.start()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.peak_alloc[i] = max(self.peak_alloc[i],
                                             tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
            span = self._open(i)
            frame = [0]
            stack.append(frame)
            t0 = perf()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf()
                stack.pop()
                d = t1 - t0
                own = d - frame[0]
                if stack:
                    stack[-1][0] += d
                self.count[i] += 1
                self.total_ns[i] += d
                self.self_ns[i] += own
                if self._counts is not None:
                    self._counts[i] += 1
                if size_of is not None:
                    try:
                        size = size_of(args, kwargs, result)
                    except (AttributeError, IndexError, KeyError, TypeError):
                        size = None
                    if size:
                        self.size[i] += size
                        self.sized_ns[i] += d
                        self.sized_self_ns[i] += own
                self._close(span, t0, t1)
        traced.__wrapped__ = fn
        return traced

    def _open(self, name_id):
        if len(self.span_name) >= MAX_SPANS:
            return -1
        parent = self._span_stack[-1] if self._span_stack else -1
        idx = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(parent)
        self.span_start.append(0)
        self.span_end.append(0)
        self._span_stack.append(idx)
        return idx

    def _close(self, span, t0, t1):
        if span < 0:
            return
        self._span_stack.pop()
        self.span_start[span] = t0
        self.span_end[span] = t1

    def run_op(self, kind: str, call) -> tuple[int, object]:
        """Run one operation as a root span; returns (ns, output)."""
        self._span_stack = []
        op_id = self.op_names.setdefault(kind, -1 - len(self.op_names))
        counts = self.kind_counts.setdefault(kind, [0] * len(self.names))
        self._counts = counts
        span = self._open(op_id)
        self.install()
        try:
            t0 = time.perf_counter_ns()
            out = call()
            t1 = time.perf_counter_ns()
        finally:
            self.uninstall()
            self._counts = None
        self._close(span, t0, t1)
        return t1 - t0, out

    def measure_memory(self, call):
        self.memory_pass = True
        self.install()
        try:
            call()
        finally:
            self.uninstall()
            self.memory_pass = False

    def write_spans(self, path):
        labels = {v: k for k, v in self.op_names.items()}
        with open(path, "w") as fh:
            fh.write("span,name,start_ns,end_ns,parent\n")
            for k in range(len(self.span_name)):
                nid = self.span_name[k]
                name = self.names[nid] if nid >= 0 else "op:" + labels[nid]
                fh.write(f"{k},{name},{self.span_start[k]},{self.span_end[k]},"
                         f"{self.span_parent[k]}\n")


def layer_metrics(tr: Tracer, kinds: dict[str, int], items: int,
                  expected: dict[str, int], traced_ns: int, untraced_ns: int,
                  ) -> tuple[dict, list[str]]:
    """Per-layer metrics of one traced run and the call-count mismatches.
    kinds counts the traced operations of each kind; items is their total."""
    idx = {name: i for i, name in enumerate(tr.names)}
    n_ops = max(sum(kinds.values()), 1)
    items = max(items, 1)

    def per_call(name, scale):
        i = idx[name]
        return tr.total_ns[i] / tr.count[i] / scale if tr.count[i] else 0.0

    def per_size(name, own=False):
        i = idx[name]
        if not tr.size[i]:
            return 0.0
        return (tr.sized_self_ns[i] if own else tr.sized_ns[i]) / tr.size[i]

    def self_per_call_ms(name):
        i = idx[name]
        return tr.self_ns[i] / tr.count[i] / 1e6 if tr.count[i] else 0.0

    def module_self_ms(prefix):
        return sum(tr.self_ns[i] for i, name in enumerate(tr.names)
                   if name.startswith(prefix + ".")) / n_ops / 1e6

    def calls_per_op(name, op_kinds):
        i = idx[name]
        n = sum(kinds.get(k, 0) for k in op_kinds)
        calls = sum(tr.kind_counts.get(k, [0] * len(tr.names))[i] for k in op_kinds)
        return calls / n if n else 0.0

    m = {}
    us = ("us", 1e3)
    m["reports.make_clause.calls_per_item"] = (tr.count[idx["reports.make_clause"]] / items,
                                               "count")
    m["reports.self_ms"] = (module_self_ms("reports"), "ms")
    for name in ("datasets.check_boole_triple", "datasets.check_boole_triple_anticorrelated",
                 "datasets.check_pair_bound", "datasets.check_chsh", "tables.ebbi_check",
                 "tables.expand2", "tables.expand3", "tables.synth3",
                 "tables.marginals_compatible", "tables.reconstruct_f3",
                 "tables.construct_g3", "tables.theorem1_check", "tables.theorem3_check",
                 "quantum.singlet_pair_table", "quantum.eprb_substitution_report",
                 "quantum.extended_eprb_prob3", "quantum.extended_eprb_prob4",
                 "quantum.filter_prob3", "quantum.schwartz_bound",
                 "quantum.separable_bound_check", "quantum.commutator_diagnostics",
                 "leggett_garg.lg_triple_correlations", "leggett_garg.lg_inequality_check",
                 "classical.analytic_correlation", "cli.build_parser"):
        m[name + ".us_per_call"] = (per_call(name, us[1]), us[0])
    for name in ("datasets.correlation", "datasets.DichotomicDataset",
                 "datasets.read_dataset_csv"):
        m[name + ".ns_per_row"] = (per_size(name), "ns")
    m["quantum.self_ms"] = (module_self_ms("quantum"), "ms")
    m["leggett_garg.sample_triples.ns_per_sample"] = (
        per_size("leggett_garg.sample_triples"), "ns")
    m["classical.model_inequality_sweep.self_us_per_triple"] = (
        per_size("classical.model_inequality_sweep", own=True) / 1e3, "us")
    m["classical.sample_pair.ns_per_sample"] = (per_size("classical.sample_pair"), "ns")
    for name in MEMORY_TARGETS:
        m[name + ".peak_alloc_mb"] = (tr.peak_alloc[idx[name]] / 2 ** 20, "MB")
    m["pipeline.generate_events.ns_per_pair"] = (per_size("pipeline.generate_events"), "ns")
    m["pipeline.generate_events.calls_per_op"] = (
        calls_per_op("pipeline.generate_events", ("pipeline-dump",)), "count")
    m["pipeline.coincidence_filter.ns_per_pair"] = (
        per_size("pipeline.coincidence_filter"), "ns")
    m["pipeline.coincidence_filter.calls_per_op"] = (
        calls_per_op("pipeline.coincidence_filter", ("pipeline", "pipeline-dump")), "count")
    m["pipeline.run_three_settings.self_ms_per_op"] = (
        self_per_call_ms("pipeline.run_three_settings"), "ms")
    m["pipeline.RawDataset.write_csv.ns_per_pair"] = (
        per_size("pipeline.RawDataset.write_csv"), "ns")
    m["cli.main.self_ms_per_op"] = (self_per_call_ms("cli.main"), "ms")
    m["cli.cmd_factorizable.self_ns_per_row"] = (per_size("cli.cmd_factorizable", own=True),
                                                 "ns")
    m["bench.tracing_overhead_pct"] = (100.0 * (traced_ns - untraced_ns) / untraced_ns, "%")

    mismatches = []
    for name in tr.names:
        if name in tr.absent:
            continue
        want = expected.get(name, 0)
        got = tr.count[idx[name]]
        if got != want:
            mismatches.append(f"{name}: traced {got} calls, expected {want}")
    m["bench.callcount_mismatches"] = (len(mismatches), "count")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}, mismatches
