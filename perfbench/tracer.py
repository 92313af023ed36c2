"""Span tracer for the benchmark's traced rounds.

`Tracer.install()` wraps the public functions and public methods of every
rankscatter module and rebinds each wrapper wherever the original is bound
(`from .linalg import sample_subspace` in verify.py, the package re-exports),
so every call site is caught.  A call becomes a span (name, start, end,
parent, run id) kept in memory; self time is a span's duration minus the
time covered by its child spans.

Scalar helpers called once per field element (FieldTower methods and the
incremental row containers) are too frequent for one span each: they are
counted, and only the outermost call of a nest is timed, with its time
charged to its layer and removed from the enclosing span's self time.  The
random-integer draw is not wrapped at all; its time stays with its caller.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import sys
from array import array
from time import perf_counter_ns

LAYERS = ("field", "linalg", "bitkernel", "construction", "verify", "codes", "runner", "reports", "cli")

AGGREGATED = {"field.FieldTower", "linalg.BitRows", "linalg.IdxRows"}
UNWRAPPED = {"linalg.rand_below"}

BUILDERS = {
    "construction.family_subspace",
    "construction.pseudoregulus_subspace",
    "construction.line_control_subspace",
    "construction.direct_sum",
    "construction.explicit_system",
    "construction.system_from_desc",
}
VERDICTS = {"verify.verify_h_scattered", "verify.verify_evasive", "verify.max_weight_search"}
SWEEP_KINDS = {"ExhaustiveSweep": "exhaustive", "SpanSweep": "span", "SampledSweep": "sampled"}

# Each elimination step of a packed GF(2) row reads two 64-bit words and
# writes one.
BYTES_PER_WORD_OP = 24


class Tracer:
    def __init__(self):
        self.enabled = False
        self.run_id = 0
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.layer_of: list[int] = []
        self.calls = array("q")
        self.incl_ns = array("q")
        self.self_ns = array("q")
        self.agg_ns = array("q", [0] * len(LAYERS))
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("i")
        self.span_run = array("i")
        self.stack: list[list[int]] = []  # [span index, child ns]
        self.agg_depth = 0
        self.open = array("i")  # open spans per name
        self.counts = {
            "sample_rref": 0,
            "matrices": 0,
            "word_ops": 0,
            "census_tuples": 0,
            "census_ns": 0,
            "build_ns": 0,
            "report_bytes": 0,
            "verdict_checked": 0,
            "witness_ns": 0,
        }
        self.units = {kind: [0, 0] for kind in SWEEP_KINDS.values()}  # [units, ns]
        self.last_sweep_end = 0

    # --- registration ---

    def _id(self, name: str) -> int:
        nid = len(self.names)
        self.names.append(name)
        self.ids[name] = nid
        self.layer_of.append(LAYERS.index(name.split(".")[0]))
        for arr in (self.calls, self.incl_ns, self.self_ns):
            arr.append(0)
        self.open.append(0)
        return nid

    def install(self):
        """Wrap every public function and method of the rankscatter modules."""
        modules = [importlib.import_module(f"rankscatter.{layer}") for layer in LAYERS]
        sites = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "rankscatter" and m]
        for layer, mod in zip(LAYERS, modules):
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                if name in UNWRAPPED:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self._wrap(name, obj, name in AGGREGATED)
                    for site in sites:
                        for key, val in list(vars(site).items()):
                            if val is obj:
                                setattr(site, key, wrapped)
                elif inspect.isclass(obj):
                    self._wrap_class(name, obj, name in AGGREGATED)

    def _wrap_class(self, name, cls, aggregated):
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            full = f"{name}.{attr}"
            if isinstance(member, (classmethod, staticmethod)):
                setattr(cls, attr, type(member)(self._wrap(full, member.__func__, aggregated)))
            elif inspect.isfunction(member):
                setattr(cls, attr, self._wrap(full, member, aggregated))

    def _wrap(self, name, fn, aggregated):
        nid = self._id(name)
        if aggregated:
            return self._aggregated(nid, fn)
        return self._span(nid, fn, self._hook(name))

    def _aggregated(self, nid, fn):
        tr = self
        lid = self.layer_of[nid]
        calls = self.calls

        def wrapper(*args, **kwargs):
            if not tr.enabled:
                return fn(*args, **kwargs)
            calls[nid] += 1
            if tr.agg_depth:
                return fn(*args, **kwargs)
            tr.agg_depth = 1
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter_ns() - t0
                tr.agg_depth = 0
                tr.agg_ns[lid] += dur
                if tr.stack:
                    tr.stack[-1][1] += dur

        wrapper.__wrapped__ = fn
        return wrapper

    def _span(self, nid, fn, hook):
        tr = self

        def wrapper(*args, **kwargs):
            if not tr.enabled or tr.agg_depth:
                if tr.enabled:
                    tr.calls[nid] += 1
                return fn(*args, **kwargs)
            idx = len(tr.span_start)
            stack = tr.stack
            tr.span_name.append(nid)
            tr.span_parent.append(stack[-1][0] if stack else -1)
            tr.span_run.append(tr.run_id)
            tr.span_end.append(0)
            frame = [idx, 0]
            stack.append(frame)
            tr.open[nid] += 1
            t0 = perf_counter_ns()
            tr.span_start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                tr.open[nid] -= 1
                stack.pop()
                tr.span_end[idx] = t1
                dur = t1 - t0
                tr.calls[nid] += 1
                tr.incl_ns[nid] += dur
                tr.self_ns[nid] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if hook is not None:
                hook(args, result, t0, t1)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # --- per-function counters read from arguments and results ---

    def _hook(self, name):
        c = self.counts
        short = name.split(".")[-1]
        if name == "linalg.rref":
            def hook(args, result, t0, t1):
                if self.open_count("linalg.sample_subspace"):
                    c["sample_rref"] += 1
            return hook
        if name == "bitkernel.batch_rank":
            def hook(args, result, t0, t1):
                rows = args[0]
                if rows:
                    b = int(rows[0].shape[0])
                    c["matrices"] += b
                    c["word_ops"] += b * len(rows) * (len(rows) - 1) // 2
            return hook
        if name == "bitkernel.reduce_static":
            def hook(args, result, t0, t1):
                rows, basis = args[0], args[1]
                if rows:
                    c["word_ops"] += int(rows[0].shape[0]) * len(rows) * len(basis)
            return hook
        if name == "construction.scan_admissible":
            def hook(args, result, t0, t1):
                c["census_tuples"] += result["tuples_checked"]
                c["census_ns"] += t1 - t0
            return hook
        if name in BUILDERS:
            def hook(args, result, t0, t1):
                if not any(self.open_count(b) for b in BUILDERS):
                    c["build_ns"] += t1 - t0
            return hook
        if name == "reports.write_report":
            def hook(args, result, t0, t1):
                c["report_bytes"] += len(result.encode())
            return hook
        if name == "runner.run_sweep":
            def hook(args, result, t0, t1):
                self.last_sweep_end = t1
            return hook
        if name in VERDICTS:
            def hook(args, result, t0, t1):
                c["verdict_checked"] += result[2] if isinstance(result, tuple) else result.checked
                if self.last_sweep_end > t0:
                    c["witness_ns"] += t1 - self.last_sweep_end
            return hook
        if short == "run_units":
            kind = SWEEP_KINDS.get(name.split(".")[1])
            if kind is None:
                return None
            acc = self.units[kind]

            def hook(args, result, t0, t1):
                acc[0] += result.checked
                acc[1] += t1 - t0
            return hook
        return None

    def open_count(self, name: str) -> int:
        nid = self.ids.get(name)
        return 0 if nid is None else self.open[nid]

    # --- results ---

    def calls_of(self, name: str) -> int:
        nid = self.ids.get(name)
        return 0 if nid is None else self.calls[nid]

    def incl_of(self, name: str) -> float:
        nid = self.ids.get(name)
        return 0.0 if nid is None else self.incl_ns[nid] / 1e9

    def _self_of(self, name: str) -> float:
        nid = self.ids.get(name)
        return 0.0 if nid is None else self.self_ns[nid] / 1e9

    def layer_self(self) -> dict[str, float]:
        out = {layer: self.agg_ns[i] / 1e9 for i, layer in enumerate(LAYERS)}
        for nid, lid in enumerate(self.layer_of):
            out[LAYERS[lid]] += self.self_ns[nid] / 1e9
        return out

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of the traced round that took wall_s seconds."""
        c = self.counts
        layer = self.layer_self()
        field_calls = sum(self.calls[i] for i, lid in enumerate(self.layer_of) if LAYERS[lid] == "field")
        samples = self.calls_of("linalg.sample_subspace")
        rank_s = self.incl_of("bitkernel.batch_rank")
        m = {
            "field.calls": field_calls,
            "field.mul_calls": self.calls_of("field.FieldTower.mul"),
            "field.self_s": layer["field"],
            "field.ops_per_s": _rate(field_calls, layer["field"]),
            "linalg.sample_calls": samples,
            "linalg.sample_redraws": c["sample_rref"] - samples,
            "linalg.samples_per_s": _rate(samples, self.incl_of("linalg.sample_subspace")),
            "linalg.rref_calls": self.calls_of("linalg.rref"),
            "linalg.reduce_row_calls": self.calls_of("linalg.FqSubspace.reduce_row"),
            "linalg.element_calls": self.calls_of("linalg.FqSubspace.element"),
            "linalg.self_s": layer["linalg"],
            "bitkernel.batch_rank_calls": self.calls_of("bitkernel.batch_rank"),
            "bitkernel.matrices": c["matrices"],
            "bitkernel.matrices_per_s": _rate(c["matrices"], rank_s),
            "bitkernel.reduce_static_calls": self.calls_of("bitkernel.reduce_static"),
            "bitkernel.word_ops": c["word_ops"],
            "bitkernel.bytes_computed": c["word_ops"] * BYTES_PER_WORD_OP,
            "construction.build_s": c["build_ns"] / 1e9,
            "construction.census_tuples": c["census_tuples"],
            "construction.census_tuples_per_s": _rate(c["census_tuples"], c["census_ns"] / 1e9),
        }
        for kind, (units, ns) in self.units.items():
            m[f"verify.{kind}.units"] = units
            m[f"verify.{kind}.units_per_s"] = _rate(units, ns / 1e9)
        m.update({
            "verify.checked": c["verdict_checked"],
            "verify.self_s": layer["verify"],
            "verify.witness_s": c["witness_ns"] / 1e9,
            "codes.profile_calls": self.calls_of("codes.generalized_weights"),
            "codes.dual_pct": _pct(self.incl_of("codes.dual_code"), wall_s),
            "runner.chunks": sum(self.calls[i] for i, n in enumerate(self.names) if n.endswith(".run_units")),
            "runner.overhead_s": self._self_of("runner.run_sweep"),
            "reports.write_s": self.incl_of("reports.write_report"),
            "reports.report_bytes": c["report_bytes"],
            "cli.self_s": layer["cli"],
        })
        for name in LAYERS:
            m[f"{name}.self_pct"] = _pct(layer[name], wall_s)
        m["trace.spans"] = len(self.span_start)
        return m

    def write_spans(self, path: str):
        """All spans as gzip'd CSV: index, name, start and end in ns from the
        first span, parent index (-1 for a root), run id."""
        base = self.span_start[0] if self.span_start else 0
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("index,name,start_ns,end_ns,parent,run\n")
            names = self.names
            for i in range(len(self.span_start)):
                f.write(
                    f"{i},{names[self.span_name[i]]},{self.span_start[i] - base},"
                    f"{self.span_end[i] - base},{self.span_parent[i]},{self.span_run[i]}\n"
                )


def _rate(count, seconds):
    return count / seconds if seconds > 0 else 0.0


def _pct(part, whole):
    return 100.0 * part / whole if whole > 0 else 0.0
