"""Spans around calls into each larmour layer, installed from outside.

The tracer wraps public functions and methods of the modules under
``src/larmour/`` and rebinds every name that refers to them, including the
copies that ``from .x import y`` left in other larmour modules (for
example ``residue_maps.larmour_decompose`` and ``cli.larmour_decompose``).
Each wrapped call appends one span (name, start, end, parent, op id) to
in-memory arrays; nothing is written until ``write_spans`` runs at the end.
A few very hot or very small functions are counted rather than spanned.

Self time of a span is its duration minus the time covered by its direct
child spans.  Calls are single-threaded and nested, so the children of a
span never overlap.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array

from workloads import entry_key

# (module, attribute path, kind, workloads that must record it)
ALL = ("boundary-fresh", "witt-reuse", "deep-valuation", "cli-documents")
LIB = ("boundary-fresh", "witt-reuse", "deep-valuation")
TARGETS = (
    ("valued_field", "LaurentElem.__mul__", "span", ALL),
    ("valued_field", "LaurentElem.inv", "span", ALL),
    ("valued_field", "LaurentElem.__init__", "count", ALL),
    ("quaternion", "QuatElem.__mul__", "span", ALL),
    ("quaternion", "QuatElem.inv", "span", ALL),
    ("quaternion", "normalize_presentation", "span", ALL),
    ("quad_forms", "springer_boundary", "span", ALL),
    ("quad_forms", "is_anisotropic_quad_K", "span", ALL),
    ("involutions", "classify_case", "span", ALL),
    ("involutions", "normalize_involution", "span", ("cli-documents",)),
    ("involutions", "apply_pattern", "count", ALL),
    ("hermitian", "larmour_decompose", "span", ALL),
    ("hermitian", "normalize_values", "span", ALL),
    ("hermitian", "scale_entry", "span", LIB),
    ("hermitian", "hensel_lift_isometry", "span", LIB),
    ("hermitian", "simplify_unramified_entry", "span", LIB),
    ("hermitian", "simplify_ramified_entry", "span", LIB),
    ("hermitian", "IsometryWitness.verify", "span", ALL),
    ("hermitian", "IsometryWitness.residual_half_units", "span", ALL),
    ("residue_maps", "boundary", "span", ALL),
    ("residue_maps", "d0", "span", ALL),
    ("residue_maps", "d1", "span", LIB),
    ("residue_maps", "residue_witt_class", "span", ALL),
    ("residue_maps", "witt_equal", "span", ("witt-reuse", "cli-documents")),
    ("residue_maps", "is_anisotropic_herm", "span", ("witt-reuse",)),
    ("base_fields", "witt_class_quad", "span", ALL),
    ("base_fields", "witt_class_herm_quadext", "span", LIB),
    ("cli", "main", "span", ("cli-documents",)),
    ("cli", "run_command", "span", ("cli-documents",)),
    ("cli", "parse_problem", "span", ("cli-documents",)),
    ("cli", "build_problem", "span", ("cli-documents",)),
)

# per-layer metric -> unit, in the order they are reported
METRICS = {
    "valued_field.mul_calls_per_op": "count/op",
    "valued_field.mul_self_ms_per_op": "ms/op",
    "valued_field.elems_per_op": "count/op",
    "valued_field.inv_calls_per_op": "count/op",
    "valued_field.inv_self_ms_per_op": "ms/op",
    "quaternion.mul_calls_per_op": "count/op",
    "quaternion.mul_self_us_per_call": "us/call",
    "quaternion.inv_calls_per_op": "count/op",
    "quaternion.inv_self_ms_per_op": "ms/op",
    "quaternion.normalize_presentation_ms": "ms/call",
    "quad_forms.springer_ms": "ms/call",
    "hermitian.decompose_calls_per_op": "count/op",
    "hermitian.decompose_self_ms_per_op": "ms/op",
    "hermitian.scale_steps_per_entry": "count/entry",
    "hermitian.normalize_ms_per_op": "ms/op",
    "hermitian.lift_calls_per_op": "count/op",
    "hermitian.lift_iters_per_lift": "count/lift",
    "hermitian.lift_self_ms_per_op": "ms/op",
    "hermitian.lift_skip_ratio": "ratio",
    "hermitian.verify_calls_per_op": "count/op",
    "hermitian.verify_ms_per_op": "ms/op",
    "hermitian.entry_repeat_ratio": "ratio",
    "involutions.classify_ms": "ms/call",
    "involutions.normalize_involution_ms": "ms/call",
    "involutions.apply_pattern_calls_per_op": "count/op",
    "residue_maps.boundary_self_ms_per_op": "ms/op",
    "residue_maps.d0_d1_ms_per_op": "ms/op",
    "residue_maps.witt_reduce_ms_per_op": "ms/op",
    "base_fields.witt_class_calls_per_op": "count/op",
    "base_fields.witt_class_ms_per_op": "ms/op",
    "cli.parse_ms_per_op": "ms/op",
    "cli.build_ms_per_op": "ms/op",
    "cli.command_ms_per_op": "ms/op",
    "cli.other_ms_per_op": "ms/op",
    "cli.envelope_bytes_per_op": "bytes/op",
    "trace.ops": "count",
    "trace.spans": "count",
    "trace.overhead_ratio": "ratio",
}


class Tracer:
    def __init__(self):
        # one span per index: name id, start, end, parent index, op id
        self.names = []
        self.span_name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.span_op = array("l")
        self.stack = []
        self.counts = {}
        self.setup_counts = {}
        self.op_id = -1  # -1 while set-up runs
        self.lift_iters = []
        self.entries_decomposed = 0
        self.entries_repeated = 0
        self._seen_entries = set()
        self._undo = []

    # -- wrappers ------------------------------------------------------------

    def _span(self, name, fn, before=None):
        code = len(self.names)
        self.names.append(name)
        names, starts, ends, parents, ops = self.span_name, self.start, self.end, self.parent, self.span_op
        stack, clock = self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            after = None
            if before is not None:
                args, kwargs, after = before(args, kwargs)
            idx = len(starts)
            names.append(code)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op_id)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = start
                stack.pop()
                if after is not None:
                    after()

        return wrapper

    def _count(self, name, fn):
        counts = self.counts
        counts[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _before_lift(self, args, kwargs):
        # read the iteration count from the public trace= list
        if kwargs.get("trace") is None and len(args) < 8:
            trace = []
            kwargs = dict(kwargs, trace=trace)
            return args, kwargs, lambda: self.lift_iters.append(len(trace))
        return args, kwargs, None

    def _before_decompose(self, args, kwargs):
        form = args[0] if args else kwargs["h"]
        if self.op_id >= 0:
            for u in form.entries:
                key = entry_key(u)
                self.entries_decomposed += 1
                if key in self._seen_entries:
                    self.entries_repeated += 1
                else:
                    self._seen_entries.add(key)
        return args, kwargs, None

    # -- install / remove ------------------------------------------------------

    def install(self):
        modules = [m for n, m in sys.modules.items() if n == "larmour" or n.startswith("larmour.")]
        for module_name, path, kind, _ in TARGETS:
            module = sys.modules[f"larmour.{module_name}"]
            name = f"{module_name}.{path}"
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(module, cls_name)
                orig = owner.__dict__[attr]
                wrapper = self._count(name, orig) if kind == "count" else self._span(name, orig)
                setattr(owner, attr, wrapper)
                self._undo.append((owner, attr, orig))
                continue
            orig = getattr(module, path)
            before = {"hensel_lift_isometry": self._before_lift,
                      "larmour_decompose": self._before_decompose}.get(path)
            wrapper = self._count(name, orig) if kind == "count" else self._span(name, orig, before)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, attr, wrapper)
                        self._undo.append((m, attr, orig))

    def remove(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def start_ops(self):
        """Counters from here on belong to ops, not to set-up."""
        self.setup_counts = dict(self.counts)

    # -- analysis ------------------------------------------------------------------

    def missing(self, workload: str) -> list:
        """Wrapped functions that recorded nothing on a workload meant to use them."""
        seen = {self.names[c] for c in set(self.span_name)}
        out = []
        for module_name, path, kind, expected in TARGETS:
            name = f"{module_name}.{path}"
            if workload not in expected:
                continue
            if (kind == "count" and not self.counts.get(name)) or (kind == "span" and name not in seen):
                out.append(name)
        return out

    def metrics(self, ops: int, envelope_bytes: int, overhead_ratio: float) -> dict:
        names, starts, ends, parents, span_ops = self.span_name, self.start, self.end, self.parent, self.span_op
        label = self.names
        total = len(starts)
        child = [0.0] * total
        for i in range(total):
            if parents[i] >= 0:
                child[parents[i]] += ends[i] - starts[i]
        # inclusive times of a group count each outermost call once (a
        # verify calls residual_half_units; Witt reducers call each other)
        group_of = {n: g for g, members in _GROUPS.items() for n in members}
        in_group = [None] * total  # the group an enclosing span belongs to
        calls, incl, self_t, outer = {}, {}, {}, {}
        setup_calls, setup_incl = {}, {}
        lift_parents, simplify = set(), []
        for i in range(total):
            name, dur, parent = label[names[i]], ends[i] - starts[i], parents[i]
            if parent >= 0:
                in_group[i] = in_group[parent] or group_of.get(label[names[parent]])
            if span_ops[i] < 0:
                setup_calls[name] = setup_calls.get(name, 0) + 1
                setup_incl[name] = setup_incl.get(name, 0.0) + dur
                continue
            if name == "hermitian.hensel_lift_isometry":
                lift_parents.add(parent)
            elif name.startswith("hermitian.simplify_"):
                simplify.append(i)
            calls[name] = calls.get(name, 0) + 1
            incl[name] = incl.get(name, 0.0) + dur
            self_t[name] = self_t.get(name, 0.0) + dur - child[i]
            group = group_of.get(name)
            if group is not None and in_group[i] != group:
                outer[group] = outer.get(group, 0.0) + dur
                outer[group + ".calls"] = outer.get(group + ".calls", 0) + 1

        n = max(ops, 1)
        op_counts = {k: v - self.setup_counts.get(k, 0) for k, v in self.counts.items()}

        def c(*keys):
            return sum(calls.get(k, 0) for k in keys)

        def ms_per_op(table, *keys):
            return 1e3 * sum(table.get(k, 0.0) for k in keys) / n

        def ms_per_call(*keys):
            k = sum(calls.get(x, 0) + setup_calls.get(x, 0) for x in keys)
            t = sum(incl.get(x, 0.0) + setup_incl.get(x, 0.0) for x in keys)
            return 1e3 * t / k if k else 0.0

        lmul, linv = "valued_field.LaurentElem.__mul__", "valued_field.LaurentElem.inv"
        qmul, qinv = "quaternion.QuatElem.__mul__", "quaternion.QuatElem.inv"
        lift = "hermitian.hensel_lift_isometry"
        parse, build = ms_per_op(incl, "cli.parse_problem"), ms_per_op(incl, "cli.build_problem")
        run_cmd, main = ms_per_op(incl, "cli.run_command"), ms_per_op(incl, "cli.main")
        lifts = len(self.lift_iters)
        return {
            "valued_field.mul_calls_per_op": c(lmul) / n,
            "valued_field.mul_self_ms_per_op": ms_per_op(self_t, lmul),
            "valued_field.elems_per_op": op_counts.get("valued_field.LaurentElem.__init__", 0) / n,
            "valued_field.inv_calls_per_op": c(linv) / n,
            "valued_field.inv_self_ms_per_op": ms_per_op(self_t, linv),
            "quaternion.mul_calls_per_op": c(qmul) / n,
            "quaternion.mul_self_us_per_call": 1e6 * self_t.get(qmul, 0.0) / max(c(qmul), 1),
            "quaternion.inv_calls_per_op": c(qinv) / n,
            "quaternion.inv_self_ms_per_op": ms_per_op(self_t, qinv),
            "quaternion.normalize_presentation_ms": ms_per_call("quaternion.normalize_presentation"),
            "quad_forms.springer_ms": ms_per_call("quad_forms.springer_boundary", "quad_forms.is_anisotropic_quad_K"),
            "hermitian.decompose_calls_per_op": c("hermitian.larmour_decompose") / n,
            "hermitian.decompose_self_ms_per_op": ms_per_op(self_t, "hermitian.larmour_decompose"),
            "hermitian.scale_steps_per_entry": c("hermitian.scale_entry") / max(self.entries_decomposed, 1),
            "hermitian.normalize_ms_per_op": ms_per_op(incl, "hermitian.normalize_values"),
            "hermitian.lift_calls_per_op": c(lift) / n,
            "hermitian.lift_iters_per_lift": sum(self.lift_iters) / lifts if lifts else 0.0,
            "hermitian.lift_self_ms_per_op": ms_per_op(self_t, lift),
            "hermitian.lift_skip_ratio": (
                sum(1 for i in simplify if i not in lift_parents) / len(simplify) if simplify else 0.0
            ),
            "hermitian.verify_calls_per_op": outer.get("verify.calls", 0) / n,
            "hermitian.verify_ms_per_op": ms_per_op(outer, "verify"),
            "hermitian.entry_repeat_ratio": self.entries_repeated / max(self.entries_decomposed, 1),
            "involutions.classify_ms": ms_per_call("involutions.classify_case"),
            "involutions.normalize_involution_ms": ms_per_call("involutions.normalize_involution"),
            "involutions.apply_pattern_calls_per_op": op_counts.get("involutions.apply_pattern", 0) / n,
            "residue_maps.boundary_self_ms_per_op": ms_per_op(self_t, "residue_maps.boundary"),
            "residue_maps.d0_d1_ms_per_op": ms_per_op(incl, "residue_maps.d0", "residue_maps.d1"),
            "residue_maps.witt_reduce_ms_per_op": ms_per_op(incl, "residue_maps.residue_witt_class"),
            "base_fields.witt_class_calls_per_op": outer.get("witt_class.calls", 0) / n,
            "base_fields.witt_class_ms_per_op": ms_per_op(outer, "witt_class"),
            "cli.parse_ms_per_op": parse,
            "cli.build_ms_per_op": build,
            "cli.command_ms_per_op": run_cmd - parse - build if run_cmd else 0.0,
            "cli.other_ms_per_op": main - run_cmd,
            "cli.envelope_bytes_per_op": envelope_bytes / n,
            "trace.ops": float(ops),
            "trace.spans": float(total),
            "trace.overhead_ratio": overhead_ratio,
        }

    def write_spans(self, path):
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt") as fh:
            fh.write("index\tparent\top\tname\tstart_us\tend_us\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.parent[i]}\t{self.span_op[i]}\t{self.names[self.span_name[i]]}\t"
                    f"{(self.start[i] - t0) * 1e6:.1f}\t{(self.end[i] - t0) * 1e6:.1f}\n"
                )


# groups of names whose nested calls are one unit of work
_GROUPS = {
    "verify": ("hermitian.IsometryWitness.verify", "hermitian.IsometryWitness.residual_half_units"),
    "witt_class": ("base_fields.witt_class_quad", "base_fields.witt_class_herm_quadext"),
}
