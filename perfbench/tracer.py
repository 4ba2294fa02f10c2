"""Per-layer tracing of heckelat, recorded from outside the program.

``Tracer.install`` wraps the public functions of each layer module, and the
public methods of its classes, with timing wrappers; ``uninstall`` puts the
originals back. Module-level names are replaced in every heckelat module that
imported them, so calls between layers go through the wrappers as well.

Two kinds of wrapper exist. A *span* target records one span per call: name,
start, end, parent span and task id. A *leaf* target is too frequent for that
(Q(q) arithmetic, linear algebra, memoised global values, simplex calls): its
calls are aggregated per parent span into a count and a time. A span target
called inside a leaf call is treated as a leaf, so that spans form a tree and
each span knows the time its leaf descendants cover (``agg_s``).

A span's self time is its duration minus the time its child spans cover and
minus ``agg_s`` (``self_times``). A layer's self time is the self time of its
spans plus that of its leaf calls. Time spent computing the tracer's own ratios
(``before``/``after`` hooks) is counted as covered, so it lands in no layer.
"""

from __future__ import annotations

import itertools
import json
import statistics
import sys
import time
from collections import defaultdict


def _monomial(den) -> bool:
    return sum(1 for c in den if c) == 1


def _ratfunc_parts(x):
    """(num, den) of a RatFunc, or of an int/Fraction operand as RatFunc would coerce it."""
    if hasattr(x, "den"):
        return x.num, x.den
    den = getattr(x, "denominator", 1)
    return (), (den,)


def _qfield_mul(tr, args, kwargs):
    a, b = _ratfunc_parts(args[0]), _ratfunc_parts(args[1])
    if a[1] == (1,) and b[1] == (1,):
        tr.counts["qfield.mul.poly"] += 1
    elif _monomial(a[1]) and _monomial(b[1]):
        tr.counts["qfield.mul.monomial_den"] += 1


def _qfield_add(tr, args, kwargs):
    if _ratfunc_parts(args[0])[1] == _ratfunc_parts(args[1])[1]:
        tr.counts["qfield.add.same_den"] += 1


def _qfield_result(tr, token, args, kwargs, result):
    if hasattr(result, "den"):
        deg = max(len(result.num), len(result.den)) - 1
        if deg > tr.counts["qfield.max_degree"]:
            tr.counts["qfield.max_degree"] = deg


def _cone_memo_before(tr, args, kwargs):
    return tr.calls("cones.in_cone")


def _cone_memo_after(tr, token, args, kwargs, result):
    if tr.calls("cones.in_cone") == token:
        tr.counts["hecke.cone_memo.hits"] += 1


def _convolve(tr, args, kwargs):
    """Pairs the Cauchy product visits, and those within the truncation height."""
    s1, s2 = args[0], args[1]
    two_rho = s1.par.two_rho_check_P
    h = min(s1.height, s2.height)
    h2 = sorted(sum(x * y for x, y in zip(two_rho, b)) for b in s2.coeffs)
    useful = 0
    for a in s1.coeffs:
        room = h - sum(x * y for x, y in zip(two_rho, a))
        useful += _count_at_most(h2, room)
    tr.counts["hecke.convolve.pairs"] += len(s1.coeffs) * len(s2.coeffs)
    tr.counts["hecke.convolve.useful"] += useful


def _count_at_most(sorted_values, bound):
    lo, hi = 0, len(sorted_values)
    while lo < hi:
        mid = (lo + hi) // 2
        if sorted_values[mid] <= bound:
            lo = mid + 1
        else:
            hi = mid
    return lo


def _apply(tr, args, kwargs):
    """Kernel terms the twisted shift convolution visits, and those landing on an output point."""
    _rd, par, series, phi = args[:4]
    out_points = args[4] if len(args) > 4 else kwargs.get("out_points")
    out_set = None if out_points is None else set(out_points)
    two_rho = par.two_rho_check_P
    max_h = phi.max_height()
    useful = 0
    for theta in series.coeffs:
        for p in phi.values:
            lam = tuple(a - b for a, b in zip(p, theta))
            if out_set is None:
                # the default output set is the certified part of the potential support
                useful += max_h - sum(x * y for x, y in zip(two_rho, lam)) <= series.height
            else:
                useful += lam in out_set
    tr.counts["intertwine.apply.terms"] += len(series.coeffs) * len(phi.values)
    tr.counts["intertwine.apply.useful"] += useful


def _value(tr, args, kwargs):
    """Whether a TFunction/GFunction value call consults the memo (inside the certified bounds), and hits it."""
    fn_obj, x = args[0], int(args[1])
    lower = getattr(fn_obj, "lower", 0)  # GFunction is indexed by n >= 0
    if (fn_obj.upper is None or x <= fn_obj.upper) and (lower is None or x >= lower):
        tr.counts["globalsl2.value.memo_lookups"] += 1
        if x in fn_obj._memo:
            tr.counts["globalsl2.value.memo_hits"] += 1


def _sweep_after(tr, token, args, kwargs, result):
    tr.counts["weylids.sweep.cases"] += result.cases


def _cli_after(tr, token, args, kwargs, result):
    tr.counts["cli.output_bytes"] += len(result[0].encode())


QFIELD_OPS = {
    "__add__": ("add", _qfield_add), "__radd__": ("add", _qfield_add),
    "__sub__": ("sub", None), "__rsub__": ("sub", None), "__neg__": ("neg", None),
    "__mul__": ("mul", _qfield_mul), "__rmul__": ("mul", _qfield_mul), "__pow__": ("pow", None),
    "__truediv__": ("div", None), "__rtruediv__": ("div", None), "__eq__": ("eq", None),
    "eval": ("eval", None), "double_exponents": ("double_exponents", None), "to_str": ("to_str", None),
}

# (module, class or None, attribute, op name, span?, before hook, after hook)
TARGETS = [
    *[("qfield", "RatFunc", attr, op, False, before, _qfield_result) for attr, (op, before) in QFIELD_OPS.items()],
    ("qfield", None, "q_pow", "q_pow", False, None, _qfield_result),
    ("qfield", None, "as_ratfunc", "as_ratfunc", False, None, None),
    *[("linalg", None, name, name, False, None, None) for name in (
        "fvec", "dot", "vadd", "vsub", "vscale", "vneg", "mat_vec", "mat_mul", "identity",
        "rank", "solve", "nullspace", "inverse", "primitive_vector")],
    ("rootdata", None, "load_root_datum", "load", True, None, None),
    ("rootdata", "RootDatum", "__init__", "datum", True, None, None),
    ("rootdata", "ParabolicType", "__init__", "parabolic", True, None, None),
    ("rootdata", "RootDatum", "subgroup", "subgroup", False, None, None),
    ("rootdata", "RootDatum", "dominant_representative", "dominant_representative", False, None, None),
    ("rootdata", None, "dominance_leq", "dominance_leq", False, None, None),
    ("cones", None, "nonneg_combination", "simplex", False, None, None),
    ("cones", None, "in_cone", "in_cone", False, None, None),
    ("cones", None, "cone_member", "cone_member", False, None, None),
    ("cones", None, "rays_from_inequalities", "dd", True, None, None),
    ("cones", None, "langlands_retraction", "retraction", True, None, None),
    ("cones", None, "bounded_above", "bounded_above", True, None, None),
    *[("cones", None, name, "certificate", True, None, None) for name in (
        "check_pos_U_intersection", "check_dual_cone", "check_pos_U_consequent", "check_retraction_property")],
    ("charring", "CharSeries", "__mul__", "mul", True, None, None),
    ("charring", "CharSeries", "invert", "invert", True, None, None),
    ("charring", None, "lambda_series", "lambda_series", True, None, None),
    ("charring", None, "sym_series", "sym_series", True, None, None),
    ("hecke", None, "in_support_cone", "cone_memo", False, _cone_memo_before, _cone_memo_after),
    ("hecke", None, "gk_mu", "gk_mu", True, None, None),
    ("hecke", None, "nu", "nu", True, None, None),
    ("hecke", None, "convolve", "convolve", True, _convolve, None),
    ("hecke", "GradedSeries", "invert", "invert", True, None, None),
    ("hecke", "GradedSeries", "to_basis", "to_basis", True, None, None),
    *[("hecke", None, name, "satake", True, None, None) for name in (
        "verify_series_reformulation", "verify_smu_snu_unit", "verify_alternating_sym_expansion")],
    ("intertwine", None, "apply_R_K", "apply", True, _apply, None),
    ("intertwine", None, "apply_R_inverse_K", "apply", True, _apply, None),
    ("intertwine", "SphericalFunction", "__init__", "function", True, None, None),
    ("padic", None, "mu_oracle", "oracle", True, None, None),
    ("padic", None, "iwasawa_ord", "iwasawa", False, None, None),
    ("weylids", None, "verify_vanishing_A", "sweep", True, None, _sweep_after),
    ("weylids", None, "verify_vanishing_B", "sweep", True, None, _sweep_after),
    ("weylids", None, "check_w_bullet_transversal", "transversal", True, None, None),
    *[("globalsl2", None, name, "op", True, None, None) for name in (
        "eis_B", "eis_B_minus", "ct_B", "ct_B_minus", "global_R", "global_R_inverse",
        "op_L", "op_L_inverse", "form_B")],
    *[("globalsl2", None, name, "pairing", True, None, None) for name in ("naive_pairing", "t_pairing")],
    *[("globalsl2", None, name, "verify", True, None, None) for name in (
        "verify_adjunction", "verify_functional_equation")],
    ("globalsl2", "TFunction", "value", "value", False, _value, None),
    ("globalsl2", "GFunction", "value", "value", False, _value, None),
    ("cli", None, "run_capture", "command", True, None, _cli_after),
]

LAYERS = ("qfield", "linalg", "rootdata", "cones", "charring", "hecke", "intertwine", "padic", "weylids", "globalsl2", "cli")


class _Frame:
    __slots__ = ("layer", "start", "child", "agg", "span", "anchor")


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._patches: list = []
        self.reset()

    def reset(self) -> None:
        self.task = None
        self.spans: list = []  # (id, name, start, end, parent id, task, agg_s)
        self.leaves = defaultdict(lambda: [0, 0.0, 0.0])  # (parent span id, name) -> [calls, self_s, total_s]
        self.entries = defaultdict(int)  # layer -> calls entering it from another layer
        self.name_calls = defaultdict(int)
        self.counts = defaultdict(int)
        self._stack: list = []
        self._ids = itertools.count(1)

    # -- recording ----------------------------------------------------------
    def calls(self, name: str) -> int:
        return self.name_calls[name]

    def _cover(self, parent, seconds: float) -> None:
        if parent is not None:
            parent.child += seconds
            if parent.span is not None:
                parent.agg += seconds

    def wrap(self, layer: str, op: str, fn, span: bool, before=None, after=None):
        name = f"{layer}.{op}"
        clock, stack = self.clock, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            token = None
            if before is not None:
                t = clock()
                token = before(self, args, kwargs)
                self._cover(parent, clock() - t)
            self.name_calls[name] += 1
            if parent is None or parent.layer != layer:
                self.entries[layer] += 1
            frame = _Frame()
            frame.layer, frame.child, frame.agg = layer, 0.0, 0.0
            if span and (parent is None or parent.span is not None):
                frame.span = frame.anchor = next(self._ids)
            else:
                frame.span = None
                frame.anchor = parent.anchor if parent is not None else None
            stack.append(frame)
            frame.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame.start
                if parent is not None:
                    parent.child += dur
                    if frame.span is None and parent.span is not None:
                        parent.agg += dur
                if frame.span is not None:
                    self.spans.append((frame.span, name, frame.start, end, parent.span if parent else None, self.task, frame.agg))
                else:
                    leaf = self.leaves[frame.anchor, name]
                    leaf[0] += 1
                    leaf[1] += dur - frame.child
                    leaf[2] += dur
            if after is not None:
                t = clock()
                after(self, token, args, kwargs, result)
                self._cover(parent, clock() - t)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installing -------------------------------------------------------
    def install(self, m) -> None:
        """Wrap every target in the modules of namespace m (see run.import_program)."""
        modules = [getattr(m, name) for name in LAYERS]
        pkg = sys.modules.get(modules[0].__package__)
        if pkg is not None:
            modules.append(pkg)
        for mod_name, cls_name, attr, op, span, before, after in TARGETS:
            mod = getattr(m, mod_name)
            if cls_name is not None:
                cls = getattr(mod, cls_name)
                original = cls.__dict__[attr]
                self._patches.append((cls, attr, original))
                setattr(cls, attr, self.wrap(mod_name, op, original, span, before, after))
                continue
            original = getattr(mod, attr)
            wrapped = self.wrap(mod_name, op, original, span, before, after)
            for other in modules:
                for key, value in list(vars(other).items()):
                    if value is original:
                        self._patches.append((other, key, original))
                        setattr(other, key, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------
    def metrics(self) -> dict:
        """The per-layer metrics of one traced pass, as {name: (value, unit)}."""
        return layer_metrics(self.spans, self.leaves, self.entries, self.counts)

    def write(self, path) -> None:
        """Spans of the last traced pass as JSON lines, then the aggregated calls per parent span."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, task, agg in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "task": task, "agg_s": agg}) + "\n")
            for (parent, name), (calls, self_s, total_s) in sorted(self.leaves.items(), key=lambda kv: (kv[0][0] or 0, kv[0][1])):
                fh.write(json.dumps({"parent": parent, "name": name, "calls": calls,
                                     "self_s": self_s, "total_s": total_s}) + "\n")


def _union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total, cur_start, cur_end = 0.0, None, None
    for s, e in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if e <= s:
            continue
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    """Self time of each span: its duration minus the time its child spans cover and its leaf time agg_s."""
    children = defaultdict(list)
    for sid, name, start, end, parent, task, agg in spans:
        if parent is not None:
            children[parent].append((start, end))
    return {
        sid: (end - start) - _union_length(children.get(sid, ()), start, end) - agg
        for sid, name, start, end, parent, task, agg in spans
    }


def _share(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, leaves, entries, counts) -> dict:
    """Every per-layer metric of BENCHMARK.json except trace.overhead_ratio, as {name: (value, unit)}."""
    self_by_name = defaultdict(float)
    calls = defaultdict(int)
    total_by_name = defaultdict(float)
    st = self_times(spans)
    for sid, name, start, end, parent, task, agg in spans:
        self_by_name[name] += st[sid]
        calls[name] += 1
    for (_, name), (n, self_s, total_s) in leaves.items():
        self_by_name[name] += self_s
        calls[name] += n
        total_by_name[name] += total_s
    layer_self = defaultdict(float)
    for name, s in self_by_name.items():
        layer_self[name.split(".")[0]] += s

    def c(name):
        return counts.get(name, 0)

    mul, add = calls["qfield.mul"], calls["qfield.add"]
    return {
        "qfield.self_s": (layer_self["qfield"], "s"),
        "qfield.ops": (entries.get("qfield", 0), "count"),
        "qfield.mul.calls": (mul, "count"),
        "qfield.add.calls": (add, "count"),
        "qfield.div.calls": (calls["qfield.div"], "count"),
        "qfield.mul.poly_share": (_share(c("qfield.mul.poly"), mul), "ratio"),
        "qfield.mul.monomial_den_share": (_share(c("qfield.mul.monomial_den"), mul), "ratio"),
        "qfield.add.same_den_share": (_share(c("qfield.add.same_den"), add), "ratio"),
        "qfield.max_degree": (c("qfield.max_degree"), "count"),
        "hecke.self_s": (layer_self["hecke"], "s"),
        "hecke.gk_mu.calls": (calls["hecke.gk_mu"], "count"),
        "hecke.invert.calls": (calls["hecke.invert"], "count"),
        "hecke.convolve.calls": (calls["hecke.convolve"], "count"),
        "hecke.convolve.useful_share": (_share(c("hecke.convolve.useful"), c("hecke.convolve.pairs")), "ratio"),
        "hecke.cone_memo.hit_ratio": (_share(c("hecke.cone_memo.hits"), calls["hecke.cone_memo"]), "ratio"),
        "charring.self_s": (layer_self["charring"], "s"),
        "charring.mul.calls": (calls["charring.mul"], "count"),
        "charring.invert.calls": (calls["charring.invert"], "count"),
        "intertwine.self_s": (layer_self["intertwine"], "s"),
        "intertwine.apply.calls": (calls["intertwine.apply"], "count"),
        "intertwine.apply.terms": (c("intertwine.apply.terms"), "count"),
        "intertwine.apply.useful_share": (_share(c("intertwine.apply.useful"), c("intertwine.apply.terms")), "ratio"),
        "globalsl2.self_s": (layer_self["globalsl2"], "s"),
        "globalsl2.op.calls": (calls["globalsl2.op"], "count"),
        "globalsl2.value.calls": (calls["globalsl2.value"], "count"),
        "globalsl2.value.memo_hit_ratio": (
            _share(c("globalsl2.value.memo_hits"), c("globalsl2.value.memo_lookups")), "ratio"),
        "cones.self_s": (layer_self["cones"], "s"),
        "cones.simplex.calls": (calls["cones.simplex"], "count"),
        "cones.simplex.self_s": (self_by_name["cones.simplex"], "s"),
        "cones.dd.calls": (calls["cones.dd"], "count"),
        "cones.dd.self_s": (self_by_name["cones.dd"], "s"),
        "cones.retraction.calls": (calls["cones.retraction"], "count"),
        "cones.retraction.self_s": (self_by_name["cones.retraction"], "s"),
        "linalg.self_s": (layer_self["linalg"], "s"),
        "linalg.calls": (entries.get("linalg", 0), "count"),
        "weylids.self_s": (layer_self["weylids"], "s"),
        "weylids.sweep.cases": (c("weylids.sweep.cases"), "count"),
        "weylids.transversal.calls": (calls["weylids.transversal"], "count"),
        "padic.self_s": (layer_self["padic"], "s"),
        "padic.oracle.calls": (calls["padic.oracle"], "count"),
        "padic.iwasawa.calls": (calls["padic.iwasawa"], "count"),
        "padic.iwasawa_per_s": (_share(calls["padic.iwasawa"], total_by_name["padic.iwasawa"]), "1/s"),
        "rootdata.self_s": (layer_self["rootdata"], "s"),
        "rootdata.load.calls": (calls["rootdata.load"], "count"),
        "rootdata.parabolic.calls": (calls["rootdata.parabolic"], "count"),
        "rootdata.parabolic.self_s": (self_by_name["rootdata.parabolic"], "s"),
        "cli.self_s": (layer_self["cli"], "s"),
        "cli.commands": (calls["cli.command"], "count"),
        "cli.output_bytes": (c("cli.output_bytes"), "bytes"),
        "trace.spans": (len(spans), "count"),
    }


def median_metrics(per_pass: list) -> dict:
    """Median of each metric over the traced passes, in the benchmark's output form."""
    return {
        name: {"value": statistics.median(p[name][0] for p in per_pass), "unit": unit}
        for name, (_, unit) in per_pass[0].items()
    }


def scale_times(metrics: dict, speed: float) -> None:
    """Scale the times (unit s) and rates (unit 1/s) of median_metrics' output to the reference host speed.

    speed is CALIBRATION_REF_S over the calibration reading, as in run.PassResult.speed.
    """
    for entry in metrics.values():
        if entry["unit"] == "s":
            entry["value"] *= speed
        elif entry["unit"] == "1/s":
            entry["value"] /= speed
