"""Span tracing of liembs from the outside, and the per-layer numbers it gives.

Every cross-module call inside ``liembs`` is a module-global lookup made at
call time, so replacing a name in the *calling* module's namespace puts a
span around exactly the calls that module makes. Model methods are wrapped
on each public model class. Spans (name, parent, start, end, tag, error)
stay in memory and are written once, at the end of the run.

A name that no longer exists (after a refactor) is recorded as missing and
its metrics are left out of the result instead of failing the run.
"""

import importlib
import inspect
import time
from array import array

import numpy as np

ROTMAPS_KERNELS = (
    "quat_mul",
    "exp_sp1",
    "rodrigues_to_quat",
    "bch_so3",
    "compose_axisangle_rodrigues",
    "dexp_so3",
    "cay_so3",
    "quat_to_rotmat",
    "exp_so3",
)
MODEL_METHODS = ("forces", "constraints", "jacobian", "adotv", "energy")

# (module whose global is replaced, global name, span name)
WRAPS = (
    *(("liembs.lgt", k, f"rotmaps.{k}") for k in ROTMAPS_KERNELS),
    ("liembs.dynamics", "combo_dpsi_inv", "motiongroups.dpsi_inv"),
    ("liembs.dynamics", "apply_lgt_stacked", "lgt.apply_lgt_stacked"),
    ("liembs.integrate", "apply_lgt_stacked", "lgt.apply_lgt_stacked"),
    ("liembs.lgt", "apply_lgt", "lgt.apply_lgt"),
    ("liembs.lgt", "alpha_map", "lgt.alpha_map"),
    ("liembs.models", "alpha_map", "models.alpha_map"),
    ("liembs.integrate", "local_rhs", "dynamics.local_rhs"),
    ("liembs.dynamics", "forward_dynamics", "dynamics.forward_dynamics"),
    ("liembs.integrate", "forward_dynamics", "dynamics.forward_dynamics"),
    ("liembs.dynamics", "solve_kkt", "dynamics.solve_kkt"),
    ("liembs.integrate", "constraint_residuals", "dynamics.constraint_residuals"),
    ("liembs.integrate", "project", "integrate.project"),
    ("liembs.integrate", "integrate", "integrate.integrate"),
    ("liembs.cli", "integrate", "integrate.integrate"),
    ("liembs.cli", "main", "cli.main"),
    ("liembs.cli", "load_scenario", "cli.load_scenario"),
)

# Children of an integrate() span that begin a time step; whatever the span
# runs before the first of them (validation, consistency check, record 0)
# is per-call prologue and is kept out of the per-step numbers.
_STEP_STARTS = ("dynamics.local_rhs", "dynamics.forward_dynamics")

REF_COMBO = "1a"


class Tracer:
    """Wraps the names in WRAPS while installed and records one span per call.

    ``set_tag`` labels the spans that follow (the benchmark sets the scheme
    of the segment it runs, or "cli" around an in-process CLI call).
    """

    def __init__(self):
        self.span_names = []
        self._name_ids = {}
        self.tags = []
        self._tag_ids = {}
        self._tag = array("b", [0])
        self._stack = [-1]
        self.name = array("h")
        self.parent = array("i")
        self.tag_of = array("b")
        self.start = array("q")
        self.end = array("q")
        self.errors = array("i")
        self.missing = []
        self._originals = []
        self._wrappers = self._build()

    def set_tag(self, tag):
        if tag not in self._tag_ids:
            self._tag_ids[tag] = len(self.tags)
            self.tags.append(tag)
        self._tag[0] = self._tag_ids[tag]

    def _span_id(self, span):
        if span not in self._name_ids:
            self._name_ids[span] = len(self.span_names)
            self.span_names.append(span)
        return self._name_ids[span]

    def _wrap(self, fn, nid):
        name, parent, tag_of, start, end = (
            self.name, self.parent, self.tag_of, self.start, self.end
        )
        stack, tag, errors, clock = self._stack, self._tag, self.errors, time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(start)
            name.append(nid)
            parent.append(stack[-1])
            tag_of.append(tag[0])
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                errors.append(idx)
                raise
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def _build(self):
        """(owner, attribute, wrapper) for every name that exists."""
        out = []
        for module_name, attr, span in WRAPS:
            owner = _module(module_name)
            fn = getattr(owner, attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            out.append((owner, attr, self._wrap(fn, self._span_id(span))))
        models = _module("liembs.models")
        classes = [
            cls
            for cname, cls in (vars(models).items() if models else ())
            if inspect.isclass(cls)
            and not cname.startswith("_")
            and cls.__module__ == models.__name__
            and hasattr(cls, "forces")
        ]
        if not classes:
            self.missing.append("liembs.models model classes")
        for cls in classes:
            for method in MODEL_METHODS:
                fn = getattr(cls, method, None)
                if fn is None:
                    self.missing.append(f"{cls.__name__}.{method}")
                    continue
                out.append((cls, method, self._wrap(fn, self._span_id(f"models.{method}"))))
        return out

    def install(self):
        self._originals = [
            (owner, attr, owner.__dict__.get(attr)) for owner, attr, _ in self._wrappers
        ]
        for owner, attr, wrapper in self._wrappers:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._originals):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._originals = []

    def arrays(self):
        """The spans as numpy views; valid while no further span is recorded."""
        n = len(self.end)
        return {
            "name": np.frombuffer(self.name, dtype=np.int16),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "tag": np.frombuffer(self.tag_of, dtype=np.int8),
            "start": np.frombuffer(self.start, dtype=np.int64),
            "end": np.frombuffer(self.end, dtype=np.int64),
            "error": np.isin(np.arange(n), np.frombuffer(self.errors, dtype=np.int32)),
        }

    def save(self, path):
        np.savez_compressed(
            path,
            span_names=np.array(self.span_names),
            tags=np.array(self.tags),
            **self.arrays(),
        )

    def metrics(self, traced_steps, combos):
        """Per-layer metrics, and per-step calls and self time of every span name.

        traced_steps maps a tag to the steps its traced segments ran.
        Per-function numbers are taken over the combo-1a segments; the
        rotmaps kernels differ by combo, so theirs are averaged over the
        eight combos.
        """
        return _analyse(self, self.arrays(), traced_steps, combos)


def _module(name):
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


def _analyse(tracer, a, traced_steps, combos):
    n = a["name"].size
    idx = np.arange(n)
    ids = {s: i for i, s in enumerate(tracer.span_names)}
    tag_ids = {t: i for i, t in enumerate(tracer.tags)}
    name, parent, tag = a["name"], a["parent"], a["tag"]
    dur = (a["end"] - a["start"]).astype(float)
    has_parent = parent >= 0
    self_ns = dur - np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)

    def is_(span):
        return name == ids[span] if span in ids else np.zeros(n, bool)

    # The nearest enclosing integrate() span of every span, and its prologue.
    is_integ = is_("integrate.integrate")
    root = np.where(is_integ, idx, -1)
    cur = parent.copy()
    while True:
        open_ = (root < 0) & (cur >= 0)
        if not open_.any():
            break
        hit = open_ & is_integ[np.clip(cur, 0, None)]
        root[hit] = cur[hit]
        cur[hit] = -1
        walk = open_ & ~hit
        cur[walk] = parent[cur[walk]]
    step_start = a["end"].copy()
    starts_step = np.zeros(n, bool)
    for span in _STEP_STARTS:
        starts_step |= is_(span)
    starts_step &= has_parent & is_integ[np.clip(parent, 0, None)]
    np.minimum.at(step_start, parent[starts_step], a["start"][starts_step])
    in_prologue = (root >= 0) & (root != idx) & (a["start"] < step_start[np.clip(root, 0, None)])
    # integrate()'s own self time inside its step loop.
    loop_child = has_parent & is_integ[np.clip(parent, 0, None)] & ~in_prologue
    loop_self = (a["end"] - step_start).astype(float) - np.bincount(
        parent[loop_child], weights=dur[loop_child], minlength=n
    )
    self_ns = np.where(is_integ, loop_self, self_ns)

    def tag_mask(tags):
        wanted = [tag_ids[t] for t in tags if t in tag_ids]
        return np.isin(tag, wanted) & ~in_prologue

    def steps(tags):
        return sum(traced_steps.get(t, 0) for t in tags)

    out = {}
    ref = tag_mask([REF_COMBO])
    ref_steps = steps([REF_COMBO])

    def per_step(span, time=True):
        if span not in ids or ref_steps == 0:
            return
        sel = ref & is_(span)
        out[f"{span}.calls_per_step"] = float(sel.sum()) / ref_steps
        if time:
            out[f"{span}.self_us_per_step"] = float(self_ns[sel].sum()) / 1e3 / ref_steps

    def parent_is(span):
        return has_parent & is_(span)[np.clip(parent, 0, None)]

    # Kernel use differs by combo: average the per-step numbers of the eight
    # combos, so the mix of segments a run happened to trace does not matter.
    kernels = [f"rotmaps.{k}" for k in ROTMAPS_KERNELS if f"rotmaps.{k}" in ids]
    ran = [c for c in combos if steps([c])]
    if kernels and ran:
        totals = {}
        for c in ran:
            mask, n_steps = tag_mask([c]), steps([c])
            for k in kernels:
                sel = mask & is_(k)
                for key, value in (
                    (f"{k}.calls_per_step", float(sel.sum())),
                    ("rotmaps.calls_per_step", float(sel.sum())),
                    ("rotmaps.self_us_per_step", float(self_ns[sel].sum()) / 1e3),
                ):
                    totals[key] = totals.get(key, 0.0) + value / n_steps / len(ran)
        out.update(totals)
    for span in (
        "motiongroups.dpsi_inv",
        "lgt.apply_lgt_stacked",
        "lgt.apply_lgt",
        "lgt.alpha_map",
        "models.alpha_map",
        "models.forces",
        "models.energy",
        "dynamics.local_rhs",
        "dynamics.solve_kkt",
    ):
        per_step(span)
    for span in ("models.constraints", "models.jacobian", "models.adotv", "integrate.project"):
        per_step(span, time=False)
    if "lgt.apply_lgt_stacked" in ids:
        for c in combos:
            if steps([c]):
                sel = tag_mask([c]) & is_("lgt.apply_lgt_stacked")
                out[f"lgt.step_us.{c}"] = float(dur[sel].sum()) / 1e3 / steps([c])
    if ref_steps:
        models = np.isin(name, [i for s, i in ids.items() if s.startswith("models.")])
        out["models.self_us_per_step"] = float(self_ns[ref & models].sum()) / 1e3 / ref_steps
        if "integrate.integrate" in ids:
            out["integrate.self_us_per_step"] = (
                float(self_ns[ref & is_integ].sum()) / 1e3 / ref_steps
            )
        if "integrate.project" in ids and "lgt.apply_lgt_stacked" in ids:
            gn = ref & is_("lgt.apply_lgt_stacked") & parent_is("integrate.project")
            out["integrate.project.gn_iters_per_step"] = float(gn.sum()) / ref_steps
        if "integrate.integrate" in ids:
            record = ref & parent_is("integrate.integrate") & (
                is_("dynamics.constraint_residuals") | is_("models.energy")
            )
            out["integrate.record.us_per_step"] = float(dur[record].sum()) / 1e3 / ref_steps
    detail = {}
    if ref_steps:
        for span in tracer.span_names:
            sel = ref & is_(span)
            detail[span] = {
                "calls_per_step": float(sel.sum()) / ref_steps,
                "self_us_per_step": float(self_ns[sel].sum()) / 1e3 / ref_steps,
            }
    if "dynamics.solve_kkt" in ids:
        out["dynamics.solve_kkt.errors"] = float((a["error"] & is_("dynamics.solve_kkt")).sum())
    cli = tag_mask(["cli"])
    for span, metric, values in (
        ("cli.load_scenario", "cli.load_scenario.ms", dur),
        ("cli.main", "cli.self_ms", self_ns),
    ):
        sel = cli & is_(span)
        if sel.any():
            out[metric] = float(values[sel].mean()) / 1e6
    return out, detail
