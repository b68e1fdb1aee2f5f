"""Layer spans recorded from outside the package.

``Tracer`` replaces each public function of the package's computational
modules (the layers) by a wrapper that records a span: its name, start,
end and parent.  The wrapper is put in place under every module attribute
that refers to the function, so calls between modules are seen too.
Spans stay in memory until the run ends; ``layer_metrics`` turns them into
the per-layer figures of ``BENCHMARK.json``.

``errors``, ``rng``, ``config`` and ``mechanisms`` are not layers: their time
counts in the layer that called them.  The one exception is a call count of
``eval_psi``/``eval_psi0`` as seen from ``flow`` (``flow.psi_evals``).
"""
from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

LAYERS = ("simulate", "conditioned", "flow", "immigration", "environment",
          "numerics", "longterm", "cli")

# private functions whose time the per-layer figures need on their own
EXTRA = {"conditioned": ("_build_u",)}

# simulator work is labelled by the kind of run it is
SIM_KINDS = ("feller", "feller_w2", "stable", "neveu", "cbibre")


@dataclass
class Span:
    name: str  # "<layer>.<function>"
    start: float
    end: float = 0.0
    parent: int = -1  # index into Tracer.spans, -1 for a root span
    work: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def package_modules(package):
    """Every module of ``package``, imported."""
    return [importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)]


class Tracer:
    """Wraps the layers' functions on ``install`` and restores them on
    ``uninstall``; use it as a context manager."""

    def __init__(self, package):
        self.modules = package_modules(package)
        self.spans: list[Span] = []
        self.psi_evals = 0
        self.originals: dict[str, object] = {}
        self._patches: list[tuple[object, str, object]] = []
        self._history: list[tuple[object, str, object]] = []
        self._local = threading.local()

    # -- installing -------------------------------------------------------

    def _targets(self):
        by_name = {m.__name__.rsplit(".", 1)[1]: m for m in self.modules}
        for layer in LAYERS:
            mod = by_name[layer]
            for name, fn in vars(mod).items():
                own = inspect.isfunction(fn) and fn.__module__ == mod.__name__
                if own and (not name.startswith("_") or name in EXTRA.get(layer, ())):
                    yield f"{layer}.{name}", fn

    def _patch(self, module, attr, value):
        self._patches.append((module, attr, getattr(module, attr)))
        self._history.append(self._patches[-1])
        setattr(module, attr, value)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for span_name, fn in self._targets():
            self.originals[span_name] = fn
            wrappers[id(fn)] = self._wrap(span_name, fn)
        for mod in self.modules:
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and id(val) in wrappers:
                    self._patch(mod, attr, wrappers[id(val)])
        flow = next(m for m in self.modules if m.__name__.endswith(".flow"))
        for attr in ("eval_psi", "eval_psi0"):
            self._patch(flow, attr, self._count_psi(getattr(flow, attr)))
        return self

    def uninstall(self):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def restored(self) -> bool:
        """True when every attribute ever replaced holds its original again."""
        return not self._patches and all(getattr(m, a) is f for m, a, f in self._history)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- recording --------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, span_name, fn):
        extract = WORK.get(span_name)
        sig = inspect.signature(fn) if extract else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            span = Span(span_name, time.perf_counter(), parent=stack[-1] if stack else -1)
            self.spans.append(span)
            stack.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if extract:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span.work = extract(self, bound.arguments, result)
            return result

        return wrapper

    def _count_psi(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.psi_evals += 1
            return fn(*args, **kwargs)

        return wrapper


# ---------------------------------------------------------------------------
# Work counts taken from call arguments and results
# ---------------------------------------------------------------------------


def _size(x):
    return int(np.size(x))


def _sim_work(tracer, a, batch):
    mech = type(a["mech"]).__name__
    imm = a["imm"]
    n_steps = int(round(a["T"] / a["cfg"].dt))
    n_paths = a["driving"][0].shape[0] if a["driving"] is not None else a["n_paths"]
    if imm is not None and not imm.trivial:
        kind = "cbibre"
    elif mech == "Feller":
        kind = "feller_w2" if a["workers"] > 1 else "feller"
    else:
        kind = mech.lower()
    return {"kind": kind, "path_steps": n_paths * n_steps,
            "exploded": int(np.isfinite(batch.t_inf).sum())}


def _flow_work(tracer, a, result):
    rows = np.atleast_2d(np.asarray(a["values"])).shape[0]
    segs = rows * (np.size(a["grid"]) - 1)
    return {"kind": "batch" if rows > 1 else "single", "segments": segs}


def _density_work(tracer, a, result):
    fast = tracer.originals["numerics.has_fast_kernel"](0.5 * (a["eta"] + 1.0))
    return {"kind": "fast" if fast else "fallback", "points": _size(a["x"])}


def _kernel_work(tracer, a, result):
    fast = tracer.originals["numerics.has_fast_kernel"](a["a"])
    n = _size(a["w"])
    return {"evals": n, "fallback_evals": 0 if fast else n}


def _env_paths_work(tracer, a, result):
    return {"path_steps": a["n_paths"] * a["n_steps"]}


def _exp_functional_work(tracer, a, result):
    shape = np.atleast_2d(np.asarray(a["values"])).shape
    return {"path_steps": shape[0] * (shape[1] - 1)}


WORK = {
    "simulate.simulate_cbbre_batch": _sim_work,
    "flow.solve_backward_batch": _flow_work,
    "environment.my_density_grid": _density_work,
    "environment.hw_kernel": lambda t, a, r: {"evals": _size(a["r"])},
    "environment.sample_env_paths": _env_paths_work,
    "environment.log_exp_functional": _exp_functional_work,
    "numerics.u_half": _kernel_work,
    "numerics.u_half_diff": _kernel_work,
    "conditioned.qprocess_weights": lambda t, a, r: {"weights": _size(a["z_values"])},
    "longterm.phi_eta_grid": lambda t, a, r: {"points": _size(a["v"])},
}


# ---------------------------------------------------------------------------
# Per-layer figures
# ---------------------------------------------------------------------------


def _rate(work, seconds):
    return work / seconds if seconds > 0 else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer figure except ``trace.overhead_s``."""
    spans = tracer.spans
    child_time = defaultdict(float)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.duration
    self_s = defaultdict(float)
    for i, s in enumerate(spans):
        self_s[s.layer] += s.duration - child_time[i]

    def total(names, key, kind=None):
        """(work, seconds) summed over the spans named in ``names`` that no
        other such span encloses."""
        names = (names,) if isinstance(names, str) else names
        work = secs = 0.0
        for s in spans:
            if s.name not in names or (kind and s.work.get("kind") != kind):
                continue
            if s.parent >= 0 and spans[s.parent].name in names:
                continue
            work += s.work.get(key, 0)
            secs += s.duration
        return work, secs

    out = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
    out["simulate.path_steps"] = total("simulate.simulate_cbbre_batch", "path_steps")[0]
    out["simulate.exploded_paths"] = total("simulate.simulate_cbbre_batch", "exploded")[0]
    for kind in SIM_KINDS:
        out[f"simulate.{kind}.path_steps_per_s"] = _rate(
            *total("simulate.simulate_cbbre_batch", "path_steps", kind))

    out["conditioned.u_build_s"] = sum(s.duration for s in spans
                                       if s.name == "conditioned._build_u")
    out["conditioned.weights_per_s"] = _rate(*total("conditioned.qprocess_weights", "weights"))

    out["flow.segments"] = total("flow.solve_backward_batch", "segments")[0]
    for kind in ("batch", "single"):
        out[f"flow.{kind}.segments_per_s"] = _rate(
            *total("flow.solve_backward_batch", "segments", kind))
    out["flow.psi_evals"] = tracer.psi_evals

    out["immigration.calls"] = sum(
        1 for s in spans if s.layer == "immigration"
        and (s.parent < 0 or spans[s.parent].layer != "immigration"))

    for kind in ("fast", "fallback"):
        out[f"environment.density.{kind}.points_per_s"] = _rate(
            *total("environment.my_density_grid", "points", kind))
    out["environment.hw_kernel.evals_per_s"] = _rate(*total("environment.hw_kernel", "evals"))
    out["environment.exp_functional.path_steps_per_s"] = _rate(
        *total("environment.log_exp_functional", "path_steps"))
    out["environment.env_paths.path_steps_per_s"] = _rate(
        *total("environment.sample_env_paths", "path_steps"))

    kernel = ("numerics.u_half", "numerics.u_half_diff")
    evals, kernel_s = total(kernel, "evals")
    out["numerics.u_half.evals"] = evals
    out["numerics.u_half.fallback_evals"] = total(kernel, "fallback_evals")[0]
    out["numerics.u_half.evals_per_s"] = _rate(evals, kernel_s)
    gexp = [i for i, s in enumerate(spans) if s.name == "numerics.gamma_power_expectation"]
    out["numerics.gamma_expectation.calls"] = len(gexp)
    out["numerics.gamma_expectation.self_s"] = sum(
        spans[i].duration - child_time[i] for i in gexp)

    out["longterm.phi_eta.points_per_s"] = _rate(*total("longterm.phi_eta_grid", "points"))
    return out


def spans_as_records(tracer: Tracer) -> list[dict]:
    return [{"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
             **({"work": s.work} if s.work else {})} for s in tracer.spans]
