"""Per-layer tracing of bhgap from outside the package.

The tracer replaces the module attributes that each layer's callers look
up, so nothing under ``src/`` changes.  A name brought in with ``from x
import y`` is wrapped in the importing module, where the call resolves: for
example ``bops.gamma2_boxed_dd`` is the wrap site of the layer reported as
``specfun.gamma2_boxed_dd``.

A span layer records calls and self time: its wall time minus the time of
the spans it encloses.  A counter layer records calls only, for functions
called tens of thousands of times per point (``dd`` arithmetic,
``scipy.integrate.quad``).  Stats stay in memory and are read at the end.
"""
from __future__ import annotations

import importlib
import time

# (reported name, module that holds the looked-up attribute, attribute, kind)
LAYERS = (
    ("specfun.gamma2_boxed_dd", "bops", "gamma2_boxed_dd", "span"),
    ("specfun.gamma2_boxed", "bops", "gamma2_boxed", "span"),
    ("dd.dd_exp", "dd", "dd_exp", "count"),
    ("dd.dd_pow", "dd", "dd_pow", "count"),
    ("bops._dd_gram", "bops", "_dd_gram", "span"),
    ("plinalg.dd_lu_det", "plinalg", "dd_lu_det", "span"),
    ("plinalg.dd_pfaffian", "plinalg", "dd_pfaffian", "span"),
    ("ensembles._pf_sign", "ensembles", "_pf_sign", "span"),
    ("ensembles._talbot_sum", "ensembles", "_talbot_sum", "span"),
    ("ensembles._xi_coefficients", "ensembles", "_xi_coefficients", "span"),
    ("bimoments.ubh_pf_element_rescaled", "ensembles", "ubh_pf_element_rescaled", "span"),
    ("specfun.gamma_upper_scaled", "bimoments", "gamma_upper_scaled", "span"),
    ("specfun.gamma2_diag_scaled", "bimoments", "gamma2_diag_scaled", "span"),
    ("specfun.quad", "specfun", "quad", "count"),
    ("plinalg.pfaffian", "plinalg", "pfaffian", "span"),
    ("flow.from_moments", "flow", "from_moments", "span"),
    ("flow.integrate", "flow", "integrate", "span"),
    ("flow.constraint_residuals", "flow", "constraint_residuals", "span"),
    ("flow._kernels_from_state", "flow", "_kernels_from_state", "span"),
    ("lax.build_lax", "lax", "build_lax", "span"),
)

# lru caches whose hit ratio is reported: (reported name, module, attribute)
CACHES = (
    ("specfun.gamma2_boxed_dd", "specfun", "gamma2_boxed_dd"),
    ("bops._dd_gram", "bops", "_dd_gram"),
)

# One Dormand-Prince step attempt evaluates the flow right-hand side seven
# times, and every evaluation calls flow._kernels_from_state once.
RHS_PER_STEP = 7


class Tracer:
    """Installs the layer wrappers, and restores the originals on ``close``."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.hifi_calls = 0
        self.steps_accepted = 0
        self.steps_rejected = 0
        self._stack: list[float] = []
        self._restore: list[tuple] = []
        self._caches: dict[str, tuple] = {}

    def span(self, name: str, fn):
        """Wrap fn so that each call adds to name's call count and self time."""
        self.calls.setdefault(name, 0)
        self.self_s.setdefault(name, 0.0)
        stack, clock, calls, self_s = self._stack, time.perf_counter, self.calls, self.self_s

        def wrapped(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                inner = stack.pop()
                calls[name] += 1
                self_s[name] += dur - inner
                if stack:
                    stack[-1] += dur

        return wrapped

    def _counter(self, name: str, fn):
        self.calls.setdefault(name, 0)
        calls = self.calls

        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    def _gram_hook(self, fn):
        def wrapped(*args, **kwargs):
            if (args[3] if len(args) > 3 else kwargs.get("hi_fidelity", False)):
                self.hifi_calls += 1
            return fn(*args, **kwargs)

        return wrapped

    def _integrate_hook(self, fn):
        # accepted steps are the trajectory's length minus its start; every
        # other attempted step, including all steps of an integration that
        # aborts, counts as rejected
        calls = self.calls

        def wrapped(*args, **kwargs):
            rhs0 = calls["flow._kernels_from_state"]
            accepted = 0
            try:
                traj = fn(*args, **kwargs)
                accepted = len(traj) - 1
                return traj
            finally:
                attempts = (calls["flow._kernels_from_state"] - rhs0) // RHS_PER_STEP
                self.steps_accepted += accepted
                self.steps_rejected += attempts - accepted

        return wrapped

    def install(self) -> None:
        for name, modname, attr in CACHES:
            cache = getattr(importlib.import_module(f"bhgap.{modname}"), attr)
            info = cache.cache_info()
            self._caches[name] = (cache, info.hits, info.misses)
        for name, modname, attr, kind in LAYERS:
            mod = importlib.import_module(f"bhgap.{modname}")
            orig = getattr(mod, attr)
            new = self.span(name, orig) if kind == "span" else self._counter(name, orig)
            if name == "bops._dd_gram":
                new = self._gram_hook(new)
            elif name == "flow.integrate":
                new = self._integrate_hook(new)
            self._restore.append((mod, attr, orig))
            setattr(mod, attr, new)

    def hit_ratios(self) -> dict[str, float]:
        """Cache hits over lookups since install; 0 when there was no lookup."""
        out = {}
        for name, (cache, h0, m0) in self._caches.items():
            info = cache.cache_info()
            hits, looks = info.hits - h0, info.hits + info.misses - h0 - m0
            out[name] = hits / looks if looks else 0.0
        return out

    def close(self) -> None:
        for mod, attr, orig in reversed(self._restore):
            setattr(mod, attr, orig)
        self._restore.clear()
