"""Workload points, route calls and references of the bhgap benchmark.

A point is one gap value: a public route of ``bhgap.ensembles`` with its
``ModelParams`` and cutoffs.  ``points`` draws them from ``spec.json`` and a
seed only, so the program sees nothing but the generated inputs.  Each
workload cycles through its slots in passes.  A slot names a route, m and
cutoff ranges; a cutoff may be a list of bands, and a pass visits each band
(each pair of an s and a t band) ``repeat`` times.  Each visit draws the
parameters and a small grid of cutoffs, the shape of a ``bhgap gap`` sweep;
a slot whose m is a list evaluates each of its cutoffs at every listed m.
Every draw is continuous, so no two points of one m share a cutoff and each
timed point is new to the point-keyed caches.

``call`` and ``reference`` import bhgap, so the caller must have put the
checkout's ``src`` on ``sys.path`` first.
"""
from __future__ import annotations

import json
import math
import random
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent / "spec.json").read_text())
WORKLOADS = tuple(SPEC["workloads"])

# routes that take no t cutoff (z_ubh) or no s cutoff (z_bhft)
_NO_T = {"z_ubh"}
_NO_S = {"z_bhft"}
# one-species routes ignore b and psi
_ONE_SPECIES = {"z_ubh", "z_bhft"}


def _draw(rng: random.Random, spec) -> float:
    """A fixed number stays as it is; a [lo, hi] pair is drawn uniformly."""
    if isinstance(spec, list):
        return rng.uniform(spec[0], spec[1])
    return float(spec)


def _bands(spec) -> list:
    """A cutoff spec as a list of bands: a list of [lo, hi] pairs stays as it
    is, a single range or a missing cutoff is one band."""
    if isinstance(spec, list) and spec and isinstance(spec[0], list):
        return spec
    return [spec]


def _slots(w: dict) -> list[dict]:
    """The workload's slots; a slot takes each key it does not set (a, b, xi,
    psi, grid, s, t) from its workload."""
    return [{**w, **slot} for slot in w["slots"]]


def _param_sets(slot: dict) -> list[dict]:
    """The slot's parameter sets in one pass: each of its s bands with each of
    its t bands, all ``repeat`` times."""
    return [dict(slot, s=sb, t=tb)
            for _ in range(slot.get("repeat", 1))
            for sb in _bands(slot.get("s"))
            for tb in _bands(slot.get("t"))]


def _param_set(rng: random.Random, ps: dict):
    """One parameter set's points: its cutoff grid, at each of its m when m
    is a list."""
    route = ps["route"]
    base = {"route": route, "a": _draw(rng, ps["a"]), "b": 0.0,
            "xi": _draw(rng, ps["xi"]), "psi": 0.0}
    if route not in _ONE_SPECIES:
        base["b"] = _draw(rng, ps["b"])
        base["psi"] = _draw(rng, ps["psi"])
    ns, nt = ps["grid"]
    ss = [None] if route in _NO_S else [_draw(rng, ps["s"]) for _ in range(ns)]
    ts = [None] if route in _NO_T else [_draw(rng, ps["t"]) for _ in range(nt)]
    ms = ps["m"] if isinstance(ps["m"], list) else [ps["m"]]
    for s in ss:
        for t in ts:
            for m in ms:
                yield dict(base, m=m, s=s, t=t)


def points(workload: str, seed: int):
    """The endless, seed-determined point sequence of one workload."""
    w = SPEC["workloads"][workload]
    rng = random.Random(f"{workload}/{seed}")
    while True:
        for slot in _slots(w):
            for ps in _param_sets(slot):
                yield from _param_set(rng, ps)


def cycle_length(workload: str) -> int:
    """Points in one pass over the workload's slots."""
    w = SPEC["workloads"][workload]
    n = 0
    for slot in _slots(w):
        ns = 1 if slot["route"] in _NO_S else slot["grid"][0]
        nt = 1 if slot["route"] in _NO_T else slot["grid"][1]
        nm = len(slot["m"]) if isinstance(slot["m"], list) else 1
        n += len(_param_sets(slot)) * ns * nt * nm
    return n


def warmup_point(workload: str) -> dict:
    """The workload's warm-up point, which lies outside its draw."""
    pt = {"b": 0.0, "psi": 0.0, "s": None, "t": None}
    pt.update(SPEC["workloads"][workload]["warmup"])
    return pt


def describe(pt: dict) -> str:
    keys = ("route", "m", "a", "b", "xi", "psi", "s", "t")
    return " ".join(f"{k}={pt[k]!r}" for k in keys if pt.get(k) is not None)


def _params(pt: dict):
    from bhgap.params import ModelParams

    return ModelParams(pt["m"], pt["a"], pt["b"], pt["xi"], pt["psi"])


def call(pt: dict):
    """Evaluate the point through its public route; returns the GapResult."""
    from bhgap import ensembles
    from bhgap.params import DeformPoint

    route, p = pt["route"], _params(pt)
    if route == "z_cl2m":
        return ensembles.z_cl2m(p, DeformPoint(pt["s"], pt["t"]))
    if route == "z_ubh":
        return ensembles.z_ubh(p, pt["s"])
    if route == "z_bhft":
        return ensembles.z_bhft(p, pt["t"])
    if route == "z_cl2m_flow":
        return ensembles.z_cl2m_flow(p, DeformPoint(pt["s"], pt["t"]))
    raise ValueError(f"unknown route {route!r}")


def reference(pt: dict) -> float:
    """An independent value of the point, computed by another route or order."""
    from bhgap import ensembles, oracles
    from bhgap.params import DeformPoint, ModelParams

    route, p = pt["route"], _params(pt)
    if route == "z_cl2m":
        d = DeformPoint(pt["s"], pt["t"])
        return real(ensembles.z_cl2m(p.swapped(), d.swapped()).value)
    if route == "z_ubh":
        # Forrester-Kieburg bridge z_ubh(s)^2 = z_cl2m(m, a, a+1; xi, xi; s, s)
        twin = ModelParams(p.m, p.a, p.a + 1.0, p.xi, p.xi)
        sq = real(ensembles.z_cl2m(twin, DeformPoint(pt["s"], pt["s"])).value)
        return math.copysign(math.sqrt(abs(sq)), sq)
    if route == "z_bhft":
        if p.m <= 2:
            d = DeformPoint(pt["t"], pt["t"])
            return real(oracles.quad_gap_small_m(p, d, ensemble="bhft").value)
        return real(ensembles.z_bhft(p, pt["t"], nodes=40).value)
    if route == "z_cl2m_flow":
        return real(ensembles.z_cl2m(p, DeformPoint(pt["s"], pt["t"])).value)
    raise ValueError(f"unknown route {route!r}")


def real(v) -> float:
    """The value as a float; a value with a nonzero imaginary part is NaN."""
    v = complex(v)
    return v.real if v.imag == 0.0 else math.nan
