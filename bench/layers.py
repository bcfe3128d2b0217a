"""Per-layer tracing for the benchmark, installed from outside the package.

``install`` wraps public functions and methods of each orbitlab module.  A
module-level function is wrapped once and the wrapper is rebound under every
name that any loaded orbitlab module binds to the original, so calls made
through ``from .odometer import odometer_add`` style imports and through the
re-exports in ``orbitlab/__init__`` are seen too.  Methods are wrapped on
their class.

Three kinds of wrapper:

* ``span``  counts calls and records self time: the span's duration minus
  the time its traced children cover;
* ``leaf``  is a cheaper timer for the hottest primitives.  It pushes no frame,
  so a leaf must not call another traced name;
* ``count`` counts calls only; its time stays in the caller's self time.

This module imports nothing from orbitlab until ``install`` runs.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass

SPAN, LEAF, COUNT = "span", "leaf", "count"

TRANSLATE = "translate-battery"
ODOMETER = "odometer-battery"
REALIZE = "realize-recovery"
ALL_WORKLOADS = (TRANSLATE, ODOMETER, REALIZE)


@dataclass(frozen=True)
class Traced:
    module: str
    attr: str  # "function" or "Class.method"
    kind: str
    exercised_by: tuple  # workloads on which the layer must record calls


TRACED = {
    "groups.word_metric": Traced("groups", "GeneratingSet.word_metric", LEAF, (TRANSLATE,)),
    "groups.ball": Traced("groups", "GeneratingSet.ball", SPAN, (TRANSLATE,)),
    "groups.is_bilipschitz_on_ball": Traced("groups", "is_bilipschitz_on_ball", SPAN, (TRANSLATE,)),
    "mapspace.build_translate_space": Traced("mapspace", "build_translate_space", SPAN, (TRANSLATE, REALIZE)),
    "mapspace.lipschitz_constant": Traced("mapspace", "TruncatedMapSpace.lipschitz_constant", SPAN, (TRANSLATE,)),
    "mapspace.act_source": Traced("mapspace", "TruncatedMapSpace.act_source", SPAN, (TRANSLATE,)),
    "mapspace.act_target": Traced("mapspace", "TruncatedMapSpace.act_target", SPAN, (TRANSLATE,)),
    "mapspace.find_slice_match": Traced("mapspace", "TruncatedMapSpace.find_slice_match", COUNT, (TRANSLATE,)),
    "mapspace.check_lipschitz_closure": Traced("mapspace", "check_lipschitz_closure", SPAN, (TRANSLATE,)),
    "mapspace.check_action_law": Traced("mapspace", "check_action_law", SPAN, (TRANSLATE,)),
    "mapspace.check_cocycle_identity": Traced("mapspace", "check_cocycle_identity", SPAN, (TRANSLATE,)),
    "mapspace.check_fundamental_domain": Traced("mapspace", "check_fundamental_domain", SPAN, (TRANSLATE,)),
    "mapspace.check_orbit_equality": Traced("mapspace", "check_orbit_equality", SPAN, (TRANSLATE,)),
    "mapspace.force_freeness": Traced("mapspace", "force_freeness", SPAN, (TRANSLATE,)),
    "odometer.odometer_add": Traced("odometer", "odometer_add", LEAF, (ODOMETER,)),
    "odometer.matrix_act": Traced("odometer", "matrix_act", SPAN, (ODOMETER,)),
    "odometer.bijectivity_check_at_depth": Traced("odometer", "bijectivity_check_at_depth", SPAN, (ODOMETER,)),
    "odometer.minimality_witness": Traced("odometer", "minimality_witness", SPAN, (ODOMETER,)),
    "linalg.det": Traced("linalg", "det", COUNT, (ODOMETER,)),
    "linalg.mat_vec": Traced("linalg", "mat_vec", COUNT, (ODOMETER,)),
    "fullgroup.ad_realization_check": Traced("fullgroup", "ad_realization_check", SPAN, (ODOMETER,)),
    "fullgroup.apply": Traced("fullgroup", "FullGroupElement.apply", SPAN, (ODOMETER,)),
    "fullgroup.compose": Traced("fullgroup", "compose", COUNT, (ODOMETER,)),
    "shears.bounded_distance_constant": Traced("shears", "bounded_distance_constant", SPAN, (REALIZE,)),
    "shears.apply_array": Traced("shears", "FloorMap.apply_array", SPAN, (REALIZE,)),
    "shears.decompose_unimodular": Traced("shears", "decompose_unimodular", COUNT, (REALIZE,)),
    "shears.realize_bilipschitz": Traced("shears", "realize_bilipschitz", SPAN, (REALIZE,)),
    "invariants.recover_invariant_matrix": Traced("invariants", "recover_invariant_matrix", SPAN, (REALIZE,)),
    "invariants.check_det_pm1": Traced("invariants", "check_det_pm1", SPAN, (REALIZE,)),
    "invariants.multiplicativity_check": Traced("invariants", "multiplicativity_check", SPAN, (REALIZE,)),
    "morphisms.orbit_morphism": Traced("morphisms", "orbit_morphism", SPAN, (TRANSLATE,)),
    "morphisms.matrix_morphism": Traced("morphisms", "matrix_morphism", SPAN, (ODOMETER,)),
    "morphisms.check_equivariance": Traced("morphisms", "check_equivariance", SPAN, (TRANSLATE,)),
    "morphisms.check_inverse_equivariance": Traced("morphisms", "check_inverse_equivariance", SPAN, (TRANSLATE,)),
    "morphisms.check_inverse_identities": Traced("morphisms", "check_inverse_identities", SPAN, (TRANSLATE,)),
}

# The root span around each CLI invocation; its self time is command time
# that no traced layer covers.
CLI = "cli"

# Counters derived from arguments or results, keyed by metric name; each
# belongs to the traced name whose calls feed it.
DERIVED = {
    "groups.is_bilipschitz_on_ball.pairs": "groups.is_bilipschitz_on_ball",
    "mapspace.members": "mapspace.build_translate_space",
    "mapspace.germ_entries": "mapspace.build_translate_space",
    "shears.apply_array.points": "shears.apply_array",
    "shears.apply_array.int64_share": "shears.apply_array",
    "shears.decompose_unimodular.ops": "shears.decompose_unimodular",
}


def metric_source(metric: str) -> str | None:
    """The traced name whose call count shows that ``metric`` was exercised."""
    if metric in DERIVED:
        return DERIVED[metric]
    base, _, field = metric.rpartition(".")
    if field in ("calls", "self_s") and (base in TRACED or base == CLI):
        return base
    return None


def exercised_by(metric: str) -> tuple:
    source = metric_source(metric)
    if source == CLI:
        return ALL_WORKLOADS
    return TRACED[source].exercised_by if source else ()


class Tracer:
    """Call counts, self times and derived counters of the wrapped layers."""

    def __init__(self):
        self.stats = {name: [0, 0.0] for name in (*TRACED, CLI)}
        self.derived = {name: 0 for name in DERIVED}
        self.int64_calls = 0
        self._stack = [[0.0]]
        self._originals = {}  # traced name -> original function

    # -- wrappers

    def _wrap(self, name: str, kind: str, fn, after=None):
        st = self.stats[name]
        stack = self._stack
        clock = time.perf_counter

        if kind == COUNT:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                st[0] += 1
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, kwargs, result)
                return result
            return counted

        if kind == LEAF:
            @functools.wraps(fn)
            def leaf(*args, **kwargs):
                start = clock()
                result = fn(*args, **kwargs)
                elapsed = clock() - start
                st[0] += 1
                st[1] += elapsed
                stack[-1][0] += elapsed
                return result
            return leaf

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                st[0] += 1
                st[1] += elapsed - frame[0]
                stack[-1][0] += elapsed
            if after is not None:
                after(args, kwargs, result)
            return result
        return span

    def root(self, fn, *args, **kwargs):
        """Call ``fn`` inside the root ``cli`` span."""
        return self._wrap(CLI, SPAN, fn)(*args, **kwargs)

    # -- derived counters

    def _after_hooks(self, originals):
        derived = self.derived
        bilip_signature = inspect.signature(originals["groups.is_bilipschitz_on_ball"])
        plain_ball = originals["groups.ball"]

        def bilip_pairs(args, kwargs, result):
            bound = bilip_signature.bind(*args, **kwargs).arguments
            n = len(plain_ball(bound["source"], bound["radius"]))
            derived["groups.is_bilipschitz_on_ball.pairs"] += n * (n - 1) // 2

        def space_size(args, kwargs, space):
            derived["mapspace.members"] += len(space.members)
            derived["mapspace.germ_entries"] += sum(len(germ.table) for germ in space.members)

        def array_points(args, kwargs, result):
            derived["shears.apply_array.points"] += len(args[1])
            if str(getattr(result, "dtype", "")) == "int64":
                self.int64_calls += 1

        def ops_emitted(args, kwargs, result):
            derived["shears.decompose_unimodular.ops"] += len(result)

        return {
            "groups.is_bilipschitz_on_ball": bilip_pairs,
            "mapspace.build_translate_space": space_size,
            "shears.apply_array": array_points,
            "shears.decompose_unimodular": ops_emitted,
        }

    # -- installation

    def install(self) -> None:
        """Wrap every traced name; raise if any original stays reachable."""
        importlib.import_module("orbitlab.cli")
        modules = [
            module
            for key, module in sorted(sys.modules.items())
            if key == "orbitlab" or key.startswith("orbitlab.")
        ]
        owners = {}
        for name, spec in TRACED.items():
            module = importlib.import_module("orbitlab." + spec.module)
            cls_name, _, attr = spec.attr.rpartition(".")
            owner = getattr(module, cls_name) if cls_name else module
            owners[name] = (owner, attr)
            self._originals[name] = vars(owner)[attr]
        hooks = self._after_hooks(self._originals)
        for name, spec in TRACED.items():
            owner, attr = owners[name]
            original = self._originals[name]
            wrapper = self._wrap(name, spec.kind, original, hooks.get(name))
            if owner in modules:
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)
            else:
                setattr(owner, attr, wrapper)
        stale = self.stale_references(modules)
        if stale:
            raise RuntimeError(f"unwrapped references remain: {stale}")

    def stale_references(self, modules) -> list:
        """(module, attribute) pairs still bound to an unwrapped original."""
        originals = {id(fn) for fn in self._originals.values()}
        stale = []
        for module in modules:
            for key, value in vars(module).items():
                if id(value) in originals:
                    stale.append((module.__name__, key))
                elif isinstance(value, type) and value.__module__ == module.__name__:
                    stale.extend(
                        (module.__name__, f"{key}.{attr}")
                        for attr, member in vars(value).items()
                        if id(member) in originals
                    )
        return stale

    # -- results

    def metrics(self) -> dict:
        """Flat metric dict: ``<name>.calls``, ``<name>.self_s`` and derived counters."""
        out = {}
        for name, (calls, self_s) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
        out.update(self.derived)
        calls = self.stats["shears.apply_array"][0]
        out["shears.apply_array.int64_share"] = self.int64_calls / calls if calls else 0.0
        return out
