"""Per-layer tracing of the drinfeld library, installed from outside it.

`install` wraps the library's public functions at the names their callers
look up: methods on their class, module functions in every `drinfeld`
module that bound the function by import.  (`reduce_mod` reaches
`residue_field` through `drinfeld.reduction`, so wrapping only
`drinfeld.polynomials.residue_field` would miss the q = 9 root search.)

Every wrapped call updates `calls`, `total_s` and `self_s` for its name;
self time is total time minus the time of wrapped callees.  Calls of the
cold layers are also kept as spans (name, start, end, parent span).  The
hot calls (field multiply, inverse and Frobenius, skew multiply, Horner
evaluation) make no span of their own: their count and time are added to
the enclosing span, which keeps the tracing overhead bounded.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
import time

# (metric prefix, module, attribute, hot)
TARGETS = [
    ("fields.mul", "drinfeld.fields", "Field._mul", True),
    ("fields.frobenius", "drinfeld.fields", "Field.frobenius", True),
    ("fields.inv", "drinfeld.fields", "Field.inv", True),
    ("fields.frobenius_matrix", "drinfeld.fields", "Field.frobenius_matrix", False),
    ("fields.modulus_search", "drinfeld.fields", "lex_smallest_irreducible", False),
    ("polynomials.primes_of_degree", "drinfeld.polynomials", "primes_of_degree", False),
    ("polynomials.residue_field", "drinfeld.polynomials", "residue_field", False),
    ("polynomials.eval_in", "drinfeld.polynomials", "SparsePoly.eval_in", True),
    ("skew.mul", "drinfeld.skew", "SkewPoly.__mul__", True),
    ("skew.divmod_right", "drinfeld.skew", "SkewPoly.divmod_right", False),
    ("reduction.reduce_mod", "drinfeld.reduction", "reduce_mod", False),
    ("reduction.phi_T_power", "drinfeld.reduction", "ReducedModule.phi_T_power", False),
    ("reduction.splitting_degree", "drinfeld.reduction", "splitting_degree", False),
    ("reduction.torsion_space", "drinfeld.reduction", "torsion_space", False),
    ("linalg.solve_mod_p", "drinfeld.linalg", "solve_mod_p", False),
    ("linalg.kernel_mod_p", "drinfeld.linalg", "kernel_mod_p", False),
    ("linalg.matpow_mod_p", "drinfeld.linalg", "matpow_mod_p", False),
    ("linalg.rank_mod_p", "drinfeld.linalg", "rank_mod_p", False),
    ("linalg.Matrix.rref", "drinfeld.linalg", "Matrix.rref", False),
    ("linalg.Matrix.charpoly", "drinfeld.linalg", "Matrix.charpoly", False),
    ("charpoly.linear_system", "drinfeld.charpoly", "charpoly_linear_system", False),
    ("charpoly.det_check", "drinfeld.charpoly", "det_check", False),
    ("sampling.sample_frobenii", "drinfeld.sampling", "sample_frobenii", False),
    ("sampling.oracle", "drinfeld.sampling", "gl_charpoly_distribution", False),
    ("sampling.tv", "drinfeld.sampling", "tv_distance", False),
    ("cli.main", "drinfeld.cli", "main", False),
]

# Largest return value seen, reported as `<prefix>.max_m`.
KEEP_MAX = {"reduction.splitting_degree"}

# The per-layer metrics a traced run reports, with their units.  Every
# workload reports all of them; a layer a workload never enters reads 0.
PER_LAYER = [
    ("fields.mul.calls", "count"),
    ("fields.mul.self_s", "s"),
    ("fields.frobenius.calls", "count"),
    ("fields.frobenius.self_s", "s"),
    ("fields.inv.calls", "count"),
    ("fields.frobenius_matrix.self_s", "s"),
    ("fields.modulus_search.calls", "count"),
    ("fields.modulus_search.self_s", "s"),
    ("polynomials.primes_of_degree.total_s", "s"),
    ("polynomials.residue_field.calls", "count"),
    ("polynomials.residue_field.total_s", "s"),
    ("polynomials.eval_in.calls", "count"),
    ("polynomials.eval_in.per_op", "calls/op"),
    ("skew.mul.calls", "count"),
    ("skew.mul.self_s", "s"),
    ("skew.divmod_right.calls", "count"),
    ("skew.divmod_right.self_s", "s"),
    ("reduction.reduce_mod.total_s", "s"),
    ("reduction.phi_T_power.total_s", "s"),
    ("reduction.splitting_degree.total_s", "s"),
    ("reduction.splitting_degree.max_m", "count"),
    ("reduction.torsion_space.total_s", "s"),
    ("linalg.solve_mod_p.calls", "count"),
    ("linalg.solve_mod_p.self_s", "s"),
    ("linalg.kernel_mod_p.self_s", "s"),
    ("linalg.matpow_mod_p.self_s", "s"),
    ("linalg.rank_mod_p.calls", "count"),
    ("linalg.Matrix.rref.total_s", "s"),
    ("linalg.Matrix.charpoly.calls", "count"),
    ("charpoly.linear_system.calls", "count"),
    ("charpoly.linear_system.total_s", "s"),
    ("charpoly.linear_system.self_s", "s"),
    ("charpoly.linear_system.p50_ms", "ms"),
    ("charpoly.linear_system.p95_ms", "ms"),
    ("charpoly.det_check.total_s", "s"),
    ("sampling.sample_frobenii.total_s", "s"),
    ("sampling.oracle.total_s", "s"),
    ("sampling.tv.total_s", "s"),
    ("cli.main.self_s", "s"),
    ("trace.overhead_frac", "ratio"),
]


class Tracer:
    """Call statistics and spans of one traced process."""

    def __init__(self):
        self.stats: dict[str, list] = {}    # name -> [calls, total_s, self_s]
        self.maxima: dict[str, int] = {}
        self.spans: list[list] = []         # [name, start, end, parent, hot]
        # frame: [time spent in wrapped callees, span index, hot aggregate]
        self._stack = [[0.0, -1, {}]]

    def _span(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack, spans, maxima, clock = self._stack, self.spans, self.maxima, time.perf_counter
        keep_max = name in KEEP_MAX

        @functools.wraps(fn)
        def span(*args, **kwargs):
            parent = stack[-1]
            rec = [name, 0.0, 0.0, parent[1], None]
            frame = [0.0, len(spans), {}]
            spans.append(rec)
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dt = t1 - t0
                rec[1], rec[2], rec[4] = t0, t1, frame[2] or None
                parent[0] += dt
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - frame[0]
            if keep_max and result > maxima.get(name, 0):
                maxima[name] = result
            return result

        return span

    def _hot(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def hot(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, parent[1], parent[2]]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                parent[0] += dt
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - frame[0]
                agg = frame[2].get(name)
                if agg is None:
                    frame[2][name] = [1, dt]
                else:
                    agg[0] += 1
                    agg[1] += dt

        return hot

    def install(self) -> None:
        """Wrap every target of `TARGETS`, importing its module first."""
        owners = [importlib.import_module(modname) for _, modname, _, _ in TARGETS]
        modules = [m for n, m in list(sys.modules.items())
                   if (n == "drinfeld" or n.startswith("drinfeld.")) and m is not None]
        for (name, _, attr, hot), owner in zip(TARGETS, owners):
            wrap = self._hot if hot else self._span
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, wrap(name, cls.__dict__[meth]))
                continue
            orig = getattr(owner, attr)
            wrapped = wrap(name, orig)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is orig:
                        setattr(module, key, wrapped)

    def durations(self, name: str) -> list[float]:
        return sorted(end - start for n, start, end, _, _ in self.spans if n == name)

    def layer_values(self, ops: int, speed: float) -> dict[str, float]:
        """Every `PER_LAYER` metric except the overhead, which needs an
        untraced run to compare with; times are multiplied by `speed`."""
        out = {}
        for metric, _unit in PER_LAYER:
            prefix, _, stat = metric.rpartition(".")
            if prefix == "trace":
                continue
            calls, total, self_s = self.stats.get(prefix, (0, 0.0, 0.0))
            if stat == "calls":
                value = calls
            elif stat == "total_s":
                value = total * speed
            elif stat == "self_s":
                value = self_s * speed
            elif stat == "per_op":
                value = calls / ops
            elif stat == "max_m":
                value = self.maxima.get(prefix, 0)
            elif stat in ("p50_ms", "p95_ms"):
                value = 1e3 * speed * percentile(self.durations(prefix), int(stat[1:3]) / 100)
            else:
                raise ValueError(f"unknown statistic in {metric}")
            out[metric] = value
        return out

    def dump(self, path: str) -> None:
        """Write the spans, times relative to the first one."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            json.dump({
                "fields": ["name", "start_s", "end_s", "parent", "hot"],
                "spans": [[n, round(s - t0, 7), round(e - t0, 7), p, h]
                          for n, s, e, p, h in self.spans],
            }, fh)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of sorted values; 0 for no values."""
    if not values:
        return 0.0
    return values[min(len(values) - 1, max(0, math.ceil(q * len(values)) - 1))]
