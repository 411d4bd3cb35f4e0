"""Fold a cProfile run into per-layer self time and call counts.

A layer is one package of the program: ``repro/<layer>/``.  The profile
is taken from outside (``perfbench`` enables ``cProfile`` around the same
``sim.run`` calls the untraced rounds time), so no source file changes.

* **self time** of a layer is the ``tottime`` of its functions plus the
  ``tottime`` of everything outside the program (builtins, stdlib,
  dataclass-generated ``<string>`` code) charged along pstats caller
  edges to the layer that called it.  That is "span duration minus child
  spans" with the spans placed at layer boundaries.
* **calls** of a layer counts the Python-level calls of its own functions
  (a generator resume is a call); **calls in** counts only the caller ->
  callee edges whose caller is outside the layer.  Both repeat exactly.
"""

from __future__ import annotations

import os
import pstats

LAYERS = ("sim", "net", "storage", "coord", "core", "caching", "shard",
          "faas", "workloads", "metrics", "trace", "telemetry", "obs")
OTHER = "other"      # the rest of repro: cluster, config, schemes, session...
DRIVER = "driver"    # perfbench's own frames (generators, drain checks)

_HERE = os.path.dirname(os.path.abspath(__file__))
_REPRO = os.sep + "repro" + os.sep


def layer_of(filename: str):
    """The layer owning ``filename``, or None for code outside the program."""
    if filename.startswith(_HERE):
        return DRIVER
    index = filename.rfind(_REPRO)
    if index < 0:
        return None
    package = filename[index + len(_REPRO):].split(os.sep, 1)[0]
    return package if package in LAYERS else OTHER


def fold(profile) -> dict:
    """``{layer: {"self_s", "calls", "calls_in"}}`` for one profile."""
    stats = pstats.Stats(profile).stats
    owner = {func: layer_of(func[0]) for func in stats}
    table = {name: {"self_s": 0.0, "calls": 0, "calls_in": 0}
             for name in LAYERS + (OTHER, DRIVER)}
    shares_memo: dict = {}

    def shares(func, stack=()) -> dict:
        """Which layers an outside function's time belongs to, by caller."""
        layer = owner.get(func)
        if layer is not None:
            return {layer: 1.0}
        if func in shares_memo:
            return shares_memo[func]
        weights: dict = {}
        for caller, edge in stats[func][4].items():
            if caller in stack:
                continue
            # edge[2] is the callee's own time on behalf of this caller.
            for name, share in shares(caller, stack + (func,)).items():
                weights[name] = weights.get(name, 0.0) + share * edge[2]
        total = sum(weights.values())
        result = ({name: w / total for name, w in weights.items()}
                  if total > 0 else {DRIVER: 1.0})
        if not stack:
            shares_memo[func] = result
        return result

    for func, (_cc, ncalls, tottime, _ct, callers) in stats.items():
        layer = owner[func]
        if layer is None:
            for name, share in shares(func).items():
                table[name]["self_s"] += tottime * share
            continue
        row = table[layer]
        row["self_s"] += tottime
        row["calls"] += ncalls
        row["calls_in"] += sum(
            edge[0] for caller, edge in callers.items()
            if owner.get(caller) != layer)
    return table
