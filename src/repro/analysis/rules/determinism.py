"""Determinism rules (DET*): keep every simulator run bit-for-bit equal.

The simulator promises (``repro.sim.Simulator``) that two runs with the
same seed produce identical event sequences.  The only sanctioned
randomness is ``sim.rng.stream(name)``; the only sanctioned clock is
``sim.now``; the only sanctioned id counter is ``sim.ids(namespace)``.
These rules ban the ambient alternatives and the subtler killer:
iterating a ``set`` (hash order — varies with ``PYTHONHASHSEED``) into
anything order-sensitive.
"""

from __future__ import annotations

import ast

from repro.analysis.engine import (Finding, ModuleInfo, Rule, in_layers,
                                   register)
from repro.analysis.setness import (ModuleSetFacts, is_setish,
                                    local_set_bindings, set_names_at)

#: Modules whose import alone signals ambient nondeterminism in sim code.
BANNED_MODULES = {
    "time": "use sim.now / sim.timeout() for simulated time",
    "datetime": "wall-clock time varies across runs; use sim.now",
    "secrets": "OS entropy is nondeterministic; use sim.rng.stream()",
}

#: random.<fn> module-level calls draw from the shared, OS-seeded global
#: generator.  random.Random(seed) instances passed around are fine.
BANNED_RANDOM_FUNCS = {
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "gauss", "normalvariate", "expovariate",
    "betavariate", "triangular", "seed", "getrandbits", "randbytes",
}

#: Other attribute calls that read ambient entropy or the wall clock.
BANNED_ATTR_CALLS = {
    ("os", "urandom"): "os.urandom() is OS entropy; use sim.rng.stream()",
    ("uuid", "uuid1"): "uuid1 embeds the wall clock and MAC address",
    ("uuid", "uuid4"): "uuid4 is random; draw ids from sim.ids(namespace)",
}


@register
class BannedNondeterminismRule(Rule):
    """DET01: ambient randomness / wall-clock access."""

    id = "DET01"
    name = "banned-nondeterminism"
    description = (
        "bans time/datetime/secrets imports, module-level random.* calls, "
        "os.urandom and uuid1/uuid4 inside the simulated tree; use "
        "sim.now and sim.rng.stream() instead"
    )

    def check_module(self, module: ModuleInfo):
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    if root in BANNED_MODULES:
                        yield self.finding(
                            module, node,
                            f"import of nondeterministic module "
                            f"{alias.name!r}: {BANNED_MODULES[root]}")
            elif isinstance(node, ast.ImportFrom):
                root = (node.module or "").split(".")[0]
                if root in BANNED_MODULES:
                    yield self.finding(
                        module, node,
                        f"import from nondeterministic module "
                        f"{node.module!r}: {BANNED_MODULES[root]}")
                elif root == "random":
                    for alias in node.names:
                        if alias.name in BANNED_RANDOM_FUNCS:
                            yield self.finding(
                                module, node,
                                f"'from random import {alias.name}' uses the "
                                "global OS-seeded generator; use "
                                "sim.rng.stream()")
            elif isinstance(node, ast.Call):
                yield from self._check_call(module, node)

    def _check_call(self, module: ModuleInfo, node: ast.Call):
        func = node.func
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            pair = (func.value.id, func.attr)
            if pair in BANNED_ATTR_CALLS:
                yield self.finding(
                    module, node,
                    f"{pair[0]}.{pair[1]}(): {BANNED_ATTR_CALLS[pair]}")
            elif func.value.id == "random" and func.attr in BANNED_RANDOM_FUNCS:
                yield self.finding(
                    module, node,
                    f"random.{func.attr}() draws from the global OS-seeded "
                    "generator; use a seeded sim.rng.stream() substream")
            elif (func.value.id == "random" and func.attr == "Random"
                    and not node.args and not node.keywords):
                yield self.finding(
                    module, node,
                    "random.Random() without a seed falls back to OS "
                    "entropy; pass an explicit seed")


@register
class UnorderedIterationRule(Rule):
    """DET02: iterating a set feeds hash order into the simulation."""

    id = "DET02"
    name = "unordered-iteration"
    description = (
        "flags for-loops and comprehensions whose iterable is a set "
        "(iteration order depends on PYTHONHASHSEED); wrap the iterable "
        "in sorted() or use an insertion-ordered dict"
    )

    #: Calls whose result does not depend on the argument's order, so a
    #: comprehension directly inside them is harmless.
    ORDER_INSENSITIVE = frozenset({
        "sorted", "min", "max", "sum", "len", "any", "all", "set",
        "frozenset", "Counter",
    })

    def check_module(self, module: ModuleInfo):
        facts = ModuleSetFacts(module.tree)
        local_cache: dict = {}

        def names_for(node: ast.AST) -> set:
            # Position-aware: a name rebound via sorted() before this use
            # is a list here, even if it held a set earlier in the body.
            func = module.enclosing_function(node)
            if func is None:
                return set()
            if func not in local_cache:
                local_cache[func] = local_set_bindings(func, facts)
            return set_names_at(local_cache[func],
                                (node.lineno, node.col_offset))

        for node in ast.walk(module.tree):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                if is_setish(node.iter, facts, names_for(node)):
                    yield self._finding_for(module, node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                if self._consumed_order_insensitively(module, node):
                    continue
                for generator in node.generators:
                    if is_setish(generator.iter, facts, names_for(node)):
                        yield self._finding_for(module, generator.iter)

    def _consumed_order_insensitively(self, module: ModuleInfo,
                                      node: ast.AST) -> bool:
        parent = module.parent(node)
        return (isinstance(parent, ast.Call)
                and isinstance(parent.func, ast.Name)
                and parent.func.id in self.ORDER_INSENSITIVE)

    def _finding_for(self, module: ModuleInfo, iterable: ast.AST) -> Finding:
        return self.finding(
            module, iterable,
            f"iteration over set expression {ast.unparse(iterable)!r}: set "
            "order depends on PYTHONHASHSEED and varies across runs; wrap "
            "in sorted() or keep an insertion-ordered dict")


@register
class IdentityOrderingRule(Rule):
    """DET03: id() leaks address-space layout into program behavior."""

    id = "DET03"
    name = "identity-ordering"
    description = (
        "flags id(...) calls: CPython ids are memory addresses, which "
        "differ across runs, so any id-keyed ordering or set membership "
        "walk is nondeterministic; key by a stable attribute instead"
    )

    def check_module(self, module: ModuleInfo):
        for node in ast.walk(module.tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "id"
                    and len(node.args) == 1):
                yield self.finding(
                    module, node,
                    "id() returns a memory address that varies across runs; "
                    "use an explicit identity list or a stable key")


@register
class PrivateIdCounterRule(Rule):
    """DET04: an id counter of its own instead of the run's ``sim.ids``."""

    id = "DET04"
    name = "private-id-counter"
    description = (
        "flags itertools.count(...) and 'from itertools import count' "
        "outside repro/sim: draw ids from the run's sim.ids(namespace), "
        "unique within the run and restarted with it"
    )

    def check_module(self, module: ModuleInfo):
        if in_layers(module, {"sim"}):
            return  # the kernel owns the run's counters
        for node in ast.walk(module.tree):
            if (isinstance(node, ast.ImportFrom)
                    and node.module == "itertools"
                    and any(alias.name == "count" for alias in node.names)):
                what = "'from itertools import count'"
            elif (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "count"
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "itertools"):
                what = "itertools.count()"
            else:
                continue
            yield self.finding(
                module, node, f"{what} makes an id counter outside the "
                "run's; use sim.ids(namespace)")
