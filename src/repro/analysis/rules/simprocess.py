"""Sim-process discipline rules (SIM*).

Simulation processes are plain generator functions stepped by
``repro.sim.process.Process``; the kernel contract is narrow:

- a process may only ``yield`` Event-like objects (Event, Timeout, AllOf,
  AnyOf, Process, Resource grants) — yielding a bare value kills the
  process at runtime with a :class:`SimulationError`, but only on the
  path that executes it;
- a process must never perform real (wall-clock) blocking I/O — the
  simulated clock would keep standing still while real time passes, and
  the result depends on the host machine;
- code outside ``repro/sim`` must not touch the kernel's private state
  (``Simulator._seq``, ``_schedule``, ...) — the public ``sim.now`` /
  ``peek()`` surface is the contract that lets the kernel evolve — and
  must never *store* to ``sim.now`` / ``sim.active_process``: they are
  plain attributes so that reading them costs nothing, and only the run
  loop may advance the clock or name the process being stepped.  The
  same goes for ``sim._tail``, the kernel's "last thing in its dispatch"
  flag: a store anywhere else could let a hop be elided that something
  was still going to overtake.  The kernel calls that *take the caller's
  word* for tail position (``sim.tail_call`` / ``sim.call_each`` /
  ``Event._tail_trigger``) are held to their audited call sites, where
  they must be the function's last action;
- what ``Resource.acquire_wait()`` returns must be yielded at once: a
  free slot comes back as the ``READY`` sentinel, which stands for one
  zero-delay hop that the kernel places (or elides) *when it is
  yielded* — anything scheduled in between would overtake it, the
  kernel notes the slot's resource for an interrupt only at that yield,
  and ``READY`` is not an event that ``any_of`` or a later ``yield``
  could wait on.
"""

from __future__ import annotations

import ast

from repro.analysis.engine import (
    ModuleInfo,
    Rule,
    is_generator_function,
    is_sim_process,
    receiver_name,
    register,
    walk_function_body,
)
from repro.analysis.flow import statements_after, yields_name

#: Yield value node types that can never be an Event.
_NON_EVENT_NODES = (
    ast.Constant, ast.List, ast.Tuple, ast.Dict, ast.Set, ast.ListComp,
    ast.SetComp, ast.DictComp, ast.GeneratorExp, ast.BinOp, ast.Compare,
    ast.BoolOp, ast.UnaryOp, ast.JoinedStr, ast.FormattedValue, ast.Lambda,
)

#: Real-I/O builtins banned inside simulation processes.
_BLOCKING_BUILTINS = {"open", "input", "breakpoint"}

#: ``module.function`` calls that block on real time or real I/O.
_BLOCKING_ATTR_CALLS = {
    ("time", "sleep"),
    ("os", "system"),
    ("os", "popen"),
    ("shutil", "copyfile"),
}

#: Any attribute call rooted at one of these module names is real I/O.
_BLOCKING_MODULES = {"socket", "subprocess", "requests", "urllib", "http"}

#: Private Simulator attributes that only repro/sim may touch.
_KERNEL_PRIVATE_ATTRS = {"_heap", "_seq", "_schedule"}

#: Simulator attributes that only repro/sim may write: the two public
#: ones everyone reads, and the tail-position flag of the next-entry rule.
_KERNEL_WRITTEN_ATTRS = {"now", "active_process", "_tail"}

#: Kernel entry points whose caller promises to be in tail position of
#: its dispatch (the next-entry rule).  No rule here can prove that
#: across calls, so outside repro/sim each may be called from the one
#: audited function named — (path suffix, function) — and nowhere else.
_TAIL_POSITION_CALLS = {
    "tail_call": ("net/rpc.py", "_receive"),
    "_tail_trigger": ("net/rpc.py", "_fire"),
    "call_each": ("net/fabric.py", "_deliver_batch"),
}


def _is_simulator_receiver(node: ast.AST) -> bool:
    """Whether ``node`` (the object of an attribute store) names a Simulator."""
    name = receiver_name(node)
    return name in ("sim", "simulator") or name.endswith("_sim")


# Shared with the atomicity rules; see engine.is_sim_process.
_is_sim_process = is_sim_process


@register
class YieldNonEventRule(Rule):
    """SIM01: a sim process yielded something that cannot be an Event."""

    id = "SIM01"
    name = "yield-non-event"
    description = (
        "generator processes must only yield Event/Timeout/AllOf/AnyOf "
        "expressions; yielding a literal, collection or arithmetic result "
        "crashes the process at runtime on that path"
    )

    def check_module(self, module: ModuleInfo):
        for func in module.functions():
            if not is_generator_function(func) or not _is_sim_process(func):
                continue
            for node in walk_function_body(func):
                if not isinstance(node, ast.Yield):
                    continue
                value = node.value
                if value is None:
                    continue  # bare `yield`: the generator-marker idiom
                if isinstance(value, _NON_EVENT_NODES):
                    yield self.finding(
                        module, node,
                        f"process {func.name!r} yields "
                        f"{ast.unparse(value)!r}, which is not an Event; "
                        "yield sim.timeout()/events, or return the value")


@register
class BlockingIoRule(Rule):
    """SIM02: real blocking I/O inside a simulation process."""

    id = "SIM02"
    name = "blocking-io"
    description = (
        "bans open()/input()/time.sleep()/socket/subprocess calls inside "
        "generator processes: real I/O stalls the wall clock while the "
        "simulated clock stands still, making results machine-dependent"
    )

    def check_module(self, module: ModuleInfo):
        for func in module.functions():
            if not is_generator_function(func) or not _is_sim_process(func):
                continue
            for node in walk_function_body(func):
                if not isinstance(node, ast.Call):
                    continue
                message = self._blocking_reason(node)
                if message is not None:
                    yield self.finding(
                        module, node,
                        f"process {func.name!r} performs real blocking "
                        f"I/O: {message}")

    @staticmethod
    def _blocking_reason(node: ast.Call):
        func = node.func
        if isinstance(func, ast.Name):
            if func.id in _BLOCKING_BUILTINS:
                return f"{func.id}() touches the real machine"
            return None
        if isinstance(func, ast.Attribute):
            root = func.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name):
                if (root.id, func.attr) in _BLOCKING_ATTR_CALLS:
                    return f"{root.id}.{func.attr}() blocks on real time/IO"
                if root.id in _BLOCKING_MODULES:
                    return f"{root.id}.* performs real network/process I/O"
        return None


@register
class KernelPrivateStateRule(Rule):
    """SIM03: kernel state touched (or the clock written) outside repro/sim."""

    id = "SIM03"
    name = "kernel-private-state"
    description = (
        "code outside repro/sim must not touch Simulator._heap/_seq/"
        "_schedule (use sim.now, sim.peek() and the public scheduling "
        "API), must not store to sim.now / sim.active_process / "
        "sim._tail, which only the kernel writes, and may call "
        "sim.tail_call / sim.call_each / Event._tail_trigger only as the "
        "last action of their audited call sites"
    )

    def check_module(self, module: ModuleInfo):
        parts = module.display_path.replace("\\", "/").split("/")
        if "sim" in parts:
            return  # the kernel may touch its own internals
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Attribute):
                continue
            if node.attr in _KERNEL_PRIVATE_ATTRS:
                yield self.finding(
                    module, node,
                    f"access to private simulator state "
                    f"{ast.unparse(node)!r}; use the public Simulator API "
                    "(sim.now, sim.peek, sim.spawn)")
            elif (node.attr in _KERNEL_WRITTEN_ATTRS
                  and isinstance(node.ctx, (ast.Store, ast.Del))
                  and _is_simulator_receiver(node.value)):
                yield self.finding(
                    module, node,
                    f"store to {ast.unparse(node)!r}: the clock, the "
                    "active process and the tail-position flag are "
                    "written by the kernel only; advance time with "
                    "sim.run(until=...) / a timeout, batch deliveries "
                    "with sim.call_each()")
            elif (node.attr in _TAIL_POSITION_CALLS
                  and (node.attr == "_tail_trigger"
                       or _is_simulator_receiver(node.value))
                  and not self._audited_tail_call(module, node)):
                path, function = _TAIL_POSITION_CALLS[node.attr]
                yield self.finding(
                    module, node,
                    f"{ast.unparse(node)!r} takes the caller's word that "
                    "nothing else runs in its dispatch afterwards: only "
                    f"{function}() in {path} may call it, as its last "
                    "action; anywhere else use sim.call_soon() / "
                    "succeed(), which always pay the hop")

    @staticmethod
    def _audited_tail_call(module: ModuleInfo, node: ast.Attribute) -> bool:
        """Whether ``node`` is called from its audited site, after which
        that (plain, non-generator) function can only return."""
        call = module.parent(node)
        func = module.enclosing_function(node)
        path, function = _TAIL_POSITION_CALLS[node.attr]
        if not (isinstance(call, ast.Call) and call.func is node
                and func is not None and func.name == function
                and module.display_path.replace("\\", "/").endswith(path)
                and not is_generator_function(func)):
            return False
        stmt = module.parent(call)
        if not isinstance(stmt, ast.Expr):
            return False
        while stmt is not func:
            parent = module.parent(stmt)
            rest = statements_after(parent, stmt)
            if rest:
                return (isinstance(rest[0], ast.Return)
                        and rest[0].value is None)
            if parent is not func and not isinstance(parent, ast.If):
                return False
            stmt = parent
        return True


@register
class AcquireWaitYieldedRule(Rule):
    """SIM04: an ``acquire_wait()`` result that is not yielded at once."""

    id = "SIM04"
    name = "acquire-wait-yielded"
    description = (
        "the result of <resource>.acquire_wait() must be the operand of "
        "an immediate yield — `yield res.acquire_wait()`, or `grant = "
        "res.acquire_wait()` directly followed by `yield grant`: a "
        "free slot comes back as the READY sentinel, one zero-delay hop "
        "the kernel places when it is yielded"
    )

    def check_module(self, module: ModuleInfo):
        for node in ast.walk(module.tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "acquire_wait"
                    and not node.args and not node.keywords):
                continue
            if not self._yielded_at_once(module, node):
                yield self.finding(
                    module, node,
                    f"{ast.unparse(node)} is not yielded at once; write "
                    "`yield res.acquire_wait()` or yield the assigned "
                    "grant in the very next statement")

    @staticmethod
    def _yielded_at_once(module: ModuleInfo, call: ast.Call) -> bool:
        parent = module.parent(call)
        if isinstance(parent, ast.Yield):
            return True
        if not (isinstance(parent, ast.Assign) and len(parent.targets) == 1
                and isinstance(parent.targets[0], ast.Name)):
            return False
        rest = statements_after(module.parent(parent), parent)
        if not rest:
            return False
        return yields_name(rest[0], parent.targets[0].id)
