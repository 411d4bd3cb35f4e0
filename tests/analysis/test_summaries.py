"""Interprocedural may-suspend summaries: fixpoint and resolution."""

import ast

from repro.analysis.summaries import ProjectSummaries

SRC = '''
class Agent:
    def leaf_sleep(self):
        yield self.sim.timeout(1.0)

    def delegate(self):
        yield from self.leaf_sleep()

    def chain(self):
        yield from self.delegate()

    def keys_snapshot(self):
        return ("a", "b")

    def emit(self):
        yield from self.keys_snapshot()
        yield self.sim.timeout(1.0)

    def plain(self):
        return 42

    def reads_storage(self):
        yield from self.storage.read("k")

    def waits_for_lock(self):
        yield from self.lock.acquire_wait()


class Impl:
    def read(self):
        return 1

    def acquire_wait(self):
        return None
'''

TREE = ast.parse(SRC)
FUNCS = {}
for _cls in TREE.body:
    for _node in _cls.body:
        FUNCS[_node.name] = _node


def summaries():
    return ProjectSummaries([TREE])


def test_direct_yield_suspends():
    assert summaries().may_suspend(FUNCS["leaf_sleep"])


def test_delegation_is_transitive():
    project = summaries()
    assert project.may_suspend(FUNCS["delegate"])
    assert project.may_suspend(FUNCS["chain"])


def test_plain_function_does_not_suspend():
    assert not summaries().may_suspend(FUNCS["plain"])


def test_proven_nonsuspending_delegation():
    # `yield from self.keys_snapshot()` delegates to a yield-free method
    # of the same class: that statement is not a suspension point, while
    # the timeout on the next line is.
    project = summaries()
    emit = FUNCS["emit"]
    first, second = emit.body
    assert project.suspension_in(first, emit) is None
    assert project.suspension_in(second, emit) is not None
    assert project.may_suspend(emit)


def test_known_attrs_not_laundered_by_name_collision():
    # Impl.read never yields, but `self.storage.read(...)` is the
    # storage surface — a bare-name coincidence with an analyzed method
    # must not prove the delegation non-suspending.
    project = summaries()
    func = FUNCS["reads_storage"]
    assert project.stmt_suspends(func.body[0], func)
    assert project.may_suspend(func)


def test_acquire_wait_is_on_the_resource_surface_like_acquire():
    # Same anti-laundering for the allocation-free acquire: Impl's
    # non-suspending namesake proves nothing about a Resource.
    project = summaries()
    func = FUNCS["waits_for_lock"]
    assert project.stmt_suspends(func.body[0], func)


def test_unknown_function_assumed_suspending():
    foreign = ast.parse("def foreign():\n    yield 1\n").body[0]
    assert summaries().may_suspend(foreign)
