"""Known-bad id counters (DET04); parsed by tests, never imported."""
import itertools
from itertools import count, islice


class Endpoint:
    _ids = itertools.count(1)


def numbered(items):
    return list(zip(count(1), items))


def first_three(items):
    return list(islice(itertools.chain(items), 3))
