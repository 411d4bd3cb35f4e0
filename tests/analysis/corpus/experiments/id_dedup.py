"""PR 1's ``id()``-dedup finding, fixed by 8fa75c5.

Cut from ``src/repro/experiments/runner.py`` at ``8fa75c5~1`` (the tail
of ``run_mixed_workload``).  Access stats were merged once per scheme
object keyed by ``id(scheme)``, a memory address.  The fix keeps an
identity list.

Parsed by tests, never imported.
"""


def run_mixed_workload(schemes, result):
    # Merge access stats once per distinct scheme object (OFC is shared).
    seen = set()
    for name, scheme in schemes.items():
        result.per_app_access[name] = scheme.stats
        if id(scheme) not in seen:  # defect
            seen.add(id(scheme))  # defect
            result.access.merge(scheme.stats)
    return result
