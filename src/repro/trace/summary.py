"""Turn a span soup back into a Fig. 1-style latency breakdown.

Works on the plain span dicts :func:`repro.trace.export.loads_trace`
reads back from a Chrome trace, or ``Tracer.to_dicts()``; it renders
what ``repro-inspect breakdown`` prints.  Two views are computed:

* **Per-app request table** — for traces that contain ``request`` root
  spans (FaaS platform runs): requests, mean response, storage and
  compute milliseconds attributed from ``op``/``compute`` descendant
  spans, and the storage share of the breakdown — the same columns as
  ``fig01_breakdown``'s counter-based table, which makes the two
  directly comparable.
* **Category totals** — time summed per span category (agent, rpc,
  invalidation, storage, ...) across the whole trace; useful for raw
  operation traces that have no surrounding requests.

Most protocol steps are recorded as counts, not spans, and every view
counts them back in: a step (``compute``, ``agent:home_read``,
``storage:read``, ...) and a childless ``op`` (a local hit) are folded
into the span they ran under as ``<label>.n`` / ``<label>.ms`` attrs
(:func:`~repro.trace.tracer.folded_leaves`), the label's category being
its part before the first ``:``, and a call's ``rpc.server`` interval is
the ``server_start_ms`` / ``server_end_ms`` pair on the client's ``rpc``
span.  A window filter over spans keeps or drops a folded step with the
span it is folded into.
"""

from __future__ import annotations

from typing import Optional

from repro.trace.tracer import SERVER_END, SERVER_START, folded_leaves


def _steps(span: dict):
    """``(category, label, count, total_ms)`` of every recorded step one
    span dict stands for: itself, its folded leaves, and the serving
    interval it carries."""
    attrs = span.get("attrs") or {}
    yield (span.get("category", "span"), None, 1, span["duration_ms"])
    if attrs:
        for label, count, total_ms in folded_leaves(attrs):
            yield label.split(":", 1)[0], label, count, total_ms
        start = attrs.get(SERVER_START)
        if start is not None:
            yield "rpc.server", None, 1, attrs[SERVER_END] - start


def _mean(total: float, count: int) -> float:
    return total / count if count else 0.0


def per_app_requests(spans) -> dict:
    """app -> aggregate request stats derived purely from the trace.

    ``request`` spans are roots, so every span in the same ``trace_id``
    belongs to that request; storage time is the sum of ``op`` steps
    (the uniform StorageAPI instrumentation) and compute time the sum of
    ``compute`` steps, spans and folded counts alike.
    """
    requests = {}     # trace_id -> (app, duration)
    storage = {}      # trace_id -> ms
    compute = {}      # trace_id -> ms
    for span in spans:
        trace_id = span["trace_id"]
        for category, _label, _count, total_ms in _steps(span):
            if category == "request":
                app = (span.get("attrs") or {}).get("app", "?")
                requests[trace_id] = (app, total_ms)
            elif category == "op":
                storage[trace_id] = storage.get(trace_id, 0.0) + total_ms
            elif category == "compute":
                compute[trace_id] = compute.get(trace_id, 0.0) + total_ms

    table: dict = {}
    for trace_id, (app, duration_ms) in requests.items():
        row = table.setdefault(app, {
            "requests": 0, "response_ms": 0.0,
            "storage_ms": 0.0, "compute_ms": 0.0,
        })
        row["requests"] += 1
        row["response_ms"] += duration_ms
        row["storage_ms"] += storage.get(trace_id, 0.0)
        row["compute_ms"] += compute.get(trace_id, 0.0)
    for row in table.values():
        count = row["requests"]
        row["response_ms"] = _mean(row["response_ms"], count)
        row["storage_ms"] = _mean(row["storage_ms"], count)
        row["compute_ms"] = _mean(row["compute_ms"], count)
        busy = row["storage_ms"] + row["compute_ms"]
        row["storage_pct"] = 100.0 * row["storage_ms"] / busy if busy else 0.0
    return table


def category_totals(spans) -> dict:
    """category -> {"count", "total_ms", "mean_ms"} over all spans."""
    totals: dict = {}
    for span in spans:
        for category, _label, count, total_ms in _steps(span):
            row = totals.setdefault(category, {"count": 0, "total_ms": 0.0})
            row["count"] += count
            row["total_ms"] += total_ms
    for row in totals.values():
        row["mean_ms"] = _mean(row["total_ms"], row["count"])
    return totals


def op_breakdown(spans) -> dict:
    """(scheme, op name) -> count / mean duration for ``op`` spans."""
    ops: dict = {}
    for span in spans:
        for category, label, count, total_ms in _steps(span):
            if category != "op":
                continue
            if label is None:
                scheme = (span.get("attrs") or {}).get("scheme", "?")
                key = (scheme, span.get("name", "?"))
            else:   # op:<scheme>:<name>
                key = tuple(label.split(":", 1)[1].rsplit(":", 1))
            row = ops.setdefault(key, {"count": 0, "total_ms": 0.0})
            row["count"] += count
            row["total_ms"] += total_ms
    for row in ops.values():
        row["mean_ms"] = _mean(row["total_ms"], row["count"])
    return ops


def format_ops(spans) -> str:
    """One line per (scheme, op) row of :func:`op_breakdown`."""
    return "".join(
        f"{scheme:>12}  {name:<8} n={stats['count']:<6} "
        f"total={stats['total_ms']:.2f}ms mean={stats['mean_ms']:.3f}ms\n"
        for (scheme, name), stats in sorted(op_breakdown(spans).items()))


def _render_table(title: str, columns: list, rows: list) -> list:
    widths = {col: len(col) for col in columns}
    rendered = []
    for row in rows:
        cells = {}
        for col in columns:
            value = row.get(col, "")
            text = f"{value:.2f}" if isinstance(value, float) else str(value)
            cells[col] = text
            widths[col] = max(widths[col], len(text))
        rendered.append(cells)
    rule = "+" + "+".join("-" * (widths[c] + 2) for c in columns) + "+"
    out = [title, rule,
           "|" + "|".join(f" {c.ljust(widths[c])} " for c in columns) + "|",
           rule]
    for cells in rendered:
        out.append("|" + "|".join(
            f" {cells[c].ljust(widths[c])} " for c in columns) + "|")
    out.append(rule)
    return out


def format_breakdown(spans, title: Optional[str] = None) -> str:
    """Human-readable Fig. 1-style summary of a span list."""
    lines = []
    if title:
        lines.append(title)
    spans = list(spans)
    folded = sum(count for span in spans
                 for _category, label, count, _ms in _steps(span)
                 if label is not None)
    served = sum(1 for span in spans
                 if SERVER_START in (span.get("attrs") or {}))
    lines.append(f"{len(spans)} completed span(s); {folded} leaf step(s) "
                 f"folded into them, {served} server interval(s) on their "
                 f"rpc spans")
    lines.append("")

    apps = per_app_requests(spans)
    if apps:
        rows = [
            {"app": app, **stats} for app, stats in sorted(apps.items())
        ]
        lines.extend(_render_table(
            "Per-app latency breakdown (means per request, trace-derived)",
            ["app", "requests", "response_ms", "storage_ms", "compute_ms",
             "storage_pct"],
            rows))
        lines.append("")

    ops = op_breakdown(spans)
    if ops:
        rows = [
            {"scheme": scheme, "op": name, **stats}
            for (scheme, name), stats in sorted(ops.items())
        ]
        lines.extend(_render_table(
            "Storage operations (category 'op')",
            ["scheme", "op", "count", "total_ms", "mean_ms"], rows))
        lines.append("")

    totals = category_totals(spans)
    if totals:
        rows = [
            {"category": category, **stats}
            for category, stats in sorted(totals.items())
        ]
        lines.extend(_render_table(
            "Time by span category",
            ["category", "count", "total_ms", "mean_ms"], rows))
    return "\n".join(lines).rstrip() + "\n"
