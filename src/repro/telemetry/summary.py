"""Timeline summaries: what ``repro-inspect metrics`` prints.

Works on the exported dict form of series (see
:func:`repro.telemetry.export.loads_series`), so a timeline file is
summarised without re-running the simulation.  :func:`series_stats`,
:func:`render_sparkline` and :func:`utilization_summary` compute;
:func:`format_series` and :func:`format_overview` render text.
"""

from __future__ import annotations

from repro.metrics.stats import Histogram

#: Eight-level block characters for terminal sparklines.
SPARK_CHARS = "▁▂▃▄▅▆▇█"


def series_stats(series: dict) -> dict:
    """Distribution statistics of one series' sampled values."""
    values = [value for _t, value in series["points"]]
    histogram = Histogram()
    for value in values:
        histogram.record(float(value))
    times = [t for t, _value in series["points"]]
    return {
        "name": series["name"],
        "kind": series["kind"],
        "labels": dict(series.get("labels", {})),
        "samples": histogram.count,
        "t_first_ms": times[0] if times else None,
        "t_last_ms": times[-1] if times else None,
        "min": histogram.min,
        "max": histogram.max,
        "mean": histogram.mean,
        "p50": histogram.p50,
        "stddev": histogram.stddev,
        "last": values[-1] if values else None,
    }


def render_sparkline(series: dict, width: int = 60) -> str:
    """Resample a series into ``width`` buckets of block characters."""
    values = [float(value) for _t, value in series["points"]]
    if not values:
        return ""
    if len(values) > width:
        # Mean per bucket keeps bursts visible without aliasing on width.
        bucketed = []
        for i in range(width):
            lo = i * len(values) // width
            hi = max(lo + 1, (i + 1) * len(values) // width)
            chunk = values[lo:hi]
            bucketed.append(sum(chunk) / len(chunk))
        values = bucketed
    low = min(values)
    span = max(values) - low
    if span <= 0.0:
        return SPARK_CHARS[0] * len(values)
    return "".join(
        SPARK_CHARS[min(len(SPARK_CHARS) - 1,
                        int((value - low) / span * len(SPARK_CHARS)))]
        for value in values)


def _by_node(series_list: list, name: str) -> dict:
    """node label -> series, sorted by node, for single-node-label series."""
    picked = [series for series in series_list if series["name"] == name]
    return {series["labels"].get("node", ""): series
            for series in sorted(picked,
                                 key=lambda s: s["labels"].get("node", ""))}


def utilization_summary(series_list: list) -> list:
    """Per-node utilization/queue/memory rows from the node gauges."""
    cpu = _by_node(series_list, "node_cpu_utilization")
    queue = _by_node(series_list, "node_cpu_queue_length")
    memory = _by_node(series_list, "node_memory_in_use_bytes")
    containers = _by_node(series_list, "node_warm_containers")
    rows = []
    for node in sorted(set(cpu) | set(queue) | set(memory)):
        row = {"node": node}
        if node in cpu:
            stats = series_stats(cpu[node])
            row["cpu_mean"] = stats["mean"]
            row["cpu_peak"] = stats["max"]
        if node in queue:
            stats = series_stats(queue[node])
            row["queue_mean"] = stats["mean"]
            row["queue_peak"] = stats["max"]
        if node in memory:
            row["memory_peak_bytes"] = series_stats(memory[node])["max"]
        if node in containers:
            row["warm_containers_last"] = containers[node]["points"][-1][1] \
                if containers[node]["points"] else None
        rows.append(row)
    return rows


def _label_str(labels: dict) -> str:
    return ";".join(f"{name}={value}"
                    for name, value in sorted(labels.items()))


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def format_series(series_list: list) -> str:
    """Each series' statistics and sparkline, four lines or three."""
    lines = []
    for series in series_list:
        stats = series_stats(series)
        labels = _label_str(stats["labels"])
        lines.append(f"{stats['name']}{{{labels}}}" if labels
                     else stats["name"])
        lines.append(f"  kind={stats['kind']} samples={stats['samples']} "
                     f"window=[{_fmt(stats['t_first_ms'])}, "
                     f"{_fmt(stats['t_last_ms'])}]ms")
        lines.append(f"  min={_fmt(stats['min'])} mean={_fmt(stats['mean'])} "
                     f"p50={_fmt(stats['p50'])} max={_fmt(stats['max'])} "
                     f"stddev={_fmt(stats['stddev'])} "
                     f"last={_fmt(stats['last'])}")
        spark = render_sparkline(series)
        if spark:
            lines.append(f"  {spark}")
    return "".join(line + "\n" for line in lines)


def format_overview(series_list: list, title: str) -> str:
    """Series and point counts per metric, then per-node utilization."""
    names: dict = {}
    total_points = 0
    for series in series_list:
        names[series["name"]] = names.get(series["name"], 0) + 1
        total_points += len(series["points"])
    lines = [title,
             f"  {len(series_list)} series / {len(names)} metrics / "
             f"{total_points} points"]
    lines.extend(f"  {name:<40} x{names[name]}" for name in sorted(names))
    lines.append("")
    rows = utilization_summary(series_list)
    if rows:
        lines.append("per-node utilization:")
        lines.append(f"  {'node':<10} {'cpu mean':>9} {'cpu peak':>9} "
                     f"{'queue mean':>11} {'queue peak':>11} "
                     f"{'mem peak':>12}")
        lines.extend(
            f"  {row['node']:<10} {_fmt(row.get('cpu_mean')):>9} "
            f"{_fmt(row.get('cpu_peak')):>9} "
            f"{_fmt(row.get('queue_mean')):>11} "
            f"{_fmt(row.get('queue_peak')):>11} "
            f"{_fmt(row.get('memory_peak_bytes')):>12}" for row in rows)
    return "".join(line + "\n" for line in lines)
