"""Render one compile's observability data for humans.

Consumes the picklable :class:`repro.observability.config.ObservabilityData`
(never live sessions, so it also renders worker-shipped or
disk-loaded captures) and produces:

* :func:`render_text` -- a terminal summary: stage waterfall (relative
  bar per pipeline stage), e-graph growth sparkline, top-k rules by
  search time, recorded events;
* :func:`render_html` -- a standalone dependency-free HTML page with
  the same content plus the raw span table.

``repro trace <kernel>`` drives both.
"""

from __future__ import annotations

import html
from typing import Dict, List, Tuple

from .config import ObservabilityData

__all__ = ["render_text", "render_html", "stage_waterfall", "top_rules"]

_SPARK = "▁▂▃▄▅▆▇█"


def _sparkline(values: List[float], width: int = 40) -> str:
    if not values:
        return "(no samples)"
    if len(values) > width:
        # Downsample by taking the max of each chunk (peaks matter).
        chunk = len(values) / width
        values = [
            max(values[int(i * chunk): max(int((i + 1) * chunk), int(i * chunk) + 1)])
            for i in range(width)
        ]
    lo, hi = min(values), max(values)
    span = (hi - lo) or 1.0
    return "".join(
        _SPARK[min(len(_SPARK) - 1, int((v - lo) / span * (len(_SPARK) - 1)))]
        for v in values
    )


def stage_waterfall(data: ObservabilityData) -> List[Tuple[str, float, float]]:
    """``(stage, start_offset_s, duration_s)`` for each direct child of
    the root ``compile`` span, in start order."""
    root = data.span_named("compile")
    if root is None:
        return []
    children = [
        s for s in data.spans if s.get("parent_id") == root["span_id"]
    ]
    children.sort(key=lambda s: s["start"])
    return [
        (s["name"], s["start"] - root["start"], s.get("duration", 0.0))
        for s in children
    ]


def top_rules(data: ObservabilityData, k: int = 10) -> List[Tuple[str, Dict]]:
    """Rules ranked by cumulative search time (from the recorder)."""
    stats = (data.recorder or {}).get("rule_stats", {})
    ranked = sorted(
        stats.items(),
        key=lambda item: item[1].get("search_time", 0.0),
        reverse=True,
    )
    return ranked[:k]


def _waterfall_lines(
    stages: List[Tuple[str, float, float]], width: int = 36
) -> List[str]:
    if not stages:
        return ["  (no stage spans recorded)"]
    total = max((off + dur) for _, off, dur in stages) or 1.0
    lines = []
    for name, off, dur in stages:
        lead = int(off / total * width)
        bar = max(1, int(dur / total * width))
        lines.append(
            f"  {name:<12} {' ' * lead}{'█' * bar:<{width - lead}} "
            f"{dur * 1000:8.1f} ms"
        )
    return lines


def render_text(data: ObservabilityData, kernel: str = "") -> str:
    """Terminal report for one compile."""
    lines: List[str] = []
    root = data.span_named("compile")
    title = kernel or (root or {}).get("attributes", {}).get("kernel", "?")
    total = (root or {}).get("duration", 0.0)
    lines.append(f"== repro trace: {title} ==")
    if root is not None:
        lines.append(
            f"total {total * 1000:.1f} ms wall, "
            f"{root.get('cpu', 0.0) * 1000:.1f} ms cpu, "
            f"{len(data.spans)} spans"
        )

    lines.append("")
    lines.append("stage waterfall:")
    lines.extend(_waterfall_lines(stage_waterfall(data)))

    recorder = data.recorder or {}
    snapshots = recorder.get("snapshots", [])
    if snapshots:
        growth = [s["nodes"] for s in snapshots]
        lines.append("")
        lines.append(
            f"e-graph growth ({recorder.get('iterations_seen', len(growth))} "
            f"iterations, stop: {recorder.get('stop_reason')}):"
        )
        lines.append(f"  {_sparkline(growth)}  "
                     f"{growth[0]} -> {growth[-1]} nodes")

    ranked = top_rules(data)
    if ranked:
        lines.append("")
        lines.append("top rules by search time:")
        for name, s in ranked:
            lines.append(
                f"  {name:<28} {s.get('search_time', 0.0) * 1000:8.1f} ms  "
                f"{s.get('matches', 0):>6} matches  "
                f"{s.get('applied', 0):>6} applied"
                + (
                    f"  banned x{s['times_banned']}"
                    if s.get("times_banned")
                    else ""
                )
            )

    events = recorder.get("events", [])
    if events:
        lines.append("")
        lines.append(f"events ({len(events)}):")
        for e in events[-12:]:
            detail = ", ".join(f"{k}={v}" for k, v in e["details"].items())
            lines.append(f"  {e['kind']}" + (f": {detail}" if detail else ""))

    if data.prometheus:
        n_samples = sum(
            1
            for line in data.prometheus.splitlines()
            if line and not line.startswith("#")
        )
        lines.append("")
        lines.append(f"metrics: {n_samples} samples exported")
    return "\n".join(lines)


_HTML_HEAD = """<!doctype html>
<html><head><meta charset="utf-8"><title>repro trace: {title}</title>
<style>
 body {{ font: 14px/1.5 system-ui, sans-serif; margin: 2rem; color: #222; }}
 h1 {{ font-size: 1.3rem; }} h2 {{ font-size: 1.05rem; margin-top: 2rem; }}
 table {{ border-collapse: collapse; }}
 td, th {{ padding: .2rem .6rem; border-bottom: 1px solid #ddd;
           text-align: left; font-variant-numeric: tabular-nums; }}
 .bar {{ background: #4c78a8; height: 12px; border-radius: 2px; }}
 .lane {{ position: relative; background: #eef1f5; height: 12px;
          width: 420px; border-radius: 2px; }}
 .lane div {{ position: absolute; top: 0; }}
 .muted {{ color: #777; }}
 pre {{ background: #f6f8fa; padding: .8rem; overflow-x: auto; }}
</style></head><body>
<h1>repro trace: {title}</h1>
"""


def render_html(data: ObservabilityData, kernel: str = "") -> str:
    """Standalone HTML report (no external assets)."""
    root = data.span_named("compile")
    title = html.escape(
        kernel or (root or {}).get("attributes", {}).get("kernel", "?")
    )
    parts: List[str] = [_HTML_HEAD.format(title=title)]
    if root is not None:
        parts.append(
            f"<p>total <b>{root.get('duration', 0) * 1000:.1f} ms</b> wall, "
            f"{root.get('cpu', 0) * 1000:.1f} ms cpu, "
            f"{len(data.spans)} spans</p>"
        )

    stages = stage_waterfall(data)
    parts.append("<h2>Stage waterfall</h2>")
    if stages:
        total = max((off + dur) for _, off, dur in stages) or 1.0
        parts.append("<table>")
        for name, off, dur in stages:
            left = off / total * 100
            width = max(dur / total * 100, 0.5)
            parts.append(
                f"<tr><td>{html.escape(name)}</td>"
                f"<td><div class='lane'><div class='bar' "
                f"style='left:{left:.2f}%;width:{width:.2f}%'></div></div>"
                f"</td><td>{dur * 1000:.1f} ms</td></tr>"
            )
        parts.append("</table>")
    else:
        parts.append("<p class='muted'>no stage spans recorded</p>")

    recorder = data.recorder or {}
    snapshots = recorder.get("snapshots", [])
    if snapshots:
        growth = [s["nodes"] for s in snapshots]
        peak = max(growth) or 1
        bars = "".join(
            f"<div style='display:inline-block;width:6px;margin-right:1px;"
            f"background:#4c78a8;height:{max(2, int(n / peak * 60))}px'></div>"
            for n in growth[-80:]
        )
        parts.append(
            f"<h2>E-graph growth</h2><p class='muted'>"
            f"{recorder.get('iterations_seen')} iterations, "
            f"stop: {html.escape(str(recorder.get('stop_reason')))}, "
            f"{growth[0]} &rarr; {growth[-1]} nodes</p>"
            f"<div style='display:flex;align-items:flex-end'>{bars}</div>"
        )

    ranked = top_rules(data)
    if ranked:
        parts.append("<h2>Top rules by search time</h2><table>")
        parts.append(
            "<tr><th>rule</th><th>search ms</th><th>matches</th>"
            "<th>applied</th><th>bans</th></tr>"
        )
        for name, s in ranked:
            parts.append(
                f"<tr><td>{html.escape(name)}</td>"
                f"<td>{s.get('search_time', 0.0) * 1000:.1f}</td>"
                f"<td>{s.get('matches', 0)}</td>"
                f"<td>{s.get('applied', 0)}</td>"
                f"<td>{s.get('times_banned', 0)}</td></tr>"
            )
        parts.append("</table>")

    events = recorder.get("events", [])
    if events:
        parts.append(f"<h2>Events ({len(events)})</h2><table>")
        for e in events:
            detail = ", ".join(f"{k}={v}" for k, v in e["details"].items())
            parts.append(
                f"<tr><td>{html.escape(e['kind'])}</td>"
                f"<td class='muted'>{html.escape(detail)}</td></tr>"
            )
        parts.append("</table>")

    parts.append("<h2>Spans</h2><table>")
    parts.append(
        "<tr><th>name</th><th>pid</th><th>start +ms</th><th>wall ms</th>"
        "<th>cpu ms</th><th>attributes</th></tr>"
    )
    t0 = min((s["start"] for s in data.spans), default=0.0)
    for s in sorted(data.spans, key=lambda s: s["start"]):
        attrs = ", ".join(f"{k}={v}" for k, v in s.get("attributes", {}).items())
        parts.append(
            f"<tr><td>{html.escape(s['name'])}</td><td>{s.get('pid', 0)}</td>"
            f"<td>{(s['start'] - t0) * 1000:.1f}</td>"
            f"<td>{s.get('duration', 0) * 1000:.1f}</td>"
            f"<td>{s.get('cpu', 0) * 1000:.1f}</td>"
            f"<td class='muted'>{html.escape(attrs)}</td></tr>"
        )
    parts.append("</table>")

    if data.prometheus:
        parts.append("<h2>Metrics (Prometheus exposition)</h2>")
        parts.append(f"<pre>{html.escape(data.prometheus)}</pre>")
    parts.append("</body></html>\n")
    return "".join(parts)
