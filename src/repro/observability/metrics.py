"""Metrics registry: counters, gauges, fixed-bucket histograms.

A deliberately small Prometheus-flavoured metrics surface for the
compilation pipeline:

.. code-block:: python

    registry = MetricsRegistry()
    compiles = registry.counter(
        "repro_compiles_total", "Compilations finished", labels=("status",)
    )
    compiles.labels(status="ok").inc()

    registry.to_prometheus()  # text exposition format
    registry.to_json()        # versioned JSON snapshot

Design points:

* **labels are declared up front** and every child is keyed by its
  label *values*, so the exposition output is stable and sorted;
* **histograms use fixed buckets** chosen at declaration -- observing
  is one bisect plus two adds, no allocation;
* the registry is **thread-safe** (one lock around mutation; reads
  take the same lock and copy);
* when observability is disabled the pipeline holds no registry at all
  (see :mod:`repro.observability.config`), so the disabled path costs
  one ``None`` check per site.

:func:`parse_prometheus` parses the exposition format back into
samples; ``tests/test_observability.py`` round-trips every metric kind
through it.
"""

from __future__ import annotations

import bisect
import math
import threading
from typing import Dict, List, Sequence, Tuple

__all__ = [
    "METRICS_SCHEMA",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "parse_prometheus",
    "render_prometheus",
]

METRICS_SCHEMA = "repro_metrics/v1"

#: Default histogram buckets: exponential seconds ladder suiting both
#: sub-millisecond stage times and multi-minute saturations.
DEFAULT_BUCKETS = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 30.0, 60.0, 180.0
)

LabelValues = Tuple[str, ...]


def _format_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _escape(value: str) -> str:
    return (
        str(value)
        .replace("\\", r"\\")
        .replace('"', r"\"")
        .replace("\n", r"\n")
    )


class _Metric:
    """Base: a named family with a fixed label schema."""

    kind = "untyped"

    def __init__(
        self,
        name: str,
        help_text: str,
        labels: Sequence[str],
        lock: threading.Lock,
    ) -> None:
        self.name = name
        self.help = help_text
        self.label_names = tuple(labels)
        self._lock = lock
        self._children: Dict[LabelValues, object] = {}

    def labels(self, **values: str):
        if set(values) != set(self.label_names):
            raise ValueError(
                f"{self.name}: expected labels {self.label_names}, "
                f"got {tuple(sorted(values))}"
            )
        key = tuple(str(values[n]) for n in self.label_names)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._children[key] = self._new_child()
            return child

    def _default_child(self):
        """The label-less child (valid only when no labels declared)."""
        if self.label_names:
            raise ValueError(f"{self.name} requires labels {self.label_names}")
        return self.labels()

    def _new_child(self):  # pragma: no cover - abstract
        raise NotImplementedError

    def _child_items(self) -> List[Tuple[LabelValues, object]]:
        with self._lock:
            return sorted(self._children.items())


class _CounterChild:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Counter(_Metric):
    kind = "counter"

    def _new_child(self) -> _CounterChild:
        return _CounterChild()

    def inc(self, amount: float = 1.0) -> None:
        self._default_child().inc(amount)

    @property
    def value(self) -> float:
        return self._default_child().value


class _GaugeChild:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Gauge(_Metric):
    kind = "gauge"

    def _new_child(self) -> _GaugeChild:
        return _GaugeChild()

    def set(self, value: float) -> None:
        self._default_child().set(value)

    def inc(self, amount: float = 1.0) -> None:
        self._default_child().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._default_child().dec(amount)

    @property
    def value(self) -> float:
        return self._default_child().value


class _HistogramChild:
    __slots__ = ("buckets", "counts", "total", "count")

    def __init__(self, buckets: Tuple[float, ...]) -> None:
        self.buckets = buckets
        self.counts = [0] * (len(buckets) + 1)  # +Inf bucket
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.buckets, value)] += 1
        self.total += value
        self.count += 1


class Histogram(_Metric):
    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        labels: Sequence[str],
        lock: threading.Lock,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help_text, labels, lock)
        cleaned = tuple(sorted(float(b) for b in buckets))
        if not cleaned:
            raise ValueError("histogram needs at least one bucket")
        self.buckets = cleaned

    def _new_child(self) -> _HistogramChild:
        return _HistogramChild(self.buckets)

    def observe(self, value: float) -> None:
        self._default_child().observe(value)


class MetricsRegistry:
    """A process-local collection of metric families."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, _Metric] = {}

    # -- declaration ---------------------------------------------------

    def counter(
        self, name: str, help_text: str = "", labels: Sequence[str] = ()
    ) -> Counter:
        return self._declare(Counter, name, help_text, labels)

    def gauge(
        self, name: str, help_text: str = "", labels: Sequence[str] = ()
    ) -> Gauge:
        return self._declare(Gauge, name, help_text, labels)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, Histogram):
                    raise ValueError(f"{name} already registered as "
                                     f"{existing.kind}")
                return existing
            metric = Histogram(name, help_text, labels, self._lock, buckets)
            self._metrics[name] = metric
            return metric

    def _declare(self, cls, name, help_text, labels):
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if type(existing) is not cls:
                    raise ValueError(
                        f"{name} already registered as {existing.kind}"
                    )
                return existing
            metric = cls(name, help_text, labels, self._lock)
            self._metrics[name] = metric
            return metric

    # -- export --------------------------------------------------------

    def _families(self) -> List[_Metric]:
        with self._lock:
            return [self._metrics[k] for k in sorted(self._metrics)]

    def samples(self) -> List[Tuple[str, Dict[str, str], float]]:
        """Flat ``(name, labels, value)`` samples, histograms expanded
        into ``_bucket``/``_sum``/``_count`` series -- the same shape
        :func:`parse_prometheus` returns, enabling round-trip tests."""
        out: List[Tuple[str, Dict[str, str], float]] = []
        for metric in self._families():
            names = metric.label_names
            for values, child in metric._child_items():
                base = dict(zip(names, values))
                if isinstance(metric, Histogram):
                    cumulative = 0
                    for bound, count in zip(
                        child.buckets + (math.inf,), child.counts
                    ):
                        cumulative += count
                        labels = dict(base)
                        labels["le"] = _format_value(bound)
                        out.append(
                            (metric.name + "_bucket", labels, float(cumulative))
                        )
                    out.append((metric.name + "_sum", base, child.total))
                    out.append(
                        (metric.name + "_count", dict(base), float(child.count))
                    )
                else:
                    out.append((metric.name, base, child.value))
        return out

    def to_prometheus(self) -> str:
        """Prometheus text exposition format."""
        return render_prometheus(self.to_json())

    def to_json(self) -> Dict:
        """Versioned JSON snapshot (samples + family metadata)."""
        return {
            "schema": METRICS_SCHEMA,
            "families": [
                {
                    "name": m.name,
                    "kind": m.kind,
                    "help": m.help,
                    "labels": list(m.label_names),
                }
                for m in self._families()
            ],
            "samples": [
                {"name": name, "labels": labels, "value": value}
                for name, labels, value in self.samples()
            ],
        }


def render_prometheus(snapshot: Dict) -> str:
    """Render exposition text from a :meth:`MetricsRegistry.to_json`
    snapshot.

    Sessions export only the JSON form; the text form is rendered on
    demand from it (``ObservabilityData.prometheus``), keeping the
    per-compile export path off the hot loop.  Sample order and label
    order come straight from the snapshot, so the output is byte-equal
    to rendering from the live registry.
    """
    if not snapshot:
        return ""
    samples = snapshot.get("samples", [])
    lines: List[str] = []
    for family in snapshot.get("families", []):
        name, kind = family["name"], family["kind"]
        lines.append(f"# HELP {name} {family['help']}")
        lines.append(f"# TYPE {name} {kind}")
        wanted = (
            {name + "_bucket", name + "_sum", name + "_count"}
            if kind == "histogram"
            else {name}
        )
        for sample in samples:
            if sample["name"] not in wanted:
                continue
            label_txt = ""
            if sample["labels"]:
                inner = ",".join(
                    f'{key}="{_escape(value)}"'
                    for key, value in sample["labels"].items()
                )
                label_txt = "{" + inner + "}"
            lines.append(
                f"{sample['name']}{label_txt} "
                f"{_format_value(sample['value'])}"
            )
    return "\n".join(lines) + ("\n" if lines else "")


def parse_prometheus(text: str) -> List[Tuple[str, Dict[str, str], float]]:
    """Parse exposition text back into ``(name, labels, value)`` samples.

    Supports exactly what :meth:`MetricsRegistry.to_prometheus` emits
    (enough for round-trip testing and simple scrape assertions).
    """
    samples: List[Tuple[str, Dict[str, str], float]] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        name_part, _, value_part = line.rpartition(" ")
        if not name_part:
            raise ValueError(f"malformed sample line: {raw!r}")
        labels: Dict[str, str] = {}
        name = name_part
        if "{" in name_part:
            name, _, rest = name_part.partition("{")
            body = rest.rsplit("}", 1)[0]
            labels = _parse_labels(body)
        value = float(value_part.replace("+Inf", "inf").replace("-Inf", "-inf"))
        samples.append((name, labels, value))
    return samples


def _parse_labels(body: str) -> Dict[str, str]:
    labels: Dict[str, str] = {}
    i = 0
    while i < len(body):
        eq = body.index("=", i)
        key = body[i:eq].strip().lstrip(",").strip()
        assert body[eq + 1] == '"', "label values must be quoted"
        j = eq + 2
        chunks: List[str] = []
        while body[j] != '"':
            if body[j] == "\\":
                nxt = body[j + 1]
                chunks.append(
                    {"n": "\n", "\\": "\\", '"': '"'}.get(nxt, "\\" + nxt)
                )
                j += 2
            else:
                chunks.append(body[j])
                j += 1
        labels[key] = "".join(chunks)
        i = j + 1
    return labels
