"""Counters, gauges, fixed-bucket histograms, and the registry.

The registry is **process-wide but injectable**: library code asks
:func:`registry` for the current one, tests and benchmarks swap it with
:func:`set_registry` / :func:`use_registry`, and a :class:`NullRegistry`
turns every instrument into a shared no-op so instrumented code runs
with metrics disabled at (near-)zero cost. Setting ``REPRO_OBS=off`` in
the environment makes the no-op registry the process default.

Hot paths resolve their instruments **once** — either at object
construction (the delivery engine) or through :func:`bind`, which
re-resolves only when the global registry identity changes — so the
per-event cost is one bound-method call.

Concurrency: instrument *updates* are plain Python attributes mutated
without locks. The simulator is synchronous; under threads the
single-opcode int/float adds are GIL-coalesced, which is the usual
"good enough for monitoring" guarantee (documented, and pinned by
``tests/obs/test_metrics.py``) — not a synchronisation primitive.
*Structural* operations (interning, ``merge_state``, ``snapshot``,
``to_state``) are serialized on a per-registry lock so live telemetry
merges never tear a concurrent export.
"""

from __future__ import annotations

import os
import threading
from bisect import bisect_left
from contextlib import contextmanager
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from repro.obs import names as _names

_DEFAULT_BUCKETS: Tuple[float, ...] = _names.COUNT_BUCKETS


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "help", "_value")

    kind = _names.COUNTER

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self._value += amount

    @property
    def value(self) -> int:
        return self._value

    def snapshot(self) -> Dict[str, object]:
        return {"kind": self.kind, "name": self.name, "value": self._value}

    def to_state(self) -> Dict[str, object]:
        """Compact serializable form, mergeable across processes."""
        return {"kind": self.kind, "name": self.name, "help": self.help,
                "value": self._value}

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "Counter":
        counter = cls(str(state["name"]), help=str(state.get("help", "")))
        counter._value = int(state["value"])  # type: ignore[arg-type]
        return counter

    def merge(self, other: "Counter") -> None:
        """Fold another process's count into this one (sums)."""
        if other.name != self.name:
            raise ValueError(
                f"cannot merge counter {other.name!r} into {self.name!r}")
        self._value += other._value


class Gauge:
    """A value that goes up and down (current level, not a rate)."""

    __slots__ = ("name", "help", "_value")

    kind = _names.GAUGE

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._value = 0.0

    def set(self, value: float) -> None:
        self._value = value

    def inc(self, amount: float = 1.0) -> None:
        self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self._value -= amount

    @property
    def value(self) -> float:
        return self._value

    def snapshot(self) -> Dict[str, object]:
        return {"kind": self.kind, "name": self.name, "value": self._value}

    def to_state(self) -> Dict[str, object]:
        """Compact serializable form, mergeable across processes."""
        return {"kind": self.kind, "name": self.name, "help": self.help,
                "value": self._value}

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "Gauge":
        gauge = cls(str(state["name"]), help=str(state.get("help", "")))
        gauge._value = float(state["value"])  # type: ignore[arg-type]
        return gauge

    def merge(self, other: "Gauge") -> None:
        """Fold another process's level into this one (sums: per-process
        queue depths and the like add up to the fleet-wide level)."""
        if other.name != self.name:
            raise ValueError(
                f"cannot merge gauge {other.name!r} into {self.name!r}")
        self._value += other._value


class Histogram:
    """Fixed-bucket histogram (Prometheus-style cumulative export).

    ``buckets`` are inclusive upper bounds in ascending order; an
    implicit +Inf bucket catches the rest. Bucket counts are stored
    non-cumulative internally and cumulated at export time.
    """

    __slots__ = ("name", "help", "buckets", "_counts", "_sum", "_count")

    kind = _names.HISTOGRAM

    def __init__(self, name: str, help: str = "",
                 buckets: Optional[Sequence[float]] = None):
        bounds = tuple(buckets if buckets is not None else _DEFAULT_BUCKETS)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if list(bounds) != sorted(set(bounds)):
            raise ValueError("bucket bounds must be strictly ascending")
        self.name = name
        self.help = help
        self.buckets = bounds
        self._counts = [0] * (len(bounds) + 1)  # +1: the +Inf bucket
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        self._counts[bisect_left(self.buckets, value)] += 1
        self._sum += value
        self._count += 1

    def observe_many(self, values, counts) -> None:
        """Record a whole array of observations in one bulk update:
        ``counts[i]`` observations of each ``values[i]``.

        Equivalent to that many :meth:`observe` calls — bucket
        assignment uses the same left-bisect rule, and the sum agrees up
        to float rounding — but costs one ``searchsorted`` +
        ``bincount`` instead of a Python loop. The batch sweep feeds its
        tallied contender counts and clearing prices through here.
        """
        import numpy as np
        arr = np.asarray(values, dtype=np.float64)
        if arr.size == 0:
            return
        weights = np.asarray(counts, dtype=np.int64)
        idx = np.searchsorted(self.buckets, arr, side="left")
        added = np.bincount(idx, weights=weights,
                            minlength=len(self.buckets) + 1)
        for i, extra in enumerate(added.tolist()):
            if extra:
                self._counts[i] += int(extra)
        self._sum += float(arr @ weights)
        self._count += int(weights.sum())

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile from the bucket counts.

        Prometheus-style: find the bucket the target rank falls in and
        interpolate linearly inside it (the lower edge of the first
        bucket is 0). The estimate is only as fine as the bucket bounds
        — pick buckets that bracket the latencies you care about (e.g.
        :data:`repro.obs.names.LATENCY_BUCKETS` for request latencies).
        Ranks landing in the +Inf bucket clamp to the highest finite
        bound. Returns 0.0 for an empty histogram.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if self._count == 0:
            return 0.0
        rank = q * self._count
        running = 0
        lower = 0.0
        for bound, count in zip(self.buckets, self._counts):
            if running + count >= rank:
                if count == 0:
                    # The rank sits exactly on the cumulative boundary:
                    # the quantile is the *previous* bound, not this
                    # empty bucket's upper edge. Returning ``bound``
                    # here would make quantiles of a merged histogram
                    # (whose empty buckets land in different places)
                    # disagree with the single-registry answer.
                    return lower
                return lower + (bound - lower) * (rank - running) / count
            running += count
            lower = bound
        return self.buckets[-1]

    def percentiles(self, *qs: float) -> Dict[str, float]:
        """``{"p50": ..., "p95": ...}`` for the requested quantiles
        (p50/p95/p99 when called with no arguments)."""
        wanted = qs or (0.50, 0.95, 0.99)
        return {
            f"p{round(q * 100):d}": self.quantile(q) for q in wanted
        }

    def bucket_counts(self) -> Tuple[Tuple[float, int], ...]:
        """Cumulative ``(upper_bound, count)`` pairs, +Inf last."""
        pairs = []
        running = 0
        for bound, count in zip(self.buckets, self._counts):
            running += count
            pairs.append((bound, running))
        pairs.append((float("inf"), running + self._counts[-1]))
        return tuple(pairs)

    def snapshot(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "name": self.name,
            "count": self._count,
            "sum": self._sum,
            # "+Inf" as a string: float inf is not strict JSON.
            "buckets": [
                ["+Inf" if b == float("inf") else b, c]
                for b, c in self.bucket_counts()
            ],
        }

    def to_state(self) -> Dict[str, object]:
        """Compact serializable form, mergeable across processes.

        Unlike :meth:`snapshot` (Prometheus-style *cumulative* pairs),
        this carries the raw non-cumulative per-bucket counts and the
        exact bounds: the representation a receiving process needs to
        reconstruct a histogram whose interpolated quantiles are
        identical to the originals' — merged quantiles then match the
        single-registry answer on identical samples by construction.
        """
        return {
            "kind": self.kind,
            "name": self.name,
            "help": self.help,
            "buckets": list(self.buckets),
            "counts": list(self._counts),
            "sum": self._sum,
            "count": self._count,
        }

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "Histogram":
        bounds = [float(b) for b in state["buckets"]]  # type: ignore[union-attr]
        hist = cls(str(state["name"]), help=str(state.get("help", "")),
                   buckets=bounds)
        counts = [int(c) for c in state["counts"]]  # type: ignore[union-attr]
        if len(counts) != len(bounds) + 1:
            raise ValueError(
                f"histogram state for {hist.name!r} carries "
                f"{len(counts)} counts for {len(bounds)} bounds "
                f"(expected bounds + 1 for the +Inf bucket)")
        hist._counts = counts
        hist._sum = float(state["sum"])  # type: ignore[arg-type]
        hist._count = int(state["count"])  # type: ignore[arg-type]
        return hist

    def merge(self, other: "Histogram") -> None:
        """Fold another process's observations into this histogram.

        Requires identical bucket bounds: merging mismatched layouts
        would silently corrupt every quantile, so it is an error.
        The bucket-count list is replaced in one assignment (never
        mutated in place), so a concurrent reader sees either the old
        counts or the new — each bucket is monotone across snapshots,
        never half-merged.
        """
        if other.name != self.name:
            raise ValueError(
                f"cannot merge histogram {other.name!r} into "
                f"{self.name!r}")
        if other.buckets != self.buckets:
            raise ValueError(
                f"histogram {self.name!r}: refusing to merge mismatched "
                f"bucket bounds {other.buckets} into {self.buckets}")
        merged = [mine + theirs for mine, theirs
                  in zip(self._counts, other._counts)]
        self._sum += other._sum
        self._count += other._count
        self._counts = merged


Instrument = TypeVar("Instrument", Counter, Gauge, Histogram)

_STATE_KINDS = {
    Counter.kind: Counter,
    Gauge.kind: Gauge,
    Histogram.kind: Histogram,
}


def instrument_from_state(state: Dict[str, object]):
    """Rebuild a Counter/Gauge/Histogram from its ``to_state`` form."""
    kind = state.get("kind")
    cls = _STATE_KINDS.get(str(kind))
    if cls is None:
        raise ValueError(f"unknown instrument kind {kind!r}")
    return cls.from_state(state)


class MetricsRegistry:
    """Interns instruments by name; the unit every exporter reads.

    Instruments are created on first request and shared thereafter.
    Help text and histogram buckets default from the
    :mod:`repro.obs.names` catalog, so call sites just name the metric.
    Requesting an existing name as a different kind raises — one name,
    one schema, process-wide.

    Structural operations — interning, cross-process merges, snapshots
    and state dumps — are serialized on a per-registry lock, so a
    telemetry thread folding worker registries in can never tear a
    concurrent ``snapshot()``/``to_prometheus`` read (pinned by
    ``tests/obs/test_metrics.py``). Individual ``inc``/``observe``
    calls stay lock-free: hot paths hold instrument references and the
    single-opcode updates are GIL-coalesced, the usual "good enough for
    monitoring" guarantee.
    """

    enabled = True

    def __init__(self, name: str = "default"):
        self.name = name
        self._instruments: Dict[str, object] = {}
        self._structural_lock = threading.RLock()

    # -- instrument factories ---------------------------------------------

    def counter(self, name: str, help: str = "") -> Counter:
        return self._intern(name, Counter, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._intern(name, Gauge, help)

    def histogram(self, name: str, help: str = "",
                  buckets: Optional[Sequence[float]] = None) -> Histogram:
        spec = _names.METRICS.get(name)
        if buckets is None and spec is not None:
            buckets = spec.buckets
        return self._intern(name, Histogram, help, buckets=buckets)

    def _intern(self, name, cls, help, **kwargs):
        with self._structural_lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}, requested {cls.kind}"
                    )
                return existing
            if not help:
                spec = _names.METRICS.get(name)
                help = spec.help if spec is not None else ""
            instrument = cls(name, help=help, **kwargs) if kwargs \
                else cls(name, help=help)
            self._instruments[name] = instrument
            return instrument

    # -- reads -------------------------------------------------------------

    def instruments(self) -> Dict[str, object]:
        with self._structural_lock:
            return dict(self._instruments)

    def names(self) -> Tuple[str, ...]:
        with self._structural_lock:
            return tuple(sorted(self._instruments))

    def get(self, name: str) -> Optional[object]:
        return self._instruments.get(name)

    def value(self, name: str) -> float:
        """Counter/gauge value or histogram observation count; 0 when
        the instrument was never touched."""
        instrument = self._instruments.get(name)
        if instrument is None:
            return 0
        if isinstance(instrument, Histogram):
            return instrument.count
        return instrument.value  # type: ignore[union-attr]

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        with self._structural_lock:
            return {
                name: instrument.snapshot()  # type: ignore[attr-defined]
                for name, instrument in sorted(self._instruments.items())
            }

    def to_state(self) -> List[Dict[str, object]]:
        """Every instrument's ``to_state`` form — what a shard worker
        process ships back to the parent at shutdown (and what the
        telemetry plane streams mid-run)."""
        with self._structural_lock:
            return [
                instrument.to_state()  # type: ignore[attr-defined]
                for _, instrument in sorted(self._instruments.items())
            ]

    def merge_state(self, states: Iterable[Dict[str, object]]) -> None:
        """Fold another registry's ``to_state`` dump into this one.

        Instruments are interned by name first (with the incoming help
        text and bucket bounds), so existing instrument objects — and
        therefore every reference hot paths resolved before the merge —
        see the merged totals. The whole fold happens under the
        structural lock, so concurrent snapshots observe it atomically.
        """
        with self._structural_lock:
            for state in states:
                incoming = instrument_from_state(state)
                if isinstance(incoming, Histogram):
                    mine: object = self.histogram(
                        incoming.name, help=incoming.help,
                        buckets=incoming.buckets)
                elif isinstance(incoming, Gauge):
                    mine = self.gauge(incoming.name, help=incoming.help)
                else:
                    mine = self.counter(incoming.name, help=incoming.help)
                mine.merge(incoming)  # type: ignore[attr-defined]

    def reset(self) -> None:
        """Drop every instrument (fresh-run semantics for the CLI)."""
        with self._structural_lock:
            self._instruments.clear()


class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, amount: int = 1) -> None:
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        pass

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass

    def observe_many(self, values, counts) -> None:
        pass


class NullRegistry(MetricsRegistry):
    """No-op mode: every request returns a shared inert instrument.

    Instrumented code runs unchanged; nothing is recorded and nothing
    accumulates, so the overhead is one no-op method call per event
    (bounded at <5% on the delivery benchmarks —
    ``benchmarks/bench_obs_overhead.py``).
    """

    enabled = False

    def __init__(self):
        super().__init__(name="null")
        self._counter = _NullCounter("null.counter")
        self._gauge = _NullGauge("null.gauge")
        self._histogram = _NullHistogram("null.histogram")

    def counter(self, name: str, help: str = "") -> Counter:
        return self._counter

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._gauge

    def histogram(self, name: str, help: str = "",
                  buckets: Optional[Sequence[float]] = None) -> Histogram:
        return self._histogram

    def to_state(self) -> List[Dict[str, object]]:
        return []

    def merge_state(self, states: Iterable[Dict[str, object]]) -> None:
        # Merging into the shared inert instruments would mutate them
        # for every caller; no-op mode records nothing, merges nothing.
        pass


NULL_REGISTRY = NullRegistry()

_lock = threading.Lock()
_current: Optional[MetricsRegistry] = None


def _default_registry() -> MetricsRegistry:
    if os.environ.get("REPRO_OBS", "").lower() in ("off", "noop", "0",
                                                   "disabled", "false"):
        return NULL_REGISTRY
    return MetricsRegistry(name="process")


def registry() -> MetricsRegistry:
    """The current process-wide registry (created on first use)."""
    global _current
    if _current is None:
        with _lock:
            if _current is None:
                _current = _default_registry()
    return _current


def set_registry(new: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-wide registry; returns the previous one.

    Objects that resolved instruments before the swap keep writing to
    the old registry (construct them after, or pass a registry in).
    """
    global _current
    with _lock:
        # Inline the default rather than calling registry(): the lock is
        # not reentrant, and registry() would retake it on first use.
        previous = _current if _current is not None else _default_registry()
        _current = new
    return previous


@contextmanager
def use_registry(new: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Scope a registry swap: ``with use_registry(MetricsRegistry()):``."""
    previous = set_registry(new)
    try:
        yield new
    finally:
        set_registry(previous)


def bind(factory: Callable[[MetricsRegistry], Instrument]
         ) -> Callable[[], Instrument]:
    """Late-bound instrument resolution for module-level hot paths.

    Returns a zero-argument callable producing ``factory(registry())``,
    re-invoking the factory only when the global registry identity
    changes — one global read and one identity check per call, so
    module-level functions (the auction, the targeting compiler) stay
    registry-swappable without a dict lookup per event.
    """
    cell: list = [None, None]  # [registry, instrument]

    def resolve() -> Instrument:
        # Read the module global directly — registry() is only needed
        # the first time, before the process default exists. A cell
        # keyed on None can never stick: _current is never reset to
        # None, so the lazy branch runs at most once per process.
        reg = _current
        if reg is None:
            reg = registry()
        if cell[0] is not reg:
            cell[0] = reg
            cell[1] = factory(reg)
        return cell[1]

    return resolve
