"""Measurement primitives shared by the four end-to-end workloads.

Everything here is measured from *outside* ``src/``: op wall-clock
around public calls, ``/proc`` for memory and CPU, and — in traced runs
only — spans recorded by the bench around the calls it makes plus
wrappers installed on a short list of layer-boundary functions that are
resolved by name (a missing name is reported, never fatal, so a
refactor under ``src/`` cannot break the gate).
"""

from __future__ import annotations

import functools
import gc
import hashlib
import importlib
import inspect
import os
import statistics
import sys
import threading
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected" / "digests.json"

# Set-ups per run; the reported ``setup_s`` is their median.
SETUP_REPEATS = 3

_CLK_TCK = os.sysconf("SC_CLK_TCK")


# ---------------------------------------------------------------------------
# Process accounting (/proc; Linux only, like the rest of the gate)
# ---------------------------------------------------------------------------


def peak_rss_mb(pid: int) -> float:
    """High-water resident set (``VmHWM``) of one live process, in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds a live process has used so far."""
    stat = Path(f"/proc/{pid}/stat").read_text()
    # The command name may hold spaces; fields are counted after it.
    fields = stat.rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


# ---------------------------------------------------------------------------
# Correctness: one digest per distinct op
# ---------------------------------------------------------------------------


def digest(payload: str) -> str:
    """The committed identity of one ranked answer."""
    return hashlib.blake2b(payload.encode("utf-8"), digest_size=16).hexdigest()


# ---------------------------------------------------------------------------
# Samples and end-to-end statistics
# ---------------------------------------------------------------------------


@dataclass
class Window:
    """What one measured window produced.

    The gated statistics are *floors*, not averages.  On a shared box an
    op is only ever slowed by its neighbours, for seconds at a time
    (README, "Noise"); with many small ops per window the fastest ones
    ran undisturbed, so they repeat from run to run to a few percent
    where medians and means move by 15-40 %.  The same reasoning is why
    ``timeit`` tells its users to look at ``min()``.
    """

    samples: dict[str, list[float]] = field(default_factory=dict)
    completions: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    wall: float = 0.0

    def record(self, op_class: str, seconds: float, ok: bool) -> None:
        self.attempted += 1
        if ok:
            self.samples.setdefault(op_class, []).append(seconds)
            self.completions.append(time.perf_counter())
        else:
            self.failed += 1

    @property
    def verified(self) -> int:
        return self.attempted - self.failed

    def quantile(self, q: float) -> float:
        """Mean over op classes of the per-class ``q``-quantile (0..1).

        Per class and then averaged: a pooled quantile would sit in the
        gap between class sizes and flip from one class to another.
        """
        out = []
        for values in self.samples.values():
            ordered = sorted(values)
            out.append(ordered[min(len(ordered) - 1, int(q * len(ordered)))])
        return statistics.fmean(out)

    def latency_min(self) -> float:
        """Mean over op classes of the fastest verified op."""
        return self.quantile(0.0)

    def throughput_peak(self) -> float:
        """Ops per round over the wall time of the fastest round.

        A round is one op of every class, so its mix is constant; its
        wall time runs from the previous round's last verified op to its
        own, verification and the collector between rounds included.
        """
        size = len(self.samples)
        done = self.completions
        return max(
            size / (done[i + size] - done[i])
            for i in range(0, len(done) - size, size)
        )


def serial_window(
    run_round: Callable[[Window], None],
    seconds: float,
    min_rounds: int,
) -> Window:
    """Run whole rounds until the next one would overrun ``seconds``.

    Only whole rounds are measured, so every window holds the same mix
    of op classes whatever the machine's speed; ``gc.collect()`` runs
    between rounds (the collector itself stays on) so one round's
    garbage is not billed to the next.
    """
    window = Window()
    rounds = 0
    started = time.perf_counter()
    window.completions.append(started)
    while True:
        elapsed = time.perf_counter() - started
        if rounds >= min_rounds and elapsed + elapsed / rounds > seconds:
            break
        gc.collect()
        run_round(window)
        rounds += 1
    window.wall = time.perf_counter() - started
    return window


def timed_op(
    tracer: "Tracer",
    window: Window,
    op_class: str,
    op: Callable[[], Any],
    verify: Callable[[Any], bool],
) -> Any:
    """Time ``op()``, verify its result outside the timed region.

    An op that raises is a failed op, not a failed benchmark: the
    traceback goes to stderr and the run reports it in ``failed``.
    """
    try:
        with tracer.span(op_class, op=tracer.next_op()) as tracer.last_op_span:
            started = time.perf_counter()
            result = op()
            seconds = time.perf_counter() - started
        ok = verify(result)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        window.record(op_class, 0.0, False)
        return None
    window.record(op_class, seconds, ok)
    return result


# ---------------------------------------------------------------------------
# Tracing (traced runs only)
# ---------------------------------------------------------------------------

# Layer-boundary functions wrapped in traced runs: (module, dotted
# attribute, span name).  Resolved by name before the traced window.
HOOKS = (
    ("repro.api.session", "parse_sql", "db.parser.parse"),
    ("repro.db.provenance", "ProvenanceTable.compute", "db.provenance.compute"),
    ("repro.api.session", "select_diverse_top_k", "core.diversity.select"),
    ("repro.core.mining", "select_diverse_top_k", "core.diversity.select"),
    ("repro.core.attribute_filter", "cluster_attributes", "ml.varclus.cluster"),
    ("repro.ml.hist_forest", "HistRandomForestClassifier.fit", "ml.hist_forest.fit"),
    ("repro.serving.pool", "ProcessPoolBackend.execute", "serving.pool.execute"),
)

# ``StepTimer`` labels an answer already carries, as span names.  They
# are durations without positions, so they become *aggregate* child
# spans of the op (start = the op's start).
STEP_SPANS = {
    "JG Enum.": "core.enumeration",
    "Materialize APTs": "engine.materialize",
    "Feature Selection": "core.feature_selection",
    "Gen. Pat. Cand.": "core.lca",
    "F-score Calc.": "core.fscore",
    "Refine Patterns": "core.refine",
    "Sampling for F1": "core.sampling",
}

# Hooked spans that run inside a ``StepTimer`` step: re-parented under
# that step's aggregate span so the step's self time excludes them.
STEP_OF_HOOK = {
    "ml.varclus.cluster": "core.feature_selection",
    "ml.hist_forest.fit": "core.feature_selection",
    "db.provenance.compute": "engine.materialize",
}


class Tracer:
    """In-memory spans ``[name, start, end, parent, op]`` and counters.

    Disabled (the default) it records nothing, which is how end-to-end
    metrics are measured.  Spans opened off the main thread (the
    front-end runs backend calls in an executor) carry no parent.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self.unresolved: list[str] = []
        self.answered: list[int] = []
        self.last_op_span = -1
        self._stack: list[int] = []
        self._ops = 0
        self._main = threading.get_ident()

    def next_op(self) -> int:
        self._ops += 1
        return self._ops

    @contextmanager
    def span(
        self, name: str, op: int | None = None, detached: bool = False
    ) -> Iterator[int]:
        """Record one span; ``detached`` spans (interleaved asyncio
        clients) neither take nor become a parent."""
        if not self.enabled:
            yield -1
            return
        on_main = not detached and threading.get_ident() == self._main
        parent = self._stack[-1] if on_main and self._stack else None
        if op is None and parent is not None:
            op = self.spans[parent][4]
        index = len(self.spans)
        record = [name, time.perf_counter(), None, parent, op]
        self.spans.append(record)
        if on_main:
            self._stack.append(index)
        try:
            yield index
        finally:
            record[2] = time.perf_counter()
            if on_main:
                self._stack.pop()

    def count(self, name: str, value: float = 1) -> None:
        if self.enabled:
            self.counters[name] = self.counters.get(name, 0) + value

    # -- hooks ----------------------------------------------------------
    def install_hooks(self) -> None:
        """Wrap every hook that resolves; note the ones that do not."""
        for module_name, dotted, span_name in HOOKS:
            try:
                owner: Any = importlib.import_module(module_name)
                *path, attribute = dotted.split(".")
                for part in path:
                    owner = getattr(owner, part)
                raw = inspect.getattr_static(owner, attribute)
            except (ImportError, AttributeError):
                self.unresolved.append(f"{module_name}.{dotted}")
                continue
            if isinstance(raw, classmethod):
                wrapped: Any = classmethod(self._wrap(raw.__func__, span_name))
            else:
                wrapped = self._wrap(raw, span_name)
            setattr(owner, attribute, wrapped)

    def _wrap(self, function: Callable, span_name: str) -> Callable:
        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(span_name):
                return function(*args, **kwargs)

        return traced

    # -- what an answer already reports ----------------------------------
    def absorb_response(self, op_span: int, response: Any) -> None:
        """Attach an answer's ``StepTimer`` steps and counters to its op."""
        if not self.enabled or op_span < 0:
            return
        self.answered.append(op_span)
        _name, start, _end, _parent, op = self.spans[op_span]
        step_index: dict[str, int] = {}
        for label, seconds in response.breakdown.items():
            name = STEP_SPANS.get(label)
            if name is not None:
                step_index[name] = len(self.spans)
                self.spans.append([name, start, start + seconds, op_span, op])
        for record in self.spans[op_span + 1 :]:
            step = STEP_OF_HOOK.get(record[0])
            if record[3] == op_span and step in step_index:
                record[3] = step_index[step]
        for label, value in response.timer.counters().items():
            self.count(label, value)
        self.count("join_graphs_mined", response.join_graphs_mined)
        self.count("mined_graphs_reused", response.mined_graphs_reused)
        self.count("answers", 1)
        cache = response.session_engine and response.session_engine.cache
        if cache is not None:
            self.counters["trie_resident_bytes"] = cache.current_bytes

    # -- reading the trace ------------------------------------------------
    def self_times(self) -> list[float]:
        """Each span's duration minus the part its children cover."""
        own = [record[2] - record[1] for record in self.spans]
        for record in self.spans:
            if record[3] is not None:
                own[record[3]] -= record[2] - record[1]
        return own

    def to_json(self) -> dict:
        """Spans with times in seconds since the first one, to the µs."""
        base = self.spans[0][1] if self.spans else 0.0
        return {
            "columns": ["name", "start", "end", "parent", "op"],
            "spans": [
                [name, round(start - base, 6), round(end - base, 6), parent, op]
                for name, start, end, parent, op in self.spans
            ],
            "counters": self.counters,
            "unresolved_hooks": self.unresolved,
        }
