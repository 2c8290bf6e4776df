"""Deterministic fault injection for the serving stack.

Every failure path the supervisor, retry, and admission machinery
handle must be reproducibly testable in CI — "kill a worker and hope"
is not a test.  A :class:`FaultPlan` is a small, spawn-safe, seeded
script of :class:`FaultRule`\\s that the backends consult at well-defined
points:

- the parent consults :meth:`FaultPlan.admit` once per request it is
  about to dispatch, advancing a per-shard *request counter* by one
  tick (retries included — so ``every=3`` fires on the 3rd, 6th, ...
  request the shard is asked to execute);
- a spawning worker consults :meth:`FaultPlan.startup_crash` with its
  *incarnation* number (1 for the first spawn, 2 for the first
  restart, ...) before sending its ready handshake.

Fault kinds:

``KILL``
    SIGKILL the shard's worker immediately before dispatching the
    request (the inline backend drops the shard's session instead) —
    exercises death detection, requeue, respawn, and retry.
``DELAY``
    Sleep ``delay_seconds`` before dispatch — exercises deadline
    budgets and queue back-pressure.
``CORRUPT``
    Flip a byte of one reply payload *after* the worker computed its
    checksum — exercises reply verification and retry.
``STARTUP_CRASH``
    The worker exits before its ready handshake — exercises
    ``pool.start()`` partial-failure cleanup and crash-loop
    quarantine.

Rule matching is a pure function of the counters, so the same plan
driven by the same request sequence injects exactly the same faults —
in a unit test, in the chaos benchmark, and in CI.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

KILL = "kill"
DELAY = "delay"
CORRUPT = "corrupt"
STARTUP_CRASH = "startup-crash"

_KINDS = frozenset({KILL, DELAY, CORRUPT, STARTUP_CRASH})


@dataclass(frozen=True)
class FaultRule:
    """One scripted fault.

    ``shard=None`` matches every shard.  ``at`` fires on exactly that
    counter value (1-based); ``every`` fires on every multiple of it;
    ``times`` caps total firings per shard (``None`` = unlimited).  For
    ``STARTUP_CRASH`` the counter is the shard's spawn incarnation, for
    everything else the shard's executed-request counter.
    """

    kind: str
    shard: int | None = None
    at: int | None = None
    every: int | None = None
    times: int | None = None
    delay_seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.at is None and self.every is None:
            raise ValueError("a FaultRule needs 'at' or 'every'")
        if self.at is not None and self.at < 1:
            raise ValueError("'at' is 1-based")
        if self.every is not None and self.every < 1:
            raise ValueError("'every' must be >= 1")

    def _matches(self, tick: int) -> bool:
        if self.at is not None and tick == self.at:
            return True
        return self.every is not None and tick % self.every == 0

    def _firings_before(self, tick: int) -> int:
        """How many times this rule fired on ticks ``<= tick`` (pure)."""
        fired = 0
        if self.at is not None and self.at <= tick:
            fired += 1
        if self.every is not None:
            fired += tick // self.every
        return fired


class FaultPlan:
    """A seeded, deterministic script of faults to inject.

    The plan itself is stateful only in its per-shard counters (and the
    thread lock guarding them); rule matching is pure, so the copy
    shipped to a spawned worker answers :meth:`startup_crash`
    identically to the parent's copy.  ``seed`` is carried for
    provenance (benchmarks record it next to their results) and for
    helpers that derive rule placements from it.
    """

    def __init__(self, rules: tuple[FaultRule, ...] | list[FaultRule] = (),
                 seed: int = 0):
        self.rules = tuple(rules)
        self.seed = seed
        self._lock = threading.Lock()
        self._request_counts: dict[int, int] = {}
        self._fired: dict[int, int] = {}  # rule index -> total firings

    # -- construction helpers -------------------------------------------
    @classmethod
    def kill_every(cls, n: int, times: int | None = None,
                   seed: int = 0) -> "FaultPlan":
        """Kill each shard's worker on every ``n``-th executed request."""
        return cls((FaultRule(kind=KILL, every=n, times=times),), seed=seed)

    # -- parent-side: per-request consultation --------------------------
    def admit(self, shard: int) -> list[FaultRule]:
        """Advance ``shard``'s request counter by one tick; return the
        rules that fire on it."""
        with self._lock:
            tick = self._request_counts.get(shard, 0) + 1
            self._request_counts[shard] = tick
            actions: list[FaultRule] = []
            for index, rule in enumerate(self.rules):
                if rule.kind == STARTUP_CRASH:
                    continue
                if rule.shard is not None and rule.shard != shard:
                    continue
                if not rule._matches(tick):
                    continue
                if rule.times is not None and self._fired.get(index, 0) >= rule.times:
                    continue
                self._fired[index] = self._fired.get(index, 0) + 1
                actions.append(rule)
            return actions

    # -- worker-side: pure incarnation check ----------------------------
    def startup_crash(self, shard: int, incarnation: int) -> bool:
        """Should the ``incarnation``-th spawn of ``shard`` crash before
        its ready handshake?  Pure — safe to answer from the spawned copy
        in the child process."""
        for rule in self.rules:
            if rule.kind != STARTUP_CRASH:
                continue
            if rule.shard is not None and rule.shard != shard:
                continue
            if not rule._matches(incarnation):
                continue
            if rule.times is not None and rule._firings_before(incarnation) > rule.times:
                continue
            return True
        return False

    # -- reporting -------------------------------------------------------
    @property
    def fired_total(self) -> int:
        with self._lock:
            return sum(self._fired.values())

    def describe(self) -> dict:
        """A JSON-ready identity for benchmark provenance."""
        return {
            "seed": self.seed,
            "rules": [
                {
                    "kind": r.kind,
                    "shard": r.shard,
                    "at": r.at,
                    "every": r.every,
                    "times": r.times,
                    "delay_seconds": r.delay_seconds,
                }
                for r in self.rules
            ],
            "fired": self.fired_total,
        }

    # Copy support for spawn: the lock is per-process state.
    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_lock", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()
