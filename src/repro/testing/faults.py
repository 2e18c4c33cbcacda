"""Deterministic, seedable fault injection (failpoints).

Production engines earn their resilience claims by *exercising* every
failure path, not by hoping.  This module provides **failpoints**:
named hooks compiled into the engine's hot paths (the evaluator's BGP
step, ``Graph.add_all``, the endpoint's parse step) that tests arm to
inject latency or exceptions — deterministically, under a seed
(``tests/concurrency/`` drives them under load).

Design constraints:

* **zero overhead when disarmed** — call sites guard with the
  module-level :data:`ACTIVE` flag (a plain bool read) before calling
  :func:`fire`, so the un-instrumented fast path costs one attribute
  load;
* **deterministic** — probabilistic firing draws from a per-failpoint
  ``random.Random(seed)``, and ``skip_first`` / ``max_hits`` windows
  are exact hit counts, so a failing schedule replays identically;
* **scoped** — a failpoint can be restricted to a set of threads
  (``only_threads``), so a storm test injects faults into its writer
  while its readers stay healthy.

Usage::

    from repro.testing import faults

    with faults.failpoint("evaluator.step", delay=0.05):
        ...        # every BGP evaluation now takes an extra 50ms

    with faults.failpoint("graph.add_all.step", raises=RuntimeError,
                          skip_first=10):
        ...        # the 11th triple of the batch explodes

Call sites are instrumented as::

    if faults.ACTIVE:
        faults.fire("graph.add_all.step")
"""

from __future__ import annotations

import random
import threading
import time
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set

__all__ = ["ACTIVE", "FAILPOINTS", "FaultInjected", "failpoint", "fire"]

#: Fast-path guard: ``True`` iff at least one failpoint is armed.
#: Instrumented call sites read this before calling :func:`fire`.
ACTIVE = False


class FaultInjected(RuntimeError):
    """Default exception an armed ``raises=True`` failpoint throws."""


class _Failpoint:
    """One armed failpoint (created by :meth:`FailpointRegistry.arm`)."""

    __slots__ = ("name", "raises", "delay", "probability", "rng",
                 "skip_first", "max_hits", "hits", "fired", "only_threads",
                 "callback")

    def __init__(self, name: str, *,
                 raises: Optional[object] = None,
                 delay: float = 0.0,
                 probability: float = 1.0,
                 seed: int = 0,
                 skip_first: int = 0,
                 max_hits: Optional[int] = None,
                 only_threads: Optional[Sequence[threading.Thread]] = None,
                 callback: Optional[Callable[[], None]] = None) -> None:
        self.name = name
        self.raises = raises
        self.delay = delay
        self.probability = probability
        self.rng = random.Random(seed)
        self.skip_first = skip_first
        self.max_hits = max_hits
        self.hits = 0       # times the site was reached (post thread filter)
        self.fired = 0      # times an effect was actually injected
        self.only_threads: Optional[Set[threading.Thread]] = (
            set(only_threads) if only_threads is not None else None)
        self.callback = callback

    def _should_fire(self) -> bool:
        if self.only_threads is not None \
                and threading.current_thread() not in self.only_threads:
            return False
        self.hits += 1
        if self.hits <= self.skip_first:
            return False
        if self.max_hits is not None and self.fired >= self.max_hits:
            return False
        if self.probability < 1.0 and self.rng.random() >= self.probability:
            return False
        self.fired += 1
        return True

    def trigger(self) -> None:
        if not self._should_fire():
            return
        if self.callback is not None:
            self.callback()
        if self.delay:
            time.sleep(self.delay)
        if self.raises is not None:
            exc = self.raises
            if exc is True:
                raise FaultInjected(f"failpoint {self.name!r} fired")
            if isinstance(exc, type) and issubclass(exc, BaseException):
                raise exc(f"failpoint {self.name!r} fired")
            if isinstance(exc, BaseException):
                raise exc
            raise FaultInjected(f"failpoint {self.name!r} fired: {exc}")


class FailpointRegistry:
    """The process-wide registry of armed failpoints.

    Arming and disarming hold a mutex; :meth:`fire` reads the dict
    without one (assignment is atomic and tests arm before spawning
    load threads), keeping the armed fast path cheap too.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._points: Dict[str, _Failpoint] = {}

    def arm(self, name: str, **options) -> _Failpoint:
        """Arm ``name``; see :class:`_Failpoint` for the options."""
        global ACTIVE
        point = _Failpoint(name, **options)
        with self._lock:
            self._points[name] = point
            ACTIVE = True
        return point

    def disarm(self, name: str) -> None:
        global ACTIVE
        with self._lock:
            self._points.pop(name, None)
            if not self._points:
                ACTIVE = False

    def reset(self) -> None:
        global ACTIVE
        with self._lock:
            self._points.clear()
            ACTIVE = False

    def get(self, name: str) -> Optional[_Failpoint]:
        return self._points.get(name)

    def fire(self, name: str) -> None:
        point = self._points.get(name)
        if point is not None:
            point.trigger()

    def armed(self) -> List[str]:
        with self._lock:
            return sorted(self._points)


#: The process-wide failpoint registry.
FAILPOINTS = FailpointRegistry()


def fire(name: str) -> None:
    """Trigger failpoint ``name`` if armed (call sites guard on
    :data:`ACTIVE` first, so this is never reached when disarmed)."""
    FAILPOINTS.fire(name)


class failpoint:
    """Context manager arming one failpoint for a ``with`` block.

    >>> from repro.testing import faults
    >>> with faults.failpoint("demo.site", raises=KeyError):
    ...     faults.fire("demo.site")
    Traceback (most recent call last):
        ...
    KeyError: "failpoint 'demo.site' fired"
    >>> faults.ACTIVE
    False
    """

    def __init__(self, name: str, **options) -> None:
        self.name = name
        self.options = options
        self.point: Optional[_Failpoint] = None

    def __enter__(self) -> _Failpoint:
        self.point = FAILPOINTS.arm(self.name, **self.options)
        return self.point

    def __exit__(self, *_exc) -> None:
        FAILPOINTS.disarm(self.name)
