"""One thread-local observer channel: ambient config plus section sinks.

Every opt-in observer (:mod:`repro.obs.timeline`,
:mod:`repro.obs.popularity`, :mod:`repro.obs.slo`,
:mod:`repro.obs.causal`), the membership sections of
:mod:`repro.obs.membership`, and the ambient batch size of
:mod:`repro.cluster.engine.batch` reach a run the same two ways:

* a harness installs a config for a block (:meth:`Channel.use`) and
  :class:`~repro.cluster.engine.lifecycle.RequestLifecycle` reads the
  innermost one (:meth:`Channel.current`) when its own
  :class:`~repro.cluster.engine.lifecycle.SimulationConfig` field is
  ``None``, so a knob need not be threaded through every call site;
* a run hands each finalized JSON-able section to :meth:`Channel.publish`,
  which appends it to every sink opened with :meth:`Channel.collect` —
  ``run_all`` opens one per manifest key, so sections reach the manifest
  without a return path through the experiment runner.

Both stacks are per thread, so concurrent runs on different threads never
see each other's configs or sections.  Each module binds its public
names to its channel (``use_timeline = TIMELINE.use``, ...).
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Any, Generic, Iterator, TypeVar

__all__ = ["Channel"]

C = TypeVar("C")


class Channel(Generic[C]):
    """Thread-local config stack and nested section sinks for one observer.

    ``config_type`` is what :meth:`use` accepts; ``None`` means the
    channel carries sections only (``use`` then always raises
    ``TypeError``).
    """

    def __init__(self, name: str, config_type: type[C] | None = None) -> None:
        self.name = name
        self.config_type = config_type
        self._local = threading.local()

    def _stack(self, attr: str) -> list:
        stack = getattr(self._local, attr, None)
        if stack is None:
            stack = []
            setattr(self._local, attr, stack)
        return stack

    def current(self) -> C | None:
        """The innermost config installed on this thread, or ``None``."""
        stack = getattr(self._local, "configs", None)
        return stack[-1] if stack else None

    @contextmanager
    def use(self, config: C) -> Iterator[C]:
        """Install ``config`` ambiently on this thread for the block."""
        if self.config_type is None:
            raise TypeError(f"the {self.name} channel carries no config")
        if not isinstance(config, self.config_type):
            raise TypeError(
                f"config must be of type {self.config_type.__name__}, "
                f"got {type(config).__name__}"
            )
        stack = self._stack("configs")
        stack.append(config)
        try:
            yield config
        finally:
            stack.pop()

    @contextmanager
    def collect(
        self, into: list[dict[str, Any]] | None = None
    ) -> Iterator[list[dict[str, Any]]]:
        """Collect every section published on this thread inside the block.

        Collectors nest: an inner one does not hide sections from an
        outer one (both receive every publish), so a session-level sink
        accumulates what per-experiment sinks see.
        """
        sink: list[dict[str, Any]] = into if into is not None else []
        sinks = self._stack("sinks")
        sinks.append(sink)
        try:
            yield sink
        finally:
            # Remove by identity: two empty list sinks compare equal, so
            # ``list.remove`` could detach the wrong one.
            for i in range(len(sinks) - 1, -1, -1):
                if sinks[i] is sink:
                    del sinks[i]
                    break

    def publish(self, section: dict[str, Any]) -> None:
        """Hand one finalized section to every active collector."""
        for sink in getattr(self._local, "sinks", ()):
            sink.append(section)
