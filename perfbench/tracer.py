"""Outside-in span tracer for the benchmark.

The program under test is not edited: the tracer replaces named functions in
every module namespace of the package that binds them (modules import each
other with ``from .x import y``, so one function can be bound under several
names) and restores the originals afterwards.  Each call records a span
(name, start, end, parent span) in flat in-memory arrays; the
per-function summary is computed once, when the run ends.

A layer's self time is its span durations minus the part covered by its
child spans.  Its total time counts only the outermost of nested calls of
the same function, so recursion is not counted twice.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from dataclasses import dataclass


@dataclass
class LayerStats:
    """Summed spans of one traced function."""

    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0


class Tracer:
    """Records nested spans around wrapped functions.

    ``clock`` is injectable so the self-time arithmetic can be tested on a
    scripted call tree.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_outer = array("b")  # 1 unless nested inside the same function
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self._active: dict[int, int] = {}
        self.counters: dict[str, float] = {}
        self.hook_errors: dict[str, str] = {}
        self._patches: list[tuple[object, str, object]] = []

    def count(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + value

    def wrap(self, name: str, fn, on_return=None):
        """Return ``fn`` wrapped in a span; ``on_return(tracer, result)`` runs
        after a successful call, outside the span.  A result it cannot read
        (the function's return type changed) is noted in ``hook_errors``."""
        name_id = self._name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.span_start)
            depth = self._active.get(name_id, 0)
            self.span_name.append(name_id)
            self.span_parent.append(self._stack[-1] if self._stack else -1)
            self.span_outer.append(1 if depth == 0 else 0)
            self.span_end.append(0.0)
            self._stack.append(idx)
            self._active[name_id] = depth + 1
            self.span_start.append(self.clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.span_end[idx] = self.clock()
                self._stack.pop()
                self._active[name_id] = depth
            if on_return is not None:
                try:
                    on_return(self, result)
                except (AttributeError, TypeError) as exc:
                    self.hook_errors[name] = repr(exc)
            return result

        return traced

    def install(self, package: str, targets, hooks=None) -> list[str]:
        """Wrap each ``"module.function"`` target of ``package``.

        Every loaded module of the package that binds the original function
        gets the wrapper.  Returns the targets that do not exist; they are
        reported, not raised, so a later refactor that removes a function
        cannot crash the run.
        """
        hooks = hooks or {}
        modules = [
            mod for key, mod in sorted(sys.modules.items())
            if mod is not None and (key == package or key.startswith(package + "."))
        ]
        absent = []
        for target in targets:
            module_name, _, func_name = target.rpartition(".")
            home = sys.modules.get(f"{package}.{module_name}")
            original = getattr(home, func_name, None) if home is not None else None
            if not callable(original):
                absent.append(target)
                continue
            wrapper = self.wrap(target, original, hooks.get(target))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        return absent

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def __len__(self) -> int:
        return len(self.span_start)

    def layer_stats(self) -> dict[str, LayerStats]:
        """Calls, self time and total time per traced function."""
        n = len(self.span_start)
        child = [0.0] * n
        for i in range(n):
            parent = self.span_parent[i]
            if parent >= 0:
                child[parent] += self.span_end[i] - self.span_start[i]
        stats = {name: LayerStats() for name in self.names}
        for i in range(n):
            dur = self.span_end[i] - self.span_start[i]
            s = stats[self.names[self.span_name[i]]]
            s.calls += 1
            s.self_s += dur - child[i]
            if self.span_outer[i]:
                s.total_s += dur
        return stats

    def root_time(self) -> float:
        """Wall time covered by spans that have no traced parent."""
        return sum(
            self.span_end[i] - self.span_start[i]
            for i in range(len(self.span_start))
            if self.span_parent[i] < 0
        )
