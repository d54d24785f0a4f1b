"""Outside-in layer ledger: host self time and work counts per layer.

The simulator is left untouched.  :meth:`Ledger.install` wraps every
function and method that the layer packages define (public and
private, since the event loop enters a layer through its private
callbacks) and rebinds each wrapped function wherever a ``repro``
module imported it by name.  :meth:`Ledger.uninstall` puts the
originals back.

Each wrapper records a span on an in-memory stack while a replay runs
under :meth:`Ledger.replay`: a span's self time is its duration minus
the durations of the spans it encloses.  Generator functions (the
simulation's processes) get a generator wrapper that brackets every
resume, so time spent inside a process body is charged to the layer
that defines it rather than to the event loop that resumed it.  Time
outside every layer span (the harness, and code of unlisted packages
called from it) is the replay root's self time, reported as
unattributed.  Layer self times plus the unattributed time add up to
the replay's wall time by construction.

Spans are aggregated as they close, per function: calls, self seconds,
and entries (calls whose caller was in another layer).  Nothing is
written until the worker reports the totals at the end.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import sys
import time
from contextlib import contextmanager

# Layer name -> module prefixes, named after the ``repro`` packages.
LAYERS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("sim", ("repro.sim",)),
    ("net", ("repro.net",)),
    ("routing", ("repro.routing", "repro.topology.routebook")),
    ("memory", ("repro.memory",)),
    ("storage", ("repro.storage",)),
    ("dataplane", ("repro.dataplane",)),
    ("platform", ("repro.platform", "repro.scheduler", "repro.functions")),
    ("telemetry", ("repro.telemetry",)),
    ("traces", ("repro.traces",)),
)
LAYER_NAMES = tuple(name for name, _prefixes in LAYERS)
UNATTRIBUTED = "unattributed"

# Dunder methods worth a span: constructors and iteration protocols.
# Comparison, hashing and repr hooks are left alone.
_DUNDERS = frozenset(
    {"__init__", "__post_init__", "__call__", "__iter__", "__next__"}
)


def layer_of(module_name: str):
    """The layer a module belongs to, or ``None`` for unlisted modules."""
    for layer, prefixes in LAYERS:
        for prefix in prefixes:
            if module_name == prefix or module_name.startswith(prefix + "."):
                return layer
    return None


def _import_layer_modules() -> None:
    """Import every submodule of the layer packages before wrapping."""
    for _layer, prefixes in LAYERS:
        for prefix in prefixes:
            package = importlib.import_module(prefix)
            if not hasattr(package, "__path__"):
                continue
            for info in pkgutil.walk_packages(
                package.__path__, prefix=prefix + "."
            ):
                importlib.import_module(info.name)


class Ledger:
    """Per-function span aggregates for the layers in :data:`LAYERS`."""

    def __init__(self) -> None:
        # Open spans, innermost last: [layer, child seconds].
        self._stack: list[list] = []
        # "module:qualname" -> [layer, calls, self seconds, entries]
        self.stats: dict[str, list] = {}
        self._patches: list[tuple[object, str, object]] = []
        self._root_self = 0.0
        self.wall_s = 0.0

    # -- wrapping ---------------------------------------------------------
    def _wrap(self, fn, layer: str):
        key = f"{fn.__module__}:{fn.__qualname__}"
        stat = self.stats.setdefault(key, [layer, 0, 0.0, 0])
        stack = self._stack
        perf = time.perf_counter

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                if stack:
                    stat[1] += 1
                    if stack[-1][0] != layer:
                        stat[3] += 1
                inner = fn(*args, **kwargs)
                value = None
                error = None
                while True:
                    if stack:
                        frame = [layer, 0.0]
                        stack.append(frame)
                        start = perf()
                        try:
                            if error is None:
                                target = inner.send(value)
                            else:
                                target = inner.throw(error)
                        except StopIteration as stop:
                            return stop.value
                        finally:
                            duration = perf() - start
                            stack.pop()
                            stat[2] += duration - frame[1]
                            if stack:
                                stack[-1][1] += duration
                    elif error is None:
                        try:
                            target = inner.send(value)
                        except StopIteration as stop:
                            return stop.value
                    else:
                        try:
                            target = inner.throw(error)
                        except StopIteration as stop:
                            return stop.value
                    try:
                        value = yield target
                        error = None
                    except GeneratorExit:
                        inner.close()
                        raise
                    except BaseException as exc:  # forwarded into inner
                        value = None
                        error = exc

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            stat[1] += 1
            if stack[-1][0] != layer:
                stat[3] += 1
            frame = [layer, 0.0]
            stack.append(frame)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf() - start
                stack.pop()
                stat[2] += duration - frame[1]
                stack[-1][1] += duration

        return wrapper

    def _patch(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def install(self) -> None:
        """Wrap the layer functions and rebind them across ``repro``."""
        if self._patches:
            raise RuntimeError("ledger already installed")
        _import_layer_modules()
        wrapped: dict[int, object] = {}
        for module_name, module in sorted(sys.modules.items()):
            layer = layer_of(module_name)
            if layer is None:
                continue
            for name, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module_name:
                    continue
                if inspect.isfunction(obj):
                    wrapper = self._wrap(obj, layer)
                    wrapped[id(obj)] = wrapper
                    self._patch(module, name, wrapper)
                elif inspect.isclass(obj):
                    self._wrap_class(obj, layer)
        # Rebind names other modules imported with ``from x import f``.
        for module_name, module in sorted(sys.modules.items()):
            if not module_name.startswith("repro"):
                continue
            for name, obj in list(vars(module).items()):
                wrapper = wrapped.get(id(obj))
                if wrapper is not None and obj is not wrapper:
                    self._patch(module, name, wrapper)

    def _wrap_class(self, cls, layer: str) -> None:
        for name, attr in list(vars(cls).items()):
            if name.startswith("__") and name not in _DUNDERS:
                continue
            if isinstance(attr, staticmethod):
                self._patch(
                    cls, name, staticmethod(self._wrap(attr.__func__, layer))
                )
            elif isinstance(attr, classmethod):
                self._patch(
                    cls, name, classmethod(self._wrap(attr.__func__, layer))
                )
            elif inspect.isfunction(attr):
                self._patch(cls, name, self._wrap(attr, layer))

    def uninstall(self) -> None:
        """Restore every original function, newest patch first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- measuring --------------------------------------------------------
    @contextmanager
    def replay(self):
        """Open the root span: everything inside is attributed."""
        if self._stack:
            raise RuntimeError("ledger replay already open")
        root = [UNATTRIBUTED, 0.0]
        self._stack.append(root)
        start = time.perf_counter()
        try:
            yield self
        finally:
            duration = time.perf_counter() - start
            self._stack.pop()
            self._root_self += duration - root[1]
            self.wall_s += duration

    def harness(self, fn):
        """Wrap a benchmark callback that runs inside a layer's span.

        Its self time counts as unattributed, not as the caller's.
        """
        return self._wrap(fn, UNATTRIBUTED)

    def layer_self_s(self) -> dict[str, float]:
        """Self seconds per layer, plus the unattributed time."""
        totals = dict.fromkeys(LAYER_NAMES + (UNATTRIBUTED,), 0.0)
        for layer, _calls, self_s, _entries in self.stats.values():
            totals[layer] += self_s
        totals[UNATTRIBUTED] += self._root_self
        return totals

    def calls(self, key: str) -> int:
        """Calls of a wrapped function; KeyError if it was not wrapped."""
        return self.stats[key][1]

    def entries(self, key: str) -> int:
        """Calls from another layer; KeyError if it was not wrapped."""
        return self.stats[key][3]

    def rows(self) -> list[dict]:
        """Per-function totals of every function that ran, slowest first."""
        return sorted(
            (
                {"fn": key, "layer": layer, "calls": calls,
                 "self_ms": self_s * 1e3, "entries": entries}
                for key, (layer, calls, self_s, entries) in self.stats.items()
                if calls
            ),
            key=lambda row: -row["self_ms"],
        )
