"""Per-layer tracing from outside the program.

:func:`install` wraps the public callables at each layer boundary of
the ``repro`` package and re-binds every reference to them that the
loaded modules hold: module globals (so ``from ... import`` bindings
are wrapped too), class attributes, function default arguments (the
candidate strategies are bound as defaults), dataclass field defaults,
and closure cells.  Hot callables only accumulate a call count, total
seconds, and self seconds (total minus the time spent in wrapped
callees); the coarse boundaries (``Session.optimize``, ``Runner.run``)
additionally record spans that share one run id.  Spans stay in memory
until :meth:`Recorder.write` is called at the end of the run.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import sys
import threading
import types
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (layer, counter name, module, owner class or None, attribute, span?)
#: ``owner == "*Extractor"`` wraps the method on every concrete
#: extractor class (the cost table is built eagerly in ``__init__``,
#: so construction is counted as extraction work too).
WRAPPED: Tuple[Tuple[str, str, str, Optional[str], str, bool], ...] = (
    ("api", "api.optimize", "repro.api.session", "Session", "optimize", True),
    ("server", "server.handle_request", "repro.server.app",
     "OptimizationServer", "handle_request", False),
    ("server", "server.execute", "repro.server.queue", "JobQueue",
     "_execute", False),
    ("api", "api.optimize_many", "repro.api.session", "Session",
     "optimize_many", False),
    ("saturation", "saturation.run", "repro.saturation.runner", "Runner",
     "run", True),
    ("saturation", "ematch.search_rule", "repro.saturation.ematch", None,
     "search_rule", False),
    ("egraph", "rewrite.apply", "repro.egraph.rewrite", "Rule", "apply",
     False),
    ("egraph", "rewrite.leaf_scan", "repro.egraph.rewrite", None,
     "var_classes", False),
    ("egraph", "rewrite.leaf_scan", "repro.egraph.rewrite", None,
     "const_classes", False),
    ("egraph", "rewrite.leaf_scan", "repro.egraph.rewrite", None,
     "atom_classes", False),
    ("egraph", "egraph.extract_candidates", "repro.egraph.egraph", "EGraph",
     "extract_candidates", False),
    ("egraph", "egraph.rebuild", "repro.egraph.egraph", "EGraph", "rebuild",
     False),
    ("egraph", "egraph.merge", "repro.egraph.egraph", "EGraph", "merge",
     False),
    ("ir", "ir.shift", "repro.ir.debruijn", None, "shift", False),
    ("ir", "ir.try_unshift", "repro.ir.debruijn", None, "try_unshift",
     False),
    ("extraction", "extraction.extract", "repro.extraction.base",
     "*Extractor", "extract", False),
    ("extraction", "extraction.cost_table", "repro.extraction.base",
     "*Extractor", "__init__", False),
    ("extraction", "extraction.provenance", "repro.extraction.provenance",
     None, "contributing_events", False),
)

LAYERS = ("ir", "egraph", "saturation", "extraction", "api", "server")


class Counter:
    __slots__ = ("calls", "seconds", "self_seconds", "restricted")

    def __init__(self) -> None:
        self.calls = 0
        self.seconds = 0.0
        self.self_seconds = 0.0
        self.restricted = 0


class Recorder:
    """Counters, per-layer self time, and coarse spans of one process."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.counters: Dict[str, Counter] = {}
        self.layer_self: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
        self.spans: List[Dict[str, Any]] = []
        self._local = threading.local()
        self._next_span = 0
        self.epoch = perf_counter()

    def _stack(self) -> List[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def counter(self, name: str) -> Counter:
        return self.counters.setdefault(name, Counter())

    def span(self, name: str, cat: str, start: float, end: float,
             parent: Optional[int], **args: Any) -> int:
        self._next_span += 1
        self.spans.append({
            "id": self._next_span, "parent": parent, "name": name,
            "cat": cat, "start": start, "end": end,
            "run_id": self.run_id, "args": args,
        })
        return self._next_span

    def current_span(self) -> Optional[int]:
        for frame in reversed(self._stack()):
            if frame[1] is not None:
                return frame[1]
        return None

    def wrap(self, fn: Callable, layer: str, name: str,
             spans: bool) -> Callable:
        counter = self.counter(name)
        layer_self = self.layer_self
        stack_of = self._stack
        restrict_aware = name == "ematch.search_rule"
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            # frame = [child seconds, span id reserved for children]
            frame = [0.0, None]
            parent_span = recorder.current_span() if spans else None
            if spans:
                recorder._next_span += 1
                frame[1] = recorder._next_span
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                elapsed = end - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                counter.calls += 1
                counter.seconds += elapsed
                own = elapsed - frame[0]
                counter.self_seconds += own
                layer_self[layer] += own
                if restrict_aware:
                    restrict = args[2] if len(args) > 2 \
                        else kwargs.get("restrict")
                    if restrict is not None:
                        counter.restricted += 1
                if spans:
                    recorder.spans.append({
                        "id": frame[1], "parent": parent_span,
                        "name": name, "cat": layer, "start": start,
                        "end": end, "run_id": recorder.run_id, "args": {},
                    })

        wrapper.__liarbench_wrapped__ = fn
        return wrapper

    def chrome_trace(self) -> dict:
        """Chrome trace-event JSON of the recorded spans."""
        events = [{
            "name": span["name"], "cat": span["cat"], "ph": "X",
            "ts": (span["start"] - self.epoch) * 1e6,
            "dur": (span["end"] - span["start"]) * 1e6,
            "pid": 1, "tid": 1,
            "args": dict(span["args"], run_id=self.run_id,
                         span_id=span["id"], parent=span["parent"]),
        } for span in self.spans]
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.chrome_trace()))


# ---------------------------------------------------------------------------
# re-binding a callable everywhere it is referenced
# ---------------------------------------------------------------------------

def _patch_function(fn: types.FunctionType, old: Any, new: Any) -> None:
    if hasattr(fn, "__liarbench_wrapped__"):
        return  # a wrapper's own reference to its original stays
    if fn.__defaults__ and any(value is old for value in fn.__defaults__):
        fn.__defaults__ = tuple(
            new if value is old else value for value in fn.__defaults__
        )
    if fn.__kwdefaults__:
        for key, value in list(fn.__kwdefaults__.items()):
            if value is old:
                fn.__kwdefaults__[key] = new
    for cell in fn.__closure__ or ():
        try:
            if cell.cell_contents is old:
                cell.cell_contents = new
        except ValueError:  # empty cell
            pass


def _patch_class(cls: type, old: Any, new: Any) -> None:
    for attr, value in list(vars(cls).items()):
        if value is old:
            setattr(cls, attr, new)
        elif isinstance(value, types.FunctionType):
            _patch_function(value, old, new)
        elif isinstance(value, (staticmethod, classmethod)):
            _patch_function(value.__func__, old, new)
    fields = getattr(cls, "__dataclass_fields__", None)
    if isinstance(fields, dict):
        for dc_field in fields.values():
            if isinstance(dc_field, dataclasses.Field) and \
                    dc_field.default is old:
                dc_field.default = new


def rebind(old: Any, new: Any) -> None:
    """Replace every reference to ``old`` held by the loaded ``repro``
    modules (globals, class attributes, defaults, closures)."""
    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "") or ""
        if not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is old:
                setattr(module, attr, new)
            elif isinstance(value, types.FunctionType):
                _patch_function(value, old, new)
            elif isinstance(value, type) and \
                    getattr(value, "__module__", None) == name:
                _patch_class(value, old, new)


def _owners(module, owner: Optional[str]) -> List[Any]:
    if owner is None:
        return [module]
    if owner == "*Extractor":
        base = getattr(module, "Extractor")
        importlib.import_module("repro.extraction")
        found, todo = [], list(base.__subclasses__())
        while todo:
            cls = todo.pop()
            found.append(cls)
            todo.extend(cls.__subclasses__())
        return found
    return [getattr(module, owner)]


def install(recorder: Recorder, layers: Optional[Tuple[str, ...]] = None) -> None:
    """Wrap every callable of :data:`WRAPPED` (restricted to ``layers``
    when given)."""
    importlib.import_module("repro")
    importlib.import_module("repro.server")
    for layer, name, module_name, owner, attr, spans in WRAPPED:
        if layers is not None and layer not in layers:
            continue
        module = importlib.import_module(module_name)
        for holder in _owners(module, owner):
            original = vars(holder).get(attr) if isinstance(holder, type) \
                else getattr(holder, attr)
            if original is None or hasattr(original, "__liarbench_wrapped__"):
                continue
            wrapper = recorder.wrap(original, layer, name, spans)
            if isinstance(holder, type):
                setattr(holder, attr, wrapper)
            rebind(original, wrapper)
