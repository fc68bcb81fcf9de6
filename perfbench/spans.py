"""Span recording from outside the program under test.

:class:`Recorder` wraps public entry points of the ``repro`` package
with span recorders: each call records its name, start, end, parent
span and request id.  A thread-local stack supplies the parent; a
*root* entry point (the HTTP handler's ``handle_one_request``) starts a
new request id that every span below it inherits.  Spans stay in
memory and are written out once, at shutdown.

Very hot leaf calls (``CorrelationModel.cor``, ``joint_components``)
are *counted* instead: a call count and total seconds per (name,
enclosing span name), which keeps a traced index build from holding
millions of span records.  Their time stays inside the enclosing
span's self time.

:func:`install` applies the wrappers listed in :data:`TARGETS`; only
the launcher (``launch.py``) calls it, so importing this module changes
nothing.
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import threading
import time
from collections.abc import Callable
from pathlib import Path
from typing import Any


class Recorder:
    """In-memory span and call-count store (thread-safe)."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._span_ids = itertools.count(1)
        self._request_ids = itertools.count(1)
        #: ``(span_id, parent_id, request_id, name, start, end)``
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        #: ``(span_id, value)`` from a target's probe of its result.
        self.values: list[tuple[int, float]] = []
        #: ``(name, enclosing span name) -> [calls, seconds]``
        self.counts: dict[tuple[str, str], list[float]] = {}

    def _stack(self) -> list[tuple[int, int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(
        self,
        name: str,
        fn: Callable[..., Any],
        root: bool = False,
        probe: Callable[[Any, tuple], float] | None = None,
    ) -> Callable[..., Any]:
        """``fn`` wrapped to record one span per call."""
        clock, spans, values = time.perf_counter, self.spans, self.values

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = self._stack()
            parent, request, _ = stack[-1] if stack else (0, 0, "")
            if root:
                request = next(self._request_ids)
            sid = next(self._span_ids)
            stack.append((sid, request, name))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, request, name, start, end))
            if probe is not None:
                values.append((sid, float(probe(result, args))))
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def counted(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` wrapped to count calls and seconds per enclosing span."""
        clock, counts, lock = time.perf_counter, self.counts, self._lock

        def tallied(*args: Any, **kwargs: Any) -> Any:
            stack = self._stack()
            key = (name, stack[-1][2] if stack else "")
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                with lock:
                    entry = counts.get(key)
                    if entry is None:
                        counts[key] = [1, elapsed]
                    else:
                        entry[0] += 1
                        entry[1] += elapsed

        tallied.__wrapped__ = fn  # type: ignore[attr-defined]
        return tallied

    def dump(self, path: str | Path) -> None:
        """Write every span, probe value and count as one JSON file."""
        payload = {
            "spans": self.spans,
            "values": self.values,
            "counts": [[n, e, c, s] for (n, e), (c, s) in self.counts.items()],
        }
        Path(path).write_text(json.dumps(payload))


def _found(result: Any, args: tuple) -> float:
    return 0.0 if result is None else 1.0


def _dropped(result: Any, args: tuple) -> float:
    return float(result)


def _n_cliques(result: Any, args: tuple) -> float:
    return float(result.stats()["n_cliques"])


def _n_candidates(result: Any, args: tuple) -> float:
    return float(len(args[0].candidates))


#: ``(module, attribute path, span name, kind, probe)``.  ``kind`` is
#: ``"root"`` (starts a request), ``"span"`` or ``"count"``.  Module
#: functions are also replaced wherever another ``repro`` module
#: imported them by name.
TARGETS: tuple[tuple[str, str, str, str, Callable[[Any, tuple], float] | None], ...] = (
    ("repro.serving.http", "ServingRequestHandler.handle_one_request",
     "serving.http.request", "root", None),
    ("repro.serving.service", "QueryService.search",
     "serving.service.search", "span", None),
    ("repro.serving.service", "QueryService.similar",
     "serving.service.similar", "span", None),
    ("repro.serving.service", "QueryService.recommend",
     "serving.service.recommend", "span", None),
    ("repro.serving.service", "QueryService.ingest",
     "serving.service.ingest", "span", None),
    ("repro.serving.service", "QueryService.compact",
     "serving.service.compact", "span", None),
    ("repro.serving.cache", "ResultCache.get",
     "serving.cache.get", "span", _found),
    ("repro.serving.cache", "ResultCache.put",
     "serving.cache.put", "span", None),
    ("repro.serving.cache", "ResultCache.clear",
     "serving.cache.clear", "span", _dropped),
    ("repro.serving.snapshot", "SnapshotManager.load",
     "serving.snapshot.load", "span", None),
    ("repro.serving.snapshot", "SnapshotManager.ingest",
     "serving.snapshot.ingest", "span", None),
    ("repro.serving.snapshot", "SnapshotManager.compact",
     "serving.snapshot.compact", "span", None),
    ("repro.storage.store", "load_corpus",
     "storage.store.load_corpus", "span", None),
    ("repro.storage.store", "load_index",
     "storage.store.load_index", "span", None),
    ("repro.storage.store", "save_index",
     "storage.store.save_index", "span", None),
    ("repro.storage.store", "append_objects",
     "storage.store.append_objects", "span", None),
    ("repro.core.retrieval", "RetrievalEngine.search",
     "core.retrieval.search", "span", None),
    ("repro.core.retrieval", "RetrievalEngine.query_cliques",
     "core.retrieval.query_cliques", "span", None),
    ("repro.core.retrieval", "RetrievalEngine.adopt_index",
     "index.inverted.adopt", "span", None),
    ("repro.core.retrieval", "correlation_model_for_corpus",
     "core.correlation.model", "span", None),
    ("repro.core.fig", "FeatureInteractionGraph.from_object",
     "core.fig.from_object", "span", None),
    ("repro.core.fig", "FeatureInteractionGraph.cliques",
     "core.fig.cliques", "span", None),
    ("repro.core.correlation", "CorrelationModel.cors",
     "core.correlation.cors", "span", None),
    ("repro.core.correlation", "CorrelationModel.cor",
     "core.correlation.cor", "count", None),
    ("repro.index.inverted", "CliqueInvertedIndex.build",
     "index.inverted.build", "span", _n_cliques),
    ("repro.index.vectorized", "MmapVectorView.vectors",
     "index.lookup", "span", _found),
    ("repro.index.vectorized", "InMemoryVectorView.vectors",
     "index.lookup", "span", _found),
    ("repro.index.vectorized", "SegmentedVectorView.vectors",
     "index.lookup", "span", _found),
    ("repro.index.vectorized", "accumulate_scores",
     "index.vectorized.accumulate", "span", None),
    ("repro.index.threshold", "threshold_algorithm",
     "index.threshold.ta", "span", None),
    ("repro.core.mrf", "joint_components",
     "core.mrf.components", "count", None),
    ("repro.index.binfmt", "write_index_file",
     "index.segbuild.encode", "span", None),
    ("repro.index.segbuild", "merge_segment_files",
     "index.segbuild.merge", "span", None),
    ("repro.core.recommendation", "Recommender.__init__",
     "core.recommendation.init", "span", _n_candidates),
    ("repro.core.recommendation", "Recommender.profile_for",
     "core.recommendation.profile", "span", None),
    ("repro.core.recommendation", "Recommender.recommend",
     "core.recommendation.recommend", "span", None),
)


def install(recorder: Recorder) -> None:
    """Wrap every entry point of :data:`TARGETS` in place."""
    for module_name, attr_path, name, kind, probe in TARGETS:
        module = importlib.import_module(module_name)
        owner_name, _, attr = attr_path.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        raw = _lookup(owner, attr)
        func = raw.__func__ if isinstance(raw, classmethod) else raw
        if kind == "count":
            wrapped = recorder.counted(name, func)
        else:
            wrapped = recorder.span(name, func, root=kind == "root", probe=probe)
        setattr(owner, attr, classmethod(wrapped) if isinstance(raw, classmethod) else wrapped)
        if not owner_name:
            # ``from module import f`` elsewhere bound the original.
            for other in list(sys.modules.values()):
                if (
                    other is not None
                    and other.__name__.startswith("repro")
                    and getattr(other, attr, None) is func
                ):
                    setattr(other, attr, wrapped)


def _lookup(owner: Any, attr: str) -> Any:
    """The raw attribute (classmethod objects unwrapped by ``getattr``),
    searching base classes like attribute access does."""
    for klass in getattr(owner, "__mro__", (owner,)):
        if attr in vars(klass):
            return vars(klass)[attr]
    raise AttributeError(f"{owner!r} has no attribute {attr!r}")
