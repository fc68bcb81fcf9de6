"""Per-layer metrics from the span dumps of a traced run.

Two dumps feed one workload's numbers: the traced ``repro index build``
(build layers) and the traced ``repro serve`` (start-up and per-request
layers).  Per-request numbers are means over the requests of one kind,
so self times of the layers along a request's path add up to its
traced service time.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

from stats import self_times

#: Service span name -> request kind.
_KINDS = {
    "serving.service.search": "search",
    "serving.service.similar": "search",
    "serving.service.recommend": "recommend",
    "serving.service.ingest": "ingest",
    "serving.service.compact": "compact",
}

#: On the search workload, the named layers below the service span must account
#: for at least this share of the traced service time.
ATTRIBUTED_BOUND = 0.9


class Dump:
    """One launcher dump with spans indexed for the queries below."""

    def __init__(self, path: Path) -> None:
        data = json.loads(Path(path).read_text())
        self.spans = [tuple(s) for s in data["spans"]]
        self.values = dict((int(sid), v) for sid, v in data["values"])
        self.counts = [tuple(c) for c in data["counts"]]
        self.self_s = self_times(self.spans)
        self.by_id = {s[0]: s for s in self.spans}
        kind_of_request: dict[int, str] = {}
        for _sid, _parent, rid, name, _start, _end in self.spans:
            if rid and name in _KINDS:
                kind_of_request[rid] = _KINDS[name]
        # A search that reached the engine missed the result cache.
        for _sid, _parent, rid, name, _start, _end in self.spans:
            if name == "core.retrieval.search" and kind_of_request.get(rid) == "search":
                kind_of_request[rid] = "search-miss"
        self.kind_of_request = kind_of_request

    def named(self, name: str) -> list[tuple]:
        return [s for s in self.spans if s[3] == name]

    def total(self, name: str) -> float:
        return sum(s[5] - s[4] for s in self.named(name))

    def mean_ms(self, spans: list[tuple]) -> float:
        """Mean duration of ``spans`` in milliseconds."""
        return sum(s[5] - s[4] for s in spans) / len(spans) * 1e3

    def first(self, name: str) -> float:
        spans = self.named(name)
        return spans[0][5] - spans[0][4] if spans else 0.0

    def counted_seconds(self, name: str) -> float:
        return sum(seconds for n, _enclosing, _calls, seconds in self.counts if n == name)

    def has_ancestor(self, span: tuple, name: str) -> bool:
        parent = span[1]
        while parent:
            ancestor = self.by_id[parent]
            if ancestor[3] == name:
                return True
            parent = ancestor[1]
        return False

    def per_request(self, kind: str) -> tuple[int, dict[str, float], dict[str, float]]:
        """``(requests, total seconds by span name, self seconds by span
        name)`` over the requests of ``kind``."""
        requests = {rid for rid, k in self.kind_of_request.items() if k == kind}
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        for sid, _parent, rid, name, start, end in self.spans:
            if rid in requests:
                total[name] += end - start
                own[name] += self.self_s[sid]
        return len(requests), total, own


def per_layer(build: Dump, serve: Dump, client: dict[str, float],
              names: list[str]) -> dict[str, float]:
    """The per-layer metrics ``names`` (0.0 where a workload does not
    exercise the layer).  ``client`` carries what the generator observed
    and the exact counts of the in-process pass."""
    out = dict.fromkeys(names, 0.0)
    out.update({k: v for k, v in client.items() if k in out})
    n_hit, total_hit, _ = serve.per_request("search")
    n, total, own = serve.per_request("search-miss")
    if n + n_hit:
        service = sum(t["serving.service.search"] + t["serving.service.similar"]
                      for t in (total, total_hit))
        handler = total["serving.http.request"] + total_hit["serving.http.request"]
        out["serving.http.self_ms"] = (handler - service) / (n + n_hit) * 1e3
    if n:
        service = total["serving.service.search"] + total["serving.service.similar"]
        service_self = own["serving.service.search"] + own["serving.service.similar"]
        out["core.retrieval.query_cliques_ms"] = total["core.retrieval.query_cliques"] / n * 1e3
        out["core.retrieval.search_self_ms"] = own["core.retrieval.search"] / n * 1e3
        out["core.fig.from_object_ms"] = total["core.fig.from_object"] / n * 1e3
        out["core.fig.cliques_ms"] = total["core.fig.cliques"] / n * 1e3
        out["index.lookup_ms"] = total["index.lookup"] / n * 1e3
        out["index.vectorized.accumulate_ms"] = total["index.vectorized.accumulate"] / n * 1e3
        out["index.threshold.ta_ms"] = total["index.threshold.ta"] / n * 1e3
        out["trace.attributed_ratio"] = 1.0 - service_self / service if service else 0.0
    query_cliques = [s for s in serve.named("core.retrieval.query_cliques")
                     if serve.kind_of_request.get(s[2]) == "search-miss"]
    if query_cliques:
        built = {s[1] for s in serve.named("core.fig.from_object")}
        hits = sum(1 for s in query_cliques if s[0] not in built)
        out["core.retrieval.clique_cache_hit_ratio"] = hits / len(query_cliques)
    gets = [serve.values[s[0]] for s in serve.named("serving.cache.get") if s[2]]
    if gets:
        out["serving.cache.hit_ratio"] = sum(gets) / len(gets)
    clears = serve.named("serving.cache.clear")
    out["serving.cache.invalidated"] = float(sum(serve.values[s[0]] for s in clears))
    out["serving.snapshot.load_s"] = serve.first("serving.snapshot.load")
    out["storage.store.load_corpus_s"] = serve.first("storage.store.load_corpus")
    out["storage.store.load_index_s"] = serve.first("storage.store.load_index")
    out["index.inverted.adopt_s"] = serve.first("index.inverted.adopt")
    out["core.correlation.model_s"] = serve.first("core.correlation.model")
    out["core.correlation.cors_s"] = build.total("core.correlation.cors")
    out["core.mrf.components_s"] = build.counted_seconds("core.mrf.components")
    out["index.segbuild.encode_s"] = build.total("index.segbuild.encode")
    out["index.segbuild.merge_s"] = serve.total("index.segbuild.merge")
    out["storage.store.save_index_s"] = (build.total("storage.store.save_index")
                                         + serve.total("storage.store.save_index"))
    ingests = serve.named("serving.snapshot.ingest")
    if ingests:
        out["serving.snapshot.ingest_ms"] = serve.mean_ms(ingests)
        out["storage.store.append_ms"] = serve.mean_ms(serve.named("storage.store.append_objects"))
        deltas = [s for s in serve.named("index.inverted.build")
                  if serve.has_ancestor(s, "serving.snapshot.ingest")]
        out["index.inverted.delta_build_ms"] = serve.mean_ms(deltas)
        delta_ids = {s[0] for s in deltas}
        computed = sum(1 for s in serve.named("core.correlation.cors") if s[1] in delta_ids)
        cliques = sum(serve.values[s[0]] for s in deltas)
        out["index.inverted.cors_reused_ratio"] = 1.0 - computed / cliques if cliques else 0.0
    out["serving.snapshot.compact_s"] = serve.total("serving.snapshot.compact")
    inits = serve.named("core.recommendation.init")
    if inits:
        out["core.recommendation.init_s"] = inits[0][5] - inits[0][4]
        out["core.recommendation.candidates"] = serve.values[inits[0][0]]
    n_rec, total_rec, own_rec = serve.per_request("recommend")
    if n_rec:
        out["core.recommendation.profile_ms"] = (
            total_rec["core.recommendation.profile"] / n_rec * 1e3)
        out["core.recommendation.recommend_self_ms"] = (
            own_rec["core.recommendation.recommend"] / n_rec * 1e3)
    return out
