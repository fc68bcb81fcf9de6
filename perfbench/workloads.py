"""The two workloads: seeded corpora, request schedules and the
in-process reference the served outputs are checked against.

Everything here is a function of ``(workload, seed, seconds)``: the
same arguments give the same corpus on disk and the same requests at
the same due times.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from urllib.parse import urlencode

import numpy as np

from loadgen import Request
from repro.core.fig import FeatureInteractionGraph
from repro.core.objects import FeatureType, MediaObject
from repro.core.retrieval import RetrievalEngine
from repro.eval import FavoriteOracle, TopicOracle
from repro.social.corpus import Corpus
from repro.social.generator import GeneratorConfig, SyntheticFlickr
from repro.social.temporal import TemporalSplit
from repro.storage.store import load_corpus, load_index, save_corpus

WORKLOADS = ("search", "feed")

K = 10

#: Generator seeds of the fixed synthetic populations (the experiment
#: harness's retrieval and recommendation seeds).
POPULATION_SEEDS = {"search": 7, "feed": 11}

#: Retrieval corpus (search): stored objects, plus generated objects
#: held out of the store and sent as novel bags to ``POST /similar``.
SEARCH_OBJECTS = 600
SEARCH_HELD_OUT = 100
#: The cold stream's stored queries: a fixed pool, asked in a seeded
#: order, so every seed times the same queries (per-query cost spans
#: two orders of magnitude, and a seeded sample of queries moved the
#: median by more than its bound).  Its novel bags are the first
#: held-out objects, which are fixed too.
COLD_POOL = 72

#: search: shares of the run's seconds for the cold stream at its
#: nominal rate, the cold rate steps and the cache-hit stream.
COLD_SHARE, STEPS_SHARE, HIT_SHARE = 0.6, 0.25, 0.15
#: Cold/hit alternations of a search run.
SEARCH_ROUNDS = 9
#: Low enough that queueing stays a small part of a cold request's
#: latency when the host runs at half speed (at 25 req/s it did not,
#: and the median moved with the host's speed by more than linearly).
COLD_RPS = 15.0
COLD_STEPS_RPS = (40.0, 60.0, 80.0)
#: Tail-latency limit of a cold rate step, seconds.
COLD_LIMIT_S = 0.100
#: Share of cold requests that are novel bags (``/similar``).
SIMILAR_SHARE = 0.2

#: Cache-hit stream: Zipf-skewed over a hot set far below the server's
#: 1024-entry result cache, after a warm-up pass over the set.
HIT_RPS = 150.0
HOT_SET = 60
HOT_ZIPF = 1.1

#: feed: the recommendation corpus and its arrival streams.
FEED_OBJECTS = 180
FEED_TRACKED_USERS = 10
#: Share of the run's seconds for the reads-beside-writes loop; the
#: quiet reads after compaction take the rest.
FEED_LOOP_SHARE = 0.6
FEED_SEARCH_RPS = 8.0
#: The last fifth of the loop sends recommends (one per period)
#: instead of searches.
FEED_RECOMMEND_SHARE = 0.2
FEED_RECOMMEND_PERIOD_S = 0.6
#: Ingest batches per second of ``--seconds``, spread over the loop.
FEED_BATCHES_PER_S = 1.0
FEED_BATCH = 5
FEED_DELTAS = (1.0, 0.8, 0.6, 0.4)
FEED_COMPACTIONS = 1
#: Quiet post-compaction searches checked against the in-process
#: engine (settled objects, ingested objects), in rounds; each round's
#: searches are also the hot set of a short cache-hit stream.
FEED_CHECK_SETTLED = 80
FEED_CHECK_INGESTED = 30
FEED_QUIET_ROUNDS = 3
FEED_WARMUP = 5

#: Cold searches checked bit for bit against the in-process engine.
CHECK_SAMPLE = 60


@dataclass
class Prepared:
    """A generated workload: what is on disk and what the generator
    knows that the server does not (held-out objects, ground truth)."""

    name: str
    corpus_dir: Path
    full: Corpus
    stored_ids: list[str]
    held_out: list[MediaObject]
    #: search: :data:`COLD_POOL` stored ids in a fixed order.
    cold_pool: list[str]
    rng: np.random.Generator
    sizes: dict[str, int] = field(default_factory=dict)


def prepare(name: str, seed: int, seconds: float, corpus_dir: Path) -> Prepared:
    """Generate the workload's corpus and save the stored part to
    ``corpus_dir`` (the index is built separately, by the CLI).

    The synthetic population is fixed (:data:`POPULATION_SEEDS`), and
    so is which of its objects are stored and which are held out (sent
    as novel bags, or ingested during the run).  The seed draws the
    order in which the held-out objects arrive and every request
    stream.  Regenerating the population per seed moved query cost and
    build time by more than the bounds the benchmark gates on, and a
    seeded choice of the held-back feed objects (28% of the corpus)
    moved the quiet search median by 0.18 IQR/median.
    """
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    fixed = np.random.default_rng(POPULATION_SEEDS[name])
    if name == "feed":
        full = SyntheticFlickr(
            GeneratorConfig(n_objects=FEED_OBJECTS, n_tracked_users=FEED_TRACKED_USERS),
            seed=POPULATION_SEEDS[name],
        ).generate_recommendation_corpus()
        evaluation = TemporalSplit.paper_default(full.n_months).evaluation
        arriving = [o for o in full.objects if o.timestamp in evaluation]
        n_held = feed_batches(seconds) * FEED_BATCH
        held = [arriving[i] for i in fixed.choice(len(arriving), size=n_held, replace=False)]
        held = [held[i] for i in rng.permutation(n_held)]
        pool: list[str] = []
    else:
        full = SyntheticFlickr(
            GeneratorConfig(n_objects=SEARCH_OBJECTS + SEARCH_HELD_OUT),
            seed=POPULATION_SEEDS[name],
        ).generate_retrieval_corpus()
        order = fixed.permutation(len(full))
        pool = [full.objects[i].object_id for i in order[:COLD_POOL]]
        held = [full.objects[i] for i in order[COLD_POOL:COLD_POOL + SEARCH_HELD_OUT]]
    held_ids = {o.object_id for o in held}
    stored = Corpus(
        objects=[o for o in full.objects if o.object_id not in held_ids],
        social=full.social,
        taxonomy=full.taxonomy,
        codebook=full.codebook,
        topics_of={o.object_id: full.topics(o.object_id) for o in full.objects
                   if o.object_id not in held_ids},
        # Favorites of held-back objects fall in the evaluation window:
        # they only feed the oracle, which sees the full population.
        favorites=[e for e in full.favorites if e.object_id not in held_ids],
        n_months=full.n_months,
    )
    save_corpus(stored, corpus_dir)
    return Prepared(
        name=name,
        corpus_dir=corpus_dir,
        full=full,
        stored_ids=[o.object_id for o in stored],
        held_out=held,
        cold_pool=pool,
        rng=rng,
        sizes={"stored_objects": len(stored), "held_out_objects": len(held)},
    )


# ----------------------------------------------------------------------
# requests
# ----------------------------------------------------------------------
def search_request(object_id: str, due: float = 0.0) -> Request:
    path = "/search?" + urlencode({"query": object_id, "k": K})
    return Request("search", "GET", path, due=due, tag=object_id)


def similar_request(obj: MediaObject, due: float = 0.0) -> Request:
    bags: dict[str, list[str]] = {"tags": [], "visual_words": [], "users": []}
    field_of = {FeatureType.TEXT: "tags", FeatureType.VISUAL: "visual_words",
                FeatureType.USER: "users"}
    for feature, count in sorted(obj.features.items()):
        bags[field_of[feature.ftype]].extend([feature.name] * count)
    body = json.dumps({**bags, "k": K}).encode()
    return Request("similar", "POST", "/similar", body=body, due=due, tag=obj.object_id)


def recommend_request(user: str, delta: float | None, due: float = 0.0) -> Request:
    query = {"user": user, "k": K} if delta is None else {"user": user, "delta": delta, "k": K}
    return Request("recommend", "GET", "/recommend?" + urlencode(query), due=due,
                   tag=(user, delta))


def ingest_request(batch: list[MediaObject], due: float) -> Request:
    records = [
        {"id": o.object_id, "t": o.timestamp,
         "features": {f.key: c for f, c in sorted(o.features.items())}}
        for o in batch
    ]
    body = json.dumps({"records": records}).encode()
    ids = [o.object_id for o in batch]
    # The first request after the ingest returns searches a new id.
    return Request("ingest", "POST", "/ingest", body=body, due=due, tag=ids,
                   then=search_request(ids[0]))


def compact_request() -> Request:
    return Request("compact", "POST", "/admin/compact")


def poisson_times(rng: np.random.Generator, rate: float, duration: float) -> list[float]:
    """Seeded Poisson arrival times in ``[0, duration)``."""
    times: list[float] = []
    t = 0.0
    while True:
        t += float(rng.exponential(1.0 / rate))
        if t >= duration:
            return times
        times.append(t)


def uniform_times(rng: np.random.Generator, n: int, duration: float) -> list[float]:
    """``n`` seeded arrival times in ``[0, duration)``: a Poisson stream
    conditioned on its count, so every seed sends the same number."""
    return sorted(float(t) for t in rng.uniform(0.0, duration, size=n))


def hot_stream(rng: np.random.Generator, ids: list[str], duration: float) -> list[Request]:
    """Zipf-skewed searches over ``ids`` at :data:`HIT_RPS`."""
    weights = 1.0 / np.arange(1, len(ids) + 1) ** HOT_ZIPF
    weights /= weights.sum()
    return [search_request(ids[int(rng.choice(len(ids), p=weights))], t)
            for t in uniform_times(rng, round(HIT_RPS * duration), duration)]


@dataclass
class SearchSchedule:
    warmup: list[Request]
    #: ``(cold chunk, hit chunk)`` pairs, run in turn, so both streams
    #: sample the whole run rather than one stretch of it.
    rounds: list[tuple[list[Request], list[Request]]]
    steps: list[tuple[float, list[Request]]]


def search_schedule(prep: Prepared, seconds: float) -> SearchSchedule:
    """Cold stream (every query new to the run: the cold pool and novel
    bags, in a seeded order) alternating with a cache-hit stream over a
    small hot set (warmed first), then cold queries at rising rate
    steps."""
    rng = prep.rng
    pool = set(prep.cold_pool)
    rest = [str(i) for i in rng.permutation([i for i in prep.stored_ids if i not in pool])]
    hot, rest = rest[:HOT_SET], rest[HOT_SET:]
    stored = prep.cold_pool + rest
    novel = list(prep.held_out)

    def cold(n: int) -> list[Request]:
        n_novel = round(n * SIMILAR_SHARE)
        if n - n_novel > len(stored) or n_novel > len(novel):
            raise ValueError("the cold stream ran out of unseen queries")
        chosen = [search_request(i) for i in stored[:n - n_novel]]
        chosen += [similar_request(o) for o in novel[:n_novel]]
        del stored[:n - n_novel], novel[:n_novel]
        return [chosen[int(i)] for i in rng.permutation(n)]

    def timed(requests: list[Request], duration: float) -> list[Request]:
        times = uniform_times(rng, len(requests), duration)
        return [replace(r, due=t) for r, t in zip(requests, times)]

    cold_s = seconds * COLD_SHARE / SEARCH_ROUNDS
    hit_s = seconds * HIT_SHARE / SEARCH_ROUNDS
    nominal = cold(round(COLD_RPS * seconds * COLD_SHARE))
    n = len(nominal)
    rounds = [
        (timed(nominal[i * n // SEARCH_ROUNDS:(i + 1) * n // SEARCH_ROUNDS], cold_s),
         hot_stream(rng, hot, hit_s))
        for i in range(SEARCH_ROUNDS)
    ]
    step_s = seconds * STEPS_SHARE / len(COLD_STEPS_RPS)
    steps = [(rate, timed(cold(round(rate * step_s)), step_s)) for rate in COLD_STEPS_RPS]
    return SearchSchedule(warmup=[search_request(i) for i in hot], rounds=rounds, steps=steps)


def feed_batches(seconds: float) -> int:
    return max(1, round(seconds * FEED_BATCHES_PER_S))


def feed_loop_seconds(seconds: float) -> float:
    return seconds * FEED_LOOP_SHARE


def tracked_users(prep: Prepared) -> list[str]:
    return sorted({e.user for e in prep.full.favorites if e.user.startswith("tracked")})


def feed_schedule(prep: Prepared, seconds: float) -> list[Request]:
    """Reads beside writes: ``/ingest`` batches of the held-back objects
    at a fixed period for the whole loop, Poisson ``/search`` arrivals
    beside them, then ``/recommend`` at a fixed period.

    The searches walk :func:`settled_ids` in order, so every seed asks
    the same queries and only the arrivals and the ingested objects
    vary: per-query cost spans two orders of magnitude, and a seeded
    query mix alone moved the search median by more than its bound.

    Searches and recommends do not overlap: with two connections, one
    recommend (hundreds of ms) halves the generator's capacity and
    shares the server's interpreter lock, so the backlog it leaves
    behind would decide the search median.
    """
    rng = prep.rng
    settled = settled_ids(prep)
    loop_s = feed_loop_seconds(seconds)
    search_s = loop_s * (1.0 - FEED_RECOMMEND_SHARE)
    requests = [search_request(settled[i % len(settled)], t)
                for i, t in enumerate(poisson_times(rng, FEED_SEARCH_RPS, search_s))]
    pairs = [(u, d) for u in tracked_users(prep) for d in FEED_DELTAS]
    order = rng.permutation(len(pairs))
    recommend_times = np.arange(search_s + FEED_RECOMMEND_PERIOD_S / 2, loop_s,
                                FEED_RECOMMEND_PERIOD_S)
    requests += [recommend_request(*pairs[int(order[i % len(pairs)])], float(t))
                 for i, t in enumerate(recommend_times)]
    held = prep.held_out
    batches = feed_batches(seconds)
    requests += [
        ingest_request(held[b * FEED_BATCH:(b + 1) * FEED_BATCH], b * loop_s / batches)
        for b in range(batches)
    ]
    requests.sort(key=lambda r: r.due)
    return requests


def settled_ids(prep: Prepared) -> list[str]:
    """Objects that predate the evaluation window (so they are never
    held back), in one fixed order."""
    evaluation = TemporalSplit.paper_default(prep.full.n_months).evaluation
    settled = [o.object_id for o in prep.full.objects if o.timestamp not in evaluation]
    return [str(i) for i in np.random.default_rng(POPULATION_SEEDS["feed"]).permutation(settled)]


def feed_warmup(prep: Prepared) -> list[Request]:
    """A few searches before the run, so its first ones do not pay the
    server's lazy start-up."""
    return [search_request(i) for i in settled_ids(prep)[-FEED_WARMUP:]]


def feed_check_searches(prep: Prepared) -> list[Request]:
    """Quiet post-compaction searches: fixed samples of the settled and
    of the ingested objects."""
    ingested = sorted(o.object_id for o in prep.held_out)[:FEED_CHECK_INGESTED]
    return [search_request(i) for i in [*settled_ids(prep)[:FEED_CHECK_SETTLED], *ingested]]


# ----------------------------------------------------------------------
# quality
# ----------------------------------------------------------------------
def p_at_k(full: Corpus, served: list[tuple[str, list[str]]]) -> float:
    """Mean P@10 of served rankings ``(query id, result ids)`` under the
    topic oracle of the full generated corpus."""
    oracle = TopicOracle(full)
    if not served:
        raise ValueError("no served rankings")
    return sum(sum(oracle.relevant(q, r) for r in ids[:K]) / K for q, ids in served) / len(served)


def rec_p_at_k(full: Corpus, served: list[tuple[str, list[str]]]) -> float:
    """Mean P@10 of served recommendations ``(user, result ids)`` under
    the favorite oracle of the held-out (evaluation) window, over users
    that have held-out favorites."""
    oracle = FavoriteOracle(full, TemporalSplit.paper_default(full.n_months).evaluation)
    judged = [(u, ids) for u, ids in served if oracle.n_relevant(u)]
    if not judged:
        raise ValueError("no judged recommendations")
    return sum(sum(oracle.relevant(u, r) for r in ids[:K]) / K for u, ids in judged) / len(judged)


# ----------------------------------------------------------------------
# the in-process reference and exact counts
# ----------------------------------------------------------------------
@dataclass
class Reference:
    """Rankings of an in-process engine over the served directory and
    artifact, plus the per-query work counts of the same pass."""

    rankings: dict[str, list[tuple[str, float]]]
    counts: dict[str, float]


def reference(corpus_dir: Path, queries: list[Request], held: dict[str, MediaObject]) -> Reference:
    """Load the directory the way the server does and answer
    ``queries`` (``search``/``similar`` requests) in process, untimed."""
    corpus = load_corpus(corpus_dir)
    engine = RetrievalEngine(corpus, build_index=False)
    engine.adopt_index(load_index(corpus_dir / "index.bin", engine.correlations, corpus=corpus))
    model = engine.correlations
    view = engine.index.vector_view()
    tally = {"cor": 0, "lookups": 0, "lookup_hits": 0}
    cor, vectors = model.cor, view.vectors

    def counted_cor(a, b):
        tally["cor"] += 1
        return cor(a, b)

    def counted_vectors(key):
        result = vectors(key)
        tally["lookups"] += 1
        tally["lookup_hits"] += result is not None
        return result

    model.cor = counted_cor
    view.vectors = counted_vectors
    rankings: dict[str, list[tuple[str, float]]] = {}
    sums = dict.fromkeys(("sorted", "random", "sources", "entries", "skipped", "blocks"), 0)
    cliques = edges = 0
    try:
        for request in queries:
            if request.kind == "search":
                query, exclude = corpus.get(request.tag), True
            else:
                query, exclude = held[request.tag], False
            results, st = engine.search_with_stats(
                query, k=K, exclude_query=exclude, mode="index-vectorized"
            )
            rankings[request.tag] = [(r.object_id, r.score) for r in results]
            cliques += len(engine.query_cliques(query))
            sums["sorted"] += st.sorted_accesses
            sums["random"] += st.random_accesses
            sums["sources"] += st.n_sources
            sums["entries"] += st.total_posting_entries
            sums["skipped"] += st.blocks_skipped
            sums["blocks"] += st.blocks_total
    finally:
        del model.cor, view.vectors
    for request in queries:
        query = corpus.get(request.tag) if request.kind == "search" else held[request.tag]
        edges += FeatureInteractionGraph.from_object(query, model).n_edges()
    n = len(queries)
    counts = {
        "core.correlation.cor_calls_per_query": tally["cor"] / n,
        "core.fig.edges_per_query": edges / n,
        "core.cliques.per_query": cliques / n,
        "index.lookups_per_query": tally["lookups"] / n,
        "index.lookup_hit_ratio": tally["lookup_hits"] / max(1, tally["lookups"]),
        "index.vectorized.sources_per_query": sums["sources"] / n,
        "index.vectorized.blocks_skipped_ratio": sums["skipped"] / max(1, sums["blocks"]),
        "index.threshold.sorted_accesses": sums["sorted"] / n,
        "index.threshold.random_accesses": sums["random"] / n,
        "index.threshold.read_ratio": sums["sorted"] / max(1, sums["entries"]),
    }
    return Reference(rankings=rankings, counts=counts)


def served_ranking(payload: dict) -> list[tuple[str, float]]:
    return [(r["object_id"], r["score"]) for r in payload["results"]]


def index_mib(corpus_dir: Path) -> float:
    return (corpus_dir / "index.bin").stat().st_size / float(1 << 20)
