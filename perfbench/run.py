"""Open-loop serving benchmark for ``repro serve``.

Run from the root of a checkout::

    python3 perfbench/run.py --workload search --seed 1 --seconds 10 --trace 0

One run generates the workload's corpus from ``--seed``, builds its
``index.bin`` with ``repro index build``, drives a ``repro serve``
process (CLI defaults) from this one process for ``--seconds``, checks
the served outputs against an in-process engine, and prints:

* a report line ``{"report": ...}`` with every metric of the workload,
  its provenance and the rate-step table;
* as the last line, the result ``{"correct", "attempted", "failed",
  "metrics"}``: the end-to-end metrics with ``--trace 0``, the
  per-layer metrics of a traced run with ``--trace 1``.

See ``perfbench/README.md`` for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import layers
import loadgen
import stats

ROOT = Path(__file__).resolve().parent.parent
#: ``workloads.WORKLOADS`` (that module imports repro, which needs src/).
WORKLOAD_NAMES = ("search", "feed")

#: Setup and build samples of a search run; their medians are
#: reported.  The first build and the measured server's spawn are the
#: first samples; the others are taken between rounds of the timed
#: reads.  A feed run takes one sample per quiet round
#: (``workloads.FEED_QUIET_ROUNDS``).  With two samples one slow
#: stretch of the host decided the median; more than three do not fit
#: the time budget of ``4 + 22 x 2`` runs in 57 minutes on a host at
#: half speed.
SEARCH_SAMPLES = 3

#: A run is invalid when the generator itself woke up later than this
#: (99th percentile over requests it was idle for).
LATENESS_BOUND_S = 0.020

#: Interpreter-lock switch interval of this (generator) process.
GENERATOR_SWITCH_INTERVAL_S = 0.0002

#: Seconds a ``repro index build`` may take.
BUILD_TIMEOUT_S = 600.0


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="repro serving benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    # The generator's threads hand the interpreter lock over quickly, so
    # a thread due to send (or holding a finished response) is not held
    # up for the default 5 ms switch interval.
    sys.setswitchinterval(GENERATOR_SWITCH_INTERVAL_S)
    loadgen.pin_generator()
    workdir = ROOT / ".perfbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        bench = Bench(args, spec, workdir)
        result = bench.run()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        parent = workdir.parent
        if parent.is_dir() and not any(parent.iterdir()):
            parent.rmdir()
    print(json.dumps({"report": bench.report}, sort_keys=True))
    print(json.dumps(result))
    return 0


def _provenance(args: argparse.Namespace) -> dict:
    import numpy

    commit = None
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


class Bench:
    """One run of one workload."""

    def __init__(self, args: argparse.Namespace, spec: dict, workdir: Path) -> None:
        import workloads

        self.args = args
        #: ``BENCHMARK.json``: the metric names and units of the result.
        self.spec = spec
        self.workdir = workdir
        self.wl = workloads
        self.log = workdir / "server.log"
        self.attempted = 0
        self.failed = 0
        self.rejected = 0
        #: Output-check failures: any one makes the run incorrect.
        self.errors: list[str] = []
        self.lateness: list[float] = []
        #: Measured seconds of each setup and build sample.
        self.setups: list[float] = []
        self.builds: list[float] = []
        #: Kernel samples taken before every timed piece of work.
        self.speed = calibrate.HostSpeed([loadgen.SERVER_CPUS, loadgen.GENERATOR_CPUS])
        self.report: dict = {"provenance": _provenance(args), "failed_requests": []}

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def _account(self, outcomes: list) -> list:
        """Count every request (follow-ups too); returns ``outcomes``."""
        for outcome in outcomes:
            chain = outcome
            while chain is not None:
                self.attempted += 1
                self.rejected += chain.status == 503
                if not chain.ok:
                    self.failed += 1
                    failures = self.report["failed_requests"]
                    if len(failures) < 5:
                        failures.append(f"{chain.request.kind} {chain.request.path}: "
                                        f"{chain.status} {chain.error or chain.body[:200]!r}")
                chain = chain.followup
        return outcomes

    def _stream(self, run) -> list:
        """Run one stream of requests after a host-speed sample; counts
        every request."""
        self.speed.sample()
        return self._account(run())

    def _open_loop(self, server, requests: list) -> list:
        """Run an open loop; keeps the generator's own lateness (of the
        requests a thread was idle for when they came due)."""
        outcomes = self._stream(lambda: loadgen.run_open_loop(server.port, requests))
        self.lateness += [o.lateness for o in outcomes if o.lateness is not None]
        return outcomes

    def _sequential(self, server, requests: list) -> list:
        return self._stream(lambda: loadgen.run_sequential(server.port, requests))

    def _build(self, corpus_dir: Path, spans: Path | None = None) -> float:
        """Wall seconds of ``repro index build`` (CLI defaults; it runs on
        the generator's CPUs), after a host-speed sample."""
        command = loadgen.repro_command(ROOT, spans) + ["index", "build", str(corpus_dir)]
        self.speed.sample()
        started = time.perf_counter()
        with self.log.open("ab") as log:
            subprocess.run(command, cwd=ROOT, env=loadgen.repro_env(ROOT), stdout=log,
                           stderr=subprocess.STDOUT, check=True, timeout=BUILD_TIMEOUT_S)
        return time.perf_counter() - started

    def _interlude(self) -> None:
        """Another build sample and another setup sample (a server
        spawned and killed), both on the pristine copy of the corpus,
        taken while the measured server idles: the host's speed drifts
        over seconds, so samples spread across the run agree better
        from run to run than samples taken in one stretch."""
        rebuild = self.workdir / "rebuild"
        self.builds.append(self._build(rebuild))
        server, setup = self._spawn(rebuild)
        server.kill()
        self.setups.append(setup)

    def _spawn(self, corpus_dir: Path, spans: Path | None = None):
        """``(server, setup seconds)``, after a host-speed sample."""
        self.speed.sample()
        server = loadgen.Server(ROOT, corpus_dir, self.log, spans)
        try:
            setup = server.wait_ready()
        except BaseException:
            server.stop()
            raise
        return server, setup

    def _stop(self, server) -> None:
        code = server.stop()
        if code != 0:
            self.errors.append(f"server exited with code {code}")

    def _stats(self, server) -> dict:
        status, body, _ = loadgen.http_call(server.port, "GET", "/stats")
        if status != 200:
            raise RuntimeError(f"/stats answered {status}")
        return json.loads(body)

    def _check_rankings(self, outcomes: list, ref) -> int:
        """Served top-10 ids and scores must equal the reference bit for
        bit; returns how many were compared."""
        compared = 0
        for outcome in outcomes:
            tag = outcome.request.tag
            if tag not in ref.rankings:
                continue
            if not outcome.ok:
                self.errors.append(f"check request for {tag} failed: {outcome.status}")
                continue
            served = self.wl.served_ranking(outcome.json())
            if served != ref.rankings[tag]:
                self.errors.append(f"served ranking for {tag} differs from the in-process engine")
            compared += 1
        return compared

    def _served(self, outcomes: list) -> list[tuple[str, list[str]]]:
        return [(o.request.tag, [r["object_id"] for r in o.json()["results"]])
                for o in outcomes if o.ok]

    # ------------------------------------------------------------------
    # runs
    # ------------------------------------------------------------------
    def run(self) -> dict:
        args = self.args
        corpus_dir = self.workdir / "corpus"
        prep = self.wl.prepare(args.workload, args.seed, args.seconds, corpus_dir)
        self.report["provenance"]["corpus"] = prep.sizes
        # A pristine copy for the later build samples, taken while a
        # server reads the served directory (which changes under feed).
        shutil.copytree(corpus_dir, self.workdir / "rebuild")
        build_spans = self.workdir / "build-spans.json" if args.trace else None
        self.builds.append(self._build(corpus_dir, build_spans))
        if args.workload == "feed":
            metrics = self._feed(prep, build_spans)
        else:
            metrics = self._search(prep, build_spans)
        if not args.trace:
            metrics["setup_s"] = statistics.median(self.setups) * self._scale("server")
            metrics["setup_samples_s"] = self.setups
            metrics["build_s"] = statistics.median(self.builds) * self._scale("generator")
            metrics["build_samples_s"] = self.builds
            metrics["ok_ratio"] = (self.attempted - self.failed) / self.attempted
        lateness_p99 = (stats.percentile(self.lateness, 99.0)
                        if self.lateness else 0.0)
        valid = lateness_p99 <= LATENESS_BOUND_S
        self.report["provenance"]["generator_lateness_p99_ms"] = lateness_p99 * 1e3
        self.report["provenance"]["generator_lateness_max_ms"] = (
            max(self.lateness) * 1e3 if self.lateness else 0.0)
        self.report["provenance"]["valid"] = valid
        if not valid:
            self.errors.append(f"generator lateness p99 {lateness_p99 * 1e3:.2f} ms exceeds "
                       f"{LATENESS_BOUND_S * 1e3:.1f} ms; run invalid")
        self.report["errors"] = self.errors
        correct = not self.errors
        units = {m["name"]: m["unit"] for m in self.spec["end_to_end"] + self.spec["per_layer"]}
        self.report["metrics"] = {
            name: {"value": value, "unit": units.get(name) or _unit(name)}
            for name, value in metrics.items()}
        gated = self.spec["per_layer" if args.trace else "end_to_end"]
        return {
            "correct": correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                        for m in gated},
        }

    def _search(self, prep, build_spans: Path | None) -> dict:
        args, wl = self.args, self.wl
        schedule = wl.search_schedule(prep, args.seconds)
        self.report["provenance"]["rates_rps"] = {
            "cold": wl.COLD_RPS, "cold_steps": list(wl.COLD_STEPS_RPS),
            "cold_step_limit_ms": wl.COLD_LIMIT_S * 1e3, "hit": wl.HIT_RPS,
        }
        check = [r for cold_chunk, _ in schedule.rounds for r in cold_chunk][:wl.CHECK_SAMPLE]
        held = {o.object_id: o for o in prep.held_out}
        untraced: list = []
        if args.trace:
            base, _ = self._spawn(prep.corpus_dir)
            try:
                untraced = [o for c, _ in schedule.rounds for o in self._open_loop(base, c)]
            finally:
                self._stop(base)
        serve_spans = self.workdir / "serve-spans.json" if args.trace else None
        n_rounds = len(schedule.rounds)
        interludes = set() if args.trace else {
            n_rounds * j // SEARCH_SAMPLES for j in range(1, SEARCH_SAMPLES)}
        server, setup = self._spawn(prep.corpus_dir, serve_spans)
        self.setups.append(setup)
        try:
            self._sequential(server, schedule.warmup)
            cold, hit = [], []
            for i, (cold_chunk, hit_chunk) in enumerate(schedule.rounds):
                if i in interludes:
                    self._interlude()
                cold += self._open_loop(server, cold_chunk)
                hit += self._open_loop(server, hit_chunk)
            steps = [(rate, self._open_loop(server, requests))
                     for rate, requests in schedule.steps]
            cache = self._stats(server)["cache"]
            rss = server.peak_rss_mib()
        finally:
            self._stop(server)
        ref = wl.reference(prep.corpus_dir, check, held)
        compared = self._check_rankings(cold, ref)
        if compared < len(check):
            self.errors.append(f"only {compared} of {len(check)} check rankings were served")
        step_rows = []
        for rate, outcomes in steps:
            row = stats.latency_summary([o.latency for o in outcomes])
            row["rate_rps"] = rate
            row["passed"] = stats.step_passes(
                [o.latency for o in outcomes], [o.send_delay for o in outcomes],
                wl.COLD_LIMIT_S)
            step_rows.append(row)
        self.report["steps"] = step_rows
        metrics = self._latencies("search", cold)
        metrics.update(self._latencies("hit", hit))
        metrics.update({
            "search_max_rps": stats.max_passing_rate(
                (r["rate_rps"], r["passed"]) for r in step_rows),
            "p_at_10": wl.p_at_k(prep.full, self._served(cold)),
            "server_rss_mib": rss,
            "index_mib": wl.index_mib(prep.corpus_dir),
            "cache_hit_ratio": _hit_ratio(cache),
            "checked_rankings": compared,
        })
        if args.trace:
            self._layers(metrics, build_spans, serve_spans, ref, cold, untraced, cache)
        return metrics

    def _feed(self, prep, build_spans: Path | None) -> dict:
        args, wl = self.args, self.wl
        schedule = wl.feed_schedule(prep, args.seconds)
        self.report["provenance"]["rates_rps"] = {
            "loop_s": wl.feed_loop_seconds(args.seconds),
            "search": wl.FEED_SEARCH_RPS, "recommend": 1.0 / wl.FEED_RECOMMEND_PERIOD_S,
            "recommend_share": wl.FEED_RECOMMEND_SHARE,
            "ingest_batches": wl.feed_batches(args.seconds) / wl.feed_loop_seconds(args.seconds),
            "ingest_batch_objects": wl.FEED_BATCH, "compactions": wl.FEED_COMPACTIONS,
            "hit": wl.HIT_RPS,
        }
        # Trace runs compare traced and untraced latency on the same
        # read-only prelude, before anything is ingested.
        prelude = [r for r in schedule
                   if r.kind == "search" and r.due < wl.feed_loop_seconds(args.seconds) / 2]
        untraced: list = []
        if args.trace:
            base, _ = self._spawn(prep.corpus_dir)
            try:
                self._sequential(base, wl.feed_warmup(prep))
                untraced = self._open_loop(base, prelude)
            finally:
                self._stop(base)
        serve_spans = self.workdir / "serve-spans.json" if args.trace else None
        jsonl = prep.corpus_dir / "objects.jsonl"
        jsonl_before = jsonl.stat().st_size
        check_requests = wl.feed_check_searches(prep)
        # The quiet reads come in rounds, between the sweep parts and
        # the later build and setup samples, so they sample more than one
        # stretch of the host's drifting speed.
        n_rounds = wl.FEED_QUIET_ROUNDS
        rounds = [check_requests[i::n_rounds] for i in range(n_rounds)]
        parts = [wl.tracked_users(prep)[i::n_rounds] for i in range(n_rounds)]
        check, hit, sweep = [], [], []
        server, setup = self._spawn(prep.corpus_dir, serve_spans)
        self.setups.append(setup)
        try:
            self._sequential(server, wl.feed_warmup(prep))
            traced_prelude = self._open_loop(server, prelude) if args.trace else []
            loop = self._open_loop(server, schedule)
            compactions = self._sequential(
                server, [wl.compact_request() for _ in range(wl.FEED_COMPACTIONS)])
            for i, (chunk, part) in enumerate(zip(rounds, parts)):
                if i and not args.trace:
                    self._interlude()
                check += self._sequential(server, chunk)
                hit += self._open_loop(server, wl.hot_stream(
                    prep.rng, [r.tag for r in chunk], args.seconds * wl.HIT_SHARE / n_rounds))
                sweep += self._sequential(server, [wl.recommend_request(u, None) for u in part])
            cache = self._stats(server)["cache"]
            rss = server.peak_rss_mib()
        finally:
            self._stop(server)
        ingests = [o for o in loop if o.request.kind == "ingest"]
        for outcome in ingests:
            if not outcome.ok:
                self.errors.append(
                    f"ingest of {outcome.request.tag} answered {outcome.status}")
            elif outcome.followup is None or not outcome.followup.ok:
                self.errors.append(
                    f"ingested {outcome.request.tag[0]} not searchable right after ingest")
        for outcome in sweep:
            if outcome.status != 200:
                self.errors.append(
                    f"recommend for {outcome.request.tag[0]} answered {outcome.status}")
        ref = wl.reference(prep.corpus_dir, check_requests, {})
        compared = self._check_rankings(check, ref)
        if compared < len(check):
            self.errors.append(f"only {compared} of {len(check)} check rankings were served")
        depth = max((o.json()["segments"]["n_segments"] for o in ingests if o.ok), default=0)
        ingested_bytes = sum(len(o.request.body) for o in ingests if o.ok)
        index_bytes = (prep.corpus_dir / "index.bin").stat().st_size
        # The gated read latency is the quiet one: in a two-connection
        # open loop, the median of reads beside writes swings with the
        # host's speed by more than the largest bound, so it is reported
        # (loop_search_*) but not gated.
        metrics = self._latencies("search", check)
        metrics.update(self._latencies(
            "loop_search", [o for o in loop if o.request.kind == "search"]))
        metrics.update(self._latencies("hit", hit))
        metrics.update(self._latencies(
            "recommend", [o for o in loop if o.request.kind == "recommend"]))
        metrics.update(self._latencies("ingest", ingests))
        metrics.update({
            "compact_s": statistics.median([o.end - o.sent for o in compactions]),
            "p_at_10": wl.p_at_k(prep.full, self._served(check)),
            "rec_p_at_10": wl.rec_p_at_k(prep.full, [
                (o.request.tag[0], [r["object_id"] for r in o.json()["results"]])
                for o in sweep if o.ok]),
            "server_rss_mib": rss,
            "index_mib": index_bytes / float(1 << 20),
            "delta_depth": depth,
            "cache_hit_ratio": _hit_ratio(cache),
            "checked_rankings": compared,
        })
        if args.trace:
            written = jsonl.stat().st_size - jsonl_before + index_bytes
            extra = {
                "serving.snapshot.delta_depth": depth,
                "storage.store.write_amp": written / ingested_bytes if ingested_bytes else 0.0,
            }
            self._layers(metrics, build_spans, serve_spans, ref, traced_prelude, untraced,
                         cache, extra)
        return metrics

    def _scale(self, side: str) -> float:
        """The run's host-speed scale for work on the server's CPU or
        the generator's CPUs (recorded in the report)."""
        cpus = loadgen.SERVER_CPUS if side == "server" else loadgen.GENERATOR_CPUS
        scale = self.speed.scale(cpus)
        self.report["provenance"][f"host_scale_{side}"] = scale
        self.report["provenance"][f"host_kernel_{side}_ms"] = [
            t * 1e3 for t in self.speed.samples[frozenset(cpus)]]
        return scale

    def _latencies(self, prefix: str, outcomes: list) -> dict:
        """Median and tail at the reference host speed, plus the
        measured median."""
        latencies = [o.latency for o in outcomes]
        summary = stats.latency_summary([t * self._scale("server") for t in latencies])
        summary["p50_measured_ms"] = stats.latency_summary(latencies)["p50_ms"]
        return {f"{prefix}_{key}": value for key, value in summary.items()}

    def _layers(self, metrics: dict, build_spans: Path, serve_spans: Path, ref,
                traced: list, untraced: list, cache: dict, extra: dict | None = None) -> None:
        traced_p50 = stats.latency_summary([o.latency for o in traced])["p50_ms"]
        untraced_p50 = stats.latency_summary([o.latency for o in untraced])["p50_ms"]
        client = dict(ref.counts)
        client.update(extra or {})
        client["serving.http.rejected"] = float(self.rejected)
        client["serving.cache.evictions"] = float(cache["evictions"])
        client["trace.overhead_ratio"] = traced_p50 / untraced_p50
        names = [m["name"] for m in self.spec["per_layer"]]
        metrics.update(layers.per_layer(layers.Dump(build_spans), layers.Dump(serve_spans),
                                        client, names))
        if (self.args.workload == "search"
                and metrics["trace.attributed_ratio"] < layers.ATTRIBUTED_BOUND):
            self.report["warnings"] = [
                f"named layers cover {metrics['trace.attributed_ratio']:.3f} of the traced "
                f"service time, below {layers.ATTRIBUTED_BOUND}"]


_SUFFIX_UNITS = (("_ms", "ms"), ("_s", "s"), ("_mib", "MiB"), ("_rps", "req/s"),
                 ("_pct", "percentile"))


def _unit(name: str) -> str:
    """Unit of a report-only metric, from its name."""
    for suffix, unit in _SUFFIX_UNITS:
        if name.endswith(suffix):
            return unit
    return "ratio" if "ratio" in name or name.endswith("p_at_10") else "count"


def _hit_ratio(cache: dict) -> float:
    lookups = cache["hits"] + cache["misses"]
    return cache["hits"] / lookups if lookups else 0.0


if __name__ == "__main__":
    raise SystemExit(main())
