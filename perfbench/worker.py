"""One benchmark worker process: set up, then run queries in a closed loop.

A single client issues each query only after the previous one has returned.
The worker prints one JSON object per line and flushes each, so the parent
still sees every finished query if the worker later crashes or is killed:

    {"setup_s": ...}                       after import and input generation
    {"i": ..., "ns": ..., "digest": ..., "error": ...}   per query
    {"rss_mb": ..., "layers": {...}}       at the end

Modes: ``setup`` stops after set-up; ``timed`` runs queries until their
summed latency reaches --seconds, and at least MIN_QUERIES of them;
``fixed`` runs exactly --count queries, traced or not, so that answers and
counts can be compared query by query between runs.

Answer checks run between queries, outside the timed region, with tracing
off. They never call a library function that a timed query of the same
workload relies on for its caches.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
QUERY_TIMEOUT_S = 30
MIN_QUERIES = 100         # so that at least ten latencies lie beyond p90


class QueryTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise QueryTimeout(f"query exceeded {QUERY_TIMEOUT_S} s")


def emit(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "timed", "fixed"), required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--count", type=int, default=0)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--spans", help="file to write the traced spans to")
    args = ap.parse_args(argv)

    # set-up: what a CLI user pays on every call, plus input generation
    sys.path.insert(0, str(HERE.parent / "src"))
    t0 = time.perf_counter()
    import weylbox.cli  # noqa: F401  (pulls in every module)
    t_import = time.perf_counter() - t0
    import workloads
    wl = workloads.WORKLOADS[args.workload]
    t1 = time.perf_counter()
    stream = workloads.Stream(random.Random(f"{wl.name}:{args.seed}"),
                              wl.pattern, wl.populations(args.seed))
    stream.take(0)
    emit({"setup_s": t_import + time.perf_counter() - t1})
    if args.mode == "setup":
        return 0

    expected = []
    expected_file = HERE / "expected" / f"{wl.name}.json"
    if expected_file.is_file():
        stored = json.loads(expected_file.read_text())
        if stored["seed"] == args.seed:
            expected = stored["digests"]

    tracer = None
    if args.traced:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    signal.signal(signal.SIGALRM, _on_alarm)
    clock = time.perf_counter_ns
    timed_ns = 0
    i = 0
    while (timed_ns < args.seconds * 1e9 or i < MIN_QUERIES
           if args.mode == "timed" else i < args.count):
        kind, q = stream.take(i)
        error = answer = None
        state = tracer.start(i) if tracer else None
        signal.setitimer(signal.ITIMER_REAL, QUERY_TIMEOUT_S)
        t_start = clock()
        try:
            answer = wl.run(kind, q)
        except Exception as exc:  # a failed query is data, not a crash
            error = f"{type(exc).__name__}: {exc}"
        finally:
            t_end = clock()
            signal.setitimer(signal.ITIMER_REAL, 0)
            if tracer:
                tracer.stop(state)
        timed_ns += t_end - t_start
        digest = None
        if error is None:
            digest = workloads.digest(wl.canonical(kind, q, answer))
            try:
                error = wl.check(kind, q, answer)
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
            if error is None and i < len(expected) and expected[i] != digest:
                error = "answer differs from the stored expected answer"
        emit({"i": i, "ns": t_end - t_start, "digest": digest, "error": error})
        i += 1

    end = {"rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer:
        end["layers"] = tracer.metrics(timed_ns / 1e9)
        if args.spans:
            tracer.write(args.spans)
    emit(end)
    return 0


if __name__ == "__main__":
    sys.exit(main())
