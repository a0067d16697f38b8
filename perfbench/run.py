"""Benchmark glasstrie end to end, or layer by layer with ``--trace 1``.

    python3 perfbench/run.py --workload book-feed --seed 1 --seconds 15 --trace 0

Run from the repository root: the package is imported from ``src/``.
One client replays a seeded event stream in a closed loop (each call
returns before the next one starts), single-threaded, the way a feed
handler calls its book once per message. Every answer is checked
against the package oracles. Times are reported at a reference machine
speed, measured by a probe loop timed next to them (see ``probe_ns``).
The last line of standard output is one JSON object with the metrics;
the exit code is non-zero when any answer was wrong, an op raised, or
the workload did not exercise its layer.
Run records and spans go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import sys
import time
import tracemalloc
from array import array
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"

#: events replayed untimed first, so a book reaches its working depth
WARMUP_EVENTS = 20_000
#: events generated, timed and then checked at a time
BLOCK_EVENTS = 10_000
#: events replayed under tracemalloc after the warm-up
MEM_EVENTS = 20_000
#: events a plain run counts layer work over, for its layer gate
GATE_EVENTS = 20_000
#: events a traced run replays per second of ``--seconds``
TRACE_EVENTS_PER_SECOND = 10_000
#: how far the layers' self times plus the idle loop's time may differ
#: from the untraced wall time, as a share of it, before a traced run fails
ACCOUNTING_TOLERANCE = 0.25
#: set-up is repeated at least this often, and for at least this long,
#: before the timed blocks
SETUP_MIN_REPS = 5
SETUP_SECONDS = 1.0
#: iterations of the speed probe, a fixed pure-Python loop timed after
#: every timed block and every set-up creation (see ``probe_ns``)
PROBE_LOOPS = 20_000
#: the probe's median time on the machine the benchmark was written on
#: (Intel Xeon, 2 vCPUs of a shared host, CPython 3.11.7); times are
#: reported at the speed that gives the probe this time
PROBE_NOMINAL_NS = 4_400_000


def _import_package():
    """Put this checkout's ``src`` first on the path; fail without it.

    The functions below import the package, and this benchmark's modules
    that use it, only after this has run.
    """
    src = ROOT / "src"
    if not (src / "glasstrie" / "__init__.py").is_file():
        sys.exit(f"error: {src / 'glasstrie'} not found; run from a full checkout")
    sys.path[:0] = [str(src), str(ROOT)]


def fingerprint() -> dict:
    return {
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "system": platform.system(),
    }


def bind(table, events) -> list:
    """``(bound method, args)`` calls for ``events``, ready to time."""
    return [(table[slot], args) for slot, args in events]


def mismatches(expected: list, got: list) -> int:
    return sum(1 for e, g in zip(expected, got) if e != g) + abs(len(expected) - len(got))


def prepared(wl, seed: int):
    """Feed, a subject and the oracle's method table, both warmed up with
    the same events, and the count of warm-up answers that differed."""
    from perfbench.workloads import replay

    feed = wl.new_feed(seed)
    inputs = wl.inputs(feed)
    subject = wl.build(inputs)
    oracle = wl.methods(wl.oracle(inputs))
    warm = feed.take(WARMUP_EVENTS)
    failed = mismatches(replay(oracle, warm), replay(wl.methods(subject), warm))
    return feed, subject, oracle, failed


def timed_block(calls, latencies: array, error_type) -> tuple[list, int]:
    """Time each call on its own; a raised package error is its answer."""
    clock = time.perf_counter_ns
    record = latencies.append
    answers = []
    keep = answers.append
    start = clock()
    for fn, args in calls:
        t0 = clock()
        try:
            r = fn(*args)
        except error_type as exc:
            r = exc
        record(clock() - t0)
        keep(r)
    return answers, clock() - start


def probe_ns() -> int:
    """Time a fixed loop of dict stores and lookups that touches no code
    under test.

    A shared host runs the interpreter up to twice as fast in some
    stretches of tens of seconds as in others. The probe slows down with
    the ops timed next to it, so the ratio of its time to
    ``PROBE_NOMINAL_NS`` takes that swing out of the reported times.
    """
    clock = time.perf_counter_ns
    t0 = clock()
    d = {}
    s = 0
    for i in range(PROBE_LOOPS):
        d[i & 1023] = i
        s += d.get((i * 7) & 1023, 0)
    return clock() - t0


def setup_seconds(wl) -> float:
    """Time one creation of the structures under test, then drop them."""
    t0 = time.perf_counter()
    subject = wl.create()
    elapsed = time.perf_counter() - t0
    del subject
    return elapsed


def peak_bytes(wl, seed: int) -> int:
    """Peak traced bytes while building and running the first events;
    the inputs exist before tracing starts."""
    feed = wl.new_feed(seed)
    inputs = wl.inputs(feed)
    events = feed.take(WARMUP_EVENTS + MEM_EVENTS)
    gc.collect()
    tracemalloc.start()
    try:
        table = wl.methods(wl.build(inputs))
        for slot, args in events:
            table[slot](*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def count_pass(wl, seed: int, events: int):
    """Layer counts over ``events`` events after the warm-up, and the
    checksum of the answers."""
    from perfbench.tracing import LayerCounts
    from perfbench.workloads import checksum, replay

    feed, subject, _, _ = prepared(wl, seed)
    counts = LayerCounts()
    for book, glass in wl.layers(subject):
        if book is not None:
            counts.instrument_book(book)
        counts.instrument_glass(glass)
    answers = replay(wl.methods(subject), feed.take(events))
    return counts, checksum(answers)


def plain_run(wl, seed: int, seconds: int) -> dict:
    import numpy as np

    from glasstrie import GlassError
    from perfbench.workloads import replay

    mem = peak_bytes(wl, seed)
    feed, subject, oracle, failed = prepared(wl, seed)
    # set-up is timed before the ops, each creation followed by a probe,
    # so it is scaled by the machine's speed over its own stretch
    setups, setup_probes = [], []
    setup_start = time.perf_counter()
    while len(setups) < SETUP_MIN_REPS or time.perf_counter() - setup_start < SETUP_SECONDS:
        setups.append(setup_seconds(wl))
        setup_probes.append(probe_ns())
    latencies = array("q")
    rates = []
    probes = []
    mix = Counter()
    attempted = timed = 0
    table = wl.methods(subject)
    gc.collect()
    while timed < seconds * 1e9:
        events = feed.take(BLOCK_EVENTS)
        answers, block_ns = timed_block(bind(table, events), latencies, GlassError)
        timed += block_ns
        probes.append(probe_ns())
        rates.append(len(events) / block_ns * 1e9)
        failed += mismatches(replay(oracle, events), answers)
        attempted += len(events)
        mix.update(slot for slot, _ in events)
    subject = table = oracle = None
    p50, p99 = np.percentile(np.frombuffer(latencies, dtype=np.int64), [50, 99])
    counts, _ = count_pass(wl, seed, GATE_EVENTS)
    as_measured = {
        "ops_per_s": attempted / timed * 1e9,
        "op_p50_ns": float(p50),
        "op_p99_ns": float(p99),
        "setup_s": statistics.median(setups),
    }
    # every time is divided by how much slower than nominal the probe ran
    # over the same stretch of the run
    slowdown = statistics.fmean(probes) / PROBE_NOMINAL_NS
    setup_slowdown = statistics.fmean(setup_probes) / PROBE_NOMINAL_NS
    return {
        "attempted": attempted,
        "failed": failed,
        "gate": wl.not_exercised(counts),
        "metrics": {
            "ops_per_s": (as_measured["ops_per_s"] * slowdown, "ops/s"),
            "op_p50_ns": (as_measured["op_p50_ns"] / slowdown, "ns"),
            "op_p99_ns": (as_measured["op_p99_ns"] / slowdown, "ns"),
            "setup_s": (as_measured["setup_s"] / setup_slowdown, "s"),
            "mem_bytes": (mem, "B"),
            "success_rate": ((attempted - failed) / attempted, "ratio"),
        },
        "record": {
            "as_measured": as_measured,
            "slowdown": slowdown,
            "setup_slowdown": setup_slowdown,
            "probe_ns": {"mean": statistics.fmean(probes), "min": min(probes),
                         "max": max(probes), "count": len(probes)},
            "timed_s": timed / 1e9,
            "blocks": len(rates),
            "block_rates": rates,
            "latency_samples": len(latencies),
            "setup_reps": len(setups),
            "op_counts": {wl.slot_names[slot]: n for slot, n in mix.items()},
            "op_shares": {wl.slot_names[slot]: n / attempted for slot, n in mix.items()},
            "gate_counts": vars_of(counts),
        },
    }


def vars_of(counts) -> dict:
    return {k: v for k, v in vars(counts).items() if isinstance(v, (int, float))}


def traced_run(wl, seed: int, seconds: int) -> dict:
    from perfbench.tracing import SPAN_FIELDS, Calibration, SpanRecorder, calibrate
    from perfbench.workloads import BASELINES, checksum, replay

    n = TRACE_EVENTS_PER_SECOND * seconds
    clock = time.perf_counter_ns
    untraced = SimpleNamespace(request=0)

    def loop(calls, rec=untraced, first=0):
        """The replay loop, the same with and without spans."""
        answers = []
        keep = answers.append
        gc.collect()
        start = clock()
        for i, (fn, args) in enumerate(calls, first):
            rec.request = i
            keep(fn(*args))
        return answers, clock() - start

    def idle(*args):
        return None

    # An untraced and a traced copy take the same events block by block,
    # with a calibration and an idle loop between them, so all of them see
    # the same machine states; the untraced answers are checked against
    # the oracle.
    feed, plain, oracle, failed = prepared(wl, seed)
    _, traced, _, traced_failed = prepared(wl, seed)
    failed += traced_failed
    rec = SpanRecorder()
    for book, glass in wl.layers(traced):
        if book is not None:
            rec.instrument("orderbook", book)
        rec.instrument("glass", glass)
        rec.instrument("cachetable", glass.table)
        rec.instrument("nodepool", glass.pool)
    plain_table, traced_table = wl.methods(plain), wl.methods(traced)
    plain_ns = traced_ns = idle_ns = reference = spanned = 0
    empties = []
    for first in range(0, n, BLOCK_EVENTS):
        events = feed.take(min(BLOCK_EVENTS, n - first))
        answers, ns = loop(bind(plain_table, events))
        plain_ns += ns
        failed += mismatches(replay(oracle, events), answers)
        reference = checksum(answers, reference)
        empties.append(calibrate())
        idle_ns += loop([(idle, args) for _, args in events])[1]
        answers, ns = loop(bind(traced_table, events), rec, first)
        traced_ns += ns
        spanned = checksum(answers, spanned)
    mismatched = ["spans"] if spanned != reference else []
    plain = traced = plain_table = traced_table = oracle = answers = None
    # the empty span gives the split of a span's cost between caller and
    # callee; the traced-minus-untraced wall time gives its size
    empty = Calibration(statistics.median(c.outer_ns for c in empties),
                        statistics.median(c.inner_ns for c in empties))
    cal = empty.scaled((traced_ns - plain_ns) / rec.opened)

    counts, summed = count_pass(wl, seed, n)
    if summed != reference:
        mismatched.append("counts")

    baseline_rates = {}
    for name, factory in BASELINES.items():
        feed = wl.new_feed(seed)
        inputs = wl.inputs(feed)
        table = wl.methods(wl.build(inputs, baseline=factory))
        replay(table, feed.take(WARMUP_EVENTS))
        answers, ns = loop(bind(table, feed.take(n)))
        baseline_rates[name] = n / ns * 1e9
        if checksum(answers) != reference:
            mismatched.append(name)
        table = answers = None

    own = rec.self_times(cal)
    layer_ns = sum(t for _, t in own.values())
    loop_ns = rec.loop_self(traced_ns, cal)
    # the loop's time left over in the traced pass is whatever the spans
    # do not cover; the idle loop measures it on its own instead
    accounted = (layer_ns + idle_ns) / plain_ns

    def self_ns(*names, per=None):
        calls = sum(own[m][0] for m in names if m in own)
        total = sum(own[m][1] for m in names if m in own)
        div = calls if per is None else per
        return total / div if div else 0.0

    def share(part, whole):
        return part / whole if whole else 0.0

    capacity = sum(p.capacity for p in counts.pools)
    metrics = {  # name -> (value, unit)
        "orderbook.adjust.self_ns": (self_ns("orderbook.adjust"), "ns"),
        "orderbook.best.self_ns": (self_ns("orderbook.best"), "ns"),
        "orderbook.iterate_best.self_ns": (self_ns("orderbook.iterate_best"), "ns"),
        "orderbook.next_best_after.self_ns": (self_ns("orderbook.next_best_after"), "ns"),
        "orderbook.restructure.calls": (counts.restructures, "count"),
        "orderbook.restructure.self_ns": (self_ns("orderbook.restructure"), "ns"),
        "orderbook.restructure.levels_moved": (counts.levels_moved, "count"),
        "orderbook.preemptions": (counts.preemptions, "count"),
        "orderbook.overflow_share": (share(counts.overflow_routed, counts.routed), "ratio"),
        "glass.find.self_ns": (self_ns("glass.find"), "ns"),
        "glass.insert.self_ns": (self_ns("glass.insert"), "ns"),
        "glass.erase.self_ns": (self_ns("glass.erase"), "ns"),
        "glass.next_prev.self_ns": (self_ns("glass.next", "glass.prev"), "ns"),
        "glass.min_max.self_ns": (self_ns("glass.min", "glass.max"), "ns"),
        "glass.first_items.self_ns_per_item": (self_ns("glass.first_items", per=counts.items), "ns"),
        "glass.jump_depth_mean": (share(counts.jump_depth_sum, counts.jumps), "chunks"),
        "cachetable.hit_share": (share(counts.hits, counts.probes), "ratio"),
        "cachetable.absent_share": (share(counts.absents, counts.probes), "ratio"),
        "cachetable.dont_know_share": (share(counts.dont_knows, counts.probes), "ratio"),
        "cachetable.dont_know_model": (counts.dont_know_model(), "ratio"),
        "cachetable.probes_mean": (share(counts.probe_steps, counts.probes), "probes"),
        "cachetable.load": (share(sum(t.count for t in counts.tables),
                                 sum(t.bucket_count for t in counts.tables)), "ratio"),
        "cachetable.maint.self_ns": (self_ns(*(f"cachetable.{m}" for m in
                                              ("insert", "remove", "maybe_grow", "grow"))), "ns"),
        "cachetable.grows": (counts.grows, "count"),
        "nodepool.nodes_per_insert": (share(counts.nodes_allocated, counts.inserts), "nodes"),
        "nodepool.nodes_per_erase": (share(counts.nodes_freed, counts.erases), "nodes"),
        "nodepool.alloc.self_ns": (self_ns("nodepool.allocate", "nodepool.allocate_many"), "ns"),
        "nodepool.free.self_ns": (self_ns("nodepool.deallocate"), "ns"),
        "nodepool.live_peak": (counts.live_peak, "nodes"),
        "nodepool.capacity": (capacity, "nodes"),
        "nodepool.live_ratio": (share(counts.live_peak, capacity), "ratio"),
        "nodepool.array_bytes": (counts.array_bytes(), "B"),
        "baseline.rbt.ops_per_s": (baseline_rates.get("rbt", 0.0), "ops/s"),
        "baseline.sorteddict.ops_per_s": (baseline_rates.get("sorteddict", 0.0), "ops/s"),
        "trace.span_cost_ns": (cal.span_ns, "ns"),
        "trace.overhead": (share(traced_ns, plain_ns), "ratio"),
        "trace.accounted_share": (accounted, "ratio"),
    }
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"{wl.name}-seed{seed}-spans.csv"
    rec.write_spans(str(spans_path))
    return {
        "attempted": n,
        "failed": failed,
        "gate": wl.not_exercised(counts),
        "mismatched": mismatched,
        "unaccounted": abs(accounted - 1) > ACCOUNTING_TOLERANCE,
        "metrics": metrics,
        "record": {
            "events": n,
            "spans": rec.opened,
            "spans_kept": len(rec.kept) // len(SPAN_FIELDS),
            "spans_file": spans_path.name,
            "calibration_ns": {"outer": cal.outer_ns, "inner": cal.inner_ns,
                               "empty_outer": empty.outer_ns, "empty_inner": empty.inner_ns},
            "wall_ns": {
                "untraced": plain_ns,
                "traced": traced_ns,
                "idle_loop": idle_ns,
                "loop_self": loop_ns,
                "layer_self": layer_ns,
                "tracing": rec.opened * cal.span_ns,
            },
            "self_ns_by_span": {k: {"calls": c, "self_ns": s} for k, (c, s) in own.items()},
            "counts": vars_of(counts),
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    _import_package()
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    if args.trace:
        result = traced_run(wl, args.seed, args.seconds)
    else:
        result = plain_run(wl, args.seed, args.seconds)

    problems = []
    if result["failed"]:
        problems.append(f"{result['failed']} ops answered differently from the oracle or raised")
    if result["gate"]:
        problems.append(f"workload not exercising its layer: {result['gate']}")
    for name in result.get("mismatched", ()):
        problems.append(f"{name} pass answers differ from the untraced glass pass")
    if result.get("unaccounted"):
        share = result["metrics"]["trace.accounted_share"][0]
        problems.append(f"self times and loop account for {share:.3f} of the untraced "
                        f"wall time, outside 1 +- {ACCOUNTING_TOLERANCE}")

    record = {
        "workload": wl.name,
        "why": wl.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "fingerprint": fingerprint(),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "problems": problems,
        "metrics": {k: v for k, (v, _) in result["metrics"].items()},
        **result["record"],
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    print(f"# {wl.name} seed {args.seed}: {result['attempted']} ops attempted, "
          f"{result['failed']} failed")
    if "latency_samples" in result["record"]:
        print(f"# latency samples = {result['record']['latency_samples']}")
    for name, (value, unit) in result["metrics"].items():
        print(f"# {name} = {value:.6g} {unit}")
    for problem in problems:
        print(f"# FAIL {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
