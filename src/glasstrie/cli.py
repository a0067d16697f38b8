"""Command-line front end for the benchmark and analysis toolkit.

Subcommands::

    glasstrie bench synth  --op {insert|erase|find-e|find-ne} --copies N --seed S
    glasstrie bench replay --file F --copies N [--amplify-iter 100]
    glasstrie locality     --file F --out-prefix P
    glasstrie dunno        --n N --b B --jmax J
    glasstrie capacity     --width {16|32} --sizes 900 9000 ...

``--copies`` accepts a single count or an inclusive range like ``1-32``;
ranged runs write the ratio-vs-copies CSV used for the speedup graphs.
Exit status is 0 on success, 2 on bad input or a reported error.
"""

from __future__ import annotations

import argparse
import sys

from .benchkit.bench import (
    SYNTH_FAMILIES,
    ratio_csv,
    ratio_sweep,
    replay_workload,
    synth_workload,
    write_ratio_csv,
)
from .benchkit.capacity import capacity_report
from .benchkit.events import read_events
from .benchkit.locality import locality_histograms
from .benchkit.probability import dunno_table
from .errors import GlassError


def _parse_copies(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-", 1)
        copies = list(range(int(lo), int(hi) + 1))
        if not copies:
            raise ValueError(f"empty copies range {text!r}")
        return copies
    return [int(text)]


def _emit_rows(rows, out_path: str | None, family: str):
    if out_path:
        write_ratio_csv(rows, out_path)
        print(f"{family}: wrote {out_path}")
        return
    print(ratio_csv(rows), end="")


def cmd_bench_synth(args) -> int:
    workload = synth_workload(args.op, args.seed, count=args.ops)
    rows = ratio_sweep(workload, _parse_copies(args.copies), args.iterations)
    _emit_rows(rows, args.out, args.op)
    return 0


def cmd_bench_replay(args) -> int:
    events = read_events(args.file)
    workload = replay_workload(
        events=events,
        max_size=args.max_size,
        amplify_iter=args.amplify_iter,
    )
    rows = ratio_sweep(workload, _parse_copies(args.copies), args.iterations)
    _emit_rows(rows, args.out, workload.family)
    return 0


def cmd_locality(args) -> int:
    seq, edge = locality_histograms(read_events(args.file))
    seq_path = f"{args.out_prefix}-seq.txt"
    edge_path = f"{args.out_prefix}-edge.txt"
    seq.write(seq_path)
    edge.write(edge_path)
    print(f"sequential: {seq.total} events -> {seq_path}")
    print(f"edge:       {edge.total} events -> {edge_path}")
    return 0


def cmd_dunno(args) -> int:
    for j, p_present, p_absent in dunno_table(args.n, args.b, range(args.jmax + 1)):
        print(f"{j} {p_present:.6e} {p_absent:.6e}")
    return 0


def cmd_capacity(args) -> int:
    for row in capacity_report(args.sizes, width=args.width):
        print(f"{row.size} {row.node_bound} {row.memory}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="glasstrie",
        description="benchmarks and analysis for the trie-based order-book map",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    bench = sub.add_parser("bench", help="timing benchmarks against the baselines")
    bench_sub = bench.add_subparsers(dest="bench_kind", required=True)

    synth = bench_sub.add_parser("synth", help="isolated single-op workloads")
    synth.add_argument("--op", choices=SYNTH_FAMILIES, required=True)
    synth.add_argument("--copies", default="1", help="count or range, e.g. 4 or 1-32")
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--ops", type=int, default=512, help="workload length")
    synth.add_argument("--iterations", type=int, default=None,
                       help="override the floor(2500/copies) default")
    synth.add_argument("--out", default=None, help="CSV path (default: stdout)")
    synth.set_defaults(func=cmd_bench_synth)

    replay = bench_sub.add_parser("replay", help="recorded-event replay")
    replay.add_argument("--file", required=True, help="event file")
    replay.add_argument("--copies", default="1")
    replay.add_argument("--amplify-iter", type=int, default=None, metavar="FACTOR",
                        help="replace each iteration op with FACTOR copies and "
                             "drop other read-only ops")
    replay.add_argument("--max-size", type=int, default=256,
                        help="glass capacity per book side")
    replay.add_argument("--iterations", type=int, default=None,
                        help="override the floor(7500/copies) default")
    replay.add_argument("--out", default=None)
    replay.set_defaults(func=cmd_bench_replay)

    locality = sub.add_parser("locality", help="price-difference histograms")
    locality.add_argument("--file", required=True)
    locality.add_argument("--out-prefix", required=True)
    locality.set_defaults(func=cmd_locality)

    dunno = sub.add_parser("dunno", help="cache-table don't-know probabilities")
    dunno.add_argument("--n", type=int, required=True, help="stored elements")
    dunno.add_argument("--b", type=int, required=True, help="buckets")
    dunno.add_argument("--jmax", type=int, required=True, help="probe limits 0..jmax")
    dunno.set_defaults(func=cmd_dunno)

    capacity = sub.add_parser("capacity", help="worst-case memory table")
    capacity.add_argument("--width", type=int, choices=(16, 32), required=True)
    capacity.add_argument("--sizes", type=int, nargs="+", required=True)
    capacity.set_defaults(func=cmd_capacity)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (GlassError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
