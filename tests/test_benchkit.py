from __future__ import annotations

import math
import random

import pytest

from glasstrie.benchkit.amplify import amplify
from glasstrie.benchkit.baseline import RBMap
from glasstrie.benchkit.bench import (
    default_iterations,
    ratio_sweep,
    replay_workload,
    run_bench,
    synth_workload,
)
from glasstrie.benchkit.capacity import capacity_report, format_bytes
from glasstrie.benchkit.events import (
    ADJUST,
    BEST,
    ITER,
    MarketEvent,
    parse_event,
    read_events,
    write_events,
)
from glasstrie.benchkit.locality import locality_histograms
from glasstrie.benchkit.probability import (
    dunno_prob_absent,
    dunno_prob_present,
    simulate_dunno_absent,
)
from glasstrie.benchkit.synth import absent_neighbors, local_price_sequence, market_events
from glasstrie.errors import ConfigError, InvalidArgument, MalformedEvent
from glasstrie.glass import create


class TestEvents:
    def test_round_trip(self, tmp_path):
        events = market_events(seed=1, count=300, key_bits=20)
        path = tmp_path / "events.txt"
        write_events(events, path, header="synthetic sample")
        assert read_events(path) == events

    def test_parse_rejects_garbage(self):
        with pytest.raises(MalformedEvent):
            parse_event("A B 100")  # missing delta
        with pytest.raises(MalformedEvent):
            parse_event("X B 100 1")
        with pytest.raises(MalformedEvent):
            parse_event("A B 100 0")  # zero delta

    def test_file_error_reports_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("B A\nnot an event\n")
        with pytest.raises(MalformedEvent, match="bad.txt:2"):
            read_events(path)


class TestSynth:
    def test_price_sequence_unique_and_local(self):
        prices = local_price_sequence(seed=2, count=2000, key_bits=30)
        assert len(set(prices)) == len(prices)
        diffs = [abs(a - b) for a, b in zip(prices, prices[1:])]
        assert all(d > 0 for d in diffs)
        assert sorted(diffs)[len(diffs) // 2] <= 10

    @pytest.mark.parametrize("count", [0, -3])
    def test_price_sequence_refuses_a_count_below_one(self, count):
        with pytest.raises(InvalidArgument):
            local_price_sequence(1, count)

    def test_absent_neighbors_absent_and_near(self):
        prices = local_price_sequence(seed=3, count=500, key_bits=30)
        queries = absent_neighbors(prices, key_bits=30)
        present = set(prices)
        assert len(queries) == len(prices)
        assert all(q not in present for q in queries)
        # each query is the nearest hole to its price: dense walk regions
        # leave no closer absent key
        for p, q in list(zip(prices, queries))[::29]:
            gap = abs(q - p)
            for closer in range(p - gap + 1, p + gap):
                assert closer in present or closer < 0

    def test_market_events_deterministic_and_valid(self):
        a = market_events(seed=9, count=1000, key_bits=24)
        b = market_events(seed=9, count=1000, key_bits=24)
        assert a == b
        # replaying adjusts never drives an amount negative
        books = {"B": {}, "A": {}}
        for ev in a:
            if ev.op != ADJUST:
                continue
            book = books[ev.side]
            new_amount = book.get(ev.price, 0) + ev.delta
            assert new_amount >= 0
            if new_amount:
                book[ev.price] = new_amount
            else:
                del book[ev.price]


class TestLocality:
    def test_constant_price_stream(self):
        events = [MarketEvent(ADJUST, "B", 100, +1) for _ in range(5)]
        seq, edge = locality_histograms(events)
        assert dict(seq.bins) == {0: 4}

    def test_alternating_offset(self):
        events = []
        for i in range(6):
            events.append(MarketEvent(ADJUST, "B", 100 + 3 * (i % 2), +1))
        seq, _ = locality_histograms(events)
        assert dict(seq.bins) == {3: 5}

    def test_edge_histogram_uses_best(self):
        events = [
            MarketEvent(ADJUST, "A", 100, +5),  # empty book: no edge sample
            MarketEvent(ADJUST, "A", 103, +5),  # best=100 -> bin 3
            MarketEvent(ADJUST, "A", 99, +5),   # best=100 -> bin 1
            MarketEvent(ADJUST, "A", 100, -5),  # best=99 -> bin 1
        ]
        _, edge = locality_histograms(events)
        assert dict(edge.bins) == {3: 1, 1: 2}
        assert edge.total == 3

    def test_synthetic_stream_peaks_near_zero(self, tmp_path):
        events = market_events(seed=4, count=4000, key_bits=24)
        seq, edge = locality_histograms(events)
        near = sum(c for d, c in seq.bins.items() if d <= 10)
        assert near / seq.total > 0.5
        out = tmp_path / "h"
        seq.write(f"{out}-seq.txt")
        rows = [line.split() for line in open(f"{out}-seq.txt")]
        assert all(len(r) == 2 for r in rows)


class TestAmplify:
    def test_single_iter_repeated(self):
        events = [MarketEvent(ADJUST, "B", 10, 1), MarketEvent(ITER, "B")]
        out = amplify(events, 100)
        assert len(out) == 101
        assert out.count(MarketEvent(ITER, "B")) == 100

    def test_factor_one_only_removes_reads(self):
        events = [
            MarketEvent(ADJUST, "B", 10, 1),
            MarketEvent(BEST, "B"),
            MarketEvent(ITER, "B"),
        ]
        out = amplify(events, 1)
        assert out == [MarketEvent(ADJUST, "B", 10, 1), MarketEvent(ITER, "B")]

    def test_preserves_modifying_subsequence(self):
        events = market_events(seed=6, count=2000, key_bits=24)
        out = amplify(events, 7)
        assert [e for e in out if e.op == ADJUST] == [
            e for e in events if e.op == ADJUST
        ]


class TestProbability:
    def test_package_imports_without_numpy(self, run_fresh):
        # numpy is imported only inside simulate_dunno_absent
        run_fresh(
            "import sys\n"
            "sys.modules['numpy'] = None\n"
            "import glasstrie, glasstrie.oracle, glasstrie.cli\n"
            "import glasstrie.benchkit.probability\n"
        )

    def test_paper_scale_present(self):
        p = dunno_prob_present(9210, 32768, 5)
        assert abs(p - 3.76e-7) / 3.76e-7 < 0.02

    def test_monotone_in_probe_limit(self):
        prev_p, prev_a = 1.0, 1.0
        for j in range(0, 12):
            pp = dunno_prob_present(2000, 1024, j)
            pa = dunno_prob_absent(2000, 1024, j)
            assert 0.0 <= pp <= prev_p + 1e-15
            assert 0.0 <= pa <= prev_a + 1e-15
            prev_p, prev_a = pp, pa

    def test_probe_limit_covering_everything(self):
        assert dunno_prob_present(50, 16, 50) == 0.0
        assert dunno_prob_absent(50, 16, 50) == 0.0

    def test_monte_carlo_agrees(self):
        est, se = simulate_dunno_absent(1000, 1024, 2, trials=400_000, seed=7)
        analytic = dunno_prob_absent(1000, 1024, 2)
        assert abs(est - analytic) <= 3 * se

    def test_empirical_cache_table_rate(self):
        # a real glass + cache table under uniform keys stays within a
        # loose factor of the idealized analysis
        from glasstrie.cachetable import DONT_KNOW
        from glasstrie.glass import create

        rng = random.Random(11)
        n, probes = 9210, 200_000
        g = create(key_bits=50, chunk_bits=5, width=16, max_size=9211)
        inserted = set()
        while len(inserted) < n:
            k = rng.getrandbits(50)
            if g.insert(k, 1):
                inserted.add(k)
        assert g.table.bucket_count == 32768
        hits = 0
        for _ in range(probes):
            k = rng.getrandbits(50)
            if k in inserted:
                continue
            if g.table.lookup(k >> 5) == DONT_KNOW:
                hits += 1
        p_absent = dunno_prob_absent(n, 32768, 5)
        bound = 10 * p_absent + 3 * math.sqrt(10 * p_absent / probes)
        assert hits / probes <= bound


class TestCapacityReport:
    def test_sixteen_bit_table(self):
        rows = capacity_report([900, 9000, 90000, 900000], width=16)
        assert [r.memory for r in rows] == ["339.05 Kb", "2.93 Mb", "N/A", "N/A"]

    def test_thirty_two_bit_table(self):
        rows = capacity_report([900, 9000, 90000, 900000], width=32)
        assert [r.memory for r in rows] == [
            "565.08 Kb",
            "4.89 Mb",
            "43.78 Mb",
            "414.57 Mb",
        ]

    def test_format_units(self):
        assert format_bytes(512) == "0.50 Kb"
        assert format_bytes(3 << 30) == "3.00 Gb"


class TestBench:
    def test_iteration_law(self):
        assert default_iterations("synthetic", 1) == 2500
        assert default_iterations("synthetic", 32) == 78
        assert default_iterations("replay", 1) == 7500
        assert default_iterations("replay", 3) == 2500

    def test_copies_bounds(self):
        w = synth_workload("find-e", seed=0, count=64)
        with pytest.raises(ConfigError):
            run_bench("glass", w, copies=0, iterations=1)
        with pytest.raises(ConfigError):
            run_bench("glass", w, copies=33, iterations=1)

    def test_results_independent_of_copies(self):
        w = synth_workload("insert", seed=5, count=128)
        sums = {
            run_bench("glass", w, copies=n, iterations=1).checksum for n in (1, 2, 5)
        }
        assert len(sums) == 1

    def test_same_seed_same_results(self):
        w1 = synth_workload("erase", seed=8, count=128)
        w2 = synth_workload("erase", seed=8, count=128)
        a = run_bench("rbt", w1, copies=2, iterations=1)
        b = run_bench("rbt", w2, copies=2, iterations=1)
        assert a.checksum == b.checksum

    def test_sweep_checks_cross_structure_checksums(self):
        w = synth_workload("find-ne", seed=2, count=128)
        rows = ratio_sweep(w, copies_list=[1, 2], iterations=2)
        assert [r.copies for r in rows] == [1, 2]
        assert all(r.glass_ns > 0 for r in rows)

    def test_replay_refuses_an_empty_workload(self):
        with pytest.raises(ConfigError):
            replay_workload(events=[])
        # amplification keeps only adjusts and iterations
        reads = [MarketEvent(BEST, "B"), MarketEvent("N", "A", 100)]
        with pytest.raises(ConfigError):
            replay_workload(events=reads, amplify_iter=5)

    def test_replay_families(self):
        w = replay_workload(seed=3, count=400, max_size=64)
        r = run_bench("glass", w, copies=1, iterations=1)
        assert r.family == "replay" and r.ops_applied == 400
        wa = replay_workload(seed=3, count=400, max_size=64, amplify_iter=5)
        ra = run_bench("rbt", wa, copies=1, iterations=1)
        assert ra.family == "replay-iter"


#: the ordered maps beside ``RefMap``, by test id; each answers the same ADT
MAPS = {
    "RBMap": RBMap,
    "glass": lambda: create(key_bits=16, chunk_bits=4, max_size=4096),
}


class TestBaselines:
    @pytest.mark.parametrize("factory_name", sorted(MAPS))
    def test_against_reference_map(self, factory_name):
        from glasstrie.oracle import RefMap

        rng = random.Random(31)
        tree, ref = MAPS[factory_name](), RefMap()
        for step in range(30_000):
            r = rng.random()
            k = rng.randrange(4096)
            if r < 0.4:
                assert tree.insert(k, k * 3) == ref.insert(k, k * 3)
            elif r < 0.7:
                assert tree.erase(k) == ref.erase(k)
            elif r < 0.8:
                assert tree.find(k) == ref.find(k)
            elif r < 0.9:
                assert tree.min() == ref.min() and tree.max() == ref.max()
            else:
                assert tree.next(k) == ref.next(k)
                assert tree.prev(k) == ref.prev(k)
        assert tree.keys() == ref.keys()
        assert len(tree) == len(ref)

    @pytest.mark.parametrize("factory_name", sorted(MAPS))
    def test_ordered_walks(self, factory_name):
        tree = MAPS[factory_name]()
        keys = random.Random(7).sample(range(10_000), 500)
        for k in keys:
            tree.insert(k, -k)
        top = sorted(keys)[:25]
        assert tree.first_items(25) == [(k, -k) for k in top]
        bottom = sorted(keys)[-25:][::-1]
        assert tree.first_items(25, descending=True) == [(k, -k) for k in bottom]

    def test_baseline_book_matches_oracle(self):
        from glasstrie.benchkit.baseline import BaselineBook
        from glasstrie.oracle import OracleBook, gen_book_ops

        book = BaselineBook("min")
        oracle = OracleBook("min")
        for op in gen_book_ops(seed=5, length=4000):
            if op[0] == "A":
                book.adjust(op[1], op[2])
                oracle.adjust(op[1], op[2])
            elif op[0] == "B":
                assert book.best() == oracle.best()
            elif op[0] == "T":
                assert book.iterate_best(op[1]) == oracle.iterate_best(op[1])
            elif op[0] == "NB":
                assert book.next_best_after(op[1]) == oracle.next_best_after(op[1])

    def test_baseline_book_refuses_unknown_side(self, run_optimized):
        run_optimized(
            "from glasstrie.benchkit.baseline import BaselineBook\n"
            "from glasstrie.errors import ConfigError\n"
            "try:\n"
            "    BaselineBook('bid')\n"
            "except ConfigError:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit('side accepted')\n"
        )


class TestCli:
    def test_capacity_command(self, capsys):
        from glasstrie.cli import main

        assert main(["capacity", "--width", "16", "--sizes", "900", "90000"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "900 7233 339.05 Kb"
        assert out[1] == "90000 573825 N/A"

    def test_dunno_command(self, capsys):
        from glasstrie.cli import main

        assert main(["dunno", "--n", "100", "--b", "64", "--jmax", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 4
        j, pp, pa = lines[2].split()
        assert j == "2"
        assert float(pp) == pytest.approx(dunno_prob_present(100, 64, 2), rel=1e-5)
        assert float(pa) == pytest.approx(dunno_prob_absent(100, 64, 2), rel=1e-5)

    def test_locality_command(self, tmp_path, capsys):
        from glasstrie.cli import main

        events = market_events(seed=1, count=500, key_bits=24)
        src = tmp_path / "ev.txt"
        write_events(events, src)
        prefix = tmp_path / "loc"
        assert main(["locality", "--file", str(src), "--out-prefix", str(prefix)]) == 0
        seq_rows = open(f"{prefix}-seq.txt").read().splitlines()
        assert seq_rows and all(len(r.split()) == 2 for r in seq_rows)

    def test_bench_synth_command(self, tmp_path, capsys):
        from glasstrie.cli import main

        out = tmp_path / "r.csv"
        rc = main([
            "bench", "synth", "--op", "find-e", "--copies", "1-2",
            "--seed", "1", "--ops", "64", "--iterations", "1",
            "--out", str(out),
        ])
        assert rc == 0
        lines = open(out).read().splitlines()
        assert lines[0].startswith("copies,")
        assert len(lines) == 3

    def test_bench_replay_command(self, tmp_path, capsys):
        from glasstrie.cli import main

        events = market_events(seed=2, count=300, key_bits=24)
        src = tmp_path / "ev.txt"
        write_events(events, src)
        rc = main([
            "bench", "replay", "--file", str(src), "--copies", "1",
            "--iterations", "1", "--max-size", "64",
        ])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("copies,")

    def test_reversed_copies_range_is_bad_input(self, tmp_path, capsys):
        from glasstrie.cli import main

        out = tmp_path / "r.csv"
        rc = main([
            "bench", "synth", "--op", "find-e", "--copies", "3-1",
            "--ops", "64", "--iterations", "1", "--out", str(out),
        ])
        assert rc == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_copies_past_the_bound_fail_before_any_run(self, tmp_path, capsys, monkeypatch):
        from glasstrie.benchkit import bench
        from glasstrie.cli import main

        runs = []

        def recording_run_bench(structure, workload, copies, iterations=None):
            runs.append(copies)
            return bench.BenchResult(structure, workload.family, copies, 1, 1, 1, 0)

        monkeypatch.setattr(bench, "run_bench", recording_run_bench)
        out = tmp_path / "r.csv"
        for copies in ("30-33", "33", "0", "0-2"):
            rc = main([
                "bench", "synth", "--op", "find-e", "--copies", copies,
                "--ops", "64", "--iterations", "1", "--out", str(out),
            ])
            assert rc == 2
            assert "1..32" in capsys.readouterr().err
        assert runs == [] and not out.exists()
        assert main([
            "bench", "synth", "--op", "find-e", "--copies", "31-32",
            "--ops", "64", "--iterations", "1", "--out", str(out),
        ]) == 0
        assert runs == [31, 31, 32, 32]

    def test_checksum_mismatch_is_reported(self, tmp_path, capsys, monkeypatch):
        from glasstrie.benchkit import bench
        from glasstrie.cli import main

        real_run_bench = bench.run_bench

        def skewed_run_bench(structure, workload, copies, iterations=None):
            r = real_run_bench(structure, workload, copies, iterations)
            if structure == bench.GLASS:
                r = bench.BenchResult(r.structure, r.family, r.copies, r.iterations,
                                      r.ops_applied, r.elapsed_ns, r.checksum + 1)
            return r

        monkeypatch.setattr(bench, "run_bench", skewed_run_bench)
        out = tmp_path / "r.csv"
        rc = main([
            "bench", "synth", "--op", "find-e", "--copies", "1",
            "--ops", "64", "--iterations", "1", "--out", str(out),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "checksum mismatch" in err
        assert not out.exists()

    @staticmethod
    def assert_refused(argv, capsys, reason):
        from glasstrie.cli import main

        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and not captured.out
        assert reason in captured.err

    def test_replay_of_a_file_without_events_exits_2(self, tmp_path, capsys):
        src = tmp_path / "ev.txt"
        src.write_text("# a comment and nothing else\n")
        self.assert_refused(["bench", "replay", "--file", str(src), "--copies", "1-2",
                             "--iterations", "1"], capsys, "no replay events")

    def test_replay_amplifying_only_reads_exits_2(self, tmp_path, capsys):
        src = tmp_path / "ev.txt"
        src.write_text("B A\nN B 100\nB B\n")
        self.assert_refused(["bench", "replay", "--file", str(src), "--copies", "1",
                             "--iterations", "1", "--amplify-iter", "5"], capsys,
                            "no replay-iter events")

    def test_synth_of_no_ops_exits_2(self, capsys):
        # refused for its count, not at the first insert into a size-0 glass
        self.assert_refused(["bench", "synth", "--op", "find-e", "--ops", "0",
                             "--iterations", "1"], capsys, "price count")

    def test_bad_model_and_factor_arguments_exit_2(self, tmp_path, capsys):
        from glasstrie.cli import main

        src = tmp_path / "ev.txt"
        write_events(market_events(seed=2, count=50, key_bits=24), src)
        for argv in (
            ["dunno", "--n", "0", "--b", "32768", "--jmax", "2"],
            ["dunno", "--n", "10", "--b", "0", "--jmax", "2"],
            ["bench", "replay", "--file", str(src), "--copies", "1",
             "--iterations", "1", "--amplify-iter", "0"],
        ):
            assert main(argv) == 2, argv
            captured = capsys.readouterr()
            assert captured.err.startswith("error:") and not captured.out

    def test_bad_model_argument_exits_2_under_optimize(self, run_optimized):
        # asserts vanish under python -O; the check must not
        code = (
            "import contextlib, io\n"
            "from glasstrie.cli import main\n"
            "if __debug__:\n"
            "    raise SystemExit('asserts are on')\n"
            "out, err = io.StringIO(), io.StringIO()\n"
            "with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
            "    rc = main(['dunno', '--n', '0', '--b', '32768', '--jmax', '2'])\n"
            "if rc != 2 or out.getvalue() or not err.getvalue().startswith('error:'):\n"
            "    raise SystemExit(f'exit {rc}: {out.getvalue()!r} {err.getvalue()!r}')\n"
        )
        run_optimized(code)

    def test_error_exit_code(self, capsys):
        from glasstrie.cli import main

        assert main(["locality", "--file", "/nonexistent", "--out-prefix", "x"]) == 2
        assert "error:" in capsys.readouterr().err
