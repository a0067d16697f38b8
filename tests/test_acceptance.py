"""Acceptance gate: one test per shipping criterion.

Each test prints a single ``ACCEPTANCE n [name]: PASS/FAIL`` line (visible
under ``pytest -s`` or in failure output) and then asserts, so the suite
both reports and gates. Stated runtime budgets are asserted alongside the
functional checks.

Criterion 3 note: the present-key don't-know probability reproduces the
published 3.76e-7. For an absent key ``CacheTable.lookup`` answers
DONT_KNOW exactly when the key's chain holds more than PROBE_LIMIT = 5
elements, so at (n=9210, b=32768) the rate is the binomial tail
P(len >= 6) = 5.38e-7, which criterion 3 pins and checks against a
paper-scale Monte-Carlo run. The published absent-key 2.14e-8 is the
tail one element further, P(len >= 7), i.e. the formula at
PROBE_LIMIT + 1: a fencepost in the source of that constant. No single
probe limit gives both published numbers (at 6 probes the present-key
value drops to 1.29e-8), so criterion 3 keeps 2.14e-8 pinned as the
PROBE_LIMIT + 1 tail rather than as the program's rate.
"""

from __future__ import annotations

import math
import random
import time

import pytest

from glasstrie.bitops import (
    DivisionPlan,
    TrieGeometry,
    cached_path_truncation,
    clz,
    common_prefix_chunks,
    exact_div_by_chunk,
    next_set_bit,
    prev_set_bit,
)
from glasstrie.benchkit.bench import (
    GLASS,
    RBT,
    REPLAY_FAMILIES,
    SYNTH_FAMILIES,
    ratio_sweep,
    replay_workload,
    run_bench,
    synth_workload,
    write_ratio_csv,
)
from glasstrie.benchkit.capacity import capacity_report
from glasstrie.benchkit.probability import (
    dunno_prob_absent,
    dunno_prob_present,
    simulate_dunno_absent,
)
from glasstrie.cachetable import DONT_KNOW, PROBE_LIMIT, CacheTable
from glasstrie.errors import PriceTooFar
from glasstrie.nodepool import CapacityModel, Pool, max_size_for_capacity
from glasstrie.oracle import (
    LOCAL,
    UNIFORM,
    FeatureConfig,
    RefMap,
    _fast_partition_check,
    all_feature_configs,
    fuzz_orderbook,
    fuzz_run,
    gen_book_ops,
    gen_trace,
    ref_apply,
)
from glasstrie.orderbook import OrderBook

PAPER_GEO = TrieGeometry(key_bits=50, chunk_bits=5)


def _report(num: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} [{name}]: {status}" + (f"  ({detail})" if detail else ""))


class Timer:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0


def test_01_capacity_table():
    with Timer() as t:
        cells16 = [r.memory for r in capacity_report([900, 9000, 90000, 900000], width=16)]
        cells32 = [r.memory for r in capacity_report([900, 9000, 90000, 900000], width=32)]
    want16 = ["339.05 Kb", "2.93 Mb", "N/A", "N/A"]
    want32 = ["565.08 Kb", "4.89 Mb", "43.78 Mb", "414.57 Mb"]
    ok = cells16 == want16 and cells32 == want32 and t.elapsed < 1.0
    _report(1, "capacity table", ok, f"{t.elapsed:.3f}s")
    assert cells16 == want16
    assert cells32 == want32
    assert t.elapsed < 1.0


def test_02_inverse_capacity():
    with Timer() as t:
        got = max_size_for_capacity((1 << 16) - 2, CapacityModel(PAPER_GEO, width=16))
    ok = abs(got - 9210) <= 1 and t.elapsed < 1.0
    _report(2, "inverse capacity", ok, f"got {got}, {t.elapsed:.3f}s")
    assert abs(got - 9210) <= 1
    assert t.elapsed < 1.0


def test_03_dunno_probabilities():
    n, buckets = 9210, 32768
    assert PROBE_LIMIT == 5
    with Timer() as t:
        p_present = dunno_prob_present(n, buckets, PROBE_LIMIT)
        p_absent = dunno_prob_absent(n, buckets, PROBE_LIMIT)
        p_published = dunno_prob_absent(n, buckets, PROBE_LIMIT + 1)
        estimate, stderr = simulate_dunno_absent(
            n, buckets, PROBE_LIMIT, trials=10_000 * buckets, seed=1
        )
    present_ok = abs(p_present - 3.76e-7) / 3.76e-7 < 0.02
    absent_ok = abs(p_absent - 5.38e-7) / 5.38e-7 < 0.02
    published_ok = abs(p_published - 2.14e-8) / 2.14e-8 < 0.02
    z_model = abs(estimate - p_absent) / stderr
    z_published = (estimate - 2.14e-8) / stderr
    simulated_ok = z_model <= 3.0 and z_published > 5.0
    ok = present_ok and absent_ok and published_ok and simulated_ok and t.elapsed < 5.0
    _report(
        3,
        "don't-know probabilities",
        ok,
        f"p+={p_present:.3e}, p-={p_absent:.3e}, "
        f"tail at {PROBE_LIMIT + 1} probes {p_published:.3e} vs published 2.14e-8, "
        f"simulated p-={estimate:.3e} (z={z_model:.2f}; "
        f"z={z_published:.1f} against 2.14e-8), {t.elapsed:.3f}s",
    )
    assert t.elapsed < 5.0
    assert present_ok, f"p+ = {p_present}, want 3.76e-7 within 2%"
    # An absent key is DONT_KNOW once its chain is longer than PROBE_LIMIT
    # (test_cachetable pins that fencepost), so p- is the tail from
    # PROBE_LIMIT + 1 elements on.
    assert absent_ok, f"p- = {p_absent}, want 5.38e-7 within 2%"
    # The published absent-key value is the tail one element further.
    assert published_ok, f"tail at PROBE_LIMIT + 1 = {p_published}, want 2.14e-8 within 2%"
    # Balls in bins at paper scale agree with 5.38e-7 and rule out 2.14e-8.
    assert z_model <= 3.0, f"simulated {estimate} is {z_model:.2f} SE from {p_absent}"
    assert z_published > 5.0, f"simulated {estimate} is only {z_published:.2f} SE above 2.14e-8"


def test_04_worked_examples():
    with Timer() as t:
        geo = TrieGeometry(key_bits=3, chunk_bits=1)
        lam_full = common_prefix_chunks(0b010, 0b011, geo)
        # same computation carried out in an 8-bit word
        lam_w8 = (geo.bias - (8 - 3) + clz(0b010 ^ 0b011, 8)) // 1
        overlap = cached_path_truncation(3, 1, 4)
    ok = lam_full == 2 and lam_w8 == 2 and overlap == 1
    _report(4, "worked examples", ok,
            f"prefix={lam_full}/{lam_w8}, truncation={overlap}, {t.elapsed:.3f}s")
    assert lam_full == 2
    assert lam_w8 == 2
    assert overlap == 1


def test_05_bitops_exhaustive():
    with Timer() as t:
        mismatches = 0
        for mask in range(1 << 16):
            expect = -1
            for i in range(15, -1, -1):
                if next_set_bit(mask, i) != expect:
                    mismatches += 1
                if (mask >> i) & 1:
                    expect = i
            expect = -1
            for i in range(16):
                if prev_set_bit(mask, i) != expect:
                    mismatches += 1
                if (mask >> i) & 1:
                    expect = i
        for chunk in range(1, 7):
            plan = DivisionPlan(chunk)
            for m in range((1 << 20) // chunk):
                if exact_div_by_chunk(m * chunk, plan) != m:
                    mismatches += 1
    ok = mismatches == 0 and t.elapsed < 120.0
    _report(5, "bitops exhaustive", ok, f"{t.elapsed:.1f}s")
    assert mismatches == 0
    assert t.elapsed < 120.0


def test_06_glass_differential_fuzz():
    with Timer() as t:
        configs = all_feature_configs(key_bits=16, chunk_bits=4, width=32)
        assert len(configs) == 2
        for config in configs:
            # fuzz_run raises the first divergence
            fuzz_run(config, gen_trace(101, LOCAL, 600_000, key_bits=16, size_cap=1024))
            fuzz_run(config, gen_trace(202, UNIFORM, 450_000, key_bits=16, size_cap=1024))
        # instrumented run: structural integrity and cached-path
        # soundness after every op (deep cache-table check sampled)
        config = FeatureConfig(key_bits=12, chunk_bits=3, width=16)
        g = config.build(1 << 12)
        ref = RefMap()
        for i, op in enumerate(gen_trace(7, LOCAL, 100_000, key_bits=12, size_cap=96)):
            expected = ref_apply(ref, op)
            got = ref_apply(g, op)
            assert got == expected, f"op #{i} {op}: {expected} vs {got}"
            g.check_integrity(deep=False)
            if i % 2000 == 0:
                g.check_integrity(deep=True)
        g.check_integrity(deep=True)
    ok = t.elapsed < 600.0
    _report(6, "glass differential fuzz", ok,
            f"{len(configs)} configs x 1.05M ops + instrumented 100k, {t.elapsed:.1f}s")
    assert t.elapsed < 600.0


def test_07_orderbook_differential_fuzz():
    with Timer() as t:
        trips_by_run = {}
        for max_size in (4, 64):
            window = min(25, max_size - 1)
            for side in ("min", "max"):
                book = OrderBook(
                    side,
                    max_size=max_size,
                    best_window=window,
                    key_bits=20,
                    chunk_bits=4,
                    width=16,
                )
                ops = gen_book_ops(
                    seed=900 + max_size, length=100_000, max_depth=window
                )
                trips = fuzz_orderbook(
                    book, ops, check_every=1, deep_every=1000
                )
                trips_by_run[(max_size, side)] = trips
        # tiny glasses must actually exercise the too-far guard
        assert trips_by_run[(4, "min")] > 0
        assert trips_by_run[(4, "max")] > 0
    ok = t.elapsed < 300.0
    _report(7, "order-book differential fuzz", ok,
            f"guard trips {trips_by_run}, {t.elapsed:.1f}s")
    assert t.elapsed < 300.0


def test_08_cache_table_properties():
    with Timer() as t:
        geo = TrieGeometry(key_bits=16, chunk_bits=4)
        pool = Pool(geo, width=32, max_capacity=40_000)
        table = CacheTable(pool, buckets=1024)
        rng = random.Random(42)
        keys = rng.sample(range(1 << 40), 10_000)
        handle_key = {}
        for k in keys:
            p = pool.allocate()
            table.insert(k, p)
            handle_key[p] = k
        old_chains = [table.chain(b) for b in range(table.bucket_count)]
        table.grow()
        # order preservation vs a stable partition of each old chain
        for chain in old_chains:
            split: dict[int, list[int]] = {}
            for p in chain:
                split.setdefault(table.bucket_of(handle_key[p]), []).append(p)
            for new_bucket, expect in split.items():
                members = set(chain)
                got = [p for p in table.chain(new_bucket) if p in members]
                assert got == expect
        # don't-know only on genuinely long chains; probes stay bounded
        lengths = {b: len(table.chain(b)) for b in range(table.bucket_count)}
        dont_knows = 0
        for probe in rng.sample(range(1 << 40), 20_000):
            answer = table.lookup(probe)
            assert table.last_probes <= PROBE_LIMIT
            if answer == DONT_KNOW:
                dont_knows += 1
                assert lengths[table.bucket_of(probe)] > PROBE_LIMIT
        for p, k in list(handle_key.items())[::37]:
            assert table.lookup(k) in (p, DONT_KNOW)
    ok = t.elapsed < 60.0
    _report(8, "cache table properties", ok,
            f"10k grow + 20k probes ({dont_knows} dont-know), {t.elapsed:.1f}s")
    assert t.elapsed < 60.0


def test_09_performance(tmp_path):
    with Timer() as t:
        # the hard gate: local find-existing at one copy must beat the
        # baseline ordered map; best-of-reps timing rides out scheduler
        # noise on a shared machine, and the two sides' reps interleave,
        # alternating which goes first, so a load spike hits both alike
        find_e = synth_workload("find-e", seed=17, count=2048)
        runs = {GLASS: [], RBT: []}
        for rep in range(5):
            for structure in (GLASS, RBT) if rep % 2 == 0 else (RBT, GLASS):
                runs[structure].append(run_bench(structure, find_e, copies=1, iterations=20))
        glass_r, rbt_r = (min(runs[s], key=lambda r: r.ns_per_op) for s in (GLASS, RBT))
        assert glass_r.checksum == rbt_r.checksum
        ratio = rbt_r.ns_per_op / glass_r.ns_per_op
        # the paper-shaped dataset: ratio-vs-copies for all six families
        rows_written = {}
        for family in SYNTH_FAMILIES:
            w = synth_workload(family, seed=17, count=512)
            rows = ratio_sweep(w, range(1, 33), iterations=4)
            path = tmp_path / f"synth_{family.replace('-', '_')}.csv"
            write_ratio_csv(rows, str(path))
            rows_written[family] = rows
        replay = replay_workload(seed=23, count=1500, max_size=256)
        rows = ratio_sweep(replay, range(1, 33), iterations=1)
        write_ratio_csv(rows, str(tmp_path / "replay.csv"))
        rows_written["replay"] = rows
        amplified = replay_workload(seed=23, count=1500, max_size=256, amplify_iter=100)
        rows = ratio_sweep(amplified, range(1, 33), iterations=1)
        write_ratio_csv(rows, str(tmp_path / "replay_iter.csv"))
        rows_written["replay-iter"] = rows
        for family, rows in rows_written.items():
            assert len(rows) == 32, family
            assert all(r.glass_ns > 0 and r.rbt_ns > 0 for r in rows), family
    files = sorted(p.name for p in tmp_path.glob("*.csv"))
    ok = ratio > 1.0 and len(files) == 6 and t.elapsed < 1800.0
    _report(9, "performance", ok,
            f"find-e ratio {ratio:.2f}, CSVs {files}, {t.elapsed:.1f}s")
    assert ratio > 1.0, f"glass must beat the baseline on local find-existing: {ratio:.3f}"
    assert len(files) == 6
    assert t.elapsed < 1800.0


def test_10_monte_carlo_absent_probability():
    with Timer() as t:
        analytic = dunno_prob_absent(1000, 1024, 2)
        estimate, stderr = simulate_dunno_absent(
            1000, 1024, 2, trials=10_000_000, seed=1234
        )
        deviation = abs(estimate - analytic) / stderr
    ok = deviation <= 3.0 and t.elapsed < 120.0
    _report(10, "Monte-Carlo absent-key probability", ok,
            f"analytic {analytic:.6f}, simulated {estimate:.6f} "
            f"(z={deviation:.2f}), {t.elapsed:.1f}s")
    assert deviation <= 3.0
    assert t.elapsed < 120.0
