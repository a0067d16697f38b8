"""Don't-know probabilities of the bounded-probe cache table.

Under simple uniform hashing of ``n`` elements into ``b`` buckets, a
bucket holds ``k`` elements with binomial probability p(k). A lookup
inspecting only the first ``probe_limit`` chain elements answers
"don't know" for a present key when the key hides past the probed
prefix of a long chain, and for an absent key whenever the chain is
longer than the probe limit. Everything is evaluated in log space so
the far tails stay meaningful.

At the paper's point (n=9210, b=32768, 5 probes) this gives 3.76e-7 for
a present key and 5.38e-7 for an absent one. The absent-key value the
paper publishes, 2.14e-8, is ``dunno_prob_absent`` at 6 probes, the
chain-length tail one element further; at 6 probes the present-key
value would be 1.29e-8, so the two published numbers do not share a
probe limit. ``CacheTable.lookup`` answers DONT_KNOW for a miss on any
chain longer than 5, and ``simulate_dunno_absent`` at that point (10 000
throws) lands within 3 standard errors of 5.38e-7 and more than 12
above 2.14e-8; acceptance criterion 3 checks both.
"""

from __future__ import annotations

import math

from ..errors import InvalidArgument


def _log_pmf(k: int, n: int, log_p: float, log_q: float, log_nfact: float) -> float:
    return (
        log_nfact
        - math.lgamma(k + 1)
        - math.lgamma(n - k + 1)
        + k * log_p
        + (n - k) * log_q
    )


def _pmf_table(n: int, buckets: int) -> list[float]:
    log_p = -math.log(buckets)
    log_q = math.log1p(-1.0 / buckets)
    log_nfact = math.lgamma(n + 1)
    return [math.exp(_log_pmf(k, n, log_p, log_q, log_nfact)) for k in range(n + 1)]


def _check_model(n: int, buckets: int, probe_limit: int):
    if n < 1 or buckets < 1 or probe_limit < 0:
        raise InvalidArgument(
            f"need n >= 1, buckets >= 1 and probe limit >= 0, "
            f"got {n}, {buckets} and {probe_limit}"
        )


def dunno_prob_present(n: int, buckets: int, probe_limit: int) -> float:
    """P(don't know | key present).

    The key is equally likely to sit at any position of its chain, so a
    chain of length k > probe_limit hides it with probability
    1 - probe_limit/k; conditioning is on the nonempty-bucket event.
    """
    _check_model(n, buckets, probe_limit)
    if probe_limit >= n:
        return 0.0
    pmf = _pmf_table(n, buckets)
    found = 0.0
    for k in range(1, n + 1):
        q = 1.0 if k <= probe_limit else probe_limit / k
        found += pmf[k] * q
    return 1.0 - found / (1.0 - pmf[0])


def dunno_prob_absent(n: int, buckets: int, probe_limit: int) -> float:
    """P(don't know | key absent): the probed bucket's chain is longer
    than the probe limit."""
    _check_model(n, buckets, probe_limit)
    if probe_limit >= n:
        return 0.0
    pmf = _pmf_table(n, buckets)
    return math.fsum(pmf[probe_limit + 1:])


def dunno_table(n: int, buckets: int, probe_limits: range) -> list[tuple[int, float, float]]:
    """(probe limit, present-key prob, absent-key prob) rows."""
    return [
        (j, dunno_prob_present(n, buckets, j), dunno_prob_absent(n, buckets, j))
        for j in probe_limits
    ]


def simulate_dunno_absent(
    n: int,
    buckets: int,
    probe_limit: int,
    trials: int = 10_000_000,
    seed: int = 0,
) -> tuple[float, float]:
    """Balls-in-bins estimate of the absent-key probability.

    One trial is one observed bucket; every throw of ``n`` balls yields
    ``buckets`` of them, so ``trials // buckets`` throws are performed.
    Returns (estimate, standard error). Needs numpy, the package's one
    optional dependency, imported here so nothing else does.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    throws = max(1, trials // buckets)
    observed = throws * buckets
    long_chains = 0
    for _ in range(throws):
        counts = np.bincount(rng.integers(0, buckets, size=n), minlength=buckets)
        long_chains += int(np.count_nonzero(counts > probe_limit))
    p_hat = long_chains / observed
    stderr = math.sqrt(max(p_hat * (1.0 - p_hat), 1e-300) / observed)
    return p_hat, stderr
