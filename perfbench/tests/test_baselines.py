"""The SortedDict adapter answers like RefMap on a random op trace."""

import random

import pytest

from glasstrie.benchkit.baseline import RBMap
from glasstrie.oracle import UNIFORM, RefMap, gen_trace, ref_apply

from perfbench.baselines import SortedDictMap

pytestmark = pytest.mark.skipif(SortedDictMap is None, reason="sortedcontainers missing")


@pytest.mark.parametrize("shape", ["local", UNIFORM])
def test_adapter_matches_refmap(shape):
    ref, sd = RefMap(), SortedDictMap()
    for op in gen_trace(11, shape=shape, length=20_000, key_bits=16, size_cap=400):
        assert ref_apply(sd, op) == ref_apply(ref, op), op
    assert len(sd) == len(ref)


def test_first_items_matches_rbmap():
    rng = random.Random(2)
    rb, sd = RBMap(), SortedDictMap()
    for _ in range(500):
        key = rng.randrange(10_000)
        assert sd.insert(key, key + 1) == rb.insert(key, key + 1)
    for count in (0, 1, 7, 499, 600):
        for descending in (False, True):
            assert sd.first_items(count, descending) == rb.first_items(count, descending)
    assert SortedDictMap().first_items(3, True) == []
