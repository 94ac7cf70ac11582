"""Workload inputs are a pure function of the seed."""
import numpy as np
import pytest

from workloads import WORKLOADS


def _leaves(x):
    if isinstance(x, dict):
        for key in sorted(x):
            yield from _leaves(x[key])
    elif isinstance(x, (list, tuple)):
        for item in x:
            yield from _leaves(item)
    else:
        yield np.asarray(x if x is not None else np.nan)


def _same(a, b) -> bool:
    la, lb = list(_leaves(a)), list(_leaves(b))
    return len(la) == len(lb) and all(
        x.shape == y.shape and np.array_equal(x, y, equal_nan=x.dtype.kind in "fc")
        for x, y in zip(la, lb))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_repeat_for_one_seed(name):
    make = WORKLOADS[name].make_inputs
    assert _same(make(11), make(11))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_differ_across_seeds(name):
    make = WORKLOADS[name].make_inputs
    assert not _same(make(11), make(12))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_pool_size_matches_inputs(name):
    cls = WORKLOADS[name]
    assert len(cls.make_inputs(0)) == cls.pool_size
