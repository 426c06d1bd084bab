import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hjhom.grid import GridFunction, central_diff, forward_diff, nearest_node, one_sided_diffs


def test_mean():
    u = GridFunction.from_callable(lambda x: np.cos(2 * np.pi * x) + 2.0, 64)
    assert u.mean() == pytest.approx(2.0, abs=1e-15)
    assert GridFunction(u.values - u.mean()).mean() == pytest.approx(0.0, abs=1e-15)


def test_validation():
    with pytest.raises(ValueError):
        GridFunction(np.zeros(4))
    with pytest.raises(ValueError):
        GridFunction(np.array([np.nan] * 16))
    with pytest.raises(ValueError):
        GridFunction(np.zeros((4, 4)))


def test_values_are_read_only():
    u = GridFunction(np.zeros(16))
    with pytest.raises(ValueError):
        u.values[0] = 1.0


def test_value_near_rounds_to_nodes():
    u = GridFunction(np.arange(8, dtype=float))
    pts = np.array([0.0, 0.1249, 0.1251, 0.999])
    assert np.array_equal(u.values[nearest_node(pts, u.n)], np.array([0.0, 1.0, 1.0, 0.0]))


def test_difference_operators_consistent():
    u = GridFunction.from_callable(lambda x: np.sin(2 * np.pi * x), 256)
    d = central_diff(u.values, u.h)
    assert np.max(np.abs(d - 2 * np.pi * np.cos(2 * np.pi * u.nodes()))) <= 1e-3
    backward, forward = one_sided_diffs(u.values, u.h)
    avg = 0.5 * (forward + backward)
    assert np.max(np.abs(central_diff(u.values, u.h) - avg)) <= 1e-12


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_roll_free_helpers_match_roll(data):
    # slicing, not np.roll, with the same arithmetic: equal to the last bit
    n = data.draw(st.integers(8, 80))
    v = data.draw(arrays(np.float64, n, elements=st.floats(-1e6, 1e6)))
    h = data.draw(st.floats(1e-4, 1.0))
    forward, backward = (np.roll(v, -1) - v) / h, (v - np.roll(v, 1)) / h
    assert np.array_equal(forward_diff(v, h), forward)
    dl, dr = one_sided_diffs(v, h)
    assert np.array_equal(dl, backward) and np.array_equal(dr, forward)
    assert np.array_equal(central_diff(v, h), (np.roll(v, -1) - np.roll(v, 1)) / (2.0 * h))
