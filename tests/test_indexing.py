import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratespde import FlatIndexMap, GridShape


def test_encode_at_lower_corner_is_first_lower_bound():
    fm = FlatIndexMap(lowers=(2, 1, 3), uppers=(5, 4, 7))
    assert fm.encode((2, 1, 3)) == 2


def test_encode_at_upper_corner_is_size_plus_offset():
    fm = FlatIndexMap(lowers=(2, 1, 3), uppers=(5, 4, 7))
    assert fm.encode((5, 4, 7)) == fm.size + 2 - 1


def test_encode_decode_worked_example():
    # 3x3 zero-based grid: (1, 2) -> 1 + 2*3 = 7
    fm = FlatIndexMap(lowers=(0, 0), uppers=(2, 2))
    assert fm.encode((1, 2)) == 7
    assert fm.decode(7) == (1, 2)


CURATED_SHAPES = [
    (3,),
    (9,),
    (2, 2),
    (1, 5),
    (4, 4),
    (7, 3),
    (31, 17),
    (3, 4, 5),
    (1, 1, 9),
    (2, 9, 2),
    (15, 3, 7),
    (2, 3, 2, 3),
    (1, 6, 1, 6),
    (5, 4, 3, 2),
    (2, 2, 2, 2, 2),
    (3, 1, 4, 1, 5),
    (6, 2, 2, 2, 6),
]


@pytest.mark.parametrize("uppers", CURATED_SHAPES)
@pytest.mark.parametrize("lower", [0, 1])
def test_round_trip_exhaustive(uppers, lower):
    fm = FlatIndexMap(lowers=(lower,) * len(uppers), uppers=tuple(u + lower for u in uppers))
    assert fm.size <= 10_000
    flats = np.arange(fm.start, fm.stop)
    decoded = fm.decode_array(flats)
    assert np.array_equal(fm.encode_array(decoded), flats)
    # scalar paths agree with the vectorized ones
    for flat in (fm.start, fm.start + fm.size // 2, fm.stop - 1):
        j = fm.decode(flat)
        assert fm.encode(j) == flat
        assert tuple(decoded[flat - fm.start]) == j


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(st.integers(-3, 4), st.integers(0, 9)), min_size=1, max_size=5),
    st.data(),
)
def test_round_trip_random_shapes(spans, data):
    lowers = tuple(m for m, _ in spans)
    uppers = tuple(m + w for m, w in spans)
    fm = FlatIndexMap(lowers, uppers)
    j = tuple(
        data.draw(st.integers(m, M), label=f"component {i}")
        for i, (m, M) in enumerate(zip(lowers, uppers))
    )
    flat = fm.encode(j)
    assert fm.start <= flat < fm.stop
    assert fm.decode(flat) == j


def test_encode_bounds_checked():
    fm = FlatIndexMap(lowers=(0, 0), uppers=(3, 3))
    with pytest.raises(IndexError):
        fm.encode((4, 0))
    with pytest.raises(IndexError):
        fm.encode((0, -1))
    with pytest.raises(IndexError):
        fm.decode(fm.stop)


@pytest.mark.parametrize("j", [[2], [[2], [1]], [1, 2, 0], 7])
def test_encode_array_rejects_wrong_component_count(j):
    fm = FlatIndexMap(lowers=(0, 0), uppers=(3, 3))
    with pytest.raises(ValueError, match="expected 2 components"):
        fm.encode_array(np.array(j))


def test_grid_shape_derived_quantities():
    shape = GridShape((4, 2, 8), (0.04, 0.04, 3.5))
    assert shape.points_per_direction == (5, 3, 9)
    assert shape.total_points == 5 * 3 * 9
    assert shape.interior_points == 4 * 2 * 8
    assert shape.offsets == (1, 5, 15)
    assert shape.spacings == (0.01, 0.02, 3.5 / 8)
    assert shape.node_map.size == shape.total_points
    assert shape.line_count(1) == 2 * 8
    assert GridShape((3, 4, 5), (1.0, 1.0, 1.0)).line_count(2) == 15
    assert GridShape((7,), (1.0,)).line_count(1) == 1


def test_classification_counts():
    shape = GridShape((4, 4), (1.0, 1.0))
    mask = shape.inner_mask()
    decoded = [shape.node_map.decode(j) for j in range(shape.total_points)]
    assert np.array_equal(mask, np.array([min(j) >= 1 for j in decoded]))
    assert mask.sum() == shape.interior_points == 16
    assert shape.total_points - mask.sum() == 9
    assert not mask[0]
    assert mask[shape.node_map.encode((1, 1))]


@pytest.mark.parametrize("uppers", [(4, 4), (3, 4, 5), (2, 3, 2, 3)])
def test_neighbour_offset_property(uppers):
    shape = GridShape(uppers, tuple(1.0 for _ in uppers))
    nm = shape.node_map
    for flat in range(shape.total_points):
        j = nm.decode(flat)
        if any(c == 0 for c in j):
            continue
        for i in range(1, shape.ndim + 1):
            down = list(j)
            down[i - 1] -= 1
            assert nm.encode(tuple(down)) == flat - shape.offsets[i - 1]
            if j[i - 1] < uppers[i - 1]:
                up = list(j)
                up[i - 1] += 1
                assert nm.encode(tuple(up)) == flat + shape.offsets[i - 1]


def test_shape_validation():
    with pytest.raises(ValueError):
        GridShape((0, 4), (1.0, 1.0))
    with pytest.raises(ValueError):
        GridShape((4, 4), (1.0,))
    with pytest.raises(ValueError):
        GridShape((4,), (0.0,))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_shape_rejects_nonfinite_bounds(bad):
    with pytest.raises(ValueError, match="finite") as err:
        GridShape((4, 4), (bad, 1.0))
    assert str(bad) in str(err.value)


@pytest.mark.parametrize("bad", [4.5, 4.0, "4", None])
def test_shape_rejects_noninteger_counts(bad):
    with pytest.raises(ValueError, match="integers") as err:
        GridShape((bad, 4), (1.0, 1.0))
    assert repr(bad) in str(err.value)


def test_shape_accepts_numpy_integer_counts():
    shape = GridShape((np.int64(4), np.int32(2)), (1.0, 1.0))
    assert shape.interior_counts == (4, 2)
    assert all(type(m) is int for m in shape.interior_counts)
