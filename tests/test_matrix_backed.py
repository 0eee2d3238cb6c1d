"""A matrix-backed cloud runs the same algorithms as the coordinate cloud it
was measured from.

The matrix holds the canonical Manhattan distances of a coordinate cloud, so
the brute run over matrix rows and the kd-tree run over coordinates must agree
id for id, witness for witness, including through nested sub-clouds, which
select matrix rows instead of copying the matrix. The matrix blocks themselves
are checked cell by cell against the matrix they read.
"""
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import declutter as dc
from declutter import geometry

MANHATTAN = dc.Metric("manhattan")


@st.composite
def manhattan_clouds(draw):
    """A random Gaussian cloud or an integer grid (ties and coincident
    points everywhere), as coordinates."""
    if draw(st.booleans()):
        seed = draw(st.integers(0, 2 ** 32 - 1))
        n = draw(st.integers(3, 60))
        dim = draw(st.integers(1, 3))
        pts = np.random.default_rng(seed).normal(size=(n, dim))
    else:
        cells = draw(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                              min_size=3, max_size=60))
        pts = np.array(cells, dtype=float)
    return dc.PointCloud.from_coords(pts)


def _as_matrix(cloud):
    matrix = dc.cross_distances(MANHATTAN, cloud.coords, cloud.coords)
    return dc.PointCloud.matrix_backed(cloud.n), dc.Metric("precomputed", matrix=matrix)


@settings(max_examples=30, deadline=None)
@given(cloud=manhattan_clouds(),
       C=st.sampled_from([dc.PRACTICAL_C, dc.THEORETICAL_C]),
       kind=st.sampled_from([dc.RMS_K, dc.AVG_K, dc.KTH_NN]))
def test_matrix_parfree_matches_coordinate_kdtree(cloud, C, kind):
    mat_cloud, mat_metric = _as_matrix(cloud)
    ids, trace = dc.parfree_declutter(mat_cloud, mat_metric, kind=kind, C=C,
                                      strategy="brute")
    want_ids, want = dc.parfree_declutter(cloud, MANHATTAN, kind=kind, C=C,
                                          strategy="kdtree")
    assert ids.tolist() == want_ids.tolist()
    assert len(trace.iterations) == len(want.iterations)
    for it, w in zip(trace.iterations, want.iterations):
        assert it.input_ids.tolist() == w.input_ids.tolist()
        assert it.kept_ids.tolist() == w.kept_ids.tolist()
        assert it.resampled_ids.tolist() == w.resampled_ids.tolist()
        assert it.rejected == w.rejected
        assert it.profile_values.tobytes() == w.profile_values.tobytes()


@settings(max_examples=30, deadline=None)
@given(cloud=manhattan_clouds(), data=st.data())
def test_matrix_declutter_matches_coordinate_kdtree(cloud, data):
    k = data.draw(st.integers(1, cloud.n), label="k")
    mat_cloud, mat_metric = _as_matrix(cloud)
    got = dc.declutter(mat_cloud, mat_metric, k, strategy="brute")
    want = dc.declutter(cloud, MANHATTAN, k, strategy="kdtree")
    assert got.kept.tolist() == want.kept.tolist()
    assert got.order.tolist() == want.order.tolist()
    assert got.rejected == want.rejected  # witnesses and their distances
    assert got.profile.values.tobytes() == want.profile.values.tobytes()


@settings(max_examples=40, deadline=None)
@given(cloud=manhattan_clouds(), data=st.data())
def test_nested_matrix_subcloud_distances_match_coordinates(cloud, data):
    mat_cloud, mat_metric = _as_matrix(cloud)
    outer = data.draw(st.lists(st.integers(0, cloud.n - 1), min_size=1,
                               max_size=cloud.n), label="outer ids")
    inner = data.draw(st.lists(st.integers(0, len(outer) - 1), min_size=1,
                               max_size=len(outer)), label="inner ids")
    sub, sub_metric = dc.subset_cloud(*dc.subset_cloud(mat_cloud, mat_metric, outer),
                                      inner)
    csub, csub_metric = dc.subset_cloud(*dc.subset_cloud(cloud, MANHATTAN, outer),
                                        inner)
    assert sub_metric is mat_metric
    assert sub.points.tolist() == np.asarray(outer)[inner].tolist()
    got = dc.cross_distances(sub_metric, sub.points, sub.points)
    want = dc.cross_distances(csub_metric, csub.points, csub.points)
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def _random_matrix(n, seed):
    """A symmetric n-by-n distance matrix with a zero diagonal."""
    a = np.random.default_rng(seed).random((n, n))
    m = a + a.T
    np.fill_diagonal(m, 0.0)
    return m


@st.composite
def target_ids(draw, n):
    """Consecutive, shuffled, duplicated, single or empty target ids."""
    case = draw(st.sampled_from(["consecutive", "shuffled", "duplicated",
                                 "single", "empty"]))
    if case == "consecutive":
        start = draw(st.integers(0, n - 1))
        return np.arange(start, draw(st.integers(start, n)))
    if case == "shuffled":
        ids = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
        return np.array(ids, dtype=np.intp)
    if case == "duplicated":
        ids = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n))
        return np.array(ids + [ids[0]], dtype=np.intp)
    if case == "single":
        return np.array([draw(st.integers(0, n - 1))])
    return np.array([], dtype=np.intp)


@settings(max_examples=120, deadline=None)
@given(data=st.data(), n=st.integers(1, 30), seed=st.integers(0, 2 ** 32 - 1),
       gather_cells=st.sampled_from([2, 3, 7, 64, geometry._GATHER_CELLS]))
def test_matrix_block_matches_each_cell(data, n, seed, gather_cells):
    # every scratch size, down to one row of ids per fill, gathers the same block
    metric = dc.Metric("precomputed", matrix=_random_matrix(n, seed))
    q = np.array(data.draw(st.lists(st.integers(0, n - 1), max_size=40),
                           label="queries"), dtype=np.intp)
    t = data.draw(target_ids(n), label="targets")
    with mock.patch.object(geometry, "_GATHER_CELLS", gather_cells):
        block = dc.cross_distances(metric, q, t)
    want = np.array([[metric.matrix[i, j] for j in t] for i in q]).reshape(q.size, t.size)
    assert block.dtype == np.float64 and block.flags.c_contiguous
    assert block.tobytes() == want.tobytes()
    assert not np.shares_memory(block, metric.matrix)


def test_matrix_block_is_never_a_view():
    # callers sort blocks in place, so not even a full row slice may alias
    n = 12
    metric = dc.Metric("precomputed", matrix=_random_matrix(n, 1))
    before = metric.matrix.copy()
    every = np.arange(n)
    for q, t in ((every, every), (every[3:4], every), (every, every[2:9])):
        block = dc.cross_distances(metric, q, t)
        assert not np.shares_memory(block, metric.matrix)
        block.sort(axis=1)
    assert metric.matrix.tobytes() == before.tobytes()


@pytest.mark.parametrize("bad", [-1, 9])
def test_matrix_block_rejects_ids_out_of_range(bad):
    metric = dc.Metric("precomputed", matrix=_random_matrix(9, 2))
    ok = np.array([0, 4, 8])
    for q, t in (([bad], ok), (ok, [bad]), ([0, bad], ok), (ok, [8, bad, 0])):
        with pytest.raises(dc.GeometryError, match="ids out of range 0..8"):
            dc.cross_distances(metric, q, t)


@pytest.mark.parametrize("bad", [[1.7], [True], ["1"]])
def test_matrix_ids_must_be_integers(bad):
    # none of these may be read as row 1
    metric = dc.Metric("precomputed", matrix=_random_matrix(3, 5))
    for q, t in ((bad, [0]), ([0], bad)):
        with pytest.raises(dc.GeometryError, match="ids must be integers"):
            dc.cross_distances(metric, q, t)


def test_fortran_and_transposed_matrices_read_the_same():
    m = _random_matrix(40, 3)
    metric = dc.Metric("precomputed", matrix=m)
    others = [dc.Metric("precomputed", matrix=np.asfortranarray(m)),
              dc.Metric("precomputed", matrix=m.T)]
    rng = np.random.default_rng(4)
    blocks = [(np.arange(40), np.arange(40)), (rng.permutation(40), np.arange(5, 30)),
              (rng.integers(0, 40, 17), rng.permutation(40)[:23])]
    for other in others:
        assert other.matrix.flags.c_contiguous
        for q, t in blocks:
            assert (dc.cross_distances(other, q, t).tobytes()
                    == dc.cross_distances(metric, q, t).tobytes())


@pytest.mark.parametrize("cell", ["last band", "first off-diagonal band",
                                  "first off-diagonal band, lower side"])
def test_asymmetric_pair_is_rejected_in_any_band(cell):
    band = geometry._MATRIX_TILE
    n = 2 * band + 10
    i, j = {"last band": (n - 1, n - 2),
            "first off-diagonal band": (3, band + 5),
            "first off-diagonal band, lower side": (band + 5, 3)}[cell]
    m = _random_matrix(n, 5)
    dc.Metric("precomputed", matrix=m)
    m[i, j] += 1.0
    with pytest.raises(dc.GeometryError, match="symmetric"):
        dc.Metric("precomputed", matrix=m)


# -- the tiled matrix check ------------------------------------------------------

def _whole_matrix_fault(m):
    """The message the metric's checks give, each made over the whole matrix
    in turn, or None."""
    if not np.all(np.isfinite(m)):
        return "contains NaN/Inf"
    if np.any(m < 0):
        return "negative entries"
    if np.any(np.diagonal(m) != 0.0):
        return "diagonal must be zero"
    if not np.array_equal(m, m.T):
        return "must be symmetric"
    return None


def _fault(m, kind, i, j):
    """Put one fault of this kind at cell (i, j) (and its mirror, for the
    faults that keep the matrix symmetric)."""
    if kind == "diagonal":
        m[i, i] = 1.0
    elif kind == "asymmetric":
        m[i, j] += 1.0
    elif kind in ("negative", "negative zero"):
        m[i, j] = m[j, i] = -1.0 if kind == "negative" else -0.0
    elif kind == "one-sided negative zero":  # equal to its +0.0 mirror
        m[i, j], m[j, i] = -0.0, 0.0
    else:
        m[i, j] = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf,
                   "one-sided negative": -2.0}[kind]


_FAULT_KINDS = ["nan", "inf", "-inf", "negative", "one-sided negative", "diagonal",
                "asymmetric", "negative zero", "one-sided negative zero"]


def _check_like_the_whole_matrix(m):
    want = _whole_matrix_fault(m)
    if want is not None:
        with pytest.raises(dc.GeometryError, match=want):
            dc.Metric("precomputed", matrix=m)
        return
    before = m.copy()
    got = dc.Metric("precomputed", matrix=m).matrix
    assert not np.signbit(got).any()
    assert np.array_equal(got, m)
    assert m.tobytes() == before.tobytes()  # the caller's matrix is left as it is


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 23), tile=st.sampled_from([1, 2, 3, 5, 8, 256]),
       seed=st.integers(0, 2 ** 32 - 1),
       faults=st.lists(st.tuples(st.sampled_from(_FAULT_KINDS), st.integers(0, 999),
                                 st.integers(0, 999)), max_size=4))
def test_tiled_matrix_check_equals_the_whole_matrix_checks(n, tile, seed, faults):
    # the same message, first fault first, wherever the faults sit among the
    # tiles, ragged edge tiles included
    m = _random_matrix(n, seed)
    for kind, i, j in faults:
        _fault(m, kind, i % n, j % n)
    with mock.patch.object(geometry, "_MATRIX_TILE", tile):
        _check_like_the_whole_matrix(m)


_TILE = geometry._MATRIX_TILE
# a diagonal tile, an upper and a lower off-diagonal tile, and the ragged
# 10-cell edge tile of a matrix 2 tiles and 10 cells wide
_CELLS = {"diagonal tile": (_TILE + 3, _TILE + 7),
          "upper tile": (3, _TILE + 5),
          "lower tile": (_TILE + 5, 3),
          "ragged edge tile": (2 * _TILE + 9, 2 * _TILE + 4)}


@pytest.mark.parametrize("kind", _FAULT_KINDS)
@pytest.mark.parametrize("where", sorted(_CELLS))
def test_matrix_fault_in_any_tile(where, kind):
    m = _random_matrix(2 * _TILE + 10, 6)
    _fault(m, kind, *_CELLS[where])
    _check_like_the_whole_matrix(m)


def test_first_fault_wins_from_any_tile():
    # faults of falling rank in tiles the check reads ever earlier: each
    # verdict is the highest-ranked fault left, not the first one read
    good = _random_matrix(2 * _TILE + 10, 7)
    m = good.copy()
    placed = {"asymmetric": (2, 3), "diagonal": (_TILE + 1, _TILE + 1),
              "one-sided negative": (2 * _TILE + 2, _TILE + 8),
              "nan": (2 * _TILE + 9, 2 * _TILE + 9)}
    for kind, (i, j) in placed.items():
        _fault(m, kind, i, j)
    for kind, message in (("nan", "NaN/Inf"), ("one-sided negative", "negative entries"),
                          ("diagonal", "diagonal must be zero"),
                          ("asymmetric", "must be symmetric")):
        assert message in _whole_matrix_fault(m)
        with pytest.raises(dc.GeometryError, match=message):
            dc.Metric("precomputed", matrix=m)
        i, j = placed[kind]
        m[i, j] = good[i, j]  # mend it
    dc.Metric("precomputed", matrix=m)
