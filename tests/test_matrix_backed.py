"""A matrix-backed cloud runs the same algorithms as the coordinate cloud it
was measured from.

The matrix holds the canonical Manhattan distances of a coordinate cloud, so
the brute run over matrix rows and the kd-tree run over coordinates must agree
id for id, witness for witness, including through nested sub-clouds, which
select matrix rows instead of copying the matrix.
"""
import numpy as np
from hypothesis import given, settings, strategies as st

import declutter as dc

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
