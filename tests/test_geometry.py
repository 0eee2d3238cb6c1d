import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import declutter as dc
from declutter import geometry
from declutter.geometry import paired_distances
from declutter.neighbors import nearest_cross
from conftest import dist_euclidean, dist_manhattan, random_cloud


def test_distance_l2_345():
    metric = dc.Metric()
    assert dc.cross_distances(metric, [[0.0, 0.0]], [[3.0, 4.0]])[0, 0] == 5.0
    assert paired_distances(metric, [0.0, 0.0], [3.0, 4.0]) == 5.0


def test_distance_l1_sum():
    metric = dc.Metric("manhattan")
    assert dc.cross_distances(metric, [[0.0, 0.0]], [[3.0, 4.0]])[0, 0] == 7.0
    assert paired_distances(metric, [0.0, 0.0], [3.0, 4.0]) == 7.0


def test_distance_matrix_lookup():
    m = np.zeros((3, 3))
    m[1, 2] = m[2, 1] = 0.5
    m[0, 1] = m[1, 0] = 1.0
    m[0, 2] = m[2, 0] = 1.0
    metric = dc.Metric("precomputed", matrix=m)
    assert dc.cross_distances(metric, [1], [2])[0, 0] == 0.5


def test_distance_dimension_mismatch():
    with pytest.raises(dc.GeometryError):
        dc.cross_distances(dc.Metric(), [[0.0]], [[1.0, 2.0]])
    with pytest.raises(dc.GeometryError):
        paired_distances(dc.Metric(), [0.0], [1.0, 2.0])


def test_metric_matrix_validation():
    with pytest.raises(dc.GeometryError):
        dc.Metric("precomputed", matrix=np.ones((2, 3)))
    bad_diag = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(dc.GeometryError):
        dc.Metric("precomputed", matrix=bad_diag)
    asym = np.array([[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(dc.GeometryError):
        dc.Metric("precomputed", matrix=asym)


def test_cloud_validation():
    with pytest.raises(dc.GeometryError):
        dc.PointCloud.from_coords(np.array([[np.nan, 0.0]]))
    with pytest.raises(dc.GeometryError):
        dc.PointCloud.from_coords(np.empty((0, 2)))
    cloud = dc.PointCloud.from_coords([[1.0, 2.0]])
    assert cloud.n == 1 and cloud.dim == 2


@pytest.mark.parametrize("n", [2.5, True, "3", 0])
def test_matrix_backed_size_must_be_a_positive_integer(n):
    # 2.5 would make a cloud of three ids over a two-row matrix
    with pytest.raises(dc.GeometryError, match="matrix size"):
        dc.PointCloud.matrix_backed(n)


def test_symmetry_and_identity_random_pairs():
    cloud, _ = random_cloud(0, n_max=80)
    rng = np.random.default_rng(1)
    i, j = rng.integers(0, cloud.n, size=(2, 1000))
    a, b = cloud.coords[i], cloud.coords[j]
    for kind in ("euclidean", "manhattan"):
        metric = dc.Metric(kind)
        assert np.array_equal(paired_distances(metric, a, b),
                              paired_distances(metric, b, a))
        assert np.all(paired_distances(metric, cloud.coords, cloud.coords) == 0.0)


def test_cross_distances_match_oracle():
    cloud, _ = random_cloud(3, n_max=40)
    block = dc.cross_distances(dc.Metric(), cloud.coords[:5], cloud.coords)
    for i in range(5):
        for j in range(cloud.n):
            assert block[i, j] == pytest.approx(
                dist_euclidean(cloud.coords[i], cloud.coords[j]), abs=1e-12)
    block1 = dc.cross_distances(dc.Metric("manhattan"), cloud.coords[:3], cloud.coords)
    for i in range(3):
        for j in range(cloud.n):
            assert block1[i, j] == pytest.approx(
                dist_manhattan(cloud.coords[i], cloud.coords[j]), abs=1e-12)


def test_ground_truth_feature_validation():
    cloud = dc.PointCloud.from_coords(np.zeros((3, 2)))
    with pytest.raises(dc.GeometryError):
        dc.GroundTruthRef(cloud, np.array([1.0, 0.0, 2.0]))
    with pytest.raises(dc.GeometryError):
        dc.GroundTruthRef(cloud, np.array([1.0, 2.0]))
    ref = dc.GroundTruthRef(cloud, np.array([1.0, 2.0, 3.0]))
    assert ref.has_feature_sizes


def test_point_file_roundtrip(tmp_path):
    rng = np.random.default_rng(9)
    pts = rng.normal(size=(50, 3))
    path = tmp_path / "points.csv"
    dc.save_points(path, pts)
    back = dc.load_points(path)
    assert np.array_equal(back, pts)


def test_point_file_whitespace_and_comments(tmp_path):
    path = tmp_path / "points.txt"
    path.write_text("# header\n0 0\n3 4\n")
    pts = dc.load_points(path)
    assert pts.shape == (2, 2)


def test_delimiter_is_read_before_an_inline_comment(tmp_path):
    # the comma in the comment does not make a whitespace file comma-separated
    path = tmp_path / "points.txt"
    path.write_text("1 2 # first point, on the axis\n3 4\n")
    assert dc.load_points(path).tolist() == [[1.0, 2.0], [3.0, 4.0]]


def test_a_1d_array_saves_as_one_point_per_row(tmp_path):
    # save_points reads a 1-D array as PointCloud.from_coords does: n points
    # in one dimension, so the reloaded cloud is the same cloud
    values = np.array([0.5, -2.0, 3.25])
    path = tmp_path / "line.csv"
    dc.save_points(path, values)
    assert path.read_text() == "0.5\n-2\n3.25\n"
    assert np.array_equal(dc.load_points(path),
                          dc.PointCloud.from_coords(values).coords)


def test_id_file_roundtrip_and_refusals(tmp_path):
    path = tmp_path / "ids.csv"
    dc.save_ids(path, np.array([4, 0, 17]))
    assert path.read_text() == "4\n0\n17\n"
    assert dc.load_ids(path, "kept id").tolist() == [4, 0, 17]
    for text, message in (("", "has no data rows"), ("# none\n", "has no data rows"),
                          ("1,2\n", "not one id per line"), ("1.5\n", "malformed")):
        path.write_text(text)
        with pytest.raises(dc.GeometryError, match=message):
            dc.load_ids(path, "kept id")


def _savetxt_bytes(path, table, fmt):
    np.savetxt(path, table, fmt=fmt, delimiter=",")
    return path.read_bytes()


# doubles that format differently from their neighbours: signed zeros and
# infinities, nan, the subnormal range and the ends of the finite range
_EDGE_FLOATS = st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324,
                                -5e-324, 2.2250738585072009e-308, 1e-310,
                                1.7976931348623157e308, -1.7976931348623157e308,
                                1.79e308, -1.8e307, 0.1, 1.0 / 3.0])
_FLOATS = st.one_of(_EDGE_FLOATS, st.floats(allow_nan=True, allow_infinity=True,
                                            allow_subnormal=True))


@st.composite
def _shapes(draw):
    """A table shape: empty, no columns, small, or a row count one below, at
    or one above the number of rows in one chunk of the writer, or just over
    two chunks."""
    ncol = draw(st.integers(0, 4))
    step = geometry._WRITE_CELLS // max(1, ncol)
    rows = draw(st.one_of(st.integers(0, 6),
                          st.sampled_from([step - 1, step, step + 1, 2 * step + 1])))
    return rows, ncol


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_writers_write_numpys_text_bytes(tmp_path_factory, data):
    tmp = tmp_path_factory.mktemp("writer")
    shape = data.draw(_shapes())
    if data.draw(st.booleans()) and shape[1] == 1:
        shape = (shape[0],)  # a 1-D table is one column
    table = data.draw(arrays(np.float64, shape, elements=_FLOATS, fill=_FLOATS))
    dc.save_points(tmp / "points.csv", table)
    assert (tmp / "points.csv").read_bytes() == _savetxt_bytes(
        tmp / "oracle.csv", table, "%.17g")
    ids = data.draw(arrays(np.intp, shape[0], elements=st.integers(-2**62, 2**62),
                           fill=st.integers(0, 2**40)))
    dc.save_ids(tmp / "ids.csv", ids)
    assert (tmp / "ids.csv").read_bytes() == _savetxt_bytes(tmp / "oracle.csv", ids, "%d")


def test_loader_rejects_nan(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0,0\nnan,1\n")
    with pytest.raises(dc.GeometryError):
        dc.load_points(path)


def test_matrix_loader_rejects_non_square(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("0,1,2\n1,0,1\n")
    with pytest.raises(dc.GeometryError):
        dc.load_matrix(path)


def test_subset_cloud_matrix_mode():
    m = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [2.0, 3.0, 0.0]])
    metric = dc.Metric("precomputed", matrix=m)
    cloud = dc.PointCloud.matrix_backed(3)
    sub, sub_metric = dc.subset_cloud(cloud, metric, [0, 2])
    assert sub.n == 2
    assert sub_metric is metric  # the sub-cloud shares the parent matrix
    assert sub.points.tolist() == [0, 2]
    assert dc.cross_distances(sub_metric, sub.points[:1], sub.points[1:])[0, 0] == 2.0


@pytest.mark.parametrize("ids", [[-1], [0, 4], [9], [1.5], [True]])
def test_subset_cloud_rejects_invalid_ids(ids):
    coords = dc.PointCloud.from_coords(np.arange(8.0).reshape(4, 2))
    m = dc.cross_distances(dc.Metric(), coords.coords, coords.coords)
    metric = dc.Metric("precomputed", matrix=m)
    with pytest.raises(dc.GeometryError):
        dc.subset_cloud(coords, dc.Metric(), ids)
    with pytest.raises(dc.GeometryError):
        dc.subset_cloud(dc.PointCloud.matrix_backed(4), metric, ids)
    # ids are member ids of the cloud, not matrix rows: a four-point
    # sub-cloud of a six-row matrix rejects them too
    six = dc.PointCloud.from_coords(np.arange(12.0).reshape(6, 2))
    m6 = dc.cross_distances(dc.Metric(), six.coords, six.coords)
    metric6 = dc.Metric("precomputed", matrix=m6)
    sub, _ = dc.subset_cloud(dc.PointCloud.matrix_backed(6), metric6, [5, 0, 3, 1])
    with pytest.raises(dc.GeometryError):
        dc.subset_cloud(sub, metric6, ids)


def test_subset_metric_equals_validated_slice():
    cloud, _ = random_cloud(8, n_max=40)
    m = dc.cross_distances(dc.Metric("manhattan"), cloud.coords, cloud.coords)
    metric = dc.Metric("precomputed", relaxation=1.5, matrix=m)
    ids = np.array([3, 0, 0, cloud.n - 1, 2])  # unsorted, with a repeat
    sub, sub_metric = dc.subset_cloud(dc.PointCloud.matrix_backed(cloud.n),
                                      metric, ids)
    validated = dc.Metric("precomputed", relaxation=1.5, matrix=m[np.ix_(ids, ids)])
    assert sub.n == ids.size
    assert sub_metric is metric  # selected points, unchanged metric
    block = dc.cross_distances(sub_metric, sub.points, sub.points)
    want = dc.cross_distances(validated, np.arange(ids.size), np.arange(ids.size))
    assert block.dtype == want.dtype
    assert block.tobytes() == want.tobytes()
    assert metric.matrix.tobytes() == m.tobytes()  # the source is not touched


@settings(max_examples=150, deadline=None)
@given(d=st.integers(1, 64), kind=st.sampled_from(["euclidean", "manhattan"]),
       exponent=st.sampled_from([-500, -10, 0, 10, 500]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_paired_distances_equal_cross_distances(d, kind, exponent, seed):
    # the paired kernel is the canonical one: bit for bit what cdist returns,
    # in every dimension and far from unit scale
    rng = np.random.default_rng(seed)
    scale = 2.0 ** exponent * rng.uniform(1e-3, 1e3)
    a = rng.normal(size=(7, d)) * scale
    b = rng.normal(size=(11, d)) * scale
    metric = dc.Metric(kind)
    want = dc.cross_distances(metric, a, b)
    got = paired_distances(metric, a[:, None, :], b[None, :, :])
    assert got.tobytes() == want.tobytes()
    pick = rng.integers(0, 11, size=7)
    got = paired_distances(metric, a, b[pick])
    assert got.tobytes() == want[np.arange(7), pick].tobytes()


def test_paired_distances_reject_a_precomputed_metric():
    # only the tree paths pair points, and they need coordinates; matrix
    # entries are read through cross_distances alone
    pts = np.random.default_rng(3).normal(size=(6, 2))
    metric = dc.Metric("precomputed", matrix=dc.cross_distances(dc.Metric(), pts, pts))
    for a, b in (([0, 5, 2], [1, 3, 4]), ([-1], [0]), ([6], [0]), (1, 2)):
        with pytest.raises(dc.GeometryError, match="takes coordinates"):
            paired_distances(metric, a, b)


def test_paired_distances_dimension_mismatch():
    with pytest.raises(dc.GeometryError):
        paired_distances(dc.Metric(), np.zeros((3, 2)), np.zeros((3, 3)))


def test_negative_zeros_in_a_matrix_become_positive():
    # -0.0 passes the negativity and diagonal checks; which zero a selection
    # puts first would otherwise decide the sign of a profile value
    plus = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 2.0], [1.0, 2.0, 0.0]])
    minus = np.where(plus == 0.0, -0.0, plus)
    metric = dc.Metric("precomputed", matrix=minus)
    assert not np.signbit(metric.matrix).any()
    assert np.signbit(minus).sum() == 5  # the caller's matrix is left as it is
    cloud = dc.PointCloud.matrix_backed(3)
    for kind in (dc.KTH_NN, dc.AVG_K, dc.RMS_K):
        for k in (1, 2, 3):
            got = dc.declutter(cloud, metric, k, kind)
            want = dc.declutter(cloud, dc.Metric("precomputed", matrix=plus), k, kind)
            assert not np.signbit(got.profile.values).any()
            assert got.profile.values.tobytes() == want.profile.values.tobytes()
            assert got.to_dict() == want.to_dict()
    with pytest.raises(dc.GeometryError, match="negative"):
        dc.Metric("precomputed", matrix=np.where(plus == 1.0, -1.0, minus))


@pytest.mark.parametrize("threads", [0, -1, True, 1.5])
def test_threads_must_be_a_positive_integer(threads):
    cloud, metric = dc.PointCloud.from_coords(
        np.random.default_rng(9).normal(size=(300, 2))), dc.Metric()
    ref = dc.GroundTruthRef(dc.PointCloud.from_coords(cloud.coords[:50]))
    tree = dc.build_index(cloud, metric, "kdtree")
    calls = [
        lambda: dc.declutter(cloud, metric, 4, strategy="kdtree", threads=threads),
        lambda: dc.declutter(cloud, metric, 200, strategy="brute", threads=threads),
        lambda: dc.parfree_declutter(cloud, metric, threads=threads),
        lambda: dc.parfree_declutter(dc.PointCloud.from_coords([[0.0]]), metric,
                                     threads=threads),
        lambda: tree.knn_distance_rows(cloud.coords, 4, threads),
        lambda: dc.values_at(tree, cloud.coords, 4, threads=threads),
        lambda: nearest_cross(metric, cloud.coords, ref.points, threads),
        lambda: dc.hausdorff(cloud.coords, ref.points, metric, threads),
        lambda: dc.certify(cloud, metric, ref, 4, threads=threads),
        lambda: dc.verify_bound("lem4.2", cloud=cloud, metric=metric, k=4,
                                threads=threads),
    ]
    for call in calls:
        with pytest.raises(dc.GeometryError, match="threads"):
            call()


def test_threads_accepts_numpy_integers():
    cloud, metric = dc.PointCloud.from_coords(
        np.random.default_rng(9).normal(size=(300, 2))), dc.Metric()
    want = dc.declutter(cloud, metric, 4).to_dict()
    assert dc.declutter(cloud, metric, 4, threads=np.int64(2)).to_dict() == want
