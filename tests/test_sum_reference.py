"""Bit-for-bit references for the row-order column sums: ``extmath.column_sums``
against numpy's ``sum(axis=-2)``, and the Gaussian NB fit that sums through it
against its oracle in conftest, which reduces with numpy alone; and for the
regression grower's node statistics, which take the mean and variance of all
segments of one length as the rows of one block, against ``mean()`` and
``var()`` of each segment. Under the oldest numpy the package supports, these
check that numpy's loop order is the one the helpers rely on."""

import numpy as np
import pytest

from defectcost.extmath import column_sums
from defectcost.learners import train_gaussian_nb
from defectcost.learners.tree import _moments

from conftest import train_gaussian_nb_reference


def draws(rng, shape, dist, scale):
    values = rng.standard_cauchy(shape) if dist == "cauchy" else rng.normal(size=shape)
    return values * scale


def layouts(a):
    """``a``'s values as C-ordered, Fortran-ordered, row-strided and
    column-sliced arrays."""
    yield "C", a
    yield "F", np.asfortranarray(a)
    shape = list(a.shape)
    shape[-2] *= 2
    strided = np.zeros(shape)
    strided[..., ::2, :] = a
    yield "rows", strided[..., ::2, :]
    sliced = np.zeros((*a.shape[:-1], a.shape[-1] + 3))
    sliced[..., 1:-2] = a
    yield "columns", sliced[..., 1:-2]


def assert_sums_match(a):
    for name, view in layouts(a):
        want = view.sum(axis=-2)
        got = column_sums(view)
        assert (got.dtype, got.shape) == (want.dtype, want.shape), name
        assert got.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("n", [1, 8_191, 8_192, 8_193, 65_537, 150_000])
@pytest.mark.parametrize("k", [0, 1, 2, 30])
def test_column_sums_match_numpy(n, k):
    if n * k > 2_000_000:
        k = 8  # 150,000 x 30 would hold about 150 MB across the layouts
    rng = np.random.default_rng(n * 31 + k)
    for dist in ("normal", "cauchy"):
        for scale in (1e-8, 1.0, 1e8):
            a = draws(rng, (n, k), dist, scale)
            if k:
                a[:, -1] *= rng.choice([1e-8, 1e8], size=n)  # mixed magnitudes in one column
            assert_sums_match(a)


@pytest.mark.parametrize("paths", [1, 11])
@pytest.mark.parametrize("n", [1, 64, 704, 8_193])
@pytest.mark.parametrize("k", [1, 2, 4, 30])
def test_column_sums_match_numpy_on_stacks(paths, n, k):
    rng = np.random.default_rng(paths * 1_000 + n + k)
    for dist in ("normal", "cauchy"):
        assert_sums_match(draws(rng, (paths, n, k), dist, 10.0 ** rng.integers(-8, 9)))


def test_column_sums_keep_signed_zeros():
    a = np.random.default_rng(1).normal(size=(9, 4))
    a[:, 0] = -0.0
    a[:, 2] = 0.0
    a[::2, 2] = -0.0
    assert_sums_match(a)
    assert_sums_match(np.full((1, 3), -0.0))
    assert_sums_match(np.full((2, 5, 3), -0.0))


def test_column_sums_of_no_rows():
    assert_sums_match(np.zeros((0, 5)))
    assert_sums_match(np.zeros((3, 0, 5)))


def assert_same_model(got, want):
    for name in ("classes", "priors", "means", "variances"):
        g, w = getattr(got, name), getattr(want, name)
        assert (g.dtype, g.shape) == (w.dtype, w.shape), name
        assert g.tobytes() == w.tobytes(), name


def random_pool(rng, n, k, n_classes):
    """A pool of lognormal and shifted log1p columns. With 2 or more columns,
    the first is heavy-tailed, so it sets eps, and the last is constant within
    each class, so that eps is all of its class variances and shows eps's bits."""
    X = rng.lognormal(rng.normal(0, 3), rng.uniform(0.1, 2), size=(n, k)).round(int(rng.integers(0, 4)))
    X[:, : k // 2] = np.log1p(X[:, : k // 2]) + rng.normal(0, 1, size=k // 2)  # camargo_cruz-like columns
    y = rng.integers(0, n_classes, size=n)
    if k >= 2:
        X[:, 0] = rng.standard_cauchy(n) * 1e3
        X[:, -1] = 2.5 * y
    return X, y


def test_gnb_matches_reference_on_random_pools():
    rng = np.random.default_rng(7)
    for _ in range(150):
        n = int(rng.integers(2, 40_000)) if rng.random() < 0.1 else int(rng.integers(2, 3_000))
        X, y = random_pool(rng, n, int(rng.integers(1, 12)), int(rng.integers(1, 4)))
        assert_same_model(train_gaussian_nb(X, y), train_gaussian_nb_reference(X, y))


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("k", [1, 2, 8])
def test_gnb_matches_reference_by_layout(order, k):
    rng = np.random.default_rng(k)
    for n in (2, 9, 450, 18_000):
        X, y = random_pool(rng, n, k, 2)
        X = np.asarray(X, order=order)
        assert_same_model(train_gaussian_nb(X, y), train_gaussian_nb_reference(X, y))
        wide = np.hstack([X, X])[:, ::2]  # column-strided view
        assert_same_model(train_gaussian_nb(wide, y), train_gaussian_nb_reference(wide, y))
        assert_same_model(train_gaussian_nb(X[::2], y[::2]), train_gaussian_nb_reference(X[::2], y[::2]))
        as_list = X.tolist()
        assert_same_model(train_gaussian_nb(as_list, y), train_gaussian_nb_reference(as_list, y))


def test_gnb_matches_reference_on_class_edges():
    rng = np.random.default_rng(3)
    X, y = random_pool(rng, 500, 8, 2)
    one_class = np.zeros(500, dtype=np.int64)
    single_row = np.zeros(500, dtype=np.int64)
    single_row[123] = 1
    three = rng.integers(0, 3, size=500)
    three[three == 2] = 5  # class labels with a gap
    for labels in (one_class, single_row, 1 - single_row, three):
        assert_same_model(train_gaussian_nb(X, labels), train_gaussian_nb_reference(X, labels))
    X[:, 3] = -0.0
    assert_same_model(train_gaussian_nb(X, y), train_gaussian_nb_reference(X, y))


def test_gnb_leaves_its_input_unchanged():
    X, y = random_pool(np.random.default_rng(4), 300, 8, 2)
    before = X.copy()
    train_gaussian_nb(X, y)
    assert X.tobytes() == before.tobytes()


LENGTHS = [*range(1, 300), 511, 512, 513, 1_000, 4_097]


@pytest.mark.parametrize("dist", ["normal", "cauchy", "rounded"])
def test_bucketed_moments_match_numpy(dist):
    """The regression grower's node statistics: three segments of every length,
    shuffled, so that each block's rows lie apart in ``ys``; values spread over
    16 orders of magnitude or with many ties."""
    rng = np.random.default_rng(len(dist))
    lengths = rng.permutation(np.repeat(LENGTHS, 3))
    ys = draws(rng, int(lengths.sum()), "cauchy" if dist == "cauchy" else "normal", 1.0)
    if dist == "rounded":
        ys = np.round(ys * 3)
    else:
        ys *= 10.0 ** rng.integers(-8, 9, size=len(ys))
    mean, var = _moments(ys, lengths)
    segments = np.split(ys, np.cumsum(lengths)[:-1])
    assert mean.tobytes() == np.array([segment.mean() for segment in segments]).tobytes()
    assert var.tobytes() == np.array([segment.var() for segment in segments]).tobytes()
