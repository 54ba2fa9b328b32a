import csv
import math
from datetime import datetime, timezone

import numpy as np
import pytest

from defectcost.costmodel import classify_potential
from defectcost.dataset import DataError, Defect, Release
from defectcost.experiments import EvaluationRecord
from defectcost.learners import logit
from defectcost.learners.nb import GaussianNB
from defectcost.metrics import METRIC_NAMES, Prediction

T1_SIZES = {"a1": 100, "a2": 50, "a3": 200, "a4": 10, "a5": 40, "a6": 600}
T1_DEFECTS = {"d1": {"a1"}, "d2": {"a3", "a5"}}
T1_SCORES = {"a1": 0.9, "a5": 0.8, "a2": 0.7, "a3": 0.4, "a6": 0.3, "a4": 0.1}


def is_undefined(x) -> bool:
    """An undefined value of the extended reals, which are NaN."""
    return math.isnan(x)


def size_by_id(view) -> dict[str, int]:
    return {i: int(s) for i, s in zip(view.ids, view.sizes)}


def truth_by_id(view) -> dict[str, int]:
    return {i: int(t) for i, t in zip(view.ids, view.y)}


def defective_ids(release) -> frozenset[str]:
    """The artifacts any defect of ``release`` touches."""
    return frozenset().union(*(d.artifacts for d in release.defects))


def ref_view_defects(view) -> list[Defect]:
    """The defects of a view taken without ``as_of``, from its release's
    Defects: each one that touches the view, narrowed to the ids it touches
    there."""
    present = set(view.ids)
    return [Defect(d.id, d.artifacts & present, d.fixed_at) for d in view.release.defects if d.artifacts & present]


def view_defects(view) -> list[Defect]:
    """The defects of a view as its CSR holds them, each narrowed to the ids it
    touches in the view."""
    indptr, rows, index = view.defect_rows
    defects = view.release.defects
    return [Defect(defects[j].id, frozenset(view.ids[r] for r in rows[lo:hi]), defects[j].fixed_at)
            for j, lo, hi in zip(index.tolist(), indptr[:-1].tolist(), indptr[1:].tolist())]


def rows_of(release, ids) -> list[int]:
    """The release rows of ``ids``, in order."""
    row_of = {aid: i for i, aid in enumerate(release.artifact_ids)}
    return [row_of[aid] for aid in ids]


def ranking_order(view, pred) -> list[str]:
    """The package's inspection order as ids: descending score, then descending size, then id."""
    return [view.ids[i] for i in pred.order]


def column_total(conf, level) -> int:
    """Records whose true potential is ``level`` in a confusion matrix (rows predicted, columns true)."""
    return int(conf.matrix[:, int(level)].sum())


def release_fields(release) -> tuple:
    """A release's fields in a form ``==`` compares: its arrays as dtype, shape and bytes."""
    arrays = [(a.dtype.str, a.shape, a.tobytes()) for a in (release.sizes, release.X)]
    return (release.project, release.release_id, release.released_at, release.artifact_ids, *arrays, release.defects)


def make_release(sizes=None, defects=None, project="demo", release_id="r1",
                 released_at=None, features=None):
    sizes = T1_SIZES if sizes is None else sizes
    defects = T1_DEFECTS if defects is None else defects
    ids = sorted(sizes)
    return Release(
        project=project,
        release_id=release_id,
        released_at=released_at or datetime(2020, 1, 1, tzinfo=timezone.utc),
        artifact_ids=tuple(ids),
        sizes=[sizes[aid] for aid in ids],
        X=[tuple(features[aid]) if features else (0.0,) for aid in ids],
        defects=tuple(Defect(did, frozenset(arts)) for did, arts in sorted(defects.items())),
    )


@pytest.fixture
def t1_release():
    return make_release()


@pytest.fixture
def t1_view(t1_release):
    return t1_release.view()


@pytest.fixture
def t1_prediction(t1_view):
    return Prediction.from_ids(t1_view, T1_SCORES, 0.5)


_DEFAULT_VARS = {name: 0.5 for name in METRIC_NAMES}
_DEFAULT_VARS.update(cost=100.0, nofb20=1.0, nofc80=3.0, necm10=0.5, necm25=0.5)


def make_record(diff=500.0, lower=100.0, upper=600.0, potential=None,
                scenario="bootstrap", project="p", release="r", sample=0,
                preprocessing="plain", seed=0, **variables):
    """Record factory for analysis-level tests; unspecified variables get defaults."""
    vars_ = dict(_DEFAULT_VARS)
    confounder_defaults = dict(
        bias_train=0.1, bias_train_prime=0.5, bias_test=0.1, ratio_bias=1.0,
        ratio_bias_prime=0.2, prop_def_1pct=0.3, prop_clean_1pct=0.3,
        n_train=100.0, n_train_prime=180.0, n_test=40.0,
    )
    vars_.update(confounder_defaults)
    vars_.update(variables)
    if potential is None:
        potential = classify_potential(diff)
    return EvaluationRecord(
        scenario=scenario,
        project=project,
        release=release,
        sample=sample,
        preprocessing=preprocessing,
        seed=seed,
        **vars_,
        lower=lower,
        upper=upper,
        diff=diff,
        potential=potential,
    )


def assert_close(a, b, tol=1e-12):
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b):
        return
    assert a == pytest.approx(b, abs=tol), f"{a} != {b}"


def softmax_nll_grad(W, b, X, Y):
    """Summed negative log-likelihood and its gradients w.r.t. W and b.

    Y is one-hot (n, C); W is (k, C); b is (C,).
    """
    probs, nll = logit._probs_nll(X, Y, W, b)
    return float(nll), *logit._grad(X, Y, probs)


def fit_penalized_softmax(X, y_idx, n_classes, lam, alpha, *, W0=None, b0=None, tol=1e-6, max_iter=5000):
    """One elastic-net cell, (W, b, objective): the one-path, one-lambda case
    of the grid's path runner."""
    X = np.asarray(X, dtype=np.float64)
    Y = logit.one_hot(y_idx, n_classes)
    W, b, obj, _ = next(logit._fit_paths(X, Y, (lam,), (alpha,), tol, max_iter, W0, b0))[2]
    return W, b, obj


def tree_depth(tree) -> int:
    """Depth of the deepest tree of a node table."""
    depth, level = 0, tree.roots
    while True:
        level = level[tree.feature[level] >= 0]
        if not level.size:
            return depth
        level = np.concatenate([tree.left[level], tree.right[level]])
        depth += 1


def count_leaves(tree) -> int:
    return int(np.sum(tree.feature < 0))


def train_gaussian_nb_reference(X, y) -> GaussianNB:
    """The Gaussian NB fit with numpy's own axis-0 reductions and a fresh
    array per step: the oracle of ``learners.nb.train_gaussian_nb``."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    classes, counts = np.unique(y, return_counts=True)
    eps = 1e-9 * max(float(X.var(axis=0).max()), 1.0)
    means, variances = [], []
    for c in classes:
        rows = X[y == c]
        means.append(rows.mean(axis=0))
        d = rows - means[-1]
        d *= d
        variances.append(d.sum(axis=0) / len(rows) + eps)
    return GaussianNB(
        classes=classes,
        priors=counts / len(y),
        means=np.array(means),
        variances=np.array(variances),
    )


def read_metrics_reference(path):
    """``(ids, sizes, X)`` of a ``metrics.csv`` as the csv module and a
    row-by-row check read it, or the DataError of its first offending line:
    the loader before the C text reader, and the oracle of its fast path. A
    repeated artifact id is the error of its second line."""
    ids, size_strs, feature_strs, lines = [], [], [], []
    stop = None
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if not header or header[:2] != ["artifact_id", "size"]:
                raise DataError("header must start with 'artifact_id,size'", path, 1)
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(header):
                    stop = DataError(f"expected {len(header)} columns, got {len(row)}", path, lineno)
                    break
                ids.append(row[0])
                size_strs.append(row[1])
                feature_strs += row[2:]
                lines.append(lineno)
        except csv.Error as exc:
            stop = DataError(f"malformed CSV: {exc}", path, reader.line_num)
        except UnicodeDecodeError as exc:
            stop = DataError(f"not UTF-8 text: {exc.reason}", path)
    n = len(lines)
    k = len(feature_strs) // n if n else 0
    for i, lineno in enumerate(lines):
        try:
            size = int(size_strs[i])
        except ValueError:
            raise DataError(f"size must be an integer, got {size_strs[i]!r}", path, lineno) from None
        if not 0 <= size < 2**63:
            raise DataError(f"negative size {size}" if size < 0 else f"size {size} exceeds int64", path, lineno)
        try:
            features = list(map(float, feature_strs[i * k:(i + 1) * k]))
        except ValueError:
            raise DataError("malformed feature value", path, lineno) from None
        if not all(map(math.isfinite, features)):
            raise DataError("non-finite feature value", path, lineno)
    if stop is not None:
        raise stop
    first = {}
    for aid, lineno in zip(ids, lines):
        if first.setdefault(aid, lineno) != lineno:
            raise DataError(f"duplicate artifact id {aid!r}", path, lineno)
    sizes = np.array(list(map(int, size_strs)), dtype=np.int64)
    X = np.array(list(map(float, feature_strs)), dtype=np.float64).reshape(n, k)
    return tuple(ids), sizes, X
