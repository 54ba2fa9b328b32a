"""Oracle of the logit's stage-2 refit: the unpenalized maximum-likelihood fit
on the columns that stage 1 selected.

Where the classes are not separated, the refit is the maximum-likelihood
estimate: on the z-scored selected columns every entry of the NLL gradient at
the reported coefficients is within the stop tolerance (the KKT conditions of
an unconstrained problem), and the coefficients are centred across classes.
With no selected column the estimate has a closed form, the centred log class
frequencies. Where the selected columns separate the classes (completely or
quasi-completely), no estimate exists (Albert & Anderson, Biometrika 71:1-10,
1984); the refit then reports the winning stage-1 cell on raw scales.
"""

from __future__ import annotations

import json
import logging

import numpy as np
import pytest

from defectcost.analysis import fit_imputer, records_matrix
from defectcost.cli import main
from defectcost.experiments import read_records
from defectcost.learners import fit_multinomial_logit_elastic_net
from defectcost.learners.logit import NEWTON_TOL, one_hot


def zscored_gradient(model, X, y_idx):
    """NLL gradient of the reported model w.r.t. the z-scored selected columns
    and the intercepts, one row per column and a last row for the intercepts."""
    probs = model.predict_proba(X)
    sigma = X.std(axis=0)
    Xn = (X - X.mean(axis=0)) / np.where(sigma == 0, 1.0, sigma)
    Z = np.column_stack([Xn[:, list(model.selected)], np.ones(len(X))])
    return Z.T @ (probs - one_hot(y_idx, probs.shape[1]))


def overlapping_classes(case: int):
    """Class-shifted normal columns whose classes overlap, at scales 0.01 to
    100 and with offsets, so that the maximum-likelihood estimate exists. In
    case 15 (2 classes) it puts 15 records above an own-class probability of
    1 - 1e-10."""
    rng = np.random.default_rng([4711, case])
    n = int(rng.integers(200, 401))
    k = int(rng.integers(1, 7))
    n_classes = int(rng.integers(2, 6))
    y = np.concatenate([np.arange(n_classes), rng.integers(0, n_classes, n - n_classes)])
    shift = rng.normal(0.0, 0.7, size=(n_classes, k))
    scale = rng.choice([0.01, 1.0, 100.0], size=k)
    X = (rng.normal(size=(n, k)) + shift[y]) * scale + rng.normal(0.0, 10.0, size=k) * scale
    return X, y, n_classes


@pytest.mark.parametrize("case", range(48))
def test_stage2_meets_kkt_conditions_where_classes_overlap(case):
    X, y, n_classes = overlapping_classes(case)
    model = fit_multinomial_logit_elastic_net(X, y, lambda_grid=(1.0, 10.0), alpha_grid=(0.0, 0.5))
    assert model.stage2 == "mle"
    assert np.abs(zscored_gradient(model, X, y)).max() <= NEWTON_TOL * len(y)
    assert np.abs(model.stage2_W.sum(axis=1)).max() <= 1e-12 * max(1.0, np.abs(model.stage2_W).max())
    assert abs(model.stage2_b.sum()) <= 1e-12 * max(1.0, np.abs(model.stage2_b).max())


def test_collinear_columns_still_give_the_estimate():
    """A column and an affine copy of it leave the Hessian singular, but the
    estimate's probabilities exist and equal those without the copy. A copy
    with noise of 1e-6 makes the Hessian nearly singular; its estimate exists
    too, with coefficients near 1e5 whose raw-scale logits round too coarsely
    for the KKT bound."""
    rng = np.random.default_rng(17)
    y = rng.integers(0, 3, 300)
    x = rng.normal(size=300) + 0.5 * y
    X = np.column_stack([x, rng.normal(size=300)])
    grid = dict(lambda_grid=(1.0,), alpha_grid=(0.0,))
    plain = fit_multinomial_logit_elastic_net(X, y, **grid)
    for copy, exact in ((x, True), (2.0 * x + 1.0, True), (x + 1e-6 * rng.normal(size=300), False)):
        Xc = np.column_stack([X, copy])
        model = fit_multinomial_logit_elastic_net(Xc, y, **grid)
        assert model.selected == (0, 1, 2) and model.stage2 == "mle"
        if exact:
            assert np.abs(zscored_gradient(model, Xc, y)).max() <= NEWTON_TOL * len(y)
            np.testing.assert_allclose(model.predict_proba(Xc), plain.predict_proba(X), rtol=0, atol=1e-9)


def test_stage2_without_features_gives_centred_log_frequencies():
    rng = np.random.default_rng(31)
    X = rng.normal(size=(50, 3))
    y = np.concatenate([np.zeros(5), np.ones(15), np.full(30, 2)]).astype(int)
    model = fit_multinomial_logit_elastic_net(X, y, lambda_grid=(1e4,), alpha_grid=(1.0,))
    assert model.selected == () and model.stage2_W.shape == (0, 3)
    log_freq = np.log(np.array([5, 15, 30]) / 50)
    np.testing.assert_allclose(model.stage2_b, log_freq - log_freq.mean(), rtol=0, atol=1e-13)
    assert model.stage2 == "mle"
    assert abs(model.goodness.r2_adjusted) <= 1e-13


def best_cell(model):
    return max(model.grid, key=lambda cell: cell.r2_adjusted)


def assert_separated_fallback(model, caplog):
    """The winning stage-1 cell is reported: its probabilities give the
    grid's best adjusted R^2, and a warning says so."""
    assert model.stage2 == "separated"
    assert model.goodness.r2_adjusted == pytest.approx(best_cell(model).r2_adjusted, rel=1e-9, abs=1e-12)
    assert any(r.levelno == logging.WARNING and "separate" in r.getMessage() for r in caplog.records)


def test_completely_separated_classes_take_the_fallback(caplog):
    rng = np.random.default_rng(1)
    y = np.repeat(np.arange(3), 10)
    X = np.column_stack([y * 3.0 + rng.uniform(-1.0, 1.0, 30), rng.normal(size=30)])
    with caplog.at_level(logging.WARNING):
        model = fit_multinomial_logit_elastic_net(X, y, lambda_grid=(1.0,), alpha_grid=(0.0,))
    assert model.selected == (0, 1)
    assert_separated_fallback(model, caplog)


def test_quasi_separated_classes_take_the_fallback(caplog):
    """x0 < 0 is class 0 and x0 > 0 class 1; at x0 = 0 both classes occur."""
    rng = np.random.default_rng(2)
    x0 = np.tile(np.arange(-2.0, 3.0), 8)
    y = (x0 > 0).astype(int)
    y[x0 == 0] = np.arange(8) % 2
    X = np.column_stack([x0, rng.normal(size=40)])
    with caplog.at_level(logging.WARNING):
        model = fit_multinomial_logit_elastic_net(X, y, lambda_grid=(1.0,), alpha_grid=(0.0,))
    assert model.selected == (0, 1)
    assert_separated_fallback(model, caplog)


@pytest.fixture(scope="module")
def report_records(tmp_path_factory):
    """The records of the benchmark's report workload: 64 bootstrap GNB
    records over 8 projects x 4 releases of synth seed 0."""
    root = tmp_path_factory.mktemp("report")
    assert main(["synth", "--seed", "0", "--projects", "8", "--releases", "4", "--artifacts", "150,250",
                 "--defect-ratio", "0.05,0.15", "-o", str(root / "corpus")]) == 0
    assert main(["bootstrap", "--data", str(root / "corpus"), "--model", "gnb", "--samples", "1",
                 "--jobs", "1", "--seed", "0", "-o", str(root / "bootstrap")]) == 0
    return root / "bootstrap" / "records.csv"


def test_report_records_take_the_fallback(report_records, tmp_path, caplog):
    X, y = records_matrix(read_records(report_records))
    with caplog.at_level(logging.WARNING):
        model = fit_multinomial_logit_elastic_net(fit_imputer(X).transform(X), y.tolist())
    assert len(y) == 64 and len(model.selected) == 18
    assert_separated_fallback(model, caplog)
    assert main(["analyze", "--records", str(report_records), "--trees", "2", "-o", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "importances_logit.json").read_text())
    assert payload["stage2"] == "separated"
    assert payload["r2_adjusted"] == model.goodness.r2_adjusted
