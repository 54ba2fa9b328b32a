import json
import math

import numpy as np
import pytest

from defectcost.analysis import (
    PotentialConfusion,
    boundary_density,
    classify_strength,
    confusion_from_predictions,
    confusion_summary,
    correlation_analysis,
    distribution_export,
    evaluate_confusion,
    fit_imputer,
    fit_relationship_models,
    r_squared,
    records_matrix,
    sensitivity_boundaries,
    sensitivity_regression,
    write_report_bundle,
)
from defectcost.cli import main
from defectcost.costmodel import Potential, classify_potential
from defectcost.experiments import VARIABLE_NAMES, write_records_csv, write_records_jsonl
from defectcost.learners import ForestParams

from conftest import column_total, is_undefined, make_record


def noisy_records(rng, n=300, with_none=True):
    """Learnable fixture: none iff recall <= 0.01; saving level from a
    nonlinear (XOR-like) pattern of accuracy and bias_test."""
    records = []
    for i in range(n):
        variables = {name: float(rng.random()) for name in VARIABLE_NAMES}
        if with_none and i % 3 == 0:
            variables["recall"] = float(rng.random() * 0.01)
            diff = float("nan")
        else:
            variables["recall"] = float(0.02 + rng.random() * 0.98)
            left = variables["accuracy"] > 0.5
            right = variables["bias_test"] > 0.5
            diff = 500.0 if left != right else 5000.0
        records.append(make_record(diff=diff, sample=i, **variables))
    return records


# --- relationship models -----------------------------------------------------


def test_fit_needs_two_levels():
    records = [make_record(diff=500.0, sample=i) for i in range(10)]
    with pytest.raises(ValueError, match="two potential levels"):
        fit_relationship_models(records_matrix(records))


def test_root_split_on_recall():
    rng = np.random.default_rng(0)
    records = noisy_records(rng, n=240)
    fit = fit_relationship_models(records_matrix(records), seed=1, forest_params=ForestParams(n_trees=10),
                                  lambda_grid=(1.0, 1000.0), alpha_grid=(0.0, 1.0))
    tree = fit.models["tree"].predictor.trees
    assert VARIABLE_NAMES[tree.feature[0]] == "recall"
    # the cut separates the <=0.01 group from the >=0.02 group
    none_recalls = [r.recall for r in records if r.potential == Potential.NONE]
    saving_recalls = [r.recall for r in records if r.potential != Potential.NONE]
    assert max(none_recalls) < tree.threshold[0] < min(saving_recalls)


def test_model_accuracy_weak_ordering():
    rng = np.random.default_rng(1)
    records = noisy_records(rng, n=360)
    X, y = records_matrix(records)
    # logit and tree are deterministic; only the forest consumes the seed
    base = fit_relationship_models(records_matrix(records), seed=0, forest_params=ForestParams(n_trees=30),
                                   lambda_grid=(1.0, 100.0), alpha_grid=(0.0, 0.5, 1.0))
    logit_acc = np.mean(base.models["logit"].predict_levels(X) == y)
    tree_acc = np.mean(base.models["tree"].predict_levels(X) == y)
    Xi = base.models["forest"].imputer.transform(X)
    wins = 0
    from defectcost.learners import train_random_forest

    for seed in range(10):
        forest = train_random_forest(Xi, y, ForestParams(n_trees=30), seed=seed,
                                     n_classes=len(Potential))
        forest_acc = np.mean(forest.predict(Xi) == y)
        if forest_acc >= tree_acc >= logit_acc:
            wins += 1
    assert wins >= 8
    assert tree_acc > logit_acc  # the XOR pattern defeats the linear model


def test_imputation_reported():
    rng = np.random.default_rng(2)
    records = noisy_records(rng, n=60)
    records[0] = make_record(diff=500.0, precision=float("nan"), sample=999)
    X, _ = records_matrix(records)
    imputer = fit_imputer(X)
    assert imputer.imputed_counts.get("precision") == 1
    filled = imputer.transform(X)
    assert not np.isnan(filled).any()


# --- confusion and strength --------------------------------------------------


def test_hand_built_confusion():
    predicted = [0, 0, 1, 1, 2, 3, 3, 1]
    true = [0, 1, 1, 1, 2, 3, 2, 3]
    conf = confusion_from_predictions(predicted, true)
    assert conf.total == 8
    assert conf.matrix[0, 0] == 1 and conf.matrix[0, 1] == 1
    assert conf.matrix[1, 1] == 2 and conf.matrix[1, 3] == 1
    assert conf.matrix[2, 2] == 1 and conf.matrix[3, 3] == 1 and conf.matrix[3, 2] == 1
    summary = confusion_summary(conf)
    assert summary["medium"]["n"] == 3
    assert summary["medium"]["correct"] == pytest.approx(2 / 3)


def test_all_predicted_none_collapses_onto_none_row():
    conf = confusion_from_predictions([0] * 6, [0, 1, 2, 3, 1, 2])
    assert conf.matrix[0].sum() == 6
    assert conf.matrix[1:].sum() == 0


def test_diagonal_is_strong():
    conf = PotentialConfusion(np.diag([10, 20, 30, 40]))
    verdict = classify_strength(conf)
    assert verdict.verdict == "strong_categorization"
    assert verdict.strong_pct == 1.0


def test_weak_but_not_strong():
    # 89% per-level accuracy for medium, but misses land in the neighboring
    # saving level and the none split is clean
    m = np.zeros((4, 4), dtype=int)
    m[0, 0] = 100
    m[1, 1] = 89
    m[2, 1] = 11     # medium overpredicted as large (neighbor)
    m[2, 2] = 95
    m[1, 2] = 5
    m[3, 3] = 100
    verdict = classify_strength(PotentialConfusion(m))
    assert verdict.verdict == "weak_categorization"
    assert verdict.strong_pct < 0.9


def test_classification_only():
    # none column perfect, saving levels scrambled beyond neighbors
    m = np.zeros((4, 4), dtype=int)
    m[0, 0] = 50
    m[3, 1] = 60     # medium predicted extra_large: not a neighbor
    m[1, 1] = 40
    m[1, 3] = 60     # extra_large predicted medium: not a neighbor
    m[3, 3] = 40
    m[2, 2] = 100
    verdict = classify_strength(PotentialConfusion(m))
    assert verdict.verdict == "classification"


def test_no_relationship():
    m = np.zeros((4, 4), dtype=int)
    m[0, 1] = 50
    m[1, 0] = 50
    m[1, 1] = 10
    m[0, 0] = 10
    verdict = classify_strength(PotentialConfusion(m))
    assert verdict.verdict == "none"


def _predicates(m):
    """Independent re-statement of the three rule sets for the nesting check."""
    col = m.sum(axis=0)

    def frac(num, den):
        return math.nan if den == 0 else num / den

    def ok(x):
        return math.isnan(x) or x >= 0.9

    none_ok = ok(frac(m[0, 0], col[0]))
    saving = col[1] + col[2] + col[3]
    detected = ok(frac(m[1:, 1:].sum(), saving))
    neighbor_hits = (
        m[1, 1] + m[2, 1] + m[1, 2] + m[2, 2] + m[3, 2] + m[2, 3] + m[3, 3]
    )
    neighbor = ok(frac(neighbor_hits, saving))
    per_level = [frac(m[i, i], col[i]) for i in range(4) if col[i] > 0]
    strong = all(v >= 0.9 for v in per_level) if per_level else True
    return none_ok and detected, none_ok and detected and neighbor, strong


def test_verdict_nesting_property():
    rng = np.random.default_rng(3)
    order = ["none", "classification", "weak_categorization", "strong_categorization"]
    for _ in range(300):
        m = rng.integers(0, 20, size=(4, 4))
        if m.sum() == 0:
            continue
        is_cls, is_weak, is_strong = _predicates(m)
        # the rule sets themselves nest
        if is_strong:
            assert is_weak and is_cls
        if is_weak:
            assert is_cls
        verdict = classify_strength(PotentialConfusion(m)).verdict
        expected = "none"
        if is_cls:
            expected = "classification"
        if is_weak:
            expected = "weak_categorization"
        if is_strong:
            expected = "strong_categorization"
        assert verdict == expected
        assert order.index(verdict) >= 0


def test_summary_percentages_sum_per_column():
    rng = np.random.default_rng(23)
    for _ in range(50):
        m = rng.integers(0, 15, size=(4, 4))
        if m.sum() == 0:
            continue
        summary = confusion_summary(PotentialConfusion(m))
        for entry in summary.values():
            if entry["n"] == 0:
                assert entry["correct"] is None
                continue
            total = entry["correct"] + entry["total_overprediction"] + entry["total_underprediction"]
            assert total == pytest.approx(1.0)
            assert entry["moderate_overprediction"] <= entry["total_overprediction"] + 1e-12
            assert entry["moderate_underprediction"] <= entry["total_underprediction"] + 1e-12


def test_confusion_totals_match_records():
    rng = np.random.default_rng(4)
    records = noisy_records(rng, n=90)
    fit = fit_relationship_models(records_matrix(records), seed=0, forest_params=ForestParams(n_trees=10))
    conf = evaluate_confusion(fit.models["forest"], records_matrix(records))
    assert conf.total == len(records)
    for label, entry in confusion_summary(conf).items():
        assert entry["n"] == column_total(conf, Potential.from_label(label))


# --- correlations ------------------------------------------------------------


def test_duplicated_variable_same_group():
    rng = np.random.default_rng(5)
    records = []
    for i in range(80):
        v = float(rng.random())
        records.append(make_record(diff=500.0 + i, recall=v, f_measure=v,
                                   accuracy=float(rng.random()), sample=i))
    analysis = correlation_analysis(records_matrix(records))
    group = next(g for g in analysis.groups if "recall" in g)
    assert "f_measure" in group


def test_error_accuracy_perfectly_anticorrelated():
    rng = np.random.default_rng(6)
    records = []
    for i in range(60):
        acc = float(rng.random())
        records.append(make_record(diff=400.0, accuracy=acc, error=1.0 - acc, sample=i))
    analysis = correlation_analysis(records_matrix(records))
    i = VARIABLE_NAMES.index("accuracy")
    j = VARIABLE_NAMES.index("error")
    assert analysis.matrix[i, j] == pytest.approx(-1.0)
    group = next(g for g in analysis.groups if "accuracy" in g)
    assert "error" in group


def test_independent_noise_gives_singletons():
    rng = np.random.default_rng(7)
    records = [
        make_record(diff=100.0 + i, sample=i,
                    **{name: float(rng.random()) for name in VARIABLE_NAMES})
        for i in range(400)
    ]
    analysis = correlation_analysis(records_matrix(records), threshold=0.8)
    assert all(len(g) == 1 for g in analysis.groups)


def test_groups_invariant_under_record_order():
    rng = np.random.default_rng(8)
    records = noisy_records(rng, n=80)
    a = correlation_analysis(records_matrix(records)).groups
    b = correlation_analysis(records_matrix(list(reversed(records)))).groups
    assert a == b


def union_find_groups(matrix, threshold):
    """Reference: the connected components of the |rho| > threshold graph by
    union-find, each in variable order, ordered by their first variable."""
    parent = list(range(len(VARIABLE_NAMES)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i in range(len(parent)):
        for j in range(i + 1, len(parent)):
            if abs(matrix[i, j]) > threshold:  # NaN compares false
                parent[find(j)] = find(i)
    components = {}
    for i in range(len(parent)):
        components.setdefault(find(i), []).append(VARIABLE_NAMES[i])
    return tuple(tuple(members) for members in components.values())


def test_groups_are_the_union_find_components():
    rng = np.random.default_rng(17)
    # a chain: each variable tracks the one before it, so the first and last
    # are linked only through the others
    chain = np.cumsum(rng.normal(size=(200, len(VARIABLE_NAMES))), axis=1)
    chained = [make_record(diff=500.0 + i, sample=i, **dict(zip(VARIABLE_NAMES, map(float, row))))
               for i, row in enumerate(chain)]
    for records in (chained, noisy_records(rng, n=80)):
        for threshold in (0.3, 0.8, 0.95):
            analysis = correlation_analysis(records_matrix(records), threshold=threshold)
            assert analysis.groups == union_find_groups(analysis.matrix, threshold)
    analysis = correlation_analysis(records_matrix(chained), threshold=0.8)
    first, last = VARIABLE_NAMES[2], VARIABLE_NAMES[-1]
    assert abs(analysis.matrix[2, -1]) < 0.8 and last in next(g for g in analysis.groups if first in g)


def test_correlation_needs_three_records():
    with pytest.raises(ValueError):
        correlation_analysis(records_matrix([make_record(), make_record()]))


# --- distribution ------------------------------------------------------------


def test_distribution_lg_values():
    records = [make_record(diff=d) for d in (10.0, 100.0, 1000.0)]
    out = distribution_export(records_matrix(records), bins=3)
    assert out["counts"]["positive_finite"] == 3
    assert out["lg_mean"] == pytest.approx(2.0)
    assert out["histogram"]["edges"][0] == pytest.approx(1.0)
    assert out["histogram"]["edges"][-1] == pytest.approx(3.0)


def test_distribution_corner_tallies():
    nan, inf = float("nan"), float("inf")
    records = (
        [make_record(diff=nan) for _ in range(3)]
        + [make_record(diff=inf), make_record(diff=-inf), make_record(diff=-5.0)]
        + [make_record(diff=0.0), make_record(diff=250.0)]
    )
    out = distribution_export(records_matrix(records))
    assert out["counts"] == {
        "total": 8, "positive_finite": 1, "negative": 1, "zero": 1,
        "pos_inf": 1, "neg_inf": 1, "nan": 3,
    }
    assert out["potential_counts"]["none"] == 6
    assert out["potential_counts"]["medium"] == 1
    assert out["potential_counts"]["extra_large"] == 1


def test_distribution_recovers_lognormal_parameters():
    rng = np.random.default_rng(9)
    lg = rng.normal(3.18, 0.39, size=10_000)
    records = [make_record(diff=float(10.0**v)) for v in lg]
    out = distribution_export(records_matrix(records))
    assert abs(out["lg_mean"] - 3.18) < 0.05
    assert abs(out["lg_sd"] - 0.39) < 0.05
    qq = out["qq"]
    assert len(qq["theoretical"]) == len(qq["sample"]) == 256
    # central quantiles track the fitted normal closely
    mid = slice(50, 200)
    assert np.allclose(qq["theoretical"][mid], qq["sample"][mid], atol=0.1)


# --- sensitivity -------------------------------------------------------------


def test_default_rebinning_reproduces_labels():
    rng = np.random.default_rng(10)
    records = noisy_records(rng, n=60)
    for rec in records:
        assert classify_potential(rec.diff) == rec.potential


def test_boundary_shift_cases():
    assert classify_potential(950.0, (1000.0, 10000.0)) == Potential.MEDIUM
    assert classify_potential(950.0, (900.0, 9000.0)) == Potential.LARGE
    # far from the boundaries: unchanged under 10% shifts
    for diff in (5.0, 500.0, 5000.0, 50000.0):
        default = classify_potential(diff)
        for shift in (0.9, 1.1):
            assert classify_potential(diff, (shift * 1000, shift * 10000)) == default


def test_sensitivity_boundaries_report():
    rng = np.random.default_rng(11)
    records = noisy_records(rng, n=120)
    report = sensitivity_boundaries(records_matrix(records), seed=0, forest_params=ForestParams(n_trees=10))
    assert [r.shift for r in report.shifts] == [0.9, 1.0, 1.1]
    for r in report.shifts:
        assert r.confusion.total == len(records)
        assert 0.0 <= r.accuracy <= 1.0
    payload = report.to_json_dict()
    assert "1000" in payload["density"]
    json.dumps(payload, allow_nan=False)


def test_boundary_shifts_rebin_as_classify_potential():
    """Each shift's confusion columns count the records classify_potential puts
    in each level under the shifted boundaries, non-finite and boundary diffs included."""
    nan, inf = float("nan"), float("inf")
    edge = [nan, inf, -inf, 0.0, -0.0, -3.0, 900.0, 1000.0, 1100.0, 9000.0, 10000.0, 11000.0, 1e6]
    records = noisy_records(np.random.default_rng(18), n=60) + [
        make_record(diff=d, sample=100 + i) for i, d in enumerate(edge)]
    diffs = [r.diff for r in records]
    report = sensitivity_boundaries(records_matrix(records), seed=0, forest_params=ForestParams(n_trees=5))
    assert len(report.shifts) == 3
    for r in report.shifts:
        expected = np.bincount([classify_potential(d, r.boundaries) for d in diffs], minlength=len(Potential))
        assert r.confusion.matrix.sum(axis=0).tolist() == expected.tolist()


def test_boundary_density_flags_dense_levels():
    records = [make_record(diff=float(d)) for d in np.linspace(905, 1095, 50)] + [
        make_record(diff=50000.0) for _ in range(5)
    ]
    density = boundary_density(records_matrix(records))
    entry = density["1000"]
    assert entry["levels"]["medium"] > 0.2
    assert "medium" in entry["flagged"]
    assert entry["levels"]["extra_large"] == 0.0


def test_sensitivity_regression_memorizes_training_data():
    rng = np.random.default_rng(12)
    records = []
    for i in range(150):
        acc = float(rng.random())
        diff = float(10 ** (2.0 + 1.5 * acc + rng.normal(0, 0.05)))
        records.append(make_record(diff=diff, accuracy=acc, sample=i))
    out = sensitivity_regression(records_matrix(records), records_matrix(records), seed=0, forest_params=ForestParams(n_trees=20))
    assert out["train_r2"] > 0.9
    assert out["eval_r2"] == out["train_r2"]


def test_sensitivity_regression_unrelated_eval():
    rng = np.random.default_rng(13)
    train = []
    for i in range(150):
        acc = float(rng.random())
        train.append(make_record(diff=float(10 ** (2.0 + 1.5 * acc)), accuracy=acc, sample=i))
    eval_records = [
        make_record(diff=float(10 ** rng.uniform(1, 5)), accuracy=float(rng.random()), sample=i)
        for i in range(150)
    ]
    out = sensitivity_regression(records_matrix(train), records_matrix(eval_records), seed=0, forest_params=ForestParams(n_trees=20))
    assert out["train_r2"] > 0.9
    assert out["eval_r2"] < 0.3


def test_sensitivity_regression_errors():
    records = [make_record(diff=float("nan")) for _ in range(5)]
    with pytest.raises(ValueError, match="positive diff"):
        sensitivity_regression(records_matrix(records), records_matrix(records))
    constant = [make_record(diff=100.0, sample=i) for i in range(10)]
    out = sensitivity_regression(records_matrix(constant), records_matrix(constant), seed=0,
                                 forest_params=ForestParams(n_trees=5))
    assert is_undefined(out["train_r2"])


def test_r_squared():
    assert r_squared([1, 2, 3], [1, 2, 3]) == 1.0
    assert is_undefined(r_squared([2, 2, 2], [1, 2, 3]))


# --- report bundle -----------------------------------------------------------


def test_report_bundle_reuses_the_relationship_forest(tmp_path, monkeypatch):
    """A boundary shift whose labels equal the relationship labels takes the
    untuned relationship forest: the bundle fits one forest per distinct label
    set and writes the sensitivity report of separate refits."""
    from defectcost import analysis

    rng = np.random.default_rng(15)
    records = noisy_records(rng, n=90) + [make_record(diff=950.0, sample=100 + i) for i in range(6)]
    params = ForestParams(n_trees=10)
    fits = []
    fit = analysis.train_random_forest
    monkeypatch.setattr(analysis, "train_random_forest", lambda *a, **kw: fits.append(kw) or fit(*a, **kw))
    write_report_bundle(tmp_path, records, seed=0, forest_params=params)
    # the depth-5 tree, the relationship forest and the 0.9 shift, where 950 moves up a level;
    # shifts 1.0 and 1.1 label every record as the relationship models do
    assert len(fits) == 3
    refits = sensitivity_boundaries(records_matrix(records), seed=0, forest_params=params)
    assert len(fits) == 6
    assert (tmp_path / "sensitivity.json").read_text() == json.dumps(refits.to_json_dict(), indent=1) + "\n"


def test_report_commands_build_one_records_matrix_per_file(tmp_path, monkeypatch):
    from defectcost import analysis

    built = []
    build = analysis.records_matrix
    monkeypatch.setattr(analysis, "records_matrix", lambda records: built.append(len(records)) or build(records))
    records = noisy_records(np.random.default_rng(16), n=60)
    write_report_bundle(tmp_path / "bundle", records, seed=0, forest_params=ForestParams(n_trees=5))
    assert built == [60]
    write_records_csv(records, tmp_path / "train.csv")
    write_records_jsonl(records[:40], tmp_path / "eval.jsonl")
    built.clear()
    assert main(["sensitivity", "--records", str(tmp_path / "train.csv"), "--eval-records",
                 str(tmp_path / "eval.jsonl"), "--trees", "5", "-o", str(tmp_path / "sens")]) == 0
    assert built == [60, 40]


def test_report_bundle_files(tmp_path):
    rng = np.random.default_rng(14)
    records = noisy_records(rng, n=90)
    paths = write_report_bundle(
        tmp_path, records, seed=0, forest_params=ForestParams(n_trees=10)
    )
    expected = {
        "records.csv", "correlations.csv", "confusion_logit.json",
        "confusion_tree.json", "confusion_forest.json", "importances_logit.json",
        "importances_tree.json", "importances_forest.json", "distribution.json",
        "sensitivity.json", "verdicts.json",
    }
    assert {p.name for p in paths.values()} == expected
    for p in paths.values():
        if p.suffix == ".json":
            json.loads(p.read_text())
    verdicts = json.loads((tmp_path / "verdicts.json").read_text())
    assert set(verdicts["verdicts"]) == {"logit", "tree", "forest"}
