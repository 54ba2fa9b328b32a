"""The ten confounding variables over training and test data.

The bias variables capture class imbalance before/after preprocessing, the
prop variables the share of code volume held by the 1% largest defective and
clean test artifacts ("super instances"), and the N variables the data sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .dataset import ReleaseView
from .extmath import UNDEFINED, safe_div


@dataclass(frozen=True)
class ConfounderVector:
    """The ten confounders of one evaluation, in ``CONFOUNDER_NAMES`` order."""

    bias_train: float
    bias_train_prime: float
    bias_test: float
    ratio_bias: float
    ratio_bias_prime: float
    prop_def_1pct: float
    prop_clean_1pct: float
    n_train: float
    n_train_prime: float
    n_test: float


CONFOUNDER_NAMES = tuple(f.name for f in fields(ConfounderVector))
SUPER_INSTANCE_SHARE = 0.01  # the share of the largest artifacts that the prop variables take


def top_share(sizes: Sequence[int]) -> float:
    """Size share of the ceil(SUPER_INSTANCE_SHARE * n) largest items; undefined on empty input."""
    sizes = np.asarray(sizes, dtype=np.float64)
    if sizes.size == 0:
        return UNDEFINED
    m = math.ceil(SUPER_INSTANCE_SHARE * sizes.size)
    top = np.sort(sizes)[::-1][:m]
    return safe_div(float(top.sum()), float(sizes.sum()))


def compute_confounders(
    train_labels: Sequence[int] | None,
    train_prime_labels: Sequence[int] | None,
    test_view: ReleaseView,
) -> ConfounderVector:
    """Confounders for one evaluation.

    ``train_labels`` are the defect labels of the raw training rows,
    ``train_prime_labels`` those after preprocessing (identical when no
    oversampling ran). Ratio variables are undefined when the corresponding
    training bias is zero. An evaluation without training data (an external
    prediction) passes None for both: its biases and ratios are undefined and
    its training sizes zero.
    """
    if train_labels is None and train_prime_labels is None:
        train_labels = train_prime_labels = ()
    elif len(train_labels) == 0 or len(train_prime_labels) == 0 or test_view.n == 0:
        raise ValueError("confounders need non-empty train, preprocessed-train and test views")

    bias_train = safe_div(float(np.sum(train_labels)), len(train_labels))
    bias_train_prime = safe_div(float(np.sum(train_prime_labels)), len(train_prime_labels))
    bias_test = safe_div(float(test_view.y.sum()), test_view.n)

    def_sizes = test_view.sizes[test_view.y == 1]
    clean_sizes = test_view.sizes[test_view.y == 0]

    return ConfounderVector(
        bias_train=bias_train,
        bias_train_prime=bias_train_prime,
        bias_test=bias_test,
        ratio_bias=bias_test / bias_train if bias_train > 0 else UNDEFINED,
        ratio_bias_prime=bias_test / bias_train_prime if bias_train_prime > 0 else UNDEFINED,
        prop_def_1pct=top_share(def_sizes),
        prop_clean_1pct=top_share(clean_sizes),
        n_train=float(len(train_labels)),
        n_train_prime=float(len(train_prime_labels)),
        n_test=float(test_view.n),
    )
