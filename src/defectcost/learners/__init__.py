"""Model-fitting machinery: CART, random forests, SMOTE, DE, elastic-net logit."""

from .de import differential_evolution
from .forest import (
    Forest,
    ForestParams,
    forest_importance,
    oob_accuracy,
    oob_mcc,
    params_from_vector,
    train_random_forest,
    tune_forest_params,
)
from .logit import (
    GoodnessOfFit,
    LogitModel,
    fit_multinomial_logit_elastic_net,
    fit_penalized_softmax,
    log_likelihood,
    mcfadden_adjusted_r2,
    null_log_likelihood,
    softmax,
    softmax_nll_grad,
)
from .nb import GaussianNB, train_gaussian_nb
from .smote import SmoteTuning, apply_smote, smote_oversample, tune_smote
from .stats import spearman, spearman_matrix
from .tree import (
    Tree,
    apply_tree,
    count_leaves,
    gini_importance,
    predict_proba_tree,
    predict_tree_regression,
    train_cart,
    tree_depth,
)

__all__ = [
    "Forest",
    "ForestParams",
    "GaussianNB",
    "GoodnessOfFit",
    "LogitModel",
    "SmoteTuning",
    "Tree",
    "apply_smote",
    "apply_tree",
    "count_leaves",
    "differential_evolution",
    "fit_multinomial_logit_elastic_net",
    "fit_penalized_softmax",
    "forest_importance",
    "gini_importance",
    "log_likelihood",
    "mcfadden_adjusted_r2",
    "null_log_likelihood",
    "oob_accuracy",
    "oob_mcc",
    "params_from_vector",
    "predict_proba_tree",
    "predict_tree_regression",
    "smote_oversample",
    "softmax",
    "softmax_nll_grad",
    "spearman",
    "spearman_matrix",
    "train_cart",
    "train_gaussian_nb",
    "train_random_forest",
    "tree_depth",
    "tune_forest_params",
    "tune_smote",
]
