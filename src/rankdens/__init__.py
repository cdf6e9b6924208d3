"""Probability estimation for tied, incomplete preference rankings."""

from .rankings import (
    ItemUniverse,
    Permutation,
    RankingError,
    TiedRanking,
    chain_ranking,
    format_ranking,
    full_group_ranking,
    pair_ranking,
    parse_ranking,
)
from .combinatorics import (
    MahonianTable,
    TriangularNormalization,
    kendall_tau,
    mahonian_distribution,
    triangular_normalization,
)
from .censored import expected_kendall, pair_pref_prob
from .estimator import (
    EventProbability,
    KernelModel,
    default_bandwidth,
    empirical_prob,
    fit,
    heldout_loglikelihood,
    mallows_fit,
)
from .recommend import (
    LossMatrix,
    absolute_loss,
    asymmetric_loss,
    holdout_split,
    level_posterior,
    posterior_loss,
    predict_level,
    zero_one_loss,
)
from .rules import (
    Rule,
    affinity_graph,
    joint_pair_table,
    lift_score,
    mine_mi_rules,
    mutual_information,
)

__version__ = "0.1.0"
