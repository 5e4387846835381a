"""Exact feature-attribution scores and formal explanations for small
models: classical expected-value Shapley scores, sufficiency-game
corrected scores, abductive/contrastive explanations with hitting-set
duality, a permutation-sampling estimator, and ranking comparison."""

from .cgt import CgtConfig, CgtDiagnostics, cgt_estimate
from .errors import (
    DomainError,
    NumericOutputError,
    PreconditionError,
    ShapxpError,
    SizeLimitError,
    UnsupportedOperationError,
    ValidationError,
)
from .explanations import (
    ConstantOnUniverseWarning,
    ExplanationProblem,
    Sample,
    axps_from_cxps,
    enumerate_axps,
    enumerate_cxps,
    extract_axp,
    extract_cxp,
    full_space_sample,
    is_waxp,
    is_wcxp,
    minimal_hitting_sets,
    relevant_features,
)
from .games import (
    ComplianceReport,
    Game,
    ScoreVector,
    cf_expected,
    cf_waxp,
    check_compliance,
    check_value_independence,
    expected_game,
    relabel_problem,
    shapley_exact,
    shapley_via_permutations,
    waxp_game,
)
from .models import (
    BoxPiecewiseModel,
    Cell,
    DiscreteDomain,
    Feature,
    FeatureSpace,
    Instance,
    IntervalDomain,
    TabularModel,
    TreeLeaf,
    TreeModel,
    TreeNode,
    conditional_expectation,
    enumerate_points,
    make_instance,
    output_range,
    predict,
    tabulate,
)
from .modelio import RunReport, load_model, load_sample
from .ranking import (
    Ranking,
    compare_scores,
    rank_features,
    rbo,
    summarize_comparisons,
)
from .similarity import SimilarityConfig, similar, similar_value

__version__ = "0.1.0"
