"""Coalition-game feature attribution laboratory."""

from .games import (
    Attribution,
    AxiomReport,
    Coalition,
    CoalitionGame,
    CyclicPrecedenceError,
    EnumerationCapError,
    PrecedenceOrder,
)
from .solvers import (
    AllDummyInconsistencyError,
    asymmetric_shapley,
    audit_axioms,
    equal_split_attribution,
    exact_shapley_permutations,
    exact_shapley_subsets,
    sampled_shapley,
)
from .data import TabularDataset, DatasetError, CONTINUOUS, DISCRETE
from .value_functions import (
    CONDITIONAL,
    ContinuousFeatureError,
    EmptyConditioningSetError,
    EXACT_ROW_MEMBERSHIP,
    HybridSample,
    MARGINAL_JOINT,
    NonFiniteScoreError,
    PRODUCT_OF_MARGINALS,
    SINGLE_REFERENCE,
    ValueFunctionSpec,
    build_conditional_game,
    build_interventional_game,
    generate_hybrids,
    indirect_influence_gap,
    ood_fraction,
)
from .models import (
    CallableModel,
    LinearModel,
    MultiplicativeModel,
    PredictiveModel,
    QuadraticRecourseModel,
    ScaffoldedModel,
    linear_closed_form,
    multiplicative_closed_form,
    scaffold,
)
from .trees import (
    DecisionTree,
    TreeEnsemble,
    TreeNode,
    build_tree_from_data,
    dump_tree_text,
    load_tree,
    load_tree_text,
    save_tree,
    tree_conditional_expectation,
)

__version__ = "0.1.0"
