"""debiasim: bounded-exploration data debiasing for threshold classifiers.

A simulation library for sequential classification under censored feedback:
an online engine admits agents by a (fairness-constrained) threshold,
explores a bounded window below it, and re-fits single-parameter
distribution estimates from the data its own decisions let through.
"""

from .config import RunConfig, config_from_dict, load_config, parse_config
from .dist import (
    Family,
    ParametricEstimate,
    TruncationWindow,
    beta,
    gaussian,
    param_from_reference,
)
from .engines import (
    BatchBuffer,
    Engine,
    EngineKind,
    EngineSpec,
    ExplorationSchedule,
    ScheduleMode,
    TwoParamState,
    UpdateMode,
    admission_masks,
    advance_epsilon,
    portion_left,
    recover_sigma,
    twoparam_update,
    update_reference,
)
from .metrics import (
    OracleBaseline,
    RunTrace,
    TraceRow,
    bias,
    error_weight,
    exploration_error,
    regret_increment,
)
from .oracle import (
    MedianDensityQuery,
    brute_force_threshold,
    drift_oracle,
    median_density,
)
from .policy import (
    ConstraintKind,
    FairnessConstraint,
    GroupPolicy,
    PopulationSpec,
    expected_loss,
    lower_bound,
    solve_thresholds,
    upper_bound,
)
from .runner import run_many, run_single
from .stream import (
    AgentRecord,
    ArrivalBlock,
    CsvReplayStream,
    ScorerModel,
    SyntheticStream,
    fit_initial_estimate,
    fit_scorer,
    load_replay,
)

__version__ = "0.1.0"
