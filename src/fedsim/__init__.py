"""Deterministic federated-learning simulator and verification lab."""

__version__ = "0.1.0"

from .params import (  # noqa: F401
    Block,
    BlockLayout,
    ParamVector,
    Role,
    layout_from_sizes,
    weighted_average,
    weighted_sum,
)
from .models import (  # noqa: F401
    LogisticL2Spec,
    MlpSpec,
    RidgeSpec,
    build_layout,
    erm_closed_form,
    init_params,
    loss_and_grad,
    mu_L_exact,
    population_risk_closed_form,
)
from .data import (  # noqa: F401
    DatasetShard,
    GaussianClusters,
    GaussianLinear,
    draw_round_batches,
    generate,
    generate_pooled,
    partition_dirichlet,
    partition_iid,
    partition_label_sorted,
)
from .engine import (  # noqa: F401
    DivergenceError,
    FULL_PARTICIPATION,
    ParticipationSpec,
    RunResult,
    ScheduleSpec,
    comm_closed_form,
    run_experiment,
    sample_participants,
    sync_due,
)
from .metrics import (  # noqa: F401
    MetricsRecord,
    accuracy,
    empirical_risk,
    population_risk_estimate,
)
from .bounds import (  # noqa: F401
    BoundReport,
    BoundTrialConfig,
    IdentityReport,
    first_term_coefficient,
    theorem1_rhs,
    verify_participation_identities,
    verify_theorem1,
)
