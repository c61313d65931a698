"""Desk-scale lab for a momentum learner viewed as regularized leader-following.

The package simulates the scalar online-learning core (multi-coordinate use is
composition of independent scalar learners), tracks discounted regret, checks
every regret bound with per-term breakdowns, and reproduces the constructive
worst-case and non-oblivious experiments as deterministic, serializable runs.
"""

__version__ = "0.1.0"

from .learner import (  # noqa: F401
    DEFAULT_ORACLE_HORIZON,
    AlphaSchedule,
    HyperParams,
    LearnerState,
    UpdateOutcome,
    alpha_at,
    clip_to_domain,
    ingest_gradient,
    propose_update,
)
from .regret import (  # noqa: F401
    RegretLedger,
    accumulate_discounted_regret,
    drive,
)
from .bounds import (  # noqa: F401
    BoundReport,
    TraceStats,
    bound_b_from_stats,
    bound_b_undiscounted,
    bound_corollary1_discounted,
    bound_theorem1_discounted,
    bound_theorem3_discounted,
    dominance_holds,
)
from .adversaries import (  # noqa: F401
    FixedSequence,
    GeometricSequence,
    LemmaReport,
    NonObliviousPair,
    NonObliviousResult,
    RandomUniform,
    TightnessResult,
    geometric_losses,
    run_nonoblivious_experiment,
    run_tightness_experiment,
    verify_lemma_a1,
    verify_lemma_a2,
)
from .harness import (  # noqa: F401
    ExperimentConfig,
    ExperimentResult,
    run_experiment,
    sweep,
    write_outputs,
)
