"""cbnet: learn periodic Bayesian-network activity patterns from binary streams.

The library folds raw on/off sensor streams at candidate periods, estimates
per-clique conditional probability tables in closed form, scores directed
edges with a conditional log-probability dependence measure, and recovers
the unknown period blindly as the smallest lag at which every phase of the
folded stream is independent, judged against the exact mean of G over
every shuffle of its frames; the paper's rule, a lag-dependence profile
and its DFT, is kept alongside.  A conditional-mutual-information baseline
and a road-traffic simulator round out the toolkit.
"""

from .baseline import cmi_edge, conventional_learn
from .cpt import (
    DEFAULT_EPS,
    CliqueCPT,
    bbcpt,
    condition_matrix,
    counting_oracle,
)
from .dependence import (
    DependenceMatrix,
    cpbd_clique,
    difference_operator,
    direct_cpbd,
    normalize,
)
from .errors import (
    BoundaryProbabilityError,
    CbnetError,
    ConfigError,
    DimensionError,
    EmptyInputError,
    InsufficientDataError,
    NoPeakError,
    NoValleyError,
    PeriodRangeError,
    PhaseRangeError,
    SessionBoundsError,
    ShapeMismatchError,
)
from .observations import ObservationStream, fold, frame_pair
from .period import (
    CbnModel,
    LearnConfig,
    PeriodEstimate,
    dft_magnitude,
    find_tp,
    find_ts,
    lag_dependence,
    learn_cbn,
    paper_period,
    resolve_period,
)
from .simulator import Simulation, SimulationConfig, run

__version__ = "0.1.0"

__all__ = [
    "BoundaryProbabilityError",
    "CbnModel",
    "CbnetError",
    "CliqueCPT",
    "ConfigError",
    "DEFAULT_EPS",
    "DependenceMatrix",
    "DimensionError",
    "EmptyInputError",
    "InsufficientDataError",
    "LearnConfig",
    "NoPeakError",
    "NoValleyError",
    "ObservationStream",
    "PeriodEstimate",
    "PeriodRangeError",
    "PhaseRangeError",
    "SessionBoundsError",
    "ShapeMismatchError",
    "Simulation",
    "SimulationConfig",
    "bbcpt",
    "cmi_edge",
    "condition_matrix",
    "conventional_learn",
    "counting_oracle",
    "cpbd_clique",
    "dft_magnitude",
    "difference_operator",
    "direct_cpbd",
    "find_tp",
    "find_ts",
    "fold",
    "frame_pair",
    "lag_dependence",
    "learn_cbn",
    "normalize",
    "paper_period",
    "resolve_period",
    "run",
]
