"""Relative positioning from RF signals in GPS-denied settings.

Doppler range estimation, TDOA hyperbolic emitter localization, 2D/3D
trilateration, the two-step team relative-position pipeline, and a forward
scenario simulator with brute-force oracles to verify every solve.
"""

__version__ = "0.1.0"

from . import errors
from .doppler import DopplerRange, DopplerReading, doppler_distance, doppler_shift
from .geometry import Point, distance
from .simulate import (
    ArrivalSet,
    Scenario,
    perturb_arrivals,
    simulate_arrivals,
)
from .solver import (
    SolveResult,
    finite_difference_jacobian,
    grid_search,
)
from .tdoa import (
    RangeDifferenceSet,
    arrival_deltas,
    hyperbolic_jacobian,
    hyperbolic_objective,
    hyperbolic_residuals,
    locate_emitter,
)
from .trilat import (
    TrilaterationProblem,
    team_relative_position,
    trilaterate,
    trilaterate_lsq,
    trilateration_jacobian,
    trilateration_objective,
    trilateration_residuals,
)

__all__ = [
    "__version__",
    "errors",
    "Point",
    "distance",
    "DopplerReading",
    "DopplerRange",
    "doppler_shift",
    "doppler_distance",
    "Scenario",
    "ArrivalSet",
    "simulate_arrivals",
    "perturb_arrivals",
    "SolveResult",
    "finite_difference_jacobian",
    "grid_search",
    "RangeDifferenceSet",
    "arrival_deltas",
    "hyperbolic_residuals",
    "hyperbolic_jacobian",
    "hyperbolic_objective",
    "locate_emitter",
    "TrilaterationProblem",
    "trilateration_residuals",
    "trilateration_jacobian",
    "trilateration_objective",
    "trilaterate",
    "trilaterate_lsq",
    "team_relative_position",
]
