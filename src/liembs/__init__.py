"""Singularity-free rigid multibody integration in absolute coordinates.

The package builds up in layers: vector coordinate maps on SO(3)
(:mod:`liembs.rotmaps`), the three motion-group models assembled from them
(:mod:`liembs.motiongroups`), local-global transition maps that advance a
global configuration by a local increment (:mod:`liembs.lgt`), constrained
equations of motion in local coordinates (:mod:`liembs.dynamics`), ready-made
mechanical models (:mod:`liembs.models`), Runge-Kutta time integration with
per-step chart restarts (:mod:`liembs.integrate`), and a command line front
end (:mod:`liembs.cli`).
"""

from .errors import (
    ChartBoundary,
    CompoundAnglePi,
    InconsistentState,
    InvalidConfig,
    LiembsError,
    NoConvergence,
    NonFiniteState,
    SingularKkt,
    StepFailed,
    VariantMismatch,
)

__all__ = [
    "ChartBoundary",
    "CompoundAnglePi",
    "InconsistentState",
    "InvalidConfig",
    "LiembsError",
    "NoConvergence",
    "NonFiniteState",
    "SingularKkt",
    "StepFailed",
    "VariantMismatch",
]

__version__ = "0.1.0"
