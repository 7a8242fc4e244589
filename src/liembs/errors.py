"""Exception types shared across the package."""


class LiembsError(Exception):
    """Base class for errors raised by this package."""


class ChartBoundary(LiembsError):
    """A local rotation coordinate left the domain of its chart.

    Raised when a rotation-vector argument reaches the singularity of the
    inverse differential (norm at 2*pi) or when a step accumulates a local
    rotation of pi or more, which the per-step chart cannot represent safely.
    """


class CompoundAnglePi(ChartBoundary):
    """A rotation composition landed too close to a full turn.

    The closed-form composition of rotation vectors divides by sinc(phi/2)
    of the compound angle phi, which vanishes at phi = 2*pi; near that point
    the direction of the result is numerically meaningless and the +/- pi
    wrap is ambiguous.
    """


class VariantMismatch(LiembsError, TypeError):
    """Coordinates, combo, or model disagree on representation.

    Examples: a quaternion-position state fed to an axis-angle combo, or an
    SE(3) (body-fixed twist) model integrated with a direct-product combo.
    """


class SingularKkt(LiembsError):
    """The constrained-dynamics saddle-point matrix is numerically singular.

    Signalled when A W A^T of a least-norm correction (the Schur complement
    A M^-1 A^T, or A A^T in the projection) is not positive definite or its
    reciprocal condition w_min / w_max is below 1e-12 (redundant constraints,
    a singular configuration, ...), and when it gives non-finite multipliers
    or is given a non-finite right-hand side. For a system held to the ground
    alone the gate reads the constant factor K, whose eigenvalues are those
    of A M^-1 A^T at every configuration.
    """


class NonFiniteState(LiembsError):
    """A step produced a NaN or infinite coordinate or twist."""


class NoConvergence(LiembsError):
    """An iterative solve (constraint projection) did not reach tolerance."""


class InvalidConfig(LiembsError, ValueError):
    """An integrator setting has a bad value; ``field`` names the setting."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(message)


class InconsistentState(LiembsError):
    """Initial conditions violate position or velocity constraints."""


class StepFailed(LiembsError):
    """A time step raised; carries the step index and time for diagnosis."""

    def __init__(self, step_index: int, t: float, cause: Exception):
        self.step_index = step_index
        self.t = t
        super().__init__(f"step {step_index} at t={t:.6g} failed: {cause}")

