"""Exception types shared across the package."""


class FlapsimError(Exception):
    """Base class for package-specific failures."""


class GimbalLockError(FlapsimError, ValueError):
    """Pitch too close to +/-90 deg for a 321 Euler representation."""


class ConfigError(FlapsimError, ValueError):
    """Malformed parameter/scenario/schedule input."""


class SchemaError(ConfigError):
    """Structured data file violates its documented schema."""


class SynthesisError(FlapsimError, RuntimeError):
    """Gain synthesis failed: weights that are not symmetric, Q not positive
    semidefinite or R not positive definite; a PBH rank defect ((A, B) not
    stabilizable or (A, Q^1/2) not detectable); a Hamiltonian eigenvalue
    within 1e-6 relative of the imaginary axis or a singular stable-subspace
    basis ("CARE solve failed"); a singular Lyapunov refinement step; a
    relative CARE residual above the 1e-8
    certificate; a closed loop that is not Hurwitz; or a gain whose
    zero-order-hold sampled loop has spectral radius >= 1."""


class DivergenceError(FlapsimError, RuntimeError):
    """Simulation produced a non-finite or out-of-envelope state.

    When raised by the scenario runner, ``partial_log`` carries whatever
    was recorded before the blow-up.
    """

    def __init__(self, message, partial_log=None):
        super().__init__(message)
        self.partial_log = partial_log
