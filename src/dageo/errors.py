"""Exceptions shared by the geometry kernel."""


class DegenerateConfigurationError(ValueError):
    """A construction's preconditions are violated (coincident points,
    singular sides, collinear defining triples, and the like)."""


class IrrationalIntersectionError(ValueError):
    """An intersection exists but is not rational, so the exact kernel
    cannot represent it."""


class GeneratorExhaustedError(RuntimeError):
    """Rejection sampling hit its retry limit without producing an
    admissible configuration."""


class KernelInvariantError(AssertionError):
    """A certified identity of the theory failed on a concrete instance,
    so the kernel itself is broken.  Raised explicitly rather than by
    ``assert``, so the certificates also run under ``python -O``."""
