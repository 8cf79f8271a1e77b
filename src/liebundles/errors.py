"""Exception hierarchy shared across the package."""

from contextlib import contextmanager


class LieBundleError(Exception):
    """Base class for all package errors."""


class UsageError(LieBundleError):
    """Caller passed structurally invalid arguments (mismatched descriptors, bad config)."""


class DomainError(LieBundleError):
    """Evaluation requested outside the valid domain (non-finite input, point off chart)."""


class RangeError(LieBundleError):
    """Result falls outside the representable range (logarithm beyond injectivity radius)."""


class DescriptorError(LieBundleError):
    """A group descriptor is internally inconsistent or an element violates membership."""


class StiffnessError(LieBundleError):
    """Integrator step size underflowed."""


class InstabilityError(LieBundleError):
    """Integrator left the group manifold beyond recoverable drift."""


class ConstructionError(LieBundleError):
    """A connection form is degenerate: its vertical operator is singular."""


@contextmanager
def prefixed(name):
    """Raise a package error again, as the same type, with ``name`` in front."""
    try:
        yield
    except LieBundleError as exc:
        raise type(exc)(f"{name}: {exc}") from exc
