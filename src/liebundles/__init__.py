"""Numerical Lie group bundles, multiplicative connections, and equivariant
parallel transport in local trivializations."""

__version__ = "0.1.0"

from .bundles import (
    FiberedAction,
    LieGroupBundle,
    Tangent,
    TotalPoint,
    TotalSpace,
    product_velocity,
)
from .calculus import (
    AlgebraOneForm,
    BaseCurve,
    ChartDomain,
    Polynomial,
    TwoIndexAlgebraForm,
    finite_diff_jacobian,
    numerical_bracket,
)
from .connections import (
    AlgebraConnection,
    LieGroupBundleConnection,
    algebra_transport,
    transport_group,
    validate_group_connection,
)
from .groups import (
    AlgebraElement,
    GroupDescriptor,
    GroupElement,
    so3_descriptor,
    translation_descriptor,
)
from .integrators import TransportResult, integrate_on_group, integrate_stack
from .principal import (
    GeneralizedPrincipalConnection,
    build_canonical_connection,
    build_two_chart_connection,
    connection_difference,
    curvature,
    reduced_curvature_residual,
    transport_total,
    validate_principal_connection,
    validate_tensorial_form,
)
from .scenarios import PRESET_NAMES, build_scenario, descriptor_from_json, preset_config
from .suites import run_suite
