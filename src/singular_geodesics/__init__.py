"""Numerical geodesics of warped-product metrics near isolated singularities."""

from .errors import (
    IntegrationError,
    NonOscillationError,
    QuadratureError,
    SingularGeodesicsError,
)
from .warp_profiles import (
    FrakFEstimate,
    WarpKind,
    WarpingFunction,
    check_Cf_monotonicity,
    compute_Cf,
    compute_Cf_detailed,
    estimate_frakF,
    make_concave_sqrt_warp,
    make_exp_warp,
    make_oscillating_F,
    make_power_warp,
    parse_warp_spec,
    profile_to_warp,
)
from .cross_sections import (
    CircleSection,
    CrossSection,
    SphereSection,
    base_geodesic,
    circle_section,
    mean_curvature_scalar,
    parse_section_spec,
    sphere_section,
)
from .geodesic_flow import (
    GeodesicState,
    Trajectory,
    classify,
    integrate,
    integrate_winding,
    launch_winding,
    normalized_winding_length,
    reparametrize_tau,
    winding_length,
)
from .experiments import (
    SweepResult,
    comparison_test,
    delta_sweep,
    figure1_data,
    limit_geodesic_test,
    verify_radial_bounds,
)
from .profile_io import load_profile_csv

__version__ = "0.1.0"
