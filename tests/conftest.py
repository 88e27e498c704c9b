import math

import pytest

import singular_geodesics as sg
from singular_geodesics import geodesic_flow
from singular_geodesics.cross_sections import CircleSection


@pytest.fixture(scope="session")
def flat_circle():
    return sg.circle_section(2.0 * math.pi)


@pytest.fixture(scope="session")
def cone_warp():
    return sg.make_power_warp(1.0)


@pytest.fixture(scope="session")
def cusp_warp():
    return sg.make_power_warp(2.0)


@pytest.fixture(scope="session")
def round_sphere():
    return sg.sphere_section()


@pytest.fixture
def sphere_on_the_full_path(monkeypatch):
    """Route the round sphere through the full system, the path of the
    perturbed sections, so that the sphere's closed forms (its winding
    length, its conserved L) keep testing that path.  The flat circle stays
    on the reduced path."""
    def is_reduced(cs):
        return isinstance(cs, CircleSection) and cs.amplitude == 0.0
    monkeypatch.setattr(geodesic_flow, "_is_reduced", is_reduced)
