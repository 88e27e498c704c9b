"""The traced right-hand sides are kept per warp, section and k
(``geodesic_flow._traced``): a trajectory from a warm entry is the one
built cold from fresh objects, byte for byte; a patched ``cometric`` gets an
entry of its own and leaves the clean one as it was; and an entry goes
with its warp or section, so warps built per call (as the CLI builds them)
leave nothing behind."""
import gc
import math
import weakref

import numpy as np
import pytest

import singular_geodesics as sg
from singular_geodesics import geodesic_flow, straightline
from singular_geodesics.cross_sections import SphereSection
from singular_geodesics.experiments import delta_sweep

SPHERE_Y0, SPHERE_V0 = [math.pi / 2, 0.3], [math.sin(0.5), math.cos(0.5)]

# name -> (warp spec, section spec, y0, v0): the flat circle and the round
# sphere run the reduced system, the perturbed sections the full one
CASES = {
    "flat_circle": ("power:2", "circle:6.283185307179586", [0.3], [1.0]),
    "round_sphere": ("power:1.7", "sphere", SPHERE_Y0, SPHERE_V0),
    "perturbed_circle": ("power:1.5", "circle:6.283185307179586:pert=0.08", [0.3], [1.0]),
    "perturbed_sphere": ("power:2", "sphere:pert=0.05", SPHERE_Y0, SPHERE_V0),
    "profile_table": ("table", "circle:6.283185307179586:pert=0.05", [0.3], [1.0]),
    "osc": ("osc:0.5:9", "circle:6.283185307179586", [0.3], [1.0]),
}


def build(name):
    """Fresh warp and section objects of a case, and its launch."""
    spec, section, y0, v0 = CASES[name]
    if spec == "table":
        wf = sg.profile_to_warp(lambda z: z * z, lambda z: 2.0 * z, 1.0)
    else:
        wf = sg.parse_warp_spec(spec)
    return wf, sg.parse_section_spec(section, wf.domain_radius), y0, v0


def bits(traj) -> list:
    """Every run's arrays and counts, every sample array and the solver
    record, as bytes and values."""
    out = [traj.meta["solver"], traj.meta["path"]]
    for sol in traj.runs:
        out += [sol.t.tobytes(), sol.h.tobytes(), sol.coef.tobytes(), sol.coef.shape,
                [e.tobytes() for e in sol.t_events], sol.nfev, sol.rejected, sol.status]
    for name in ("t", "r", "theta", "y", "eta", "tau_scaled", "tau", "hamiltonian",
                 "clairaut_rel", "eta_norm", "qr_q", "rho"):
        out.append(np.ascontiguousarray(getattr(traj, name)).tobytes())
    return out


def counting_traces(monkeypatch) -> list:
    """One entry per ``straightline.trace`` call from now on."""
    calls, trace = [], straightline.trace

    def counting(*args):
        calls.append(args)
        return trace(*args)
    monkeypatch.setattr(straightline, "trace", counting)
    return calls


@pytest.mark.parametrize("name", sorted(CASES))
def test_a_warm_trajectory_is_the_cold_one_byte_for_byte(name, monkeypatch):
    wf, cs, y0, v0 = build(name)
    delta = 0.1 * wf.domain_radius
    sg.integrate_winding(wf, cs, delta, y0, v0)
    calls = counting_traces(monkeypatch)
    warm = sg.integrate_winding(wf, cs, delta, y0, v0)
    # a second delta on the same objects hits the entry too
    sg.integrate_winding(wf, cs, 0.15 * wf.domain_radius, y0, v0)
    assert calls == []
    fresh_wf, fresh_cs, _, _ = build(name)
    cold = sg.integrate_winding(fresh_wf, fresh_cs, delta, y0, v0)
    assert len(calls) == 1
    assert warm.meta["path"] == ("reduced" if cs.amplitude == 0.0 else "full")
    assert bits(warm) == bits(cold)


def test_an_8_rung_delta_sweep_traces_once(monkeypatch):
    wf, cs = sg.make_power_warp(2.0), sg.circle_section(2 * math.pi)
    calls = counting_traces(monkeypatch)
    sweep = delta_sweep(wf, cs, np.geomspace(0.3, 0.01, 8).tolist())
    assert len(sweep.lengths) == 8 and len(calls) == 1


def test_an_undone_cometric_patch_leaves_the_clean_entry(monkeypatch):
    wf, cs, y0, v0 = build("perturbed_sphere")
    clean = bits(sg.integrate_winding(wf, cs, 0.15, y0, v0))
    original = SphereSection.cometric

    def torque_free(self, r, y, eta):
        sharp, norm2, qr_q, _ = original(self, r, y, eta)
        return sharp, norm2, qr_q, [0.0, 0.0, 0.0]
    with monkeypatch.context() as patch:
        patch.setattr(SphereSection, "cometric", torque_free)
        # the same objects: the patched cometric reaches the generated code
        with pytest.raises(sg.IntegrationError, match="shell drift"):
            sg.integrate_winding(wf, cs, 0.15, y0, v0)
    calls = counting_traces(monkeypatch)
    assert bits(sg.integrate_winding(wf, cs, 0.15, y0, v0)) == clean
    assert calls == []


def test_entries_go_with_their_warps_and_sections():
    entries = len(geodesic_flow._TRACED)
    refs = []
    for i in range(200):
        wf = sg.make_power_warp(1.0 + i / 200)
        cs = sg.circle_section(2 * math.pi, (0.02, None)) if i % 4 == 0 else \
            sg.circle_section(2 * math.pi)
        sg.integrate_winding(wf, cs, 0.2, [0.3], [1.0], dense_nodes=16)
        refs += [weakref.ref(wf), weakref.ref(cs)]
    key = ("reduced", id(wf))
    assert any(k[:2] == key for k in geodesic_flow._TRACED)
    del wf, cs
    gc.collect()
    # the cache holds no warp or section alive, and no entry of a dead one
    assert all(ref() is None for ref in refs)
    assert len(geodesic_flow._TRACED) <= entries
