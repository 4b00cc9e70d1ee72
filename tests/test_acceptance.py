"""End-to-end acceptance suite.

Each test covers one acceptance criterion at its stated tolerance and
prints a single PASS/FAIL line so the whole gate can be read at a glance:

    python3 -m pytest tests/test_acceptance.py -v -s
"""
import math

import numpy as np
import pytest

from wlab.cyclic import RiemannTypeSurface, build_cyclic, build_riemann_type
from wlab.config import canonical_dumps, load_config
from wlab.fitting import (
    VERDICT_NOT_LW,
    VERDICT_RIEMANN,
    VERDICT_ROTATIONAL,
    VERDICT_UMBILIC,
    CurvatureSampleSet,
    classify,
    fit_lw,
)
from wlab.functions import SmoothFunction
from wlab.generators import gen_fixture, gen_riemann_example, gen_rotational_lw
from wlab.harmonics import (
    _sample_angles,
    _spectrum,
    circle_spectrum,
    closed_form_A12_B12,
)
from wlab.surface import (
    LWRelation,
    curvature,
    evaluate_jet,
    finite_difference_twin,
    interior_grid,
    lw_residual_poly,
    lw_residual_poly_scale,
)
from conftest import generic_cyclic, generic_riemann_type, interior_s, make_lw_jet


def report(name, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'}  {name}  {detail}")
    assert ok, f"{name}: {detail}"


def grid_worst(surface, fn, nu=50, nv=50):
    us, vs = interior_grid(surface, nu, nv)
    worst = 0.0
    for u in us:
        for v in vs:
            worst = max(worst, fn(evaluate_jet(surface, u, v)))
    return worst


def test_criterion_1_curvature_engine():
    errs = []
    sphere = gen_fixture("sphere", radius=2.0)
    errs.append(grid_worst(sphere, lambda j: max(
        abs(curvature(j).K - 0.25), abs(abs(curvature(j).H) - 0.5))))
    cylinder = gen_fixture("cylinder", radius=1.0)
    errs.append(grid_worst(cylinder, lambda j: abs(curvature(j).K)))
    torus = gen_fixture("torus", radius_major=2.0, radius_minor=1.0)

    def torus_err(jet):
        # oracle: kappa = 1 (meridian) and cos(u)/(2 + cos(u)) in magnitude
        u = math.atan2(jet.p[2], math.hypot(jet.p[0], jet.p[1]) - 2.0)
        c = curvature(jet)
        mags = sorted([abs(c.kappa1), abs(c.kappa2)])
        oracle = sorted([1.0, abs(math.cos(u) / (2.0 + math.cos(u)))])
        return max(abs(a - b) for a, b in zip(mags, oracle))

    errs.append(grid_worst(torus, torus_err))
    catenoid = gen_fixture("catenoid", radius=1.0)
    h_worst = grid_worst(catenoid, lambda j: abs(curvature(j).H))

    fd_rel = 0.0
    for surf in (sphere, torus, catenoid):
        twin = finite_difference_twin(surf)
        us, vs = interior_grid(surf, 10, 10)
        for u in us[::3]:
            for v in vs[::3]:
                ca = curvature(evaluate_jet(surf, u, v))
                cf = curvature(evaluate_jet(twin, u, v))
                scale = max(abs(ca.kappa1), abs(ca.kappa2), 1.0)
                fd_rel = max(fd_rel, abs(cf.H - ca.H) / scale,
                             abs(cf.K - ca.K) / scale)
    ok = max(errs) < 1e-10 and h_worst < 1e-8 and fd_rel < 1e-5
    report("criterion 1: curvature engine", ok,
           f"fixture err {max(errs):.2e}, catenoid |H| {h_worst:.2e}, "
           f"FD vs analytic {fd_rel:.2e}")


def test_criterion_2_polynomial_residual(rng):
    worst = 0.0
    for _ in range(1000):
        m = 0.0
        while abs(m) < 1e-3:
            m = rng.uniform(-3.0, 3.0)
        n = rng.uniform(-2.0, 2.0)
        jet = make_lw_jet(rng, m, n)
        rel = LWRelation(m, n)
        c = curvature(jet)
        worst = max(worst, abs(lw_residual_poly(c, rel)) / lw_residual_poly_scale(c, rel))
    report("criterion 2: exact-relation jets annihilate the polynomial residual",
           worst < 1e-9, f"worst relative residual {worst:.2e}")


def test_criterion_3_harmonic_exactness(rng):
    worst = 0.0
    for _ in range(20):
        A = rng.normal(size=13)
        B = rng.normal(size=13)
        B[0] = 0.0
        js = np.arange(13)
        vs = _sample_angles(64)
        s = _spectrum(A @ np.cos(np.outer(js, vs)) + B @ np.sin(np.outer(js, vs)), 12)
        worst = max(worst, np.abs(s.A - A).max(), np.abs(s.B - B).max())

    cyc = build_cyclic(generic_cyclic())
    tail6 = 0.0
    for u in (0.5, 1.0, 1.5):
        s = circle_spectrum(cyc, LWRelation(2.0, 0.0), u, 20)
        tail = max(np.abs(s.A[7:]).max(), np.abs(s.B[7:]).max())
        tail6 = max(tail6, tail / max(s.scale(), 1e-300))
    rt = build_riemann_type(generic_riemann_type())
    tail12 = 0.0
    for u in (-0.5, 0.3):
        s = circle_spectrum(rt, LWRelation(0.5, 0.7), u, 24)
        tail = max(np.abs(s.A[13:]).max(), np.abs(s.B[13:]).max())
        tail12 = max(tail12, tail / max(s.scale(), 1e-300))
    ok = worst < 1e-12 and tail6 < 1e-9 and tail12 < 1e-9
    report("criterion 3: harmonic extraction exactness and degree bounds", ok,
           f"trig poly err {worst:.2e}, degree-6 tail {tail6:.2e}, "
           f"degree-12 tail {tail12:.2e}")


def test_criterion_4_coefficient_identities(rng):
    from wlab.harmonics import closed_form_A3_B3, closed_form_A6_B6

    data = generic_cyclic()
    cyc = build_cyclic(data)
    rel = LWRelation(2.0, 0.0)
    ratios6 = []
    for u in np.linspace(0.3, 1.7, 5):
        s = circle_spectrum(cyc, rel, u, 12)
        A6, B6 = closed_form_A6_B6(rel.m, data.kappa(u), data.r(u),
                                   data.beta(u), data.gamma(u))
        ratios6.append(s.A[6] / A6 if abs(A6) >= abs(B6) else s.B[6] / B6)
    dev6 = np.abs(np.array(ratios6) / ratios6[0] - 1.0).max()

    rt_data = generic_riemann_type()
    rt = build_riemann_type(rt_data)
    rel3 = LWRelation(0.5, 0.0)
    ratios3 = []
    for u in np.linspace(-0.8, 0.8, 5):
        s = circle_spectrum(rt, rel3, u, 12)
        A3, B3 = closed_form_A3_B3(rel3.m, rt_data.r(u),
                                   rt_data.a.d1(u), rt_data.b.d1(u),
                                   rt_data.a.d2(u), rt_data.b.d2(u))
        ratios3.append(s.A[3] / A3 if abs(A3) >= abs(B3) else s.B[3] / B3)
    dev3 = np.abs(np.array(ratios3) / ratios3[0] - 1.0).max()

    # arc-length substitution: Re((a' + i b')^12) = speed^12 cos(12 phi)
    cheb = 0.0
    for _ in range(100):
        speed = rng.uniform(0.2, 2.0)
        phi = rng.uniform(0, 2 * math.pi)
        val = 2048.0 * closed_form_A12_B12(1.0, 1.0, speed * math.cos(phi),
                                           speed * math.sin(phi))[0]
        cheb = max(cheb, abs(val - speed ** 12 * math.cos(12 * phi)) / speed ** 12)

    ok = dev6 < 1e-7 and dev3 < 1e-7 and cheb < 1e-9
    report("criterion 4: closed-form coefficients match extracted harmonics",
           ok, f"family-constant drift deg6 {dev6:.2e}, deg3 {dev3:.2e}, "
               f"multiple-angle identity {cheb:.2e}")


def test_criterion_5_riemann_examples():
    data = gen_riemann_example(1.0, 0.0, 1.0, 0.0, (-1.0, 1.0))
    surf = build_riemann_type(data)
    worst_H = grid_worst(surf, lambda j: abs(curvature(j).H), 40, 40)

    cat = gen_riemann_example(0.0, 0.0, 1.0, 0.0, (-1.0, 1.0))
    cosh_err = max(abs(cat.r(u) - math.cosh(u))
                   for u in np.linspace(-1.0, 1.0, 41))
    ok = worst_H < 1e-6 and cosh_err < 1e-8
    report("criterion 5: generated minimal examples", ok,
           f"max |H| {worst_H:.2e}, cosh deviation {cosh_err:.2e}")


def test_criterion_6_rotational_generator():
    worst_res = worst_fit = 0.0
    for m, n in ((-1.0, 1.0), (2.0, -1.0), (0.5, 0.3)):
        profile, surf = gen_rotational_lw(LWRelation(m, n), 1.0, 0.3, (0.0, 1.0))
        ss = interior_s(profile)
        rho, _, theta = profile.dense(ss)[:3]
        km, kp = profile.kappa_meridian(ss), np.sin(theta) / rho
        worst_res = max(worst_res, np.abs(km - (m * kp + n)).max())
        fit_given, fit_swapped = fit_lw(CurvatureSampleSet(km, kp))
        best = min((f for f in (fit_given, fit_swapped) if f is not None),
                   key=lambda f: f.rms)
        if abs(best.m - m) > abs(1.0 / best.m - m):
            best_m, best_n = 1.0 / best.m, -best.n / best.m
        else:
            best_m, best_n = best.m, best.n
        worst_fit = max(worst_fit, abs(best_m - m), abs(best_n - n))
    ok = worst_res < 1e-6 and worst_fit < 1e-6
    report("criterion 6: rotational generator and fit round trip", ok,
           f"relation residual {worst_res:.2e}, fit error {worst_fit:.2e}")


def test_criterion_7_classification():
    verdicts = {}
    verdicts["sphere"] = classify(gen_fixture("sphere", radius=1.0)).verdict
    verdicts["catenoid"] = classify(gen_fixture("catenoid", radius=1.0)).verdict
    verdicts["cylinder"] = classify(gen_fixture("cylinder", radius=1.0)).verdict
    data = gen_riemann_example(1.0, 0.0, 1.0, 0.0, (-1.0, 1.0))
    verdicts["riemann"] = classify(build_riemann_type(data)).verdict
    generic = RiemannTypeSurface(SmoothFunction(np.sin, np.cos,
                                                lambda u: -np.sin(u)),
                                 0.0, 1.0, (-1.0, 1.0))
    rep = classify(build_riemann_type(generic))
    verdicts["generic"] = rep.verdict
    expected = {"sphere": VERDICT_UMBILIC, "catenoid": VERDICT_ROTATIONAL,
                "cylinder": VERDICT_ROTATIONAL, "riemann": VERDICT_RIEMANN,
                "generic": VERDICT_NOT_LW}
    wrong = {k: v for k, v in verdicts.items() if v != expected[k]}
    ok = not wrong and rep.lw_rms > 1e-3
    report("criterion 7: five-fixture classification", ok,
           f"mismatches {wrong or 'none'}, generic rms {rep.lw_rms:.2e}")


def test_criterion_8_cli_io(tmp_path):
    import json
    from wlab.cli import main

    cfg_path = tmp_path / "scene.json"
    cfg_path.write_text(json.dumps(
        {"kind": "fixture", "params": {"shape": "torus", "radius_major": 2.0,
                                       "radius_minor": 1.0},
         "grid": [16, 24], "name": "donut"}))
    cfg = load_config(str(cfg_path))
    text = canonical_dumps(cfg.to_dict())
    canon = tmp_path / "canon.json"
    canon.write_text(text)
    round_trip = canonical_dumps(load_config(str(canon)).to_dict()) == text

    out = tmp_path / "out"
    code = main(["generate", "--config", str(cfg_path), "--out", str(out)])
    lines = (out / "donut.obj").read_text().splitlines()
    nverts = sum(l.startswith("v ") for l in lines)
    faces = [l for l in lines if l.startswith("f ")]
    idx_ok = all(1 <= int(part.split("/")[0]) <= nverts
                 for f in faces for part in f.split()[1:])
    ok = (round_trip and code == 0 and nverts == 16 * 24
          and len(faces) == 2 * 15 * 23 and idx_ok)
    report("criterion 8: config round trip and OBJ validity", ok,
           f"round_trip {round_trip}, vertices {nverts}, faces {len(faces)}")


if __name__ == "__main__":
    pytest.main([__file__, "-v", "-s"])
