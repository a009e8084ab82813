"""Acceptance suite: every release criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail
line per criterion.
"""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid

from invlab import (Axis, GROUND_BLOCH, ErrorSetting,
                    InvariantAngles, TimeGrid, constant, evolve_bloch, final_p2_pure,
                    make_flat_pi, make_invariant_engineered, make_optimal_noise,
                    make_optimal_systematic, make_shaped_pi, make_sinusoidal,
                    make_transitionless, monte_carlo_p2, optimal_noise_angles,
                    optimal_systematic_angles, qn_derivative, qn_finite_difference,
                    qn_formula, qs_derivative, qs_formula, robustness_curve,
                    sweep_qn_transitionless)
from invlab.sweeps import FIGURES
from conftest import EX_DELTA0, EX_OMEGA0, located_min, src_env
from pi_pulse_reference import qn_pi_analytic
from stationarity_reference import verify_stationarity

PI2_4 = math.pi**2 / 4.0


def report(num, desc, ok):
    print(f"[acceptance] criterion {num:>2}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def test_c01_flat_pi_sensitivities(flat_field):
    qn_f = qn_formula(flat_field).q_n
    qn_a = qn_pi_analytic(flat_field).q_n
    qs_f = qs_formula(flat_field).q_s
    ok = (abs(qn_f - PI2_4) < 1e-6 and abs(qn_a - PI2_4) < 1e-6
          and abs(qs_f - PI2_4) < 1e-6)
    report(1, f"flat pi: qn_formula={qn_f:.8f}, qn_pi_analytic={qn_a:.8f}, "
              f"qs_formula={qs_f:.8f}, target pi^2/4={PI2_4:.8f} (1e-6)", ok)


def test_c02_optimal_noise_values(grid, optimal_noise_field):
    qn_f = qn_formula(optimal_noise_field).q_n
    qn_fd = qn_finite_difference(optimal_noise_field).q_n
    approx = InvariantAngles(
        lambda t: np.pi * np.asarray(t, dtype=float)
        - np.sin(2.0 * np.pi * np.asarray(t, dtype=float)) / 12.0,
        constant(np.pi / 4.0), constant(0.0),
        lambda t: np.pi - (np.pi / 6.0) * np.cos(2.0 * np.pi * np.asarray(t, dtype=float)),
        constant(0.0), constant(0.0))
    qn_approx = qn_formula(make_invariant_engineered(approx, grid)).q_n
    ok = (abs(qn_f - 1.82424) < 1e-3 and abs(qn_fd - 1.82424) / 1.82424 < 0.01
          and abs(qn_approx - 1.82538) < 1e-3)
    report(2, f"optimal noise: formula={qn_f:.6f} (1e-3), fd={qn_fd:.6f} (1%), "
              f"approximate-theta={qn_approx:.6f} vs 1.82538 (1e-3)", ok)


def test_c03_transitionless_example(grid, transitionless_example):
    qn = qn_formula(transitionless_example).q_n
    bare_p2 = evolve_bloch(make_sinusoidal(EX_OMEGA0, EX_DELTA0, grid),
                           GROUND_BLOCH).final_p2()
    ok = abs(qn - 3.21) / 3.21 < 0.02 and bare_p2 < 0.999
    report(3, f"transitionless example: q_N={qn:.5f} vs 3.21 (2%), "
              f"bare sinusoidal P2(T)={bare_p2:.6f} < 0.999", ok)


def test_c04_fig2_sweep_minimum(grid):
    res = sweep_qn_transitionless(*FIGURES[2][0], grid)
    (w, d), vmin = located_min(res)
    cell = res.axes[0].values[1] - res.axes[0].values[0] + 1e-12
    at_half = float(res.values[1, 1])  # the (0.5, 0.5) cell of the default axes
    ok = (abs(w - 0.5) <= cell and abs(d - 0.5) <= cell
          and abs(vmin - 2.475) / 2.475 < 0.02
          and abs(at_half - 2.475) / 2.475 < 0.02)
    report(4, f"fig2 sweep: min at ({w:g},{d:g}) value {vmin:.5f}, cell(0.5,0.5)="
              f"{at_half:.5f} vs 2.475 (2%), within one grid cell of (0.5,0.5)", ok)


def test_c05_zero_systematic_family(grid):
    qs_inv = [qs_formula(make_invariant_engineered(optimal_systematic_angles(n), grid)).q_s
              for n in (1, 2, 3)]
    field = make_optimal_systematic(1, grid)
    qs_field = qs_formula(field).q_s
    curve = robustness_curve(field, "beta", Axis("beta", 0.0, 0.05, 2))
    p2_beta = float(curve.values[1])
    ok = (max(qs_inv) <= 1e-10 and qs_field <= 1e-8 and p2_beta >= 1.0 - 1e-3)
    report(5, f"zero-systematic family: angle-route q_S n=1,2,3 max={max(qs_inv):.2e} "
              f"(<=1e-10), qs_formula={qs_field:.2e} (<=1e-8), "
              f"P2(beta=0.05)={p2_beta:.6f} (>=1-1e-3)", ok)


def test_c06_pi_pulse_qs_universality(grid, flat_field):
    envelopes = [lambda t: np.sin(np.pi * np.asarray(t, dtype=float)),
                 lambda t: np.sin(np.pi * np.asarray(t, dtype=float)) ** 2,
                 lambda t: np.asarray(t, dtype=float) * (1.0 - np.asarray(t, dtype=float))]
    qs_vals = [qs_formula(flat_field).q_s]
    qs_vals += [qs_formula(make_shaped_pi(env, 0.3, grid)).q_s for env in envelopes]
    betas = (-1.0, -0.5, 0.3, 1.0)
    dev = max(abs(p2 - (0.5 - 0.5 * math.cos((1.0 + b) * math.pi)))
              for b, p2 in zip(betas, final_p2_pure(flat_field, betas)))
    ok = all(abs(q - PI2_4) < 1e-6 for q in qs_vals) and dev < 1e-8
    report(6, f"pi-pulse q_S universality: 4 envelopes within 1e-6 of pi^2/4 "
              f"(max dev {max(abs(q - PI2_4) for q in qs_vals):.2e}), closed-form "
              f"P2(beta) max dev {dev:.2e} (<1e-8)", ok)


def test_c07_noise_channel_analytics(grid, flat_field):
    ts = grid.times
    phase = cumulative_trapezoid(flat_field.omega_r, ts, initial=0.0)
    power = cumulative_trapezoid(flat_field.omega_r**2, ts, initial=0.0)
    dev = 0.0
    for lam in (0.1, 0.5, 1.0):
        traj = evolve_bloch(flat_field, GROUND_BLOCH, ErrorSetting(lambda2=lam * lam))
        damp = np.exp(-lam * lam * power / 2.0)
        dev = max(dev,
                  float(np.max(np.abs(traj.states[:, 0]))),
                  float(np.max(np.abs(traj.states[:, 1] + damp * np.sin(phase)))),
                  float(np.max(np.abs(traj.states[:, 2] - damp * np.cos(phase)))))
    ok = dev < 1e-8
    report(7, f"noise-channel analytics: max trajectory deviation {dev:.2e} "
              f"from the closed form at lambda=0.1,0.5,1.0 (<1e-8)", ok)


def test_c08_sse_master_equivalence(grid, flat_field, optimal_noise_field):
    lam2 = 0.09
    dt = 1.0 / 4000.0
    lines = []
    ok = True
    for field in (flat_field, optimal_noise_field):
        mc = monte_carlo_p2(field, lam2, 10000, dt, seed=42)
        master = evolve_bloch(field, GROUND_BLOCH, ErrorSetting(lambda2=lam2)).final_p2()
        ok = ok and abs(mc.p2_mean - master) < 3.0 * mc.p2_stderr and mc.p2_stderr < 0.005
        lines.append(f"{field.label}: |{mc.p2_mean:.5f}-{master:.5f}|="
                     f"{abs(mc.p2_mean - master):.5f} vs 3*stderr={3 * mc.p2_stderr:.5f}")
    report(8, "SSE vs master at lambda=0.3, dt=1/4000, n=1e4: " + "; ".join(lines), ok)


def test_c09_schwartz_bound_property(grid):
    rng = np.random.default_rng(99)
    count, worst_margin = 0, math.inf
    flat_ok = abs(qn_pi_analytic(make_flat_pi(0.0, grid)).q_n - PI2_4) < 1e-6
    all_bounded, nonflat_strict = True, True
    while count < 50:
        coeffs = rng.uniform(-1.0, 1.0, size=4)

        def env(t, c=coeffs):
            t = np.asarray(t, dtype=float)
            return (c[0] + sum(c[k] * np.sin(k * np.pi * t) for k in range(1, 4))) ** 2

        try:
            field = make_shaped_pi(env, 0.0, grid)
        except ValueError:
            continue  # degenerate draw with (numerically) zero area
        count += 1
        q = qn_pi_analytic(field).q_n
        margin = q - PI2_4
        worst_margin = min(worst_margin, margin)
        all_bounded = all_bounded and margin > -1e-9
        if np.max(np.abs(field.omega_r - np.pi)) > 1e-6:
            nonflat_strict = nonflat_strict and margin > 1e-6
    ok = flat_ok and all_bounded and nonflat_strict
    report(9, f"Schwartz bound: 50 random envelopes all >= pi^2/4 (worst margin "
              f"{worst_margin:.2e}); equality only for flat", ok)


def test_c10_variational_margin(grid):
    angles = optimal_noise_angles(7)
    rep = verify_stationarity(angles, 0.05, n_perturbations=20, seed=3, grid=grid)
    ok = rep.min_perturbed_qn >= 1.82424 - 1e-6
    report(10, f"variational margin: 20 perturbations (amplitude 0.05), min "
               f"q_N={rep.min_perturbed_qn:.6f} >= 1.82424 - 1e-6", ok)


def test_c11_dual_method_consistency(grid, flat_field, transitionless_example,
                                     optimal_noise_field):
    engineered = make_invariant_engineered(
        InvariantAngles(
            lambda t: np.pi * np.asarray(t, dtype=float),
            lambda t: 0.3 + 0.2 * np.sin(np.pi * np.asarray(t, dtype=float)),
            lambda t: 0.7 * (1.0 - np.cos(np.pi * np.asarray(t, dtype=float))),
            constant(np.pi),
            lambda t: 0.2 * np.pi * np.cos(np.pi * np.asarray(t, dtype=float)),
            lambda t: 0.7 * np.pi * np.sin(np.pi * np.asarray(t, dtype=float))),
        grid)
    fields = [flat_field,
              make_shaped_pi(lambda t: np.sin(np.pi * np.asarray(t, dtype=float)), 0.0, grid),
              transitionless_example,
              engineered,
              optimal_noise_field,
              make_optimal_systematic(1, grid)]
    ok = True
    worst = ""
    for f in fields:
        for key, formula, derivative in (("q_n", qn_formula, qn_derivative),
                                         ("q_s", qs_formula, qs_derivative)):
            rep_f, rep_d = formula(f), derivative(f)
            q_f, q_d = getattr(rep_f, key), getattr(rep_d, key)
            # the summed error estimates, and a floor measured in test_sensitivity
            tol = rep_f.error_estimate + rep_d.error_estimate + 1e-10 * max(1.0, abs(q_f))
            if not abs(q_f - q_d) <= tol:
                ok = False
                worst = f"{f.label} {key}"
    # the bare sweep is excluded by its stated precondition: it does not invert
    for route in (qn_formula, qn_derivative):
        with pytest.raises(RuntimeError):
            route(make_sinusoidal(EX_OMEGA0, EX_DELTA0, grid))
    report(11, "dual-method q_N/q_S agreement within the summed error estimates across all "
               "six inverting generators" + (f" (failed: {worst})" if worst else ""), ok)


def test_c12_cli_determinism(tmp_path):
    args = [sys.executable, "-m", "invlab.cli", "simulate", "--kind", "optimal_noise",
            "--sse", "--lambda2", "0.09", "--n-traj", "2000", "--dt", "0.001",
            "--seed", "7", "--grid-steps", "1001"]
    outs = []
    for name in ("a", "b", "c", "d"):
        path = tmp_path / f"{name}.json"
        proc = subprocess.run(args + ["--out", str(path)], capture_output=True, env=src_env())
        assert proc.returncode == 0, proc.stderr
        outs.append(path.read_bytes())
    # the ensemble must not depend on the CPUs the process may use; pin it to one
    path = tmp_path / "pinned.json"
    proc = subprocess.run(args + ["--out", str(path)], capture_output=True, env=src_env(),
                          preexec_fn=lambda: os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}))
    assert proc.returncode == 0, proc.stderr
    outs.append(path.read_bytes())
    sweep_outs = []
    for name in ("sw1", "sw2"):
        base = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "invlab.cli", "sweep", "--figure", "2",
             "--grid-steps", "401", "--axis1", "0.5,1.5,3", "--axis2", "0.5,1.5,3",
             "--out", str(base)], capture_output=True, env=src_env())
        assert proc.returncode == 0, proc.stderr
        sweep_outs.append((tmp_path / f"{name}.csv").read_bytes())
    ok = len(set(outs)) == 1 and sweep_outs[0] == sweep_outs[1]
    report(12, "CLI determinism: byte-identical ensemble and sweep outputs across "
               "repeated runs, and the ensemble on all allowed CPUs vs one", ok)


def test_figure_ordering_properties(grid, flat_field, optimal_noise_field):
    """Figures 1, 4, 7 acceptance: curvature orderings and dominance regions."""
    sys_opt = make_optimal_systematic(1, grid)
    lam_flat = robustness_curve(flat_field, "lambda", Axis("lambda", 0.0, 0.4, 3)).values
    lam_opt = robustness_curve(optimal_noise_field, "lambda", Axis("lambda", 0.0, 0.4, 3)).values
    fig1 = bool(np.all(lam_opt[1:] > lam_flat[1:]))
    beta_axis = Axis("beta", 0.0, 0.3, 4)
    b_sys = robustness_curve(sys_opt, "beta", beta_axis).values
    b_opt = robustness_curve(optimal_noise_field, "beta", beta_axis).values
    fig4 = bool(np.all(b_sys[1:] > b_opt[1:]))
    p = lambda f, lam, b: evolve_bloch(f, GROUND_BLOCH,
                                       ErrorSetting(beta=b, lambda2=lam * lam)).final_p2()
    fig7 = (p(optimal_noise_field, 0.5, 0.0) > p(sys_opt, 0.5, 0.0)
            and p(sys_opt, 0.0, 0.3) > p(optimal_noise_field, 0.0, 0.3))
    report("F", f"figure orderings: fig1 lambda-curvature {fig1}, fig4 beta-dominance "
                f"{fig4}, fig7 corner dominance {fig7}", fig1 and fig4 and fig7)
