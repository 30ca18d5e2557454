"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s`.  The heavy sweeps (full
width table, full phase-time sweep at lam = 100) are computed once per
module and shared.
"""

import math
import time

import mpmath as mp
import numpy as np
import pytest

from tunneltime.experiments import build_config, run_experiment
from tunneltime.peakfind import peak_arrival
from tunneltime.phasetime import (
    amplitude_opaque,
    model_density,
    model_density_argmax,
    moments_closed_form,
    moments_quadrature,
    phase_time_moments,
    transit_velocity,
)
from tunneltime.transmission import _kernel, modulus_phase
from tunneltime.units import DimensionlessParams, QuadratureSettings, Spectrum
from tunneltime.wavepacket import transmitted_integral

# Reference data: width grid with peak times [hbar/V0], transit velocities
# [sqrt(V0/2m)] and analytic/numeric velocity ratios [%].
TABLE1 = {
    50.0: (10.20, 4.9013, 91.81),
    100.0: (21.41, 4.6715, 96.33),
    150.0: (32.37, 4.6338, 97.11),
    200.0: (43.28, 4.6209, 97.38),
    250.0: (54.17, 4.6150, 97.51),
    300.0: (65.05, 4.6118, 97.58),
    350.0: (75.92, 4.6099, 97.62),
    400.0: (86.79, 4.6086, 97.64),
    450.0: (97.66, 4.6078, 97.66),
    500.0: (108.53, 4.6072, 97.67),
}


def check(criterion: str, ok: bool, detail: str = "") -> None:
    line = f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def table1_run():
    t0 = time.monotonic()
    rows, _ = run_experiment(build_config("table1"))
    return rows, time.monotonic() - t0


@pytest.fixture(scope="module")
def fig2_rows():
    return run_experiment(build_config("fig2"))[0]


def test_criterion_1_table1_reproduction(table1_run):
    rows, elapsed = table1_run
    worst_tau = worst_v = 0.0
    for row in rows:
        tau_ref, v_ref, _ = TABLE1[row.lam]
        worst_tau = max(worst_tau, abs(row.tau_num - tau_ref) / tau_ref)
        worst_v = max(worst_v, abs(row.v_transit - v_ref) / v_ref)
    check(
        "1. width-table peak times and velocities within 1%",
        worst_tau <= 0.01 and worst_v <= 0.01 and elapsed <= 300.0,
        f"max |dtau|/tau = {worst_tau:.2e}, max |dv|/v = {worst_v:.2e}, runtime {elapsed:.1f}s",
    )


def test_criterion_2_ratio_column(table1_run):
    rows, _ = table1_run
    worst = ""
    ok = True
    for row in rows:
        ratio_ref = TABLE1[row.lam][2]
        tol = 1.0 if row.lam == 50.0 else 0.5
        gap = abs(row.ratio_ana_num - ratio_ref)
        if gap > tol:
            ok = False
            worst = f"lam={row.lam}: {row.ratio_ana_num:.2f} vs {ratio_ref} (gap {gap:.2f} pt)"
    check("2. analytic/numeric velocity ratio column", ok, worst or "all within tolerance")


def test_criterion_3_edge_limit_identity():
    ok = True
    detail = []
    for lam in (50.0, 100.0, 500.0):
        params = DimensionlessParams(W=1.0, lam=lam)
        tau = phase_time_moments(moments_closed_form(params))
        expected = (2.0 / 9.0) * params.W**2 * lam
        if abs(tau - expected) / expected > 1e-12:
            ok = False
        v = transit_velocity(tau, params)
        if abs(v - 4.5) > 1e-12 * 4.5:
            ok = False
        detail.append(f"lam={lam:g}: tau={tau:.12g}, v={v:.12g}")
    check("3. tau = (2/9) W^2 lam and v = 4.5 sqrt(V0/2m) at a = 0", ok, "; ".join(detail))


def test_criterion_4_stationary_phase_recovery():
    taus = []
    for lam in (100.0, 200.0, 400.0, 800.0):
        params = DimensionlessParams(W=math.sqrt(2.0), lam=lam)
        taus.append(phase_time_moments(moments_closed_form(params)) * params.a)
    in_range = 0.9 <= taus[0] <= 1.1
    gaps = [abs(t - 1.0) for t in taus]
    monotone = all(b < a for a, b in zip(gaps, gaps[1:]))
    check(
        "4. tau*a -> 1 recovery at a = 1",
        in_range and monotone,
        "tau*a = " + ", ".join(f"{t:.6f}" for t in taus),
    )


def test_criterion_5_opaque_amplitude_accuracy():
    kappas = np.linspace(0.01, 0.99, 50)
    worst = 0.0
    for lam in np.linspace(5.0, 500.0, 20):
        for W in (1.0, 1.2, math.sqrt(2.0), 2.0):
            params = DimensionlessParams(W=W, lam=float(lam))
            qL = lam * np.sqrt(W * W - kappas**2)
            mask = qL >= 3.0
            if not mask.any():
                continue
            exact, _ = modulus_phase(kappas[mask], params)
            approx = amplitude_opaque(kappas[mask], params)
            nz = exact > 0.0
            if nz.any():
                worst = max(worst, float((np.abs(exact[nz] - approx[nz]) / exact[nz]).max()))
    check("5. opaque modulus within 1% for qL >= 3", worst <= 0.01, f"worst rel err {worst:.2e}")


def test_criterion_6a_spm_undefined_at_matched_energies(fig2_rows):
    first = fig2_rows[0]
    ok = first.w == 1.0 and first.tau_spm is None and "diverges" in first.note
    check("6a. tau_spm undefined at sqrt(V0/E_M) = 1", ok, first.note)


def test_criterion_6b_moment_time_tracks_numeric(fig2_rows):
    worst = 0.0
    for row in fig2_rows:
        worst = max(worst, abs(row.tau_new - row.tau_num) / row.tau_num)
    check(
        "6b. |tau_new - tau_num|/tau_num <= 10% across sqrt(V0/E_M) in [1, 2]",
        worst <= 0.10,
        f"worst {worst:.3f}",
    )


def test_criterion_6c_spm_error_monotone_on_tail(fig2_rows):
    # As stated this fails: the stationary-phase error crosses zero near
    # W ~ 1.41 (1/a equals the true peak time there) and grows again toward
    # W = 2, so no monotone decrease exists on [1.2, 2].  Kept faithful to
    # the stated criterion; see the error table in the failure detail.
    tail = [r for r in fig2_rows if r.w >= 1.2 - 1e-12]
    errs = [abs(r.tau_spm - r.tau_num) / r.tau_num for r in tail]
    monotone = all(b < a for a, b in zip(errs, errs[1:]))
    detail = ", ".join(f"W={r.w:.2f}: {e:.4f}" for r, e in zip(tail, errs))
    check("6c. |tau_spm - tau_num| rel err decreasing on [1.2, 2]", monotone, detail)


def test_criterion_7_property_suite(table1_run):
    rows, _ = table1_run
    spec = Spectrum()

    # |T| <= 1 and strictly decreasing with barrier width
    kap = np.linspace(0.05, 1.0, 40)
    mods = [modulus_phase(kap, DimensionlessParams(W=1.2, lam=lam))[0] for lam in (0.0, 1.0, 5.0, 25.0)]
    bounded = all(np.all((m >= 0) & (m <= 1)) for m in mods)
    monotone = all(np.all(m2 < m1) for m1, m2 in zip(mods, mods[1:]))
    check("7.1 modulus bounded and monotone in width", bounded and monotone)

    # removable singularity: the kernel vs high precision at u = 1e-8 and 2e-4
    mp.mp.dps = 40
    b = 7.3
    mod_series = _kernel(np.array([1e-8]), np.array([b]))[0][0]
    mod_direct = _kernel(np.array([2e-4]), np.array([b]))[0][0]
    ref_small = float(1 / mp.sqrt(mp.cosh(mp.mpf(1e-8)) ** 2 + (b * mp.sinh(mp.mpf(1e-8)) / mp.mpf(1e-8)) ** 2))
    ref_mid = float(1 / mp.sqrt(mp.cosh(mp.mpf(2e-4)) ** 2 + (b * mp.sinh(mp.mpf(2e-4)) / mp.mpf(2e-4)) ** 2))
    cont = abs(mod_series - ref_small) / ref_small < 1e-10 and abs(mod_direct - ref_mid) / ref_mid < 1e-10
    check("7.2 removable-singularity continuity at q -> 0", cont)

    # node-doubling stability at every width-table peak
    worst = 0.0
    for row in rows:
        params = DimensionlessParams(W=1.0, lam=row.lam)
        d32, d64 = (
            abs(transmitted_integral(spec, params, row.tau_num, settings)(row.tau_num)) ** 2
            for settings in (QuadratureSettings(nodes_per_panel=32),
                             QuadratureSettings(nodes_per_panel=64))
        )
        worst = max(worst, abs(d64 - d32) / d64)
    check("7.3 node-doubling moves peak density < 0.1%", worst < 1e-3, f"worst {worst:.2e}")

    # peak-time invariance under spectrum scaling
    params = DimensionlessParams(W=1.0, lam=60.0)
    base = peak_arrival(spec, params)
    scaled = peak_arrival(Spectrum(norm=3.0), params)
    check("7.4 peak time invariant under g -> 3g", scaled.tau_peak == base.tau_peak)

    # closed-form argmax of the density model equals tau_new to 1e-9 in the
    # a = 0 regime where the closed form is the exact stationary point (for
    # a > 0 it drops an O(aC) term; gap quantified in the detail)
    ok = True
    for lam in (50.0, 100.0, 300.0):
        params = DimensionlessParams(W=1.0, lam=lam)
        table = moments_closed_form(params)
        if abs(model_density_argmax(table) - phase_time_moments(table)) > 1e-9 * lam:
            ok = False
    params_a1 = DimensionlessParams(W=math.sqrt(2.0), lam=100.0)
    table_a1 = moments_closed_form(params_a1)
    gap_a1 = abs(
        model_density_argmax(table_a1) - phase_time_moments(table_a1)
    ) / phase_time_moments(table_a1)
    check(
        "7.5 model-density argmax equals tau_new (a = 0) to 1e-9",
        ok,
        f"dropped-term gap at a=1, lam=100: {gap_a1:.1e}",
    )

    # scan oracle: the quadratic's argmax really is its maximum
    params = DimensionlessParams(W=1.0, lam=100.0)
    table = moments_closed_form(params)
    t_hat = model_density_argmax(table)
    grid = np.linspace(0.5 * t_hat, 1.5 * t_hat, 2001)
    vals = [model_density(table, t) for t in grid]
    check(
        "7.6 dense scan confirms interior maximum of S(tau)",
        abs(grid[int(np.argmax(vals))] - t_hat) <= grid[1] - grid[0],
    )

    # moment routes agree within the truncated tail, whose prefactor grows
    # like (lam R)^n (floored by the 1e-10 quadrature tolerance where the
    # tail is beyond double precision)
    ok = True
    worst = 0.0
    for W, lam in [(1.0, 10.0), (1.0, 100.0), (math.sqrt(2.0), 100.0), (1.0, 500.0)]:
        params = DimensionlessParams(W=W, lam=lam)
        lam_r = lam * (W - params.a)
        closed = moments_closed_form(params)
        exact = moments_quadrature(params)
        for n, (s_c, s_e) in enumerate(zip(closed.values, exact.values)):
            bound = max(100.0 * math.exp(-lam_r) * max(1.0, lam_r) ** n, 2e-9)
            rel = abs(s_c - s_e) / s_c
            worst = max(worst, rel / bound)
            ok = ok and rel <= bound
    check("7.7 closed-form vs quadrature moments within tail bound", ok, f"worst rel/bound {worst:.2f}")


def test_unit_identities_note():
    # the physical-unit claims are conversion identities, not experiments
    from scipy import constants as const

    from tunneltime.units import electron_barrier, unit_scales

    scales = unit_scales(electron_barrier(1.0, 1.0, 0.0))
    ok = (
        abs(scales.length / 1e-10 - 2.0) < 0.06
        and abs(scales.time / 0.66e-15 - 1.0) < 0.01
        and abs(scales.velocity / const.c / 1e-3 - 1.0) < 0.02
    )
    check(
        "note: table units are ~2 angstrom, ~0.66 fs, ~1e-3 c",
        ok,
        f"{scales.length / 1e-10:.4f} A, {scales.time * 1e15:.4f} fs, {scales.velocity / const.c:.3e} c",
    )
