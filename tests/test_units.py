import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import constants as const

from tunneltime.units import (
    ANGSTROM,
    EV,
    DimensionlessParams,
    PeakSearchConfig,
    PhysicalParams,
    QuadratureSettings,
    denormalize,
    electron_barrier,
    normalize,
    unit_scales,
)


def test_normalize_reference_row():
    # V0 = E_M = 1 eV, electron, L = 100 * hbar/sqrt(2 m V0) -> W = 1, lam = 100
    scale = const.hbar / math.sqrt(2 * const.m_e * EV)
    phys = PhysicalParams(const.m_e, const.hbar, EV, EV, 100 * scale)
    dp = normalize(phys)
    assert dp.W == pytest.approx(1.0, rel=1e-12)
    assert dp.lam == pytest.approx(100.0, rel=1e-12)
    assert dp.a == 0.0


def test_normalize_zero_width():
    phys = PhysicalParams(const.m_e, const.hbar, EV, EV, 0.0)
    dp = normalize(phys)
    assert dp.W == pytest.approx(1.0, rel=1e-12)
    assert dp.lam == 0.0


def test_evanescent_ratio_at_double_height():
    phys = PhysicalParams(const.m_e, const.hbar, 2 * EV, EV, 5 * ANGSTROM)
    dp = normalize(phys)
    assert dp.a == pytest.approx(1.0, rel=1e-12)          # a = sqrt(W^2 - 1), W = sqrt(2)
    assert dp.W == pytest.approx(math.sqrt(2.0), rel=1e-12)


@pytest.mark.parametrize("excess", [1e-9, 1e-8, 2e-8])
def test_evanescent_ratio_keeps_its_digits_near_the_matched_height(excess):
    # W^2 - 1 cancels near W = 1 (2.5e-9 relative off at 1 + 1e-8);
    # (W - 1)(W + 1) does not
    w = 1.0 + excess
    with mp.workdps(40):
        exact = float(mp.sqrt(mp.mpf(w) ** 2 - 1))
    assert abs(DimensionlessParams(W=w, lam=1.0).a - exact) <= 4e-16 * exact


def test_normalize_rejects_above_barrier_and_bad_inputs():
    with pytest.raises(ValueError):
        PhysicalParams(const.m_e, const.hbar, EV, 1.5 * EV, ANGSTROM)
    with pytest.raises(ValueError):
        PhysicalParams(-const.m_e, const.hbar, EV, EV, ANGSTROM)
    with pytest.raises(ValueError):
        PhysicalParams(const.m_e, 0.0, EV, EV, ANGSTROM)
    with pytest.raises(ValueError):
        PhysicalParams(const.m_e, const.hbar, EV, EV, -1.0)
    with pytest.raises(ValueError):
        DimensionlessParams(W=0.8, lam=10.0)
    with pytest.raises(ValueError):
        DimensionlessParams(W=1.0, lam=-1.0)
    for W, lam in ((math.inf, 10.0), (math.nan, 10.0), (1.0, math.inf), (1.0, math.nan)):
        with pytest.raises(ValueError):
            DimensionlessParams(W=W, lam=lam)


@settings(max_examples=1000, deadline=None)
@given(
    v0_ev=st.floats(1e-3, 1e3),
    ratio=st.floats(1.0, 25.0),
    width_ang=st.floats(0.0, 1e4),
)
def test_round_trip_recovers_inputs(v0_ev, ratio, width_ang):
    phys = PhysicalParams(const.m_e, const.hbar, v0_ev * EV, v0_ev * EV / ratio, width_ang * ANGSTROM)
    dp = normalize(phys)
    back = denormalize(dp, phys.mass, phys.hbar, phys.barrier_height)
    assert back.energy_max == pytest.approx(phys.energy_max, rel=1e-12)
    assert back.barrier_width == pytest.approx(phys.barrier_width, rel=1e-12, abs=1e-300)
    dp2 = normalize(back)
    assert dp2.W == pytest.approx(dp.W, rel=1e-12)
    assert dp2.lam == pytest.approx(dp.lam, rel=1e-12, abs=1e-300)


def test_w_grows_with_barrier_ratio():
    ws = [normalize(PhysicalParams(const.m_e, const.hbar, r * EV, EV, 0.0)).W for r in (1.0, 1.5, 2.0, 4.0)]
    assert ws[0] == pytest.approx(1.0)
    assert ws == sorted(ws)
    a_vals = [DimensionlessParams(W=w, lam=1.0).a for w in ws]
    assert a_vals == sorted(a_vals)


def test_unit_scales_electron_ev():
    phys = electron_barrier(1.0, 1.0, 0.0)
    scales = unit_scales(phys)
    # table-unit magnitudes for a 1 eV barrier
    assert scales.length / ANGSTROM == pytest.approx(1.9519, rel=1e-3)
    assert scales.length / ANGSTROM == pytest.approx(2.0, rel=0.03)
    assert scales.time == pytest.approx(0.66e-15, rel=0.005)
    assert scales.velocity / const.c == pytest.approx(1e-3, rel=0.02)


def test_velocity_times_time_equals_length():
    # the identity behind v_transit = lam / (tau W)
    phys = electron_barrier(2.7, 1.3, 40.0)
    scales = unit_scales(phys)
    assert scales.velocity * scales.time == pytest.approx(scales.length, rel=1e-14)


def test_transit_velocity_unit_consistency_off_symmetric_point():
    # physical L/t must equal lam/(tau W) expressed in sqrt(V0/2m) units at W != 1
    phys = electron_barrier(2.0, 1.0, 30.0)
    dp = normalize(phys)
    scales = unit_scales(phys)
    tau = 3.7  # arbitrary dimensionless time
    t_phys = tau * phys.hbar / phys.energy_max
    v_expected = (phys.barrier_width / t_phys) / scales.velocity
    assert dp.lam / (tau * dp.W) == pytest.approx(v_expected, rel=1e-12)


@pytest.mark.parametrize(
    ("settings_type", "key"),
    [(QuadratureSettings, "nodes_per_panel"), (QuadratureSettings, "max_panels"),
     (PeakSearchConfig, "coarse_points")],
)
def test_size_settings_must_be_integers(settings_type, key):
    # 32.5 nodes per panel would run the 33-node rule; a numpy integer is an integer
    with pytest.raises(ValueError, match=rf"^{key} must be in \[.*\], got 32\.5$"):
        settings_type(**{key: 32.5})
    assert getattr(settings_type(**{key: np.int64(32)}), key) == 32
