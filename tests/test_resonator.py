import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diskspdc.material import DEFAULT_SELLMEIER, refractive_index
from diskspdc.resonator import (
    CalibrationError,
    DiskGeometry,
    ModeFamily,
    ResonatorMode,
    _phase_residual,
    anchor_family,
    brentq,
    calibrate_family,
    effective_index,
    fsr,
    fsr_ghz,
    group_index,
    resonance_comb,
)

GEO = DiskGeometry()

# 2 pi * 46.5 um in nm, frozen independently
L_NM = 292168.11678385077
# f/Q linewidths from c = 2.99792458e8 nm GHz
KAPPA_PUMP = 1.3341340326661901      # 774.86 nm, Q = 2.9e5
KAPPA_SIGNAL = 1.9310054492051631    # 1552.52 nm, Q = 1e5

TM = ModeFamily(family_id="tm", polarization="TM")
TE = ModeFamily(family_id="te", polarization="TE", azimuthal_contrast=0.4)


def test_circumference():
    assert GEO.circumference_um * 1e3 == pytest.approx(L_NM, rel=1e-14)


def test_resonance_identity_over_band():
    modes = resonance_comb(TM, GEO, (1540.0, 1560.0))
    assert len(modes) > 3
    for md in modes:
        n = effective_index(TM, md.wavelength_nm)
        assert n * L_NM / md.wavelength_nm == pytest.approx(md.m, rel=1e-9)


def test_comb_ordering_and_spacing():
    modes = resonance_comb(TM, GEO, (1545.0, 1560.0))
    wl = np.array([md.wavelength_nm for md in modes])
    ms = np.array([md.m for md in modes])
    assert np.all(np.diff(wl) > 0)
    assert np.all(np.diff(ms) == -1)
    # neighbour spacing agrees with the local FSR to first order
    mid = 0.5 * (wl[0] + wl[1])
    assert wl[1] - wl[0] == pytest.approx(fsr(TM, GEO, mid), rel=1e-3)


def test_comb_band_validation():
    with pytest.raises(ValueError):
        resonance_comb(TM, GEO, (1560.0, 1540.0))


def test_anchor_family():
    fam = anchor_family(TM, GEO, 1552.52, 408)
    n = effective_index(fam, 1552.52)
    assert n * L_NM / 1552.52 == pytest.approx(408, rel=1e-12)
    assert fam.ref_wavelength_um == pytest.approx(1.55252)
    modes = resonance_comb(fam, GEO, (1550.0, 1555.0))
    anchored = [md for md in modes if md.m == 408]
    assert len(anchored) == 1
    assert anchored[0].wavelength_nm == pytest.approx(1552.52, abs=1e-6)


def test_calibrate_family_hits_target():
    fam = anchor_family(TM, GEO, 1552.52, 408)
    cal = calibrate_family(fam, GEO, 3.89, 1552.52)
    assert fsr(cal, GEO, 1552.52) == pytest.approx(3.89, rel=1e-6)
    # the anchored resonance must not move when the slope changes
    n = effective_index(cal, 1552.52)
    assert n * L_NM / 1552.52 == pytest.approx(408, rel=1e-12)
    # implied group index equals the closed form lambda^2 / (L * FSR)
    assert group_index(cal, 1552.52) == pytest.approx(
        1552.52 ** 2 / (L_NM * 3.89), rel=1e-6)


def test_calibrate_family_rejects_bad_target():
    fam = anchor_family(TM, GEO, 1552.52, 408)
    with pytest.raises(ValueError):
        calibrate_family(fam, GEO, -1.0, 1552.52)
    # a family whose reference wavelength degenerates cannot be solved
    broken = ModeFamily(family_id="z", polarization="TM",
                        ref_wavelength_um=0.0)
    with pytest.raises(CalibrationError):
        calibrate_family(broken, GEO, 3.89, 1552.52)


def test_group_index_linear_in_slope():
    # n_g = n - lambda dn/dlambda turns the linear correction
    # slope * (lambda - ref) into a constant shift of -slope * ref
    base = ModeFamily(family_id="a", polarization="TM",
                      ref_wavelength_um=1.55)
    tilted = ModeFamily(family_id="b", polarization="TM",
                        index_slope_per_um=0.05, ref_wavelength_um=1.55)
    for wl in (1540.0, 1552.0, 1561.0):
        delta = group_index(tilted, wl) - group_index(base, wl)
        assert delta == pytest.approx(-0.05 * 1.55, rel=1e-9)


def test_effective_index_offset_is_additive():
    fam = ModeFamily(family_id="x", polarization="TE",
                     index_offset=-0.0731, azimuthal_contrast=0.4)
    plain = ModeFamily(family_id="y", polarization="TE",
                       azimuthal_contrast=0.4)
    assert effective_index(fam, 1552.0) == pytest.approx(
        effective_index(plain, 1552.0) - 0.0731, rel=1e-12)


def test_linewidths():
    pump_fam = ModeFamily(family_id="p", polarization="TM", q_loaded=2.9e5)
    pump = ResonatorMode(family=pump_fam, m=824, wavelength_nm=774.86)
    assert pump.linewidth_ghz == pytest.approx(KAPPA_PUMP, rel=1e-12)
    sig = ResonatorMode(family=TE, m=408, wavelength_nm=1552.52)
    assert sig.linewidth_ghz == pytest.approx(KAPPA_SIGNAL, rel=1e-12)


def test_fsr_unit_consistency():
    # fsr_ghz = fsr_nm * c / lambda^2 by construction
    for wl in (1540.0, 1552.52, 1565.0):
        ratio = fsr_ghz(TE, GEO, wl) / fsr(TE, GEO, wl)
        assert ratio == pytest.approx(2.99792458e8 / wl ** 2, rel=1e-12)


def test_family_validation():
    with pytest.raises(ValueError):
        ModeFamily(family_id="bad", polarization="TEM")
    with pytest.raises(ValueError):
        ModeFamily(family_id="bad", polarization="TE", q_loaded=0.0)
    with pytest.raises(ValueError):
        ModeFamily(family_id="bad", polarization="TE",
                   azimuthal_contrast=1.2)
    with pytest.raises(ValueError):
        ModeFamily(family_id="bad", polarization="TE", radial_number=-1)


def test_te_effective_index_below_ordinary_bulk():
    # the averaged TE index sits strictly between the principal indices
    for wl in (1540.0, 1552.0, 1565.0):
        n = effective_index(TE, wl)
        assert n < refractive_index(wl * 1e-3, "o")
        assert n > refractive_index(wl * 1e-3, "e")


# --- the Brent root finder against scipy's, bit for bit ----------------------

def both_brentq(f, a, b, **kw):
    """(port, scipy) outcomes: the root's hex, or the error class."""
    theirs_fn = pytest.importorskip("scipy.optimize").brentq
    out = []
    for fn in (brentq, theirs_fn):
        try:
            out.append(float(fn(f, a, b, **kw)).hex())
        except ValueError:
            out.append(ValueError)
        except RuntimeError:  # CalibrationError is one
            out.append(RuntimeError)
    return out


TOLERANCES = dict(xtol=st.floats(1e-15, 1e-3).map(lambda v: v * 1e3),
                  rtol=st.sampled_from([8.881784197001252e-16, 1e-15,
                                        1e-12, 1e-9]))


@settings(max_examples=60, deadline=None)
@given(family=st.sampled_from([TM, TE]), m_step=st.integers(-8, 8),
       below=st.floats(0.0, 5.0), above=st.floats(0.0, 5.0),
       swap=st.booleans(), **TOLERANCES)
def test_brentq_matches_scipy_on_resonances(family, m_step, below, above,
                                            swap, xtol, rtol):
    def f(x):
        return _phase_residual(family, GEO, m, x, DEFAULT_SELLMEIER)

    m = int(effective_index(family, 1560.0) * L_NM / 1560.0) + m_step
    root = brentq(f, 1500.0, 1600.0, xtol=1e-12, rtol=1e-15)
    a, b = root - below, root + above
    if swap:
        a, b = b, a
    if f(a) * f(b) > 0:
        return  # a rounded endpoint stepped past the root
    port, scipy_root = both_brentq(f, a, b, xtol=xtol, rtol=rtol)
    assert port == scipy_root


SMOOTH = (lambda x, r: x - r,
          lambda x, r: math.tanh(3.0 * (x - r)),
          lambda x, r: (x - r) ** 3 + 0.01 * (x - r),
          lambda x, r: math.exp(x - r) - 1.0,
          lambda x, r: math.sin(x - r),
          lambda x, r: math.atan(x) - math.atan(r))


@settings(max_examples=300, deadline=None)
@given(k=st.integers(0, len(SMOOTH) - 1), root=st.floats(-50.0, 50.0),
       below=st.one_of(st.just(0.0), st.floats(0.0, 1.5)),
       above=st.one_of(st.just(0.0), st.floats(0.0, 1.5)),
       swap=st.booleans(), maxiter=st.sampled_from([3, 100]), **TOLERANCES)
def test_brentq_matches_scipy_on_known_roots(k, root, below, above, swap,
                                             maxiter, xtol, rtol):
    def f(x):
        return SMOOTH[k](x, root)

    # below or above 0.0 puts the root on an endpoint, where f is exactly 0
    a, b = (root + above, root - below) if swap else (root - below,
                                                       root + above)
    port, scipy_root = both_brentq(f, a, b, xtol=xtol, rtol=rtol,
                                   maxiter=maxiter)
    assert port == scipy_root
    if maxiter == 100 and port not in (ValueError, RuntimeError):
        assert abs(float.fromhex(port) - root) <= 2 * (xtol + rtol * 60)


def test_brentq_raises():
    with pytest.raises(ValueError, match="different signs"):
        brentq(lambda x: x * x + 1.0, -1.0, 1.0, xtol=1e-12, rtol=1e-15)
    with pytest.raises(CalibrationError, match="did not converge"):
        brentq(math.atan, -1.0, 3.0, xtol=1e-300, rtol=1e-15, maxiter=3)
    assert brentq(math.atan, 0.0, 3.0, xtol=1e-12, rtol=1e-15) == 0.0
