import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diskspdc.material import NonlinearTensor
from diskspdc.matching import (
    AmplitudePrefactor,
    FamilyPair,
    GridResolutionError,
    Triple,
    accumulate_intensity,
    bandwidth_scan,
    cumulative_trapezoid,
    enumerate_triples,
    is_persistent,
    lorentzian_weight,
    matching_window,
)
from diskspdc.resonator import (
    DiskGeometry,
    ModeFamily,
    ResonatorMode,
    anchor_family,
    resonance_comb,
)

GEO = DiskGeometry()
TM = ModeFamily(family_id="tm", polarization="TM")
TE04 = ModeFamily(family_id="te", polarization="TE", azimuthal_contrast=0.4)
TE00 = ModeFamily(family_id="te0", polarization="TE", azimuthal_contrast=0.0)

PUMP = ResonatorMode(family=ModeFamily(family_id="p", polarization="TM",
                                       q_loaded=2.9e5),
                     m=824, wavelength_nm=774.86)

FLAT = AmplitudePrefactor(overlap=1.0, include_quantization=False)


def tm_triple(delta_m):
    """All-TM triple with a chosen winding mismatch.

    With every member TM the index mismatch has no azimuthal dependence,
    so after the mean is pinned out the accumulated phase is exactly
    delta_m * theta.
    """
    sig = ResonatorMode(family=TM, m=408, wavelength_nm=1552.0)
    idl = ResonatorMode(family=TM, m=416 + delta_m, wavelength_nm=1547.3)
    return Triple.build(PUMP, sig, idl)


def te_triple(delta_m, family=TE04):
    sig = ResonatorMode(family=family, m=408, wavelength_nm=1552.0)
    idl = ResonatorMode(family=TM, m=416 + delta_m, wavelength_nm=1547.3)
    return Triple.build(PUMP, sig, idl)


def test_triple_canonical_order_and_delta_m():
    sig = ResonatorMode(family=TM, m=408, wavelength_nm=1552.0)
    idl = ResonatorMode(family=TM, m=409, wavelength_nm=1547.3)
    a = Triple.build(PUMP, sig, idl)
    b = Triple.build(PUMP, idl, sig)
    assert a.signal.wavelength_nm <= a.idler.wavelength_nm
    assert a.signal.m == b.signal.m and a.idler.m == b.idler.m
    assert a.delta_m == 408 + 409 - 824 == -7
    f = lambda wl: 2.99792458e8 / wl  # noqa: E731
    assert a.delta_f_ghz == pytest.approx(
        f(1547.3) + f(1552.0) - f(774.86), rel=1e-12)


def test_flat_drive_mismatch_free_amplitude_is_linear():
    # unit drive, zero winding, all-TM: the integrand is exactly 1, so the
    # accumulated amplitude equals theta and the intensity theta^2
    tr = accumulate_intensity(tm_triple(0), prefactor=FLAT,
                              drive=lambda th: np.ones_like(th))
    assert np.max(np.abs(tr.amplitude.real - tr.theta)) < 1e-9
    assert np.max(np.abs(tr.amplitude.imag)) < 1e-9
    grown = tr.intensity[1:]
    slope = np.polyfit(np.log(tr.theta[1:]), np.log(grown), 1)[0]
    assert slope == pytest.approx(2.0, abs=1e-9)


def test_unit_winding_grows_quadratically_with_turns():
    for dm in (+1, -1):
        tr = accumulate_intensity(tm_triple(dm), prefactor=FLAT, n_turns=5)
        assert is_persistent(tr)
        final1 = tr.turn_final_intensity(1)
        final5 = tr.turn_final_intensity(5)
        assert final5 == pytest.approx(25.0 * final1, rel=1e-6)


def test_conjugate_windings_have_equal_strength():
    # the in-plane nonlinearity is real, so its +-1 Fourier weights have
    # equal magnitude and the two unit windings accumulate equally
    plus = accumulate_intensity(tm_triple(+1), prefactor=FLAT)
    minus = accumulate_intensity(tm_triple(-1), prefactor=FLAT)
    assert plus.intensity[-1] == pytest.approx(minus.intensity[-1], rel=1e-9)


def test_higher_windings_stay_bounded_without_ladder():
    # all-TM: only the +-1 harmonics of d_eff exist, so any |delta_m| != 1
    # integrates to zero over full turns
    for dm in (0, +2, -3, +8):
        tr = accumulate_intensity(tm_triple(dm), prefactor=FLAT, n_turns=6)
        assert not is_persistent(tr)
        assert tr.intensity.max() < 2.0 * tr.turn_max_intensity(1)


def test_te_contrast_opens_odd_windings():
    # the azimuthal index oscillation phase-modulates the integrand at
    # even harmonics; combined with the +-1 nonlinearity harmonics this
    # feeds every odd winding, with weights falling off with |delta_m|
    finals = {}
    for dm in (+1, +3, +5):
        tr = accumulate_intensity(te_triple(dm), prefactor=FLAT, n_turns=4)
        assert is_persistent(tr)
        finals[dm] = tr.turn_final_intensity(4)
    assert finals[+1] > finals[+3] > finals[+5]

    # with the oscillation contrast turned off the ladder closes
    tr = accumulate_intensity(te_triple(+3, family=TE00), prefactor=FLAT,
                              n_turns=4)
    assert not is_persistent(tr)

    # even windings stay closed at any contrast
    tr = accumulate_intensity(te_triple(+2), prefactor=FLAT, n_turns=4)
    assert not is_persistent(tr)


def test_pump_offset_gauge_invariance():
    # a constant added to the index mismatch is removed by pinning the
    # mean, so shifting one family offset cannot change the trace
    shifted = ModeFamily(family_id="p2", polarization="TM", q_loaded=2.9e5,
                         index_offset=0.002)
    pump2 = ResonatorMode(family=shifted, m=824, wavelength_nm=774.86)
    sig = ResonatorMode(family=TM, m=408, wavelength_nm=1552.0)
    idl = ResonatorMode(family=TM, m=409, wavelength_nm=1547.3)
    a = accumulate_intensity(Triple.build(PUMP, sig, idl), prefactor=FLAT)
    b = accumulate_intensity(Triple.build(pump2, sig, idl), prefactor=FLAT)
    assert np.max(np.abs(a.amplitude - b.amplitude)) < 1e-10


def test_grid_resolution_guard():
    with pytest.raises(GridResolutionError):
        accumulate_intensity(tm_triple(+5), prefactor=FLAT, grid_points=60)
    with pytest.raises(ValueError):
        accumulate_intensity(tm_triple(+1), prefactor=FLAT, n_turns=0)
    with pytest.raises(ValueError):
        accumulate_intensity(tm_triple(+1), prefactor=FLAT, n_turns=11)


def test_prefactor_scales_quadratically():
    half = AmplitudePrefactor(overlap=0.5, include_quantization=False)
    a = accumulate_intensity(tm_triple(+1), prefactor=FLAT)
    b = accumulate_intensity(tm_triple(+1), prefactor=half)
    assert b.intensity[-1] == pytest.approx(0.25 * a.intensity[-1],
                                            rel=1e-12)
    with pytest.raises(ValueError):
        AmplitudePrefactor(overlap=1.5)


def test_custom_tensor_changes_weights():
    # with d31 = 0 the +-1 weights are d22/2 each; the final single-turn
    # intensity of a unit winding is then (2 pi d22 / 2)^2
    t = NonlinearTensor(d22=2.0, d31=0.0)
    tr = accumulate_intensity(tm_triple(+1), prefactor=FLAT, tensor=t)
    assert tr.intensity[-1] == pytest.approx((2.0 * np.pi) ** 2, rel=1e-6)


def test_lorentzian_weight():
    assert lorentzian_weight(0.0, 2.0) == 1.0
    assert lorentzian_weight(1.0, 2.0) == 0.5
    assert lorentzian_weight(-1.0, 2.0) == 0.5
    assert lorentzian_weight(10.0, 2.0) < 0.01


def test_matching_window():
    t = tm_triple(+1)
    wide = abs(t.delta_f_ghz) * 4.0
    assert matching_window(t, linewidth_ghz=wide, window_fraction=0.5)
    assert not matching_window(t, linewidth_ghz=abs(t.delta_f_ghz),
                               window_fraction=0.5)
    with pytest.raises(ValueError):
        matching_window(t, linewidth_ghz=0.0)
    with pytest.raises(ValueError):
        matching_window(t, linewidth_ghz=1.0, window_fraction=0.0)


def test_enumerate_triples_energy_filter():
    fam = anchor_family(TM, GEO, 1552.52, 408)
    comb = resonance_comb(fam, GEO, (1530.0, 1575.0))
    # pump at exactly twice the anchored frequency
    pump = ResonatorMode(family=PUMP.family, m=824, wavelength_nm=776.26)
    trs = enumerate_triples(pump, comb, comb, energy_tol_ghz=400.0)
    assert len(trs) > 0
    for t in trs:
        assert abs(t.delta_f_ghz) <= 400.0
        assert t.signal.wavelength_nm <= t.idler.wavelength_nm
    # duplicates under signal/idler exchange are removed
    keys = [(t.signal.m, t.idler.m) for t in trs]
    assert len(keys) == len(set(keys))
    assert all((b, a) not in keys for a, b in keys if a != b)
    # sorted by closure quality
    residuals = [abs(t.delta_f_ghz) for t in trs]
    assert residuals == sorted(residuals)


def test_bandwidth_scan_basics():
    sig_fam = anchor_family(TE04, GEO, 1552.52, 408)
    idl_fam = anchor_family(TM, GEO, 1546.930081526631, 417)
    band = (1540.0, 1560.0)
    pairs = [FamilyPair(signal_comb=resonance_comb(sig_fam, GEO, band),
                        idler_comb=resonance_comb(idl_fam, GEO, band),
                        overlap=1.0)]
    entries = bandwidth_scan(PUMP, pairs, band, linewidth_ghz=2.0,
                             window_fraction=0.5)
    assert len(entries) >= 1
    strengths = [e.strength for e in entries]
    assert max(strengths) == pytest.approx(1.0, rel=1e-12)
    wl = [e.signal_nm for e in entries]
    assert wl == sorted(wl)
    for e in entries:
        assert abs(e.delta_f_ghz) <= 1.0

    # an extra detuning ramp pushes entries out of the window
    gone = bandwidth_scan(PUMP, pairs, band, linewidth_ghz=2.0,
                          window_fraction=0.5,
                          extra_detuning_ghz=lambda t: 100.0)
    assert len(gone) == 0


FINITE = st.floats(-1e6, 1e6)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(1, 40), is_complex=st.booleans())
def test_cumulative_trapezoid_matches_scipy(data, n, is_complex):
    integrate = pytest.importorskip("scipy.integrate")
    x = np.array(data.draw(st.lists(FINITE, min_size=n, max_size=n)))
    y = np.array(data.draw(st.lists(FINITE, min_size=n, max_size=n)))
    if is_complex:
        y = y + 1j * np.array(data.draw(st.lists(FINITE, min_size=n,
                                                 max_size=n)))
    want = integrate.cumulative_trapezoid(y, x, initial=0.0)
    got = cumulative_trapezoid(y, x)
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
