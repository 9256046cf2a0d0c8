import math

import numpy as np
import pytest

from diskspdc.events import SourceModel, generate_events
from diskspdc.franson import (
    FitError,
    UmiConfig,
    apply_umi,
    central_peak_is_same_path,
    classical_fringe,
    extract_visibility,
    peak_areas,
    peak_areas_span,
    quantum_fringe,
)
from diskspdc.tcspc import delay_histogram

CFG = UmiConfig()  # 1.6 ns arms, balanced splitter


def pair_stream(duration_s=0.5, rate_mhz=0.2, lifetime_ps=1.0, seed=7):
    m = SourceModel(pump_power_uw=1.0, pgr_slope_mhz_per_uw=rate_mhz,
                    pair_lifetime_ps=lifetime_ps, detector_efficiency=1.0,
                    dark_rate_hz=0.0, jitter_sigma_ps=0.0)
    return generate_events(m, duration_s, seed=seed)


def all_tags(stream):
    """Every route tag of a stream, channel after channel."""
    return np.concatenate(list(stream.tags.values()))


def test_umi_config_validation():
    with pytest.raises(ValueError):
        UmiConfig(arm_delay_ns=-1.0)
    with pytest.raises(ValueError):
        UmiConfig(arm_transmissions=(0.0, 0.0))
    with pytest.raises(ValueError):
        UmiConfig(arm_transmissions=(1.2, 0.5))
    with pytest.raises(ValueError):
        UmiConfig(postselect_window_ps=0)


def test_umi_routing_extremes():
    s = pair_stream(duration_s=0.05)
    short_only = apply_umi(s, UmiConfig(arm_transmissions=(1.0, 0.0)),
                           seed=1)
    _, times = s.merged()
    _, short_times = short_only.merged()
    assert np.array_equal(short_times, times)
    assert all_tags(short_only).max() == 0
    long_only = apply_umi(s, UmiConfig(arm_transmissions=(0.0, 1.0)),
                          seed=1)
    _, long_times = long_only.merged()
    assert np.array_equal(long_times, times + 1600)
    assert all_tags(long_only).min() == 1
    assert long_only.duration_ps == s.duration_ps + 1600


def test_umi_routing_balance_and_determinism():
    s = pair_stream(duration_s=0.2)
    out = apply_umi(s, CFG, seed=9)
    again = apply_umi(s, CFG, seed=9)
    _, times = out.merged()
    _, again_times = again.merged()
    tags = all_tags(out)
    assert np.array_equal(times, again_times)
    assert np.array_equal(tags, all_tags(again))
    n = len(out)
    n_long = int(tags.sum())
    assert abs(n_long - n / 2) < 5.0 * math.sqrt(n) / 2
    assert np.all(np.diff(times) >= 0)


def test_three_peak_structure():
    s = pair_stream(duration_s=0.5)
    out = apply_umi(s, CFG, seed=11)
    early, center, late = peak_areas(delay_histogram(
        out.channel_times(0), out.channel_times(1), *peak_areas_span(CFG)),
        CFG)
    total = early + center + late
    assert total > 50_000
    # binomial routing gives 1:2:1
    sigma_side = math.sqrt(total * 0.25 * 0.75)
    sigma_center = math.sqrt(total * 0.5 * 0.5)
    assert abs(early - total / 4) < 5 * sigma_side
    assert abs(late - total / 4) < 5 * sigma_side
    assert abs(center - total / 2) < 5 * sigma_center
    # nothing spills outside the three windows for a dark-free stream
    assert total == pytest.approx(len(s) / 2, rel=0.02)


def test_central_peak_pairs_same_path():
    # low rate: with pairs several microseconds apart no unrelated pair can
    # leak a mismatched tag into a central window
    s = pair_stream(duration_s=0.1, rate_mhz=0.02)
    out = apply_umi(s, CFG, seed=13)
    assert central_peak_is_same_path(out, CFG)
    with pytest.raises(ValueError):
        central_peak_is_same_path(s, CFG)


def test_noiseless_visibility_recovery():
    xi = np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)
    counts = quantum_fringe(xi, visibility=0.917, amplitude=1234.0)
    fit = extract_visibility(xi, counts, harmonic=2)
    assert fit.visibility == pytest.approx(0.917, abs=1e-9)
    assert fit.harmonic == 2
    assert fit.residual_rms < 1e-9


def test_background_dilutes_fitted_visibility():
    xi = np.linspace(0.0, 2.0 * np.pi, 32, endpoint=False)
    amp, vis, bg = 1000.0, 0.9, 100.0
    counts = quantum_fringe(xi, visibility=vis, amplitude=amp,
                            background=bg)
    fit = extract_visibility(xi, counts, harmonic=2)
    diluted = (amp * vis / 2.0) / (amp / 2.0 + bg)
    assert fit.visibility == pytest.approx(diluted, rel=1e-9)


def test_classical_fringe_period():
    xi = np.linspace(0.0, 2.0 * np.pi, 24, endpoint=False)
    counts = classical_fringe(xi, visibility=0.8, amplitude=500.0)
    fit = extract_visibility(xi, counts, harmonic=1)
    assert fit.visibility == pytest.approx(0.8, abs=1e-9)
    # fitting the wrong harmonic finds almost nothing
    cross = extract_visibility(
        xi, quantum_fringe(xi, visibility=0.9, amplitude=500.0), harmonic=1)
    assert cross.visibility < 0.05


def test_poisson_fringe_fit():
    rng = np.random.Generator(np.random.PCG64(21))
    xi = np.linspace(0.0, 2.0 * np.pi, 32, endpoint=False)
    counts = quantum_fringe(xi, visibility=0.95, amplitude=4000.0,
                            background=20.0, rng=rng)
    assert np.all(counts == np.round(counts))  # integer draws
    fit = extract_visibility(xi, counts, sigma=np.sqrt(counts + 1.0),
                             harmonic=2)
    assert fit.visibility_sigma > 0
    assert abs(fit.visibility - 0.95) < 4.0 * max(fit.visibility_sigma,
                                                  5e-3)


def test_fit_validation():
    with pytest.raises(FitError):
        extract_visibility(np.array([0.0, 1.0, 2.0]),
                           np.array([1.0, 2.0, 3.0]))
    with pytest.raises(FitError):
        extract_visibility(np.array([0.0, 1.0]), np.array([[1.0, 2.0]]))
    # harmonic-2 design collapses on the quarter-period lattice
    xi = np.array([0.0, np.pi / 2, np.pi, 3 * np.pi / 2])
    with pytest.raises(FitError):
        extract_visibility(xi, np.array([10.0, 4.0, 10.0, 4.0]),
                           harmonic=2)
    # negative offsets are rejected
    xi = np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False)
    with pytest.raises(FitError):
        extract_visibility(xi, np.full(8, -5.0), harmonic=2)
