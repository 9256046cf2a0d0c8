import math

import numpy as np
import pytest

from diskspdc.events import EventStream, SourceModel, generate_events
from diskspdc.tcspc import (
    calibrate_peak_delay,
    car_closed_form,
    dwdm_channel_index,
    dwdm_filter_rates,
    dwdm_filter_stream,
    dwdm_grid,
    heralded_g2,
    histogram,
    poisson_heralded_g2,
    two_fold_metrics,
    window_counts,
)

# analytic values frozen from the independent script
CAR_718K_800 = 1740.9470752089137            # 1/(r w), unit capture
CAR_718K_800_CAPT = 1505.335509685563        # capture 1 - exp(-2)
CAR_MIXED = 223.99092090133948               # losses + darks case
G2_MU = {1e-3: 0.001997502580908324,
         1e-2: 0.019752559276395083,
         1e-1: 0.17736049135592613}


def synthetic_stream(times_a, times_b, duration_ps=10 ** 9):
    ch = np.concatenate([np.zeros(len(times_a), dtype=np.uint8),
                         np.ones(len(times_b), dtype=np.uint8)])
    t = np.concatenate([np.asarray(times_a, dtype=np.int64),
                        np.asarray(times_b, dtype=np.int64)])
    order = np.lexsort((ch, t))
    return EventStream(channels=ch[order], timestamps_ps=t[order],
                       duration_ps=duration_ps)


def test_window_counts_boundaries():
    a = np.array([0], dtype=np.int64)
    b = np.array([-100, -50, 0, 50, 100], dtype=np.int64)
    # closed window [-50, 50]
    assert window_counts(a, b, 0, 100).sum() == 3
    assert window_counts(a, b, 75, 50).sum() == 2
    assert window_counts(a, b, 200, 100).sum() == 0
    many = np.array([0, 1000], dtype=np.int64)
    per_event = window_counts(many, b, 0, 100)
    assert list(per_event) == [3, 0]


def test_window_counts_exact_past_2_53_ps():
    # float64 edges round t_a - 400 to t_b = t_a - 401 here
    t_a = 2 ** 53 + 1
    a = np.array([t_a], dtype=np.int64)
    b = np.array([t_a - 401], dtype=np.int64)
    assert window_counts(a, b, 0, 800).sum() == 0
    assert window_counts(a, b, -1, 800).sum() == 1


def test_histogram_exact_peak():
    # pairs spaced 1 us apart, partner always +500 ps
    base = np.arange(0, 10 ** 9, 10 ** 6, dtype=np.int64)
    s = synthetic_stream(base, base + 500)
    h = histogram(s, 0, 1, bin_width_ps=10, span_ps=8000)
    assert h.total == len(base)
    assert h.peak_delay_ps == 505  # bin [500, 510) centre
    assert calibrate_peak_delay(s, 0, 1) == 505
    assert h.counts.max() == len(base)


def test_histogram_validation():
    s = synthetic_stream([0], [0])
    with pytest.raises(ValueError):
        histogram(s, 0, 1, bin_width_ps=0)
    with pytest.raises(ValueError):
        histogram(s, 0, 1, span_ps=-5)


def test_two_fold_metrics_on_synthetic_pairs():
    # deterministic stream: every pair inside the window, no accidentals
    base = np.arange(0, 10 ** 9, 10 ** 6, dtype=np.int64)
    s = synthetic_stream(base, base + 200)
    r = two_fold_metrics(s, window_ps=800)
    assert r.n1 == r.n2 == len(base)
    assert r.n12 == len(base)
    assert r.accidental_mean == 0.0
    assert math.isnan(r.car)  # zero accidentals
    true_rate = len(base) / (s.duration_ps * 1e-12)
    assert r.pgr_estimate_hz == pytest.approx(true_rate, rel=1e-12)


def test_two_fold_metrics_monte_carlo():
    m = SourceModel(pump_power_uw=1.0, pgr_slope_mhz_per_uw=2.0,
                    detector_efficiency=1.0, dark_rate_hz=0.0,
                    jitter_sigma_ps=0.0)
    s = generate_events(m, 0.5, seed=33)
    r = two_fold_metrics(s, window_ps=2400)
    # capture(2400 ps, 200 ps lifetime) = 1 - exp(-6), accidental floor r*w
    rate = 2e6
    capture = 0.9975212478233336
    expected_bias = 1.0 / (capture + rate * 2400e-12)
    assert r.pgr_estimate_hz == pytest.approx(rate * expected_bias, rel=0.01)
    cf = car_closed_form(rate, 2400, capture=capture)
    sigma = r.car * math.sqrt(1.0 / r.n12 + 1.0 / (r.accidental_mean * 20))
    assert abs(r.car - cf) < 4.0 * sigma


def test_two_fold_validation():
    s = synthetic_stream([0], [0])
    with pytest.raises(ValueError):
        two_fold_metrics(s, window_ps=0)
    with pytest.raises(ValueError):
        two_fold_metrics(s, n_offset_windows=5)
    with pytest.raises(ValueError):
        two_fold_metrics(s, window_ps=800, offset_min_ps=400)
    with pytest.raises(ValueError):
        two_fold_metrics(s, offset_min_ps=5000, offset_max_ps=4000)


def test_two_fold_empty_channel():
    s = EventStream(channels=np.zeros(5, dtype=np.uint8),
                    timestamps_ps=np.arange(5, dtype=np.int64) * 1000,
                    duration_ps=10 ** 6)
    r = two_fold_metrics(s)
    assert r.n12 == 0
    assert math.isnan(r.car)
    assert math.isnan(r.pgr_estimate_hz)


def test_car_closed_form_values():
    assert car_closed_form(0.718e6, 800) == pytest.approx(
        CAR_718K_800, rel=1e-12)
    assert car_closed_form(0.718e6, 800, capture=1 - math.exp(-2)) == \
        pytest.approx(CAR_718K_800_CAPT, rel=1e-12)
    assert car_closed_form(2e6, 2000, 0.1, 0.2, 500.0, 800.0, 0.9) == \
        pytest.approx(CAR_MIXED, rel=1e-12)
    with pytest.raises(ValueError):
        car_closed_form(0.0, 800)
    with pytest.raises(ValueError):
        car_closed_form(1e6, 0)


def test_car_is_loss_invariant_in_closed_form():
    base = car_closed_form(1e6, 800, 1.0, 1.0)
    lossy = car_closed_form(1e6, 800, 0.05, 0.2)
    assert lossy == pytest.approx(base, rel=1e-12)


def test_poisson_heralded_g2_values():
    for mu, want in G2_MU.items():
        assert poisson_heralded_g2(mu) == pytest.approx(want, rel=1e-12)
    assert poisson_heralded_g2(0.0) == 0.0
    # small-mu limit 2 mu
    assert poisson_heralded_g2(1e-6) == pytest.approx(2e-6, rel=1e-3)
    with pytest.raises(ValueError):
        poisson_heralded_g2(-0.1)


def test_heralded_g2_zero_for_single_pair_source():
    m = SourceModel(pump_power_uw=1.0, pgr_slope_mhz_per_uw=0.2,
                    min_pair_spacing_ps=1e6, pair_lifetime_ps=20.0,
                    detector_efficiency=1.0, dark_rate_hz=0.0,
                    jitter_sigma_ps=0.0, signal_channels=(0, 2),
                    idler_channels=(1,))
    s = generate_events(m, 0.5, seed=55)
    out = heralded_g2(s, np.array([0.0]), window_ps=800)
    assert out["n_idler"][0] > 10_000
    assert out["n_is1"][0] > 0 and out["n_is2"][0] > 0
    assert out["n_triples"][0] == 0
    assert out["g2"][0] == 0.0


def test_dwdm_grid_layout():
    grid = dwdm_grid(1535.0, 1565.0, 0.8)
    assert len(grid) == 38
    assert grid[0] == (1535.0, 1535.8)
    lo, hi = grid[-1]
    assert lo == pytest.approx(1564.6)
    assert hi == pytest.approx(1565.4)
    exact = dwdm_grid(1535.0, 1551.0, 0.8)
    assert len(exact) == 20
    assert exact[-1][1] == pytest.approx(1551.0)
    with pytest.raises(ValueError):
        dwdm_grid(1565.0, 1535.0)
    with pytest.raises(ValueError):
        dwdm_grid(1535.0, 1565.0, 0.0)


def test_dwdm_membership_is_half_open():
    grid = dwdm_grid(1535.0, 1565.0, 0.8)
    assert dwdm_channel_index(1535.0, grid) == 0
    assert dwdm_channel_index(1535.8, grid) == 1
    assert dwdm_channel_index(1552.52, grid) == 21
    assert dwdm_channel_index(1534.9, grid) is None
    assert dwdm_channel_index(1565.4, grid) is None


def test_dwdm_filter_rates():
    grid = dwdm_grid(1535.0, 1565.0, 0.8)
    entries = [(1552.52, 100.0), (1552.55, 50.0), (1540.0, 10.0),
               (1700.0, 999.0)]
    out = dwdm_filter_rates(entries, grid, insertion_loss_db=4.0)
    scale = 0.3981071705534972
    # 1552.52 and 1552.55 share channel 21 = [1551.8, 1552.6)
    assert out[21] == pytest.approx(150.0 * scale, rel=1e-12)
    assert out[6] == pytest.approx(10.0 * scale, rel=1e-12)
    assert out.sum() == pytest.approx(160.0 * scale, rel=1e-12)
    with pytest.raises(ValueError):
        dwdm_filter_rates(entries, grid, insertion_loss_db=-1.0)


def test_dwdm_filter_stream_thins():
    m = SourceModel(pump_power_uw=1.0, pgr_slope_mhz_per_uw=0.5,
                    detector_efficiency=1.0, dark_rate_hz=0.0)
    s = generate_events(m, 0.2, seed=77)
    thin = dwdm_filter_stream(s, seed=101, insertion_loss_db=4.0)
    survival = 0.3981071705534972
    n, k = len(s), len(thin)
    assert abs(k - n * survival) < 5.0 * math.sqrt(n * survival)
    again = dwdm_filter_stream(s, seed=101, insertion_loss_db=4.0)
    assert np.array_equal(thin.timestamps_ps, again.timestamps_ps)
    assert thin.duration_ps == s.duration_ps
