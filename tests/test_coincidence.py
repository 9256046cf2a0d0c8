import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diskspdc import tcspc
from diskspdc.events import EventStream, SourceModel, generate_events
from diskspdc.franson import (UmiConfig, central_peak_is_same_path,
                              peak_areas, peak_areas_span)
from diskspdc.tcspc import (
    calibrate_peak_delay,
    car_closed_form,
    delay_histogram,
    dwdm_channel_index,
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
    return EventStream.from_merged(ch[order], t[order], duration_ps)


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
    s = EventStream.from_merged(np.zeros(5, dtype=np.uint8),
                                np.arange(5, dtype=np.int64) * 1000,
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


# --- the coincidence primitive against O(N^2) broadcast references --------

# stream origins: zero, past 2^53 ps (float64 is no longer ps-exact) and
# near 2^62 ps
ORIGINS = st.one_of(st.just(0), st.integers(2 ** 53, 2 ** 53 + 10 ** 6),
                    st.integers(2 ** 62 - 10 ** 6, 2 ** 62 + 10 ** 6))
# None keeps the module caps; small caps force the multi-chunk path
CAPS = st.one_of(st.none(), st.tuples(st.integers(1, 4), st.integers(1, 6)))


def sorted_times(n_max=25, span=4000):
    return st.lists(st.integers(0, span), max_size=n_max).map(
        lambda v: np.sort(np.array(v, dtype=np.int64)))


def in_window(delays, center2, window):
    """delays in [c - w/2, c + w/2] with c = center2 / 2, in exact integers."""
    return (2 * delays >= center2 - window) & (2 * delays <= center2 + window)


def delay_matrix(a, b):
    return b[None, :] - a[:, None]


def ref_histogram(a, b, bin_width, span):
    n_bins = max(int(round(span / bin_width)), 1)
    half = n_bins * bin_width // 2
    d = delay_matrix(a, b).ravel()
    d = d[(d >= -half) & (d < half)]
    return np.bincount((d + half) // bin_width, minlength=n_bins)


def ref_peak(a, b):
    counts = ref_histogram(a, b, 10, 8000)
    return int(np.argmax(counts)) * 10 - 4000 + 5


def chunk_caps(monkeypatch, caps):
    if caps is not None:
        monkeypatch.setattr(tcspc, "_CHUNK_EVENTS", caps[0])
        monkeypatch.setattr(tcspc, "_CHUNK_PAIRS", caps[1])


@settings(max_examples=150, deadline=None)
@given(a=sorted_times(), b=sorted_times(), origin=ORIGINS,
       center2=st.integers(-3000, 3000), window=st.integers(1, 1500),
       caps=CAPS)
def test_window_counts_match_brute_force(a, b, origin, center2, window,
                                         caps):
    a, b = a + origin, b + origin
    want = in_window(delay_matrix(a, b), center2, window).sum(axis=1)
    with pytest.MonkeyPatch.context() as mp:
        chunk_caps(mp, caps)
        got = window_counts(a, b, center2 / 2, window)
    assert np.array_equal(got, want)


def sliced_totals(a, b, centers_ps, window):
    """Window totals sliced from one gather over the windows' union span."""
    lo, hi = np.array([tcspc.window_edges(c, window) for c in centers_ps]).T
    delays = delay_histogram(a, b, int(lo.min()), int(hi.max()))
    return delays.totals(centers_ps, window)


@settings(max_examples=150, deadline=None)
@given(a=sorted_times(), b=sorted_times(), origin=ORIGINS,
       centers2=st.lists(st.integers(-3000, 3000), min_size=1, max_size=6),
       window=st.integers(1, 1500), caps=CAPS)
def test_window_totals_match_brute_force(a, b, origin, centers2, window,
                                         caps):
    a, b = a + origin, b + origin
    d = delay_matrix(a, b)
    want = [int(in_window(d, c2, window).sum()) for c2 in centers2]
    with pytest.MonkeyPatch.context() as mp:
        chunk_caps(mp, caps)
        got = sliced_totals(a, b, [c2 / 2 for c2 in centers2], window)
    assert list(got) == want


@settings(max_examples=100, deadline=None)
@given(a=sorted_times(), b=sorted_times(), origin=ORIGINS,
       bin_width=st.integers(1, 60), span=st.integers(1, 3000), caps=CAPS)
def test_histogram_matches_brute_force(a, b, origin, bin_width, span, caps):
    s = synthetic_stream(a + origin, b + origin)
    with pytest.MonkeyPatch.context() as mp:
        chunk_caps(mp, caps)
        h = histogram(s, 0, 1, bin_width_ps=bin_width, span_ps=span)
    assert np.array_equal(h.counts, ref_histogram(a, b, bin_width, span))


@settings(max_examples=100, deadline=None)
@given(i=sorted_times(n_max=20, span=3000), s1=sorted_times(span=3000),
       s2=sorted_times(span=3000), origin=ORIGINS,
       taus2=st.lists(st.integers(-2000, 2000), min_size=1, max_size=7),
       window=st.integers(1, 900), caps=CAPS)
def test_heralded_g2_counts_match_brute_force(i, s1, s2, origin, taus2,
                                              window, caps):
    ch = np.concatenate([np.full(len(s1), 0), np.full(len(i), 1),
                         np.full(len(s2), 2)]).astype(np.uint8)
    t = np.concatenate([s1, i, s2]) + origin
    order = np.lexsort((ch, t))
    stream = EventStream.from_merged(ch[order], t[order], 10 ** 9)
    with pytest.MonkeyPatch.context() as mp:
        chunk_caps(mp, caps)
        out = heralded_g2(stream, np.array(taus2) / 2, window_ps=window)
    if not (len(i) and len(s1) and len(s2)):
        assert not out["n_is2"].any() and not out["n_triples"].any()
        return
    has1 = in_window(delay_matrix(i, s1), 2 * ref_peak(i, s1),
                     window).any(axis=1)
    peak2 = ref_peak(i, s2)
    assert list(out["n_is1"]) == [int(has1.sum())] * len(taus2)
    for k, tau2 in enumerate(taus2):
        has2 = in_window(delay_matrix(i, s2), 2 * peak2 + tau2,
                         window).any(axis=1)
        assert out["n_is2"][k] == has2.sum()
        assert out["n_triples"][k] == (has1 & has2).sum()


@settings(max_examples=100, deadline=None)
@given(a=sorted_times(), b=sorted_times(), origin=ORIGINS,
       data=st.data(), center2=st.integers(-3000, 3000),
       window=st.integers(1, 1500), caps=CAPS)
def test_central_peak_is_same_path_matches_brute_force(a, b, origin, data,
                                                      center2, window, caps):
    tags_a = np.array(data.draw(st.lists(st.integers(0, 1), min_size=len(a),
                                         max_size=len(a))), dtype=np.uint8)
    tags_b = np.array(data.draw(st.lists(st.integers(0, 1), min_size=len(b),
                                         max_size=len(b))), dtype=np.uint8)
    ch = np.concatenate([np.zeros(len(a)), np.ones(len(b))]).astype(np.uint8)
    t = np.concatenate([a, b]) + origin
    order = np.lexsort((ch, t))
    stream = EventStream.from_merged(
        ch[order], t[order], 10 ** 9,
        route_tags=np.concatenate([tags_a, tags_b])[order])
    # window_ps is an int; the centre stays half-integer via peak_delay_ps
    config = UmiConfig(postselect_window_ps=window)
    pairs = in_window(delay_matrix(a, b), center2, window)
    # lexsort keeps equal times in input order, so tags stay aligned
    want = not np.any(pairs & (tags_a[:, None] != tags_b[None, :]))
    with pytest.MonkeyPatch.context() as mp:
        chunk_caps(mp, caps)
        got = central_peak_is_same_path(stream, config,
                                        peak_delay_ps=center2 / 2)
    assert got == want


def test_chunks_respect_the_pair_cap(monkeypatch):
    monkeypatch.setattr(tcspc, "_CHUNK_EVENTS", 64)
    monkeypatch.setattr(tcspc, "_CHUNK_PAIRS", 10)
    # one a event with 50 partners amid 200 sparse events with one each
    sparse = np.arange(1, 201, dtype=np.int64) * 10_000
    a = np.concatenate([[0], sparse])
    b = np.sort(np.concatenate([np.arange(50), sparse + 7]))
    chunks = list(tcspc.coincidences(a, b, 0, 100))
    for a_idx, b_idx in chunks:
        assert len(a_idx) == len(b_idx) > 0
        assert len(a_idx) <= 10 or len(np.unique(a_idx)) == 1
        assert a_idx[-1] - a_idx[0] < 64
    a_all = np.concatenate([c[0] for c in chunks])
    b_all = np.concatenate([c[1] for c in chunks])
    assert len(a_all) == 250
    assert np.array_equal(a_all, np.sort(a_all))
    assert np.all((b[b_all] - a[a_all] >= 0) & (b[b_all] - a[a_all] <= 100))
    want = ((delay_matrix(a, b) >= 0) & (delay_matrix(a, b) <= 100)).sum(1)
    assert np.array_equal(window_counts(a, b, 50, 100), want)
    # each a event is also 10_007 ps before the next sparse partner
    assert list(sliced_totals(a, b, [50, 10_007], 100)) == [250, 200]


# --- one delay histogram, sliced ---------------------------------------------

@settings(max_examples=100, deadline=None)
@given(a=sorted_times(), b=sorted_times(), origin=ORIGINS,
       bin_width=st.integers(1, 60), span=st.integers(1, 3000),
       centers2=st.lists(st.integers(-3000, 3000), min_size=1, max_size=6),
       window=st.integers(1, 1500), arm_delay=st.integers(0, 1500),
       pad=st.tuples(st.integers(0, 50), st.integers(0, 50)), caps=CAPS)
@example(a=np.array([0]), b=np.array([0]), origin=0, bin_width=1, span=1,
         centers2=[1], window=1, arm_delay=0, pad=(0, 0), caps=None)
def test_one_gather_slices_match_brute_force(a, b, origin, bin_width, span,
                                             centers2, window, arm_delay,
                                             pad, caps):
    s = synthetic_stream(a + origin, b + origin)
    a, b = s.channel_times(0), s.channel_times(1)
    config = UmiConfig(arm_delay_ns=arm_delay / 1000,
                       postselect_window_ps=window)
    lo, hi = zip(peak_areas_span(config), tcspc._bin_edges(bin_width, span),
                 *(tcspc.window_edges(c2 / 2, window) for c2 in centers2))
    lo, hi = min(lo) - pad[0], max(hi) + pad[1]
    d = delay_matrix(a, b)
    with pytest.MonkeyPatch.context() as mp:
        chunk_caps(mp, caps)
        delays = delay_histogram(a, b, lo, hi)
        gathered = histogram(s, 0, 1, bin_width_ps=bin_width, span_ps=span)
        areas = peak_areas(s, config)
    want = np.bincount(d[(d >= lo) & (d <= hi)] - lo, minlength=hi - lo + 1)
    assert (delays.lo_ps, delays.hi_ps) == (lo, hi)
    assert np.array_equal(delays.counts, want)
    sliced = delays.binned(bin_width, span)
    assert np.array_equal(sliced.counts, ref_histogram(a, b, bin_width, span))
    assert np.array_equal(sliced.counts, gathered.counts)
    assert np.array_equal(sliced.bin_centers_ps, gathered.bin_centers_ps)
    assert (sliced.span_ps, sliced.total) == (gathered.span_ps,
                                              gathered.total)
    assert list(delays.totals([c2 / 2 for c2 in centers2], window)) == \
        [int(in_window(d, c2, window).sum()) for c2 in centers2]
    # peak_areas: calibrated on 10-ps bins over max(8 D, 8000) ps
    counts = ref_histogram(a, b, 10, max(8 * arm_delay, 8000))
    peak = int(np.argmax(counts)) * 10 - len(counts) * 5 + 5
    want_areas = tuple(int(in_window(d, 2 * (peak + k * arm_delay),
                                     window).sum()) for k in (-1, 0, 1))
    assert peak_areas(s, config, delays=delays) == areas == want_areas


def test_delay_span_past_the_cap_raises_before_gathering(monkeypatch):
    a = b = np.arange(10, dtype=np.int64)
    monkeypatch.setattr(tcspc, "_MAX_DELAY_BINS", 100)
    assert delay_histogram(a, b, -50, 49).counts.sum() == 100
    monkeypatch.setattr(tcspc, "coincidences", None)  # any gather fails
    with pytest.raises(ValueError, match="exceeds 100 one-ps bins"):
        delay_histogram(a, b, -50, 50)
    s = synthetic_stream(a, b)
    with pytest.raises(ValueError, match="one-ps bins"):
        two_fold_metrics(s, window_ps=800)


def test_windows_outside_a_passed_histogram_raise():
    base = np.arange(0, 10 ** 9, 10 ** 6, dtype=np.int64)
    s = synthetic_stream(base, base + 200)
    full = delay_histogram(base, base + 200, *tcspc.two_fold_span(800))
    assert two_fold_metrics(s, delays=full) == two_fold_metrics(s)
    short = delay_histogram(base, base + 200, -4000, 3999)
    with pytest.raises(ValueError, match="outside the gathered"):
        two_fold_metrics(s, delays=short)
    with pytest.raises(ValueError, match="outside the gathered"):
        short.binned(10, 8020)
    assert short.binned().peak_delay_ps == 205
    config = UmiConfig()
    with pytest.raises(ValueError, match="outside the gathered"):
        peak_areas(s, config, delays=short)
    assert peak_areas(s, config, delays=delay_histogram(
        base, base + 200, *peak_areas_span(config))) == (0, len(base), 0)


def count_gathers(monkeypatch):
    calls = []
    gather = tcspc.coincidences

    def counted(*args):
        calls.append(args[2:])
        return gather(*args)

    monkeypatch.setattr(tcspc, "coincidences", counted)
    return calls


def test_two_fold_metrics_gathers_once_or_not_at_all(monkeypatch):
    base = np.arange(0, 10 ** 9, 10 ** 6, dtype=np.int64)
    s = synthetic_stream(base, base + 200)
    calls = count_gathers(monkeypatch)
    alone = two_fold_metrics(s, window_ps=800)
    assert calls == [tcspc.two_fold_span(800)] == [(-54_400, 54_399)]
    delays = delay_histogram(base, base + 200, -60_000, 60_000)
    del calls[:]
    assert two_fold_metrics(s, window_ps=800, delays=delays) == alone
    assert calls == []
