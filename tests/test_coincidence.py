import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diskspdc import tcspc
from diskspdc.events import EventStream, SourceModel, generate_events
from diskspdc.franson import (UmiConfig, central_peak_is_same_path,
                              peak_areas, peak_areas_span)
from diskspdc.tcspc import (
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
    assert delay_histogram(base, base + 500,
                           *tcspc.peak_span(0, 0, 0)).peak_ps() == 505
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
@given(i=sorted_times(n_max=30, span=30_000),
       s1=sorted_times(n_max=30, span=30_000),
       s2=sorted_times(n_max=30, span=30_000), origin=ORIGINS,
       taus2=st.lists(st.integers(-40_000, 40_000), min_size=1, max_size=7),
       window=st.integers(1, 20_000), caps=CAPS)
# herald longer than s1 and shorter than s2;
# the windows reach past the +-4 ns calibration span, taus lie outside it
@example(i=np.array([0, 9_000, 17_000]), s1=np.array([9_000]),
         s2=np.array([0, 1_000, 5_000, 14_000, 26_000]), origin=2 ** 53,
         taus2=[24_000, 10_000], window=19_000, caps=(1, 1))
# a herald whose one s1 delay sits on the right window edge
@example(i=np.array([0, 10_000]), s1=np.array([0, 10_405]),
         s2=np.array([0]), origin=0, taus2=[0], window=800, caps=None)
# the calibration's lowest delay, -4000 ps, ties and wins the peak
@example(i=np.array([10_000, 20_000]), s1=np.array([6_000, 20_500]),
         s2=np.array([10_000]), origin=0, taus2=[0], window=100, caps=None)
def test_heralded_g2_wide_spans_match_brute_force(i, s1, s2, origin, taus2,
                                                  window, caps):
    # the same O(N^2) reference as the test above, at spans past the
    # calibration histogram's
    test_heralded_g2_counts_match_brute_force.hypothesis.inner_test(
        i, s1, s2, origin, taus2, window, caps)


def g2_stream(n_heralds=1000):
    """Heralds 1 us apart; even ones have an s1 partner, every third one an
    s2 partner, so the herald channel is the longest."""
    i = np.arange(n_heralds, dtype=np.int64) * 10 ** 6
    s1, s2 = i[::2] + 200, i[::3] + 300
    ch = np.concatenate([np.full(len(s1), 0), np.full(len(i), 1),
                         np.full(len(s2), 2)]).astype(np.uint8)
    t = np.concatenate([s1, i, s2])
    order = np.lexsort((ch, t))
    return EventStream.from_merged(ch[order], t[order], 10 ** 9)


def test_heralded_g2_gathers_each_channel_pair_once(monkeypatch):
    s = g2_stream()
    tau = np.array([-20_000.0, 0.0, 50_000.0])
    want = heralded_g2(s, tau, window_ps=800)
    for name in ("histogram", "window_counts"):
        monkeypatch.setattr(tcspc, name, None)  # any call fails
    calls = count_gathers(monkeypatch)
    got = heralded_g2(s, tau, window_ps=800)
    # i->s1 over the calibration span and its windows, then i->s2 over the
    # tau windows; each gather searches from the signal side over the
    # negated span
    assert calls == [(-4399, 4400), (-54_399, 24_400)]
    assert want.keys() == got.keys()
    for key in want:
        assert np.array_equal(want[key], got[key], equal_nan=True)
    assert list(got["n_is1"]) == [500] * 3
    assert list(got["n_is2"]) == [0, 334, 0]
    assert list(got["n_triples"]) == [0, 167, 0]
    # heralded by the shortest channel, both gathers still search from the
    # signal side
    del calls[:]
    heralded_g2(s, tau, window_ps=800, ch_idler=2, ch_s1=0, ch_s2=1)
    assert calls == [(-4399, 4400), (-54_399, 24_400)]


def test_heralded_g2_needs_distinct_channels():
    s = g2_stream(10)
    tau = np.array([0.0])
    for ch_idler, ch_s1, ch_s2 in ((1, 0, 0), (1, 1, 2), (1, 0, 1),
                                   (0, 0, 0)):
        with pytest.raises(ValueError, match="distinct"):
            heralded_g2(s, tau, ch_idler=ch_idler, ch_s1=ch_s1, ch_s2=ch_s2)
    assert heralded_g2(s, tau, ch_idler=1, ch_s1=2, ch_s2=0)["n_is1"][0] == 4


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
    stream = EventStream({0: a + origin, 1: b + origin}, 10 ** 9,
                         tags={0: tags_a, 1: tags_b})
    # window_ps is an int; the centre stays half-integer via peak_delay_ps
    config = UmiConfig(postselect_window_ps=window)
    pairs = in_window(delay_matrix(a, b), center2, window)
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


# --- each chunk searches only the b events it can reach -------------------

def ref_pairs(a, b, lo, hi):
    """Every (a index, b index) with lo <= b - a <= hi, in a order and by
    ascending b within one a event."""
    d = delay_matrix(a, b)
    return np.nonzero((d >= lo) & (d <= hi))


@settings(max_examples=200, deadline=None)
@given(a=sorted_times(), b=sorted_times(), origin=ORIGINS,
       lo=st.integers(-3000, 3000), width=st.integers(-1, 3000),
       caps=st.tuples(st.integers(1, 3), st.integers(1, 3)))
# no chunk reaches any b event
@example(a=np.array([0, 1000]), b=np.array([500]), origin=0, lo=0, width=10,
         caps=(1, 1))
# the first chunk reaches none, the second some
@example(a=np.array([0, 480, 490]), b=np.array([500]), origin=0, lo=0,
         width=10, caps=(1, 1))
# every slice starts at 0 and ends at len(b)
@example(a=np.array([0, 5]), b=np.array([0, 5, 10]), origin=0, lo=-10,
         width=20, caps=(2, 3))
# windows wholly above zero, and wholly below it
@example(a=np.array([0, 5, 9]), b=np.array([3, 10, 14, 30]), origin=0, lo=5,
         width=15, caps=(1, 2))
@example(a=np.array([10, 20, 30]), b=np.array([3, 10, 14, 30]), origin=0,
         lo=-20, width=15, caps=(2, 1))
# equal times at the slice edges
@example(a=np.array([0, 4, 4]), b=np.array([3, 3, 3, 7, 7, 7]), origin=0,
         lo=3, width=0, caps=(1, 1))
@example(a=np.array([0, 0, 4]), b=np.array([3, 3, 3, 7, 7, 7]), origin=2 ** 62,
         lo=3, width=4, caps=(2, 2))
# no b events at all
@example(a=np.array([0, 1, 2]), b=np.array([], dtype=np.int64), origin=0,
         lo=-5, width=10, caps=(1, 1))
def test_reachable_slices_match_brute_force(a, b, origin, lo, width, caps):
    a, b = a + origin, b + origin
    hi = lo + width
    with pytest.MonkeyPatch.context() as mp:
        chunk_caps(mp, caps)
        chunks = list(tcspc.coincidences(a, b, lo, hi))
        delays = delay_histogram(a, b, lo, hi) if hi >= lo else None
    want_a, want_b = ref_pairs(a, b, lo, hi)
    for a_idx, b_idx in chunks:
        assert len(a_idx) == len(b_idx) > 0
        assert a_idx[-1] - a_idx[0] < caps[0]
        assert len(a_idx) <= caps[1] or len(np.unique(a_idx)) == 1
    # every pair once, in order; a chunk boundary never splits an a event
    got_a = np.concatenate([np.zeros(0, dtype=np.int64)]
                           + [c[0] for c in chunks])
    got_b = np.concatenate([np.zeros(0, dtype=np.int64)]
                           + [c[1] for c in chunks])
    assert np.array_equal(got_a, want_a) and np.array_equal(got_b, want_b)
    for first, second in zip(chunks, chunks[1:]):
        assert first[0][-1] < second[0][0]
    if delays is not None:
        d = b[want_b] - a[want_a]
        assert np.array_equal(delays.counts,
                              np.bincount(d - lo, minlength=hi - lo + 1))


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
        areas = peak_areas(delay_histogram(a, b, *peak_areas_span(config)),
                           config)
    want = np.bincount(d[(d >= lo) & (d <= hi)] - lo, minlength=hi - lo + 1)
    assert (delays.lo_ps, delays.hi_ps) == (lo, hi)
    assert np.array_equal(delays.counts, want)
    edges = tcspc._bin_edges(bin_width, span)
    assert np.array_equal(gathered.counts,
                          ref_histogram(a, b, bin_width, span))
    assert np.array_equal(gathered.bin_centers_ps,
                          edges[:-1] + bin_width // 2)
    assert (gathered.span_ps, gathered.total) == (
        (len(edges) - 1) * bin_width, gathered.counts.sum())
    assert list(delays.totals([c2 / 2 for c2 in centers2], window)) == \
        [int(in_window(d, c2, window).sum()) for c2 in centers2]
    # peak_areas: calibrated on 10-ps bins over max(8 D, 8000) ps
    counts = ref_histogram(a, b, 10, max(8 * arm_delay, 8000))
    peak = int(np.argmax(counts)) * 10 - len(counts) * 5 + 5
    want_areas = tuple(int(in_window(d, 2 * (peak + k * arm_delay),
                                     window).sum()) for k in (-1, 0, 1))
    assert peak_areas(delays, config) == areas == want_areas


def ref_peak_ps(a, b, span):
    """Centre of the first fullest 10-ps bin of the raw delays over
    [-half, half), bin by bin."""
    d = delay_matrix(a, b).ravel()
    half = max(round(span / 10), 1) * 5
    counts = [int(np.sum((d >= e) & (d < e + 10)))
              for e in range(-half, half, 10)]
    return -half + 10 * counts.index(max(counts)) + 5


@settings(max_examples=150, deadline=None)
@given(a=sorted_times(span=13_000), b=sorted_times(span=13_000),
       origin=ORIGINS, arm_delay=st.integers(0, 1500),
       pad=st.tuples(st.integers(0, 50), st.integers(0, 50)), caps=CAPS)
@example(a=np.array([0]), b=np.array([100, 200]), origin=0, arm_delay=0,
         pad=(0, 0), caps=None)
@example(a=np.array([0]), b=np.array([-4000, 3999]), origin=0,
         arm_delay=1001, pad=(0, 0), caps=None)
def test_peak_ps_is_the_first_fullest_10ps_bin(a, b, origin, arm_delay, pad,
                                               caps):
    # the two-fold and g2 span, and peak_areas' Franson span max(8 D, 8000)
    a, b = a + origin, b + origin
    for span in {8000, max(8 * arm_delay, 8000)}:
        lo, hi = tcspc.peak_span(0, 0, 0, calibration_span_ps=span)
        with pytest.MonkeyPatch.context() as mp:
            chunk_caps(mp, caps)
            delays = delay_histogram(a, b, lo - pad[0], hi + pad[1])
        assert delays.peak_ps(span) == ref_peak_ps(a, b, span)
        for short in ((lo + 1, hi), (lo, hi - 1)):
            with pytest.raises(ValueError, match="outside the gathered"):
                delay_histogram(a, b, *short).peak_ps(span)


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
    n = len(base)
    assert two_fold_metrics(tcspc.PairFold(n, n, s.duration_ps, full)) \
        == two_fold_metrics(s)
    short = delay_histogram(base, base + 200, -4000, 3999)
    with pytest.raises(ValueError, match="outside the gathered"):
        two_fold_metrics(tcspc.PairFold(n, n, s.duration_ps, short))
    with pytest.raises(ValueError, match="outside the gathered"):
        short.peak_ps(8020)
    assert short.peak_ps() == 205
    config = UmiConfig()
    with pytest.raises(ValueError, match="outside the gathered"):
        peak_areas(short, config)
    assert peak_areas(delay_histogram(base, base + 200,
                                      *peak_areas_span(config)),
                      config) == (0, len(base), 0)


@pytest.mark.parametrize("fold", [
    lambda: two_fold_metrics([]),
    lambda: tcspc.fold_delays(iter([]), 0, 1, *tcspc.two_fold_span(800)),
    lambda: EventStream.from_blocks([], {}),
], ids=["two_fold_metrics", "fold_delays", "from_blocks"])
def test_an_empty_block_sequence_raises(fold):
    with pytest.raises(ValueError, match="no blocks"):
        fold()


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
    n = len(base)
    assert two_fold_metrics(tcspc.PairFold(n, n, s.duration_ps, delays),
                            window_ps=800) == alone
    assert calls == []


# --- memory -----------------------------------------------------------------


def traced_peak(fn):
    """(fn(), peak bytes allocated while it ran)."""
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def pair_stream(n_pairs, seed):
    """n_pairs pairs 200 ps apart at 2 MHz: 2 * n_pairs events."""
    t = np.sort(np.random.default_rng(seed).integers(
        0, n_pairs * 500_000, n_pairs))
    return EventStream({0: t, 1: t + 200}, n_pairs * 500_000 + 200)


def test_two_fold_peak_does_not_grow_with_the_stream():
    # above its input, two_fold_metrics holds its 0.87 MB delay histogram
    # and a chunk of coincidences(), with the last chunk's pairs: 6.2 MB at
    # both sizes.  With chunks of 2^20 events and 2^22 pairs the extra peak
    # grew from 11.5 MB at 0.3 M events to 79.5 MB at 4 M.
    small, large = pair_stream(150_000, 1), pair_stream(2_000_000, 2)
    (res_small, peak_small), (res_large, peak_large) = (
        traced_peak(lambda: two_fold_metrics(s)) for s in (small, large))
    assert res_small.n12 >= 150_000 and res_large.n12 >= 2_000_000
    lo, hi = tcspc.two_fold_span(800)
    hist_bytes = 8 * (hi - lo + 1)
    assert hist_bytes < peak_small < hist_bytes + 4 * 8 * tcspc._CHUNK_PAIRS
    assert peak_large < peak_small + 128_000


def test_delay_histogram_peak_is_its_counts_and_one_chunk(monkeypatch):
    # a 2^22-bin span read in about 400 chunks: a bincount per chunk as
    # long as the span would take twice counts.nbytes
    monkeypatch.setattr(tcspc, "_CHUNK_EVENTS", 1 << 10)
    monkeypatch.setattr(tcspc, "_CHUNK_PAIRS", 1 << 12)
    rng = np.random.default_rng(3)
    a = np.sort(rng.integers(0, 10 ** 9, 20_000))
    b = np.sort(rng.integers(0, 10 ** 9, 20_000))
    lo, hi = -(1 << 21), (1 << 21) - 1
    delays, peak = traced_peak(lambda: delay_histogram(a, b, lo, hi))
    assert delays.counts.nbytes == 8 << 22
    assert delays.counts.sum() > 300 * (1 << 12)  # many full chunks
    assert peak < delays.counts.nbytes + 1_000_000


# --- the two-fold fold over blocks ------------------------------------------


@st.composite
def blocked_streams(draw):
    """(whole stream, its blocks): three channels of equal and straddling
    times, cut at record indices of the merged stream as a file's blocks
    are (equal times may fall on both sides of an edge, and blocks may be
    empty) or at times as generation's blocks are."""
    n = draw(st.integers(0, 30))
    times = np.sort(np.array(draw(st.lists(st.integers(0, 3000), min_size=n,
                                           max_size=n)), dtype=np.int64))
    ch = np.array(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)),
                  dtype=np.uint8)
    order = np.lexsort((ch, times))
    ch, times = ch[order], times[order]
    duration = 3001
    whole = EventStream.from_merged(ch, times, duration)
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=8)))
    blocks = []
    if draw(st.booleans()):
        for lo, hi in zip([0] + cuts, cuts + [n]):
            start = int(times[lo]) if lo < n else duration
            part = EventStream.from_merged(ch[lo:hi], times[lo:hi], duration)
            part.start_ps = start
            blocks.append(part)
    else:
        edges = sorted(set(draw(st.lists(st.integers(1, 3000), max_size=8))))
        for lo, hi in zip([0] + edges, edges + [duration]):
            keep = (times >= lo) & (times < hi)
            part = EventStream.from_merged(ch[keep], times[keep], hi)
            part.start_ps = lo
            blocks.append(part)
    return whole, blocks


STRADDLE = (EventStream.from_merged(np.array([0, 1], dtype=np.uint8),
                                    np.array([99, 101], dtype=np.int64), 200),
            [EventStream({0: np.array([99], dtype=np.int64)}, 100),
             EventStream({1: np.array([101], dtype=np.int64)}, 200,
                         start_ps=100)])
TIES = (EventStream.from_merged(np.array([0, 1, 0, 1], dtype=np.uint8),
                                np.array([7, 7, 7, 7], dtype=np.int64), 8),
        [EventStream({0: np.array([7], dtype=np.int64)}, 8, start_ps=7),
         EventStream({}, 8, start_ps=7),
         EventStream({1: np.array([7], dtype=np.int64),
                      0: np.array([7], dtype=np.int64)}, 8, start_ps=7),
         EventStream({1: np.array([7], dtype=np.int64)}, 8, start_ps=7)])


@settings(max_examples=300, deadline=None)
@given(stream=blocked_streams(), lo=st.integers(-400, 400),
       width=st.integers(0, 500), caps=CAPS)
@example(stream=STRADDLE, lo=-5, width=10, caps=None)
@example(stream=STRADDLE, lo=2, width=0, caps=(1, 1))
@example(stream=TIES, lo=0, width=0, caps=None)
@example(stream=TIES, lo=-1, width=2, caps=(1, 1))
def test_fold_over_blocks_matches_the_whole_stream(stream, lo, width, caps):
    whole, blocks = stream
    a, b = whole.channel_times(0), whole.channel_times(1)
    with pytest.MonkeyPatch.context() as mp:
        chunk_caps(mp, caps)
        fold = tcspc.fold_delays(iter(blocks), 0, 1, lo, lo + width)
    want = delay_histogram(a, b, lo, lo + width)
    assert np.array_equal(fold.delays.counts, want.counts)
    assert fold.delays.lo_ps == lo
    assert (fold.n_a, fold.n_b, fold.duration_ps) == (
        len(a), len(b), whole.duration_ps)
    # the same metrics as in memory, for windows inside the toy span
    kw = dict(window_ps=30, offset_min_ps=40, offset_max_ps=300)
    assert str(two_fold_metrics(iter(blocks), **kw)) == str(
        two_fold_metrics(whole, **kw))


def reference_gather(times_a, times_b, lo_ps, hi_ps):
    """The argsort gather that key packing replaced, kept verbatim."""
    a_parts, delay_parts = [], []
    for b_idx, a_idx in tcspc.coincidences(times_b, times_a, -hi_ps, -lo_ps):
        a_parts.append(a_idx)
        delay_parts.append(times_b[b_idx] - times_a[a_idx])
    if not a_parts:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    a_idx = np.concatenate(a_parts)
    del a_parts
    delays = np.concatenate(delay_parts)
    del delay_parts
    order = np.argsort(a_idx, kind="stable")
    a_idx = a_idx[order]
    delays = delays[order]
    return a_idx, delays


@settings(max_examples=300, deadline=None)
@given(a=sorted_times(span=300), b=sorted_times(span=300), origin=ORIGINS,
       lo=st.integers(-400, 400), width=st.integers(-2, 600), caps=CAPS)
@example(a=np.array([5, 5, 9]), b=np.array([6, 6, 6, 9, 9]), origin=0,
         lo=-10, width=20, caps=(1, 1))
@example(a=np.array([5]), b=np.array([500]), origin=0, lo=0, width=10,
         caps=None)
def test_gather_matches_the_argsort_reference(a, b, origin, lo, width, caps):
    a, b = a + origin, b + origin
    with pytest.MonkeyPatch.context() as mp:
        chunk_caps(mp, caps)
        got = tcspc._gather(a, b, lo, lo + width)
        want = reference_gather(a, b, lo, lo + width)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype == np.int64
        assert np.array_equal(g, w)


def test_gather_packing_limit():
    # a span of 2^61 ps leaves 63 - 62 = 1 bit for the a index: two a
    # events fit, three do not
    a, b = np.array([0, 1, 2], dtype=np.int64), np.array([3], dtype=np.int64)
    a_idx, delays = tcspc._gather(a[:2], b, 0, 2 ** 61)
    assert a_idx.tolist() == [0, 1] and delays.tolist() == [3, 2]
    with pytest.raises(ValueError, match="do not fit"):
        tcspc._gather(a, b, 0, 2 ** 61)
    with pytest.raises(ValueError, match="do not fit"):
        tcspc._gather(a[:2], b, 0, 2 ** 62)
    assert tcspc._gather(a[:1], b, 0, 2 ** 62)[1].tolist() == [3]


def test_gather_peak_is_16_bytes_per_pair(monkeypatch):
    # the argsort gather held 32 B per pair: the pieces, the sort order and
    # the reordered copies.  Small chunks keep coincidences' own arrays
    # out of the figure.
    monkeypatch.setattr(tcspc, "_CHUNK_EVENTS", 1 << 10)
    monkeypatch.setattr(tcspc, "_CHUNK_PAIRS", 1 << 12)
    rng = np.random.default_rng(5)
    a = np.sort(rng.integers(0, 10 ** 9, 100_000))
    b = np.sort(rng.integers(0, 10 ** 9, 50_000))
    (a_idx, delays), peak = traced_peak(
        lambda: tcspc._gather(a, b, -20_000, 20_000))
    n_pairs = len(a_idx)
    assert n_pairs > 150_000
    assert peak < 16 * n_pairs + 500_000
    _, ref_peak_bytes = traced_peak(lambda: reference_gather(
        a, b, -20_000, 20_000))
    assert ref_peak_bytes > 28 * n_pairs
