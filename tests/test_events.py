import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diskspdc import events
from diskspdc.cli import main
from diskspdc.events import (
    EventFormatError,
    EventStream,
    arm_transmission,
    generate_events,
    read_events,
    write_events,
)
from diskspdc.franson import UmiConfig, apply_umi
from diskspdc.tcspc import delay_histogram

from streams import (from_merged, merged, reference_routes, short_blocks,
                     source_model)

# saturating rate law at 27.3 uW, slope 5.13 MHz/uW, ceiling 5385 MHz,
# frozen from 140.049 / (1 + 140.049/5385)
RATE_AT_27P3 = 136.49903647913348


def quiet_model(**kw):
    """Lossless, jitter-free, dark-free defaults for deterministic checks."""
    return source_model(**(dict(pgr_slope_mhz_per_uw=1.0,
                                detector_efficiency=1.0, dark_rate_hz=0.0,
                                jitter_sigma_ps=0.0) | kw))


def test_saturating_rate_law():
    m = source_model(pump_power_uw=27.3, pgr_slope_mhz_per_uw=5.13,
                     saturation_rate_mhz=5385.0)
    assert m.pair_rate_mhz == pytest.approx(RATE_AT_27P3, rel=1e-12)
    linear = source_model(pump_power_uw=27.3, pgr_slope_mhz_per_uw=5.13)
    assert linear.pair_rate_mhz == pytest.approx(5.13 * 27.3, rel=1e-12)


def test_arm_transmission():
    assert arm_transmission(()) == 1.0
    assert arm_transmission((), 0.85) == 0.85
    assert arm_transmission((3.0, 3.0), 0.85) == pytest.approx(
        0.2135103466783143, rel=1e-12)
    assert arm_transmission((2.2, 2.4, 4.0, 8.7, 3.0, 4.0), 0.85) == \
        pytest.approx(0.0031580494473259653, rel=1e-12)
    with pytest.raises(ValueError):
        arm_transmission((-1.0,))
    # each stage is checked, not their sum
    with pytest.raises(ValueError, match="stage losses"):
        arm_transmission((-3.0, 5.0))
    # any iterable of stages, read once
    assert arm_transmission(db for db in (3.0, 3.0)) == \
        arm_transmission((3.0, 3.0))


def test_model_validation():
    with pytest.raises(ValueError):
        source_model(pump_power_uw=-1.0)
    with pytest.raises(ValueError):
        source_model(pgr_slope_mhz_per_uw=0.0)
    with pytest.raises(ValueError):
        source_model(pair_lifetime_ps=0.0)
    with pytest.raises(ValueError):
        source_model(detector_efficiency=0.0)
    with pytest.raises(ValueError):
        source_model(idler_delay_sign=0)
    with pytest.raises(ValueError, match="min_pair_spacing_ps"):
        source_model(min_pair_spacing_ps=-5.0)
    with pytest.raises(ValueError, match="signal_losses_db"):
        source_model(signal_losses_db=(-3.0, 5.0))
    with pytest.raises(ValueError, match="idler_losses_db"):
        source_model(idler_losses_db=(1.0, -0.5))
    with pytest.raises(ValueError):
        source_model(signal_channels=(0,), idler_channels=(0,))
    with pytest.raises(ValueError):
        source_model(signal_channels=())
    with pytest.raises(ValueError):
        source_model(signal_channels=(0, 300), idler_channels=(1,))


def test_generation_is_deterministic_across_chunks():
    # 3e6 pairs, every arm drawn in one piece: the same seed repeats the
    # stream exactly and another seed does not
    m = quiet_model(pgr_slope_mhz_per_uw=3.0)
    a = generate_events(m, 1.0, seed=42)
    b = generate_events(m, 1.0, seed=42)
    assert a.n_pairs_generated == b.n_pairs_generated > 2 ** 21
    a_ch, a_t = merged(a)
    b_ch, b_t = merged(b)
    assert np.array_equal(a_ch, b_ch)
    assert np.array_equal(a_t, b_t)
    assert a_ch.dtype == np.uint8
    assert a_t.dtype == np.int64
    c = generate_events(m, 1.0, seed=43)
    assert not np.array_equal(a_t, merged(c)[1])


def test_stream_is_sorted_and_in_range():
    m = quiet_model(dark_rate_hz=200.0, jitter_sigma_ps=40.0,
                    pgr_slope_mhz_per_uw=0.05)
    s = generate_events(m, 0.5, seed=7)
    channels, times = merged(s)
    assert np.all(np.diff(times) >= 0)
    assert times[0] >= 0
    assert times[-1] < s.duration_ps
    assert set(np.unique(channels)) <= {0, 1}


def test_rounded_timestamps_stay_below_duration():
    # 20 GHz of darks in 1 ns: rounding can reach t == duration_ps, which
    # the cut on the rounded integer times must drop
    m = source_model(pump_power_uw=0, dark_rate_hz=2e10)
    for seed in range(200):
        s = generate_events(m, 1e-9, seed=seed)
        times = merged(s)[1]
        assert np.all(times >= 0)
        assert np.all(times < s.duration_ps)


def test_pair_count_follows_rate():
    m = quiet_model(pgr_slope_mhz_per_uw=2.0)
    s = generate_events(m, 0.5, seed=11)
    expect = 1e6
    assert abs(s.n_pairs_generated - expect) < 5.0 * np.sqrt(expect)
    # lossless: every pair contributes one click per arm
    assert s.n_channel(0) == s.n_pairs_generated
    assert abs(s.n_channel(1) - s.n_pairs_generated) < 5  # boundary clips


def test_truth_counters_add_up():
    # a 0.1 ms idler lifetime pushes about 25 idlers past the end
    m = quiet_model(pgr_slope_mhz_per_uw=1.0, dark_rate_hz=5000.0,
                    jitter_sigma_ps=40.0, pair_lifetime_ps=1e8,
                    signal_losses_db=(3.0,),
                    idler_losses_db=(6.0,), signal_channels=(0, 2),
                    idler_channels=(1,))
    s = generate_events(m, 0.5, seed=29)
    truth = s.truth
    split = (truth.pairs_both, truth.pairs_signal_only,
             truth.pairs_idler_only, truth.pairs_neither)
    assert sum(split) == s.n_pairs_generated
    assert truth.detected[0] + truth.detected[2] == (truth.pairs_both
                                                     + truth.pairs_signal_only)
    assert truth.detected[1] == truth.pairs_both + truth.pairs_idler_only
    for ch in (0, 1, 2):
        assert s.n_channel(ch) == (truth.detected[ch] + truth.dark[ch]
                                   - truth.clipped[ch])
    assert truth.clipped[1] > 0
    lam = 1e6 * 0.5
    t_s, t_i = m.signal_transmission, m.idler_transmission
    expect = lam * t_s * t_i
    assert abs(truth.pairs_both - expect) < 5.0 * np.sqrt(expect)


def test_losses_thin_each_arm():
    m = quiet_model(pgr_slope_mhz_per_uw=1.0,
                    signal_losses_db=(10.0,), idler_losses_db=(3.0,))
    s = generate_events(m, 0.5, seed=3)
    n = s.n_pairs_generated
    for ch, t in ((0, 0.1), (1, 10 ** -0.3)):
        got = s.n_channel(ch)
        assert abs(got - n * t) < 5.0 * np.sqrt(n * t * (1 - t) + 1)


def test_idler_delay_sign():
    from diskspdc.tcspc import delay_histogram, peak_span

    for sign in (+1, -1):
        m = quiet_model(pgr_slope_mhz_per_uw=0.1, idler_delay_sign=sign,
                        pair_lifetime_ps=400.0)
        s = generate_events(m, 0.2, seed=5)
        delays = delay_histogram(s.channel_times(0), s.channel_times(1),
                                 *peak_span(0, 0, 0))
        # the delay histogram is one-sided, so its peak carries the sign
        assert np.sign(delays.peak_ps()) == sign


def test_renewal_source_enforces_dead_time():
    m = quiet_model(pgr_slope_mhz_per_uw=0.1, min_pair_spacing_ps=1e6,
                    pair_lifetime_ps=1.0)
    s = generate_events(m, 0.2, seed=9)
    spacings = np.diff(s.channel_times(0))
    assert len(spacings) > 100
    assert spacings.min() >= 1e6 - 2  # integer rounding


def test_channel_splitting():
    m = quiet_model(pgr_slope_mhz_per_uw=0.5,
                    signal_channels=(0, 2), idler_channels=(1,))
    s = generate_events(m, 0.2, seed=13)
    n0, n2 = s.n_channel(0), s.n_channel(2)
    total = n0 + n2
    assert total == s.n_pairs_generated
    assert abs(n0 - total / 2) < 5.0 * np.sqrt(total) / 2


def test_darks_only():
    m = quiet_model(pump_power_uw=0.0, dark_rate_hz=1000.0)
    s = generate_events(m, 1.0, seed=17)
    assert s.n_pairs_generated == 0
    for ch in (0, 1):
        assert abs(s.n_channel(ch) - 1000) < 5.0 * np.sqrt(1000)


def test_zero_duration():
    s = generate_events(quiet_model(), 0.0, seed=1)
    assert len(s) == 0
    for bad in (-1.0, np.inf, np.nan):
        with pytest.raises(ValueError):
            generate_events(quiet_model(), bad, seed=1)


def test_binary_round_trip(tmp_path):
    m = quiet_model(pgr_slope_mhz_per_uw=0.02, dark_rate_hz=50.0)
    s = generate_events(m, 0.1, seed=21)
    path = tmp_path / "events.ttps"
    write_events(s, path)
    back = read_events(path, duration_ps=s.duration_ps)
    channels, times = merged(s)
    back_channels, back_times = merged(back)
    assert np.array_equal(back_channels, channels)
    assert np.array_equal(back_times, times)
    assert back.duration_ps == s.duration_ps
    # without the duration hint the last timestamp bounds the stream
    assert read_events(path).duration_ps == int(times[-1]) + 1


def test_csv_round_trip(tmp_path):
    m = quiet_model(pgr_slope_mhz_per_uw=0.01)
    s = generate_events(m, 0.1, seed=23)
    path = tmp_path / "events.csv"
    write_events(s, path)
    text = path.read_text().splitlines()
    assert text[0] == "channel,timestamp_ps"
    back = read_events(path, duration_ps=s.duration_ps)
    channels, times = merged(s)
    back_channels, back_times = merged(back)
    assert np.array_equal(back_channels, channels)
    assert np.array_equal(back_times, times)


def test_format_errors(tmp_path):
    p = tmp_path / "bad.ttps"
    p.write_bytes(b"\x00\x01")
    with pytest.raises(EventFormatError):
        read_events(p)
    good = tmp_path / "good.ttps"
    s = generate_events(quiet_model(pgr_slope_mhz_per_uw=0.001), 0.1, seed=2)
    write_events(s, good)
    raw = good.read_bytes()
    (tmp_path / "magic.ttps").write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(EventFormatError):
        read_events(tmp_path / "magic.ttps")
    (tmp_path / "cut.ttps").write_bytes(raw[:-3])
    with pytest.raises(EventFormatError):
        read_events(tmp_path / "cut.ttps")
    # version field sits after the 4-byte magic
    (tmp_path / "ver.ttps").write_bytes(raw[:4] + b"\x63\x00\x00\x00"
                                        + raw[8:])
    with pytest.raises(EventFormatError):
        read_events(tmp_path / "ver.ttps")


def test_stream_helpers():
    s = from_merged(np.array([0, 1, 0], dtype=np.uint8),
                    np.array([10, 20, 30], dtype=np.int64), duration_ps=100)
    assert len(s) == 3
    assert s.n_channel(0) == 2
    assert list(s.channel_times(1)) == [20]


def test_unsorted_csv_is_rejected(tmp_path):
    # 1000 true +500 ps pairs, rows shuffled: the binary searches that count
    # coincidences assume sorted times, so the counts would be nonsense
    base = np.arange(1000, dtype=np.int64) * 10 ** 6
    rows = [(0, t) for t in base] + [(1, t + 500) for t in base]
    order = np.random.default_rng(7).permutation(len(rows))
    path = tmp_path / "shuffled.csv"
    path.write_text("channel,timestamp_ps\n" + "".join(
        f"{rows[k][0]},{rows[k][1]}\n" for k in order))
    with pytest.raises(EventFormatError, match="time-sorted"):
        read_events(path)
    (tmp_path / "huge.csv").write_text("channel,timestamp_ps\n0,"
                                       f"{2 ** 63}\n")
    with pytest.raises(EventFormatError):
        read_events(tmp_path / "huge.csv")
    # a channel of 256 would otherwise read back as channel 0
    (tmp_path / "chan.csv").write_text("channel,timestamp_ps\n256,5\n")
    with pytest.raises(EventFormatError, match="channel"):
        read_events(tmp_path / "chan.csv")


def test_binary_timestamp_past_int64_is_rejected(tmp_path):
    s = from_merged(np.array([0, 1], dtype=np.uint8),
                    np.array([5, 9], dtype=np.int64), duration_ps=10)
    path = tmp_path / "events.ttps"
    write_events(s, path)
    raw = bytearray(path.read_bytes())
    # last record: u8 channel then u64 LE time; set its top bit
    raw[-1] |= 0x80
    path.write_bytes(bytes(raw))
    with pytest.raises(EventFormatError, match="int64"):
        read_events(path)
    assert main(["coinc", "--events", str(path)]) == 3


def test_negative_timestamps_are_rejected_on_both_sides(tmp_path):
    # the CSV reader used to accept 0,-100, and the writer then put it in
    # a .ttps record as 2^64 - 100, which its own reader rejects
    path = tmp_path / "neg.csv"
    path.write_text("channel,timestamp_ps\n0,-100\n1,200\n")
    with pytest.raises(EventFormatError, match="negative"):
        read_events(path)
    assert main(["coinc", "--events", str(path)]) == 3
    good = EventStream({0: np.array([5], dtype=np.int64)}, 10)
    bad = EventStream({0: np.array([-100, 15], dtype=np.int64),
                       1: np.array([12], dtype=np.int64)}, 20, start_ps=10)
    for name in ("neg.ttps", "neg.csv"):
        with pytest.raises(ValueError, match="negative"):
            write_events(bad, tmp_path / name)
    # raised before the block that holds one is written
    with pytest.raises(ValueError, match="negative"):
        write_events(iter([good, bad]), path)
    assert path.read_text() == "channel,timestamp_ps\n0,5\n"


# --- per-channel streams against the merged order ---------------------------


@st.composite
def merged_events(draw, max_size=40, t_min=0, t_max=30, n_channels=4):
    """Events with many equal times, in (time, channel) order."""
    n = draw(st.integers(0, max_size))
    ch = np.array(draw(st.lists(st.integers(0, n_channels - 1), min_size=n,
                                max_size=n)), dtype=np.uint8)
    t = np.array(draw(st.lists(st.integers(t_min, t_max), min_size=n,
                               max_size=n)), dtype=np.int64)
    order = np.lexsort((ch, t))
    return ch[order], t[order]


@settings(max_examples=200, deadline=None)
@given(ch=st.lists(st.integers(0, 3), max_size=40),
       t=st.lists(st.integers(0, 30), max_size=40))
def test_merged_view_is_the_lexsort_of_the_events(ch, t):
    n = min(len(ch), len(t))
    ch = np.array(ch[:n], dtype=np.uint8)
    t = np.array(t[:n], dtype=np.int64)
    s = EventStream({c: np.sort(t[ch == c]) for c in (3, 0, 2, 1)}, 100)
    order = np.lexsort((ch, t))
    channels, times = merged(s)
    assert np.array_equal(channels, ch[order])
    assert np.array_equal(times, t[order])
    assert channels.dtype == np.uint8 and times.dtype == np.int64
    assert len(s) == n


@settings(max_examples=200, deadline=None)
@given(events=merged_events())
def test_from_merged_then_merged_is_the_identity(events):
    ch, t = events
    s = from_merged(ch, t, 100)
    for c in s.times:
        assert np.all(np.diff(s.channel_times(c)) >= 0)
    channels, times = merged(s)
    assert np.array_equal(channels, ch)
    assert np.array_equal(times, t)


@settings(max_examples=100, deadline=None)
@given(events=merged_events(t_max=2 ** 63 - 1))
def test_write_read_write_is_byte_identical(tmp_path_factory, events):
    ch, t = events
    folder = tmp_path_factory.mktemp("files")
    s = from_merged(ch, t, 2 ** 63 - 1)
    for name in ("a.ttps", "a.csv"):
        first, second = folder / name, folder / ("again_" + name)
        write_events(s, first)
        write_events(read_events(first), second)
        assert first.read_bytes() == second.read_bytes()


def test_routing_keeps_channels_sorted_and_matches_the_reference():
    m = quiet_model(pgr_slope_mhz_per_uw=0.5, jitter_sigma_ps=40.0,
                    signal_channels=(0, 2), idler_channels=(1,))
    s = generate_events(m, 0.05, seed=31)
    routed = apply_umi(s, UmiConfig(), seed=5)
    assert sorted(routed.times) == [0, 1, 2]
    routes = reference_routes(s, UmiConfig(), 5)
    for c in (0, 1, 2):
        t, long = routed.times[c], routes[c]
        assert np.all(np.diff(t) >= 0)
        # each event keeps its time or gains the arm delay, by its route
        assert np.array_equal(t, np.sort(s.times[c] + 1600 * long))
        assert 0 < long.sum() < len(long)


@pytest.mark.filterwarnings("error")
def test_empty_csv_reads_without_a_warning(tmp_path):
    empty = from_merged(np.zeros(0, dtype=np.uint8),
                        np.zeros(0, dtype=np.int64), 10)
    for text in (None, "channel,timestamp_ps\n", "channel,timestamp_ps\n\n"):
        path = tmp_path / "empty.csv"
        if text is None:
            write_events(empty, path)
        else:
            path.write_text(text)
        back = read_events(path)
        assert len(back) == 0 and back.duration_ps == 0
        assert read_events(path, duration_ps=10).duration_ps == 10


# --- the Poisson draw against the per-photon model --------------------------
#
# A Poisson source times each detected pair by its signal, a uniform, and
# its idler's delay from it, sign * Exp(tau) plus a Gaussian of sigma *
# sqrt(2); a photon detected alone is a uniform, as a dark is.  Moving each
# point of a homogeneous Poisson process by an independent amount leaves it
# homogeneous, so the per-photon model below, which jitters every photon on
# its own, gives the same stream away from its two ends.  At the ends it
# loses photons jittered outside [0, duration), which a steady source
# observed through the acquisition window does not.  Every bound is Z = 5
# standard deviations of a count.

Z = 5.0


def per_photon_stream(model, duration_s, seed):
    """The per-photon model in one draw: each detected photon at its
    pair's uniform emission time plus its own Gaussian jitter, the idler
    also delayed by sign * Exp(tau), and uniform darks, rounded, clipped
    to [0, duration) and sorted."""
    rng = np.random.default_rng(seed)
    duration_ps = round(duration_s * 1e12)
    kinds = events._pair_kinds(model)
    pairs = rng.poisson(model.pair_rate_mhz * 1e-6 * duration_ps
                        * np.array([p for *_, p in kinds]))
    photons = {c: [] for c in events._channels(model)}
    sigma = model.jitter_sigma_ps
    for (s, i, _), n in zip(kinds, pairs.tolist()):
        t = rng.uniform(0.0, duration_ps, n)
        if s is not None:
            photons[s].append(t + rng.normal(0.0, sigma, n))
        if i is not None:
            photons[i].append(t + model.idler_delay_sign * rng.exponential(
                model.pair_lifetime_ps, n) + rng.normal(0.0, sigma, n))
    times = {}
    for c, p in photons.items():
        p.append(rng.uniform(0.0, duration_ps, rng.poisson(
            model.dark_rate_hz * duration_ps * 1e-12)))
        t = np.rint(np.concatenate(p)).astype(np.int64)
        times[c] = np.sort(t[(t >= 0) & (t < duration_ps)])
    return EventStream(times, duration_ps)


def delay_cdf(x, model):
    """P(idler - signal <= x) for sign * Exp(tau) + Normal(0, 2 sigma^2)."""
    if model.idler_delay_sign < 0:
        return 1.0 - delay_cdf(-x, dataclasses.replace(model,
                                                       idler_delay_sign=1))
    s, tau = math.sqrt(2.0) * model.jitter_sigma_ps, model.pair_lifetime_ps
    if x < -12 * s:
        return 0.0
    return phi(x / s) - math.exp(-x / tau + s * s / (2 * tau * tau)) \
        * phi(x / s - s / tau)


def phi(z):
    """The standard normal CDF."""
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


# integer delay bands [lo, hi) of both signs, 50 ps to 1.4 ns wide
BANDS = (-2000, -600, -300, -150, -50, 0, 50, 150, 300, 600, 2000)


def band_counts(stream):
    """Signal-idler pairs (channels 0, 1) at integer delays in each band."""
    hist = delay_histogram(stream.channel_times(0), stream.channel_times(1),
                           BANDS[0], BANDS[-1] - 1)
    return np.add.reduceat(hist.counts, np.array(BANDS[:-1]) - BANDS[0])


@pytest.mark.parametrize("sign", [+1, -1])
def test_pair_delays_follow_the_closed_form(sign):
    # 2e5 lossless pairs at 0.2 MHz: sigma * sqrt(2) = 141 ps against a
    # 200 ps lifetime, so both parts of the delay show.  Accidentals, about
    # 0.2 MHz squared times the band, add to each band's expectation
    m = quiet_model(pgr_slope_mhz_per_uw=0.2, jitter_sigma_ps=100.0,
                    pair_lifetime_ps=200.0, idler_delay_sign=sign)
    s = generate_events(m, 1.0, seed=41)
    n = s.truth.pairs_both
    rate = s.n_channel(0) * s.n_channel(1) / s.duration_ps ** 2
    got = band_counts(s)
    for (lo, hi), count in zip(zip(BANDS, BANDS[1:]), got.tolist()):
        p = delay_cdf(hi - 0.5, m) - delay_cdf(lo - 0.5, m)
        accidental = rate * s.duration_ps * (hi - lo)
        sd = math.sqrt(n * p * (1 - p) + accidental)
        assert abs(count - n * p - accidental) <= Z * sd, (lo, hi)
    # the per-photon model's bands, from another draw, agree
    want = band_counts(per_photon_stream(m, 1.0, seed=42))
    assert np.all(np.abs(got - want) <= Z * np.sqrt(got + want))


# 1e12 pairs/s through 20 dB on each arm: 99 % of each channel's events
# are photons detected alone, 1e10/s, beside 1e9 darks/s, jittered by 1 ns
SINGLES = source_model(pump_power_uw=1.0, pgr_slope_mhz_per_uw=1e6,
                       signal_losses_db=(20.0,), idler_losses_db=(20.0,),
                       detector_efficiency=1.0, dark_rate_hz=1e9,
                       jitter_sigma_ps=1000.0)


def test_singles_are_flat_across_block_edges_and_to_both_ends():
    # 100 streams of 0.1 us in blocks of 2^14 ps, 6 interior edges each.
    # Bins of 1 ns: 3 at each end, and 3 each side of each interior edge
    # but the last, 1.7 ns from the end.  Both arms lose 20 dB, so each
    # channel expects the same count in a bin
    w, duration_s, n_streams = 1000, 1e-7, 100
    per_ps = (SINGLES.pair_rate_mhz * 1e-6 * SINGLES.signal_transmission
              + SINGLES.dark_rate_hz * 1e-12)
    with short_blocks(256, 1 << 10):
        duration_ps, block, n_blocks = events._plan(SINGLES, duration_s)
        assert (block, n_blocks) == (1 << 14, 7)
        streams = [generate_events(SINGLES, duration_s, seed)
                   for seed in range(n_streams)]
    ends = [0, w, 2 * w, duration_ps - 3 * w, duration_ps - 2 * w,
            duration_ps - w]
    interior = [k * block + j * w for j in range(-3, 3)
                for k in range(1, n_blocks - 1)]

    def bins(stream_list, c, starts):
        return np.array([sum(int(np.sum((t >= a) & (t < a + w))) for t in (
            s.channel_times(c) for s in stream_list)) for a in starts])

    want = n_streams * per_ps * w
    for c in (0, 1):
        counts = bins(streams, c, ends + interior)
        assert np.all(np.abs(counts - want) <= Z * math.sqrt(want)), c
    # the per-photon model is short in the bins at either end: its
    # photons jittered outside [0, duration) are lost
    reference = [per_photon_stream(SINGLES, duration_s, seed)
                 for seed in range(n_streams)]
    for c in (0, 1):
        counts = bins(reference, c, [0, duration_ps - w])
        assert np.all(counts < want - Z * math.sqrt(want)), c


@pytest.mark.parametrize("sign", [+1, -1])
def test_only_pair_idlers_leave_their_blocks(sign):
    # a signal, a photon detected alone or a dark is a uniform in its
    # block: no signal channel hands an event down, one handed up was
    # rounded to the next block's start, and none is clipped.  The idler
    # channel's clipped events are pair idlers delayed outside [0,
    # duration): R_both * E|delay| of them
    m = source_model(pump_power_uw=1.0, pgr_slope_mhz_per_uw=1e4,
                     signal_losses_db=(3.0,), idler_losses_db=(3.0,),
                     detector_efficiency=1.0, dark_rate_hz=1e9,
                     jitter_sigma_ps=1000.0, pair_lifetime_ps=2e4,
                     idler_delay_sign=sign, signal_channels=(0, 2),
                     idler_channels=(1,))
    with short_blocks(1 << 14, 1 << 20):
        duration_ps, block, n_blocks = events._plan(m, 1e-5)
        assert n_blocks > 5
        for k in range(n_blocks):
            _, parts = events._handed(events._Draws.of(m), 7, k, block,
                                      duration_ps)
            for c in (0, 2):
                down, _, up = parts[c]
                assert len(down) == 0
                assert np.all(up == (k + 1) * block)
        truth = generate_events(m, 1e-5, seed=7).truth
    assert truth.clipped[0] == truth.clipped[2] == 0
    # E|delay| = tau + 2 * (the mean of the delay's part below 0)
    x = np.arange(-15000, 0) + 0.5
    lag = dataclasses.replace(m, idler_delay_sign=1)
    below = sum(delay_cdf(v, lag) for v in x)
    want = (m.pair_rate_mhz * 1e-6 * m.signal_transmission
            * m.idler_transmission * (m.pair_lifetime_ps + 2 * below))
    assert abs(truth.clipped[1] - want) <= Z * math.sqrt(want)
