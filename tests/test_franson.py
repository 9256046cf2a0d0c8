import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diskspdc.config import InvariantError, parse_config
from diskspdc.events import (EventStream, SourceModel, event_blocks,
                             generate_events)
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
    routed_blocks,
)
from diskspdc.tcspc import delay_histogram, fold_delays, window_edges

from streams import merged, short_blocks

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
    _, times = merged(s)
    _, short_times = merged(short_only)
    assert np.array_equal(short_times, times)
    assert all_tags(short_only).max() == 0
    long_only = apply_umi(s, UmiConfig(arm_transmissions=(0.0, 1.0)),
                          seed=1)
    _, long_times = merged(long_only)
    assert np.array_equal(long_times, times + 1600)
    assert all_tags(long_only).min() == 1
    assert long_only.duration_ps == s.duration_ps + 1600


def test_umi_routing_balance_and_determinism():
    s = pair_stream(duration_s=0.2)
    out = apply_umi(s, CFG, seed=9)
    again = apply_umi(s, CFG, seed=9)
    _, times = merged(out)
    _, again_times = merged(again)
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


@pytest.mark.parametrize("arm_delay_ns", [1.6, 1.2345, 0.0025, 0.004])
def test_widest_admitted_window_counts_three_disjoint_slices(arm_delay_ns):
    # the config admits windows narrower than the arm delay in whole ps
    delay_ps = int(round(arm_delay_ns * 1e3))
    text = f"[umi]\narm_delay_ns = {arm_delay_ns!r}\npostselect_window_ps = "
    umi = parse_config(text + f"{delay_ps - 1}\n").umi
    with pytest.raises(InvariantError, match="postselect_window_ps must be "
                       "narrower than the arm delay"):
        parse_config(text + f"{delay_ps}\n")
    config = UmiConfig(arm_delay_ns=umi.arm_delay_ns,
                       postselect_window_ps=int(umi.postselect_window_ps))
    # one pair at every whole-ps delay the windows may read, and ten more
    # at 0 ps to place the peak
    lo, hi = peak_areas_span(config)
    a = np.zeros(1, dtype=np.int64)
    b = np.sort(np.concatenate([np.arange(lo, hi + 1), np.zeros(10, int)]))
    delays = delay_histogram(a, b, lo, hi)
    areas = peak_areas(delays, config)
    peak = delays.peak_ps(max(8 * delay_ps, 8000))  # peak_areas' span
    assert abs(peak) <= 5
    edges = [window_edges(peak + k * delay_ps, config.postselect_window_ps)
             for k in (-1, 0, 1)]
    assert edges[0][1] < edges[1][0] and edges[1][1] < edges[2][0]
    assert areas == tuple(int(delay_histogram(a, b, *e).counts.sum())
                          for e in edges)
    assert sum(areas) <= delay_histogram(a, b, edges[0][0],
                                         edges[2][1]).counts.sum()


def test_central_peak_pairs_same_path():
    # low rate: with pairs several microseconds apart no unrelated pair can
    # leak a mismatched tag into a central window
    s = pair_stream(duration_s=0.1, rate_mhz=0.02)
    out = apply_umi(s, CFG, seed=13)
    assert central_peak_is_same_path(out, CFG)
    with pytest.raises(ValueError):
        central_peak_is_same_path(s, CFG)


# --- routing a stream block by block ----------------------------------------


def cut_at(whole, edges):
    """The blocks [lo, hi) of a stream between sorted edges, each ending
    where the next starts, as generation's blocks do."""
    bounds = [0, *edges, whole.duration_ps]
    return whole, [EventStream({c: t[(t >= lo) & (t < hi)]
                                for c, t in whole.times.items()},
                               hi, start_ps=lo)
                   for lo, hi in zip(bounds, bounds[1:])]


def joined_times(blocks, c):
    """The times of channel c over blocks, joined."""
    return np.concatenate([b.channel_times(c) for b in blocks])


def joined_tags(blocks, c):
    """The route tags, as int64, of channel c over apply_umi's blocks,
    joined."""
    return np.concatenate([b.tags.get(c, np.zeros(0, np.uint8))
                           for b in blocks]).astype(np.int64)


# a busy source in blocks of about eight events, at least 4096 ps long
BUSY = SourceModel(pump_power_uw=100.0, dark_rate_hz=1e8,
                   signal_channels=(0, 2), idler_channels=(1,))


@st.composite
def cut_streams(draw, span=400):
    """(whole stream, its blocks): toy events on channels 0-2 with many
    equal times in [0, span], cut at edges anywhere, so blocks may be
    shorter than the arm delay; or a generated stream in short blocks."""
    if draw(st.booleans()):
        with short_blocks(8, 1 << 12):
            blocks = list(event_blocks(BUSY, 1e-7,
                                       draw(st.integers(0, 2 ** 32 - 1))))
        return EventStream({c: np.concatenate([b.times[c] for b in blocks])
                            for c in blocks[0].times},
                           blocks[-1].duration_ps), blocks
    times = {c: np.sort(np.array(draw(st.lists(st.integers(0, span),
                                               max_size=10)), dtype=np.int64))
             for c in draw(st.sets(st.integers(0, 2)))}
    edges = sorted(draw(st.sets(st.integers(1, span), max_size=8)))
    return cut_at(EventStream(times, span + 1), edges)


# long-arm events that land in the next block, merged there with its own;
# equal times routed onto a block edge; blocks of 1 ps against a 5 ps arm
STRADDLE = cut_at(EventStream({0: np.array([99, 105], dtype=np.int64),
                               1: np.array([99, 109], dtype=np.int64)}, 120),
                  [100])
TIES = cut_at(EventStream({0: np.array([7, 7], dtype=np.int64),
                           1: np.array([7], dtype=np.int64)}, 20), [7, 8])
SLIVERS = cut_at(EventStream({0: np.array([3, 4, 4, 6], dtype=np.int64),
                              1: np.array([4, 5], dtype=np.int64)}, 10),
                 list(range(1, 10)))


@settings(max_examples=300, deadline=None)
@given(stream=cut_streams(), delay=st.integers(0, 300) | st.just(1600),
       arms=st.sampled_from([(0.5, 0.5), (1.0, 0.0), (0.0, 1.0),
                             (0.2, 0.7)]),
       seed=st.integers(0, 2 ** 32 - 1), lo=st.integers(-2000, 2000),
       width=st.integers(0, 2000))
@example(stream=STRADDLE, delay=10, arms=(0.0, 1.0), seed=1, lo=-20,
         width=40)
@example(stream=STRADDLE, delay=10, arms=(0.5, 0.5), seed=3, lo=-20,
         width=40)
@example(stream=TIES, delay=1, arms=(0.5, 0.5), seed=2, lo=-1, width=2)
@example(stream=SLIVERS, delay=5, arms=(0.5, 0.5), seed=4, lo=-6,
         width=12)
def test_routed_blocks_match_the_whole_stream(stream, delay, arms, seed, lo,
                                              width):
    whole, blocks = stream
    config = UmiConfig(arm_delay_ns=delay / 1000, arm_transmissions=arms)
    routed = list(routed_blocks(iter(blocks), config, seed))
    # one routed block per block, then the tail, an arm delay long
    assert len(routed) == len(blocks) + 1
    assert [b.start_ps for b in routed[1:]] == [
        b.duration_ps for b in routed[:-1]]
    assert routed[-1].duration_ps == whole.duration_ps + delay
    for b in routed:
        assert b.tags is None
        for c, t in b.times.items():
            assert np.all(np.diff(t) >= 0)
            assert np.all((t >= b.start_ps) & (t < b.duration_ps))
    # the reference: each block routed on its own, block k with the
    # generator of (seed, k)
    alone = [apply_umi(b, config, np.random.SeedSequence(seed, spawn_key=(k,)))
             for k, b in enumerate(blocks)]
    joined = {}
    for c in range(3):
        t = joined[c] = joined_times(routed, c)
        want_t, want_tags = joined_times(alone, c), joined_tags(alone, c)
        # each channel holds the reference's routed events, and undoing
        # each reference event's route gives the stream's back
        assert np.array_equal(t, np.sort(want_t))
        assert np.array_equal(np.sort(want_t - delay * want_tags),
                              whole.channel_times(c))
    fold = fold_delays(iter(routed), 0, 1, lo, lo + width)
    want = delay_histogram(joined[0], joined[1], lo, lo + width)
    assert np.array_equal(fold.delays.counts, want.counts)
    assert (fold.n_a, fold.n_b, fold.duration_ps) == (
        len(joined[0]), len(joined[1]), whole.duration_ps + delay)
    # a whole stream is one block, routed with the generator of (seed, 0)
    one = apply_umi(whole, config,
                    np.random.SeedSequence(seed, spawn_key=(0,)))
    parts = list(routed_blocks([whole], config, seed))
    for c, t in one.times.items():
        assert np.array_equal(joined_times(parts, c), t)


def test_no_blocks_route_to_no_blocks():
    assert list(routed_blocks(iter([]), CFG, 1)) == []


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
