import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diskspdc import events, pipeline
from diskspdc.config import InvariantError, parse_config
from diskspdc.events import (EventStream, SourceModel, block_shards,
                             event_blocks, generate_events, summed)
from diskspdc.franson import (
    FitError,
    UmiConfig,
    apply_umi,
    classical_fringe,
    extract_visibility,
    peak_areas,
    peak_areas_span,
    quantum_fringe,
)
from diskspdc.tcspc import (PairFold, delay_histogram, fold_delays,
                            two_fold_metrics, two_fold_span, window_edges)

from streams import merged, reference_routes, short_blocks

CFG = UmiConfig()  # 1.6 ns arms, balanced splitter


def pair_stream(duration_s=0.5, rate_mhz=0.2, lifetime_ps=1.0, seed=7):
    m = SourceModel(pump_power_uw=1.0, pgr_slope_mhz_per_uw=rate_mhz,
                    pair_lifetime_ps=lifetime_ps, detector_efficiency=1.0,
                    dark_rate_hz=0.0, jitter_sigma_ps=0.0)
    return generate_events(m, duration_s, seed=seed)


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
    long_only = apply_umi(s, UmiConfig(arm_transmissions=(0.0, 1.0)),
                          seed=1)
    assert sorted(short_only.times) == sorted(long_only.times) == [0, 1]
    for c, t in s.times.items():
        assert np.array_equal(short_only.times[c], t)
        assert np.array_equal(long_only.times[c], t + 1600)
    assert long_only.duration_ps == s.duration_ps + 1600


def test_umi_routing_balance_and_determinism():
    s = pair_stream(duration_s=0.2)
    out = apply_umi(s, CFG, seed=9)
    again = apply_umi(s, CFG, seed=9)
    _, times = merged(out)
    _, again_times = merged(again)
    assert np.array_equal(times, again_times)
    n = len(out)
    n_long = sum(int(long.sum())
                 for long in reference_routes(s, CFG, 9).values())
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
    peak = delays.peak_ps()
    assert abs(peak) <= 5
    edges = [window_edges(peak + k * delay_ps, config.postselect_window_ps)
             for k in (-1, 0, 1)]
    assert edges[0][1] < edges[1][0] and edges[1][1] < edges[2][0]
    assert areas == tuple(int(delay_histogram(a, b, *e).counts.sum())
                          for e in edges)
    assert sum(areas) <= delay_histogram(a, b, edges[0][0],
                                         edges[2][1]).counts.sum()


def test_peak_areas_reads_the_two_fold_peak():
    # 2 pairs at 0 ps and 3 at +4500 ps: the fullest 10-ps bin within
    # +-4 D lies outside +-4 ns, and both analyses read the one inside
    config = UmiConfig(arm_delay_ns=1.5, postselect_window_ps=100)
    a = np.arange(5, dtype=np.int64) * 10 ** 6
    b = a + np.array([0, 0, 4500, 4500, 4500])
    lo, hi = zip(peak_areas_span(config), two_fold_span(100))
    delays = delay_histogram(a, b, min(lo), max(hi))
    peak = delays.peak_ps()
    assert peak == two_fold_metrics(
        PairFold(5, 5, 10 ** 7, delays), window_ps=100).peak_delay_ps == 5
    assert peak_areas(delays, config) == tuple(
        int(n) for n in delays.totals([peak - 1500, peak, peak + 1500], 100))
    assert peak_areas(delays, config) == (0, 2, 0)


def test_central_peak_pairs_same_path():
    # low rate: with pairs several microseconds apart no unrelated pair can
    # leak a mismatched route into a central window
    s = pair_stream(duration_s=0.1, rate_mhz=0.02)
    out = apply_umi(s, CFG, seed=13)
    long = reference_routes(s, CFG, 13)
    routed = {c: s.times[c] + 1600 * long[c] for c in (0, 1)}
    for c, t in routed.items():
        assert np.array_equal(np.sort(t), out.times[c])
    # every pair of routed events, brute force
    lo, hi = window_edges(0, CFG.postselect_window_ps)
    delays = routed[1][None, :] - routed[0][:, None]
    central = (delays >= lo) & (delays <= hi)
    # same-path routes, SS or LL, are half the pairs
    n = len(routed[0])
    assert abs(central.sum() - n / 2) < 5.0 * math.sqrt(n) / 2
    assert not np.any(central & (long[0][:, None] != long[1][None, :]))


# --- routing in generation ---------------------------------------------------


# a busy source in blocks of about eight events, at least 4096 ps long
BUSY = SourceModel(pump_power_uw=100.0, dark_rate_hz=1e8,
                   signal_channels=(0, 2), idler_channels=(1,))


def drawn_block(model, seed, k, start_ps, length_ps):
    """Block k's draws (events._drawn_block) of model's stream."""
    return events._drawn_block(events._Draws.of(model), seed, k, start_ps,
                               length_ps)


def through(model, arms=(0.5, 0.5)):
    """model with an interferometer of these arms and 1.6-ns arm delay."""
    return dataclasses.replace(model, interferometer=UmiConfig(
        arm_transmissions=arms))


@pytest.mark.parametrize("k, start", [(0, 0), (3, 3 << 20)])
def test_generated_routing_extremes(k, start):
    # routing draws after every other draw of the block: all short leaves
    # the block as drawn without an interferometer, all long adds D to
    # every time, re-sorted
    plain = drawn_block(BUSY, 5, k, start, 1 << 20)
    short = drawn_block(through(BUSY, (1.0, 0.0)), 5, k, start, 1 << 20)
    long = drawn_block(through(BUSY, (0.0, 1.0)), 5, k, start, 1 << 20)
    for got in (short, long):
        assert (got[0], got[2], got[3]) == (plain[0], plain[2], plain[3])
        assert got[1].keys() == plain[1].keys() == {0, 1, 2}
    for c, t in plain[1].items():
        assert len(t) > 100
        assert np.array_equal(short[1][c], t)
        assert np.array_equal(long[1][c], np.sort(t + 1600))


def test_generated_long_arm_crosses_block_edges_and_clips_at_the_end():
    # jitter-free, so no time is drawn below 0: all long is every time of
    # the stream drawn without an interferometer plus D, each handed to the
    # block that holds it, and clipped where it passes the stream's end
    model = dataclasses.replace(BUSY, jitter_sigma_ps=0.0)
    with short_blocks(8, 1 << 12):
        plain = generate_events(model, 1e-6, 5)
        long = list(event_blocks(through(model, (0.0, 1.0)), 1e-6, 5))
    assert len(long) > 100
    routed = EventStream.from_blocks(long)
    for b in long:
        for t in b.times.values():
            assert np.all((t >= b.start_ps) & (t < b.duration_ps))
    for c, t in plain.times.items():
        moved = t + 1600
        assert np.array_equal(routed.times[c], moved[moved < 10 ** 6])
        assert routed.truth.clipped[c] == plain.truth.clipped[c] + int(
            np.sum(moved >= 10 ** 6))
    assert routed.truth.clipped != plain.truth.clipped
    assert dataclasses.replace(routed.truth, clipped={}) == \
        dataclasses.replace(plain.truth, clipped={})


def test_generated_long_arm_share():
    # the long-arm routes add D each, so the share is exact from the sums
    arms = (0.2, 0.7)
    plain = drawn_block(BUSY, 7, 0, 0, 10 ** 7)[1]
    routed = drawn_block(through(BUSY, arms), 7, 0, 0, 10 ** 7)[1]
    n = sum(len(t) for t in plain.values())
    n_long, rest = divmod(sum(int(routed[c].sum() - t.sum())
                              for c, t in plain.items()), 1600)
    assert rest == 0 and n > 10_000
    p = arms[1] / sum(arms)
    assert abs(n_long - n * p) < 5.0 * math.sqrt(n * p * (1 - p))


@pytest.mark.parametrize("n_shards", [1, 2, 3, 4])
def test_routed_stream_shards_add_up_to_one_pass(n_shards):
    model = through(BUSY)
    lo, hi = peak_areas_span(CFG)
    with short_blocks(8, 1 << 12):
        whole = fold_delays(event_blocks(model, 1e-6, 5), 0, 1, lo, hi)
        shards = block_shards(model, 1e-6, n_shards)
        folds = [pipeline._shard_fold(
            lambda blocks, own_ps: fold_delays(blocks, 0, 1, lo, hi, own_ps),
            lambda reads: event_blocks(model, 1e-6, 5, reads), (lo, hi), s)
            for s in shards]
    assert len(shards) == n_shards and whole.n_a > 200
    total = summed(folds)
    assert (total.n_a, total.n_b, total.duration_ps) == (
        whole.n_a, whole.n_b, whole.duration_ps)
    assert np.array_equal(total.delays.counts, whole.delays.counts)


def test_a_shard_routes_its_blocks_as_a_whole_pass():
    # a time shard's blocks start past block 0: each is routed by its own
    # generator, spawned from its index in the stream, as in a whole pass,
    # not by its place among the blocks the shard draws
    model = through(BUSY)
    with short_blocks(8, 1 << 12):
        _, block, n_blocks = events._plan(model, 1e-7)
        whole = list(event_blocks(model, 1e-7, 5))
        shard = list(event_blocks(model, 1e-7, 5, (3 * block, None)))
    assert n_blocks > 5
    assert [b.start_ps for b in shard] == [b.start_ps for b in whole[3:]]
    for got, want in zip(shard, whole[3:]):
        assert got.times.keys() == want.times.keys()
        for c, t in want.times.items():
            assert np.array_equal(got.times[c], t)


# --- blocks routed after generation, each on its own -------------------------


def cut_at(whole, edges):
    """The blocks [lo, hi) of a stream between sorted edges, each ending
    where the next starts, as generation's blocks do."""
    bounds = [0, *edges, whole.duration_ps]
    return whole, [EventStream({c: t[(t >= lo) & (t < hi)]
                                for c, t in whole.times.items()},
                               hi, start_ps=lo)
                   for lo, hi in zip(bounds, bounds[1:])]


def joined_times(blocks, c):
    """The times of channel c over blocks, joined and sorted."""
    return np.sort(np.concatenate([b.channel_times(c) for b in blocks]))


def each_routed(blocks, config, seed):
    """Each block routed on its own by apply_umi, the block at k ps with
    the generator spawned from (seed, k): its long-arm events may reach
    past the next block's start, as a caller's blocks may."""
    return [apply_umi(b, config, np.random.SeedSequence(
        seed, spawn_key=(b.start_ps,))) for b in blocks]


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


# long-arm events that reach past the next block's start, among its own;
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
    routed = each_routed(blocks, config, seed)
    # one routed block per block, from its start to an arm delay past its
    # end, the last an arm delay past the stream's
    assert [(b.start_ps, b.duration_ps) for b in routed] == [
        (b.start_ps, b.duration_ps + delay) for b in blocks]
    assert routed[-1].duration_ps == whole.duration_ps + delay
    for b in routed:
        for c, t in b.times.items():
            assert np.all(np.diff(t) >= 0)
            assert np.all((t >= b.start_ps) & (t < b.duration_ps))
    # the reference: each block routed on its own, the block at k ps by
    # the draw of the generator of (seed, k)
    routes = [reference_routes(b, config, np.random.SeedSequence(
                  seed, spawn_key=(b.start_ps,)))
              for b in blocks]
    joined = {}
    for c in range(3):
        t = joined[c] = joined_times(routed, c)
        parts = [b.times[c] + delay * r[c] for b, r in zip(blocks, routes)
                 if c in r]
        assert np.array_equal(t, np.sort(np.concatenate(
            [np.zeros(0, np.int64)] + parts)))
    fold = fold_delays(iter(routed), 0, 1, lo, lo + width)
    want = delay_histogram(joined[0], joined[1], lo, lo + width)
    assert np.array_equal(fold.delays.counts, want.counts)
    assert (fold.n_a, fold.n_b, fold.duration_ps) == (
        len(joined[0]), len(joined[1]), whole.duration_ps + delay)


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
