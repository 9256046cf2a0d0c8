"""The block-wise event path against whole-stream references.

generate_events draws the stream in time blocks, and write_events and
read_events work one block of about events._BLOCK_EVENTS events at a time.
The references below are whole-stream versions: every block's draws put
into one stream at once, and the merged-stream writer the block writer
replaced, kept verbatim.  The blocks must give the same arrays and the same
file bytes.  The memory tests use tracemalloc, which numpy reports its
array buffers to.
"""

import hashlib
import random
import struct
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diskspdc import events
from diskspdc.cli import main
from diskspdc.events import (
    EventFormatError,
    EventStream,
    SourceModel,
    TruthCounters,
    event_blocks,
    generate_events,
    read_events,
    write_events,
)


# --- whole-stream references ------------------------------------------------


def reference_block(model, seed, k, length_ps):
    """Block k's draws as (split, {channel: float times from the block's
    start}, detected, dark), in the generator's order of draws."""
    rng = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(seed, spawn_key=(k,))))
    t_s, t_i = model.signal_transmission, model.idler_transmission
    sig, idl = model.signal_channels, model.idler_channels
    kinds = ([(s, i, t_s * t_i / (len(sig) * len(idl)))
              for s in sig for i in idl]
             + [(s, None, t_s * (1 - t_i) / len(sig)) for s in sig]
             + [(None, i, (1 - t_s) * t_i / len(idl)) for i in idl]
             + [(None, None, (1 - t_s) * (1 - t_i))])
    channels = sorted(sig + idl)
    probs = [p for *_, p in kinds]
    if model.min_pair_spacing_ps > 0:
        pair_t = events._renewal_pair_times(model, length_ps, rng)
        kind = rng.choice(len(kinds), len(pair_t), p=probs)
        pairs = [int(np.sum(kind == j)) for j in range(len(kinds))]
        dark = rng.poisson(model.dark_rate_hz * length_ps * 1e-12,
                           len(channels))
    else:
        pairs = rng.poisson(model.pair_rate_mhz * 1e-6 * length_ps
                            * np.array(probs)).tolist()
        dark = rng.poisson(model.dark_rate_hz * length_ps * 1e-12,
                           len(channels))
    photons = {c: [] for c in channels}
    for j, (s, i, _) in enumerate(kinds):
        if pairs[j] == 0 or (s is None and i is None):
            continue
        if model.min_pair_spacing_ps > 0:
            t = pair_t[kind == j]
        else:
            t = rng.uniform(0.0, length_ps, pairs[j])
        sigma = model.jitter_sigma_ps
        if s is not None:
            photons[s].append(t + rng.normal(0.0, sigma, len(t))
                              if sigma > 0 else t)
        if i is not None:
            arrive = t + model.idler_delay_sign * rng.exponential(
                model.pair_lifetime_ps, len(t))
            photons[i].append(arrive + rng.normal(0.0, sigma, len(t))
                              if sigma > 0 else arrive)
    detected = {c: sum(len(p) for p in photons[c]) for c in channels}
    times = {}
    for c, n in zip(channels, dark.tolist()):
        times[c] = np.concatenate(
            photons[c] + [rng.uniform(0.0, length_ps, n), np.empty(0)])
    split = [sum(n for (s, i, _), n in zip(kinds, pairs)
                 if (s is None, i is None) == key)
             for key in ((False, False), (False, True), (True, False),
                         (True, True))]
    return split, times, detected, dict(zip(channels, dark.tolist()))


def reference_generate_events(model, duration_s, seed):
    """Every block's events in one stream, or ValueError when one lands past
    a neighbouring block."""
    duration_ps, block, n_blocks = events._plan(model, duration_s)
    parts = {}
    split = np.zeros(4, dtype=np.int64)
    detected, dark, clipped = {}, {}, {}
    for k in range(n_blocks):
        length = min(block, duration_ps - k * block)
        b_split, b_times, b_detected, b_dark = reference_block(
            model, seed, k, length)
        split += b_split
        for c, t in b_times.items():
            t = np.rint(t).astype(np.int64) + k * block
            keep = (t >= 0) & (t < duration_ps)
            if np.any(np.abs(t[keep] // block - k) > 1):
                raise ValueError("past a neighbouring block")
            parts.setdefault(c, []).append(t[keep])
            detected[c] = detected.get(c, 0) + b_detected[c]
            dark[c] = dark.get(c, 0) + b_dark[c]
            clipped[c] = clipped.get(c, 0) + int(np.sum(~keep))
    times = {c: np.sort(np.concatenate(p)) for c, p in parts.items()}
    truth = TruthCounters(*split.tolist(), detected=detected, dark=dark,
                          clipped=clipped)
    return EventStream(times, duration_ps, truth=truth)


def reference_merged(stream):
    order_ch = sorted(stream.times)
    times = np.concatenate([np.empty(0, dtype=np.int64)]
                           + [stream.times[c] for c in order_ch])
    order = np.argsort(times, kind="stable")
    channels = np.repeat(np.array(order_ch, dtype=np.uint8),
                         [len(stream.times[c]) for c in order_ch])[order]
    return channels, times[order]


def reference_write_events(stream, path, fmt):
    channels, times = reference_merged(stream)
    if fmt == "csv":
        with open(path, "w") as fh:
            fh.write("channel,timestamp_ps\n")
            for c, t in zip(channels.tolist(), times.tolist()):
                fh.write(f"{c},{t}\n")
        return
    n_channels = int(channels.max()) + 1 if len(channels) else 0
    records = np.empty(len(times), dtype=events._RECORD_DTYPE)
    records["channel"] = channels
    records["t"] = times
    with open(path, "wb") as fh:
        fh.write(events._HEADER.pack(events.MAGIC, events.FORMAT_VERSION,
                                     n_channels, b"\0" * 6))
        fh.write(records.tobytes())


# --- generation: every block's draws, one stream ----------------------------


@st.composite
def source_models(draw):
    """Every branch of the generator at a few thousand events at most.

    Rates of up to 2e10 pairs/s and 3e9 darks/s over 1 ns to 1 us clip at
    both edges: jitter and a negative idler delay push photons below 0, and
    rounding and a positive delay push them to or past the duration.  With
    the tests' short blocks they also cross block edges, by one block or
    by more.
    """
    chans = draw(st.permutations(range(6)))
    n_s, n_i = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    losses = st.sampled_from([(), (3.0,), (1.0, 10.0)])
    return SourceModel(
        pump_power_uw=draw(st.sampled_from([0.0, 0.3, 40.0])),
        pgr_slope_mhz_per_uw=draw(st.sampled_from([1.0, 500.0])),
        saturation_rate_mhz=draw(st.sampled_from([None, 1e3])),
        pair_lifetime_ps=draw(st.sampled_from([1.0, 200.0, 1e5])),
        signal_losses_db=draw(losses), idler_losses_db=draw(losses),
        detector_efficiency=draw(st.sampled_from([0.5, 1.0])),
        dark_rate_hz=draw(st.sampled_from([0.0, 100.0, 3e9])),
        jitter_sigma_ps=draw(st.sampled_from([0.0, 40.0, 1e4])),
        min_pair_spacing_ps=draw(st.sampled_from([0.0, 0.0, 50.0, 1e4])),
        idler_delay_sign=draw(st.sampled_from([1, -1])),
        signal_channels=tuple(chans[:n_s]),
        idler_channels=tuple(chans[n_s:n_s + n_i]))


def assert_same_stream(got, want):
    assert sorted(got.times) == sorted(want.times)
    for c, t in want.times.items():
        assert got.times[c].dtype == t.dtype == np.int64
        assert np.array_equal(got.times[c], t)
    assert got.truth == want.truth
    assert got.n_pairs_generated == want.n_pairs_generated
    assert got.duration_ps == want.duration_ps


def short_blocks(block_events, min_block_ps):
    """Generation blocks far shorter than the real floor of 2^30 ps."""
    return mock.patch.multiple(events, _BLOCK_EVENTS=block_events,
                               _MIN_BLOCK_PS=min_block_ps)


@settings(max_examples=200, deadline=None)
@given(model=source_models(),
       duration_s=st.sampled_from([0.0, 1e-9, 3.3e-8, 1e-6]),
       seed=st.integers(0, 2 ** 64 - 1),
       block_events=st.sampled_from([1, 7, 1 << 18]),
       min_block_ps=st.sampled_from([1, 2 ** 10, 2 ** 16]))
@example(model=SourceModel(pump_power_uw=0.0, dark_rate_hz=2e10),
         duration_s=1e-9, seed=3, block_events=2, min_block_ps=1)
@example(model=SourceModel(pump_power_uw=40.0, pgr_slope_mhz_per_uw=500.0,
                           dark_rate_hz=3e9, jitter_sigma_ps=1e4,
                           idler_delay_sign=-1, signal_channels=(4, 0),
                           idler_channels=(1, 3, 2)),
         duration_s=3.3e-8, seed=5, block_events=3, min_block_ps=2 ** 16)
@example(model=SourceModel(min_pair_spacing_ps=1e4, pgr_slope_mhz_per_uw=100),
         duration_s=0.0, seed=1, block_events=2, min_block_ps=1)
@example(model=SourceModel(pump_power_uw=40.0, pgr_slope_mhz_per_uw=500.0,
                           pair_lifetime_ps=1e5),
         duration_s=1e-6, seed=2, block_events=7, min_block_ps=2 ** 10)
@example(model=SourceModel(pump_power_uw=40.0, pgr_slope_mhz_per_uw=500.0,
                           pair_lifetime_ps=1e5, idler_delay_sign=-1),
         duration_s=1e-6, seed=2, block_events=7, min_block_ps=2 ** 10)
def test_generation_matches_the_whole_stream_reference(
        model, duration_s, seed, block_events, min_block_ps):
    with short_blocks(block_events, min_block_ps):
        try:
            want = reference_generate_events(model, duration_s, seed)
        except ValueError:
            with pytest.raises(ValueError, match="past its neighbours"):
                generate_events(model, duration_s, seed)
            return
        got = generate_events(model, duration_s, seed)
        blocks = list(event_blocks(model, duration_s, seed))
    assert_same_stream(got, want)
    # the blocks tile [0, duration) and hold the stream in time order
    assert blocks[0].start_ps == 0
    assert blocks[-1].duration_ps == want.duration_ps
    for before, after in zip(blocks, blocks[1:]):
        assert before.duration_ps == after.start_ps
    for b in blocks:
        for t in b.times.values():
            assert np.all((t >= b.start_ps) & (t < b.duration_ps))


def test_generation_matches_the_reference_at_scale():
    # the g2 layout (two signal channels) over about 3.5e5 events, in one
    # block, in two and in 1,193 blocks, with jitter that carries photons
    # across their edges
    model = SourceModel(pump_power_uw=2.0, pgr_slope_mhz_per_uw=5.13,
                        detector_efficiency=0.85, dark_rate_hz=1e5,
                        jitter_sigma_ps=2000.0,
                        signal_channels=(0, 2), idler_channels=(1,))
    for blocks, n_blocks in (((1 << 20, 1 << 30), 1),
                             ((1 << 18, 1 << 30), 2),
                             ((1 << 8, 1 << 20), 1193)):
        with short_blocks(*blocks):
            assert events._plan(model, 0.02)[2] == n_blocks
            want = reference_generate_events(model, 0.02, 12345)
            assert len(want) > 300_000
            assert_same_stream(generate_events(model, 0.02, seed=12345),
                               want)
            if n_blocks > 1000:
                handed = sum(len(p) for _, parts in (
                    events._handed(model, 12345, k, *events._plan(
                        model, 0.02)[1::-1]) for k in range(n_blocks))
                    for down, _, up in parts.values() for p in (down, up))
                assert handed > 10


def test_block_length_is_sized_from_the_rate():
    for pump, n_blocks in ((0.001, 1), (0.46, 30), (2.0, 117)):
        model = SourceModel(pump_power_uw=pump, detector_efficiency=0.95)
        duration_ps, block, n = events._plan(model, 2.0)
        assert n == n_blocks and n == -(-duration_ps // block)
        if n > 1:
            per_block = block * 1e-12 * 1e6 * model.pair_rate_mhz * 1.9
            assert block & (block - 1) == 0 and block >= 1 << 30
            # the nearest power of two: within a factor sqrt(2)
            assert events._BLOCK_EVENTS / 2 ** 0.5 <= per_block \
                <= events._BLOCK_EVENTS * 2 ** 0.5
    # a source too bright for the floor keeps 2^30 ps blocks
    bright = SourceModel(pump_power_uw=1e3, detector_efficiency=1.0)
    assert events._plan(bright, 0.01)[1] == 1 << 30
    # the renewal source is one block, whatever its rate
    assert events._plan(SourceModel(pump_power_uw=1e3,
                                    min_pair_spacing_ps=1.0), 2.0)[2] == 1


def test_blocks_drawn_in_any_order_give_the_same_stream(tmp_path):
    model = SourceModel(pump_power_uw=2.0, dark_rate_hz=1e5,
                        signal_channels=(0, 2), idler_channels=(1,))
    draw = events._drawn_block

    def stream_and_file(order_seed):
        """The stream and file sha256, every block drawn first in a
        shuffled order (None: in the generator's own order)."""
        if order_seed is None:
            stream = generate_events(model, 0.02, 99)
            write_events(event_blocks(model, 0.02, 99), tmp_path / "e.ttps")
        else:
            duration_ps, block, n_blocks = events._plan(model, 0.02)
            ks = list(range(n_blocks))
            random.Random(order_seed).shuffle(ks)
            drawn = {k: draw(model, 99, k, k * block,
                             min(block, duration_ps - k * block))
                     for k in ks}
            with mock.patch.object(events, "_drawn_block",
                                   lambda m, s, k, *a: drawn[k]):
                stream = generate_events(model, 0.02, 99)
                write_events(event_blocks(model, 0.02, 99),
                             tmp_path / "e.ttps")
        digest = hashlib.sha256((tmp_path / "e.ttps").read_bytes())
        return stream, digest.hexdigest()

    with short_blocks(1 << 12, 1 << 20):
        want, want_sha = stream_and_file(None)
        assert events._plan(model, 0.02)[2] > 10
        for order_seed in (1, 2):
            got, sha = stream_and_file(order_seed)
            assert_same_stream(got, want)
            assert sha == want_sha


def test_displacement_past_a_neighbour_exits_3(tmp_path):
    # a 0.1 s cavity lifetime carries idlers past the 34 ms blocks
    cfg = tmp_path / "slow.cfg"
    cfg.write_text("[source]\npump_power_uw = 1.0\nsignal_losses_db = 0.0\n"
                   "idler_losses_db = 0.0\npair_lifetime_ps = 1e11\n")
    assert main(["coinc", "-c", str(cfg), "--duration", "0.1"]) == 3
    model = SourceModel(pump_power_uw=1.0, pair_lifetime_ps=1e11)
    assert events._plan(model, 0.1)[1] == 1 << 35
    with pytest.raises(ValueError, match="past its neighbours"):
        generate_events(model, 0.1, 1)


def test_renewal_source_of_zero_duration_is_empty():
    s = generate_events(SourceModel(min_pair_spacing_ps=10.0), 0.0, seed=1)
    assert len(s) == 0 and s.n_pairs_generated == 0


def noop_hook(*args):
    return None


@pytest.mark.parametrize("install", [sys.settrace, sys.setprofile])
def test_generation_runs_under_a_trace_hook(install, capsys):
    # ndarray.resize's reference check failed under any trace or profile
    # hook (cProfile, pdb, coverage); nothing in generation resizes now
    model = SourceModel(pump_power_uw=1.0, dark_rate_hz=1e6,
                        signal_channels=(0, 2), idler_channels=(1,))
    want = generate_events(model, 1e-3, 11)
    install(noop_hook)
    try:
        got = generate_events(model, 1e-3, 11)
        status = main(["coinc", "--duration", "0.01"])
    finally:
        install(None)
    assert_same_stream(got, want)
    assert status == 0
    assert "n12 =" in capsys.readouterr().out


# --- memory -----------------------------------------------------------------


def traced_peak(fn):
    """(fn(), peak bytes allocated while it ran)."""
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def generation_extra_peaks(model, durations):
    """Generation's peak above the stream it returns, in 2^12-event blocks
    of at least 2^20 ps."""
    out = []
    with short_blocks(1 << 12, 1 << 20):
        for d in durations:
            stream, peak = traced_peak(lambda: generate_events(model, d, 7))
            out.append((len(stream), peak - 8 * len(stream)))
    return out


def test_generation_peak_per_event():
    # the two-signal-channel layout: at its peak generation holds the
    # stream, allocated once from the blocks' counts (8 B per event), and
    # about three blocks, so its peak above the stream does not grow with
    # the duration.  The whole-stream generator took 32 B per event, and
    # the one it replaced up to 14 B.
    model = SourceModel(pump_power_uw=10.0, pgr_slope_mhz_per_uw=5.13,
                        detector_efficiency=0.9, dark_rate_hz=1e4,
                        signal_channels=(0, 2), idler_channels=(1,))
    (n_small, small), (n_large, large) = generation_extra_peaks(
        model, (0.002, 0.008))
    assert n_large > 700_000 and n_large > 3.5 * n_small
    assert small < 1_000_000
    assert large < small + 100_000
    assert (8 * n_large + large) / n_large < 9.0


def test_generation_peak_per_event_single_channel_arms():
    # the replay layout, one channel per arm: the same bound
    model = SourceModel(pump_power_uw=10.0, pgr_slope_mhz_per_uw=5.13,
                        detector_efficiency=0.9, dark_rate_hz=1e4,
                        signal_channels=(0,), idler_channels=(1,))
    (n_small, small), (n_large, large) = generation_extra_peaks(
        model, (0.002, 0.008))
    assert n_large > 700_000 and n_large > 3.5 * n_small
    assert small < 1_000_000
    assert large < small + 100_000
    assert (8 * n_large + large) / n_large < 9.0


def test_block_generation_peak_does_not_grow_with_the_stream():
    # drawing the blocks holds about three of them, whatever the duration
    model = SourceModel(pump_power_uw=10.0, detector_efficiency=0.9,
                        signal_channels=(0, 2), idler_channels=(1,))
    peaks = []
    with short_blocks(1 << 12, 1 << 20):
        for d in (0.002, 0.008):
            n, peak = traced_peak(lambda: sum(
                len(b) for b in event_blocks(model, d, 7)))
            peaks.append(peak)
    assert n > 700_000
    assert peaks[0] < 1_000_000
    assert peaks[1] < peaks[0] + 100_000


@pytest.mark.parametrize("signal_channels", [(0,), (0, 2)])
def test_generated_channels_own_int64_buffers(signal_channels):
    model = SourceModel(pump_power_uw=1.0, dark_rate_hz=1e6,
                        jitter_sigma_ps=1e4, idler_delay_sign=-1,
                        signal_channels=signal_channels, idler_channels=(1,))
    for blocks in ((1 << 18, 1 << 30), (1 << 10, 1 << 20)):
        with short_blocks(*blocks):
            stream = generate_events(model, 1e-3, 11)
            n_blocks = events._plan(model, 1e-3)[2]
        assert n_blocks == (1 if blocks[0] > 1 << 10
                            else {1: 8, 2: 15}[len(signal_channels)])
        for c, times in stream.times.items():
            # a slice of one int64 array sized to the channel's draws: the
            # stream is held once, whatever the number of blocks
            owner = times.base
            assert owner.dtype == np.int64 and owner.flags.owndata
            assert owner.base is None
            assert len(owner) == (stream.truth.detected[c]
                                  + stream.truth.dark[c])


def io_peaks(tmp_path, n_pairs):
    """Extra peaks of writing and reading a stream of 2 * n_pairs events."""
    t = np.sort(np.random.default_rng(n_pairs).integers(0, 10 ** 9, n_pairs))
    stream = EventStream({0: t, 1: t + 10, 3: t[::2] + 20}, 10 ** 9 + 20)
    path = tmp_path / f"{n_pairs}.ttps"
    _, write_peak = traced_peak(lambda: write_events(stream, path))
    back, read_peak = traced_peak(lambda: read_events(path))
    out_bytes = sum(a.nbytes for a in back.times.values())
    return write_peak, read_peak - out_bytes


def test_file_io_peak_does_not_grow_with_the_stream(tmp_path, monkeypatch):
    # the whole-stream writer and reader took 275 kB and 163 kB above the
    # smaller stream, and 4.3 MB and 1.6 MB above the larger one
    monkeypatch.setattr(events, "_BLOCK_EVENTS", 256)
    small = io_peaks(tmp_path, 4_000)
    large = io_peaks(tmp_path, 64_000)
    for small_peak, large_peak in zip(small, large):
        assert small_peak < 40_000
        assert large_peak < small_peak + 8_000


def test_writing_blocks_peak_does_not_grow_with_the_stream(tmp_path):
    # simulate's path: the blocks go straight to the file, so writing holds
    # about three generation blocks and one merged block
    model = SourceModel(pump_power_uw=10.0, detector_efficiency=0.9)
    peaks = []
    with short_blocks(1 << 12, 1 << 20):
        for d in (0.002, 0.008):
            path = tmp_path / f"{d}.ttps"
            _, peak = traced_peak(lambda: write_events(
                event_blocks(model, d, 7), path))
            peaks.append((peak, path.stat().st_size))
    assert peaks[1][1] > 6_000_000 and peaks[1][1] > 3.5 * peaks[0][1]
    assert peaks[0][0] < 1_000_000
    assert peaks[1][0] < peaks[0][0] + 100_000


# --- writer: same bytes as the merged-stream writer -------------------------


@st.composite
def channel_streams(draw):
    """Per-channel streams with equal times across and within channels,
    empty channels (the highest among them) and empty streams."""
    out = {}
    for c in draw(st.lists(st.integers(0, 5), max_size=4, unique=True)):
        out[c] = np.sort(np.array(draw(st.lists(
            st.integers(0, draw(st.sampled_from([3, 30, 2 ** 63 - 2]))),
            max_size=12)), dtype=np.int64))
    return EventStream(out, 2 ** 63 - 1)


TIES_AT_EDGE = EventStream({0: np.array([1, 5, 5, 5], dtype=np.int64),
                            1: np.array([5, 5], dtype=np.int64),
                            2: np.array([2, 5, 9], dtype=np.int64)}, 10)


@settings(max_examples=200, deadline=None)
@given(stream=channel_streams(), block=st.integers(1, 3))
@example(stream=TIES_AT_EDGE, block=1)
@example(stream=TIES_AT_EDGE, block=3)
@example(stream=EventStream({0: np.array([4], dtype=np.int64),
                             1: np.empty(0, dtype=np.int64)}, 5), block=1)
@example(stream=EventStream({2: np.empty(0, dtype=np.int64),
                             0: np.array([4, 4], dtype=np.int64),
                             5: np.empty(0, dtype=np.int64)}, 5), block=2)
@example(stream=EventStream({}, 0), block=1)
@example(stream=EventStream({1: np.empty(0, dtype=np.int64)}, 0), block=1)
def test_block_writer_matches_the_merged_writer(tmp_path_factory, stream,
                                                block):
    folder = tmp_path_factory.mktemp("files")
    for name, fmt in (("a.ttps", "binary"), ("a.csv", "csv")):
        want, got = folder / ("want_" + name), folder / name
        reference_write_events(stream, want, fmt)
        with mock.patch.object(events, "_BLOCK_EVENTS", block):
            write_events(stream, got)
            assert got.read_bytes() == want.read_bytes()
            back = read_events(got, duration_ps=stream.duration_ps)
            for c, t in stream.times.items():
                assert np.array_equal(back.channel_times(c), t)
            assert sorted(back.times) == sorted(
                c for c, t in stream.times.items() if len(t))
            channels, times = stream.merged()
        want_channels, want_times = reference_merged(stream)
        assert np.array_equal(channels, want_channels)
        assert np.array_equal(times, want_times)
        assert channels.dtype == np.uint8 and times.dtype == np.int64


def test_merged_blocks_keep_ties_together(monkeypatch):
    monkeypatch.setattr(events, "_BLOCK_EVENTS", 1)
    blocks = [(c[order].tolist(), t[order].tolist())
              for c, t, order in TIES_AT_EDGE._merged_blocks()]
    assert blocks == [([0], [1]), ([2], [2]),
                      ([0, 0, 0, 1, 1, 2], [5] * 6), ([2], [9])]


@settings(max_examples=100, deadline=None)
@given(stream=channel_streams(), block=st.integers(1, 3))
def test_from_merged_in_blocks_splits_each_channel(stream, block):
    channels, times = reference_merged(stream)
    with mock.patch.object(events, "_BLOCK_EVENTS", block):
        back = EventStream.from_merged(channels, times, 10)
    assert sorted(back.times) == sorted(set(channels.tolist()))
    for c in back.times:
        assert back.times[c].dtype == np.int64
        assert np.array_equal(back.times[c], times[channels == c])


# --- reader: errors at block boundaries -------------------------------------


def ttps_bytes(records, n_channels=4):
    """A .ttps file of (channel, timestamp) records."""
    return (struct.pack("<4sIH6s", b"TTPS", 1, n_channels, b"\0" * 6)
            + b"".join(struct.pack("<BQ", c, t) for c, t in records))


GOOD = [(0, 1), (1, 2), (0, 3), (1, 3), (2, 7), (0, 8)]


@pytest.mark.parametrize("block", [1, 2, 3])
def test_reader_errors_at_block_boundaries(tmp_path, monkeypatch, block):
    monkeypatch.setattr(events, "_BLOCK_EVENTS", block)
    path = tmp_path / "e.ttps"
    path.write_bytes(ttps_bytes(GOOD))
    back = read_events(path, duration_ps=9)
    assert {c: t.tolist() for c, t in back.times.items()} == {
        0: [1, 3, 8], 1: [2, 3], 2: [7]}
    cases = [
        ("time-sorted", GOOD[:block] + [(0, 0)] + GOOD[block:], None),
        ("int64", GOOD + [(1, 2 ** 63)], None),
        ("int64", GOOD[:block] + [(1, 2 ** 64 - 1)], None),
        ("duration", GOOD, 8),
        ("not below", GOOD + [(4, 9)], None),
        ("not below", GOOD[:block] + [(7, 8)] + GOOD[block:], None),
    ]
    for match, records, duration_ps in cases:
        path.write_bytes(ttps_bytes(records))
        with pytest.raises(EventFormatError, match=match):
            read_events(path, duration_ps=duration_ps)
    path.write_bytes(ttps_bytes(GOOD)[:-1])
    with pytest.raises(EventFormatError, match="truncated"):
        read_events(path)


def test_channel_past_the_header_count_is_rejected(tmp_path):
    # the header says two channels; a record of channel 2 was read as a
    # third channel
    path = tmp_path / "e.ttps"
    path.write_bytes(ttps_bytes([(0, 5), (2, 6), (1, 7)], n_channels=2))
    with pytest.raises(EventFormatError, match="channel 2"):
        read_events(path)
    assert main(["coinc", "--events", str(path)]) == 3
    path.write_bytes(ttps_bytes([], n_channels=0))
    assert len(read_events(path)) == 0
