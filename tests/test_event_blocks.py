"""The block-wise event path against frozen whole-stream references.

generate_events, write_events and read_events work one block of about
events._BLOCK_EVENTS events at a time.  The references below are the
whole-stream versions they replaced, kept verbatim: the blocks must give
the same draws, the same arrays and the same file bytes.  The memory tests
use tracemalloc, which numpy reports its array buffers to.
"""

import struct
import tracemalloc
import weakref
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
    generate_events,
    read_events,
    write_events,
)


# --- frozen whole-stream references -----------------------------------------


def reference_emitted_photons(model, duration_ps, rng):
    t_s = model.signal_transmission
    t_i = model.idler_transmission
    if model.min_pair_spacing_ps > 0:
        pair_t = events._renewal_pair_times(model, duration_ps, rng)
        alive_s = rng.random(len(pair_t)) < t_s
        alive_i = rng.random(len(pair_t)) < t_i
        split = tuple(int(np.count_nonzero(a & b)) for a, b in (
            (alive_s, alive_i), (alive_s, ~alive_i),
            (~alive_s, alive_i), (~alive_s, ~alive_i)))
        return split, pair_t[alive_s], pair_t[alive_i]
    mean = model.pair_rate_mhz * 1e6 * duration_ps * 1e-12
    split = tuple(int(n) for n in rng.poisson(mean * np.array([
        t_s * t_i, t_s * (1 - t_i), (1 - t_s) * t_i, (1 - t_s) * (1 - t_i)])))
    both, signal_only, idler_only, _ = split
    t0 = rng.uniform(0.0, duration_ps, signal_only + both + idler_only)
    return split, t0[:signal_only + both], t0[signal_only:]


def reference_generate_events(model, duration_s, seed):
    duration_ps = int(round(duration_s * 1e12))
    rng = np.random.Generator(np.random.PCG64(seed))
    split, emit_s, emit_i = reference_emitted_photons(model, duration_ps, rng)
    arrive_i = emit_i + model.idler_delay_sign * rng.exponential(
        model.pair_lifetime_ps, len(emit_i))
    photons = {}
    for arm_t, arm_channels in ((emit_s, model.signal_channels),
                                (arrive_i, model.idler_channels)):
        if model.jitter_sigma_ps > 0:
            arm_t = arm_t + rng.normal(0.0, model.jitter_sigma_ps,
                                       len(arm_t))
        if len(arm_channels) == 1:
            photons[arm_channels[0]] = arm_t
            continue
        pick = rng.integers(0, len(arm_channels), len(arm_t))
        for k, channel in enumerate(arm_channels):
            photons[channel] = arm_t[pick == k]
    times, dark, clipped = {}, {}, {}
    for channel in sorted(photons):
        dark[channel] = int(rng.poisson(
            model.dark_rate_hz * duration_ps * 1e-12))
        t = np.concatenate([photons[channel],
                            rng.uniform(0.0, duration_ps, dark[channel])])
        t = np.rint(t, out=t).astype(np.int64)
        t.sort()
        lo, hi = np.searchsorted(t, [0, duration_ps])
        times[channel] = t[lo:hi]
        clipped[channel] = len(t) - int(hi - lo)
    truth = TruthCounters(*split,
                          detected={c: len(photons[c]) for c in times},
                          dark=dark, clipped=clipped)
    return EventStream(times, duration_ps, seed=seed,
                       n_pairs_generated=sum(split), truth=truth)


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


# --- generation: same draws, same arrays ------------------------------------


@st.composite
def source_models(draw):
    """Every branch of the generator at a few thousand events at most.

    Rates of up to 2e10 pairs/s and 3e9 darks/s over 1 ns to 1 us clip at
    both edges: jitter and a negative idler delay push photons below 0, and
    rounding and a positive delay push them to or past the duration.
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
    assert (got.duration_ps, got.seed) == (want.duration_ps, want.seed)


@settings(max_examples=200, deadline=None)
@given(model=source_models(),
       duration_s=st.sampled_from([0.0, 1e-9, 3.3e-8, 1e-6]),
       seed=st.integers(0, 2 ** 64 - 1),
       block=st.sampled_from([1, 7, 1 << 18]))
@example(model=SourceModel(pump_power_uw=0.0, dark_rate_hz=2e10),
         duration_s=1e-9, seed=3, block=2)
@example(model=SourceModel(pump_power_uw=40.0, pgr_slope_mhz_per_uw=500.0,
                           dark_rate_hz=3e9, jitter_sigma_ps=1e4,
                           idler_delay_sign=-1, signal_channels=(4, 0),
                           idler_channels=(1, 3, 2)),
         duration_s=3.3e-8, seed=5, block=3)
@example(model=SourceModel(min_pair_spacing_ps=1e4, pgr_slope_mhz_per_uw=100),
         duration_s=0.0, seed=1, block=2)
def test_generation_matches_the_whole_stream_reference(model, duration_s,
                                                       seed, block):
    with mock.patch.object(events, "_BLOCK_EVENTS", block):
        got = generate_events(model, duration_s, seed)
    assert_same_stream(got, reference_generate_events(model, duration_s,
                                                      seed))


def test_generation_matches_the_reference_at_scale():
    # the g2 layout (two signal channels) over about 2e5 events, in
    # default-size blocks and in blocks that do not divide the arms
    model = SourceModel(pump_power_uw=2.0, pgr_slope_mhz_per_uw=5.13,
                        detector_efficiency=0.85, dark_rate_hz=1e5,
                        signal_channels=(0, 2), idler_channels=(1,))
    want = reference_generate_events(model, 0.02, seed=12345)
    assert len(want) > 150_000
    assert_same_stream(generate_events(model, 0.02, seed=12345), want)
    with mock.patch.object(events, "_BLOCK_EVENTS", 4099):
        assert_same_stream(generate_events(model, 0.02, seed=12345), want)


def test_renewal_source_of_zero_duration_is_empty():
    s = generate_events(SourceModel(min_pair_spacing_ps=10.0), 0.0, seed=1)
    assert len(s) == 0 and s.n_pairs_generated == 0


# --- memory -----------------------------------------------------------------


def traced_peak(fn):
    """(fn(), peak bytes allocated while it ran)."""
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_generation_peak_per_event():
    # the output is 8 B per event.  At its peak, the split of a two-channel
    # signal arm, generation holds both arms' float64 times (8 B), the
    # signal channels' copies (8 B per signal event), and a uint8 pick
    # and mask (2 B per signal event): 13 B per event with equal arms, so
    # at most 14 B with the blocks and the darks.  The whole-stream path
    # took about 32 B.
    model = SourceModel(pump_power_uw=10.0, pgr_slope_mhz_per_uw=5.13,
                        detector_efficiency=0.9, dark_rate_hz=1e4,
                        signal_channels=(0, 2), idler_channels=(1,))
    with mock.patch.object(events, "_BLOCK_EVENTS", 1 << 12):
        stream, peak = traced_peak(lambda: generate_events(model, 0.01, 7))
    assert len(stream) > 700_000
    assert peak / len(stream) < 14.0


def test_generation_peak_per_event_single_channel_arms():
    # the replay layout, one channel per arm.  Each channel is rounded in
    # its own 8-byte buffer and grown in place for its darks, so at the
    # peak generation holds the output's 8 B per event and one block
    # (8.04 B per event measured); rounding into a second array took 12.
    model = SourceModel(pump_power_uw=10.0, pgr_slope_mhz_per_uw=5.13,
                        detector_efficiency=0.9, dark_rate_hz=1e4,
                        signal_channels=(0,), idler_channels=(1,))
    with mock.patch.object(events, "_BLOCK_EVENTS", 1 << 12):
        stream, peak = traced_peak(lambda: generate_events(model, 0.01, 7))
    assert len(stream) > 700_000
    assert peak / len(stream) < 9.0


def test_rounding_in_place_leaves_no_float_view():
    x = events._times_buffer(10, 2)
    x[:] = [-2.5, -0.5, 0.5, 1.5, 2.5, 3.49, 7.0, 1e15 + 0.5, 2.0 ** 62, 0.0]
    want = np.rint(x).astype(np.int64)
    view = weakref.ref(x)
    with mock.patch.object(events, "_BLOCK_EVENTS", 3):
        t = events._rounded_in_place(x)
    del x
    # the view died with its last reference: nothing else holds one, so
    # the owner grows in place under resize's reference check
    assert view() is None
    assert t.dtype == np.int64 and t.flags.owndata and len(t) == 12
    assert np.array_equal(t[:10], want)
    t.resize(11)
    assert np.array_equal(t[:10], want) and len(t) == 11
    # a live view makes resize raise instead of freeing what it reads
    alive = t.view(np.float64)
    with pytest.raises(ValueError):
        t.resize(14)
    assert len(t) == 11 and np.shares_memory(t, alive)


@pytest.mark.parametrize("signal_channels", [(0,), (0, 2)])
def test_generated_channels_own_int64_buffers(signal_channels):
    model = SourceModel(pump_power_uw=1.0, dark_rate_hz=1e6,
                        jitter_sigma_ps=1e4, idler_delay_sign=-1,
                        signal_channels=signal_channels, idler_channels=(1,))
    stream = generate_events(model, 1e-3, 11)
    for c, times in stream.times.items():
        # a slice of the int64 array the channel was drawn, rounded and
        # fitted to its darks in: no float64 view of that buffer is reachable
        owner = times.base
        assert owner.dtype == np.int64 and owner.flags.owndata
        assert owner.base is None
        assert len(owner) == stream.truth.detected[c] + stream.truth.dark[c]
    # darks past the room grow the buffer instead, to the same stream
    with mock.patch.object(events, "_dark_room", lambda model, d: 0):
        assert_same_stream(generate_events(model, 1e-3, 11), stream)


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
            channels, times, tags = stream.merged()
        assert tags is None
        want_channels, want_times = reference_merged(stream)
        assert np.array_equal(channels, want_channels)
        assert np.array_equal(times, want_times)
        assert channels.dtype == np.uint8 and times.dtype == np.int64


def test_merged_blocks_keep_ties_together(monkeypatch):
    monkeypatch.setattr(events, "_BLOCK_EVENTS", 1)
    blocks = [(c.tolist(), t.tolist())
              for c, t, _ in TIES_AT_EDGE._merged_blocks()]
    assert blocks == [([0], [1]), ([2], [2]),
                      ([0, 0, 0, 1, 1, 2], [5] * 6), ([2], [9])]


@settings(max_examples=100, deadline=None)
@given(stream=channel_streams(), block=st.integers(1, 3))
def test_from_merged_in_blocks_keeps_tags_aligned(stream, block):
    channels, times = reference_merged(stream)
    tags = np.arange(len(times), dtype=np.int32)
    with mock.patch.object(events, "_BLOCK_EVENTS", block):
        back = EventStream.from_merged(channels, times, 10, route_tags=tags)
    for c in back.times:
        assert np.array_equal(back.times[c], times[channels == c])
        assert back.tags[c].dtype == np.int32
        assert np.array_equal(back.tags[c], tags[channels == c])


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
