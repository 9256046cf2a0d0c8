"""The block-wise event path against whole-stream references.

event_blocks draws the stream in time blocks, and write_events and
read_blocks work one block of about events._BLOCK_EVENTS events at a time.
The references below are whole-stream versions: every block's draws put
into one stream at once, and the merged-stream writer the block writer
replaced, kept verbatim.  The blocks must give the same arrays and the same
file bytes.  generate_events and read_events, which only tests and examples
call, join the blocks in one pass (EventStream.from_blocks), checked here
against streams cut at arbitrary times; the join holds the blocks and the
stream at once, twice the stream, so the memory tests bound the blocks, not
the join.  They use tracemalloc, which numpy reports its array buffers to.
"""

import dataclasses
import hashlib
import multiprocessing
import os
import random
import re
import struct
import sys
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from diskspdc import events, pipeline, tcspc
from diskspdc.cli import main
from diskspdc.config import parse_config
from diskspdc.events import (
    EventFormatError,
    EventStream,
    SourceModel,
    TruthCounters,
    UmiConfig,
    event_blocks,
    generate_events,
    read_blocks,
    read_events,
    write_events,
)

from streams import handed, merged, short_blocks


# --- whole-stream references ------------------------------------------------


def reference_block(model, seed, k, length_ps):
    """Block k's draws as (split, {channel: float times from the block's
    start}, detected, dark, {channel: int arm delays}), in the generator's
    order of draws.  A Poisson source draws, kind by kind, each pair
    detected on both arms as a uniform signal and an idler delayed from it
    by sign * Exp(tau) and a Gaussian of sigma * sqrt(2), and then, channel
    by channel, its photons detected alone and its darks as one run of
    uniforms.  The renewal source jitters each photon of each pair on its
    own, and then draws each channel's darks.  With an interferometer,
    each channel's events, in the order drawn, are routed after every
    other draw: one uniform each, channel by channel in ascending order,
    and the long arm's delay where it reaches t_S / (t_S + t_L)."""
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
    # a Poisson source's photons detected alone, drawn with the darks
    alone = dict.fromkeys(channels, 0)
    sigma = model.jitter_sigma_ps
    for j, (s, i, _) in enumerate(kinds):
        if pairs[j] == 0 or (s is None and i is None):
            continue
        if model.min_pair_spacing_ps > 0:
            t = pair_t[kind == j]
            if s is not None:
                photons[s].append(t + rng.normal(0.0, sigma, len(t))
                                  if sigma > 0 else t)
            if i is not None:
                arrive = t + model.idler_delay_sign * rng.exponential(
                    model.pair_lifetime_ps, len(t))
                photons[i].append(arrive + rng.normal(0.0, sigma, len(t))
                                  if sigma > 0 else arrive)
        elif s is None or i is None:
            alone[i if s is None else s] += pairs[j]
        else:
            t = rng.uniform(0.0, length_ps, pairs[j])
            photons[s].append(t)
            arrive = t + model.idler_delay_sign * rng.exponential(
                model.pair_lifetime_ps, len(t))
            photons[i].append(
                arrive + rng.normal(0.0, sigma * np.sqrt(2.0), len(t))
                if sigma > 0 else arrive)
    detected = {c: sum(len(p) for p in photons[c]) + alone[c]
                for c in channels}
    times = {}
    for c, n in zip(channels, dark.tolist()):
        times[c] = np.concatenate(
            photons[c] + [rng.uniform(0.0, length_ps, alone[c] + n),
                          np.empty(0)])
    umi = model.interferometer
    delays = {c: np.zeros(len(t), dtype=np.int64) for c, t in times.items()}
    if umi is not None:
        t_s, t_l = umi.arm_transmissions
        for c in channels:
            delays[c] += umi.arm_delay_ps * (
                rng.random(len(times[c])) >= t_s / (t_s + t_l))
    split = [sum(n for (s, i, _), n in zip(kinds, pairs)
                 if (s is None, i is None) == key)
             for key in ((False, False), (False, True), (True, False),
                         (True, True))]
    return split, times, detected, dict(zip(channels, dark.tolist())), delays


def reference_generate_events(model, duration_s, seed):
    """Every block's events in one stream, or ValueError when one lands past
    a neighbouring block."""
    duration_ps, block, n_blocks = events._plan(model, duration_s)
    parts = {}
    split = np.zeros(4, dtype=np.int64)
    detected, dark, clipped = {}, {}, {}
    for k in range(n_blocks):
        length = min(block, duration_ps - k * block)
        b_split, b_times, b_detected, b_dark, b_delays = reference_block(
            model, seed, k, length)
        split += b_split
        for c, t in b_times.items():
            t = np.rint(t).astype(np.int64) + k * block + b_delays[c]
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
    both edges: a pair's idler delay, jitter included, pushes idlers below
    0 or past the duration, and rounding and an interferometer's long arm
    push events to or past it.  With the tests' short blocks these cross
    block edges too, by one block or by more; a signal, a photon detected
    alone or a dark crosses one only by rounding to its block's end.
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
        idler_channels=tuple(chans[n_s:n_s + n_i]),
        interferometer=draw(st.sampled_from([
            None, None, UmiConfig(), UmiConfig(arm_delay_ns=0.05,
                                               arm_transmissions=(0.3, 0.6)),
            UmiConfig(arm_delay_ns=0.2, arm_transmissions=(0.0, 1.0))])))


def assert_same_stream(got, want):
    assert sorted(got.times) == sorted(want.times)
    for c, t in want.times.items():
        assert got.times[c].dtype == t.dtype == np.int64
        assert np.array_equal(got.times[c], t)
    assert got.truth == want.truth
    assert got.n_pairs_generated == want.n_pairs_generated
    assert got.duration_ps == want.duration_ps


# idlers led by their signals cross 244 block edges of 2^12 ps: most are
# handed down, and those the Gaussian part of their delay puts after
# their signal are handed up
ACROSS_EDGES = dict(
    model=SourceModel(pump_power_uw=40.0, pgr_slope_mhz_per_uw=500.0,
                      idler_delay_sign=-1),
    duration_s=1e-6, seed=2, block_events=7, min_block_ps=2 ** 12)
# 10 ns of jitter, three idler channels and darks over two blocks of
# 2^16 ps: idlers, led by their signals, are handed both ways
WIDE_JITTER = dict(
    model=SourceModel(pump_power_uw=40.0, pgr_slope_mhz_per_uw=500.0,
                      dark_rate_hz=3e9, jitter_sigma_ps=1e4,
                      idler_delay_sign=-1, signal_channels=(4, 0),
                      idler_channels=(1, 3, 2)),
    duration_s=1e-7, seed=5, block_events=3, min_block_ps=2 ** 16)


@settings(max_examples=200, deadline=None)
@given(model=source_models(),
       duration_s=st.sampled_from([0.0, 1e-9, 3.3e-8, 1e-6]),
       seed=st.integers(0, 2 ** 64 - 1),
       block_events=st.sampled_from([1, 7, 1 << 18]),
       min_block_ps=st.sampled_from([1, 2 ** 10, 2 ** 16]))
# every example is at most 1,024 blocks, so none is skipped
@example(model=SourceModel(pump_power_uw=0.0, dark_rate_hz=2e10),
         duration_s=1e-9, seed=3, block_events=2, min_block_ps=1)
@example(**WIDE_JITTER)
@example(model=SourceModel(min_pair_spacing_ps=1e4, pgr_slope_mhz_per_uw=100),
         duration_s=0.0, seed=1, block_events=2, min_block_ps=1)
@example(model=SourceModel(pump_power_uw=40.0, pgr_slope_mhz_per_uw=500.0,
                           pair_lifetime_ps=1e5),
         duration_s=1e-6, seed=2, block_events=7, min_block_ps=2 ** 10)
@example(model=SourceModel(pump_power_uw=40.0, pgr_slope_mhz_per_uw=500.0,
                           pair_lifetime_ps=1e5, idler_delay_sign=-1),
         duration_s=1e-6, seed=2, block_events=7, min_block_ps=2 ** 10)
@example(**ACROSS_EDGES)
def test_generation_matches_the_whole_stream_reference(
        model, duration_s, seed, block_events, min_block_ps):
    with short_blocks(block_events, min_block_ps):
        # draws of up to 15,625 blocks of 64 ps took most of the suite's
        # time; the test at scale covers 1,193 blocks
        assume(events._plan(model, duration_s)[2] <= 1024)
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


def hands_both_ways(case):
    with short_blocks(case["block_events"], case["min_block_ps"]):
        down, up = handed(case["model"], case["duration_s"], case["seed"])
    return down > 0 and up > 0


def test_the_across_edges_example_hands_events_both_ways():
    # a photon detected alone or a dark stays in its block (save rounding
    # to its end), so only pair idlers carry the hand-off both ways
    assert hands_both_ways(ACROSS_EDGES)


def test_the_wide_jitter_example_hands_events_both_ways():
    assert hands_both_ways(WIDE_JITTER)


def test_generation_matches_the_reference_at_scale():
    # the g2 layout (two signal channels) over about 3.5e5 events, in one
    # block, in two and in 1,193 blocks, with 2000 ps of jitter on each
    # pair's idler delay, which carries idlers across block edges both ways
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
                down, up = handed(model, 0.02, 12345)
                assert down > 0 and up > 0 and down + up > 10


def test_block_length_is_sized_from_the_rate():
    for pump, n_blocks in ((0.001, 1), (0.46, 117), (2.0, 466)):
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
    draws = events._Draws.of(model)

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
            drawn = {k: events._drawn_block(
                draws, 99, k, k * block, min(block, duration_ps - k * block))
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
    # a 0.1 s cavity lifetime carries idlers past the 8.6 ms blocks
    cfg = tmp_path / "slow.cfg"
    cfg.write_text("[source]\npump_power_uw = 1.0\nsignal_losses_db = 0.0\n"
                   "idler_losses_db = 0.0\npair_lifetime_ps = 1e11\n")
    assert main(["coinc", "-c", str(cfg), "--duration", "0.1"]) == 3
    model = SourceModel(pump_power_uw=1.0, pair_lifetime_ps=1e11)
    assert events._plan(model, 0.1)[1] == 1 << 33
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


# --- g2 as time shards in worker processes ----------------------------------


# under short_blocks(1 << 12, 1 << 20): 60 blocks of 34 us in 2 ms, about
# 78 M heralds/s and 39 M signals/s on each channel, so heralds within
# g2's 54 ns reach of a cut, on either side, have partners across it.  The
# 2000 ps of jitter on each pair's idler delay carries heralds (channel 1)
# across block edges both ways
G2_ACROSS_CUTS = (
    "[source]\njitter_sigma_ps = 2000.0\ndark_rate_hz = 1e5\n"
    "saturation_rate_mhz = none\n{}[g2]\npump_power_uw = 1000.0\n"
    "duration_s = 0.002\nlosses_db = 0.0\n")


def sharded_g2(monkeypatch, cfg, n_cpus):
    """run_g2 as time shards on n_cpus CPUs, at most one per block."""
    monkeypatch.setattr(pipeline, "_cpus", lambda: n_cpus)
    with short_blocks(1 << 12, 1 << 20):
        return pipeline.run_g2(cfg)


def assert_no_worker_left(threads):
    assert multiprocessing.active_children() == []
    assert threading.active_count() == threads


def test_g2_rows_match_at_every_shard_count(monkeypatch):
    cfg = parse_config(G2_ACROSS_CUTS.format(""))
    model = pipeline._channel_source(
        cfg, pipeline.channel_pair_rate_hz(cfg, cfg.g2.pump_power_uw),
        losses_db=cfg.g2.losses_db, signal_channels=(0, 2),
        idler_channels=(1,))
    with short_blocks(1 << 12, 1 << 20):
        down, up = handed(model, cfg.g2.duration_s,
                          pipeline.derive_seed(cfg.seed, 2))
    assert down > 0 and up > 0
    threads = threading.active_count()
    # repr: the rows hold NaN, which equals nothing
    want = repr(sharded_g2(monkeypatch, cfg, 1))
    for n_cpus in (2, 3, 4):
        assert repr(sharded_g2(monkeypatch, cfg, n_cpus)) == want
        assert_no_worker_left(threads)


def block_record(block):
    return (block.start_ps, block.duration_ps, block.truth,
            {c: t.tobytes() for c, t in block.times.items()})


def g2_shard_blocks(monkeypatch, cfg, n_cpus):
    """(pid, own shard, records of the blocks it drew) of each of run_g2's
    time shards on n_cpus CPUs, in shard order: each shard's fold is
    replaced by one that records its blocks."""
    drawn = []

    def recorded(blocks, tau_grid_ps, window_ps, own_ps):
        return os.getpid(), own_ps, [block_record(b) for b in blocks]

    monkeypatch.setattr(pipeline, "fold_heralds", recorded)
    monkeypatch.setattr(pipeline, "summed", drawn.extend)
    monkeypatch.setattr(pipeline, "g2_curve", lambda tau, window, fold:
                        dict.fromkeys(("g2", "n_triples", "n_idler", "n_is1",
                                       "n_is2"), np.zeros(len(tau))))
    sharded_g2(monkeypatch, cfg, n_cpus)
    return drawn


def test_each_g2_shard_draws_the_blocks_of_one_pass(monkeypatch):
    # each time shard draws its blocks in a worker process of its own:
    # every block it draws is the block of that start in one plain pass,
    # and it draws a run of them that holds the times it owns
    cfg = parse_config(G2_ACROSS_CUTS.format(""))
    [(pid, own, plain)] = g2_shard_blocks(monkeypatch, cfg, 1)
    assert pid == os.getpid() and own == (None, None) and len(plain) == 60
    starts = [start for start, *_ in plain]
    for n_cpus in (2, 3, 4):
        shards = g2_shard_blocks(monkeypatch, cfg, n_cpus)
        pids = {pid for pid, *_ in shards}
        assert len(pids) == n_cpus and os.getpid() not in pids
        edges = [edge for _, own, _ in shards for edge in own]
        assert edges[0] is None and edges[-1] is None
        assert edges[1:-1:2] == edges[2:-1:2]
        drawn = set()
        for _, (t0, t1), records in shards:
            first = starts.index(records[0][0])
            assert records == plain[first:first + len(records)]
            assert t0 is None or records[0][0] <= t0
            assert t1 is None or records[-1][1] >= t1
            drawn.update(start for start, *_ in records)
        assert drawn == set(starts)


def test_stopping_g2_as_its_first_shard_reports_joins_every_worker(
        monkeypatch):
    # the parent stops g2 as the first shard's fold comes in, while the
    # other workers still fold or wait for a task: every worker is stopped
    # and joined
    alive = []

    def closed(link):
        alive.append(len(multiprocessing.active_children()))
        raise RuntimeError("closed early")

    monkeypatch.setattr(pipeline, "_received", closed)
    cfg = parse_config(G2_ACROSS_CUTS.format(""))
    threads = threading.active_count()
    for n_cpus in (2, 4):
        alive.clear()
        with pytest.raises(RuntimeError, match="closed early"):
            sharded_g2(monkeypatch, cfg, n_cpus)
        assert alive == [n_cpus]
        assert_no_worker_left(threads)


def test_a_g2_shard_raising_in_its_fold_raises_as_one_pass(monkeypatch):
    # a 3.2 us cavity lifetime carries an idler drawn in block 45 past its
    # neighbour: the shards that draw block 45 raise in their fold, and
    # the parent raises it once the others are done, adding no fold
    cfg = parse_config(G2_ACROSS_CUTS.format("pair_lifetime_ps = 3.2e6\n"))
    added = []
    monkeypatch.setattr(pipeline, "summed", added.append)
    threads = threading.active_count()
    for n_cpus in (1, 2, 3, 4):
        with pytest.raises(ValueError) as raised:
            sharded_g2(monkeypatch, cfg, n_cpus)
        assert str(raised.value) == ("an event drawn in the 33554432 ps "
                                     "block at 1509949440 ps lands past its "
                                     "neighbours")
        assert_no_worker_left(threads)
    assert added == []


def test_a_g2_fold_that_raises_leaves_no_thread(monkeypatch):
    # every shard raises as it gathers its first batch's pairs
    def failing_gather(*args):
        raise RuntimeError("mid-count")

    monkeypatch.setattr(tcspc, "_herald_pairs", failing_gather)
    cfg = parse_config(G2_ACROSS_CUTS.format(""))
    threads = threading.active_count()
    for n_cpus in (1, 2, 4):
        with pytest.raises(RuntimeError) as raised:
            sharded_g2(monkeypatch, cfg, n_cpus)
        assert str(raised.value) == "mid-count"
        # the traceback, and with it every frame of the fold, is still held
        assert raised.traceback
        assert_no_worker_left(threads)


def test_invalid_duration_raises_before_any_thread_starts(monkeypatch):
    cfg = parse_config(G2_ACROSS_CUTS.format(""))
    cfg = dataclasses.replace(cfg, g2=dataclasses.replace(cfg.g2,
                                                          duration_s=-1.0))

    def no_workers(*args):
        raise AssertionError("worker processes were started")

    monkeypatch.setattr(pipeline, "_in_processes", no_workers)
    threads = threading.active_count()
    with pytest.raises(ValueError, match="duration_s must be finite"):
        sharded_g2(monkeypatch, cfg, 4)
    assert_no_worker_left(threads)


# --- memory -----------------------------------------------------------------


def traced_peak(fn):
    """(fn(), peak bytes allocated while it ran)."""
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def assert_block_generation_peak_is_flat(signal_channels):
    """Drawing the blocks holds about three of them, whatever the duration.
    The whole-stream generator took 32 B per event, and the one it replaced
    up to 14 B."""
    model = SourceModel(pump_power_uw=10.0, pgr_slope_mhz_per_uw=5.13,
                        detector_efficiency=0.9, dark_rate_hz=1e4,
                        signal_channels=signal_channels, idler_channels=(1,))
    counts, peaks = [], []
    with short_blocks(1 << 12, 1 << 20):
        for d in (0.002, 0.008):
            n, peak = traced_peak(lambda: sum(
                len(b) for b in event_blocks(model, d, 7)))
            counts.append(n)
            peaks.append(peak)
    assert counts[1] > 700_000 and counts[1] > 3.5 * counts[0]
    assert peaks[0] < 1_000_000
    assert peaks[1] < peaks[0] + 100_000


def test_block_generation_peak_does_not_grow_with_the_stream():
    # the g2 layout, two signal channels
    assert_block_generation_peak_is_flat((0, 2))


def test_block_generation_peak_with_one_channel_per_arm():
    # the replay layout: the same bounds
    assert_block_generation_peak_is_flat((0,))


def test_a_drawn_block_casts_its_times_in_place():
    # a block holds one float64 buffer per channel and the jitter scratch,
    # and casts each buffer to int64 in its own memory: the cast it
    # replaced held a channel's int64 copy too, 1.2 MB here.  A first draw
    # sets up numpy's generators, which tracemalloc would count
    model = SourceModel(pump_power_uw=2.0, dark_rate_hz=1e5)
    draws = events._Draws.of(model)
    events._drawn_block(draws, 3, 0, 0, 1 << 20)
    (split, times, _, _), peak = traced_peak(
        lambda: events._drawn_block(draws, 3, 0, 0, 1 << 34))
    # the one channel pair's pairs detected on both arms size the scratch
    held = 8 * (sum(len(t) for t in times.values()) + split[0])
    assert min(len(t) for t in times.values()) > 100_000
    assert peak < held + 8 * events._CAST_EVENTS + 20_000


@pytest.mark.parametrize("n", [0, 1, 6, 7, 8, 14, 15, 50])
def test_the_cast_in_place_is_rint_then_astype(n, monkeypatch):
    # across chunk edges, of either sign, halves rounded to even, and up
    # to 2^53, past which every float64 is an integer
    monkeypatch.setattr(events, "_CAST_EVENTS", 7)
    edge = [0.5, -0.5, 1.5, -2.5, 2 ** 52 + 0.5, 2 ** 53, -2 ** 53,
            2 ** 53 - 1, -(2 ** 52) - 0.5]
    rng = np.random.default_rng(n)
    t = rng.permutation(np.concatenate([
        edge, rng.uniform(-2 ** 53, 2 ** 53, 25),
        rng.uniform(-1e4, 1e4, 25)]))[:n].copy()
    want = np.rint(t).astype(np.int64)
    got = events._cast(t)
    assert got.dtype == np.int64 and got.base is t
    assert np.array_equal(got, want)


@pytest.mark.parametrize("umi", [None, UmiConfig()])
@pytest.mark.parametrize("length_ps", [1 << 22, 2 ** 53])
def test_drawn_blocks_cast_in_chunks_match_the_reference(umi, length_ps,
                                                         monkeypatch):
    # idlers that lead their signals by 0.1 us put times below a 4 us
    # block's start; a 2^53 ps block draws times up to 2^53.  Chunks of 7
    # events cut every channel many times
    monkeypatch.setattr(events, "_CAST_EVENTS", 7)
    model = SourceModel(pump_power_uw=40.0 / length_ps * 2 ** 22,
                        pgr_slope_mhz_per_uw=500.0, pair_lifetime_ps=1e5,
                        dark_rate_hz=2e12 / length_ps, idler_delay_sign=-1,
                        interferometer=umi)
    start = 5 * length_ps
    split, times, detected, dark = events._drawn_block(
        events._Draws.of(model), 9, 5, start, length_ps)
    w_split, w_times, w_detected, w_dark, delays = reference_block(
        model, 9, 5, length_ps)
    assert (split, detected, dark) == (list(w_split), w_detected, w_dark)
    for c, t in w_times.items():
        assert len(t) > 50
        assert np.array_equal(times[c], np.sort(
            np.rint(t).astype(np.int64) + start + delays[c]))
    if length_ps < 2 ** 53:
        assert times[1][0] < start
    else:
        assert max(t[-1] for t in times.values()) - start > 2 ** 52


@pytest.mark.parametrize("signal_channels", [(0,), (0, 2)])
def test_generated_channels_own_int64_buffers(signal_channels):
    # 1 us of jitter on each pair's idler delay carries idlers across the
    # short blocks' edges both ways, so a channel joins handed events too
    model = SourceModel(pump_power_uw=1.0, dark_rate_hz=1e6,
                        jitter_sigma_ps=1e6, idler_delay_sign=-1,
                        signal_channels=signal_channels, idler_channels=(1,))
    for blocks in ((1 << 18, 1 << 30), (1 << 10, 1 << 20)):
        with short_blocks(*blocks):
            stream = generate_events(model, 1e-3, 11)
            n_blocks = events._plan(model, 1e-3)[2]
            down, up = handed(model, 1e-3, 11)
        assert n_blocks == (1 if blocks[0] > 1 << 10
                            else {1: 8, 2: 15}[len(signal_channels)])
        assert n_blocks == 1 or (down > 0 and up > 0)
        truth = stream.truth
        for c, times in stream.times.items():
            # one int64 array per channel, whatever the number of blocks,
            # holding every event drawn for it and not clipped
            assert times.dtype == np.int64 and times.flags.owndata
            assert times.base is None
            assert len(times) == (truth.detected[c] + truth.dark[c]
                                  - truth.clipped[c])


def io_peaks(tmp_path, n_pairs, suffix):
    """Extra peaks of writing and reading a stream of 2 * n_pairs events."""
    t = np.sort(np.random.default_rng(n_pairs).integers(0, 10 ** 9, n_pairs))
    stream = EventStream({0: t, 1: t + 10, 3: t[::2] + 20}, 10 ** 9 + 20)
    path = tmp_path / f"{n_pairs}{suffix}"
    _, write_peak = traced_peak(lambda: write_events(stream, path))
    n, read_peak = traced_peak(lambda: sum(
        len(b) for b in read_blocks(path)))
    assert n == len(stream)
    return write_peak, read_peak


def test_file_io_peak_does_not_grow_with_the_stream(tmp_path, monkeypatch):
    # the whole-stream writer and reader took 275 kB and 163 kB above the
    # smaller stream, and 4.3 MB and 1.6 MB above the larger one; the
    # whole-file CSV reader took 0.77 MB and 12.7 MB
    monkeypatch.setattr(events, "_BLOCK_EVENTS", 256)
    for suffix, bound in ((".ttps", 40_000), (".csv", 120_000)):
        small = io_peaks(tmp_path, 4_000, suffix)
        large = io_peaks(tmp_path, 64_000, suffix)
        for small_peak, large_peak in zip(small, large):
            assert small_peak < bound
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
            channels, times = merged(stream)
        want_channels, want_times = reference_merged(stream)
        assert np.array_equal(channels, want_channels)
        assert np.array_equal(times, want_times)
        assert channels.dtype == np.uint8 and times.dtype == np.int64


@pytest.mark.parametrize("name", ["e.ttps", "e.csv"])
def test_writer_returns_the_summed_truth_of_its_blocks(tmp_path, name):
    model = SourceModel(pump_power_uw=100.0, dark_rate_hz=1e8)
    with short_blocks(8, 1 << 12):
        blocks = list(event_blocks(model, 1e-7, 3))
        truth = write_events(iter(blocks), tmp_path / name)
        # a file's blocks carry no truth
        assert write_events(read_blocks(tmp_path / name),
                            tmp_path / ("copy_" + name)) is None
    assert len(blocks) > 5
    assert truth == events.summed([b.truth for b in blocks])
    assert truth.n_pairs_generated > 0


# timestamps: a few shared ones, so equal times fall on different
# channels, and any int64 an event file holds, the extremes included
ANY_TIME = st.integers(0, 6) | st.integers(0, 2 ** 63 - 1)


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.tuples(st.integers(0, 255), ANY_TIME), max_size=40),
       block=st.integers(1, 5))
@example(rows=[(3, 5), (0, 5), (255, 5), (1, 0), (2, 0),
               (2, 2 ** 63 - 1), (7, 1), (7, 10), (9, 9)], block=2)
def test_csv_writer_matches_row_by_row_formatting(tmp_path_factory, rows,
                                                  block):
    # the vectorised CSV formatting against the row-by-row writer kept in
    # reference_write_events
    times = {}
    for c, t in rows:
        times.setdefault(c, []).append(t)
    stream = EventStream({c: np.sort(np.array(t, dtype=np.int64))
                          for c, t in times.items()}, 2 ** 63 - 1)
    folder = tmp_path_factory.mktemp("csv")
    reference_write_events(stream, folder / "want.csv", "csv")
    with mock.patch.object(events, "_BLOCK_EVENTS", block):
        write_events(stream, folder / "got.csv")
    assert (folder / "got.csv").read_bytes() == (
        folder / "want.csv").read_bytes()


def test_merged_blocks_keep_ties_together(monkeypatch):
    monkeypatch.setattr(events, "_BLOCK_EVENTS", 1)
    blocks = [(c[order].tolist(), t[order].tolist())
              for c, t, order in TIES_AT_EDGE._merged_blocks()]
    assert blocks == [([0], [1]), ([2], [2]),
                      ([0, 0, 0, 1, 1, 2], [5] * 6), ([2], [9])]


@settings(max_examples=100, deadline=None)
@given(stream=channel_streams(), block=st.integers(1, 3))
def test_from_merged_in_blocks_splits_each_channel(tmp_path_factory, stream,
                                                   block):
    # the merged records of a file, read in blocks of `block` records, each
    # block split into its channels
    channels, times = reference_merged(stream)
    path = tmp_path_factory.mktemp("split") / "a.ttps"
    write_events(stream, path)
    with mock.patch.object(events, "_BLOCK_EVENTS", block):
        back = read_events(path)
    assert sorted(back.times) == sorted(set(channels.tolist()))
    for c in back.times:
        assert back.times[c].dtype == np.int64
        assert np.array_equal(back.times[c], times[channels == c])


# --- join: a stream cut into blocks and joined again -------------------------


TRUTH_CHANNELS = (0, 1, 3)


@st.composite
def truth_counters(draw):
    count = st.integers(0, 1000)
    return TruthCounters(*(draw(count) for _ in range(4)), **{
        name: {c: draw(count) for c in TRUTH_CHANNELS}
        for name in ("detected", "dark", "clipped")})


@st.composite
def cut_streams(draw):
    """(stream, blocks): a stream cut at arbitrary times into consecutive
    blocks, empty ones among them, each block missing some of the channels
    it holds no events of, and each with counters or None."""
    stream = draw(channel_streams())
    cuts = sorted(draw(st.lists(st.integers(0, 40) | st.integers(
        0, stream.duration_ps), max_size=6)))
    edges = [0] + cuts + [stream.duration_ps]
    blocks = []
    for lo, hi in zip(edges, edges[1:]):
        times = {}
        for c, t in stream.times.items():
            part = t[np.searchsorted(t, lo):np.searchsorted(t, hi)]
            if len(part) or draw(st.booleans()):
                times[c] = part
        blocks.append(EventStream(times, hi, start_ps=lo,
                                  truth=draw(st.none() | truth_counters())))
    return stream, blocks


def reference_truth(truths):
    """The counters summed field by field; None when any part has none."""
    if any(t is None for t in truths):
        return None
    return TruthCounters(
        *(sum(getattr(t, name) for t in truths) for name in (
            "pairs_both", "pairs_signal_only", "pairs_idler_only",
            "pairs_neither")),
        **{name: {c: sum(getattr(t, name)[c] for t in truths)
                  for c in TRUTH_CHANNELS}
           for name in ("detected", "dark", "clipped")})


@settings(max_examples=200, deadline=None)
@given(cut=cut_streams())
@example(cut=(TIES_AT_EDGE, [
    EventStream({0: np.array([1], dtype=np.int64)}, 2),
    EventStream({2: np.array([2], dtype=np.int64)}, 5, start_ps=2),
    EventStream({}, 5, start_ps=5),
    EventStream({c: t[t >= 5] for c, t in TIES_AT_EDGE.times.items()}, 10,
                start_ps=5)]))
def test_from_blocks_joins_a_stream_cut_into_blocks(cut):
    stream, blocks = cut
    got = EventStream.from_blocks(iter(blocks))
    held = {c for b in blocks for c in b.times}
    assert set(got.times) == held
    for c, t in stream.times.items():
        assert got.channel_times(c).dtype == np.int64
        assert np.array_equal(got.channel_times(c), t)
    assert got.duration_ps == blocks[-1].duration_ps == stream.duration_ps
    assert got.truth == reference_truth([b.truth for b in blocks])


def test_from_blocks_joins_blocks_that_reach_past_the_next_start():
    # blocks routed after generation through 50-ps arms: the first block's
    # 140 ps event, on the long arm, lies past the next block's start, so
    # the blocks' times concatenated would read [95, 140, 101, 150]
    routed = [EventStream({0: np.array([95, 140], dtype=np.int64)}, 150),
              EventStream({0: np.array([101, 150], dtype=np.int64)}, 250,
                          start_ps=100)]
    got = EventStream.from_blocks(routed)
    assert got.channel_times(0).tolist() == [95, 101, 140, 150]
    assert got.duration_ps == 250


# --- reader: errors at block boundaries -------------------------------------


def ttps_bytes(records, n_channels=4):
    """A .ttps file of (channel, timestamp) records."""
    return (struct.pack("<4sIH6s", b"TTPS", 1, n_channels, b"\0" * 6)
            + b"".join(struct.pack("<BQ", c, t) for c, t in records))


GOOD = [(0, 1), (1, 2), (0, 3), (1, 3), (2, 7), (0, 8)]


def csv_text(records):
    """A CSV event file of (channel, timestamp) records, or of rows of
    other lengths."""
    return "channel,timestamp_ps\n" + "".join(
        ",".join(map(str, r)) + "\n" for r in records)


# GOOD 10^12 ps later: rows of 16 characters, so that a CSV block of
# 16 * _BLOCK_EVENTS characters holds only a few of them
CSV_GOOD = [(c, 10 ** 12 + t) for c, t in GOOD]


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

    path = tmp_path / "e.csv"
    path.write_text(csv_text(CSV_GOOD))
    back = read_events(path, duration_ps=10 ** 12 + 9)
    assert {c: (t - 10 ** 12).tolist() for c, t in back.times.items()} == {
        0: [1, 3, 8], 1: [2, 3], 2: [7]}
    # CSV blocks are of text, not rows: each bad row goes at every place,
    # so that some case puts it at a block edge
    cases = [("duration", CSV_GOOD, 10 ** 12 + 8)]
    for at in range(1, len(CSV_GOOD) + 1):
        before, after = CSV_GOOD[:at], CSV_GOOD[at:]
        cases += [
            ("time-sorted", before + [(0, 10 ** 12)] + after, None),
            ("channel", before + [(256, before[-1][1])] + after, None),
            ("int64", before + [(1, 2 ** 63)] + after, None),
            ("negative", before + [(1, -1)] + after, None),
            ("columns", before + [(1, before[-1][1], 0)] + after, None),
        ]
    for match, records, duration_ps in cases:
        path.write_text(csv_text(records))
        with pytest.raises(EventFormatError, match=match):
            read_events(path, duration_ps=duration_ps)
    # a parse error names the bad row's place in the file
    for at in range(len(CSV_GOOD) + 1):
        path.write_text(csv_text(CSV_GOOD[:at] + [(1, "x")] + CSV_GOOD[at:]))
        with pytest.raises(EventFormatError) as err:
            read_events(path)
        assert sum(map(int, re.findall(r"row (\d+)", str(err.value)))) == at
    # a file without the header row would lose its first event
    path.write_text("0,100\n1,200\n0,300\n")
    with pytest.raises(EventFormatError, match=f"{re.escape(str(path))}: "
                       "the first row is not the header"):
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
