"""simulate, coinc and g2 as time shards, against one pass.

A time shard [t0, t1) owns the events in it; a fold of it reads the blocks,
or the records, that hold its events' partners, and the folds of
consecutive shards add up to the whole stream's.  simulate writes each
shard's blocks to its part of the file.  pipeline._cpus sets how many
shards there are (at most one per block), so the tests set it: with more
than one, the shards run in forked worker processes.
"""

import dataclasses
import functools
import hashlib
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diskspdc import events, pipeline
from diskspdc.cli import main
from diskspdc.config import parse_config
from diskspdc.events import (EventFormatError, EventStream, SourceModel,
                             block_shards, event_blocks, event_parts,
                             file_shards, read_blocks, summed, write_events)
from diskspdc.tcspc import (DelayHistogram, fold_delays, fold_heralds,
                            g2_curve, heralded_g2, heralded_g2_span)

from streams import from_merged, handed, short_blocks


def edges_of(cuts):
    """The time shards between sorted cut times, open at both ends."""
    edges = [None, *cuts, None]
    return list(zip(edges[:-1], edges[1:]))


def assert_sums_to(folds, whole):
    """The one sum of the folds equals the one-pass fold in every field."""
    total = summed(folds)
    assert (total.n_a, total.n_b, total.duration_ps, total.delays.lo_ps) == (
        whole.n_a, whole.n_b, whole.duration_ps, whole.delays.lo_ps)
    assert np.array_equal(total.delays.counts, whole.delays.counts)


def shard_blocks(n):
    """A drawn stream's shards at least n blocks long."""
    return mock.patch.object(events, "_SHARD_BLOCKS", n)


def owned(shard, end_ps):
    """The part of the shard [t0, t1), None an open end, inside [0, end)."""
    t0, t1 = shard
    return max(min(end_ps if t1 is None else t1, end_ps)
               - max(0 if t0 is None else t0, 0), 0)


def test_delay_histograms_add_over_one_span():
    a = DelayHistogram(-1, np.array([1, 2, 3]))
    assert np.array_equal((a + a).counts, [2, 4, 6])
    for other in (DelayHistogram(0, np.array([1, 2, 3])),
                  DelayHistogram(-1, np.array([1, 2]))):
        with pytest.raises(ValueError, match="do not add"):
            a + other


# --- the sharded fold --------------------------------------------------------


# about 40 events a block of 2^10 ps: 0.2 us hold 196 blocks.  A pair's
# idler delay, Exp(50 ps) plus a Gaussian of 28 ps, hands idlers across
# block edges, most of them up; signals, photons detected alone and darks
# stay in their blocks
BUSY = SourceModel(pump_power_uw=20.0, pgr_slope_mhz_per_uw=1000.0,
                   dark_rate_hz=2e9, jitter_sigma_ps=20.0,
                   pair_lifetime_ps=50.0)
BUSY_S = 2e-7


def block_record(block):
    return (block.start_ps, block.duration_ps, block.truth,
            {c: t.tobytes() for c, t in block.times.items()})


def reach(shard, lo, hi):
    """The times [t0 + min(lo, 0), t1 + max(hi, 0)) that a fold of the
    shard reads, None an open end."""
    t0, t1 = shard
    return (None if t0 is None else t0 + min(lo, 0),
            None if t1 is None else t1 + max(hi, 0))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32),
       cuts=st.lists(st.integers(-3000, 203_000) | st.integers(0, 200).map(
           lambda k: k << 10), max_size=5),
       lo=st.integers(-4000, 0), hi=st.integers(0, 4000))
@example(seed=1, cuts=[10 << 10, 10 << 10, 11 << 10], lo=-1, hi=1)
@example(seed=2, cuts=[0, 200_000], lo=0, hi=0)
def test_generated_shards_add_up_to_one_pass(seed, cuts, lo, hi):
    # the pinned examples' blocks hand events both ways
    # (test_busy_blocks_hand_events_both_ways)
    with short_blocks(6, 1 << 10):
        assert events._plan(BUSY, BUSY_S)[2] > 100
        every = list(event_blocks(BUSY, BUSY_S, seed))
        shards = []
        for s in edges_of(sorted(cuts)):
            r0, r1 = reach(s, lo, hi)
            # event_blocks given times draws the blocks of one pass that
            # hold them
            blocks = list(event_blocks(BUSY, BUSY_S, seed, (r0, r1)))
            assert list(map(block_record, blocks)) == [
                block_record(b) for b in every
                if (r0 is None or b.duration_ps > r0)
                and (r1 is None or b.start_ps < r1)]
            shards.append((s, blocks))
    whole = fold_delays(iter(every), 0, 1, lo, hi)
    # a shard that holds no time of the stream reads no block
    folds = [fold_delays(blocks, 0, 1, lo, hi, s) for s, blocks in shards
             if blocks]
    assert_sums_to(folds, whole)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32),
       cuts=st.lists(st.integers(-3000, 203_000) | st.sampled_from(
           [0, -1, 200_000, 1 << 40]), max_size=5),
       lo=st.integers(-4000, 0), hi=st.integers(0, 4000),
       source=st.sampled_from(["drawn", "ttps", "ttps with duration"]))
@example(seed=4, cuts=[-1, 0, 0, 10 << 10, 1 << 40], lo=-5, hi=5,
         source="ttps")
def test_shard_folds_own_their_spans(tmp_path_factory, seed, cuts, lo, hi,
                                     source):
    # each shard's fold owns the part of [t0, t1) inside the stream's
    # [0, end), whatever the cuts: duplicates, at 0, before the stream or
    # past its end.  Their one sum is the one-pass fold.  The pinned
    # example's blocks hand events both ways
    # (test_busy_blocks_hand_events_both_ways)
    path = tmp_path_factory.mktemp("spans") / "e.ttps"
    duration = 200_000 if source == "ttps with duration" else None
    with short_blocks(64, 1 << 10):
        if source == "drawn":
            blocks = functools.partial(event_blocks, BUSY, BUSY_S, seed)
        else:
            write_events(event_blocks(BUSY, BUSY_S, seed), path)
            blocks = functools.partial(read_blocks, path, duration)
        whole = fold_delays(blocks(), 0, 1, lo, hi)
        folds = []
        for s in edges_of(sorted(cuts)):
            read = list(blocks(reach(s, lo, hi)))
            # a shard that holds no time of a drawn stream reads no block
            if read:
                folds.append(fold_delays(read, 0, 1, lo, hi, s))
                assert folds[-1].duration_ps == owned(s, whole.duration_ps)
            else:
                assert owned(s, whole.duration_ps) == 0
    assert_sums_to(folds, whole)


# BUSY's rates with heralds on channel 1 and two signal channels
HERALDED = dataclasses.replace(BUSY, signal_channels=(0, 2),
                               idler_channels=(1,))


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2 ** 32),
       cuts=st.lists(st.integers(0, 195), max_size=4),
       taus=st.lists(st.integers(-3000, 3000), min_size=1, max_size=4),
       window=st.integers(1, 2000))
@example(seed=3, cuts=[50, 100], taus=[-3000, 3000], window=2000)
def test_g2_shards_add_up_to_one_pass(seed, cuts, taus, window):
    # cut at block starts, as block_shards cuts: each shard folds its own
    # heralds over the blocks pipeline._shard_fold draws for them, over
    # heralded_g2_span's reach, up to 8 blocks of 2^10 ps past each cut,
    # and the shards' HeraldFolds add up to the one pass's.  The pinned
    # example's blocks hand heralds both ways
    # (test_busy_blocks_hand_events_both_ways)
    tau = np.array(taus, dtype=float)
    with short_blocks(6, 1 << 10):
        _, block, n_blocks = events._plan(HERALDED, BUSY_S)
        assert n_blocks == 196
        folds = [pipeline._shard_fold(
                     functools.partial(fold_heralds, tau_grid_ps=tau,
                                       window_ps=window),
                     functools.partial(event_blocks, HERALDED, BUSY_S, seed),
                     heralded_g2_span(tau, window), s)
                 for s in edges_of(sorted(k * block for k in cuts))]
        want = heralded_g2(event_blocks(HERALDED, BUSY_S, seed), tau, window)
    got = g2_curve(tau, window, summed(folds))
    assert got.keys() == want.keys()
    for key in want:
        assert np.array_equal(got[key], want[key], equal_nan=True), key


@pytest.mark.parametrize("model, blocks, seed", [
    (BUSY, 6, 1), (BUSY, 6, 2), (BUSY, 64, 4), (HERALDED, 6, 3)])
def test_busy_blocks_hand_events_both_ways(model, blocks, seed):
    # the pinned examples of the three tests above, whose random seeds
    # hand a few idlers down at some seeds and none at others
    with short_blocks(blocks, 1 << 10):
        down, up = handed(model, BUSY_S, seed)
    assert down > 0 and up > 0


# blocks of 2^14 ps, about 15 events each: 0.4 us hold 25 blocks.  A block
# holds the longest arm delay drawn, 2^13 ps, with the reach of a pair's
# idler delay: generation raises for an event that lands past the block
# after its own.  Long-arm events and delayed idlers are handed up.  None
# is handed down at the first pinned example: at about 15 events a block,
# few idlers lead their signals (their delay is Exp(200 ps) plus a
# Gaussian of 57 ps), and by tens of ps.  With idler_delay_sign = -1 every
# idler leads its signal, and a few are handed down
FRANSON_BLOCKS = (8, 1 << 14)
FRANSON_CFG = """
seed = {seed}

[source]
pump_power_uw = 100.0
saturation_rate_mhz = 1e9
signal_losses_db = 0.0
idler_losses_db = 0.0
dark_rate_hz = 1e7
idler_delay_sign = {sign}

[spectrum]
peak_fraction = 1.0

[umi]
arm_delay_ns = {delay_ns}
postselect_window_ps = 200

[franson]
duration_s = 4e-7
xi_points = 8
"""


def franson_on(cfg, shards):
    """run_franson's table and PairFold, its drawn stream cut by shards(B),
    B the block length, and folded in this process."""
    folds = []
    metrics = pipeline.two_fold_metrics
    with pytest.MonkeyPatch.context() as mp, short_blocks(*FRANSON_BLOCKS):
        mp.setattr(pipeline, "_cpus", lambda: 1)
        mp.setattr(pipeline, "block_shards", lambda model, duration_s, _:
                   shards(events._plan(model, duration_s)[1]))
        mp.setattr(pipeline, "two_fold_metrics",
                   lambda pair, **kw: folds.append(pair) or metrics(pair,
                                                                    **kw))
        table = pipeline.run_franson(cfg)
    return table, folds[0]


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32), delay=st.integers(201, 1 << 13),
       cuts=st.lists(st.integers(0, 25), max_size=3),
       sign=st.sampled_from([1, -1]))
@example(seed=0, delay=5331, cuts=[8], sign=1)
# idlers that lead their signals: blocks 8, 16 and 22 hand one down each,
# across the cuts (test_franson_blocks_hand_events_down)
@example(seed=2, delay=5331, cuts=[8, 16, 22], sign=-1)
def test_franson_shards_add_up_to_one_pass(seed, delay, cuts, sign):
    # cut at any block starts, S = 1 to 4 shards: each shard draws its
    # blocks routed as a whole pass does, long-arm events handed across
    # block edges like any other, and reads its fold's span
    cfg = parse_config(FRANSON_CFG.format(seed=seed, delay_ns=delay / 1000,
                                          sign=sign))
    with short_blocks(*FRANSON_BLOCKS):
        model = pipeline._channel_source(cfg, pipeline.channel_pair_rate_hz(
            cfg, cfg.source.pump_power_uw))
        assert events._plan(model, 4e-7)[1:] == (1 << 14, 25)
    whole, pair = franson_on(cfg, lambda block: [(None, None)])
    sharded, pairs = franson_on(cfg, lambda block: edges_of(
        sorted(k * block for k in cuts)))
    assert min(pair.n_a, pair.n_b) > 40
    assert sharded == whole
    assert_sums_to([pairs], pair)


def franson_handed(seed, sign):
    """handed's (down, up) of run_franson's routed stream at an arm delay
    of 5.331 ns."""
    cfg = parse_config(FRANSON_CFG.format(seed=seed, delay_ns=5.331,
                                          sign=sign))
    model = pipeline._channel_source(
        cfg, pipeline.channel_pair_rate_hz(cfg, cfg.source.pump_power_uw),
        interferometer=pipeline._umi_config(cfg))
    with short_blocks(*FRANSON_BLOCKS):
        return handed(model, 4e-7, pipeline.derive_seed(cfg.seed, 3))


def test_franson_blocks_hand_events_up():
    # the first pinned example's routed blocks hand long-arm events and
    # delayed idlers up; none down (see FRANSON_BLOCKS)
    assert franson_handed(0, 1)[1] > 0


def test_franson_blocks_hand_events_down():
    # the pinned example whose idlers lead their signals hands some down
    assert franson_handed(2, -1)[0] > 0


@st.composite
def tied_files(draw):
    """(channels, times) of a sorted file of up to 60 records on channels
    0-2, with many equal times, and cut times: some the records' own, so
    that ties fall at a cut, and some anywhere."""
    n = draw(st.integers(0, 60))
    times = np.sort(np.array(draw(st.lists(
        st.integers(0, 40) | st.integers(0, 5000), min_size=n, max_size=n)),
        dtype=np.int64))
    ch = np.array(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)),
                  dtype=np.uint8)
    order = np.lexsort((ch, times))
    own = st.sampled_from(times.tolist()) if n else st.integers(0, 5000)
    cuts = draw(st.lists(own | st.integers(-100, 5100), max_size=5))
    return ch[order], times[order], sorted(cuts)


@settings(max_examples=150, deadline=None)
@given(file=tied_files(), lo=st.integers(-300, 0), hi=st.integers(0, 300),
       block=st.integers(1, 7))
@example(file=(np.array([0, 1, 0, 1, 0], dtype=np.uint8),
               np.array([3, 3, 3, 3, 9], dtype=np.int64), [3]),
         lo=0, hi=0, block=1)
def test_file_shards_add_up_to_one_pass(tmp_path_factory, file, lo, hi,
                                        block):
    ch, times, cuts = file
    path = tmp_path_factory.mktemp("shards") / "e.ttps"
    write_events(from_merged(ch, times, 5001), path)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(events, "_BLOCK_EVENTS", block)
        whole = fold_delays(read_blocks(path), 0, 1, lo, hi)
        folds = [fold_delays(read_blocks(path, None, reach(s, lo, hi)),
                             0, 1, lo, hi, s)
                 for s in edges_of(cuts)]
    assert_sums_to(folds, whole)


def ttps_times(path, times):
    """A .ttps file of channel-0 records at the given times, in order."""
    records = np.zeros(len(times), dtype=events._RECORD_DTYPE)
    records["t"] = times
    with open(path, "wb") as fh:
        fh.write(events._HEADER.pack(events.MAGIC, 1, 1, bytes(6)))
        fh.write(records.tobytes())


@settings(max_examples=150, deadline=None)
@given(times=st.lists(st.integers(0, 50), min_size=2, max_size=40),
       cuts=st.lists(st.integers(-5, 55), max_size=5),
       lo=st.integers(-20, 0), hi=st.integers(0, 20))
def test_shard_records_hold_every_pair_of_neighbours(tmp_path_factory, times,
                                                     cuts, lo, hi):
    # on any file, sorted or not, the reader's pairwise checks see every
    # pair of neighbouring records in some shard, whatever the order of
    # the cuts: an unsorted file's records give them in any order
    path = tmp_path_factory.mktemp("unsorted") / "e.ttps"
    ttps_times(path, times)
    with open(path, "rb") as fh:
        ranges = [events._shard_records(fh, len(times), reach(s, lo, hi))
                  for s in edges_of(cuts)]
    for k in range(len(times) - 1):
        assert any(first <= k and k + 2 <= stop for first, stop in ranges)


def test_shard_counts_follow_blocks_and_cpus(tmp_path):
    # a drawn stream of n blocks, or a .ttps file of n blocks of records,
    # takes max(min(CPUs, n // _SHARD_BLOCKS), 1) shards, cut at the starts
    # of blocks n.j/S, or at the timestamps of records n.j/S
    model = SourceModel(pump_power_uw=2.0, dark_rate_hz=1e5)
    path = tmp_path / "e.ttps"
    with short_blocks(1 << 12, 1 << 20):
        _, block, n_blocks = events._plan(model, 0.01)
        assert n_blocks > 10
        assert block_shards(model, 0.01, 3) == edges_of(
            [n_blocks // 3 * block, 2 * n_blocks // 3 * block])
        assert len(block_shards(model, 0.01, 1000)) == n_blocks
        assert block_shards(model, 0.0, 4) == [(None, None)]
        with shard_blocks(4):
            assert len(block_shards(model, 0.01, 1000)) == n_blocks // 4
            assert block_shards(model, 0.01, 2) == edges_of(
                [n_blocks // 2 * block])
        with shard_blocks(n_blocks // 2 + 1):
            assert block_shards(model, 0.01, 4) == [(None, None)]
        with shard_blocks(n_blocks // 2):
            assert len(block_shards(model, 0.01, 4)) == 2
        write_events(event_blocks(model, 0.01, 1), path)
        n = (os.path.getsize(path) - 16) // 9
        assert len(file_shards(path, 1000)) == -(-n // (1 << 12)) > 10
        times = np.fromfile(path, dtype=events._RECORD_DTYPE, offset=16)["t"]
        assert file_shards(path, 2) == edges_of([int(times[n // 2])])
        with shard_blocks(4):
            assert len(file_shards(path, 1000)) == -(-n // (1 << 12)) // 4
    # 2^16 records a block, 24 blocks a shard: the file is one
    assert file_shards(path, 2) == [(None, None)]
    assert file_shards(tmp_path / "e.csv", 4) == [(None, None)]


def test_a_csv_file_is_read_whole(tmp_path):
    path = tmp_path / "e.csv"
    write_events(EventStream({0: np.array([5, 7]), 1: np.array([6])}, 10),
                 path)
    assert len(events.read_events(path)) == 3
    for shard in ((0, None), (None, 8), (0, 8)):
        with pytest.raises(ValueError, match="a CSV file is read whole"):
            next(read_blocks(path, None, shard))


def test_event_parts_join_to_one_write(tmp_path):
    # the later parts hold higher channels than the first: the header's
    # channel count is the largest of the parts'
    blocks = [EventStream({0: np.array([5, 7])}, 10),
              EventStream({3: np.array([12])}, 20, start_ps=10),
              EventStream({}, 30, start_ps=20),
              EventStream({1: np.array([35])}, 40, start_ps=30)]
    for suffix in ("ttps", "csv"):
        want, got = tmp_path / f"want.{suffix}", tmp_path / f"got.{suffix}"
        write_events(iter(blocks), want)
        with event_parts(got, len(blocks)) as paths:
            assert paths[0] == got and len(set(paths)) == len(blocks)
            for block, path in zip(blocks, paths):
                write_events(block, path)
        assert got.read_bytes() == want.read_bytes()
        with pytest.raises(RuntimeError), event_parts(got, 3) as paths:
            assert all(os.path.exists(p) for p in paths)
            raise RuntimeError
    assert sorted(os.listdir(tmp_path)) == ["got.csv", "got.ttps",
                                            "want.csv", "want.ttps"]


# --- simulate and coinc at every shard count ---------------------------------


SHORT_CFG = """
[source]
pump_power_uw = 2.0
signal_losses_db = 1.0
idler_losses_db = 1.0
dark_rate_hz = 1e5
"""


@pytest.mark.parametrize("suffix", ["ttps", "csv"])
def test_simulate_and_coinc_match_at_every_shard_count(tmp_path, monkeypatch,
                                                       suffix):
    cfg = parse_config(SHORT_CFG)
    seen = []
    with short_blocks(1 << 12, 1 << 20):
        assert events._plan(pipeline.build_source(cfg), 0.005)[2] >= 4
        for n_cpus in (1, 2, 3, 4):
            monkeypatch.setattr(pipeline, "_cpus", lambda n=n_cpus: n)
            path = tmp_path / f"{n_cpus}.{suffix}"
            _, sim, _ = pipeline.run_simulate(cfg, str(path), 0.005)
            _, read, _ = pipeline.run_coinc(cfg, str(path), 0.005)
            _, drawn, _ = pipeline.run_coinc(cfg, None, 0.005)
            seen.append((hashlib.sha256(path.read_bytes()).hexdigest(),
                         sim, read, drawn))
    assert all(s == seen[0] for s in seen)
    assert seen[0][2] == seen[0][3]
    assert sorted(os.listdir(tmp_path)) == sorted(
        f"{n}.{suffix}" for n in (1, 2, 3, 4))


def test_coinc_folds_a_generated_stream_inline(monkeypatch):
    # a drawn stream of under 2 * _SHARD_BLOCKS blocks is one shard: a
    # worker's start and each cut's neighbouring blocks drawn twice would
    # cost more than a second CPU saves, so it folds inline, whatever the
    # CPUs
    cfg = parse_config(SHORT_CFG)
    with short_blocks(1 << 12, 1 << 20):
        n_blocks = events._plan(pipeline.build_source(cfg), 0.005)[2]
        assert n_blocks >= 4
        want = pipeline.run_coinc(cfg, None, 0.005)

        def no_workers(*args):
            raise AssertionError("worker processes were started")

        monkeypatch.setattr(pipeline, "_in_processes", no_workers)
        monkeypatch.setattr(pipeline, "_cpus", lambda: 4)
        with shard_blocks(n_blocks // 2 + 1):
            assert pipeline.run_coinc(cfg, None, 0.005) == want


def test_coinc_folds_a_short_file_inline(tmp_path, monkeypatch):
    # a .ttps file of under 2 * _SHARD_BLOCKS blocks of records is one
    # shard, as a drawn stream of as many blocks is
    cfg = parse_config(SHORT_CFG)
    path = str(tmp_path / "e.ttps")
    with short_blocks(1 << 12, 1 << 20):
        pipeline.run_simulate(cfg, path, 0.005)
        n_records = (os.path.getsize(path) - 16) // 9
        n_blocks = -(-n_records // (1 << 12))
        assert n_blocks >= 4
        want = pipeline.run_coinc(cfg, path, 0.005)

        def no_workers(*args):
            raise AssertionError("worker processes were started")

        monkeypatch.setattr(pipeline, "_in_processes", no_workers)
        monkeypatch.setattr(pipeline, "_cpus", lambda: 4)
        with shard_blocks(n_blocks // 2 + 1):
            assert pipeline.run_coinc(cfg, path, 0.005) == want


class Planned(Exception):
    """A run stopped once its shards are planned, before any draw."""


@pytest.mark.parametrize("argv, layout", [
    (["g2"], (146, 2)),
    (["simulate", "-c", os.path.join(os.path.dirname(__file__), os.pardir,
                                     "bench", "replay.cfg")], (117, 2)),
    (["franson"], (28, 1)),
])
def test_default_layouts_at_two_cpus(tmp_path, monkeypatch, argv, layout):
    # (blocks, shards) of the default streams on 2 CPUs, planned without
    # drawing: g2 and the replay stream shard, franson's 28 blocks fold
    # inline
    def planned(model, duration_s, n_cpus):
        raise Planned(events._plan(model, duration_s)[2],
                      len(block_shards(model, duration_s, n_cpus)))

    monkeypatch.setattr(pipeline, "_cpus", lambda: 2)
    monkeypatch.setattr(pipeline, "block_shards", planned)
    if argv[0] == "simulate":
        argv = [*argv, "--events", str(tmp_path / "e.ttps")]
    with pytest.raises(Planned) as got:
        main(argv)
    assert got.value.args == layout


def test_a_failed_shard_leaves_no_part_file(tmp_path, monkeypatch, capsys):
    # a 0.1 s cavity lifetime carries idlers past the 8.6 ms blocks, which
    # raises in whichever shards draw them: three shards, three parts
    cfg = tmp_path / "slow.cfg"
    cfg.write_text("[source]\npump_power_uw = 1.0\nsignal_losses_db = 0.0\n"
                   "idler_losses_db = 0.0\npair_lifetime_ps = 1e11\n")
    out = tmp_path / "out"
    out.mkdir()
    monkeypatch.setattr(pipeline, "_cpus", lambda: 3)
    for name in ("e.ttps", "e.csv"):
        with shard_blocks(1):
            assert main(["simulate", "-c", str(cfg), "--duration", "0.1",
                         "--events", str(out / name)]) == 3
        assert "past its neighbours" in capsys.readouterr().err
        assert not [f for f in os.listdir(out) if ".part" in f]


def test_simulate_to_a_missing_folder_names_the_path(tmp_path, monkeypatch,
                                                     capsys):
    path = tmp_path / "no" / "such" / "e.ttps"
    for n_cpus in (1, 2):
        monkeypatch.setattr(pipeline, "_cpus", lambda n=n_cpus: n)
        with short_blocks(1 << 12, 1 << 20):
            assert main(["simulate", "--duration", "0.02", "--events",
                         str(path)]) == 3
        assert capsys.readouterr().err == (
            f"error: [Errno 2] No such file or directory: '{path}'\n")


def test_simulate_to_a_device_runs_as_one_shard(monkeypatch, capsys):
    # parts are appended in place, which /dev/null does not allow: it was
    # written in one pass before there were shards, and still is
    monkeypatch.setattr(pipeline, "_cpus", lambda: 4)
    with short_blocks(1 << 12, 1 << 20):
        assert main(["simulate", "--duration", "0.02", "--events",
                     os.devnull]) == 0
    assert "wrote" in capsys.readouterr().out
    assert not [f for f in os.listdir(os.path.dirname(os.devnull))
                if ".part" in f]


# --- malformed files: the errors of one pass ---------------------------------


def records_file(path, records, n_channels=2):
    data = np.array(records, dtype=events._RECORD_DTYPE)
    with open(path, "wb") as fh:
        fh.write(events._HEADER.pack(events.MAGIC, 1, n_channels, bytes(6)))
        fh.write(data.tobytes())


# 400 records, alternating channels 0 and 1, 1 us apart, far past a
# two-fold fold's reach; blocks of 16 records make 25, so that 4 CPUs, at
# one block a shard, cut the file at records 100, 200 and 300
GOOD = [(k % 2, 10 ** 6 * k) for k in range(400)]


def swapped(records, k):
    """records with k - 1 and k exchanged: an unsorted pair."""
    out = list(records)
    out[k - 1], out[k] = out[k], out[k - 1]
    return out


# each file holds one defect: see the test after this one for two
@pytest.mark.parametrize("records, duration_ps, match", [
    (swapped(GOOD, 200), None, "not time-sorted"),
    (swapped(GOOD, 100), None, "not time-sorted"),
    (swapped(GOOD, 201), None, "not time-sorted"),
    (GOOD[:310] + [(2, 310 * 10 ** 6)] + GOOD[311:], None, "channel 2"),
    (GOOD[:399] + [(1, 4 * 10 ** 8)], 4 * 10 ** 8 - 5,
     "or past the 399999995 ps duration"),
    (GOOD, 399 * 10 ** 6, "or past the 399000000 ps duration"),
    (GOOD[:350] + [(0, 2 ** 63)] + GOOD[351:], None, "int64"),
    (GOOD, None, "truncated record data"),
], ids=["unsorted-at-a-cut", "unsorted-at-the-first-cut",
        "unsorted-after-a-cut", "channel-in-a-later-shard",
        "past-duration-in-the-last-shard", "past-duration-at-the-end",
        "past-int64", "truncated"])
def test_malformed_files_raise_what_one_pass_raises(tmp_path, monkeypatch,
                                                    capsys, records,
                                                    duration_ps, match):
    path = tmp_path / "e.ttps"
    records_file(path, records)
    if match == "truncated record data":
        with open(path, "ab") as fh:
            fh.write(b"\0" * 4)
    monkeypatch.setattr(events, "_BLOCK_EVENTS", 16)
    monkeypatch.setattr(events, "_SHARD_BLOCKS", 1)
    args = ["coinc", "--events", str(path)]
    if duration_ps is not None:
        args += ["--duration", str(duration_ps / 1e12)]
    got = []
    for n_cpus in (1, 4):
        monkeypatch.setattr(pipeline, "_cpus", lambda n=n_cpus: n)
        if match != "truncated record data":
            assert len(file_shards(path, n_cpus)) == n_cpus
        with pytest.raises(EventFormatError, match=match) as err:
            pipeline.run_coinc(parse_config(""), str(path),
                               None if duration_ps is None
                               else duration_ps / 1e12)
        status = main(args)
        got.append((str(err.value), status, capsys.readouterr().err))
    assert got[0] == got[1]
    assert got[0][1] == 3


def test_a_file_with_two_defects_raises_in_every_shard_count(
        tmp_path, monkeypatch, capsys):
    # an unsorted pair just before the cut at record 100 and a channel past
    # the header's count just after shard 0's reach, records 0-101, in one
    # pass's block of records 96-111: one pass checks channels first and
    # names the channel, while shard 0 names the unsorted pair.  Both
    # raise EventFormatError and exit 3
    records = swapped(GOOD, 99)
    records[102] = (2, records[102][1])
    path = tmp_path / "e.ttps"
    records_file(path, records)
    monkeypatch.setattr(events, "_BLOCK_EVENTS", 16)
    monkeypatch.setattr(events, "_SHARD_BLOCKS", 1)
    errors = []
    for n_cpus, match in ((1, "channel 2"), (4, "not time-sorted")):
        monkeypatch.setattr(pipeline, "_cpus", lambda n=n_cpus: n)
        with pytest.raises(EventFormatError, match=match):
            pipeline.run_coinc(parse_config(""), str(path))
        assert main(["coinc", "--events", str(path)]) == 3
        errors.append(capsys.readouterr().err)
    assert errors[0] != errors[1]
