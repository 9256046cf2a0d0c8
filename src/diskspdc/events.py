"""Monte Carlo photon-pair streams and timestamp file IO.

Pairs are emitted as a Poisson process whose rate follows the measured
pair-generation curve (linear slope with optional saturation).  Each photon
independently survives its arm's loss chain and lands on one of its arm's
channels at random, so the pairs split into independent Poisson counts, one
per way of being detected (a signal and an idler channel, a signal channel
only, an idler channel only, neither), and only detected photons are given
a time: a uniform emission time, an exponential cavity lifetime delay on
the idler and Gaussian detector jitter.  A dead-time renewal source
(min_pair_spacing_ps > 0) instead draws every pair time and then the way
each pair is detected.  Dark counts are an independent Poisson background
per channel.

The stream is drawn in consecutive time blocks of B ps, B a power of two
sized from the source's expected event rate so that a block holds about
_BLOCK_EVENTS events, and at least _MIN_BLOCK_PS; a stream shorter than B,
and the renewal source, whose dead time couples neighbouring blocks, are
one block.  Block k has its own generator, spawned from (seed, k), and
draws its counts first, then its times, in a fixed order.  Every temporary
of a draw is one block's, so the times are plain numpy expressions with no
reused buffer, and each channel's photons and darks are concatenated,
rounded and cast to int64 once.  A Poisson process is independent on
disjoint intervals, so the blocks are exact pieces of one stream, and a
given (config, seed) gives the same stream whatever the order in which
the blocks are drawn.  A photon whose cavity delay or jitter carries it
across a block edge is handed to the neighbour that holds its time, so
event_blocks draws one block ahead; one carried past its neighbour raises
ValueError.  Events outside [0, duration) are clipped.  Each block carries
the TruthCounters of its own draws, and the stream's counters are their
sums.  The block layout is part of what a seed
means: the same seed gave another stream before generation went by blocks,
and would again if the block sizing changed.

An EventStream keeps one time-sorted int64 array per channel, which is what
coincidence counting reads; a block is an EventStream of the events in
[start_ps, duration_ps).  event_blocks yields the blocks, and generation
then holds about three blocks; every experiment folds them as they come,
in the process that draws them: no thread draws ahead.
Where one sequence is needed, as for event files, each block's channels are
merged one time block of about _BLOCK_EVENTS events at a time, in time order
with ties broken by channel and never split across blocks.  Both file
formats are read in blocks of records, in one pass (read_blocks).
generate_events and read_events, which only tests and examples call, join
the blocks in one pass (EventStream.from_blocks): they hold every block and
the joined stream at once, about 16 B per event, twice the stream.

A stream splits exactly into time shards [t0, t1), so that separate
processes can each take one.  A generated stream's shards, which simulate
writes and g2 folds, are cut at block starts (block_shards); event_blocks
given a shard draws only the blocks that hold it, and the one before, for
the events that block hands up; each block has its own generator, so a
block is the same whichever shard draws it.  event_parts writes one file
as consecutive parts, each by its own write_events, and appends them.  A
.ttps file's shards, which coinc folds, are cut at the timestamps of
evenly spaced records (file_shards), and shard_records finds the records
that hold a shard's events and their partners (see tcspc._fold_batches)
by bisecting the file one record at a time; a CSV file, which has no
fixed-size records, is one shard.

Streams serialize to a binary timestamp format: a 16-byte header (magic
"TTPS", u32 LE version = 1, u16 LE channel count, 6 zero bytes) followed by
9-byte records of u8 channel + u64 LE timestamp in picoseconds, time-sorted.
The channel count is the largest channel with events + 1, and every
record's channel lies below it.  A path ending in .csv (_is_csv) holds
plain-text channel,timestamp_ps rows instead, after that header row.
Neither format holds a negative timestamp.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import math
import os
import shutil
import struct
import tempfile
from dataclasses import dataclass, field

import numpy as np

MAGIC = b"TTPS"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sIH6s")
_RECORD_DTYPE = np.dtype([("channel", "u1"), ("t", "<u8")])
_EMPTY_TIMES = np.empty(0, dtype=np.int64)
_CSV_HEADER = "channel,timestamp_ps"
# events per generation block, per block of merged output and of records
_BLOCK_EVENTS = 1 << 18
# shortest generation block, about 1.07 ms
_MIN_BLOCK_PS = 1 << 30


class EventFormatError(ValueError):
    """Malformed timestamp file."""


@dataclass(frozen=True)
class SourceModel:
    """Pair source, loss chain, and detector parameters.

    Rates are MHz per uW of pump power; losses are per-arm lists of dB
    stages applied before a common detector efficiency.  saturation_rate_mhz
    is the asymptotic pair rate of rate = slope*P / (1 + slope*P/sat); None
    keeps the rate linear in power.  min_pair_spacing_ps > 0 switches the
    emission to a dead-time renewal process (a synthetic single-pair source
    for heralding tests).
    """

    pump_power_uw: float = 1.0
    pgr_slope_mhz_per_uw: float = 5.13
    saturation_rate_mhz: float | None = None
    pair_lifetime_ps: float = 200.0
    signal_losses_db: tuple[float, ...] = ()
    idler_losses_db: tuple[float, ...] = ()
    detector_efficiency: float = 0.85
    dark_rate_hz: float = 100.0
    jitter_sigma_ps: float = 40.0
    min_pair_spacing_ps: float = 0.0
    idler_delay_sign: int = +1
    signal_channels: tuple[int, ...] = (0,)
    idler_channels: tuple[int, ...] = (1,)

    def __post_init__(self) -> None:
        if self.pump_power_uw < 0:
            raise ValueError("pump_power_uw must be >= 0")
        if self.pgr_slope_mhz_per_uw <= 0:
            raise ValueError("pgr_slope_mhz_per_uw must be positive")
        if self.saturation_rate_mhz is not None and self.saturation_rate_mhz <= 0:
            raise ValueError("saturation_rate_mhz must be positive")
        if self.pair_lifetime_ps <= 0:
            raise ValueError("pair_lifetime_ps must be positive")
        if not 0 < self.detector_efficiency <= 1:
            raise ValueError("detector_efficiency must lie in (0, 1]")
        if self.dark_rate_hz < 0:
            raise ValueError("dark_rate_hz must be >= 0")
        if self.jitter_sigma_ps < 0:
            raise ValueError("jitter_sigma_ps must be >= 0")
        if self.idler_delay_sign not in (-1, +1):
            raise ValueError("idler_delay_sign must be +1 or -1")
        if not self.signal_channels or not self.idler_channels:
            raise ValueError("each arm needs at least one channel")
        both = tuple(self.signal_channels) + tuple(self.idler_channels)
        if len(set(both)) != len(both):
            raise ValueError("channel numbers must be distinct")
        if any(c < 0 or c > 255 for c in both):
            raise ValueError("channels must fit in a byte")

    @property
    def pair_rate_mhz(self) -> float:
        """Expected pair generation rate at the configured power."""
        linear = self.pgr_slope_mhz_per_uw * self.pump_power_uw
        if self.saturation_rate_mhz is None:
            return linear
        return linear / (1.0 + linear / self.saturation_rate_mhz)

    @property
    def signal_transmission(self) -> float:
        return arm_transmission(self.signal_losses_db,
                                self.detector_efficiency)

    @property
    def idler_transmission(self) -> float:
        return arm_transmission(self.idler_losses_db,
                                self.detector_efficiency)


def arm_transmission(losses_db, detector_efficiency: float = 1.0) -> float:
    """Total transmission of a chain of dB stages times detector efficiency."""
    total_db = float(np.sum(np.asarray(losses_db, dtype=float))) if len(
        tuple(losses_db)) else 0.0
    if total_db < 0:
        raise ValueError("stage losses must be >= 0 dB")
    return 10.0 ** (-total_db / 10.0) * detector_efficiency


@dataclass(frozen=True)
class TruthCounters:
    """What the simulator drew for one stream, before any analysis.

    The pairs split by which photons are detected; the four counts sum to
    n_pairs_generated.  Per channel, detected counts the pair photons and
    dark the dark counts drawn for it, and clipped the events of either
    kind cut at the [0, duration) edges, so a channel stores
    detected + dark - clipped events.
    """

    pairs_both: int
    pairs_signal_only: int
    pairs_idler_only: int
    pairs_neither: int
    detected: dict[int, int]
    dark: dict[int, int]
    clipped: dict[int, int]


def _summed(truths) -> TruthCounters | None:
    """The counters of a stream from those of its parts."""
    if not truths or any(t is None for t in truths):
        return None
    total = {}
    for f in dataclasses.fields(TruthCounters):
        parts = [getattr(t, f.name) for t in truths]
        total[f.name] = ({c: sum(p[c] for p in parts) for c in parts[0]}
                         if isinstance(parts[0], dict) else sum(parts))
    return TruthCounters(**total)


@dataclass
class EventStream:
    """Detector clicks as one time-sorted int64 array per channel.

    tags, when present, maps each channel to per-event interferometer path
    labels aligned with its times, for diagnostics only: no file, merge,
    split or routed block carries them.  truth holds the simulator's
    counters of a generated stream, whose pair counts n_pairs_generated
    sums.  A block of a longer stream holds the events in [start_ps,
    duration_ps), and no later block holds a time below start_ps; a whole
    stream is its only block.
    """

    times: dict[int, np.ndarray]
    duration_ps: int
    tags: dict[int, np.ndarray] | None = field(default=None, repr=False)
    truth: TruthCounters | None = field(default=None, repr=False)
    start_ps: int = 0

    @property
    def n_pairs_generated(self) -> int:
        """Pairs the simulator drew, detected or not; 0 without truth."""
        t = self.truth
        return 0 if t is None else (t.pairs_both + t.pairs_signal_only
                                    + t.pairs_idler_only + t.pairs_neither)

    @classmethod
    def from_blocks(cls, blocks) -> EventStream:
        """The stream of its blocks, given in time order, joined in one pass.

        Each channel is its times in every block that holds it (a file's
        blocks hold only the channels with events), concatenated, so the
        blocks and the joined stream are held at once.  Counters add up;
        the duration is the last block's.  An empty sequence raises
        ValueError.
        """
        blocks = list(blocks)
        if not blocks:
            raise ValueError("no blocks: a stream has at least one")
        parts: dict[int, list[np.ndarray]] = {}
        for block in blocks:
            for c, t in block.times.items():
                parts.setdefault(c, []).append(t)
        return cls({c: np.concatenate(p) for c, p in parts.items()},
                   blocks[-1].duration_ps,
                   truth=_summed([b.truth for b in blocks]))

    def _merged_blocks(self):
        """Yield the merged stream as (channels, times, order) blocks.

        A block holds every event up to a cut time, ties at the cut
        included, so equal times never straddle two blocks; the cut is the
        earliest time that lies _BLOCK_EVENTS / (channels left) events on in
        some channel, or the last time once _BLOCK_EVENTS events or fewer
        are left.  times are the channels' slices concatenated in channel
        order, channels the matching channel column, and order their
        stable time sort, which breaks ties by channel and keeps each
        channel's own order: the merged block is times[order], and nothing
        here builds it.
        """
        live = [c for c in sorted(self.times) if len(self.times[c])]
        start = dict.fromkeys(live, 0)
        while live:
            step = max(1, _BLOCK_EVENTS // len(live))
            cut = min(self.times[c][min(start[c] + step, len(self.times[c]))
                                    - 1] for c in live)
            if sum(len(self.times[c]) - start[c] for c in live) \
                    <= _BLOCK_EVENTS:
                cut = max(self.times[c][-1] for c in live)
            stop = {c: int(np.searchsorted(self.times[c], cut, side="right"))
                    for c in live}
            parts = [self.times[c][start[c]:stop[c]] for c in live]
            times = np.concatenate(parts)
            channels = np.repeat(np.array(live, dtype=np.uint8),
                                 [len(p) for p in parts])
            yield channels, times, np.argsort(times, kind="stable")
            start = stop
            live = [c for c in live if stop[c] < len(self.times[c])]

    def __len__(self) -> int:
        return sum(len(t) for t in self.times.values())

    def n_channel(self, channel: int) -> int:
        return len(self.channel_times(channel))

    def channel_times(self, channel: int) -> np.ndarray:
        return self.times.get(channel, _EMPTY_TIMES)


def _renewal_pair_times(model: SourceModel, duration_ps: float,
                        rng: np.random.Generator) -> np.ndarray:
    """Pair times of a renewal process with a hard dead time between pairs."""
    rate_hz = model.pair_rate_mhz * 1e6
    if rate_hz <= 0 or duration_ps <= 0:
        return np.empty(0)
    mean_gap_ps = model.min_pair_spacing_ps + 1e12 / rate_hz
    times = []
    t_last = 0.0
    while t_last < duration_ps:
        block = max(int((duration_ps - t_last) / mean_gap_ps * 1.25) + 16, 16)
        gaps = model.min_pair_spacing_ps + rng.exponential(
            1e12 / rate_hz, block)
        chunk = t_last + np.cumsum(gaps)
        times.append(chunk)
        t_last = float(chunk[-1])
    t = np.concatenate(times)
    return t[t < duration_ps]


def _pair_kinds(model: SourceModel) -> list[tuple[int | None, int | None,
                                                  float]]:
    """Each way a pair can be detected, with its probability.

    (signal channel, idler channel, p), None for an arm whose photon is
    lost: both detected on every pair of channels, then the signal only on
    each signal channel, the idler only on each idler channel, and neither.
    """
    t_s, t_i = model.signal_transmission, model.idler_transmission
    sig, idl = model.signal_channels, model.idler_channels
    return ([(s, i, t_s * t_i / (len(sig) * len(idl)))
             for s in sig for i in idl]
            + [(s, None, t_s * (1 - t_i) / len(sig)) for s in sig]
            + [(None, i, (1 - t_s) * t_i / len(idl)) for i in idl]
            + [(None, None, (1 - t_s) * (1 - t_i))])


def _channels(model: SourceModel) -> list[int]:
    return sorted(model.signal_channels + model.idler_channels)


def _block_rng(seed: int, k: int) -> np.random.Generator:
    """Block k's own generator, spawned from the stream's seed."""
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(seed, spawn_key=(k,))))


def _drawn_block(model: SourceModel, seed: int, k: int, start_ps: int,
                 length_ps: int):
    """Block k's own draws over [start, start + length): (pairs of each
    kind, each channel's sorted int64 times, detected and dark counts).

    The times are rounded offsets from the block's start, so they are
    exact whatever the start; delays and jitter may carry them outside.
    """
    rng = _block_rng(seed, k)
    kinds = _pair_kinds(model)
    channels = _channels(model)
    emitted = None
    if model.min_pair_spacing_ps > 0:
        pair_t = _renewal_pair_times(model, length_ps, rng)
        kind = rng.choice(len(kinds), len(pair_t),
                          p=[p for *_, p in kinds])
        pairs = np.bincount(kind, minlength=len(kinds))
        emitted = [pair_t[kind == j] for j in range(len(kinds))]
    else:
        pairs = rng.poisson(model.pair_rate_mhz * 1e-6 * length_ps
                            * np.array([p for *_, p in kinds]))
    dark = rng.poisson(model.dark_rate_hz * length_ps * 1e-12, len(channels))
    pieces = {c: [] for c in channels}
    for j, (s, i, _) in enumerate(kinds):
        if (s is None and i is None) or not pairs[j]:
            continue
        t = (emitted[j] if emitted is not None
             else rng.uniform(0.0, length_ps, pairs[j]))
        if s is not None:
            pieces[s].append(_jittered(t, model, rng))
        if i is not None:
            arrive = model.idler_delay_sign * rng.exponential(
                model.pair_lifetime_ps, len(t)) + t
            pieces[i].append(_jittered(arrive, model, rng))
    times, detected = {}, {}
    for c, n_dark in zip(channels, dark.tolist()):
        # popping the pieces frees them before the cast
        t = np.concatenate(pieces.pop(c)
                           + [rng.uniform(0.0, length_ps, n_dark)])
        detected[c] = len(t) - n_dark
        t = np.rint(t, out=t).astype(np.int64)
        t.sort()
        t += start_ps
        times[c] = t
    # both, signal only, idler only, neither: TruthCounters' order
    split = [0, 0, 0, 0]
    for (s, i, _), n in zip(kinds, pairs.tolist()):
        split[(s is None) * 2 + (i is None)] += n
    return (split, times, detected,
            dict(zip(channels, dark.tolist())))


def _jittered(t: np.ndarray, model: SourceModel,
              rng: np.random.Generator) -> np.ndarray:
    """t plus each photon's Gaussian detector jitter, as a new array; t
    itself when the jitter is 0."""
    if model.jitter_sigma_ps > 0:
        return t + rng.normal(0.0, model.jitter_sigma_ps, len(t))
    return t


def _plan(model: SourceModel, duration_s: float) -> tuple[int, int, int]:
    """(duration, block length, number of blocks) of a stream, in ps.

    The block is the power of two of ps nearest, in ratio, to holding
    _BLOCK_EVENTS expected events, and at least _MIN_BLOCK_PS; a stream
    with fewer expected events, or a renewal source, is one block.
    """
    if not 0 <= duration_s < np.inf:
        raise ValueError("duration_s must be finite and >= 0")
    duration_ps = int(round(duration_s * 1e12))
    per_ps = (model.pair_rate_mhz * 1e-6 * (model.signal_transmission
                                           + model.idler_transmission)
              + model.dark_rate_hz * 1e-12 * len(_channels(model)))
    if model.min_pair_spacing_ps > 0 or per_ps * duration_ps <= _BLOCK_EVENTS:
        return duration_ps, max(duration_ps, 1), 1
    block = max(_MIN_BLOCK_PS,
                1 << max(round(math.log2(_BLOCK_EVENTS / per_ps)), 0))
    return duration_ps, block, -(-duration_ps // block)


def _handed(model: SourceModel, seed: int, k: int, block: int,
            duration_ps: int):
    """Block k's draws cut at its edges: (truth, {channel: (down, own,
    up)}), down and up the times that belong to the blocks before and
    after it.  Times outside [0, duration) are clipped; one that lands
    past a neighbouring block raises ValueError."""
    start = k * block
    stop = min(start + block, duration_ps)
    split, times, detected, dark = _drawn_block(model, seed, k, start,
                                                stop - start)
    parts, clipped = {}, {}
    for c, t in times.items():
        i0, i1, i2, i3 = np.searchsorted(
            t, [0, start, stop, duration_ps]).tolist()
        if (i1 > i0 and t[i0] < start - block) or (
                i3 > i2 and t[i3 - 1] >= stop + block):
            raise ValueError(f"an event drawn in the {block} ps block at "
                             f"{start} ps lands past its neighbours")
        parts[c] = (t[i0:i1], t[i1:i2], t[i2:i3])
        clipped[c] = len(t) - (i3 - i0)
    return TruthCounters(*split, detected=detected, dark=dark,
                         clipped=clipped), parts


def event_blocks(model: SourceModel, duration_s: float, seed: int,
                 shard: tuple[int | None, int | None] = (None, None)):
    """The stream of :func:`generate_events` as an iterator of EventStream
    blocks, in time order, drawing one block ahead for the events handed
    back.  An invalid duration raises here, before any block is drawn.

    shard = (t0, t1), None an open end, keeps the blocks that hold a time
    in [t0, t1): a shard of :func:`block_shards` is whole blocks.  The
    block before the first is drawn too, for the events it hands up, so
    each block is the one a whole pass yields.
    """
    duration_ps, block, n_blocks = _plan(model, duration_s)
    t0, t1 = shard
    first = (0 if t0 is None else n_blocks if t0 >= duration_ps
             else max(t0 // block, 0))
    stop = n_blocks if t1 is None else min(max(-(-t1 // block), 0), n_blocks)
    return _blocks(model, seed, duration_ps, block, n_blocks, first, stop)


def block_shards(model: SourceModel, duration_s: float,
                 n_shards: int) -> list[tuple[int | None, int | None]]:
    """The time shards [t0, t1) of a generated stream, None an open end:
    S = min(n_shards, n) of them for a stream of n blocks, cut at the
    starts of blocks n.j/S."""
    _, block, n_blocks = _plan(model, duration_s)
    return _shards([n_blocks * j // n_shards * block
                    for j in range(1, min(n_shards, n_blocks))])


def _shards(cuts: list[int]) -> list[tuple[int | None, int | None]]:
    edges = [None, *cuts, None]
    return list(zip(edges[:-1], edges[1:]))


def _blocks(model: SourceModel, seed: int, duration_ps: int, block: int,
            n_blocks: int, first: int, stop: int):
    """Blocks first to stop - 1 of a stream of n_blocks."""
    if first >= stop:
        return
    up: dict[int, np.ndarray] = {}
    if first:
        up = {c: rise for c, (*_, rise) in
              _handed(model, seed, first - 1, block, duration_ps)[1].items()}
    here = _handed(model, seed, first, block, duration_ps)
    for k in range(first, stop):
        after = (_handed(model, seed, k + 1, block, duration_ps)
                 if k + 1 < n_blocks else None)
        truth, parts = here
        times = {}
        for c, (_, own, rise) in parts.items():
            carried = [p for p in (up.get(c), after and after[1][c][0])
                       if p is not None and len(p)]
            times[c] = (np.sort(np.concatenate([own] + carried))
                        if carried else own)
            up[c] = rise
        yield EventStream(times, min((k + 1) * block, duration_ps),
                          truth=truth, start_ps=k * block)
        here = after


def generate_events(model: SourceModel, duration_s: float,
                    seed: int) -> EventStream:
    """Simulate a detection stream of the given duration (seconds): the
    blocks of :func:`event_blocks`, joined.  No experiment calls it, only
    tests and examples: every experiment folds the blocks.
    """
    return EventStream.from_blocks(event_blocks(model, duration_s, seed))


def _is_csv(path: str | os.PathLike) -> bool:
    """Whether an event file is CSV text (a .csv path) or .ttps binary."""
    return str(path).endswith(".csv")


def write_events(stream, path: str | os.PathLike) -> None:
    """Write an EventStream, or its blocks in time order, to a timestamp
    file: CSV when the path ends in .csv, binary otherwise.

    Each block is merged and written one time block at a time; a binary
    record block is filled straight from the merge order.  The header's
    channel count is written last, once every block has been seen.  A
    block that holds a negative timestamp raises ValueError before it is
    written: neither format can hold one.
    """
    blocks = map(_unsigned,
                 [stream] if isinstance(stream, EventStream) else stream)
    if _is_csv(path):
        with open(path, "wb") as fh:
            fh.write(_CSV_HEADER.encode() + b"\n")
            for block in blocks:
                for channels, times, order in block._merged_blocks():
                    fh.write(_csv_rows(channels[order], times[order]))
        return
    n_channels = 0
    # one record buffer for every block: fresh pages for each block cost
    # more in page faults than the merge itself
    buffer = np.empty(0, dtype=_RECORD_DTYPE)
    with open(path, "wb") as fh:
        fh.write(bytes(_HEADER.size))
        for block in blocks:
            n_channels = max([n_channels] + [c + 1 for c, t in
                                             block.times.items() if len(t)])
            for channels, times, order in block._merged_blocks():
                if len(buffer) < len(order):
                    buffer = np.empty(len(order), dtype=_RECORD_DTYPE)
                records = buffer[:len(order)]
                # mode="clip" fills out= directly; "raise" would buffer it
                np.take(channels, order, out=records["channel"], mode="clip")
                np.take(times, order, out=records["t"].view(np.int64),
                        mode="clip")
                fh.write(records)
        fh.seek(0)
        fh.write(_HEADER.pack(MAGIC, FORMAT_VERSION, n_channels, b"\0" * 6))


def splittable(path: str | os.PathLike) -> bool:
    """Whether :func:`event_parts` can write path in parts: a regular
    file or none yet, not a device such as /dev/null or a pipe."""
    return not os.path.exists(path) or os.path.isfile(path)


@contextlib.contextmanager
def event_parts(path: str | os.PathLike, n_parts: int):
    """Write one event file as n_parts consecutive parts, each by its own
    :func:`write_events`: yields the parts' paths, path itself first and
    then new files beside it, of path's format.  More than one part needs
    a :func:`splittable` path.

    On leaving, the later parts' records are appended to path in order,
    and a binary header's channel count becomes the largest of the parts',
    so the file is the one a single write_events of every block gives.
    The part files are removed then, and when anything raises.
    """
    parts = []
    try:
        # path first, so that one that cannot be written raises as a
        # single write_events would
        open(path, "wb").close()
        for j in range(1, n_parts):
            fd, part = tempfile.mkstemp(
                suffix=os.path.splitext(path)[1],
                prefix=f"{os.path.basename(path)}.part{j}.",
                dir=os.path.dirname(os.path.abspath(path)))
            os.close(fd)
            parts.append(part)
        yield [path, *parts]
        if not parts:
            return
        skip = len(_CSV_HEADER) + 1 if _is_csv(path) else _HEADER.size
        with open(path, "r+b") as out:
            heads = [out.read(skip)]
            out.seek(0, os.SEEK_END)
            for part in parts:
                with open(part, "rb") as fh:
                    heads.append(fh.read(skip))
                    shutil.copyfileobj(fh, out)
            if not _is_csv(path):
                out.seek(0)
                out.write(_HEADER.pack(
                    MAGIC, FORMAT_VERSION,
                    max(_HEADER.unpack(h)[2] for h in heads), b"\0" * 6))
    finally:
        for part in parts:
            with contextlib.suppress(FileNotFoundError):
                os.remove(part)


def _unsigned(block: EventStream) -> EventStream:
    """The block, or ValueError when it holds a negative timestamp."""
    if any(len(t) and t[0] < 0 for t in block.times.values()):
        raise ValueError(f"the block from {block.start_ps} ps holds a "
                         f"negative timestamp, which no event file holds")
    return block


def _csv_rows(channels: np.ndarray, times: np.ndarray) -> bytes:
    """channel,timestamp_ps rows, each ending in a newline, formatted at
    once: one byte table of the columns, whose zero bytes are dropped."""
    n = len(times)
    table = np.hstack([_decimal(channels),
                       np.full((n, 1), ord(","), np.uint8), _decimal(times),
                       np.full((n, 1), ord("\n"), np.uint8)])
    return table[table != 0].tobytes()


def _decimal(x: np.ndarray) -> np.ndarray:
    """Each non-negative integer of x as an ASCII row of its decimal
    digits, right-aligned, with zero bytes as padding before them.  The
    rows are columns of a digit-major array, which fills faster."""
    x = x.astype(np.int64, copy=False)
    width = len(str(int(x.max()))) if len(x) else 1
    out = np.zeros((width, len(x)), dtype=np.uint8)
    out[width - 1] = x % 10 + ord("0")
    rest = x // 10
    for k in range(width - 2, -1, -1):
        q = rest // 10
        np.copyto(out[k], rest - q * 10 + ord("0"), casting="unsafe",
                  where=rest != 0)
        rest = q
    return out.T


def read_blocks(path: str | os.PathLike, duration_ps: int | None = None,
                records: tuple[int, int | None] = (0, None)):
    """Yield a timestamp file written by :func:`write_events`, of either
    format, as EventStream blocks of records, in time order, in one pass.

    The file format does not carry the acquisition duration; pass it when
    known, otherwise the last timestamp + 1 is used.  Each block starts at
    its first timestamp and ends at the duration or, without one, at its
    last timestamp + 1, so the last block ends where the stream does; an
    empty file is one empty block.  Timestamps must be non-decreasing int64
    values in [0, duration) and channels fit a byte; a binary file's
    channels lie below its header's channel count, and a CSV file starts
    with the header row channel,timestamp_ps and has two columns.  Anything
    else raises EventFormatError when its block is reached.  records =
    (first, stop) reads only a .ttps file's records [first, stop) (None:
    to the end), and checks them alone; a CSV file is read whole.
    """
    if _is_csv(path):
        if records != (0, None):
            raise ValueError("a CSV file is read whole")
        with open(path) as fh:
            if fh.readline().rstrip("\n") != _CSV_HEADER:
                raise EventFormatError(f"{path}: the first row is not the "
                                       f"header {_CSV_HEADER}")
            yield from _checked_blocks(path, _text_blocks(fh, path), 256,
                                       duration_ps)
        return
    with open(path, "rb") as fh:
        n_channels, n_records = _ttps_header(fh, path)
        first, stop = records
        stop = n_records if stop is None else min(stop, n_records)
        fh.seek(_HEADER.size + first * _RECORD_DTYPE.itemsize)
        yield from _checked_blocks(
            path, _record_blocks(fh, path, max(stop - first, 0)), n_channels,
            duration_ps)


def _ttps_header(fh, path) -> tuple[int, int]:
    """(channel count, record count) of an open .ttps file, or
    EventFormatError for a bad header or a part record at the end."""
    head = fh.read(_HEADER.size)
    if len(head) < _HEADER.size:
        raise EventFormatError(f"{path}: truncated header")
    magic, version, n_channels, reserved = _HEADER.unpack(head)
    if magic != MAGIC:
        raise EventFormatError(f"{path}: bad magic {magic!r}")
    if version != FORMAT_VERSION:
        raise EventFormatError(f"{path}: unsupported version {version}")
    n_bytes = os.fstat(fh.fileno()).st_size - _HEADER.size
    if n_bytes % _RECORD_DTYPE.itemsize:
        raise EventFormatError(f"{path}: truncated record data")
    return n_channels, n_bytes // _RECORD_DTYPE.itemsize


def file_shards(path: str | os.PathLike,
                n_shards: int) -> list[tuple[int | None, int | None]]:
    """The time shards [t0, t1) of an event file, None an open end.

    A .ttps file of n records has min(n_shards, its blocks of records)
    shards, at least one, cut at the timestamps of records n.j/S, each
    read on its own (os.pread); a CSV file is one shard.  A bad header
    raises the EventFormatError that read_blocks raises.
    """
    if _is_csv(path):
        return _shards([])
    with open(path, "rb") as fh:
        _, n = _ttps_header(fh, path)
        n_shards = min(n_shards, -(-n // _BLOCK_EVENTS))
        # a cut past the int64 range stays a valid search key: the
        # record's own block raises when it is read
        return _shards([min(_record_time(fh, n * j // n_shards), 2 ** 63 - 1)
                        for j in range(1, n_shards)])


def shard_records(path: str | os.PathLike,
                  shard: tuple[int | None, int | None], lo_ps: int = 0,
                  hi_ps: int = 0) -> tuple[int, int | None]:
    """The records [first, stop) of a .ttps file that a fold of the time
    shard [t0, t1) reads, for pairs whose delays lie in [lo, hi]: those
    with timestamps in [t0 + min(lo, 0), t1 + max(hi, 0)), found by
    bisecting the file one record at a time, and one record more.

    On any file, sorted or not, the bisection's record for a time never
    falls as the time rises, so the shards of one list of cuts, in any
    order, overlap by at least that one record: every pair of neighbouring
    records lies in one of them, so every check of a whole pass is made in
    some shard and a malformed file raises in one.  Where a block of one
    pass holds two defects on either side of a cut, the shards may name
    the other one.  A shard open at both ends is (0, None), the whole
    file, of either format.
    """
    t0, t1 = shard
    if t0 is None and t1 is None:
        return 0, None
    with open(path, "rb") as fh:
        _, n = _ttps_header(fh, path)

        def at(t):
            """The first record at or past t, by bisection."""
            lo, hi = 0, n
            while lo < hi:
                mid = (lo + hi) // 2
                if _record_time(fh, mid) < t:
                    lo = mid + 1
                else:
                    hi = mid
            return lo

        return (0 if t0 is None else at(t0 + min(lo_ps, 0)),
                n if t1 is None else min(at(t1 + max(hi_ps, 0)) + 1, n))


def _record_time(fh, k: int) -> int:
    """The timestamp of a .ttps file's record k, read on its own."""
    return int.from_bytes(os.pread(
        fh.fileno(), 8, _HEADER.size + k * _RECORD_DTYPE.itemsize + 1),
        "little")


def read_events(path: str | os.PathLike,
                duration_ps: int | None = None) -> EventStream:
    """Read a timestamp file written by :func:`write_events` into memory:
    the blocks of :func:`read_blocks`, joined."""
    return EventStream.from_blocks(read_blocks(path, duration_ps))


def _record_blocks(fh, path, n_records: int):
    """Yield (channels, timestamps) of n_records .ttps records from fh's
    position on, in blocks.

    Each block is read into the same buffers, valid until the next one: a
    fresh buffer per block costs more in page faults than reading it.
    """
    size = min(_BLOCK_EVENTS, n_records)
    records = np.empty(size, dtype=_RECORD_DTYPE)
    channels = np.empty(size, dtype=np.uint8)
    times = np.empty(size, dtype=np.int64)
    for start in range(0, n_records, _BLOCK_EVENTS):
        count = min(_BLOCK_EVENTS, n_records - start)
        if fh.readinto(records[:count].view(np.uint8)) < count * \
                _RECORD_DTYPE.itemsize:
            raise EventFormatError(f"{path}: truncated record data")
        if records["t"][:count].max() >= 2 ** 63:
            raise EventFormatError(f"{path}: timestamp past the int64 range")
        # contiguous columns: the checks and the split read them about
        # half again as fast as through the 9-byte records
        np.copyto(channels[:count], records["channel"][:count])
        np.copyto(times[:count], records["t"][:count], casting="unsafe")
        yield channels[:count], times[:count]


def _text_blocks(fh, path):
    """Yield (channels, timestamps) of a CSV file's rows in blocks of whole
    lines, about _BLOCK_EVENTS rows each.  A block is read as one string: a
    list of its lines fragmented the heap, and RSS grew with the file."""
    row = 0
    while text := fh.read(16 * _BLOCK_EVENTS) + fh.readline():
        if not text.strip():  # loadtxt warns on a block with no data
            continue
        try:
            data = np.loadtxt(io.StringIO(text), delimiter=",",
                              dtype=np.int64, ndmin=2)
        except ValueError as err:  # includes values outside int64
            # loadtxt counts rows from the block's first
            raise EventFormatError(
                f"{path}: block from row {row}: {err}") from err
        if data.shape[1] != 2:
            raise EventFormatError(f"{path}: block from row {row}: "
                                   f"{data.shape[1]} columns, not 2")
        if np.any((data[:, 0] < 0) | (data[:, 0] > 255)):
            raise EventFormatError(f"{path}: channel outside 0-255")
        if np.any(data[:, 1] < 0):
            raise EventFormatError(f"{path}: negative timestamp")
        row += len(data)
        yield data.T


def _checked_blocks(path, blocks, n_channels: int, duration_ps: int | None):
    """The EventStream blocks of a file's checked (channels, timestamps)
    blocks."""
    last = None
    for channels, times in blocks:
        if channels.max() >= n_channels:
            raise EventFormatError(f"{path}: channel {int(channels.max())} "
                                   f"not below the header's {n_channels}")
        if (last is not None and times[0] < last) or np.any(
                times[1:] < times[:-1]):
            raise EventFormatError(f"{path}: timestamps are not time-sorted")
        last = int(times[-1])
        if duration_ps is not None and last >= duration_ps:
            raise EventFormatError(f"{path}: timestamp {last} ps at "
                                   f"or past the {duration_ps} ps duration")
        yield EventStream(_split(channels, times),
                          last + 1 if duration_ps is None else duration_ps,
                          start_ps=int(times[0]))
    if last is None:
        yield EventStream({}, duration_ps or 0)


def _split(channels, times) -> dict[int, np.ndarray]:
    """Per-channel arrays of a time-sorted (channels, times) sequence."""
    return {int(c): np.compress(channels == c, times)
            for c in np.flatnonzero(np.bincount(channels))}
