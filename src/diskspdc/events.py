"""Monte Carlo photon-pair streams and timestamp file IO.

Pairs are emitted as a Poisson process whose rate follows the measured
pair-generation curve (linear slope with optional saturation).  Each photon
independently survives its arm's loss chain, so the pairs split into four
independent Poisson counts (both photons detected, signal only, idler only,
neither) and only detected photons are given a time: a uniform emission
time, an exponential cavity lifetime delay on the idler, Gaussian detector
jitter, and a detector channel of its arm.  A dead-time renewal source
(min_pair_spacing_ps > 0) instead draws every pair time and thins it by
loss.  Dark counts are an independent Poisson background per channel.
Everything is driven by one seeded generator in a fixed order of draws, so
a given (config, seed) always produces the same stream.

An EventStream keeps one time-sorted int64 array per channel, which is what
coincidence counting reads.  Generation holds about its output and one
block.  Each arm's emission times are drawn as float64 into a view of an
int64 array of their own and shifted in place, one block of draws at a
time; an arm with several channels is split, a block at a time, into one
such array per channel.  Each channel's times are then rounded to int64 in
that same buffer, a block at a time; the buffer has room for the channel's
dark counts, which are drawn into it after the photons, and is then fitted
to them in place (ndarray.resize).  So at its peak generation
holds every detected photon once, 8 B per event, and one block; while an
arm with several channels is split it also holds that arm's channel copies
and a uint8 pick and mask, under 14 B per event in all.  Where one
sequence is needed, as for event files, the channels are merged one time
block of about _BLOCK_EVENTS events at a time, in time order with ties
broken by channel and never split across blocks; EventStream.merged() is
the concatenation of those blocks.  Files are read in blocks of records:
a count pass that checks them, then a fill pass into per-channel arrays.

Streams serialize to a binary timestamp format: a 16-byte header (magic
"TTPS", u32 LE version = 1, u16 LE channel count, 6 zero bytes) followed by
9-byte records of u8 channel + u64 LE timestamp in picoseconds, time-sorted.
The channel count is the largest channel with events + 1, and every
record's channel lies below it.  A plain-text alternative writes
channel,timestamp_ps CSV rows.
"""

from __future__ import annotations

import io
import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

MAGIC = b"TTPS"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sIH6s")
_RECORD_DTYPE = np.dtype([("channel", "u1"), ("t", "<u8")])
_EMPTY_TIMES = np.empty(0, dtype=np.int64)
# events per block of draws, of merged output and of file records
_BLOCK_EVENTS = 1 << 18


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


@dataclass
class EventStream:
    """Detector clicks as one time-sorted int64 array per channel.

    tags, when present, maps each channel to per-event interferometer path
    labels aligned with its times, for diagnostics only; they are never
    serialized.  truth holds the simulator's counters of a generated
    stream.
    """

    times: dict[int, np.ndarray]
    duration_ps: int
    seed: int = 0
    n_pairs_generated: int = 0
    tags: dict[int, np.ndarray] | None = field(default=None, repr=False)
    truth: TruthCounters | None = field(default=None, repr=False)

    @classmethod
    def from_merged(cls, channels, timestamps_ps, duration_ps: int,
                    route_tags=None) -> EventStream:
        """Split a stream sorted by time into its per-channel arrays."""
        channels = np.asarray(channels, dtype=np.uint8)
        columns = [np.asarray(timestamps_ps, dtype=np.int64)]
        if route_tags is not None:
            columns.append(np.asarray(route_tags))
        times, *tags = _split(_slices(channels, *columns),
                              np.bincount(channels),
                              [v.dtype for v in columns])
        return cls(times, duration_ps, tags=tags[0] if tags else None)

    def merged(self) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """(channels, timestamps_ps, route_tags), by time and then channel.

        The concatenation of the time blocks that write_events writes.
        """
        blocks = list(self._merged_blocks())
        channels = np.concatenate([np.empty(0, dtype=np.uint8)]
                                  + [b[0] for b in blocks])
        times = np.concatenate([_EMPTY_TIMES] + [b[1] for b in blocks])
        tags = None
        if self.tags is not None:
            tags = np.concatenate([np.empty(0, dtype=np.uint8)]
                                  + [b[2] for b in blocks])
        return channels, times, tags

    def _merged_blocks(self):
        """Yield the merged stream as (channels, times, tags) time blocks.

        A block holds every event up to a cut time, ties at the cut
        included, so equal times never straddle two blocks; the cut is the
        earliest time that lies _BLOCK_EVENTS / (channels left) events on in
        some channel.  Within a block the channels' slices are concatenated
        in channel order and put in time order by a stable sort, which
        breaks ties by channel and keeps each channel's own order.
        """
        live = [c for c in sorted(self.times) if len(self.times[c])]
        start = dict.fromkeys(live, 0)
        while live:
            step = max(1, _BLOCK_EVENTS // len(live))
            cut = min(self.times[c][min(start[c] + step, len(self.times[c]))
                                    - 1] for c in live)
            stop = {c: int(np.searchsorted(self.times[c], cut, side="right"))
                    for c in live}
            parts = [self.times[c][start[c]:stop[c]] for c in live]
            times = np.concatenate(parts)
            order = np.argsort(times, kind="stable")
            channels = np.repeat(np.array(live, dtype=np.uint8),
                                 [len(p) for p in parts])[order]
            tags = None
            if self.tags is not None:
                tags = np.concatenate([self.tags[c][start[c]:stop[c]]
                                       for c in live])[order]
            yield channels, times[order], tags
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


def _emitted_photons(model: SourceModel, duration_ps: int,
                     rng: np.random.Generator, room: int):
    """Pair counts split by detection, and the detected photons' emission.

    Returns (both, signal only, idler only, neither) and the pair emission
    times of the detected signal and idler photons, each arm in an array
    of its own.  Each photon survives its arm independently, so for a
    Poisson source the four counts are independent Poisson draws and only
    the pairs with a detected photon need a time.  Each arm's array is a
    _times_buffer with room spare elements.
    """
    t_s = model.signal_transmission
    t_i = model.idler_transmission
    if model.min_pair_spacing_ps > 0:
        pair_t = _renewal_pair_times(model, duration_ps, rng)
        alive_s = rng.random(len(pair_t)) < t_s
        alive_i = rng.random(len(pair_t)) < t_i
        split = tuple(int(np.count_nonzero(a & b)) for a, b in (
            (alive_s, alive_i), (alive_s, ~alive_i),
            (~alive_s, alive_i), (~alive_s, ~alive_i)))
        return (split, _selected(alive_s, pair_t, room),
                _selected(alive_i, pair_t, room))
    mean = model.pair_rate_mhz * 1e6 * duration_ps * 1e-12
    split = tuple(int(n) for n in rng.poisson(mean * np.array([
        t_s * t_i, t_s * (1 - t_i), (1 - t_s) * t_i, (1 - t_s) * (1 - t_i)])))
    both, signal_only, idler_only, _ = split
    # one run of uniform times laid out as [signal only | both | idler
    # only]: the signal arm draws its part, the idler arm copies the shared
    # part and draws the rest
    emit_s = _times_buffer(signal_only + both, room)
    rng.random(out=emit_s)
    emit_s *= float(duration_ps)
    emit_i = _times_buffer(both + idler_only, room)
    emit_i[:both] = emit_s[signal_only:]
    rng.random(out=emit_i[both:])
    emit_i[both:] *= float(duration_ps)
    return split, emit_s, emit_i


def _times_buffer(n: int, room: int) -> np.ndarray:
    """A float64 view of the first n elements of a new int64 array of
    n + room.

    A channel's times are drawn and shifted as float64 in the view, then
    rounded into the int64 array that owns the buffer (_rounded_in_place),
    so the two forms never take two buffers.  The room takes the channel's
    dark counts, which are drawn later: the buffer is shrunk to fit them,
    which never moves it.  Growing it can move it, and a move can copy it
    (numpy advises huge pages for large arrays, and Linux 6.18 copied such
    a buffer when realloc moved it: 36 MB in 28 ms).
    """
    return np.empty(n + room, dtype=np.int64).view(np.float64)[:n]


def _dark_room(model: SourceModel, duration_ps: int) -> int:
    """Room for a channel's dark counts: their mean and ten sigma."""
    mean = model.dark_rate_hz * duration_ps * 1e-12
    return int(mean + 10 * math.sqrt(mean)) + 10


def _selected(mask: np.ndarray, x: np.ndarray, room: int) -> np.ndarray:
    """x[mask] in a new _times_buffer, one block at a time (compress takes
    an index array as long as its output)."""
    out = _times_buffer(np.count_nonzero(mask), room)
    filled = 0
    for m, v in _slices(mask, x):
        n = np.count_nonzero(m)
        np.compress(m, v, out=out[filled:filled + n])
        filled += n
    return out


def _rounded_in_place(x: np.ndarray) -> np.ndarray:
    """The _times_buffer x rounded to int64 in its own buffer; its owner.

    One block at a time, x's values are rounded into a scratch block and
    cast into the owner over the same bytes, which nothing reads again.
    The view x is the caller's to drop: a resize of the owner needs it
    gone.
    """
    t = x.base
    block = np.empty(min(len(x), _BLOCK_EVENTS))
    for start in range(0, len(x), _BLOCK_EVENTS):
        part = block[:len(x) - start]
        np.rint(x[start:start + len(part)], out=part)
        t[start:start + len(part)] = part
    return t


def _scaled_draws(draw, n: int, scale: float):
    """Yield (start, x): n standard draws times scale, a block at a time.

    draw is a Generator method that fills out= with standard variates
    (random, standard_exponential, standard_normal).  In blocks it takes
    the same draws in the same order as in one call, and scale * x has the
    bits of uniform(0, scale), exponential(scale) and normal(0, scale), up
    to the sign of a zero, which rounding and adding to a time both drop.
    """
    block = np.empty(min(n, _BLOCK_EVENTS))
    for start in range(0, n, _BLOCK_EVENTS):
        x = block[:n - start]
        draw(out=x)
        x *= scale
        yield start, x


def _add_draws(t: np.ndarray, draw, scale: float) -> None:
    """t += scale * draw(len(t)) in place, one block of draws at a time."""
    for start, x in _scaled_draws(draw, len(t), scale):
        t[start:start + len(x)] += x


def _arm_channels(arm_t: np.ndarray, channels, model: SourceModel,
                  rng: np.random.Generator, room: int
                  ) -> dict[int, np.ndarray]:
    """Jitter an arm's times in place and route each to one of its channels."""
    if model.jitter_sigma_ps > 0:
        _add_draws(arm_t, rng.standard_normal, model.jitter_sigma_ps)
    if len(channels) == 1:
        return {channels[0]: arm_t}
    pick = np.empty(len(arm_t), dtype=np.uint8)
    for start in range(0, len(pick), _BLOCK_EVENTS):
        part = pick[start:start + _BLOCK_EVENTS]
        part[:] = rng.integers(0, len(channels), len(part))
    return {c: _selected(pick == k, arm_t, room)
            for k, c in enumerate(channels)}


def generate_events(model: SourceModel, duration_s: float,
                    seed: int) -> EventStream:
    """Simulate a detection stream of the given duration (seconds)."""
    if not 0 <= duration_s < np.inf:
        raise ValueError("duration_s must be finite and >= 0")
    duration_ps = int(round(duration_s * 1e12))
    rng = np.random.Generator(np.random.PCG64(seed))

    room = _dark_room(model, duration_ps)
    split, emit_s, emit_i = _emitted_photons(model, duration_ps, rng, room)
    _add_draws(emit_i, rng.standard_exponential,
               model.idler_delay_sign * model.pair_lifetime_ps)
    photons = _arm_channels(emit_s, model.signal_channels, model, rng, room)
    del emit_s  # its channels hold its times now
    photons |= _arm_channels(emit_i, model.idler_channels, model, rng, room)
    del emit_i

    times: dict[int, np.ndarray] = {}
    detected: dict[int, int] = {}
    dark: dict[int, int] = {}
    clipped: dict[int, int] = {}
    for channel in sorted(photons):
        n = detected[channel] = len(photons[channel])
        dark[channel] = int(rng.poisson(
            model.dark_rate_hz * duration_ps * 1e-12))
        # the float64 view dies inside the call, so nothing else refers to
        # t and resize's reference check passes: the buffer is fitted to
        # the darks in place.  A reference held elsewhere would make it
        # raise ValueError rather than free memory a view still reads.
        t = _rounded_in_place(photons.pop(channel))
        t.resize(n + dark[channel])
        for start, x in _scaled_draws(rng.random, dark[channel],
                                      float(duration_ps)):
            np.rint(x, out=t[n + start:n + start + len(x)], casting="unsafe")
        t.sort()
        # one cut on the rounded times keeps every timestamp in [0, duration)
        lo, hi = np.searchsorted(t, [0, duration_ps])
        times[channel] = t[lo:hi]
        clipped[channel] = len(t) - int(hi - lo)
    truth = TruthCounters(*split, detected=detected, dark=dark,
                          clipped=clipped)
    return EventStream(times, duration_ps, seed=seed,
                       n_pairs_generated=sum(split), truth=truth)


def write_events(stream: EventStream, path: str | os.PathLike,
                 fmt: str | None = None) -> None:
    """Write a stream to a binary (default) or CSV timestamp file.

    The stream is merged and written one time block at a time.
    """
    fmt = fmt or ("csv" if str(path).endswith(".csv") else "binary")
    if fmt not in ("csv", "binary"):
        raise ValueError(f"unknown event format {fmt!r}")
    if fmt == "csv":
        with open(path, "w") as fh:
            fh.write("channel,timestamp_ps\n")
            for channels, times, _ in stream._merged_blocks():
                for c, t in zip(channels.tolist(), times.tolist()):
                    fh.write(f"{c},{t}\n")
        return
    n_channels = max((c for c, t in stream.times.items() if len(t)),
                     default=-1) + 1
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, FORMAT_VERSION, n_channels, b"\0" * 6))
        for channels, times, _ in stream._merged_blocks():
            records = np.empty(len(times), dtype=_RECORD_DTYPE)
            records["channel"] = channels
            records["t"] = times
            fh.write(records)


def read_events(path: str | os.PathLike,
                duration_ps: int | None = None) -> EventStream:
    """Read a timestamp file written by :func:`write_events`.

    The file format does not carry the acquisition duration; pass it when
    known, otherwise the last timestamp + 1 is used.  Timestamps must be
    non-decreasing int64 values below the duration and channels fit a
    byte, and a binary file's channels lie below its header's channel
    count; anything else raises EventFormatError.  Binary records are read
    a block at a time, once to check and count them per channel and once
    to fill the per-channel arrays.
    """
    if str(path).endswith(".csv"):
        with open(path) as fh:
            fh.readline()  # header
            body = fh.read()
        data = np.empty((0, 2), dtype=np.int64)
        if body.strip():  # loadtxt warns on a file with no data
            try:
                data = np.loadtxt(io.StringIO(body), delimiter=",",
                                  dtype=np.int64, ndmin=2)
            except ValueError as err:  # includes values outside int64
                raise EventFormatError(f"{path}: {err}") from err
        if np.any((data[:, 0] < 0) | (data[:, 0] > 255)):
            raise EventFormatError(f"{path}: channel outside 0-255")
        return _checked_stream(path, lambda: _slices(data[:, 0], data[:, 1]),
                               256, duration_ps)
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise EventFormatError(f"{path}: truncated header")
        magic, version, n_channels, reserved = _HEADER.unpack(head)
        if magic != MAGIC:
            raise EventFormatError(f"{path}: bad magic {magic!r}")
        if version != FORMAT_VERSION:
            raise EventFormatError(f"{path}: unsupported version "
                                   f"{version}")
        n_bytes = os.fstat(fh.fileno()).st_size - _HEADER.size
        if n_bytes % _RECORD_DTYPE.itemsize:
            raise EventFormatError(f"{path}: truncated record data")
        n_records = n_bytes // _RECORD_DTYPE.itemsize
        return _checked_stream(
            path, lambda: _record_blocks(fh, path, n_records), n_channels,
            duration_ps)


def _record_blocks(fh, path, n_records: int):
    """Yield (channels, timestamps) of a .ttps file's records in blocks."""
    fh.seek(_HEADER.size)
    for start in range(0, n_records, _BLOCK_EVENTS):
        count = min(_BLOCK_EVENTS, n_records - start)
        records = np.fromfile(fh, dtype=_RECORD_DTYPE, count=count)
        if len(records) < count:
            raise EventFormatError(f"{path}: truncated record data")
        if records["t"].max() >= 2 ** 63:
            raise EventFormatError(f"{path}: timestamp past the int64 range")
        # same-size views: the split makes the only copies
        yield records["channel"], records["t"].view(np.int64)


def _checked_stream(path, blocks, n_channels: int,
                    duration_ps: int | None) -> EventStream:
    """The stream of a file's (channels, timestamps) blocks.

    blocks() starts the file's blocks over: a count pass checks them and
    counts each channel's events, then a fill pass splits them.
    """
    counts = np.zeros(n_channels, dtype=np.int64)
    last = None
    for channels, times in blocks():
        if channels.max() >= n_channels:
            raise EventFormatError(f"{path}: channel {int(channels.max())} "
                                   f"not below the header's {n_channels}")
        if (last is not None and times[0] < last) or np.any(
                times[1:] < times[:-1]):
            raise EventFormatError(f"{path}: timestamps are not time-sorted")
        counts += np.bincount(channels, minlength=n_channels)
        last = int(times[-1])
    if duration_ps is None:
        duration_ps = 0 if last is None else last + 1
    elif last is not None and last >= duration_ps:
        raise EventFormatError(f"{path}: timestamp {last} ps at "
                               f"or past the {duration_ps} ps duration")
    times, = _split(blocks(), counts, [np.int64])
    return EventStream(times, duration_ps)


def _slices(*columns):
    """Yield aligned slices of _BLOCK_EVENTS rows of the columns, in order."""
    for start in range(0, len(columns[0]), _BLOCK_EVENTS):
        yield tuple(v[start:start + _BLOCK_EVENTS] for v in columns)


def _split(blocks, counts, dtypes) -> list[dict[int, np.ndarray]]:
    """Per-channel arrays of each column of (channels, *columns) blocks.

    counts[c] is the number of channel c events in all the blocks, so each
    channel's arrays are allocated once, in channel order, and filled
    block by block in stream order.
    """
    present = [int(c) for c in np.flatnonzero(counts)]
    out = [{c: np.empty(counts[c], dtype=d) for c in present}
           for d in dtypes]
    filled = dict.fromkeys(present, 0)
    for channels, *columns in blocks:
        in_block = np.bincount(channels)
        for c in np.flatnonzero(in_block).tolist():
            sel = channels == c
            at = slice(filled[c], filled[c] + int(in_block[c]))
            for v, dst in zip(columns, out):
                np.compress(sel, v, out=dst[c][at])
            filled[c] = at.stop
    return out
