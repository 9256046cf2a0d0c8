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
coincidence counting reads.  EventStream.merged() builds the merged
stream, in time order with ties broken by channel, where one sequence is
needed, as for event files; it sorts on every call.

Streams serialize to a binary timestamp format: a 16-byte header (magic
"TTPS", u32 LE version = 1, u16 LE channel count, 6 zero bytes) followed by
9-byte records of u8 channel + u64 LE timestamp in picoseconds, time-sorted.
A plain-text alternative writes channel,timestamp_ps CSV rows.
"""

from __future__ import annotations

import io
import os
import struct
from dataclasses import dataclass, field

import numpy as np

MAGIC = b"TTPS"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sIH6s")
_RECORD_DTYPE = np.dtype([("channel", "u1"), ("t", "<u8")])
_EMPTY_TIMES = np.empty(0, dtype=np.int64)


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
        timestamps_ps = np.asarray(timestamps_ps, dtype=np.int64)
        times, tags = {}, {}
        for c in np.flatnonzero(np.bincount(channels)):
            sel = channels == c
            times[int(c)] = timestamps_ps[sel]
            if route_tags is not None:
                tags[int(c)] = np.asarray(route_tags)[sel]
        return cls(times, duration_ps,
                   tags=None if route_tags is None else tags)

    def merged(self) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """(channels, timestamps_ps, route_tags), by time and then channel.

        The per-channel arrays are concatenated in channel order and put in
        time order by a stable sort, which breaks ties by channel and keeps
        each channel's own order.
        """
        order_ch = sorted(self.times)
        times = np.concatenate([_EMPTY_TIMES]
                               + [self.times[c] for c in order_ch])
        order = np.argsort(times, kind="stable")
        channels = np.repeat(np.array(order_ch, dtype=np.uint8),
                             [len(self.times[c]) for c in order_ch])[order]
        tags = None
        if self.tags is not None:
            tags = np.concatenate([np.empty(0, dtype=np.uint8)]
                                  + [self.tags[c] for c in order_ch])[order]
        return channels, times[order], tags

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
    if rate_hz <= 0:
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
                     rng: np.random.Generator):
    """Pair counts split by detection, and the detected photons' emission.

    Returns (both, signal only, idler only, neither) and the pair emission
    times of the detected signal and idler photons.  Each photon survives
    its arm independently, so for a Poisson source the four counts are
    independent Poisson draws and only the pairs with a detected photon
    need a time.
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
        return split, pair_t[alive_s], pair_t[alive_i]
    mean = model.pair_rate_mhz * 1e6 * duration_ps * 1e-12
    split = tuple(int(n) for n in rng.poisson(mean * np.array([
        t_s * t_i, t_s * (1 - t_i), (1 - t_s) * t_i, (1 - t_s) * (1 - t_i)])))
    both, signal_only, idler_only, _ = split
    # laid out as [signal only | both | idler only], so each arm is a slice
    t0 = rng.uniform(0.0, duration_ps, signal_only + both + idler_only)
    return split, t0[:signal_only + both], t0[signal_only:]


def generate_events(model: SourceModel, duration_s: float,
                    seed: int) -> EventStream:
    """Simulate a detection stream of the given duration (seconds)."""
    if not 0 <= duration_s < np.inf:
        raise ValueError("duration_s must be finite and >= 0")
    duration_ps = int(round(duration_s * 1e12))
    rng = np.random.Generator(np.random.PCG64(seed))

    split, emit_s, emit_i = _emitted_photons(model, duration_ps, rng)
    arrive_i = emit_i + model.idler_delay_sign * rng.exponential(
        model.pair_lifetime_ps, len(emit_i))
    photons: dict[int, np.ndarray] = {}
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

    times: dict[int, np.ndarray] = {}
    dark: dict[int, int] = {}
    clipped: dict[int, int] = {}
    for channel in sorted(photons):
        dark[channel] = int(rng.poisson(
            model.dark_rate_hz * duration_ps * 1e-12))
        t = np.concatenate([photons[channel],
                            rng.uniform(0.0, duration_ps, dark[channel])])
        t = np.rint(t, out=t).astype(np.int64)
        t.sort()
        # one cut on the rounded times keeps every timestamp in [0, duration)
        lo, hi = np.searchsorted(t, [0, duration_ps])
        times[channel] = t[lo:hi]
        clipped[channel] = len(t) - int(hi - lo)
    truth = TruthCounters(*split,
                          detected={c: len(photons[c]) for c in times},
                          dark=dark, clipped=clipped)
    return EventStream(times, duration_ps, seed=seed,
                       n_pairs_generated=sum(split), truth=truth)


def write_events(stream: EventStream, path: str | os.PathLike,
                 fmt: str | None = None) -> None:
    """Write a stream to a binary (default) or CSV timestamp file."""
    fmt = fmt or ("csv" if str(path).endswith(".csv") else "binary")
    if fmt not in ("csv", "binary"):
        raise ValueError(f"unknown event format {fmt!r}")
    channels, times, _ = stream.merged()
    if fmt == "csv":
        with open(path, "w") as fh:
            fh.write("channel,timestamp_ps\n")
            for c, t in zip(channels.tolist(), times.tolist()):
                fh.write(f"{c},{t}\n")
        return
    n_channels = int(channels.max()) + 1 if len(channels) else 0
    records = np.empty(len(times), dtype=_RECORD_DTYPE)
    records["channel"] = channels
    records["t"] = times
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, FORMAT_VERSION, n_channels, b"\0" * 6))
        fh.write(records.tobytes())


def read_events(path: str | os.PathLike,
                duration_ps: int | None = None) -> EventStream:
    """Read a timestamp file written by :func:`write_events`.

    The file format does not carry the acquisition duration; pass it when
    known, otherwise the last timestamp + 1 is used.  Timestamps must be
    non-decreasing int64 values below the duration and channels fit a
    byte; anything else raises EventFormatError.
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
        channels, times = data[:, 0], data[:, 1]
    else:
        with open(path, "rb") as fh:
            head = fh.read(_HEADER.size)
            if len(head) < _HEADER.size:
                raise EventFormatError(f"{path}: truncated header")
            magic, version, _n_channels, reserved = _HEADER.unpack(head)
            if magic != MAGIC:
                raise EventFormatError(f"{path}: bad magic {magic!r}")
            if version != FORMAT_VERSION:
                raise EventFormatError(f"{path}: unsupported version "
                                       f"{version}")
            body = fh.read()
        if len(body) % _RECORD_DTYPE.itemsize:
            raise EventFormatError(f"{path}: truncated record data")
        records = np.frombuffer(body, dtype=_RECORD_DTYPE)
        if len(records) and records["t"].max() >= 2 ** 63:
            raise EventFormatError(f"{path}: timestamp past the int64 range")
        # same-size views: the split below makes the only copies
        channels, times = records["channel"], records["t"].view(np.int64)
    if np.any(times[1:] < times[:-1]):
        raise EventFormatError(f"{path}: timestamps are not time-sorted")
    if duration_ps is None:
        duration_ps = int(times[-1]) + 1 if len(times) else 0
    elif len(times) and times[-1] >= duration_ps:
        raise EventFormatError(f"{path}: timestamp {int(times[-1])} ps at "
                               f"or past the {duration_ps} ps duration")
    return EventStream.from_merged(channels, times, duration_ps)
