"""Monte Carlo photon-pair streams and timestamp file IO.

Pairs are emitted as a Poisson process whose rate follows the measured
pair-generation curve (linear slope with optional saturation).  The idler is
delayed by an exponential cavity lifetime; each photon then independently
survives its arm's loss chain, picks up Gaussian detector jitter, and is
routed to a detector channel.  Dark counts are an independent Poisson
background per channel.  Everything is driven by one seeded generator with a
fixed chunk size, so a given (config, seed) always produces the same stream.

Streams serialize to a binary timestamp format: a 16-byte header (magic
"TTPS", u32 LE version = 1, u16 LE channel count, 6 zero bytes) followed by
9-byte records of u8 channel + u64 LE timestamp in picoseconds, time-sorted.
A plain-text alternative writes channel,timestamp_ps CSV rows.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field

import numpy as np

MAGIC = b"TTPS"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sIH6s")
_RECORD_DTYPE = np.dtype([("channel", "u1"), ("t", "<u8")])
_CHUNK_PAIRS = 1 << 21  # fixed so chunking never changes results


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


@dataclass
class EventStream:
    """Time-sorted detector clicks.

    route_tags, when present, carries per-event interferometer path labels
    for diagnostics only; it is never serialized.
    """

    channels: np.ndarray
    timestamps_ps: np.ndarray
    duration_ps: int
    seed: int = 0
    n_pairs_generated: int = 0
    route_tags: np.ndarray | None = field(default=None, repr=False)

    def __len__(self) -> int:
        return len(self.timestamps_ps)

    def n_channel(self, channel: int) -> int:
        return int(np.count_nonzero(self.channels == channel))

    def channel_times(self, channel: int) -> np.ndarray:
        return self.timestamps_ps[self.channels == channel]


def _sorted_stream(channels, times, tags=None):
    order = np.lexsort((channels, times))
    out = (channels[order], times[order])
    if tags is not None:
        return out + (tags[order],)
    return out + (None,)


def _pair_times_ps(model: SourceModel, duration_ps: float,
                   rng: np.random.Generator) -> np.ndarray:
    rate_hz = model.pair_rate_mhz * 1e6
    if rate_hz <= 0:
        return np.empty(0)
    if model.min_pair_spacing_ps <= 0:
        n = int(rng.poisson(rate_hz * duration_ps * 1e-12))
        return rng.uniform(0.0, duration_ps, n)
    # renewal process with a hard dead time between pair emissions
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


def generate_events(model: SourceModel, duration_s: float,
                    seed: int) -> EventStream:
    """Simulate a detection stream of the given duration (seconds)."""
    if duration_s < 0:
        raise ValueError("duration_s must be >= 0")
    duration_ps = int(round(duration_s * 1e12))
    rng = np.random.Generator(np.random.PCG64(seed))

    pair_t = _pair_times_ps(model, duration_ps, rng)
    n_pairs = len(pair_t)
    t_sig = model.signal_transmission
    t_idl = model.idler_transmission

    ch_parts: list[np.ndarray] = []
    t_parts: list[np.ndarray] = []
    for start in range(0, n_pairs, _CHUNK_PAIRS):
        t0 = pair_t[start:start + _CHUNK_PAIRS]
        n = len(t0)
        delays = model.idler_delay_sign * rng.exponential(
            model.pair_lifetime_ps, n)
        alive_s = rng.random(n) < t_sig
        alive_i = rng.random(n) < t_idl
        for arm_alive, arm_base, arm_channels in (
                (alive_s, t0, model.signal_channels),
                (alive_i, t0 + delays, model.idler_channels)):
            t_arm = arm_base[arm_alive]
            if model.jitter_sigma_ps > 0:
                t_arm = t_arm + rng.normal(0.0, model.jitter_sigma_ps,
                                           len(t_arm))
            if len(arm_channels) == 1:
                ch = np.full(len(t_arm), arm_channels[0], dtype=np.uint8)
            else:
                pick = rng.integers(0, len(arm_channels), len(t_arm))
                ch = np.asarray(arm_channels, dtype=np.uint8)[pick]
            ch_parts.append(ch)
            t_parts.append(t_arm)

    for channel in sorted(tuple(model.signal_channels)
                          + tuple(model.idler_channels)):
        n_dark = int(rng.poisson(model.dark_rate_hz * duration_ps * 1e-12))
        t_parts.append(rng.uniform(0.0, duration_ps, n_dark))
        ch_parts.append(np.full(n_dark, channel, dtype=np.uint8))

    if t_parts:
        times = np.rint(np.concatenate(t_parts)).astype(np.int64)
        channels = np.concatenate(ch_parts)
        # one cut on the rounded times keeps every timestamp in [0, duration)
        keep = (times >= 0) & (times < duration_ps)
        times, channels = times[keep], channels[keep]
    else:
        times = np.empty(0, dtype=np.int64)
        channels = np.empty(0, dtype=np.uint8)
    channels, times, _ = _sorted_stream(channels, times)
    return EventStream(channels=channels, timestamps_ps=times,
                       duration_ps=duration_ps, seed=seed,
                       n_pairs_generated=n_pairs)


def write_events(stream: EventStream, path: str | os.PathLike,
                 fmt: str | None = None) -> None:
    """Write a stream to a binary (default) or CSV timestamp file."""
    fmt = fmt or ("csv" if str(path).endswith(".csv") else "binary")
    if fmt == "csv":
        with open(path, "w") as fh:
            fh.write("channel,timestamp_ps\n")
            for c, t in zip(stream.channels, stream.timestamps_ps):
                fh.write(f"{int(c)},{int(t)}\n")
        return
    if fmt != "binary":
        raise ValueError(f"unknown event format {fmt!r}")
    n_channels = int(stream.channels.max()) + 1 if len(stream) else 0
    records = np.empty(len(stream), dtype=_RECORD_DTYPE)
    records["channel"] = stream.channels
    records["t"] = stream.timestamps_ps.astype(np.uint64)
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, FORMAT_VERSION, n_channels, b"\0" * 6))
        fh.write(records.tobytes())


def read_events(path: str | os.PathLike,
                duration_ps: int | None = None) -> EventStream:
    """Read a timestamp file written by :func:`write_events`.

    The file format does not carry the acquisition duration; pass it when
    known, otherwise the last timestamp + 1 is used.  Timestamps must be
    non-decreasing int64 values and channels fit a byte; anything else
    raises EventFormatError.
    """
    if str(path).endswith(".csv"):
        try:
            data = np.loadtxt(path, delimiter=",", skiprows=1,
                              dtype=np.int64, ndmin=2)
        except ValueError as err:  # includes values outside int64
            raise EventFormatError(f"{path}: {err}") from err
        if data.size == 0:
            channels = np.empty(0, dtype=np.uint8)
            times = np.empty(0, dtype=np.int64)
        else:
            if np.any((data[:, 0] < 0) | (data[:, 0] > 255)):
                raise EventFormatError(f"{path}: channel outside 0-255")
            channels = data[:, 0].astype(np.uint8)
            times = data[:, 1]
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
        channels = records["channel"].copy()
        times = records["t"].astype(np.int64)
    if np.any(times[1:] < times[:-1]):
        raise EventFormatError(f"{path}: timestamps are not time-sorted")
    if duration_ps is None:
        duration_ps = int(times[-1]) + 1 if len(times) else 0
    return EventStream(channels=channels, timestamps_ps=times,
                       duration_ps=duration_ps)
