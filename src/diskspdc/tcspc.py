"""Coincidence counting on timestamp streams.

All pairwise counting runs on time-sorted per-channel arrays with monotone
binary-search sweeps, so the cost is O(N log N + matches) rather than O(N^2).
Delays are always computed as t_b - t_a (idler minus signal by default).

The two-fold figures follow standard TCSPC practice: the coincidence window
is centred on the calibrated peak of the delay histogram, accidentals are
estimated from the mean of identical windows placed at off-peak offsets, and
the pair generation rate uses the loss-independent estimator
N1 * N2 / (N12 * T).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .events import EventStream

_CHUNK = 1 << 20


@dataclass(frozen=True)
class CoincidenceHistogram:
    """Start-stop delay histogram between two channels."""

    bin_centers_ps: np.ndarray
    counts: np.ndarray
    bin_width_ps: int
    span_ps: int
    total: int

    @property
    def peak_delay_ps(self) -> int:
        return int(self.bin_centers_ps[int(np.argmax(self.counts))])


@dataclass(frozen=True)
class TwoFoldResult:
    """Singles, coincidences, and derived two-fold metrics."""

    n1: int
    n2: int
    n12: int
    accidental_mean: float
    peak_delay_ps: int
    window_ps: int
    duration_s: float
    pgr_estimate_hz: float
    car: float


def _expand_ranges(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Flat indices [lo_0..hi_0) + [lo_1..hi_1) + ... as one array."""
    counts = hi - lo
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    starts = np.repeat(lo, counts)
    offsets = np.arange(total) - np.repeat(
        np.cumsum(counts) - counts, counts)
    return starts + offsets


def window_bounds(times_a: np.ndarray, times_b: np.ndarray,
                  center_ps: float, window_ps: float):
    """Index ranges [lo, hi) of the b events in each a event's window.

    The window is closed, t_b - t_a in [center - w/2, center + w/2].  Its
    edges are whole picoseconds, ceil(center - w/2) and floor(center + w/2),
    added to the int64 times, so the ranges are exact at any timestamp.
    """
    lo_ps = math.ceil(center_ps - window_ps / 2)
    hi_ps = math.floor(center_ps + window_ps / 2)
    lo = np.searchsorted(times_b, times_a + lo_ps, side="left")
    hi = np.searchsorted(times_b, times_a + hi_ps, side="right")
    return lo, hi


def window_counts(times_a: np.ndarray, times_b: np.ndarray,
                  center_ps: float, window_ps: float) -> np.ndarray:
    """Per-a-event count of b events with t_b - t_a in the closed window."""
    lo, hi = window_bounds(times_a, times_b, center_ps, window_ps)
    return hi - lo


def histogram(stream: EventStream, ch_a: int, ch_b: int,
              bin_width_ps: int = 10, span_ps: int = 8000
              ) -> CoincidenceHistogram:
    """Histogram of delays t_b - t_a within [-span/2, span/2)."""
    if bin_width_ps <= 0 or span_ps <= 0:
        raise ValueError("bin_width_ps and span_ps must be positive")
    n_bins = max(int(round(span_ps / bin_width_ps)), 1)
    span_ps = n_bins * bin_width_ps
    half = span_ps // 2
    times_a = stream.channel_times(ch_a)
    times_b = stream.channel_times(ch_b)
    counts = np.zeros(n_bins, dtype=np.int64)
    for start in range(0, len(times_a), _CHUNK):
        ta = times_a[start:start + _CHUNK]
        lo = np.searchsorted(times_b, ta - half, side="left")
        hi = np.searchsorted(times_b, ta + half, side="left")
        idx = _expand_ranges(lo, hi)
        if len(idx) == 0:
            continue
        delays = times_b[idx] - np.repeat(ta, hi - lo)
        bins = ((delays + half) // bin_width_ps).astype(np.int64)
        counts += np.bincount(bins, minlength=n_bins)
    centers = (np.arange(n_bins) * bin_width_ps) - half + bin_width_ps // 2
    return CoincidenceHistogram(bin_centers_ps=centers, counts=counts,
                                bin_width_ps=bin_width_ps, span_ps=span_ps,
                                total=int(counts.sum()))


def calibrate_peak_delay(stream: EventStream, ch_a: int, ch_b: int,
                         bin_width_ps: int = 10,
                         span_ps: int = 8000) -> int:
    """Delay-histogram peak position between two channels."""
    return histogram(stream, ch_a, ch_b, bin_width_ps, span_ps).peak_delay_ps


def two_fold_metrics(stream: EventStream, window_ps: int = 800,
                     ch_signal: int = 0, ch_idler: int = 1,
                     peak_delay_ps: int | None = None,
                     n_offset_windows: int = 20,
                     offset_min_ps: int = 5_000,
                     offset_max_ps: int = 50_000) -> TwoFoldResult:
    """Coincidence metrics between a signal and an idler channel.

    n12 counts delays inside a window of window_ps centred on the calibrated
    histogram peak; the accidental level is the mean over n_offset_windows
    same-width windows spread over [offset_min, offset_max] ps on both sides
    of the peak.  Zero-count denominators yield NaN metrics.
    """
    if window_ps <= 0:
        raise ValueError("window_ps must be positive")
    if n_offset_windows < 10:
        raise ValueError("need at least 10 offset windows")
    if offset_min_ps <= window_ps or offset_max_ps <= offset_min_ps:
        raise ValueError("offset windows must sit clear of the peak window")
    times_s = stream.channel_times(ch_signal)
    times_i = stream.channel_times(ch_idler)
    n1, n2 = len(times_s), len(times_i)
    duration_s = stream.duration_ps * 1e-12
    if n1 == 0 or n2 == 0:
        return TwoFoldResult(n1=n1, n2=n2, n12=0, accidental_mean=math.nan,
                             peak_delay_ps=0, window_ps=window_ps,
                             duration_s=duration_s,
                             pgr_estimate_hz=math.nan, car=math.nan)
    if peak_delay_ps is None:
        peak_delay_ps = calibrate_peak_delay(stream, ch_signal, ch_idler)
    n12 = int(window_counts(times_s, times_i, peak_delay_ps,
                            window_ps).sum())
    per_side = n_offset_windows // 2
    bonus = n_offset_windows - 2 * per_side
    offsets = np.linspace(offset_min_ps, offset_max_ps, per_side + bonus)
    centers = [peak_delay_ps + off for off in offsets]
    centers += [peak_delay_ps - off for off in offsets[:per_side]]
    acc = [int(window_counts(times_s, times_i, c, window_ps).sum())
           for c in centers]
    accidental_mean = float(np.mean(acc))
    pgr = (n1 * n2 / (n12 * duration_s)) if n12 > 0 and duration_s > 0 \
        else math.nan
    car = n12 / accidental_mean if accidental_mean > 0 else math.nan
    return TwoFoldResult(n1=n1, n2=n2, n12=n12,
                         accidental_mean=accidental_mean,
                         peak_delay_ps=int(peak_delay_ps),
                         window_ps=window_ps, duration_s=duration_s,
                         pgr_estimate_hz=pgr, car=car)


def car_closed_form(pair_rate_hz: float, window_ps: float,
                    t_signal: float = 1.0, t_idler: float = 1.0,
                    dark_hz_signal: float = 0.0, dark_hz_idler: float = 0.0,
                    capture: float = 1.0) -> float:
    """Analytic coincidences-to-accidentals ratio for a Poisson pair source.

    True coincidences r*Ts*Ti*capture against the accidental rate
    (r*Ts + d1)(r*Ti + d2) * window.  capture is the fraction of true pair
    delays falling inside the window.
    """
    if pair_rate_hz <= 0 or window_ps <= 0:
        raise ValueError("pair_rate_hz and window_ps must be positive")
    w_s = window_ps * 1e-12
    singles_s = pair_rate_hz * t_signal + dark_hz_signal
    singles_i = pair_rate_hz * t_idler + dark_hz_idler
    true_rate = pair_rate_hz * t_signal * t_idler * capture
    acc_rate = singles_s * singles_i * w_s
    return true_rate / acc_rate


def heralded_g2(stream: EventStream, tau_grid_ps: np.ndarray,
                window_ps: int = 800, ch_idler: int = 1,
                ch_s1: int = 0, ch_s2: int = 2) -> dict[str, np.ndarray]:
    """Heralded second-order correlation across a delay grid.

    For each tau: g2(tau) = N_is1s2 * N_i / (N_is1 * N_is2), with s1 windows
    centred on the calibrated i->s1 peak and s2 windows offset by tau from
    the calibrated i->s2 peak.  Returns the curve and the raw counts; entries
    with an empty denominator are NaN.
    """
    times_i = stream.channel_times(ch_idler)
    times_1 = stream.channel_times(ch_s1)
    times_2 = stream.channel_times(ch_s2)
    n_i = len(times_i)
    tau = np.asarray(tau_grid_ps, dtype=float)
    g2 = np.full(len(tau), math.nan)
    triples = np.zeros(len(tau), dtype=np.int64)
    n_is1 = 0
    n_is2 = np.zeros(len(tau), dtype=np.int64)
    if n_i and len(times_1) and len(times_2):
        peak1 = calibrate_peak_delay(stream, ch_idler, ch_s1)
        peak2 = calibrate_peak_delay(stream, ch_idler, ch_s2)
        has1 = window_counts(times_i, times_1, peak1, window_ps) > 0
        n_is1 = int(has1.sum())
        for k, t in enumerate(tau):
            has2 = window_counts(times_i, times_2, peak2 + t,
                                 window_ps) > 0
            n_is2[k] = int(has2.sum())
            triples[k] = int((has1 & has2).sum())
            if n_is1 > 0 and n_is2[k] > 0:
                g2[k] = triples[k] * n_i / (n_is1 * n_is2[k])
    return {"tau_ps": tau, "g2": g2, "n_triples": triples,
            "n_idler": np.full(len(tau), n_i, dtype=np.int64),
            "n_is1": np.full(len(tau), n_is1, dtype=np.int64),
            "n_is2": n_is2}


def poisson_heralded_g2(mu: float) -> float:
    """Closed-form g2(0) of a heralded Poisson pair source, 50/50 split.

    mu is the mean number of uncorrelated extra signal photons inside the
    heralding window.  The herald's own partner is always present, so
    P(no click in one output) = exp(-mu/2)/2 and

        g2(0) = (1 - exp(-mu/2)) / (1 - exp(-mu/2)/2)^2

    which tends to 2*mu for small mu.
    """
    if mu < 0:
        raise ValueError("mu must be >= 0")
    e = math.exp(-mu / 2.0)
    return (1.0 - e) / (1.0 - e / 2.0) ** 2


def dwdm_grid(lo_nm: float = 1535.0, hi_nm: float = 1565.0,
              width_nm: float = 0.8) -> list[tuple[float, float]]:
    """Contiguous filter channels covering [lo, hi]; the last one may
    overhang by less than one channel width."""
    if not 0 < lo_nm < hi_nm:
        raise ValueError("need 0 < lo_nm < hi_nm")
    if width_nm <= 0:
        raise ValueError("width_nm must be positive")
    n = math.ceil((hi_nm - lo_nm) / width_nm - 1e-12)
    return [(lo_nm + k * width_nm, lo_nm + (k + 1) * width_nm)
            for k in range(n)]


def dwdm_channel_index(wavelength_nm: float,
                       grid: list[tuple[float, float]]) -> int | None:
    """Index of the channel containing a wavelength, or None."""
    for k, (lo, hi) in enumerate(grid):
        if lo <= wavelength_nm < hi:
            return k
    return None


def dwdm_filter_rates(entries: list[tuple[float, float]],
                      grid: list[tuple[float, float]],
                      insertion_loss_db: float = 4.0) -> np.ndarray:
    """Sum (wavelength, rate) entries into channels and apply insertion loss."""
    if insertion_loss_db < 0:
        raise ValueError("insertion_loss_db must be >= 0")
    out = np.zeros(len(grid))
    for wavelength_nm, rate in entries:
        idx = dwdm_channel_index(wavelength_nm, grid)
        if idx is not None:
            out[idx] += rate
    return out * 10.0 ** (-insertion_loss_db / 10.0)


def dwdm_filter_stream(stream: EventStream, seed: int,
                       insertion_loss_db: float = 4.0) -> EventStream:
    """Thin a stream by the filter insertion loss (survival per event)."""
    if insertion_loss_db < 0:
        raise ValueError("insertion_loss_db must be >= 0")
    survival = 10.0 ** (-insertion_loss_db / 10.0)
    rng = np.random.Generator(np.random.PCG64(seed))
    keep = rng.random(len(stream)) < survival
    return EventStream(channels=stream.channels[keep],
                       timestamps_ps=stream.timestamps_ps[keep],
                       duration_ps=stream.duration_ps, seed=stream.seed,
                       n_pairs_generated=stream.n_pairs_generated)
