"""Coincidence counting on timestamp streams.

One primitive, :func:`coincidences`, binary-searches time-sorted
per-channel arrays and yields the index pairs whose delay t_b - t_a lies in
a closed window of whole picoseconds: O(N log N + pairs), exact at any
timestamp.  Delays are always t_b - t_a (idler minus signal by default).

Delays are whole picoseconds, so :func:`delay_histogram` gathers once and
bins every delay of a span on its own: every count of a channel pair is
then an exact slice of that one array.  The 10-ps calibration histogram,
the two-fold windows and the Franson peaks read it; the per-event
reductions (window counts, heralded g2, the Franson path check) read the
pairs themselves.

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

# Memory caps per chunk of coincidences(): a events and pairs.
_CHUNK_EVENTS = 1 << 20
_CHUNK_PAIRS = 1 << 22
# Largest span of a delay histogram, in 1-ps bins (32 MiB of counts).
_MAX_DELAY_BINS = 1 << 22
# Peak calibration: 10-ps bins over [-4000, 4000) ps.
_CAL_BIN_PS = 10
_CAL_SPAN_PS = 8000


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
class DelayHistogram:
    """Pair counts at each whole-ps delay lo_ps, lo_ps + 1, ... hi_ps."""

    lo_ps: int
    counts: np.ndarray

    @property
    def hi_ps(self) -> int:
        return self.lo_ps + len(self.counts) - 1

    def _below(self, delays_ps: np.ndarray) -> np.ndarray:
        """Pairs with delay < d, for each d in [lo, hi + 1]."""
        d = np.asarray(delays_ps, dtype=np.int64) - self.lo_ps
        if d.size and (d.min() < 0 or d.max() > len(self.counts)):
            raise ValueError(
                f"delays [{int(d.min()) + self.lo_ps}, "
                f"{int(d.max()) + self.lo_ps - 1}] ps reach outside the "
                f"gathered [{self.lo_ps}, {self.hi_ps}] ps")
        return np.concatenate([[0], np.cumsum(self.counts)])[d]

    def totals(self, centers_ps, window_ps: float) -> np.ndarray:
        """Pair counts in same-width closed windows at each centre."""
        lo, hi = np.array([window_edges(c, window_ps) for c in centers_ps],
                          dtype=np.int64).reshape(-1, 2).T
        below = self._below(np.concatenate([lo, hi + 1]))
        return below[len(lo):] - below[:len(lo)]

    def binned(self, bin_width_ps: int = _CAL_BIN_PS,
               span_ps: int = _CAL_SPAN_PS) -> CoincidenceHistogram:
        """The :func:`histogram` of the same channels, sliced from here."""
        edges = _bin_edges(bin_width_ps, span_ps)
        counts = np.diff(self._below(edges))
        return CoincidenceHistogram(
            bin_centers_ps=edges[:-1] + bin_width_ps // 2, counts=counts,
            bin_width_ps=bin_width_ps,
            span_ps=(len(edges) - 1) * bin_width_ps, total=int(counts.sum()))


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


def coincidences(times_a: np.ndarray, times_b: np.ndarray,
                 lo_ps: int, hi_ps: int):
    """Yield (a_idx, b_idx) chunks of every pair with lo <= t_b - t_a <= hi.

    Times are sorted int64 ps and lo, hi whole ps.  Chunks are non-empty
    and in a order; a_idx ascends, b_idx ascends per a event, and all pairs
    of an a event share a chunk.  A chunk spans at most _CHUNK_EVENTS a
    events and holds at most _CHUNK_PAIRS pairs, or one a event with more.
    """
    if hi_ps < lo_ps:
        return
    for start in range(0, len(times_a), _CHUNK_EVENTS):
        ta = times_a[start:start + _CHUNK_EVENTS]
        first = np.searchsorted(times_b, ta + lo_ps, side="left")
        n = np.searchsorted(times_b, ta + hi_ps, side="right") - first
        ends = np.cumsum(n)
        before = ends - n
        i = 0
        while i < len(ta):
            j = max(int(np.searchsorted(ends, before[i] + _CHUNK_PAIRS,
                                        side="right")), i + 1)
            if ends[j - 1] > before[i]:
                a_idx = np.repeat(np.arange(start + i, start + j), n[i:j])
                b_idx = np.repeat(first[i:j] - before[i:j], n[i:j]) \
                    + np.arange(before[i], ends[j - 1])
                yield a_idx, b_idx
            i = j


def window_edges(center_ps: float, window_ps: float) -> tuple[int, int]:
    """Whole-ps edges of the closed window [center - w/2, center + w/2]."""
    return (math.ceil(center_ps - window_ps / 2),
            math.floor(center_ps + window_ps / 2))


def window_counts(times_a: np.ndarray, times_b: np.ndarray,
                  center_ps: float, window_ps: float) -> np.ndarray:
    """Per-a-event count of b events with t_b - t_a in the closed window."""
    counts = np.zeros(len(times_a), dtype=np.int64)
    for a_idx, _ in coincidences(times_a, times_b,
                                 *window_edges(center_ps, window_ps)):
        counts[a_idx[0]:a_idx[-1] + 1] += np.bincount(a_idx - a_idx[0])
    return counts


def delay_histogram(times_a: np.ndarray, times_b: np.ndarray,
                    lo_ps: int, hi_ps: int) -> DelayHistogram:
    """Pair count at each whole-ps delay t_b - t_a in [lo, hi].

    Raises ValueError, before gathering, for a span of more than
    _MAX_DELAY_BINS delays.
    """
    n_bins = max(hi_ps - lo_ps + 1, 0)
    if n_bins > _MAX_DELAY_BINS:
        raise ValueError(f"delay span [{lo_ps}, {hi_ps}] ps exceeds "
                         f"{_MAX_DELAY_BINS} one-ps bins")
    counts = np.zeros(n_bins, dtype=np.int64)
    for a_idx, b_idx in coincidences(times_a, times_b, lo_ps, hi_ps):
        counts += np.bincount(times_b[b_idx] - times_a[a_idx] - lo_ps,
                              minlength=n_bins)
    return DelayHistogram(lo_ps, counts)


def peak_span(window_ps: float, offset_ps: float,
              peak_delay_ps: float | None = None,
              calibration_span_ps: int = _CAL_SPAN_PS) -> tuple[int, int]:
    """Delays [lo, hi] read by windows of window_ps centred up to offset_ps
    either side of a peak: the given peak or, when None, any peak the 10-ps
    calibration histogram over calibration_span_ps can find, together with
    that histogram's own span."""
    if peak_delay_ps is not None:
        return (window_edges(peak_delay_ps - offset_ps, window_ps)[0],
                window_edges(peak_delay_ps + offset_ps, window_ps)[1])
    edges = _bin_edges(_CAL_BIN_PS, calibration_span_ps)
    lo, hi = int(edges[0]), int(edges[-1]) - 1
    return (min(lo, window_edges(lo - offset_ps, window_ps)[0]),
            max(hi, window_edges(hi + offset_ps, window_ps)[1]))


def two_fold_span(window_ps: float, offset_max_ps: int = 50_000,
                  peak_delay_ps: float | None = None) -> tuple[int, int]:
    """Delays [lo, hi] that :func:`two_fold_metrics` reads."""
    return peak_span(window_ps, offset_max_ps, peak_delay_ps)


def _windows_hit(times_a: np.ndarray, times_b: np.ndarray, centers_ps,
                 window_ps: float, flags: np.ndarray):
    """Per window, the a events with a b event in it: all, and flagged.

    Sorted by centre, both window edges ascend, so the windows holding a
    delay form a range [kl, kr); starting each range at the end of the
    previous one of the same a event counts every (a, window) hit once.
    """
    order = np.argsort(centers_ps, kind="stable")
    lo, hi = np.array([window_edges(c, window_ps)
                       for c in np.asarray(centers_ps)[order]]).T
    k = len(lo)
    hit = np.zeros(k, dtype=np.int64)
    flagged = np.zeros(k, dtype=np.int64)
    for a_idx, b_idx in coincidences(times_a, times_b, int(lo.min()),
                                     int(hi.max())):
        delays = times_b[b_idx] - times_a[a_idx]
        kl = np.searchsorted(hi, delays, side="left")
        kr = np.searchsorted(lo, delays, side="right")
        same_a = np.r_[False, a_idx[1:] == a_idx[:-1]]
        kl = np.where(same_a, np.maximum(kl, np.r_[0, kr[:-1]]), kl)
        new = kl < kr
        for out, keep in ((hit, new), (flagged, new & flags[a_idx])):
            out += np.cumsum(np.bincount(kl[keep], minlength=k + 1)
                             - np.bincount(kr[keep], minlength=k + 1))[:k]
    unsort = np.argsort(order)
    return hit[unsort], flagged[unsort]


def _bin_edges(bin_width_ps: int, span_ps: int) -> np.ndarray:
    """Edges of the histogram bins [e_k, e_k+1) over [-half, half)."""
    if bin_width_ps <= 0 or span_ps <= 0:
        raise ValueError("bin_width_ps and span_ps must be positive")
    n_bins = max(int(round(span_ps / bin_width_ps)), 1)
    half = n_bins * bin_width_ps // 2
    # an odd span's last bin ends at half, one delay short
    return np.minimum(np.arange(n_bins + 1) * bin_width_ps - half, half)


def histogram(stream: EventStream, ch_a: int, ch_b: int,
              bin_width_ps: int = _CAL_BIN_PS, span_ps: int = _CAL_SPAN_PS
              ) -> CoincidenceHistogram:
    """Histogram of delays t_b - t_a within [-span/2, span/2)."""
    edges = _bin_edges(bin_width_ps, span_ps)
    delays = delay_histogram(stream.channel_times(ch_a),
                             stream.channel_times(ch_b),
                             int(edges[0]), int(edges[-1]) - 1)
    return delays.binned(bin_width_ps, span_ps)


def calibrate_peak_delay(stream: EventStream, ch_a: int, ch_b: int,
                         bin_width_ps: int = _CAL_BIN_PS,
                         span_ps: int = _CAL_SPAN_PS) -> int:
    """Delay-histogram peak position between two channels."""
    return histogram(stream, ch_a, ch_b, bin_width_ps, span_ps).peak_delay_ps


def two_fold_metrics(stream: EventStream, window_ps: int = 800,
                     ch_signal: int = 0, ch_idler: int = 1,
                     peak_delay_ps: int | None = None,
                     n_offset_windows: int = 20,
                     offset_min_ps: int = 5_000,
                     offset_max_ps: int = 50_000,
                     delays: DelayHistogram | None = None) -> TwoFoldResult:
    """Coincidence metrics between a signal and an idler channel.

    n12 counts delays inside a window of window_ps centred on the calibrated
    histogram peak; the accidental level is the mean over n_offset_windows
    same-width windows spread over [offset_min, offset_max] ps on both sides
    of the peak.  Zero-count denominators yield NaN metrics.

    delays, when given, is the channels' delay histogram, which must cover
    :func:`two_fold_span`; otherwise that span is gathered here.
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
    duration_s = stream.duration_ps / 1e12
    if n1 == 0 or n2 == 0:
        return TwoFoldResult(n1=n1, n2=n2, n12=0, accidental_mean=math.nan,
                             peak_delay_ps=0, window_ps=window_ps,
                             duration_s=duration_s,
                             pgr_estimate_hz=math.nan, car=math.nan)
    if delays is None:
        delays = delay_histogram(times_s, times_i, *two_fold_span(
            window_ps, offset_max_ps, peak_delay_ps))
    if peak_delay_ps is None:
        peak_delay_ps = delays.binned().peak_delay_ps
    per_side = n_offset_windows // 2
    bonus = n_offset_windows - 2 * per_side
    offsets = np.linspace(offset_min_ps, offset_max_ps, per_side + bonus)
    centers = [peak_delay_ps + off for off in offsets]
    centers += [peak_delay_ps - off for off in offsets[:per_side]]
    counts = delays.totals([peak_delay_ps] + centers, window_ps)
    n12 = int(counts[0])
    accidental_mean = float(np.mean(counts[1:]))
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
    if n_i and len(times_1) and len(times_2) and len(tau):
        peak1 = calibrate_peak_delay(stream, ch_idler, ch_s1)
        peak2 = calibrate_peak_delay(stream, ch_idler, ch_s2)
        has1 = window_counts(times_i, times_1, peak1, window_ps) > 0
        n_is1 = int(has1.sum())
        n_is2, triples = _windows_hit(times_i, times_2, peak2 + tau,
                                      window_ps, has1)
        ok = (n_is2 > 0) & (n_is1 > 0)
        g2[ok] = triples[ok] * n_i / (n_is1 * n_is2[ok])
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
