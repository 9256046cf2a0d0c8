"""Coincidence counting on timestamp streams.

One primitive, :func:`coincidences`, binary-searches time-sorted
per-channel arrays and yields the index pairs whose delay t_b - t_a lies in
a closed window of whole picoseconds: O(N log N + pairs), exact at any
timestamp.  Delays are always t_b - t_a (idler minus signal by default).
It works through the a events in chunks of at most _CHUNK_EVENTS events and
_CHUNK_PAIRS pairs, and each chunk searches only the slice of b events it
can reach, so a chunk's few int64 arrays stay in cache and every analysis
holds its input, its result and one chunk, whatever the stream's length.

Delays are whole picoseconds, so :func:`delay_histogram` gathers once and
bins every delay of a span on its own: every count of a channel pair is
then an exact slice of that one array, read around one calibrated peak:
DelayHistogram.peak_ps, the first fullest 10-ps bin of its span.  Window
counts and the Franson path check read the pairs themselves, and heralded
g2 gathers each of its two channel pairs once, for its peak and windows.

Histograms add, so a stream need not be held whole: :func:`fold_delays`
folds one over a stream's time blocks (events.EventStream blocks, as
generation and the file reader yield them), counting each pair in the
block of its a event, and :func:`two_fold_metrics` reads blocks that way.
Heralded g2 stays in memory: its calibration peak must be known before any
window is counted, and a second pass over the blocks took about twice its
time.

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

# Caps per chunk of coincidences(): a events and pairs.  A chunk's few
# int64 arrays of these lengths, about 6 MB at the replay source's rates,
# are all that analysis adds to its input and result.  Sizes from 2^14 to
# 2^18 events, with 4 times as many pairs, were measured; 2^16 gave the
# steadiest g2 peak RSS and was within 2 MB of the best on every workload.
_CHUNK_EVENTS = 1 << 16
_CHUNK_PAIRS = 1 << 18
# Largest span of a delay histogram, in 1-ps bins (32 MiB of counts).
_MAX_DELAY_BINS = 1 << 22
# Peak calibration: 10-ps bins over [-4000, 4000) ps.
_CAL_BIN_PS = 10
_CAL_SPAN_PS = 8000
_EMPTY = np.zeros(0, dtype=np.int64)


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
    """Pair counts at each whole-ps delay lo_ps, lo_ps + 1, ... hi_ps;
    peak_ps is the one peak rule of every analysis."""

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

    def peak_ps(self, span_ps: int = _CAL_SPAN_PS) -> int:
        """The calibrated peak: the centre of the fullest 10-ps bin over
        [-span/2, span/2), the first one on a tie.  Raises ValueError when
        the histogram does not cover the span."""
        edges = _bin_edges(_CAL_BIN_PS, span_ps)
        return int(edges[np.argmax(np.diff(self._below(edges)))]) \
            + _CAL_BIN_PS // 2


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
    The a events of a chunk, ta, are searched only into the b events in
    [ta[0] + lo, ta[-1] + hi], the ones they can reach; a chunk that
    reaches none yields nothing.
    """
    if hi_ps < lo_ps:
        return
    for start in range(0, len(times_a), _CHUNK_EVENTS):
        ta = times_a[start:start + _CHUNK_EVENTS]
        # the b events the chunk can reach: searching only them finds the
        # same indices, offset by b_lo
        b_lo = int(np.searchsorted(times_b, ta[0] + lo_ps, side="left"))
        b_hi = int(np.searchsorted(times_b, ta[-1] + hi_ps, side="right"))
        if b_hi == b_lo:
            continue
        tb = times_b[b_lo:b_hi]
        first = np.searchsorted(tb, ta + lo_ps, side="left")
        n = np.searchsorted(tb, ta + hi_ps, side="right") - first
        first += b_lo
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

    Each chunk of pairs is added into the counts in place (np.add.at),
    so the peak is the counts and one chunk, whatever the span.  Raises
    ValueError, before gathering, for a span of more than _MAX_DELAY_BINS
    delays.
    """
    counts = _delay_counts(lo_ps, hi_ps)
    _add_delays(counts, times_a, times_b, lo_ps, hi_ps)
    return DelayHistogram(lo_ps, counts)


def _delay_counts(lo_ps: int, hi_ps: int) -> np.ndarray:
    n_bins = max(hi_ps - lo_ps + 1, 0)
    if n_bins > _MAX_DELAY_BINS:
        raise ValueError(f"delay span [{lo_ps}, {hi_ps}] ps exceeds "
                         f"{_MAX_DELAY_BINS} one-ps bins")
    return np.zeros(n_bins, dtype=np.int64)


def _add_delays(counts: np.ndarray, times_a: np.ndarray,
                times_b: np.ndarray, lo_ps: int, hi_ps: int) -> None:
    """Add the pairs of times_a and times_b into counts from lo_ps on."""
    if len(times_a) and len(times_b):
        for a_idx, b_idx in coincidences(times_a, times_b, lo_ps, hi_ps):
            np.add.at(counts, times_b[b_idx] - times_a[a_idx] - lo_ps, 1)


@dataclass(frozen=True)
class PairFold:
    """Two channels of a stream: their event counts, the stream's duration
    and their :func:`delay_histogram` over some span."""

    n_a: int
    n_b: int
    duration_ps: int
    delays: DelayHistogram


def fold_delays(blocks, ch_a: int, ch_b: int, lo_ps: int,
                hi_ps: int) -> PairFold:
    """:func:`delay_histogram` of two channels, folded over the blocks of a
    stream (EventStreams in time order; see events.EventStream).

    Each pair counts in the block of its a event.  An a event waits until
    a block starts past its reach, t_a + hi, so that every b event it can
    reach has been seen; a b event is kept while a waiting or later a
    event can still reach it.  So the histogram is the whole stream's,
    wherever the block edges fall, even between equal times.  The fold
    holds about one block of each channel, and copies events only when a
    block edge falls inside the span of a waiting or kept event.
    """
    counts = _delay_counts(lo_ps, hi_ps)
    n_a = n_b = 0
    waiting = kept = _EMPTY
    block = None
    for block in blocks:
        a, b = block.channel_times(ch_a), block.channel_times(ch_b)
        n_a, n_b = n_a + len(a), n_b + len(b)
        # a events whose every partner lies before this block
        ready = int(np.searchsorted(waiting, block.start_ps - hi_ps))
        _add_delays(counts, waiting[:ready], kept, lo_ps, hi_ps)
        waiting = _joined(waiting[ready:], a)
        floor = min(block.start_ps, int(waiting[0])) if len(waiting) \
            else block.start_ps
        kept = _joined(kept[np.searchsorted(kept, floor + lo_ps):], b)
    if block is None:
        raise ValueError("no blocks to fold: a stream has at least one")
    _add_delays(counts, waiting, kept, lo_ps, hi_ps)
    return PairFold(n_a, n_b, block.duration_ps, DelayHistogram(lo_ps, counts))


def _joined(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.concatenate([x, y]) if len(x) and len(y) else (
        y if not len(x) else x)


def peak_span(window_ps: float, lo_offset_ps: float, hi_offset_ps: float,
              peak_delay_ps: float | None = None,
              calibration_span_ps: int = _CAL_SPAN_PS) -> tuple[int, int]:
    """Delays [lo, hi] read by windows of window_ps centred from lo_offset_ps
    to hi_offset_ps off a peak: the given peak or, when None, any peak the
    10-ps calibration histogram over calibration_span_ps can find, together
    with that histogram's own span."""
    if peak_delay_ps is not None:
        return (window_edges(peak_delay_ps + lo_offset_ps, window_ps)[0],
                window_edges(peak_delay_ps + hi_offset_ps, window_ps)[1])
    lo, hi = _calibration_span(calibration_span_ps)
    return (min(lo, window_edges(lo + lo_offset_ps, window_ps)[0]),
            max(hi, window_edges(hi + hi_offset_ps, window_ps)[1]))


def two_fold_span(window_ps: float, offset_max_ps: int = 50_000,
                  peak_delay_ps: float | None = None) -> tuple[int, int]:
    """Delays [lo, hi] that :func:`two_fold_metrics` reads."""
    return peak_span(window_ps, -offset_max_ps, offset_max_ps,
                     peak_delay_ps)


def _gather(times_a: np.ndarray, times_b: np.ndarray, lo_ps: int,
            hi_ps: int) -> tuple[np.ndarray, np.ndarray]:
    """Every pair with lo <= t_b - t_a <= hi as (a_idx, delays), in a order
    and, within one a event, by ascending delay, which is ascending b.

    The b events are searched into a: the heralds of :func:`heralded_g2`
    outnumber each signal channel.  Each pair is packed into one int64,
    a_idx << s | (delay - lo) with s the bits of hi - lo, and the keys are
    sorted in place and unpacked in place, so the gather holds 16 B per
    pair at its peak.  Raises ValueError when a_idx does not fit in the
    63 - s bits left.
    """
    if hi_ps < lo_ps:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    shift = (hi_ps - lo_ps).bit_length()
    if max(len(times_a) - 1, 0).bit_length() > 63 - shift:
        raise ValueError(f"{len(times_a)} events do not fit the "
                         f"{63 - shift} bits left by a {hi_ps - lo_ps} ps "
                         "span")
    parts = [(a_idx << shift) | (times_b[b_idx] - times_a[a_idx] - lo_ps)
             for b_idx, a_idx in coincidences(times_b, times_a, -hi_ps,
                                              -lo_ps)]
    keys = np.concatenate([_EMPTY] + parts)
    del parts
    keys.sort()
    a_idx = keys >> shift
    keys &= (1 << shift) - 1
    keys += lo_ps
    return a_idx, keys


def _calibration_peak(delays: np.ndarray) -> int:
    """:meth:`DelayHistogram.peak_ps` of the delays of a gather that covers
    the calibration span, binning only the delays inside it."""
    lo, hi = _calibration_span()
    inside = delays[(delays >= lo) & (delays <= hi)]
    counts = np.bincount(inside - lo, minlength=hi - lo + 1)
    return DelayHistogram(lo, counts).peak_ps()


def _windows_hit(a_idx: np.ndarray, delays: np.ndarray, centers_ps,
                 window_ps: float, flags: np.ndarray):
    """Per window, the a events with a pair in it: all, and flagged.

    The pairs are in a order and ascend in delay within one a event.
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
    kl = np.searchsorted(hi, delays, side="left")
    kr = np.searchsorted(lo, delays, side="right")
    np.maximum(kl[1:], kr[:-1], out=kl[1:], where=a_idx[1:] == a_idx[:-1])
    new = kl < kr
    for out, keep in ((hit, new), (flagged, new & flags[a_idx])):
        out += np.cumsum(np.bincount(kl[keep], minlength=k + 1)
                         - np.bincount(kr[keep], minlength=k + 1))[:k]
    unsort = np.argsort(order)
    return hit[unsort], flagged[unsort]


def _calibration_span(span_ps: int = _CAL_SPAN_PS) -> tuple[int, int]:
    """Delays [lo, hi] that the 10-ps calibration histogram reads."""
    edges = _bin_edges(_CAL_BIN_PS, span_ps)
    return int(edges[0]), int(edges[-1]) - 1


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
    counts = np.diff(delay_histogram(
        stream.channel_times(ch_a), stream.channel_times(ch_b),
        int(edges[0]), int(edges[-1]) - 1)._below(edges))
    return CoincidenceHistogram(
        bin_centers_ps=edges[:-1] + bin_width_ps // 2, counts=counts,
        bin_width_ps=bin_width_ps,
        span_ps=(len(edges) - 1) * bin_width_ps, total=int(counts.sum()))


def two_fold_metrics(stream, window_ps: int = 800,
                     ch_signal: int = 0, ch_idler: int = 1,
                     peak_delay_ps: int | None = None,
                     n_offset_windows: int = 20,
                     offset_min_ps: int = 5_000,
                     offset_max_ps: int = 50_000) -> TwoFoldResult:
    """Coincidence metrics between a signal and an idler channel.

    n12 counts delays inside a window of window_ps centred on peak_delay_ps
    or, when None, on the histogram's DelayHistogram.peak_ps; the
    accidental level is the mean over n_offset_windows
    same-width windows spread over [offset_min, offset_max] ps on both sides
    of the peak.  Zero-count denominators yield NaN metrics.

    stream is an EventStream, or its blocks in time order, which are folded
    over :func:`two_fold_span` (:func:`fold_delays`): the delay histograms
    add, each pair counted once in the block of its signal event, so the
    result is the whole stream's and no more than the fold's blocks are
    held.  It may also be a PairFold of the two channels already folded,
    whose histogram must cover that span.
    """
    if window_ps <= 0:
        raise ValueError("window_ps must be positive")
    if n_offset_windows < 10:
        raise ValueError("need at least 10 offset windows")
    if offset_min_ps <= window_ps or offset_max_ps <= offset_min_ps:
        raise ValueError("offset windows must sit clear of the peak window")
    if isinstance(stream, PairFold):
        fold = stream
    else:
        fold = fold_delays(
            [stream] if isinstance(stream, EventStream) else stream,
            ch_signal, ch_idler,
            *two_fold_span(window_ps, offset_max_ps, peak_delay_ps))
    n1, n2, delays = fold.n_a, fold.n_b, fold.delays
    duration_s = fold.duration_ps / 1e12
    if n1 == 0 or n2 == 0:
        return TwoFoldResult(n1=n1, n2=n2, n12=0, accidental_mean=math.nan,
                             peak_delay_ps=0, window_ps=window_ps,
                             duration_s=duration_s,
                             pgr_estimate_hz=math.nan, car=math.nan)
    if peak_delay_ps is None:
        peak_delay_ps = delays.peak_ps()
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
    with an empty denominator are NaN.  Each channel pair is gathered once,
    over the calibration span and every window around any peak it can find.
    """
    if len({ch_idler, ch_s1, ch_s2}) != 3:
        raise ValueError("ch_idler, ch_s1 and ch_s2 must be distinct")
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
        a_idx, delays = _gather(times_i, times_1, *peak_span(window_ps, 0, 0))
        lo, hi = window_edges(_calibration_peak(delays), window_ps)
        has1 = np.zeros(n_i, dtype=bool)
        has1[a_idx[(delays >= lo) & (delays <= hi)]] = True
        n_is1 = int(has1.sum())
        del a_idx, delays  # hold one channel pair's pairs at a time
        a_idx, delays = _gather(times_i, times_2, *peak_span(
            window_ps, tau.min(), tau.max()))
        n_is2, triples = _windows_hit(a_idx, delays,
                                      _calibration_peak(delays) + tau,
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
