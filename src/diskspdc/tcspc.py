"""Coincidence counting on timestamp streams.

One primitive, :func:`coincidences`, binary-searches time-sorted
per-channel arrays and yields the index pairs whose delay t_b - t_a lies in
a closed window of whole picoseconds, exact at any timestamp.  Each a event
costs one search, for its first partner at the window's low edge, and its
pairs then come rank by rank, a gather each: its first partner, its second,
and so on for _RANKS ranks.  Only the k a events with more partners than
that search again, for the window's high edge, and have the rest of their
pairs expanded: O(N_a log N_b + k log N_b + pairs).  Delays are always
t_b - t_a (idler minus signal by default).  It works through the a events
in chunks of at most _CHUNK_EVENTS events, each rank a piece of one pair
per a event at most and the rest in pieces of at most _CHUNK_PAIRS pairs,
and each chunk searches only the slice of b events it can reach, so a
chunk's few int64 arrays stay in cache and every analysis holds its input,
its result and one piece, whatever the stream's length.  No consumer needs
the pieces in order: histograms add, the few pairs a g2 fold keeps are
sorted and window counts bin each piece on its own.

Delays are whole picoseconds, so :func:`delay_histogram` gathers once and
bins every delay of a span on its own: every count of a channel pair is
then an exact slice of that one array, read around one calibrated peak:
DelayHistogram.peak_ps, the first fullest 10-ps bin within +-4 ns, the
one peak rule of the two-fold, g2 and Franson analyses.  Each analysis
gathers a :func:`peak_span`: that calibration span and the windows off
any peak inside it.  Window counts read the pairs themselves.

A stream need not be held whole.  Every fold over a stream's time blocks
(events.EventStream blocks, as generation and the file reader yield them,
or as a caller gives them, which may reach past the next one's start)
takes its pairs from one block-edge rule, :func:`_fold_batches`, which hands
out each a event once, in a batch with every b event it can reach.
Histograms add, so :func:`fold_delays` adds each batch's delays, and
:func:`two_fold_metrics` reads blocks that way.  For the same reason a
stream's time shards fold apart: a fold given a shard [t0, t1) releases
and counts only that shard's events, pairing its a events with b events
on either side of its edges, and owns the shard's span, so the folds of
consecutive shards, given the blocks of their reach (see _fold_batches),
add up to one pass (events.summed).  Heralded g2 folds both of its
channel pairs in the same pass (:func:`fold_heralds`): it adds each
batch's delays into a histogram per channel pair, over its whole span, and
keeps the pairs of only those heralds with two pairs or more.  A herald
with one pair adds to a window's count exactly as its pair adds to that
window's total, so the HeraldFolds of a stream's time shards add up too,
and :func:`g2_curve` counts the windows around both peaks of their sum.
A single pass, :func:`heralded_g2`, is one such fold.

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

from .events import EventStream, _joined

# Caps of coincidences(): a events per chunk, so 128 KB per int64 array of
# a chunk's a events or of one of its rank pieces, and pairs per piece of
# a chunk's tail, 512 KB per int64 array, small enough for glibc to reuse
# freed heap rather than map each one afresh and fault it in again.  At
# seed 12345, g2 (two time shards in two processes) took 30.1 k minor
# faults over its processes at these sizes and 31.9 k at 2^16 events and
# 2^18 pairs, and coinc on the drawn bench/replay.cfg stream 19.8 k against
# 38.8 k (BENCH_pr21.json).
_CHUNK_EVENTS = 1 << 14
_CHUNK_PAIRS = 1 << 16
# Rank rounds per chunk of coincidences(): a gather each, before the a
# events with more partners search for their window's high edge.  It
# bounds a dense chunk: one a event with 1e5 partners at one time takes 4
# rounds, one more search and one expanded piece.  Over 1, 2, 4 and 8
# rounds, on one core of an Intel Xeon, seed 1: heralded_g2 of g2's stream
# took 282, 220, 217 and 215 ms (0.2 and 2.5 % of its signal events have
# more than one partner), and delay_histogram of the replay stream over
# the two-fold span 193, 144, 123 and 121 ms (21 % of its a events).
_RANKS = 4
# Largest span of a delay histogram, in 1-ps bins (32 MiB of counts).
_MAX_DELAY_BINS = 1 << 22
# Peak calibration: 10-ps bins over [-4000, 4000) ps, the delays [lo, hi]
# that DelayHistogram.peak_ps reads.
_CAL_BIN_PS = 10
_CAL_SPAN_PS = 8000
_CAL_LO_PS, _CAL_HI_PS = -_CAL_SPAN_PS // 2, _CAL_SPAN_PS // 2 - 1
_EMPTY = np.zeros(0, dtype=np.int64)


@dataclass(frozen=True)
class CoincidenceHistogram:
    """Start-stop delay histogram between two channels."""

    bin_centers_ps: np.ndarray
    counts: np.ndarray
    bin_width_ps: int
    span_ps: int
    total: int


@dataclass(frozen=True)
class DelayHistogram:
    """Pair counts at each whole-ps delay lo_ps, lo_ps + 1, ... hi_ps;
    peak_ps is the one peak rule of every analysis."""

    lo_ps: int
    counts: np.ndarray

    @property
    def hi_ps(self) -> int:
        return self.lo_ps + len(self.counts) - 1

    def __add__(self, other: DelayHistogram) -> DelayHistogram:
        """Both counts over one span; ValueError for spans that differ."""
        if (self.lo_ps, self.hi_ps) != (other.lo_ps, other.hi_ps):
            raise ValueError("delay histograms of different spans do not add")
        return DelayHistogram(self.lo_ps, self.counts + other.counts)

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

    def peak_ps(self) -> int:
        """The calibrated peak: the centre of the fullest 10-ps bin over
        [-4000, 4000) ps, the first one on a tie.  Raises ValueError when
        the histogram does not cover that span."""
        edges = _bin_edges(_CAL_BIN_PS, _CAL_SPAN_PS)
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
    """Yield (a_idx, b_idx) pieces of every pair with lo <= t_b - t_a <= hi,
    each pair once.

    Times are sorted int64 ps and lo, hi whole ps.  The a events go in
    chunks of at most _CHUNK_EVENTS, in a order, and each piece holds pairs
    of one chunk, a_idx ascending; pieces are non-empty and follow no other
    order.  The a events of a chunk, ta, are searched only into the b
    events in [ta[0] + lo, ta[-1] + hi], the ones they can reach; a chunk
    that reaches none yields nothing.  Each a event is searched once, for
    its first partner, the first b event at or past t_a + lo, and its
    pairs come rank by rank: piece k < _RANKS pairs each a event that has
    a (k + 1)-th partner with it, the b event k on from its first, read
    without a search.  Only an a event with more than _RANKS partners is
    searched again, for the last b event at or before t_a + hi, and the
    rest of its pairs follow in pieces of at most _CHUNK_PAIRS pairs, or
    one a event with more, b_idx ascending per a event.  So k a events
    past _RANKS partners cost O(N_a log N_b + k log N_b + pairs).
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
        a_idx = np.arange(start, start + len(ta))
        b_idx = np.searchsorted(tb, ta + lo_ps, side="left") + b_lo
        top = ta + hi_ps
        for rank in range(_RANKS + 1):
            # each candidate is gathered below b_hi: a sentinel past it
            # would fall inside a window whose ta + hi is the largest int64.
            # The hits' positions and a gather per array take a seventh of
            # the time of a boolean mask per array, whose branches mispredict
            hit = np.flatnonzero(
                (b_idx < b_hi) & (times_b.take(b_idx, mode="clip") <= top))
            if not len(hit):
                break
            a_idx, b_idx, top = a_idx.take(hit), b_idx.take(hit), top.take(hit)
            if rank < _RANKS:
                yield a_idx, b_idx
                b_idx = b_idx + 1
            else:
                yield from _expanded(a_idx, b_idx, np.searchsorted(
                    tb, top, side="right") + b_lo - b_idx)


def _expanded(a_idx: np.ndarray, first: np.ndarray, n: np.ndarray):
    """Yield the pairs (a_idx[i], first[i] + j), j < n[i], in pieces of at
    most _CHUNK_PAIRS pairs, or one a event with more."""
    ends = np.cumsum(n)
    before = ends - n
    i = 0
    while i < len(n):
        # the pair cap splits the a events only when their pairs exceed it
        j = len(n) if ends[-1] - before[i] <= _CHUNK_PAIRS else max(
            int(np.searchsorted(ends, before[i] + _CHUNK_PAIRS,
                                side="right")), i + 1)
        if ends[j - 1] > before[i]:
            yield (np.repeat(a_idx[i:j], n[i:j]),
                   np.repeat(first[i:j] - before[i:j], n[i:j])
                   + np.arange(before[i], ends[j - 1]))
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
    """Two channels of a stream or of a time shard: their event counts,
    the duration it owns and their :func:`delay_histogram` over some span."""

    n_a: int
    n_b: int
    duration_ps: int
    delays: DelayHistogram


def _fold_batches(blocks, ch_a: int, spans: dict[int, tuple[int, int]],
                  release, own_ps=(None, None)) -> tuple[dict[int, int], int]:
    """The block-edge rule of every fold over a stream's blocks
    (EventStreams that start in time order, a block perhaps reaching past
    the next block's start; see events.EventStream).

    spans maps each b channel to the delays [lo, hi] of its pairs.  An a
    event waits until a block starts past its reach, t_a + the largest hi,
    so that every b event it can reach has been seen; a b event is kept
    while a waiting or later a event can still reach it.  So each a event
    is released once with all its partners, wherever the block edges fall,
    even between equal times: release(first, a, kept) is called for each
    non-empty batch a of a events, first the fold's index of its first
    event and kept the b events it may reach, per channel of spans.
    The batch is dropped before the next block is drawn, and the fold
    holds about one block of each channel, copying events only when a
    block edge falls inside the span of a waiting or kept event, and
    sorting them only when a block reaches past the next block's start.

    own_ps = (t0, t1), None an open end, is the time shard the fold owns:
    only its a events in [t0, t1) are released, and only its events in
    [t0, t1) are counted, so folds of consecutive shards, each given the
    blocks that hold its reach [t0 + min(lo, 0), t1 + max(hi, 0)), lo and
    hi the extremes of spans, add up to the whole stream's.
    Returns the event count of each channel read and the duration the
    fold owns: the part of [t0, t1) in [0, the last block's end), an open
    end being that bound.  An empty sequence raises ValueError.
    """
    reach = max(hi for _, hi in spans.values())
    seen = dict.fromkeys([ch_a, *spans], 0)
    waiting = _EMPTY
    kept = [_EMPTY] * len(spans)
    first = 0
    block = None
    for block in blocks:
        owned = {c: _owned(block.channel_times(c), own_ps) for c in seen}
        for c in seen:
            seen[c] += len(owned[c])
        # a events whose every partner lies before this block
        ready = int(np.searchsorted(waiting, block.start_ps - reach))
        if ready:
            release(first, waiting[:ready], kept)
        first += ready
        waiting = _joined(waiting[ready:], owned[ch_a])
        floor = min(block.start_ps, int(waiting[0])) if len(waiting) \
            else block.start_ps
        kept = [_joined(k[np.searchsorted(k, floor + lo):],
                        block.channel_times(c))
                for k, (c, (lo, _)) in zip(kept, spans.items())]
    if block is None:
        raise ValueError("no blocks to fold: a stream has at least one")
    if len(waiting):
        release(first, waiting, kept)
    end = block.duration_ps
    t0, t1 = own_ps
    t0 = 0 if t0 is None else min(max(t0, 0), end)
    t1 = end if t1 is None else min(max(t1, 0), end)
    return seen, max(t1 - t0, 0)


def _owned(times: np.ndarray, own_ps) -> np.ndarray:
    """The sorted times in [t0, t1) of own_ps, None an open end."""
    t0, t1 = own_ps
    return times[0 if t0 is None else np.searchsorted(times, t0):
                 None if t1 is None else np.searchsorted(times, t1)]


def fold_delays(blocks, ch_a: int, ch_b: int, lo_ps: int, hi_ps: int,
                own_ps=(None, None)) -> PairFold:
    """:func:`delay_histogram` of two channels, folded over the blocks of a
    stream (EventStreams that start in time order; see events.EventStream).

    Each pair counts once, in the batch that :func:`_fold_batches` releases
    its a event in, so the histogram is the whole stream's wherever the
    block edges fall, and the fold holds about one block of each channel.
    own_ps limits the fold and its duration to one time shard of the
    stream, as _fold_batches says: PairFolds of consecutive shards add up.
    """
    counts = _delay_counts(lo_ps, hi_ps)
    seen, duration_ps = _fold_batches(
        blocks, ch_a, {ch_b: (lo_ps, hi_ps)},
        lambda _, a, kept: _add_delays(counts, a, kept[0], lo_ps, hi_ps),
        own_ps)
    return PairFold(seen[ch_a], seen[ch_b], duration_ps,
                    DelayHistogram(lo_ps, counts))


def peak_span(window_ps: float, lo_offset_ps: float,
              hi_offset_ps: float) -> tuple[int, int]:
    """Delays [lo, hi] that DelayHistogram.peak_ps reads, over [-4000,
    4000) ps, together with windows of window_ps centred from lo_offset_ps
    to hi_offset_ps off any peak it can find."""
    lo, hi = _CAL_LO_PS, _CAL_HI_PS
    return (min(lo, window_edges(lo + lo_offset_ps, window_ps)[0]),
            max(hi, window_edges(hi + hi_offset_ps, window_ps)[1]))


def two_fold_span(window_ps: float,
                  offset_max_ps: int = 50_000) -> tuple[int, int]:
    """Delays [lo, hi] that :func:`two_fold_metrics` folds: the calibration
    span and windows up to offset_max_ps off any peak inside it."""
    return peak_span(window_ps, -offset_max_ps, offset_max_ps)


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
                     n_offset_windows: int = 20,
                     offset_min_ps: int = 5_000,
                     offset_max_ps: int = 50_000) -> TwoFoldResult:
    """Coincidence metrics between signal channel 0 and idler channel 1.

    n12 counts delays inside a window of window_ps centred on the
    histogram's DelayHistogram.peak_ps; the accidental level is the mean
    over n_offset_windows same-width windows spread over [offset_min,
    offset_max] ps on both sides of the peak.  Zero-count denominators
    yield NaN metrics.

    stream is an EventStream, or its blocks in time order, which are folded
    over :func:`two_fold_span` (:func:`fold_delays`): the delay histograms
    add, each pair counted once in the block of its signal event, so the
    result is the whole stream's and no more than the fold's blocks are
    held.  It may also be a PairFold of the two channels already folded,
    whose histogram must cover that span; a window that reaches outside it
    raises ValueError.
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
            [stream] if isinstance(stream, EventStream) else stream, 0, 1,
            *two_fold_span(window_ps, offset_max_ps))
    n1, n2, delays = fold.n_a, fold.n_b, fold.delays
    duration_s = fold.duration_ps / 1e12
    if n1 == 0 or n2 == 0:
        return TwoFoldResult(n1=n1, n2=n2, n12=0, accidental_mean=math.nan,
                             peak_delay_ps=0, window_ps=window_ps,
                             duration_s=duration_s,
                             pgr_estimate_hz=math.nan, car=math.nan)
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
                         peak_delay_ps=peak_delay_ps,
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


def heralded_g2(stream, tau_grid_ps: np.ndarray, window_ps: int = 800,
                ch_idler: int = 1, ch_s1: int = 0,
                ch_s2: int = 2) -> dict[str, np.ndarray]:
    """Heralded second-order correlation across a delay grid.

    For each tau: g2(tau) = N_is1s2 * N_i / (N_is1 * N_is2), with s1 windows
    centred on the calibrated i->s1 peak and s2 windows offset by tau from
    the calibrated i->s2 peak.  Returns the curve and the raw counts; entries
    with an empty denominator are NaN.

    stream is an EventStream, or its blocks in time order, folded in one
    pass by :func:`fold_heralds` and counted by :func:`g2_curve`.
    """
    return g2_curve(tau_grid_ps, window_ps, fold_heralds(
        [stream] if isinstance(stream, EventStream) else stream, tau_grid_ps,
        window_ps, ch_idler, ch_s1, ch_s2))


@dataclass(frozen=True)
class HeraldFold:
    """:func:`fold_heralds` of a stream or of a time shard: the event counts
    of the herald and both signal channels, the i->s1 and i->s2 delay
    histograms over their whole spans, and the multiplets, one record
    (m, s1 heralds, s1 delays, s2 heralds, s2 delays) per fold of the pairs
    of its m heralds with two pairs or more, numbered 0 to m - 1, in herald
    order and by ascending delay within one.  Those of a stream's time
    shards add up (events.summed): the tuples of records join."""

    n_idler: int
    n_s1: int
    n_s2: int
    delays1: DelayHistogram
    delays2: DelayHistogram
    multiplets: tuple


def _herald_spans(tau: np.ndarray,
                  window_ps: float) -> tuple[tuple[int, int], ...]:
    """The delays [lo, hi] that the i->s1 and i->s2 folds gather."""
    return (peak_span(window_ps, 0, 0),
            peak_span(window_ps, *((tau.min(), tau.max()) if len(tau)
                                   else (0, 0))))


def heralded_g2_span(tau_grid_ps, window_ps: float) -> tuple[int, int]:
    """Delays [lo, hi] of every pair :func:`heralded_g2` gathers, over both
    signal channels, the span of a fold's reach (see _fold_batches)."""
    spans = _herald_spans(np.asarray(tau_grid_ps, dtype=float), window_ps)
    return min(lo for lo, _ in spans), max(hi for _, hi in spans)


def fold_heralds(blocks, tau_grid_ps, window_ps: int = 800,
                 ch_idler: int = 1, ch_s1: int = 0, ch_s2: int = 2,
                 own_ps=(None, None)) -> HeraldFold:
    """The fold of :func:`heralded_g2` over a stream's blocks, in time
    order, that :func:`g2_curve` counts.

    The blocks are folded in one pass (:func:`_fold_batches`, heralds as
    the a channel, own_ps the time shard it owns): each channel pair is
    gathered once per batch of heralds, over the calibration span and
    every window around any peak it can find, and its delays add into its
    histogram.  The batch's heralds with two pairs or more over both
    channels, found by one count of their pairs, keep their pairs; the
    others keep none, so the fold holds its histograms, those few pairs
    and about a block.
    """
    if len({ch_idler, ch_s1, ch_s2}) != 3:
        raise ValueError("ch_idler, ch_s1 and ch_s2 must be distinct")
    spans = dict(zip((ch_s1, ch_s2), _herald_spans(
        np.asarray(tau_grid_ps, dtype=float), window_ps)))
    counts = [np.zeros(hi - lo + 1, dtype=np.int64)
              for lo, hi in spans.values()]
    # per channel, the herald numbers and the delays of the multiplets'
    # pairs, batch by batch
    kept_pairs = [([], []) for _ in spans]
    n_multi = 0

    def release(_, heralds, kept):
        nonlocal n_multi
        pairs = [_herald_pairs(heralds, b, lo, hi)
                 for b, (lo, hi) in zip(kept, spans.values())]
        for c, (lo, _), (_, delays) in zip(counts, spans.values(), pairs):
            np.add.at(c, delays - lo, 1)
        multi = np.bincount(np.concatenate([a for a, _ in pairs]),
                            minlength=len(heralds)) > 1
        found = np.flatnonzero(multi)
        for (numbers, delays), (lo, hi), (a, d) in zip(
                kept_pairs, spans.values(), pairs):
            keep = multi[a]
            a, d = np.searchsorted(found, a[keep]) + n_multi, d[keep]
            # by herald, then by delay: a twentieth of np.lexsort's time
            order = np.argsort(a * (hi - lo + 1) + (d - lo), kind="stable")
            numbers.append(a[order])
            delays.append(d[order])
        n_multi += len(found)

    n, _ = _fold_batches(blocks, ch_idler, spans, release, own_ps)
    return HeraldFold(
        n[ch_idler], n[ch_s1], n[ch_s2],
        *(DelayHistogram(lo, c) for c, (lo, _) in zip(counts, spans.values())),
        ((n_multi, *(np.concatenate([_EMPTY] + part)
                     for pair in kept_pairs for part in pair)),))


def _herald_pairs(heralds: np.ndarray, times_s: np.ndarray, lo_ps: int,
                  hi_ps: int) -> tuple[np.ndarray, np.ndarray]:
    """(herald index, delay) of every pair with lo <= t_s - t_herald <= hi,
    in no order.  The s events are searched into the heralds, which
    outnumber each signal channel."""
    parts = list(coincidences(times_s, heralds, -hi_ps, -lo_ps))
    return (np.concatenate([_EMPTY] + [a for _, a in parts]),
            np.concatenate([_EMPTY] + [times_s[b] - heralds[a]
                                       for b, a in parts]))


def g2_curve(tau_grid_ps, window_ps: float,
             fold: HeraldFold) -> dict[str, np.ndarray]:
    """:func:`heralded_g2`'s result from the HeraldFold of a stream, or of
    its time shards added (events.summed), around the peaks of its
    histograms (DelayHistogram.peak_ps).

    A herald with one pair over both spans adds to n_is1 or n_is2 exactly
    as its pair adds to that window's total of the histogram, and makes no
    triple.  So the counts are the window totals without the multiplets'
    pairs, and the windows that each multiplet's herald hits
    (:func:`_windows_hit`).  A stream with an empty herald, s1 or s2
    channel counts nothing, as does an empty grid.
    """
    tau = np.asarray(tau_grid_ps, dtype=float)
    n_is1 = 0
    n_is2 = np.zeros(len(tau), dtype=np.int64)
    triples = np.zeros(len(tau), dtype=np.int64)
    if fold.n_idler and fold.n_s1 and fold.n_s2 and len(tau):
        peak1, peak2 = fold.delays1.peak_ps(), fold.delays2.peak_ps()
        lo, hi = window_edges(peak1, window_ps)
        for m, heralds1, delays1, heralds2, delays2 in fold.multiplets:
            has1 = np.zeros(m, dtype=bool)
            has1[heralds1[(delays1 >= lo) & (delays1 <= hi)]] = True
            n_is1 += int(has1.sum())
            hit, flagged = _windows_hit(heralds2, delays2, peak2 + tau,
                                        window_ps, has1)
            n_is2 += hit
            triples += flagged
        _, _, kept1, _, kept2 = zip(*fold.multiplets)
        n_is1 += int(_without(fold.delays1, kept1).totals([peak1],
                                                          window_ps)[0])
        n_is2 += _without(fold.delays2, kept2).totals(peak2 + tau, window_ps)
    g2 = np.full(len(tau), math.nan)
    ok = (n_is2 > 0) & (n_is1 > 0)
    g2[ok] = triples[ok] * fold.n_idler / (n_is1 * n_is2[ok])
    return {"tau_ps": tau, "g2": g2, "n_triples": triples,
            "n_idler": np.full(len(tau), fold.n_idler, dtype=np.int64),
            "n_is1": np.full(len(tau), n_is1, dtype=np.int64),
            "n_is2": n_is2}


def _without(delays: DelayHistogram, parts) -> DelayHistogram:
    """The histogram without the pairs of the delays in parts."""
    return DelayHistogram(delays.lo_ps, delays.counts - np.bincount(
        np.concatenate([_EMPTY, *parts]) - delays.lo_ps,
        minlength=len(delays.counts)))


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
