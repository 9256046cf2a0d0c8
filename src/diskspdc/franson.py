"""Unbalanced Michelson interferometers on pair streams.

Each photon of a pair enters its own interferometer with a short and a long
arm separated by arm_delay; both interferometers share the phase setting.
Routing is sampled per photon, which reproduces the three-peak coincidence
structure (short-short and long-long overlap in the central peak, the
cross terms sit at +-arm_delay).  The phase-dependent fringes on the
post-selected central peak are evaluated at expectation level: the
post-selected state (|SS> + e^{2 i xi} |LL>)/sqrt(2) interferes with the
summed phase of the two photons, so quantum fringes run as cos(2 xi) while
a classical field through the same interferometer fringes as cos(xi).
A stream is routed block by block as it is drawn (:func:`routed_blocks`),
so its routed blocks fold like any other stream's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .events import EventStream
from .tcspc import DelayHistogram, coincidences, peak_span, window_edges


class FitError(RuntimeError):
    """Fringe fit could not be performed."""


@dataclass(frozen=True)
class UmiConfig:
    """Interferometer settings shared by the signal and idler arms."""

    arm_delay_ns: float = 1.6
    arm_transmissions: tuple[float, float] = (0.5, 0.5)
    postselect_window_ps: int = 800

    def __post_init__(self) -> None:
        if self.arm_delay_ns < 0:
            raise ValueError("arm_delay_ns must be >= 0")
        t_s, t_l = self.arm_transmissions
        if not (0 <= t_s <= 1 and 0 <= t_l <= 1):
            raise ValueError("arm transmissions must lie in [0, 1]")
        if t_s + t_l <= 0:
            raise ValueError("at least one arm must transmit")
        if self.postselect_window_ps <= 0:
            raise ValueError("postselect_window_ps must be positive")


@dataclass(frozen=True)
class FransonResult:
    """Least-squares fringe fit a + b cos(harmonic * xi + phi0)."""

    visibility: float
    visibility_sigma: float
    offset: float
    amplitude: float
    phase: float
    harmonic: int
    residual_rms: float


def apply_umi(stream: EventStream, config: UmiConfig,
              seed: int | np.random.SeedSequence) -> EventStream:
    """Route every event of a stream or block through the interferometer.

    Short keeps the timestamp, long adds the arm delay; the routing
    probability of the short arm is t_S / (t_S + t_L).  The returned stream
    carries tags (0 short, 1 long) for diagnostics; tags are not
    serialized.  The duration grows by the arm delay so late long-arm events
    stay inside the acquisition window; start_ps and truth are the input's.
    """
    delay_ps = int(round(config.arm_delay_ns * 1e3))
    t_s, t_l = config.arm_transmissions
    p_short = t_s / (t_s + t_l)
    rng = np.random.Generator(np.random.PCG64(seed))
    times, tags = {}, {}
    for channel in sorted(stream.times):
        t = stream.times[channel]
        long_routed = rng.random(len(t)) >= p_short
        short = t[~long_routed]
        routed = np.concatenate([short, t[long_routed] + delay_ps])
        # both parts are sorted, so the stable sort is one merge
        order = np.argsort(routed, kind="stable")
        times[channel] = routed[order]
        tags[channel] = (order >= len(short)).astype(np.uint8)
    return EventStream(times, stream.duration_ps + delay_ps, tags=tags,
                       truth=stream.truth, start_ps=stream.start_ps)


def routed_blocks(blocks, config: UmiConfig, seed: int):
    """Yield the blocks of a stream, each ending where the next starts and
    holding the same channels (as event_blocks' do), routed by
    :func:`apply_umi`, block k with a generator spawned from (seed, k), and
    without route tags.  Routed events at or past a block's end are merged
    into the next block, and those past the last block make a tail block,
    so each holds [start_ps, duration_ps)."""
    rest = None
    for k, block in enumerate(blocks):
        routed = apply_umi(block, config,
                           np.random.SeedSequence(seed, spawn_key=(k,)))
        times = routed.times
        for c, t in (rest.times.items() if rest else ()):
            if len(t):  # rare: an arm delay is a sliver of a block
                times[c] = np.sort(np.concatenate([times[c], t]))
        cut = {c: np.searchsorted(t, block.duration_ps)
               for c, t in times.items()}
        yield EventStream({c: t[:cut[c]] for c, t in times.items()},
                          block.duration_ps, start_ps=block.start_ps)
        rest = EventStream({c: t[cut[c]:] for c, t in times.items()},
                           routed.duration_ps, start_ps=block.duration_ps)
    if rest is not None:
        yield rest


def quantum_fringe(xi_rad, visibility: float = 1.0, amplitude: float = 1.0,
                   background: float = 0.0,
                   rng: np.random.Generator | None = None):
    """Post-selected central-peak counts amplitude*(1+V cos 2xi)/2 + bg.

    With rng given, returns Poisson draws around the expectation.
    """
    return _fringe(xi_rad, visibility, amplitude, background, 2, rng)


def classical_fringe(xi_rad, visibility: float = 1.0, amplitude: float = 1.0,
                     background: float = 0.0,
                     rng: np.random.Generator | None = None):
    """Single-photon interference through the same device, period 2 pi."""
    return _fringe(xi_rad, visibility, amplitude, background, 1, rng)


def _fringe(xi_rad, visibility, amplitude, background, harmonic, rng):
    if not 0 <= visibility <= 1:
        raise ValueError("visibility must lie in [0, 1]")
    if amplitude < 0 or background < 0:
        raise ValueError("amplitude and background must be >= 0")
    xi = np.asarray(xi_rad, dtype=float)
    expectation = amplitude * (1.0 + visibility * np.cos(harmonic * xi)) / 2.0 \
        + background
    if rng is not None:
        expectation = rng.poisson(expectation).astype(float)
    return float(expectation) if np.isscalar(xi_rad) else expectation


def extract_visibility(xi_rad, counts, sigma=None,
                       harmonic: int = 2) -> FransonResult:
    """Fit counts(xi) = a + b cos(harmonic*xi + phi0), visibility = b/a.

    The model is linear in (a, b cos phi0, -b sin phi0), so the fit is an
    exact weighted least-squares solve; the visibility uncertainty comes
    from the parameter covariance.
    """
    xi = np.asarray(xi_rad, dtype=float)
    y = np.asarray(counts, dtype=float)
    if xi.shape != y.shape or xi.ndim != 1:
        raise FitError("xi and counts must be 1-D arrays of equal length")
    if len(xi) < 4:
        raise FitError(f"need at least 4 points, got {len(xi)}")
    if sigma is None:
        w = np.ones_like(y)
    else:
        w = 1.0 / np.square(np.asarray(sigma, dtype=float))
    design = np.column_stack([np.ones_like(xi), np.cos(harmonic * xi),
                              np.sin(harmonic * xi)])
    wd = design * w[:, None]
    normal = design.T @ wd
    rhs = wd.T @ y
    cond = np.linalg.cond(normal)
    if not np.isfinite(cond) or cond > 1e12:
        # e.g. every xi sits on a node lattice of the requested harmonic
        raise FitError(f"degenerate fringe design matrix "
                       f"(condition number {cond:.3g})")
    try:
        params = np.linalg.solve(normal, rhs)
        cov = np.linalg.inv(normal)
    except np.linalg.LinAlgError as err:
        raise FitError(f"degenerate fringe design matrix: {err}") from err
    a, p, q = params
    residuals = y - design @ params
    dof = max(len(xi) - 3, 1)
    chi2 = float(np.sum(w * residuals ** 2))
    if sigma is None:
        cov = cov * chi2 / dof  # scale by residual variance
    b = math.hypot(p, q)
    phi0 = math.atan2(-q, p)
    if a <= 0:
        raise FitError(f"non-positive fitted offset a={a:g}; "
                       f"residual rms {np.sqrt(chi2 / dof):g}")
    vis = b / a
    if b > 0:
        jac = np.array([-vis / a, p / (a * b), q / (a * b)])
    else:
        jac = np.array([0.0, 1.0 / a, 1.0 / a])
    vis_sigma = float(np.sqrt(jac @ cov @ jac))
    return FransonResult(visibility=float(vis), visibility_sigma=vis_sigma,
                         offset=float(a), amplitude=float(b),
                         phase=float(phi0), harmonic=harmonic,
                         residual_rms=float(np.sqrt(np.mean(residuals ** 2))))


def _calibration_span_ps(delay_ps: int) -> int:
    """Span of the 10-ps histogram that finds the central peak."""
    return max(8 * delay_ps, 8000)


def peak_areas_span(config: UmiConfig) -> tuple[int, int]:
    """Delays [lo, hi] that :func:`peak_areas` reads."""
    delay_ps = int(round(config.arm_delay_ns * 1e3))
    return peak_span(config.postselect_window_ps, -delay_ps, delay_ps,
                     calibration_span_ps=_calibration_span_ps(delay_ps))


def peak_areas(delays: DelayHistogram,
               config: UmiConfig) -> tuple[int, int, int]:
    """Coincidence counts in the three windows at peak - D, peak, peak + D,
    the peak calibrated over max(8 D, 8000) ps.

    delays is the channel pair's delay histogram, which must cover
    :func:`peak_areas_span`.
    """
    delay_ps = int(round(config.arm_delay_ns * 1e3))
    peak_ps = delays.peak_ps(_calibration_span_ps(delay_ps))
    centers = [peak_ps + k * delay_ps for k in (-1, 0, +1)]
    return tuple(int(n) for n in delays.totals(
        centers, config.postselect_window_ps))


def central_peak_is_same_path(stream: EventStream, config: UmiConfig,
                              peak_delay_ps: int = 0) -> bool:
    """Check that central-peak coincidences of signal channel 0 and idler
    channel 1 pair same-path photons only.

    Requires tags on the stream (as produced by apply_umi); used to
    validate that post-selecting the central peak keeps exactly the
    short-short and long-long amplitudes.
    """
    if stream.tags is None:
        raise ValueError("stream carries no route tags")
    tags_s, tags_i = stream.tags.get(0), stream.tags.get(1)
    edges = window_edges(peak_delay_ps, config.postselect_window_ps)
    return all(np.array_equal(tags_s[a_idx], tags_i[b_idx])
               for a_idx, b_idx in coincidences(
                   stream.channel_times(0), stream.channel_times(1), *edges))
