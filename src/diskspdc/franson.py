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
franson's stream is routed where it is drawn: a source whose
interferometer is set routes each block's events from the block's own
generator (events.UmiConfig, re-exported here), so its blocks are disjoint
and fold like any other stream's.  :func:`apply_umi` routes a stream after
generation by the same rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .events import EventStream, UmiConfig
from .tcspc import DelayHistogram, peak_span


class FitError(RuntimeError):
    """Fringe fit could not be performed."""


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
    """Route every event of a stream or block through the interferometer
    after generation, by the rule generation routes with (UmiConfig.route),
    from PCG64(seed).

    The routed times are re-sorted.  The duration grows by the arm delay
    so late long-arm events stay inside the acquisition window; start_ps
    and truth are the input's.
    """
    times = {c: stream.times[c].copy() for c in sorted(stream.times)}
    config.route(times, np.random.Generator(np.random.PCG64(seed)))
    for t in times.values():
        # only events closer than the arm delay can swap, so the input is
        # nearly sorted
        t.sort(kind="stable")
    return EventStream(times, stream.duration_ps + config.arm_delay_ps,
                       truth=stream.truth, start_ps=stream.start_ps)


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


def peak_areas_span(config: UmiConfig) -> tuple[int, int]:
    """Delays [lo, hi] that :func:`peak_areas` reads."""
    return peak_span(config.postselect_window_ps, -config.arm_delay_ps,
                     config.arm_delay_ps)


def peak_areas(delays: DelayHistogram,
               config: UmiConfig) -> tuple[int, int, int]:
    """Coincidence counts in the three windows at peak - D, peak, peak + D,
    peak the one calibrated peak of every analysis, DelayHistogram.peak_ps.

    delays is the channel pair's delay histogram, which must cover
    :func:`peak_areas_span`.
    """
    peak_ps = delays.peak_ps()
    centers = [peak_ps + k * config.arm_delay_ps for k in (-1, 0, +1)]
    return tuple(int(n) for n in delays.totals(
        centers, config.postselect_window_ps))
