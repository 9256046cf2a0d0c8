"""Whispering-gallery mode combs of a thin microdisk.

A mode with azimuthal number m resonates where the optical path closes on
itself, n_eff(lambda) * 2 pi R = m * lambda.  Bulk dispersion comes from
:mod:`diskspdc.material`; per-family deviations of the guided mode from the
bulk index are absorbed into a constant offset plus a linear slope in
wavelength.  The slope is the calibration knob for the free spectral range
(equivalently the group index), the offset pins an anchor resonance to a
measured wavelength without disturbing the FSR.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import material
from .material import SellmeierSet, DEFAULT_SELLMEIER

C_NM_GHZ = 299792458.0  # speed of light in nm*GHz


class CalibrationError(RuntimeError):
    """Requested calibration target cannot be bracketed."""


@dataclass(frozen=True)
class DiskGeometry:
    """Disk radius and thickness in micrometres."""

    radius_um: float = 46.5
    thickness_um: float = 0.9

    def __post_init__(self) -> None:
        if self.radius_um <= 0:
            raise ValueError("radius_um must be positive")
        if self.thickness_um <= 0:
            raise ValueError("thickness_um must be positive")

    @property
    def circumference_um(self) -> float:
        return 2.0 * np.pi * self.radius_um


@dataclass(frozen=True)
class ModeFamily:
    """One transverse mode family of the disk.

    index_offset and index_slope_per_um correct the bulk index:

        n_eff(lambda) = n_bulk(lambda) + index_offset
                        + index_slope_per_um * (lambda - ref_wavelength_um)

    azimuthal_contrast scales the azimuthal oscillation of the TE index
    around its mean, modelling how strongly the guided mode samples the
    birefringence of the crystal plane (1 = full bulk contrast).
    """

    family_id: str
    polarization: str  # "TE" or "TM"
    radial_number: int = 0
    q_loaded: float = 1e5
    index_offset: float = 0.0
    index_slope_per_um: float = 0.0
    ref_wavelength_um: float = 1.55
    azimuthal_contrast: float = 1.0

    def __post_init__(self) -> None:
        if self.polarization not in ("TE", "TM"):
            raise ValueError(f"polarization must be TE or TM, "
                             f"got {self.polarization!r}")
        if self.radial_number < 0:
            raise ValueError("radial_number must be >= 0")
        if self.q_loaded <= 0:
            raise ValueError("q_loaded must be positive")
        if not 0.0 <= self.azimuthal_contrast <= 1.0:
            raise ValueError("azimuthal_contrast must lie in [0, 1]")


@dataclass(frozen=True)
class ResonatorMode:
    """A single resonance of one family."""

    family: ModeFamily
    m: int
    wavelength_nm: float

    @property
    def frequency_ghz(self) -> float:
        return C_NM_GHZ / self.wavelength_nm

    @property
    def linewidth_ghz(self) -> float:
        return self.frequency_ghz / self.family.q_loaded


def _bulk_index(family: ModeFamily, wavelength_um,
                model: SellmeierSet) -> np.ndarray | float:
    if family.polarization == "TM":
        return material.refractive_index(wavelength_um, "o", model)
    return material.n_te_average(wavelength_um, model)


def effective_index(family: ModeFamily, wavelength_nm,
                    model: SellmeierSet = DEFAULT_SELLMEIER):
    """Corrected azimuthally-averaged modal index at a wavelength in nm."""
    w_um = np.asarray(wavelength_nm, dtype=float) * 1e-3
    n = (_bulk_index(family, w_um, model) + family.index_offset
         + family.index_slope_per_um * (w_um - family.ref_wavelength_um))
    return float(n) if np.isscalar(wavelength_nm) else n


def effective_index_azimuthal(family: ModeFamily, theta, wavelength_nm,
                              model: SellmeierSet = DEFAULT_SELLMEIER):
    """Theta-resolved modal index; oscillates only for TE families."""
    n_avg = effective_index(family, wavelength_nm, model)
    if family.polarization == "TM":
        return n_avg + np.zeros_like(np.asarray(theta, dtype=float))
    w_um = np.asarray(wavelength_nm, dtype=float) * 1e-3
    osc = (material.n_te_azimuthal(theta, w_um, model)
           - material.n_te_average(w_um, model))
    return n_avg + family.azimuthal_contrast * osc


def group_index(family: ModeFamily, wavelength_nm,
                model: SellmeierSet = DEFAULT_SELLMEIER,
                step_nm: float = 1.0):
    """Group index of the corrected modal dispersion, central difference."""
    w = np.asarray(wavelength_nm, dtype=float)
    h = step_nm
    n = effective_index(family, w, model)
    dn = (effective_index(family, w + h, model)
          - effective_index(family, w - h, model)) / (2.0 * h)
    ng = n - w * dn
    return float(ng) if np.isscalar(wavelength_nm) else ng


def _phase_residual(family: ModeFamily, geometry: DiskGeometry, m: int,
                    wavelength_nm: float, model: SellmeierSet) -> float:
    # zero where n_eff(lambda) * L = m * lambda (lengths in nm)
    length_nm = geometry.circumference_um * 1e3
    return effective_index(family, wavelength_nm, model) * length_nm \
        - m * wavelength_nm


def brentq(f, xa: float, xb: float, xtol: float, rtol: float,
           maxiter: int = 100) -> float:
    """Root of f inside the bracket [xa, xb] by Brent's method.

    R. P. Brent, Algorithms for Minimization without Derivatives (1973),
    ch. 4, step for step as scipy.optimize.brentq runs it, so both return
    the same root bit for bit: inverse quadratic or secant steps while they
    shrink the bracket fast enough, bisection otherwise, until half the
    bracket is below delta = (xtol + rtol * |x|) / 2.
    """
    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = float(f(xpre)), float(f(xcur))
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 \
                and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) \
                    / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = float(f(xcur))
    raise CalibrationError(f"root search did not converge after {maxiter} "
                           f"iterations, last x = {xcur!r}")


def resonance_comb(family: ModeFamily, geometry: DiskGeometry,
                   band_nm: tuple[float, float],
                   model: SellmeierSet = DEFAULT_SELLMEIER,
                   rel_tol: float = 1e-9) -> list[ResonatorMode]:
    """All resonances of a family inside a wavelength band.

    Returns modes sorted by wavelength with consecutive decreasing m.  Each
    wavelength is refined until the resonance identity holds to rel_tol.
    """
    lo, hi = band_nm
    if not 0 < lo < hi:
        raise ValueError(f"invalid band {band_nm}")
    length_nm = geometry.circumference_um * 1e3
    m_hi = int(np.floor(effective_index(family, lo, model) * length_nm / lo))
    m_lo = int(np.ceil(effective_index(family, hi, model) * length_nm / hi))
    modes = []
    for m in range(m_lo, m_hi + 1):
        f_lo = _phase_residual(family, geometry, m, lo, model)
        f_hi = _phase_residual(family, geometry, m, hi, model)
        if f_lo == 0.0:
            w = lo
        elif f_hi == 0.0:
            w = hi
        elif f_lo * f_hi > 0:
            continue  # resonance sits outside the band
        else:
            w = brentq(lambda x: _phase_residual(family, geometry, m, x, model),
                       lo, hi, xtol=lo * rel_tol, rtol=1e-15)
        modes.append(ResonatorMode(family=family, m=m, wavelength_nm=float(w)))
    modes.sort(key=lambda md: md.wavelength_nm)
    return modes


def fsr(family: ModeFamily, geometry: DiskGeometry, wavelength_nm: float,
        model: SellmeierSet = DEFAULT_SELLMEIER) -> float:
    """Local free spectral range in nm, lambda^2 / (2 pi R n_g)."""
    ng = group_index(family, wavelength_nm, model)
    length_nm = geometry.circumference_um * 1e3
    return wavelength_nm ** 2 / (length_nm * ng)


def fsr_ghz(family: ModeFamily, geometry: DiskGeometry, wavelength_nm: float,
            model: SellmeierSet = DEFAULT_SELLMEIER) -> float:
    """Local free spectral range in GHz, c / (2 pi R n_g)."""
    ng = group_index(family, wavelength_nm, model)
    return C_NM_GHZ / (geometry.circumference_um * 1e3 * ng)


def calibrate_family(family: ModeFamily, geometry: DiskGeometry,
                     target_fsr_nm: float, wavelength_nm: float,
                     model: SellmeierSet = DEFAULT_SELLMEIER) -> ModeFamily:
    """Set the index slope so the local FSR matches a target.

    The linear correction changes the group index by exactly
    -slope * ref_wavelength_um (the central difference of a linear term is
    exact), so the required slope follows in closed form.  The slope term
    vanishes at ref_wavelength_um, so a previously anchored resonance at
    that wavelength is preserved.
    """
    if target_fsr_nm <= 0:
        raise ValueError("target_fsr_nm must be positive")
    ref_um = family.ref_wavelength_um
    if ref_um <= 0:
        raise CalibrationError("ref_wavelength_um must be positive")
    length_nm = geometry.circumference_um * 1e3
    ng_target = wavelength_nm ** 2 / (length_nm * target_fsr_nm)
    ng_zero = group_index(replace(family, index_slope_per_um=0.0),
                          wavelength_nm, model)
    if ng_target <= 0:
        raise CalibrationError(
            f"target FSR {target_fsr_nm:g} nm implies a non-positive "
            "group index")
    return replace(family, index_slope_per_um=(ng_zero - ng_target) / ref_um)


def anchor_family(family: ModeFamily, geometry: DiskGeometry,
                  anchor_wavelength_nm: float, anchor_m: int,
                  model: SellmeierSet = DEFAULT_SELLMEIER) -> ModeFamily:
    """Choose the index offset so mode anchor_m resonates exactly at the anchor.

    Also moves ref_wavelength_um to the anchor so a later FSR calibration
    (slope change) leaves the anchored resonance in place.
    """
    w_um = anchor_wavelength_nm * 1e-3
    length_nm = geometry.circumference_um * 1e3
    needed = anchor_m * anchor_wavelength_nm / length_nm
    bulk = _bulk_index(family, w_um, model)
    return replace(family, index_offset=float(needed - bulk),
                   ref_wavelength_um=w_um)
