"""Bulk optical properties of congruent lithium niobate.

Dispersion follows a three-term Sellmeier form n^2 = 1 + sum_i b_i l^2/(l^2 - c_i)
with the wavelength l in micrometres.  The default coefficient sets are the
infrared-corrected values for congruent LiNbO3 (Zelmon et al., JOSA B 14, 3319,
1997), valid over roughly 0.4-5.0 um.  Alternative sets can be supplied through
:class:`SellmeierSet`.

For an X-cut disk the TE field lies in the crystal plane containing both the
ordinary and the extraordinary axes, so a TE whispering-gallery mode samples an
index that oscillates with the azimuthal angle; :func:`n_te_azimuthal` evaluates
the index ellipse and :func:`n_te_average` its azimuthal mean.  TM modes see the
ordinary index throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Zelmon 1997, congruent LiNbO3, wavelength in um.
SELLMEIER_O = (2.6734, 0.01764, 1.2290, 0.05914, 12.614, 474.60)
SELLMEIER_E = (2.9804, 0.02047, 0.5981, 0.0666, 8.9543, 416.08)
VALID_RANGE_UM = (0.4, 5.0)

# Nonlinear coefficients entering the in-plane effective nonlinearity of an
# X-cut disk, d_eff(theta) = d22 cos(theta) + d31 sin(theta), in pm/V.
D22_PM_PER_V = 2.1
D31_PM_PER_V = -4.35


class WavelengthRangeError(ValueError):
    """Wavelength outside the validity range of the dispersion model."""


@dataclass(frozen=True)
class SellmeierSet:
    """Three-term Sellmeier coefficients for both principal axes.

    Parameters
    ----------
    ordinary, extraordinary : tuple of 6 floats
        (b1, c1, b2, c2, b3, c3) per axis, wavelength in um.
    valid_range_um : (float, float)
        Inclusive wavelength validity window.
    """

    ordinary: tuple[float, ...] = SELLMEIER_O
    extraordinary: tuple[float, ...] = SELLMEIER_E
    valid_range_um: tuple[float, float] = VALID_RANGE_UM

    def __post_init__(self) -> None:
        for name, coeffs in (("ordinary", self.ordinary),
                             ("extraordinary", self.extraordinary)):
            if len(coeffs) != 6:
                raise ValueError(f"{name} coefficients must have 6 entries, "
                                 f"got {len(coeffs)}")
        lo, hi = self.valid_range_um
        if not 0 < lo < hi:
            raise ValueError(f"invalid wavelength range {self.valid_range_um}")


@dataclass(frozen=True)
class NonlinearTensor:
    """In-plane second-order coefficients of the X-cut geometry (pm/V)."""

    d22: float = D22_PM_PER_V
    d31: float = D31_PM_PER_V


DEFAULT_SELLMEIER = SellmeierSet()
DEFAULT_TENSOR = NonlinearTensor()


def _check_range(wavelength_um, model: SellmeierSet) -> None:
    lo, hi = model.valid_range_um
    w = np.asarray(wavelength_um, dtype=float)
    if np.any(w < lo) or np.any(w > hi):
        bad = w[(w < lo) | (w > hi)]
        raise WavelengthRangeError(
            f"wavelength {float(np.atleast_1d(bad)[0]):g} um outside model "
            f"range [{lo:g}, {hi:g}] um")


def refractive_index(wavelength_um, polarization: str,
                     model: SellmeierSet = DEFAULT_SELLMEIER):
    """Principal refractive index at a wavelength (um).

    Parameters
    ----------
    wavelength_um : float or array
    polarization : {"o", "e", "ordinary", "extraordinary"}
    model : SellmeierSet

    Returns
    -------
    float or ndarray
    """
    _check_range(wavelength_um, model)
    key = polarization.lower()
    if key in ("o", "ordinary"):
        coeffs = model.ordinary
    elif key in ("e", "extraordinary"):
        coeffs = model.extraordinary
    else:
        raise ValueError(f"unknown polarization {polarization!r}")
    l2 = np.square(np.asarray(wavelength_um, dtype=float))
    n2 = 1.0 + sum(b * l2 / (l2 - c)
                   for b, c in zip(coeffs[0::2], coeffs[1::2]))
    n = np.sqrt(n2)
    return float(n) if np.isscalar(wavelength_um) else n


def n_te_azimuthal(theta, wavelength_um,
                   model: SellmeierSet = DEFAULT_SELLMEIER):
    """TE index seen at azimuthal angle theta in an X-cut disk.

    Index ellipse between the ordinary axis (theta = 0) and the extraordinary
    axis (theta = pi/2):

        n_TE(theta) = 1 / sqrt(cos^2(theta)/n_o^2 + sin^2(theta)/n_e^2)

    The result is pi-periodic and bounded by [n_e, n_o].
    """
    no = refractive_index(wavelength_um, "o", model)
    ne = refractive_index(wavelength_um, "e", model)
    th = np.asarray(theta, dtype=float)
    inv2 = np.cos(th) ** 2 / no ** 2 + np.sin(th) ** 2 / ne ** 2
    n = 1.0 / np.sqrt(inv2)
    return float(n) if np.isscalar(theta) else n


_AVG_GRID = np.linspace(0.0, np.pi, 513)[:-1]  # one period, open endpoint


def n_te_average(wavelength_um, model: SellmeierSet = DEFAULT_SELLMEIER):
    """Azimuthal mean of the TE index (512-point periodic trapezoid)."""
    w = np.atleast_1d(np.asarray(wavelength_um, dtype=float))
    n = n_te_azimuthal(_AVG_GRID[:, None], w[None, :], model).mean(axis=0)
    return float(n[0]) if np.isscalar(wavelength_um) else n


def d_eff(theta, tensor: NonlinearTensor = DEFAULT_TENSOR):
    """Effective in-plane nonlinearity d22 cos(theta) + d31 sin(theta), pm/V."""
    th = np.asarray(theta, dtype=float)
    d = tensor.d22 * np.cos(th) + tensor.d31 * np.sin(th)
    return float(d) if np.isscalar(theta) else d


def d_eff_fourier(tensor: NonlinearTensor = DEFAULT_TENSOR) -> dict[int, complex]:
    """Exponential-basis Fourier coefficients of d_eff.

    d_eff(theta) = c[+1] e^{i theta} + c[-1] e^{-i theta} with
    c[+-1] = (d22 -+ i d31)/2; all other harmonics vanish.
    """
    return {
        +1: complex(tensor.d22, -tensor.d31) / 2.0,
        -1: complex(tensor.d22, +tensor.d31) / 2.0,
    }


def group_index(wavelength_um, polarization: str,
                model: SellmeierSet = DEFAULT_SELLMEIER,
                step_um: float = 1e-3):
    """Group index n_g = n - lambda dn/dlambda via a central difference.

    polarization may be "o"/"e" or "te_average" for the azimuthally averaged
    TE index.  The default step is 1 nm.
    """
    if polarization == "te_average":
        f = lambda w: n_te_average(w, model)  # noqa: E731
    else:
        f = lambda w: refractive_index(w, polarization, model)  # noqa: E731
    scalar = np.isscalar(wavelength_um)
    w = float(wavelength_um) if scalar else np.asarray(wavelength_um,
                                                       dtype=float)
    dn = (f(w + step_um) - f(w - step_um)) / (2.0 * step_um)
    ng = f(w) - w * dn
    return float(ng) if scalar else ng
