"""Triple-resonance phase matching around the disk.

A pump mode m_p converts into signal/idler modes (m_s, m_i) when energy and
angular momentum close.  Energy closure is judged against the mode linewidth
(delta_f = f_s + f_i - f_p).  Angular-momentum closure is never exact because
the in-plane nonlinearity of the X-cut crystal carries only first-order
azimuthal harmonics, d_eff = c_{+1} e^{i theta} + c_{-1} e^{-i theta}; those
harmonics, together with the birefringent oscillation of the TE index,
compensate an integer mismatch delta_m = m_s + m_i - m_p.

The compensation is evaluated by accumulating the conversion amplitude along
the rim,

    amplitude(theta) = A * d_eff(theta) * exp(i Phi(theta)),
    Phi(theta) = delta_m * theta + R * integral_0^theta (dk(t) - <dk>) dt,

where dk is the momentum mismatch built from the theta-resolved modal indices.
The mean winding is pinned to the integer delta_m (the azimuthal average of
delta_k * R equals delta_m by the resonance identity), so a constant shift of
all three indices only rephases the trace globally.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .material import SellmeierSet, DEFAULT_SELLMEIER, NonlinearTensor, \
    DEFAULT_TENSOR, d_eff
from .resonator import DiskGeometry, ResonatorMode, effective_index, \
    effective_index_azimuthal

HBAR_J_S = 1.054571817e-34
EPS0_F_M = 8.8541878128e-12
C_M_S = 299792458.0


class GridResolutionError(ValueError):
    """Integration grid too coarse for the fastest azimuthal harmonic."""


@dataclass(frozen=True)
class Triple:
    """A canonically ordered (signal.wavelength <= idler.wavelength) triple."""

    pump: ResonatorMode
    signal: ResonatorMode
    idler: ResonatorMode
    delta_m: int
    delta_f_ghz: float

    @classmethod
    def build(cls, pump: ResonatorMode, signal: ResonatorMode,
              idler: ResonatorMode) -> "Triple":
        if signal.wavelength_nm > idler.wavelength_nm:
            signal, idler = idler, signal
        delta_m = signal.m + idler.m - pump.m
        delta_f = (signal.frequency_ghz + idler.frequency_ghz
                   - pump.frequency_ghz)
        return cls(pump=pump, signal=signal, idler=idler,
                   delta_m=delta_m, delta_f_ghz=delta_f)

    def member_with_polarization(self, polarization: str) -> ResonatorMode:
        """The signal or idler member with the given polarization.

        Falls back to the canonical signal when neither (or both) match.
        """
        s_pol = self.signal.family.polarization
        i_pol = self.idler.family.polarization
        if i_pol == polarization and s_pol != polarization:
            return self.idler
        return self.signal


@dataclass(frozen=True)
class AmplitudePrefactor:
    """Scalar factors multiplying the accumulated amplitude.

    overlap is the transverse mode-overlap factor A in [0, 1] (1 for a
    fundamental-family triple, around 0.3 when higher radial orders are
    involved).  When include_quantization is set, the per-photon field
    quantization factors sqrt(hbar w / (4 pi eps0 c n)) for the three modes
    are multiplied in.
    """

    overlap: float = 1.0
    include_quantization: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.overlap <= 1.0:
            raise ValueError("overlap must lie in [0, 1]")

    def scale(self, triple: Triple,
              model: SellmeierSet = DEFAULT_SELLMEIER) -> float:
        value = self.overlap
        if self.include_quantization:
            for mode in (triple.pump, triple.signal, triple.idler):
                n = effective_index(mode.family, mode.wavelength_nm, model)
                value *= quantization_prefactor(mode.wavelength_nm, n)
        return value


@dataclass(frozen=True)
class IntensityTrace:
    """Accumulated amplitude and intensity along the rim."""

    theta: np.ndarray
    amplitude: np.ndarray
    intensity: np.ndarray
    n_turns: int
    delta_m: int

    def turn_final_intensity(self, turn: int) -> float:
        """Intensity at theta = 2 pi * turn."""
        if not 1 <= turn <= self.n_turns:
            raise ValueError(f"turn must be in [1, {self.n_turns}]")
        per_turn = (len(self.theta) - 1) // self.n_turns
        return float(self.intensity[per_turn * turn])

    def turn_max_intensity(self, turn: int) -> float:
        """Peak intensity within a single turn."""
        if not 1 <= turn <= self.n_turns:
            raise ValueError(f"turn must be in [1, {self.n_turns}]")
        per_turn = (len(self.theta) - 1) // self.n_turns
        seg = self.intensity[per_turn * (turn - 1): per_turn * turn + 1]
        return float(seg.max())


def quantization_prefactor(wavelength_nm: float, n: float) -> float:
    """Per-photon field factor sqrt(hbar w / (4 pi eps0 c n)) in SI units."""
    omega = 2.0 * np.pi * C_M_S / (wavelength_nm * 1e-9)
    return float(np.sqrt(HBAR_J_S * omega / (4.0 * np.pi * EPS0_F_M * C_M_S * n)))


def enumerate_triples(pump: ResonatorMode,
                      signal_comb: list[ResonatorMode],
                      idler_comb: list[ResonatorMode],
                      energy_tol_ghz: float = 1.0) -> list[Triple]:
    """All energy-conserving triples within a frequency tolerance.

    Returns canonically ordered triples sorted by |delta_f|, symmetric
    duplicates removed.
    """
    if energy_tol_ghz < 0:
        raise ValueError("energy_tol_ghz must be >= 0")
    idler_sorted = sorted(idler_comb, key=lambda md: md.frequency_ghz)
    f_idler = np.array([md.frequency_ghz for md in idler_sorted])
    triples: list[Triple] = []
    seen: set[tuple] = set()
    for s in signal_comb:
        f_need = pump.frequency_ghz - s.frequency_ghz
        lo = np.searchsorted(f_idler, f_need - energy_tol_ghz, side="left")
        hi = np.searchsorted(f_idler, f_need + energy_tol_ghz, side="right")
        for i in idler_sorted[lo:hi]:
            t = Triple.build(pump, s, i)
            if abs(t.delta_f_ghz) > energy_tol_ghz:
                continue
            key = frozenset(((t.signal.family.family_id, t.signal.m),
                             (t.idler.family.family_id, t.idler.m)))
            if key in seen:
                continue
            seen.add(key)
            triples.append(t)
    triples.sort(key=lambda t: abs(t.delta_f_ghz))
    return triples


def delta_k(theta, triple: Triple,
            model: SellmeierSet = DEFAULT_SELLMEIER):
    """Momentum mismatch k_s + k_i - k_p at azimuthal angle theta, rad/um."""
    th = np.asarray(theta, dtype=float)
    total = np.zeros_like(th)
    for mode, sign in ((triple.signal, +1.0), (triple.idler, +1.0),
                       (triple.pump, -1.0)):
        w_um = mode.wavelength_nm * 1e-3
        n = effective_index_azimuthal(mode.family, th, mode.wavelength_nm,
                                      model)
        total = total + sign * 2.0 * np.pi * n / w_um
    return float(total) if np.isscalar(theta) else total


def cumulative_trapezoid(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Running trapezoid integral of y over x from 0, in scipy's own
    expression, so it equals scipy.integrate.cumulative_trapezoid(y, x,
    initial=0) bit for bit."""
    steps = np.cumsum(np.diff(x) * (y[1:] + y[:-1]) / 2.0)
    return np.concatenate([np.zeros(1, dtype=steps.dtype), steps])


def accumulate_intensity(triple: Triple,
                         prefactor: AmplitudePrefactor = AmplitudePrefactor(),
                         grid_points: int = 4096,
                         n_turns: int = 1,
                         geometry: DiskGeometry = DiskGeometry(),
                         model: SellmeierSet = DEFAULT_SELLMEIER,
                         tensor: NonlinearTensor = DEFAULT_TENSOR,
                         drive=None) -> IntensityTrace:
    """Accumulate the conversion amplitude over n_turns trips around the rim.

    grid_points is the azimuthal resolution per turn; at least 8 points per
    fastest Fourier period of the integrand are required.  `drive` replaces
    the angle-dependent nonlinear coefficient when given; it is called with
    the theta grid and must return an array of the same shape.  Useful for
    probing the integrator with a flat drive, where the amplitude of a
    mismatch-free triple must grow linearly with theta.
    """
    if not 1 <= n_turns <= 10:
        raise ValueError("n_turns must lie in [1, 10]")
    # fastest harmonic: delta_m winding + first d_eff harmonic + index
    # oscillation at 2 theta
    fastest = abs(triple.delta_m) + 3
    if grid_points < 8 * fastest:
        raise GridResolutionError(
            f"grid_points={grid_points} resolves fewer than 8 points per "
            f"fastest period (need >= {8 * fastest})")
    th = np.linspace(0.0, 2.0 * np.pi * n_turns, grid_points * n_turns + 1)
    dk = delta_k(th, triple, model)
    dk_mean = np.trapezoid(dk, th) / th[-1]
    phi = (triple.delta_m * th
           + geometry.radius_um * cumulative_trapezoid(dk - dk_mean, th))
    scale = prefactor.scale(triple, model)
    coeff = d_eff(th, tensor) if drive is None else np.asarray(drive(th))
    integrand = scale * coeff * np.exp(1j * phi)
    amp = cumulative_trapezoid(integrand, th)
    intensity = np.abs(amp) ** 2
    return IntensityTrace(theta=th, amplitude=amp, intensity=intensity,
                          n_turns=n_turns, delta_m=triple.delta_m)


def is_persistent(trace: IntensityTrace, floor: float = 1e-9) -> bool:
    """Whether the accumulated intensity keeps its quadratic turn scaling.

    A trace is persistent when the final intensity after N turns reaches at
    least 0.8 * N^2 times the single-turn final intensity, and that
    single-turn final is a genuine feature of the trace rather than numerical
    residue (at least `floor` times the single-turn peak).
    """
    first = trace.turn_final_intensity(1)
    peak = trace.turn_max_intensity(1)
    if peak == 0.0 or first < floor * peak:
        return False
    last = trace.turn_final_intensity(trace.n_turns)
    return last >= 0.8 * trace.n_turns ** 2 * first


def matching_window(triple: Triple, linewidth_ghz: float = 0.3,
                    window_fraction: float = 0.5) -> bool:
    """Energy-closure test |delta_f| <= window_fraction * linewidth."""
    if linewidth_ghz <= 0:
        raise ValueError("linewidth_ghz must be positive")
    if window_fraction <= 0:
        raise ValueError("window_fraction must be positive")
    return abs(triple.delta_f_ghz) <= window_fraction * linewidth_ghz


def lorentzian_weight(delta_f_ghz: float, linewidth_ghz: float) -> float:
    """Resonant enhancement 1 / (1 + (2 delta_f / linewidth)^2)."""
    x = 2.0 * delta_f_ghz / linewidth_ghz
    return 1.0 / (1.0 + x * x)


@dataclass(frozen=True)
class FamilyPair:
    """A signal/idler comb pairing with its transverse overlap factor."""

    signal_comb: list[ResonatorMode]
    idler_comb: list[ResonatorMode]
    overlap: float = 1.0


@dataclass(frozen=True)
class ScanEntry:
    """One matched triple of a band scan with its relative strength."""

    triple: Triple
    signal_nm: float
    idler_nm: float
    delta_m: int
    delta_f_ghz: float
    strength: float


def bandwidth_scan(pump: ResonatorMode, pairs: list[FamilyPair],
                   band_nm: tuple[float, float],
                   linewidth_ghz: float = 0.3,
                   window_fraction: float = 0.5,
                   grid_points: int = 4096,
                   geometry: DiskGeometry = DiskGeometry(),
                   model: SellmeierSet = DEFAULT_SELLMEIER,
                   tensor: NonlinearTensor = DEFAULT_TENSOR,
                   extra_detuning_ghz=None) -> list[ScanEntry]:
    """Matched triples across a band with single-turn relative strengths.

    Strength is overlap^2 * |single-turn amplitude|^2 * Lorentzian(delta_f),
    normalized so the strongest entry is 1.  extra_detuning_ghz, when given,
    is called with a triple and returns additional detuning added to
    |delta_f| before the window test and the Lorentzian (used to model
    dispersion walk-off ramps).
    """
    lo, hi = band_nm
    window = window_fraction * linewidth_ghz
    entries = []
    for pair in pairs:
        triples = enumerate_triples(pump, pair.signal_comb, pair.idler_comb,
                                    energy_tol_ghz=window)
        prefactor = AmplitudePrefactor(overlap=pair.overlap)
        for t in triples:
            detuned = abs(t.delta_f_ghz)
            if extra_detuning_ghz is not None:
                detuned += abs(extra_detuning_ghz(t))
            if detuned > window:
                continue
            if not (lo <= t.signal.wavelength_nm <= hi
                    or lo <= t.idler.wavelength_nm <= hi):
                continue
            trace = accumulate_intensity(t, prefactor,
                                         grid_points=grid_points,
                                         geometry=geometry, model=model,
                                         tensor=tensor)
            strength = (trace.turn_final_intensity(1)
                        * lorentzian_weight(detuned, linewidth_ghz))
            entries.append(ScanEntry(
                triple=t, signal_nm=t.signal.wavelength_nm,
                idler_nm=t.idler.wavelength_nm, delta_m=t.delta_m,
                delta_f_ghz=t.delta_f_ghz, strength=strength))
    if entries:
        top = max(e.strength for e in entries)
        if top > 0:
            entries = [replace(e, strength=e.strength / top)
                       for e in entries]
    entries.sort(key=lambda e: e.signal_nm)
    return entries
