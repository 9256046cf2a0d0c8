"""Builds calibrated models from a RunConfig and runs the experiments.

Every run_* function returns (columns, rows, summary) where summary is a
list of human-readable lines.  All randomness flows from the master seed
through derive_seed, so a fixed config gives identical tables regardless
of machine or worker count.

The sweep's points, and the time shards of simulate, of coinc on a .ttps
file and of g2 (see events), run in forked worker processes, one per CPU
this process may run on at most (_mapped); one task, or one CPU, runs
inline.  Shards are exact pieces of the stream, so the file and the tables
are those of one pass whatever the number of CPUs.  g2's shards need both
calibration peaks of the whole stream before they count their windows:
each sends its event counts and the calibration span of its two delay
histograms, and is sent back the peaks, while the pairs it gathered stay
in its own process.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import traceback
from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .material import NonlinearTensor, SellmeierSet
from .resonator import (DiskGeometry, ModeFamily, ResonatorMode,
                        anchor_family, calibrate_family, fsr, resonance_comb)
from .matching import (AmplitudePrefactor, FamilyPair, Triple,
                       accumulate_intensity, bandwidth_scan,
                       enumerate_triples)
from .events import (SourceModel, block_shards, event_blocks, event_parts,
                     file_shards, read_blocks, shard_records, splittable,
                     write_events)
from .tcspc import (DelayHistogram, PairFold, dwdm_channel_index, dwdm_grid,
                    fold_delays, fold_heralds, g2_curve, herald_peaks,
                    heralded_g2_span, two_fold_metrics, two_fold_span)
from .franson import (UmiConfig, classical_fringe, extract_visibility,
                      peak_areas, peak_areas_span, quantum_fringe,
                      routed_blocks)


_MASK64 = (1 << 64) - 1


def derive_seed(master: int, index: int) -> int:
    """Stable per-task seed: one splitmix64 round over master XOR index."""
    z = (master ^ index) & _MASK64
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


@dataclass(frozen=True)
class System:
    """Calibrated device model built from a config."""

    geometry: DiskGeometry
    model: SellmeierSet
    tensor: NonlinearTensor
    families: dict
    pump: ResonatorMode
    comb_band_nm: tuple
    combs: dict
    pairs: tuple


def build_material(cfg: RunConfig):
    m = cfg.material
    model = SellmeierSet(ordinary=m.sellmeier_o,
                         extraordinary=m.sellmeier_e,
                         valid_range_um=(m.valid_lo_um, m.valid_hi_um))
    tensor = NonlinearTensor(d22=m.d22_pm_per_v, d31=m.d31_pm_per_v)
    return model, tensor


def build_family(fam_cfg, geometry: DiskGeometry,
                 model: SellmeierSet) -> ModeFamily:
    """Construct a mode family and run its anchor/FSR calibration."""
    fam = ModeFamily(family_id=fam_cfg.id,
                     polarization=fam_cfg.polarization,
                     radial_number=fam_cfg.radial_number,
                     q_loaded=fam_cfg.q_loaded,
                     index_offset=fam_cfg.index_offset,
                     index_slope_per_um=fam_cfg.index_slope_per_um,
                     ref_wavelength_um=fam_cfg.ref_wavelength_nm * 1e-3,
                     azimuthal_contrast=fam_cfg.azimuthal_contrast)
    if fam_cfg.anchor_wavelength_nm is not None:
        fam = anchor_family(fam, geometry, fam_cfg.anchor_wavelength_nm,
                            fam_cfg.anchor_m, model)
    if fam_cfg.target_fsr_nm is not None:
        fam = calibrate_family(fam, geometry, fam_cfg.target_fsr_nm,
                               fam_cfg.anchor_wavelength_nm, model)
    return fam


def build_system(cfg: RunConfig) -> System:
    model, tensor = build_material(cfg)
    geometry = DiskGeometry(radius_um=cfg.resonator.radius_um,
                            thickness_um=cfg.resonator.thickness_um)
    families = {f.id: build_family(f, geometry, model)
                for f in cfg.resonator.families}

    pump_cfg = next(f for f in cfg.resonator.families
                    if f.id == cfg.matching.pump_family)
    if pump_cfg.anchor_wavelength_nm is None:
        raise ValueError(
            f"pump family {pump_cfg.id!r} needs an anchor to define the "
            "pump resonance")
    pump = ResonatorMode(family=families[pump_cfg.id],
                         m=pump_cfg.anchor_m,
                         wavelength_nm=pump_cfg.anchor_wavelength_nm)

    grid = dwdm_grid(cfg.spectrum.band_lo_nm, cfg.spectrum.band_hi_nm,
                     cfg.spectrum.channel_width_nm)
    pad = cfg.matching.band_pad_nm
    comb_band = (grid[0][0] - pad, grid[-1][1] + pad)
    needed = {p.signal for p in cfg.matching.pairs}
    needed |= {p.idler for p in cfg.matching.pairs}
    combs = {fid: resonance_comb(families[fid], geometry, comb_band, model)
             for fid in sorted(needed)}
    pairs = tuple(FamilyPair(signal_comb=combs[p.signal],
                             idler_comb=combs[p.idler],
                             overlap=p.overlap)
                  for p in cfg.matching.pairs)
    return System(geometry=geometry, model=model, tensor=tensor,
                  families=families, pump=pump, comb_band_nm=comb_band,
                  combs=combs, pairs=pairs)


def _ramp_reference_nm(triple: Triple) -> float:
    """Wavelength the dispersion ramp is keyed on (the TE member)."""
    try:
        return triple.member_with_polarization("TE").wavelength_nm
    except ValueError:
        return max(triple.signal.wavelength_nm, triple.idler.wavelength_nm)


def dispersion_ramp(cfg: RunConfig):
    """Extra-detuning callable for bandwidth_scan, or None when disabled."""
    cutoff = cfg.matching.dispersion_cutoff_nm
    rate = cfg.matching.dispersion_ramp_ghz_per_nm
    if cutoff is None or rate == 0.0:
        return None

    def extra(triple: Triple) -> float:
        return rate * max(0.0, _ramp_reference_nm(triple) - cutoff)

    return extra


def run_scan(cfg: RunConfig, system: System | None = None):
    """Matched triples over the filter band with relative strengths."""
    sys_ = system or build_system(cfg)
    grid = dwdm_grid(cfg.spectrum.band_lo_nm, cfg.spectrum.band_hi_nm,
                     cfg.spectrum.channel_width_nm)
    band = (grid[0][0], grid[-1][1])
    entries = bandwidth_scan(sys_.pump, list(sys_.pairs), band,
                             linewidth_ghz=cfg.matching.linewidth_ghz,
                             window_fraction=cfg.matching.window_fraction,
                             grid_points=cfg.matching.grid_points,
                             geometry=sys_.geometry, model=sys_.model,
                             tensor=sys_.tensor,
                             extra_detuning_ghz=dispersion_ramp(cfg))
    return entries, grid, sys_


def scan_table(cfg: RunConfig):
    entries, grid, _ = run_scan(cfg)
    columns = ("signal_nm", "idler_nm", "delta_m", "delta_f_ghz", "channel",
               "strength")
    rows = []
    for e in entries:
        idx = dwdm_channel_index(_ramp_reference_nm(e.triple), grid)
        rows.append((e.signal_nm, e.idler_nm, e.delta_m, e.delta_f_ghz,
                     -1 if idx is None else idx, e.strength))
    summary = [f"matched triples: {len(rows)}"]
    return columns, rows, summary


def _capture_fraction(window_ps: float, lifetime_ps: float) -> float:
    """Fraction of exponential pair delays inside a peak-centred window."""
    return 1.0 - math.exp(-window_ps / (2.0 * lifetime_ps))


def build_source(cfg: RunConfig, pump_power_uw: float | None = None,
                 losses_db=None, saturation: bool = True,
                 signal_channels=(0,), idler_channels=(1,)) -> SourceModel:
    s = cfg.source
    return SourceModel(
        pump_power_uw=s.pump_power_uw if pump_power_uw is None
        else pump_power_uw,
        pgr_slope_mhz_per_uw=s.pgr_slope_mhz_per_uw,
        saturation_rate_mhz=s.saturation_rate_mhz if saturation else None,
        pair_lifetime_ps=s.pair_lifetime_ps,
        signal_losses_db=tuple(s.signal_losses_db if losses_db is None
                               else losses_db),
        idler_losses_db=tuple(s.idler_losses_db if losses_db is None
                              else losses_db),
        detector_efficiency=s.detector_efficiency,
        dark_rate_hz=s.dark_rate_hz,
        jitter_sigma_ps=s.jitter_sigma_ps,
        min_pair_spacing_ps=s.min_pair_spacing_ps,
        idler_delay_sign=s.idler_delay_sign,
        signal_channels=tuple(signal_channels),
        idler_channels=tuple(idler_channels))


def channel_pair_rate_hz(cfg: RunConfig, pump_power_uw: float) -> float:
    """Pair rate of the strongest filter channel at a given pump power."""
    collective = build_source(cfg, pump_power_uw=pump_power_uw).pair_rate_mhz
    return collective * 1e6 * cfg.spectrum.peak_fraction


def run_spectrum(cfg: RunConfig, system: System | None = None):
    """Per-channel coincidence counts across the filter bank."""
    entries, grid, _ = run_scan(cfg, system)
    strength = np.zeros(len(grid))
    n_triples = np.zeros(len(grid), dtype=int)
    for e in entries:
        idx = dwdm_channel_index(_ramp_reference_nm(e.triple), grid)
        if idx is None:
            continue
        strength[idx] += e.strength
        n_triples[idx] += 1
    top = strength.max()
    if top <= 0:
        raise ValueError("no matched triple fell inside the filter band")

    source = build_source(cfg)
    pair_rate_hz = (source.pair_rate_mhz * 1e6 * cfg.spectrum.peak_fraction
                    * strength / top)
    capture = _capture_fraction(cfg.source.coincidence_window_ps,
                                cfg.source.pair_lifetime_ps)
    detected = (pair_rate_hz * source.signal_transmission
                * source.idler_transmission * capture)
    expected = detected * cfg.spectrum.integration_s
    rng = np.random.Generator(np.random.PCG64(derive_seed(cfg.seed, 1)))
    counts = rng.poisson(expected)

    columns = ("channel", "lo_nm", "hi_nm", "center_nm", "n_triples",
               "strength", "pair_rate_hz", "expected_counts", "counts")
    rows = [(k, lo, hi, 0.5 * (lo + hi), int(n_triples[k]),
             float(strength[k] / top), float(pair_rate_hz[k]),
             float(expected[k]), int(counts[k]))
            for k, (lo, hi) in enumerate(grid)]
    peak = int(np.argmax(strength))
    summary = [
        f"channels: {len(grid)}, matched triples: {int(n_triples.sum())}",
        f"peak channel {peak} at [{grid[peak][0]:.1f}, {grid[peak][1]:.1f})"
        f" nm with {int(counts[peak])} counts in "
        f"{cfg.spectrum.integration_s:g} s",
    ]
    return columns, rows, summary


def _sweep_point(args):
    """One power point of the sweep; module-level so workers can pickle it."""
    cfg, power, seed = args
    model = build_source(cfg, pump_power_uw=power,
                         losses_db=cfg.sweep.losses_db,
                         saturation=cfg.sweep.apply_saturation)
    rate_w, car_w = int(cfg.sweep.rate_window_ps), int(cfg.sweep.car_window_ps)
    # one fold over the stream's blocks covers both windows' offset windows
    # and the calibration
    pair = fold_delays(event_blocks(model, cfg.sweep.duration_s, seed), 0, 1,
                       *two_fold_span(max(rate_w, car_w)))
    rate = two_fold_metrics(pair, window_ps=rate_w)
    car = two_fold_metrics(pair, window_ps=car_w,
                           peak_delay_ps=rate.peak_delay_ps)
    return (power, model.pair_rate_mhz, rate.n1, rate.n2, rate.n12,
            rate.pgr_estimate_hz * 1e-6, car.car)


def run_power_sweep(cfg: RunConfig):
    """Pair rate and CAR against pump power."""
    points = [(cfg, p, derive_seed(cfg.seed, 0x5EE9 + i))
              for i, p in enumerate(cfg.sweep.powers_uw)]
    # the longest points, at the highest powers, go to the workers first;
    # each point's seed comes from its own index, so order is only time
    order = sorted(range(len(points)), key=lambda k: -points[k][1])
    rows = [None] * len(points)
    for k, row in zip(order, _mapped(_sweep_point,
                                     [points[k] for k in order])):
        rows[k] = row
    columns = ("power_uw", "pair_rate_mhz", "n1", "n2", "n12",
               "pgr_estimate_mhz", "car")
    slope = _fit_slope([r[0] for r in rows], [r[5] for r in rows])
    summary = [f"fitted rate slope: {slope:.4f} MHz/uW over "
               f"{len(rows)} points"]
    return columns, rows, summary


def _cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _mapped(fn, tasks: list, reply=None) -> list:
    """[fn(t) for t in tasks], in min(_cpus(), len(tasks)) worker processes
    when that is more than one, inline otherwise.

    With reply, a task takes two steps: fn(t) returns (part, finish), the
    parts of every task go to reply, and its answer to each task's finish,
    in the process that ran fn(t); the finishes' results are returned.
    What a task holds between its steps stays in its process: only parts,
    the answer and results cross.  Its tasks all run at once, so there
    must then be one CPU or one per task.  The first task to raise,
    in task order, raises here once every task is done, or once every
    part is in when one raises.
    """
    workers = min(_cpus(), len(tasks))
    if workers <= 1:
        if reply is None:
            return [fn(t) for t in tasks]
        steps = [fn(t) for t in tasks]
        answer = reply([part for part, _ in steps])
        return [finish(answer) for _, finish in steps]
    if reply is not None and workers < len(tasks):
        raise ValueError(f"{len(tasks)} two-step tasks need as many "
                         f"workers, not {workers}")
    return _in_processes(fn, tasks, workers, reply)


def _in_processes(fn, tasks: list, workers: int, reply) -> list:
    """_mapped's tasks in worker processes, each a multiprocessing Process
    with a pipe of its own, forked where the platform can: a worker
    inherits the imported package and starts at once.  No thread runs.

    A worker is sent the index of a task when it is free, so the tasks
    start in order and the workers share them as they finish.  Task k of
    two steps goes to worker k.  The parent waits; every worker is joined
    before this returns or raises, and terminated first when the parent
    itself fails.
    """
    # imported here: about 9 ms of start-up that only workers need
    import multiprocessing
    from multiprocessing.connection import wait
    context = multiprocessing.get_context(
        "fork" if "fork" in multiprocessing.get_all_start_methods() else None)
    links, procs = [], []
    try:
        for _ in range(workers):
            link, end = context.Pipe()
            links.append(link)
            proc = context.Process(target=_worker, args=(
                fn, tasks, reply is not None, end, links))
            proc.start()
            procs.append(proc)
            end.close()
        todo = iter(range(len(tasks)))
        outcomes = [None] * len(tasks)
        busy = {}

        def hand(link):
            k = next(todo, None)
            if k is not None:
                link.send(k)
                busy[link] = k

        for link in links:
            hand(link)
        while busy:
            for link in wait(list(busy)):
                outcomes[busy.pop(link)] = _received(link)
                if reply is None:
                    hand(link)
        if reply is not None and all(ok for ok, _ in outcomes):
            answer = reply([part for _, part in outcomes])
            for link in links:
                link.send((answer,))
            outcomes = [_received(link) for link in links]
    except BaseException:
        for proc in procs:
            proc.terminate()
        raise
    finally:
        for link in links:
            with contextlib.suppress(OSError):
                link.send(None)
            link.close()
        for proc in procs:
            proc.join()
    for ok, value in outcomes:
        if not ok:
            err, remote = value
            raise err from _RemoteError(remote)
    return [value for _, value in outcomes]


def _worker(fn, tasks: list, two_steps: bool, link, inherited) -> None:
    """A worker process of _in_processes: runs task k for each index k it
    is sent, and sends back (True, result) or (False, (error, traceback));
    a task of two steps sends its part so first, and is then sent (answer,).
    None stops it, at either point.  An outcome that does not pickle
    raises here, and the parent finds the pipe closed."""
    # the parent's ends of the pipes forked so far: with them closed, a
    # worker whose parent dies reads the end of its own pipe
    for other in inherited:
        other.close()
    while (k := link.recv()) is not None:
        outcome = _attempt(fn, tasks[k])
        if two_steps and outcome[0]:
            part, finish = outcome[1]
            link.send((True, part))
            if (answer := link.recv()) is None:
                return
            outcome = _attempt(finish, *answer)
        link.send(outcome)


def _attempt(fn, *args):
    try:
        return True, fn(*args)
    except Exception as err:
        return False, (err, traceback.format_exc())


def _received(link):
    try:
        return link.recv()
    except EOFError:
        raise ChildProcessError("a worker process ended without its "
                                "result") from None


class _RemoteError(Exception):
    """The traceback of an error raised in a worker process, as its
    cause."""

    def __str__(self):
        return "\n" + self.args[0]


def _fit_slope(x, y) -> float:
    """Least-squares slope of y = a*x through the origin."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    keep = np.isfinite(y)
    if not np.any(keep):
        return math.nan
    return float(np.dot(x[keep], y[keep]) / np.dot(x[keep], x[keep]))


def run_g2(cfg: RunConfig):
    """Heralded second-order correlation of the strongest channel."""
    rate_hz = channel_pair_rate_hz(cfg, cfg.g2.pump_power_uw)
    power_equiv = rate_hz * 1e-6 / cfg.source.pgr_slope_mhz_per_uw
    model = build_source(cfg, pump_power_uw=power_equiv,
                         losses_db=cfg.g2.losses_db, saturation=False,
                         signal_channels=(0, 2), idler_channels=(1,))
    tau_ns = np.linspace(-cfg.g2.tau_max_ns, cfg.g2.tau_max_ns,
                         cfg.g2.tau_points)
    tau_ps = np.round(tau_ns * 1e3)
    window = int(cfg.g2.window_ps)
    # each time shard folds its own heralds and keeps their pairs; the
    # parent adds their calibrations and sends back both peaks
    shards = block_shards(model, cfg.g2.duration_s, _cpus())
    res = g2_curve(tau_ps, _mapped(functools.partial(
        _g2_shard, model, cfg.g2.duration_s, derive_seed(cfg.seed, 2),
        tau_ps, window), shards, reply=herald_peaks))
    columns = ("tau_ns", "g2", "n_triples", "n_idler", "n_is1", "n_is2")
    rows = [(float(tau_ns[k]), float(res["g2"][k]),
             int(res["n_triples"][k]), int(res["n_idler"][k]),
             int(res["n_is1"][k]), int(res["n_is2"][k]))
            for k in range(len(tau_ns))]
    center = int(np.argmin(np.abs(tau_ns)))
    mu = rate_hz * cfg.g2.window_ps * 1e-12
    summary = [
        f"channel pair rate: {rate_hz * 1e-6:.4f} MHz "
        f"(mu = {mu:.5f} per window)",
        f"g2(0) = {res['g2'][center]:.5f} from "
        f"{int(res['n_triples'][center])} triple coincidences",
    ]
    return columns, rows, summary


def _g2_shard(model: SourceModel, duration_s: float, seed: int,
              tau_ps: np.ndarray, window_ps: int, shard):
    """tcspc.fold_heralds of the heralds in the time shard [t0, t1), over
    the blocks that hold [t0 + lo, t1 + hi) of tcspc.heralded_g2_span."""
    lo, hi = heralded_g2_span(tau_ps, window_ps)
    t0, t1 = shard
    reads = (None if t0 is None else t0 + min(lo, 0),
             None if t1 is None else t1 + max(hi, 0))
    return fold_heralds(event_blocks(model, duration_s, seed, reads), tau_ps,
                        window_ps, own_ps=shard)


def _umi_config(cfg: RunConfig) -> UmiConfig:
    u = cfg.umi
    return UmiConfig(arm_delay_ns=u.arm_delay_ns,
                     arm_transmissions=(u.short_transmission,
                                        u.long_transmission),
                     postselect_window_ps=int(u.postselect_window_ps))


def run_franson(cfg: RunConfig):
    """Time-bin fringe scan: arrival-time peaks, then visibility fits."""
    umi = _umi_config(cfg)
    rate_hz = channel_pair_rate_hz(cfg, cfg.source.pump_power_uw)
    power_equiv = rate_hz * 1e-6 / cfg.source.pgr_slope_mhz_per_uw
    model = build_source(cfg, pump_power_uw=power_equiv, saturation=False)
    blocks = routed_blocks(event_blocks(model, cfg.franson.duration_s,
                                        derive_seed(cfg.seed, 3)),
                           umi, derive_seed(cfg.seed, 4))
    lo_a, hi_a = peak_areas_span(umi)
    lo_b, hi_b = two_fold_span(umi.postselect_window_ps)
    pair = fold_delays(blocks, 0, 1, min(lo_a, lo_b), max(hi_a, hi_b))
    early, center, late = peak_areas(pair.delays, umi)

    # Split the measured central peak into its interference-capable part
    # and the accidental floor, estimated from the same stream.
    base = two_fold_metrics(pair, window_ps=umi.postselect_window_ps)
    coherent = max(float(center) - base.accidental_mean, 0.0)
    scale = cfg.franson.integration_s / cfg.franson.duration_s
    amplitude = 2.0 * coherent * scale
    background = base.accidental_mean * scale

    xi = np.linspace(0.0, 2.0 * np.pi, cfg.franson.xi_points, endpoint=False)
    rng = np.random.Generator(np.random.PCG64(derive_seed(cfg.seed, 5)))
    v = cfg.franson.visibility
    quantum = quantum_fringe(xi, v, amplitude, background, rng=rng)
    classical = classical_fringe(xi, v, amplitude, background, rng=rng)
    fit_q = extract_visibility(xi, quantum, harmonic=2)
    fit_c = extract_visibility(xi, classical, harmonic=1)

    columns = ("xi_rad", "quantum_counts", "classical_counts",
               "quantum_fit", "classical_fit")
    model_q = fit_q.offset + fit_q.amplitude * np.cos(2 * xi + fit_q.phase)
    model_c = fit_c.offset + fit_c.amplitude * np.cos(xi + fit_c.phase)
    rows = [(float(xi[k]), int(quantum[k]), int(classical[k]),
             float(model_q[k]), float(model_c[k]))
            for k in range(len(xi))]
    summary = [
        f"arrival-time peaks (early, central, late): "
        f"{early}, {center}, {late}",
        f"quantum visibility = {fit_q.visibility:.4f} "
        f"+- {fit_q.visibility_sigma:.4f} (cos 2xi)",
        f"classical visibility = {fit_c.visibility:.4f} "
        f"+- {fit_c.visibility_sigma:.4f} (cos xi)",
    ]
    return columns, rows, summary, (fit_q, fit_c)


def run_modes(cfg: RunConfig, family_id: str | None = None,
              system: System | None = None):
    """Resonance combs of the configured families."""
    sys_ = system or build_system(cfg)
    wanted = sorted(sys_.combs) if family_id is None else [family_id]
    for fid in wanted:
        if fid not in sys_.families:
            raise ValueError(f"no family with id {fid!r}")
    columns = ("family", "m", "wavelength_nm", "frequency_ghz",
               "fsr_nm", "linewidth_ghz")
    rows = []
    for fid in wanted:
        comb = sys_.combs.get(fid)
        if comb is None:
            comb = resonance_comb(sys_.families[fid], sys_.geometry,
                                  sys_.comb_band_nm, sys_.model)
        for mode in comb:
            rows.append((fid, mode.m, mode.wavelength_nm,
                         mode.frequency_ghz,
                         fsr(sys_.families[fid], sys_.geometry,
                             mode.wavelength_nm, sys_.model),
                         mode.linewidth_ghz))
    summary = [f"{len(rows)} resonances in "
               f"[{sys_.comb_band_nm[0]:.1f}, {sys_.comb_band_nm[1]:.1f}] nm"]
    return columns, rows, summary


def run_match(cfg: RunConfig, system: System | None = None):
    """Energy-matched triples of every configured pair."""
    sys_ = system or build_system(cfg)
    columns = ("signal_nm", "idler_nm", "signal_family", "idler_family",
               "delta_m", "delta_f_ghz")
    rows = []
    for pair in sys_.pairs:
        triples = enumerate_triples(sys_.pump, pair.signal_comb,
                                    pair.idler_comb,
                                    energy_tol_ghz=cfg.matching.energy_tol_ghz)
        for t in triples:
            rows.append((t.signal.wavelength_nm, t.idler.wavelength_nm,
                         t.signal.family.family_id,
                         t.idler.family.family_id,
                         t.delta_m, t.delta_f_ghz))
    rows.sort(key=lambda r: (r[0], r[1]))
    summary = [f"{len(rows)} triples within "
               f"{cfg.matching.energy_tol_ghz:g} GHz"]
    return columns, rows, summary


def find_triple(cfg: RunConfig, delta_m: int,
                system: System | None = None) -> Triple:
    """The smallest-detuning triple with a given mode-number mismatch."""
    sys_ = system or build_system(cfg)
    span = abs(delta_m) + 3
    best = None
    for pair in sys_.pairs:
        fsr_ghz_est = abs(sys_.pump.frequency_ghz) / sys_.pump.m  # coarse
        tol = max(cfg.matching.energy_tol_ghz, span * 500.0, fsr_ghz_est)
        for t in enumerate_triples(sys_.pump, pair.signal_comb,
                                   pair.idler_comb, energy_tol_ghz=tol):
            if t.delta_m != delta_m:
                continue
            if best is None or abs(t.delta_f_ghz) < abs(best.delta_f_ghz):
                best = t
    if best is None:
        raise ValueError(f"no triple with delta_m = {delta_m} among the "
                         "configured pairs")
    return best


def run_trace(cfg: RunConfig, delta_m: int | None = None,
              n_turns: int | None = None, system: System | None = None):
    """Conversion-amplitude trace around the disk for one triple."""
    sys_ = system or build_system(cfg)
    turns = cfg.matching.n_turns if n_turns is None else n_turns
    if delta_m is None:
        entries, _, _ = run_scan(cfg, sys_)
        if not entries:
            raise ValueError("no matched triple to trace")
        triple = max(entries, key=lambda e: e.strength).triple
    else:
        triple = find_triple(cfg, delta_m, sys_)
    overlap = 1.0
    for pair_cfg, pair in zip(cfg.matching.pairs, sys_.pairs):
        ids = {m.family.family_id for m in (triple.signal, triple.idler)}
        if {pair_cfg.signal, pair_cfg.idler} == ids:
            overlap = pair_cfg.overlap
            break
    trace = accumulate_intensity(triple, AmplitudePrefactor(overlap=overlap),
                                 grid_points=cfg.matching.grid_points,
                                 n_turns=turns, geometry=sys_.geometry,
                                 model=sys_.model, tensor=sys_.tensor)
    columns = ("theta_rad", "re_amplitude", "im_amplitude", "intensity")
    rows = [(float(trace.theta[k]), float(trace.amplitude[k].real),
             float(trace.amplitude[k].imag), float(trace.intensity[k]))
            for k in range(len(trace.theta))]
    summary = [
        f"triple: signal {triple.signal.wavelength_nm:.4f} nm, idler "
        f"{triple.idler.wavelength_nm:.4f} nm, delta_m = {triple.delta_m}, "
        f"delta_f = {triple.delta_f_ghz:.4f} GHz",
        f"final intensity after {turns} turn(s): "
        f"{trace.turn_final_intensity(turns):.6e}",
    ]
    return columns, rows, summary


def run_simulate(cfg: RunConfig, out_path: str,
                 duration_s: float | None = None):
    """Generate an event stream at the configured source and store it.

    The stream's time shards (events.block_shards, one per CPU at most)
    are drawn and written in parallel, each to its part of the file
    (events.event_parts), and their tallies add up.  A path that is no
    regular file, such as /dev/null, takes one shard.
    """
    model = build_source(cfg)
    duration = cfg.sweep.duration_s if duration_s is None else duration_s
    shards = block_shards(model, duration,
                          _cpus() if splittable(out_path) else 1)
    with event_parts(out_path, len(shards)) as paths:
        tallies = _mapped(functools.partial(
            _written_shard, model, duration, derive_seed(cfg.seed, 6)),
            list(zip(shards, paths)))
    n_pairs, n_signal, n_idler, n_events = np.sum(tallies, axis=0).tolist()
    columns = ("duration_s", "n_pairs_generated", "n_signal", "n_idler",
               "pair_rate_mhz")
    rows = [(int(round(duration * 1e12)) / 1e12, n_pairs, n_signal, n_idler,
             model.pair_rate_mhz)]
    summary = [f"wrote {n_events} events to {out_path}"]
    return columns, rows, summary


def _written_shard(model: SourceModel, duration_s: float, seed: int,
                   shard_path) -> list[int]:
    """Write one time shard's blocks to its part of the event file; its
    pairs and events, tallied as the writer takes each block."""
    shard, path = shard_path
    tally = []

    def tallied(blocks):
        for b in blocks:
            tally.append((b.n_pairs_generated, b.n_channel(0), b.n_channel(1),
                          len(b)))
            yield b

    write_events(tallied(event_blocks(model, duration_s, seed, shard)), path)
    return np.sum(tally, axis=0).tolist()


def run_coinc(cfg: RunConfig, events_path: str | None = None,
              duration_s: float | None = None):
    """Two-fold coincidence metrics of a stored or fresh stream.

    A .ttps file's time shards (events.file_shards), one per CPU at most,
    are folded in parallel (tcspc.fold_delays), each over the records that
    hold its signal events' partners; their histograms and counts add up
    to the whole stream's.  A CSV file and a generated stream are one
    shard, folded inline.
    """
    window = int(cfg.source.coincidence_window_ps)
    lo, hi = two_fold_span(window)
    if events_path is not None:
        if duration_s is not None and not 0 < duration_s < math.inf:
            raise ValueError("--duration must be finite and positive")
        blocks = functools.partial(read_blocks, events_path,
                                   None if duration_s is None
                                   else int(round(duration_s * 1e12)))
        shards = [(s, shard_records(events_path, s, lo, hi))
                  for s in file_shards(events_path, _cpus())]
    else:
        model = build_source(cfg)
        duration = cfg.sweep.duration_s if duration_s is None else duration_s
        blocks = functools.partial(event_blocks, model, duration,
                                   derive_seed(cfg.seed, 6))
        shards = [((None, None), (None, None))]
    # folded block by block: no shard holds the stream
    folds = _mapped(functools.partial(_folded_shard, blocks, lo, hi), shards)
    pair = PairFold(sum(f.n_a for f in folds), sum(f.n_b for f in folds),
                    max(f.duration_ps for f in folds),
                    DelayHistogram(lo, np.sum([f.delays.counts
                                               for f in folds], axis=0)))
    res = two_fold_metrics(pair, window_ps=window)
    columns = ("n1", "n2", "n12", "accidental_mean", "peak_delay_ps",
               "window_ps", "duration_s", "pgr_estimate_mhz", "car")
    rows = [(res.n1, res.n2, res.n12, res.accidental_mean,
             res.peak_delay_ps, res.window_ps, res.duration_s,
             res.pgr_estimate_hz * 1e-6, res.car)]
    summary = [f"n12 = {res.n12}, CAR = {res.car:.1f}"]
    return columns, rows, summary


def _folded_shard(blocks, lo_ps: int, hi_ps: int, shard) -> PairFold:
    """The signal-idler fold of one time shard (own, reads): of the events
    in the times own, over the blocks that blocks(reads) gives."""
    own, reads = shard
    return fold_delays(blocks(reads), 0, 1, lo_ps, hi_ps, own)
