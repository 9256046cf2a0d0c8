"""Builds calibrated models from a RunConfig and runs the experiments.

Every run_* function returns (columns, rows, summary) where summary is a
list of human-readable lines.  All randomness flows from the master seed
through derive_seed, so a fixed config gives identical tables regardless
of machine or worker count.

The sweep's points and a stream's time shards run in forked worker
processes, one per CPU this process may run on at most (_mapped); one
task, or one CPU, runs inline.  The drawn streams of g2, franson and coinc
are cut by one rule (events.block_shards) and folded by one path
(_drawn_fold); simulate writes its shards, and coinc folds a .ttps file's
(events.file_shards).  Shards are exact pieces of the stream whose results,
g2's HeraldFolds among them, add by one sum (events.summed), so the file
and the tables are those of one pass whatever the number of CPUs: a
worker is sent tasks and sends back their results, nothing more.  A fold
of the shard [t0, t1), for delays in [lo, hi], reads [t0 + min(lo, 0),
t1 + max(hi, 0)) (_shard_fold).
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
from .events import (SourceModel, TruthCounters, UmiConfig, block_shards,
                     event_blocks, event_parts, file_shards, read_blocks,
                     splittable, summed, write_events)
from .tcspc import (dwdm_channel_index, dwdm_grid, fold_delays, fold_heralds,
                    g2_curve, heralded_g2_span, two_fold_metrics,
                    two_fold_span)
from .franson import (classical_fringe, extract_visibility, peak_areas,
                      peak_areas_span, quantum_fringe)


_MASK64 = (1 << 64) - 1


# derive_seed indices: 1 spectrum counts, 2 g2 stream, 3 franson stream,
# 4 retired (franson's routing, now drawn in generation: never reuse it),
# 5 franson fringe counts, 6 simulate and coinc stream, 0x5EE9 + i sweep
# point i's stream
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


@functools.lru_cache(maxsize=1)
def build_system(cfg: RunConfig) -> System:
    """The device model of a config, built once: nothing changes a System."""
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


def run_scan(cfg: RunConfig):
    """Matched triples over the filter band with relative strengths."""
    sys_ = build_system(cfg)
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
                 signal_channels=(0,), idler_channels=(1,),
                 interferometer: UmiConfig | None = None) -> SourceModel:
    """The [source] section as a model, with what the caller passes in
    place of its keys: a pump power, one loss chain for both arms, or
    saturation=False for a linear rate."""
    given = vars(cfg.source) | dict(
        signal_channels=tuple(signal_channels),
        idler_channels=tuple(idler_channels), interferometer=interferometer)
    if pump_power_uw is not None:
        given["pump_power_uw"] = pump_power_uw
    if losses_db is not None:
        given["signal_losses_db"] = given["idler_losses_db"] = tuple(losses_db)
    if not saturation:
        given["saturation_rate_mhz"] = None
    return SourceModel(**given)


def channel_pair_rate_hz(cfg: RunConfig, pump_power_uw: float) -> float:
    """Pair rate of the strongest filter channel at a given pump power."""
    collective = build_source(cfg, pump_power_uw=pump_power_uw).pair_rate_mhz
    return collective * 1e6 * cfg.spectrum.peak_fraction


def _channel_source(cfg: RunConfig, rate_hz: float, **kwargs) -> SourceModel:
    """The unsaturated source that pairs at a channel's rate_hz."""
    power_uw = rate_hz * 1e-6 / cfg.source.pgr_slope_mhz_per_uw
    return build_source(cfg, power_uw, saturation=False, **kwargs)


def run_spectrum(cfg: RunConfig):
    """Per-channel coincidence counts across the filter bank."""
    entries, grid, _ = run_scan(cfg)
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
    car = two_fold_metrics(pair, window_ps=car_w)
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


def _mapped(fn, tasks: list) -> list:
    """[fn(t) for t in tasks], in min(_cpus(), len(tasks)) worker processes
    when that is more than one, inline otherwise.  Only tasks and results
    cross between processes.  The first task to raise, in task order,
    raises here once every task is done.
    """
    workers = min(_cpus(), len(tasks))
    if workers <= 1:
        return [fn(t) for t in tasks]
    return _in_processes(fn, tasks, workers)


def _in_processes(fn, tasks: list, workers: int) -> list:
    """_mapped's tasks in worker processes, each a multiprocessing Process
    with a pipe of its own, forked where the platform can: a worker
    inherits the imported package and starts at once.  No thread runs:
    importing diskspdc caps OpenBLAS at one thread, so numpy starts no
    idle pool to spin a CPU.  Two limits: numpy imported before diskspdc
    keeps its pool, and a caller's OPENBLAS_NUM_THREADS wins.

    A worker is sent the index of a task when it is free, so the tasks
    start in order and the workers share them as they finish.  The parent
    waits; every worker is joined before this returns or raises, and
    terminated first when the parent itself fails.
    """
    # imported here: about 5 ms of start-up that only workers need
    import multiprocessing
    from multiprocessing.connection import wait
    context = multiprocessing.get_context(
        "fork" if "fork" in multiprocessing.get_all_start_methods() else None)
    links, procs = [], []
    try:
        for _ in range(workers):
            link, end = context.Pipe()
            links.append(link)
            proc = context.Process(target=_worker,
                                   args=(fn, tasks, end, links))
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
                hand(link)
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


def _worker(fn, tasks: list, link, inherited) -> None:
    """A worker process of _in_processes: runs task k for each index k it
    is sent, and sends back (True, result) or (False, (error, traceback)).
    None stops it.  An outcome that does not pickle raises here, and the
    parent finds the pipe closed."""
    # the parent's ends of the pipes forked so far: with them closed, a
    # worker whose parent dies reads the end of its own pipe
    for other in inherited:
        other.close()
    while (k := link.recv()) is not None:
        link.send(_attempt(fn, tasks[k]))


def _attempt(fn, task):
    try:
        return True, fn(task)
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
    model = _channel_source(cfg, rate_hz, losses_db=cfg.g2.losses_db,
                            signal_channels=(0, 2), idler_channels=(1,))
    tau_ns = np.linspace(-cfg.g2.tau_max_ns, cfg.g2.tau_max_ns,
                         cfg.g2.tau_points)
    tau_ps = np.round(tau_ns * 1e3)
    window = int(cfg.g2.window_ps)
    res = g2_curve(tau_ps, window, summed(_drawn_fold(
        functools.partial(fold_heralds, tau_grid_ps=tau_ps, window_ps=window),
        heralded_g2_span(tau_ps, window), model, cfg.g2.duration_s,
        derive_seed(cfg.seed, 2))))
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


def _umi_config(cfg: RunConfig) -> UmiConfig:
    u = cfg.umi
    return UmiConfig(arm_delay_ns=u.arm_delay_ns,
                     arm_transmissions=(u.short_transmission,
                                        u.long_transmission),
                     postselect_window_ps=int(u.postselect_window_ps))


def run_franson(cfg: RunConfig):
    """Time-bin fringe scan: arrival-time peaks, then visibility fits."""
    umi = _umi_config(cfg)
    # the stream is drawn routed: no block reaches past the next one
    model = _channel_source(cfg, channel_pair_rate_hz(
        cfg, cfg.source.pump_power_uw), interferometer=umi)
    # one fold covers the peak areas' windows and the two-fold calibration
    (lo_a, hi_a), (lo, hi) = (peak_areas_span(umi),
                              two_fold_span(umi.postselect_window_ps))
    lo, hi = min(lo, lo_a), max(hi, hi_a)
    pair = summed(_drawn_fold(
        functools.partial(fold_delays, ch_a=0, ch_b=1, lo_ps=lo, hi_ps=hi),
        (lo, hi), model, cfg.franson.duration_s, derive_seed(cfg.seed, 3)))
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
    return columns, rows, summary


def run_modes(cfg: RunConfig, family_id: str | None = None):
    """Resonance combs of the configured families."""
    sys_ = build_system(cfg)
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


def run_match(cfg: RunConfig):
    """Energy-matched triples of every configured pair."""
    sys_ = build_system(cfg)
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


def find_triple(cfg: RunConfig, delta_m: int) -> Triple:
    """The smallest-detuning triple with a given mode-number mismatch."""
    sys_ = build_system(cfg)
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
              n_turns: int | None = None):
    """Conversion-amplitude trace around the disk for one triple."""
    sys_ = build_system(cfg)
    turns = cfg.matching.n_turns if n_turns is None else n_turns
    if delta_m is None:
        entries, _, _ = run_scan(cfg)
        if not entries:
            raise ValueError("no matched triple to trace")
        triple = max(entries, key=lambda e: e.strength).triple
    else:
        triple = find_triple(cfg, delta_m)
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
    (events.event_parts), and their TruthCounters add up (events.summed).
    A path that is no regular file, such as /dev/null, takes one shard.
    """
    model, duration, seed = _simulated(cfg, duration_s)
    shards = block_shards(model, duration,
                          _cpus() if splittable(out_path) else 1)
    with event_parts(out_path, len(shards)) as paths:
        truth = summed(_mapped(functools.partial(
            _written_shard, model, duration, seed), list(zip(shards, paths))))
    stored = {c: truth.detected[c] + truth.dark[c] - truth.clipped[c]
              for c in truth.detected}
    columns = ("duration_s", "n_pairs_generated", "n_signal", "n_idler",
               "pair_rate_mhz")
    rows = [(int(round(duration * 1e12)) / 1e12, truth.n_pairs_generated,
             stored[0], stored[1], model.pair_rate_mhz)]
    summary = [f"wrote {sum(stored.values())} events to {out_path}"]
    return columns, rows, summary


def _simulated(cfg: RunConfig, duration_s: float | None = None):
    """(source, duration, seed) of the stream simulate writes and coinc
    draws: one stream."""
    return (build_source(cfg), cfg.sweep.duration_s if duration_s is None
            else duration_s, derive_seed(cfg.seed, 6))


def _written_shard(model: SourceModel, duration_s: float, seed: int,
                   shard_path) -> TruthCounters:
    """Write one time shard's blocks to its part of the event file; their
    summed TruthCounters."""
    shard, path = shard_path
    return write_events(event_blocks(model, duration_s, seed, shard), path)


def run_coinc(cfg: RunConfig, events_path: str | None = None,
              duration_s: float | None = None):
    """Two-fold coincidence metrics of a stored or fresh stream.

    Its time shards are folded (_shard_fold), one per CPU at most, and add
    up (events.summed): a drawn stream, simulate's, is cut at block starts
    (_drawn_fold), a .ttps file at records (file_shards), a CSV file not.
    """
    window = int(cfg.source.coincidence_window_ps)
    lo, hi = two_fold_span(window)
    # folded block by block: no shard holds the stream
    fold = functools.partial(fold_delays, ch_a=0, ch_b=1, lo_ps=lo, hi_ps=hi)
    if events_path is None:
        folds = _drawn_fold(fold, (lo, hi), *_simulated(cfg, duration_s))
    else:
        if duration_s is not None and not 0 < duration_s < math.inf:
            raise ValueError("--duration must be finite and positive")
        folds = _mapped(functools.partial(
            _shard_fold, fold, functools.partial(
                read_blocks, events_path, None if duration_s is None
                else int(round(duration_s * 1e12))), (lo, hi)),
            file_shards(events_path, _cpus()))
    pair = summed(folds)
    res = two_fold_metrics(pair, window_ps=window)
    columns = ("n1", "n2", "n12", "accidental_mean", "peak_delay_ps",
               "window_ps", "duration_s", "pgr_estimate_mhz", "car")
    rows = [(res.n1, res.n2, res.n12, res.accidental_mean,
             res.peak_delay_ps, res.window_ps, res.duration_s,
             res.pgr_estimate_hz * 1e-6, res.car)]
    summary = [f"n12 = {res.n12}, CAR = {res.car:.1f}"]
    return columns, rows, summary


def _drawn_fold(fold, span, model, duration_s, seed) -> list:
    """_mapped's results of fold over each time shard of a drawn stream,
    cut by events.block_shards for _cpus(), as _shard_fold reads it."""
    blocks = functools.partial(event_blocks, model, duration_s, seed)
    return _mapped(functools.partial(_shard_fold, fold, blocks, span),
                   block_shards(model, duration_s, _cpus()))


def _shard_fold(fold, blocks, span: tuple[int, int], shard):
    """fold(blocks(reads), own_ps=shard) of the time shard [t0, t1), None
    an open end: reads holds every time its pairs, of delays in span = [lo,
    hi], reach.  Partials of module-level functions pickle without fork."""
    (lo, hi), (t0, t1) = span, shard
    return fold(blocks((None if t0 is None else t0 + min(lo, 0),
                        None if t1 is None else t1 + max(hi, 0))),
                own_ps=shard)
