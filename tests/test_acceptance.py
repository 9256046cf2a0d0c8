"""Acceptance checks for the simulator's headline behaviors.

One test per criterion; each prints a single PASS/FAIL line so the whole
suite reads as a checklist under pytest -s.  Statistical checks run at
fixed seeds with tolerances set from the expected counting error.
"""

import math
import os

import numpy as np

from diskspdc import pipeline
from diskspdc.config import default_config, load_config, parse_config
from diskspdc.events import SourceModel, generate_events, read_events, \
    write_events
from diskspdc.franson import UmiConfig, apply_umi, classical_fringe, \
    quantum_fringe
from diskspdc.material import DEFAULT_SELLMEIER, n_te_azimuthal, \
    refractive_index
from diskspdc.matching import AmplitudePrefactor, Triple, accumulate_intensity
from diskspdc.pipeline import build_source, derive_seed, run_franson, \
    run_g2, run_power_sweep, run_spectrum
from diskspdc.resonator import DiskGeometry, ModeFamily, ResonatorMode, \
    calibrate_family, fsr
from diskspdc.tables import format_table
from diskspdc.tcspc import car_closed_form, delay_histogram, heralded_g2, \
    peak_span, poisson_heralded_g2, two_fold_metrics

from streams import merged

MASTER_SEED = 12345
GEO = DiskGeometry()
FLAT = AmplitudePrefactor(overlap=1.0, include_quantization=False)
REPLICATION_CFG = os.path.join(os.path.dirname(__file__), os.pardir,
                               "configs", "replication.cfg")


def report(criterion: int, failures: list, detail: str):
    ok = not failures
    line = detail if ok else "; ".join(failures)
    print(f"{'PASS' if ok else 'FAIL'}: criterion {criterion}: {line}")
    assert ok, f"criterion {criterion}: {line}"


def check(failures: list, condition: bool, message: str):
    if not condition:
        failures.append(message)


# --- criterion 1: azimuthal TE index endpoints and periodicity -----------

def test_criterion_01_birefringence_endpoints():
    failures = []
    for lam in (0.775, 1.55):
        n_o = refractive_index(lam, "o")
        n_e = refractive_index(lam, "e")
        check(failures, abs(n_te_azimuthal(0.0, lam) - n_o) <= 1e-12,
              f"theta=0 off n_o at {lam} um")
        check(failures, abs(n_te_azimuthal(np.pi / 2, lam) - n_e) <= 1e-12,
              f"theta=pi/2 off n_e at {lam} um")
        theta = np.linspace(0.0, np.pi, 4096, endpoint=False)
        gap = np.max(np.abs(n_te_azimuthal(theta + np.pi, lam)
                            - n_te_azimuthal(theta, lam)))
        check(failures, gap <= 1e-12, f"pi-periodicity gap {gap:g}")
        values = n_te_azimuthal(theta, lam)
        check(failures,
              values.min() >= min(n_o, n_e) - 1e-12
              and values.max() <= max(n_o, n_e) + 1e-12,
              "TE index left the principal-index interval")
    report(1, failures,
           "TE azimuthal index hits n_o/n_e endpoints (1e-12) and is "
           "pi-periodic on a 4096-point grid")


# --- criterion 2: calibrated free spectral ranges -------------------------

def test_criterion_02_fsr_calibration():
    failures = []
    details = []
    cases = (("TE", 3.89, 2.11), ("TM", 3.67, 2.24))
    circumference_nm = GEO.circumference_um * 1e3
    for pol, target_nm, ng_expect in cases:
        fam = ModeFamily(family_id=f"fam_{pol}", polarization=pol,
                         q_loaded=1e5, ref_wavelength_um=1.552)
        fam = calibrate_family(fam, GEO, target_nm, 1552.0,
                               DEFAULT_SELLMEIER)
        got = fsr(fam, GEO, 1552.0, DEFAULT_SELLMEIER)
        check(failures, abs(got - target_nm) / target_nm <= 1e-3,
              f"{pol} fsr {got:.5f} nm misses {target_nm} nm by "
              f"{abs(got - target_nm) / target_nm:.2%}")
        ng = 1552.0 ** 2 / (got * circumference_nm)
        check(failures, abs(ng - ng_expect) / ng_expect <= 5e-3,
              f"{pol} implied n_g {ng:.4f} off {ng_expect} by "
              f"{abs(ng - ng_expect) / ng_expect:.2%}")
        details.append(f"{pol}: fsr {got:.4f} nm, n_g {ng:.4f}")
    report(2, failures, "; ".join(details))


# --- criterion 3: winding-number selectivity of the conversion ------------

def _mode(fid, pol, m, wavelength_nm, contrast=1.0):
    fam = ModeFamily(family_id=fid, polarization=pol, q_loaded=2.9e5,
                     azimuthal_contrast=contrast)
    return ResonatorMode(family=fam, m=m, wavelength_nm=wavelength_nm)


def _tm_triple(delta_m):
    return Triple.build(pump=_mode("p", "TM", 824, 774.86),
                        signal=_mode("s", "TM", 408, 1552.0),
                        idler=_mode("i", "TM", 416 + delta_m, 1547.3))


def _te_triple(delta_m):
    return Triple.build(pump=_mode("p", "TM", 824, 774.86),
                        signal=_mode("s", "TE", 408, 1552.0, contrast=0.4),
                        idler=_mode("i", "TM", 416 + delta_m, 1547.3))


def test_criterion_03_winding_selectivity():
    failures = []
    flat = accumulate_intensity(_tm_triple(0), FLAT, grid_points=4096,
                                drive=lambda th: np.ones_like(th))
    theta = flat.theta[1:]
    slope = np.polyfit(np.log(theta), np.log(flat.intensity[1:]), 1)[0]
    check(failures, abs(slope - 2.0) <= 0.01,
          f"flat-drive growth exponent {slope:.4f} not 2.00 +- 0.01")

    for dm in (1, -1):
        trace = accumulate_intensity(_tm_triple(dm), FLAT, n_turns=10)
        finals = [trace.turn_final_intensity(n) for n in range(1, 11)]
        check(failures, all(b > a for a, b in zip(finals, finals[1:])),
              f"delta_m={dm} did not grow every turn")
        check(failures, abs(finals[-1] / finals[0] - 100.0) <= 1e-3,
              f"delta_m={dm} 10-turn gain {finals[-1] / finals[0]:.3f} "
              "not quadratic")
    for dm in (8, -8):
        trace = accumulate_intensity(_tm_triple(dm), FLAT, n_turns=10)
        cap = 2.0 * trace.turn_max_intensity(1)
        check(failures, float(np.max(trace.intensity)) < cap,
              f"delta_m={dm} exceeded twice its single-turn maximum")

    finals = {}
    for dm in (1, 3, 5):
        trace = accumulate_intensity(_te_triple(dm), FLAT, n_turns=10)
        finals[dm] = (trace.turn_final_intensity(1),
                      trace.turn_final_intensity(10))
        check(failures, finals[dm][1] > 10.0 * finals[dm][0],
              f"TE-signal delta_m={dm} is not persistent")
    check(failures, finals[1][0] > finals[3][0] > finals[5][0] > 0.0,
          "TE-signal single-turn strengths not ordered 1 > 3 > 5")
    report(3, failures,
           f"flat-drive exponent {slope:.3f}; delta_m=+-1 grow "
           "quadratically over 10 turns, |delta_m|=8 stays bounded, "
           "TE-signal windings ordered 1 > 3 > 5")


# --- criterion 4: spectrum peak channel and band coverage ------------------

def test_criterion_04_spectrum_shape():
    failures = []
    cfg = load_config(REPLICATION_CFG)
    columns, rows, _ = run_spectrum(cfg)
    strongest = max(rows, key=lambda r: r[5])
    check(failures, strongest[1] <= 1552.52 < strongest[2],
          f"peak channel {strongest[0]} does not contain 1552.52 nm")
    empty = [r[0] for r in rows if r[4] < 1]
    check(failures, not empty, f"channels without a matched triple: {empty}")
    cutoff = cfg.matching.dispersion_cutoff_nm
    tail = [r[7] for r in rows if r[1] >= cutoff]
    check(failures, len(tail) >= 3, "too few channels beyond the cutoff")
    check(failures, all(a > b for a, b in zip(tail, tail[1:])),
          "expected channel counts not strictly decreasing past the cutoff")
    report(4, failures,
           f"peak in channel {strongest[0]} "
           f"[{strongest[1]:.1f}, {strongest[2]:.1f}) nm, every channel "
           f"holds a triple, {len(tail)} channels roll off past "
           f"{cutoff:g} nm")


# --- criterion 5: pair-rate slope and saturation point ---------------------

def test_criterion_05_pgr_slope(monkeypatch):
    failures = []
    monkeypatch.setattr(pipeline, "_cpus", lambda: 1)
    cfg = parse_config("""
[sweep]
powers_uw = 0.05, 0.1, 0.2, 0.3, 0.4
duration_s = 2.0
""")
    columns, rows, _ = run_power_sweep(cfg)
    check(failures, len(rows) >= 5, "sweep has fewer than 5 points")
    x = np.array([r[0] for r in rows])
    y = np.array([r[5] for r in rows])
    slope = float(np.dot(x, y) / np.dot(x, x))
    check(failures, abs(slope - 5.13) / 5.13 <= 0.03,
          f"fitted slope {slope:.4f} MHz/uW off 5.13 by "
          f"{abs(slope - 5.13) / 5.13:.2%}")
    sat = build_source(default_config(), pump_power_uw=27.3).pair_rate_mhz
    check(failures, abs(sat - 136.5) / 136.5 <= 0.01,
          f"saturated rate {sat:.3f} MHz at 27.3 uW off 136.5 by "
          f"{abs(sat - 136.5) / 136.5:.2%}")
    report(5, failures,
           f"fitted slope {slope:.3f} MHz/uW (5 points), saturated model "
           f"gives {sat:.2f} MHz at 27.3 uW")


# --- criterion 6: coincidence-to-accidental ratio ---------------------------

def test_criterion_06_car():
    failures = []
    lifetime_ps = 200.0
    window_ps = 2000
    capture = 1.0 - math.exp(-window_ps / (2.0 * lifetime_ps))
    products = []
    car_low = None
    details = []
    for i, (power, duration) in enumerate(((0.14, 6.0), (0.44, 3.0),
                                           (1.4, 2.0))):
        model = SourceModel(
            pump_power_uw=power, pgr_slope_mhz_per_uw=5.13,
            saturation_rate_mhz=None, pair_lifetime_ps=lifetime_ps,
            signal_losses_db=(10.0,), idler_losses_db=(10.0,),
            detector_efficiency=1.0, dark_rate_hz=0.0, jitter_sigma_ps=0.0,
            min_pair_spacing_ps=0.0, idler_delay_sign=1)
        stream = generate_events(model, duration,
                                 derive_seed(MASTER_SEED, 0x6C0 + i))
        res = two_fold_metrics(stream, window_ps=window_ps,
                               n_offset_windows=40, offset_min_ps=5_000,
                               offset_max_ps=165_000)
        rate_hz = model.pair_rate_mhz * 1e6
        cf = car_closed_form(rate_hz, window_ps, capture=capture)
        # the measured peak window also holds its own accidental floor,
        # so the estimator sits one unit above the true/accidental ratio
        acc_total = res.accidental_mean * 40
        sigma = res.car * math.sqrt(1.0 / res.n12 + 1.0 / max(acc_total, 1))
        dev = (res.car - (cf + 1.0)) / sigma
        check(failures, abs(dev) <= 3.0,
              f"CAR {res.car:.1f} at {power} uW deviates {dev:+.2f} sigma "
              f"from closed form {cf:.1f}")
        if power == 0.14:
            car_low = res.car
            check(failures, 500.0 <= res.car <= 2000.0,
                  f"CAR {res.car:.1f} at 0.14 uW outside [500, 2000]")
        products.append(res.car * rate_hz)
        details.append(f"{power} uW: {res.car:.0f} ({dev:+.1f} sigma)")
    spread = (max(products) - min(products)) / np.mean(products)
    check(failures, spread <= 0.10,
          f"CAR*rate varies by {spread:.1%} over a decade")
    report(6, failures,
           "CAR vs closed form " + ", ".join(details)
           + f"; low-power CAR {car_low:.0f} in [500, 2000]; CAR*rate "
           f"spread {spread:.1%}")


# --- criterion 7: heralded autocorrelation ---------------------------------

def test_criterion_07_heralded_g2():
    failures = []
    # renewal source: never more than one pair near a herald
    model = SourceModel(
        pump_power_uw=1.0, pgr_slope_mhz_per_uw=0.2,
        saturation_rate_mhz=None, pair_lifetime_ps=20.0,
        signal_losses_db=(), idler_losses_db=(), detector_efficiency=1.0,
        dark_rate_hz=0.0, jitter_sigma_ps=0.0,
        min_pair_spacing_ps=1_000_000.0, idler_delay_sign=1,
        signal_channels=(0, 2), idler_channels=(1,))
    stream = generate_events(model, 0.5, derive_seed(MASTER_SEED, 0x720))
    res = heralded_g2(stream, np.array([0.0]), window_ps=400)
    check(failures, res["g2"][0] == 0.0 and res["n_triples"][0] == 0,
          f"single-pair source gave g2(0) = {res['g2'][0]}")

    # Poisson pileup against the closed form at three window occupancies
    devs = []
    for i, (window_ps, duration) in enumerate(((400, 2.0), (4000, 1.0),
                                               (40000, 0.5))):
        model = SourceModel(
            pump_power_uw=1.0, pgr_slope_mhz_per_uw=2.5,
            saturation_rate_mhz=None, pair_lifetime_ps=20.0,
            signal_losses_db=(), idler_losses_db=(),
            detector_efficiency=1.0, dark_rate_hz=0.0, jitter_sigma_ps=0.0,
            min_pair_spacing_ps=0.0, idler_delay_sign=1,
            signal_channels=(0, 2), idler_channels=(1,))
        stream = generate_events(model, duration,
                                 derive_seed(MASTER_SEED, 0x721 + i))
        res = heralded_g2(stream, np.array([0.0]), window_ps=window_ps)
        mu = 2.5e6 * window_ps * 1e-12
        cf = poisson_heralded_g2(mu)
        rel = abs(res["g2"][0] - cf) / cf
        check(failures, rel <= 0.20,
              f"mu={mu:g}: g2 {res['g2'][0]:.5f} off closed form {cf:.5f} "
              f"by {rel:.1%}")
        devs.append(f"mu={mu:g}: {rel:.1%}")

    # realistic source conditions through the full pipeline
    columns, rows, _ = run_g2(default_config())
    tau = np.array([r[0] for r in rows])
    g2 = np.array([r[1] for r in rows])
    center = int(np.argmin(np.abs(tau)))
    check(failures, g2[center] < 0.05,
          f"pipeline g2(0) = {g2[center]:.4f} not below 0.05")
    wings = np.concatenate([g2[:center], g2[center + 1:]])
    wings = wings[np.isfinite(wings)]
    check(failures, abs(float(wings.mean()) - 1.0) <= 0.1,
          f"mean wing level {wings.mean():.3f} not near 1")
    check(failures, wings.min() > 0.5 and wings.max() < 1.5,
          f"wing levels span [{wings.min():.2f}, {wings.max():.2f}]")
    report(7, failures,
           f"renewal source g2(0) = 0 exactly; Poisson pileup off closed "
           f"form by {', '.join(devs)}; pipeline g2(0) = {g2[center]:.4f} "
           f"with wings at {wings.mean():.3f}")


# --- criterion 8: time-bin interference -------------------------------------

def test_criterion_08_franson():
    failures = []
    umi = UmiConfig()
    # three-peak structure on a dedicated clean stream: all coincidence
    # mass sits at -1.6, 0, +1.6 ns around the pair delay
    # low rate so accidental counts between the peaks stay well below
    # the 0.1% non-peak allowance
    model = SourceModel(
        pump_power_uw=1.0, pgr_slope_mhz_per_uw=0.1,
        saturation_rate_mhz=None, pair_lifetime_ps=50.0,
        signal_losses_db=(), idler_losses_db=(), detector_efficiency=1.0,
        dark_rate_hz=0.0, jitter_sigma_ps=0.0, min_pair_spacing_ps=0.0,
        idler_delay_sign=1)
    stream = generate_events(model, 2.0, derive_seed(MASTER_SEED, 0x800))
    routed = apply_umi(stream, umi, derive_seed(MASTER_SEED, 0x801))
    delay_ps = int(round(umi.arm_delay_ns * 1e3))
    delays = delay_histogram(routed.channel_times(0), routed.channel_times(1),
                             *peak_span(2 * delay_ps + 2000, 0, 0))
    peak = delays.peak_ps()
    areas = [int(n) for n in delays.totals(
        [peak + k * delay_ps for k in (-1, 0, 1)], umi.postselect_window_ps)]
    total = int(delays.totals([peak], 2 * delay_ps + 2000)[0])
    check(failures, sum(areas) >= 0.999 * total,
          "coincidences found away from the -1.6/0/+1.6 ns peaks")
    early, center, late = areas
    ratio = (early + late) / center
    sigma = ratio * math.sqrt(1.0 / (early + late) + 1.0 / center)
    check(failures, abs(ratio - 1.0) <= 3.0 * sigma,
          f"side/central peak ratio {ratio:.4f} off 1 by more than 3 sigma")

    # fringe harmonics: pair interference at cos(2 xi), single-arm
    # (classical) modulation at cos(xi); exact on a sampled grid
    xi = np.linspace(0.0, 2.0 * np.pi, 32, endpoint=False)
    h_q = int(np.argmax(np.abs(np.fft.rfft(
        quantum_fringe(xi, 0.965, 10_000.0, 50.0)))[1:])) + 1
    h_c = int(np.argmax(np.abs(np.fft.rfft(
        classical_fringe(xi, 0.965, 10_000.0, 50.0)))[1:])) + 1
    check(failures, h_q == 2 and h_c == 1,
          f"fringe harmonics ({h_q}, {h_c}) not (2, 1)")

    # visibility through the full pipeline at realistic counting levels
    cfg = parse_config("""
[source]
signal_losses_db = 14.3
idler_losses_db = 14.3

[franson]
duration_s = 2.0
""")
    p_early, p_center, p_late = None, None, None
    columns, rows, summary, (fit_q, fit_c) = run_franson(cfg)
    p_early, p_center, p_late = (int(v) for v in
                                 summary[0].split(":")[1].split(","))
    p_ratio = (p_early + p_late) / p_center
    p_sigma = p_ratio * math.sqrt(1.0 / (p_early + p_late) + 1.0 / p_center)
    check(failures, abs(p_ratio - 1.0) <= 3.0 * p_sigma,
          f"pipeline peak ratio {p_ratio:.3f} off 1:2:1 beyond 3 sigma")
    check(failures, 0.93 <= fit_q.visibility <= 0.99,
          f"fitted visibility {fit_q.visibility:.4f} outside [0.93, 0.99]")
    report(8, failures,
           f"peaks {early}/{center}/{late} at -1.6/0/+1.6 ns "
           f"(ratio {ratio:.3f}); harmonics (2, 1); pipeline visibility "
           f"{fit_q.visibility:.4f} +- {fit_q.visibility_sigma:.4f}")


# --- criterion 9: loss-independent rate estimator ---------------------------

def test_criterion_09_pgr_estimator():
    failures = []

    def run(signal_losses, index):
        model = SourceModel(
            pump_power_uw=1.0, pgr_slope_mhz_per_uw=5.0,
            saturation_rate_mhz=None, pair_lifetime_ps=200.0,
            signal_losses_db=signal_losses, idler_losses_db=(),
            detector_efficiency=1.0, dark_rate_hz=0.0, jitter_sigma_ps=0.0,
            min_pair_spacing_ps=0.0, idler_delay_sign=1)
        stream = generate_events(model, 2.0,
                                 derive_seed(MASTER_SEED, 0x900 + index))
        return (two_fold_metrics(stream, window_ps=2000),
                stream.n_pairs_generated)

    res_a, n_pairs = run((), 0)
    check(failures, n_pairs >= 9_900_000,
          f"lossless run generated only {n_pairs} pairs")
    true_rate = 5.0e6
    err = abs(res_a.pgr_estimate_hz - true_rate) / true_rate
    check(failures, err <= 0.02,
          f"lossless estimate {res_a.pgr_estimate_hz:.0f} Hz off by "
          f"{err:.2%}")
    res_b, _ = run((10.0,), 1)
    sigma = res_a.pgr_estimate_hz * math.sqrt(1.0 / res_a.n12
                                              + 1.0 / res_b.n12)
    dev = (res_b.pgr_estimate_hz - res_a.pgr_estimate_hz) / sigma
    check(failures, abs(dev) <= 3.0,
          f"10 dB asymmetric loss moved the estimate {dev:+.2f} sigma")
    report(9, failures,
           f"lossless estimate off by {err:.2%} on {n_pairs} pairs; "
           f"10 dB asymmetric loss shifts it {dev:+.2f} sigma")


# --- criterion 10: determinism and stream format -----------------------------

def test_criterion_10_determinism(tmp_path, monkeypatch):
    failures = []
    model = SourceModel(
        pump_power_uw=1.0, pgr_slope_mhz_per_uw=2.0,
        saturation_rate_mhz=None, pair_lifetime_ps=200.0,
        signal_losses_db=(3.0,), idler_losses_db=(3.0,),
        detector_efficiency=1.0, dark_rate_hz=50.0, jitter_sigma_ps=20.0,
        min_pair_spacing_ps=0.0, idler_delay_sign=1)
    seed = derive_seed(MASTER_SEED, 0xA00)
    paths = []
    for name in ("a.ttps", "b.ttps"):
        stream = generate_events(model, 0.05, seed)
        path = tmp_path / name
        write_events(stream, str(path))
        paths.append(path)
    check(failures, paths[0].read_bytes() == paths[1].read_bytes(),
          "two same-seed event files differ byte for byte")

    stream = generate_events(model, 0.05, seed)
    back = read_events(str(paths[0]))
    check(failures,
          all(np.array_equal(a, b) for a, b in
              zip(merged(stream)[:2], merged(back)[:2])),
          "binary event file did not round-trip record-exactly")

    tables = []
    rows_by_cpus = []
    cfg = parse_config("""
[sweep]
powers_uw = 0.3, 0.6
duration_s = 0.05
""")
    for n_cpus in (1, 2):
        monkeypatch.setattr(pipeline, "_cpus", lambda n=n_cpus: n)
        columns, rows, _ = run_power_sweep(cfg)
        rows_by_cpus.append(rows)
        tables.append(format_table(columns, rows))
    check(failures, rows_by_cpus[0] == rows_by_cpus[1],
          "sweep rows differ between 1 and 2 workers")
    check(failures, tables[0] == tables[1],
          "sweep tables differ between 1 and 2 workers")

    spectra = []
    for _ in range(2):
        columns, rows, _ = run_spectrum(default_config())
        spectra.append(format_table(columns, rows))
    check(failures, spectra[0] == spectra[1],
          "spectrum tables differ between two same-seed runs")
    report(10, failures,
           "event files byte-identical, record-exact round trip, tables "
           "identical across reruns and worker counts")
