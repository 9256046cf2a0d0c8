"""Output checks for the benchmark workloads.

Nothing here compares against a saved copy of earlier output.  Every
expected value is derived from the config's physical parameters with the
formulas below, or is a property the method must have (an exact integer
recount, a definition, a conservation rule).  Every statistical bound is
Z = 5 standard deviations of the counting error it covers; where an
expectation depends on an unreported quantity (the calibrated peak position
in `sweep`), the bound spans every value that quantity can take.

The source model the expectations use: pairs form a Poisson process of rate
R = s*P / (1 + s*P/S) (slope s, pump power P, saturation rate S, or s*P
without saturation); each photon survives its arm with probability
T = 10^(-sum(loss_dB)/10) * detector_efficiency; each channel adds dark
counts at rate d.  The idler-minus-signal delay of a pair is an exponential
of mean tau (the pair lifetime) plus the difference of two Gaussian jitters,
a Gaussian of width sqrt(2)*jitter.
"""

from __future__ import annotations

import csv
import io
import math
import re
import struct

import numpy as np

Z = 5.0
OFFSET_WINDOWS = 20          # accidental windows of two_fold_metrics
OFFSET_RANGE_PS = (5_000, 50_000)
HISTOGRAM_BIN_PS = 10        # calibration histogram of two_fold_metrics
HISTOGRAM_SPAN_PS = 8_000
WING_NS = 10.0               # g2 delays treated as uncorrelated
TTPS_HEADER = struct.Struct("<4sIH6s")
TTPS_RECORD = np.dtype([("channel", "u1"), ("t", "<u8")])


class Report:
    """Collects named pass/fail results with a one-line detail each."""

    def __init__(self):
        self.results: list[dict] = []

    def expect(self, name, ok, detail=""):
        self.results.append({"name": name, "ok": bool(ok), "detail": detail})

    def near(self, name, observed, expected, sigma, note=""):
        self.expect(name, abs(observed - expected) <= Z * sigma,
                    f"{observed:.6g} vs {expected:.6g} +- {Z:g} x "
                    f"{sigma:.3g}{note}")

    def within(self, name, observed, lo, hi, note=""):
        self.expect(name, lo <= observed <= hi,
                    f"{observed:.6g} in [{lo:.6g}, {hi:.6g}]{note}")

    def equal(self, name, observed, expected, rel=0.0):
        ok = (observed == expected if rel == 0.0
              else math.isclose(observed, expected, rel_tol=rel))
        self.expect(name, ok, f"{observed!r} vs {expected!r}")


# -- output parsing ---------------------------------------------------------

def _value(text: str):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def parse_output(text: str):
    """CLI stdout -> (summary lines without '# ', list of row dicts)."""
    lines = text.splitlines()
    summary = [ln[2:] for ln in lines if ln.startswith("# ")]
    table = "\n".join(ln for ln in lines if not ln.startswith("#"))
    rows = [{k: _value(v) for k, v in row.items()}
            for row in csv.DictReader(io.StringIO(table))]
    return summary, rows


def _numbers(line: str) -> list[float]:
    return [float(x) for x in re.findall(r"-?\d+(?:\.\d+)?(?:e-?\d+)?",
                                         line.split(":", 1)[-1])]


def _summary_line(summary, prefix):
    return next(ln for ln in summary if ln.startswith(prefix))


# -- source model -----------------------------------------------------------

def pair_rate_hz(slope_mhz_per_uw, power_uw, saturation_mhz=None) -> float:
    linear = slope_mhz_per_uw * power_uw
    if saturation_mhz is not None:
        linear = linear / (1.0 + linear / saturation_mhz)
    return linear * 1e6


def transmission(losses_db, efficiency) -> float:
    return 10.0 ** (-sum(losses_db) / 10.0) * efficiency


def _phi(z):
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def delay_cdf(x, lifetime_ps, sigma_ps, sign=1) -> float:
    """P(delay <= x) for sign * Exp(lifetime) + Normal(0, sigma)."""
    if sign < 0:
        return 1.0 - delay_cdf(-x, lifetime_ps, sigma_ps)
    if sigma_ps == 0:
        return 0.0 if x <= 0 else 1.0 - math.exp(-x / lifetime_ps)
    if x < -12 * sigma_ps:
        return 0.0
    s, tau = sigma_ps, lifetime_ps
    return _phi(x / s) - math.exp(-x / tau + s * s / (2 * tau * tau)) \
        * _phi(x / s - s / tau)


class Delays:
    """Integer-picosecond pair delays of one source config."""

    def __init__(self, source):
        self.lifetime = source.pair_lifetime_ps
        self.sigma = math.sqrt(2.0) * source.jitter_sigma_ps
        self.sign = source.idler_delay_sign

    def share(self, lo, hi) -> float:
        """Share of pairs whose integer delay lies in [lo, hi]."""
        f = lambda x: delay_cdf(x, self.lifetime, self.sigma, self.sign)
        return f(hi + 0.5) - f(lo - 0.5)

    def capture(self, peak_ps, window_ps) -> float:
        half = window_ps / 2
        return self.share(peak_ps - half, peak_ps + half)

    def peak_range(self, true_pairs, accidentals_per_ps):
        """Every calibrated peak position within Z sigma of the mode.

        The calibration takes the arg-max of a 10 ps histogram.  A bin can
        win only if its expected count is within Z sigma of the highest
        expected count, so the reported peak lies among those bins.
        """
        half = HISTOGRAM_SPAN_PS // 2
        lows = np.arange(-half, half, HISTOGRAM_BIN_PS)
        lam = np.array([true_pairs * self.share(lo, lo + HISTOGRAM_BIN_PS - 1)
                        for lo in lows]) \
            + accidentals_per_ps * HISTOGRAM_BIN_PS
        top = lam.max()
        near = lows[top - lam <= Z * np.sqrt(top + lam)]
        centre = HISTOGRAM_BIN_PS // 2
        return int(near.min()) + centre, int(near.max()) + centre

    def capture_range(self, peaks, window_ps):
        caps = [self.capture(p, window_ps)
                for p in range(peaks[0], peaks[1] + 1)]
        return min(caps), max(caps)


def _count_interval(expected_lo, expected_hi):
    """Poisson count interval spanning Z sigma around [lo, hi]."""
    return (expected_lo - Z * math.sqrt(expected_lo),
            expected_hi + Z * math.sqrt(expected_hi))


def _near_count(report, name, observed, expected):
    report.near(name, observed, expected, math.sqrt(expected))


# -- g2 ---------------------------------------------------------------------

def check_g2(report, cfg, text):
    _, rows = parse_output(text)
    src, g = cfg.source, cfg.g2
    rate = pair_rate_hz(src.pgr_slope_mhz_per_uw, g.pump_power_uw,
                        src.saturation_rate_mhz) * cfg.spectrum.peak_fraction
    t_idler = transmission(g.losses_db, src.detector_efficiency)
    n_idler = rows[0]["n_idler"]
    n_is1 = rows[0]["n_is1"]
    _near_count(report, "g2.n_idler", n_idler,
                (rate * t_idler + src.dark_rate_hz) * g.duration_s)
    report.expect("g2.definition", all(
        math.isclose(r["g2"], r["n_triples"] * n_idler
                     / (n_is1 * r["n_is2"]), rel_tol=1e-12)
        for r in rows), "g2 = N_is1s2 N_i / (N_is1 N_is2) on every row")

    # Far from the peak the s2 window holds only photons of other pairs,
    # which are independent of the herald: g2 = 1.
    wing = [r for r in rows if abs(r["tau_ns"]) >= WING_NS - 1e-9]
    var = sum(1.0 / (n_is1 * r["n_is2"] / n_idler) + 1.0 / r["n_is2"]
              for r in wing)
    report.near("g2.wing_mean", sum(r["g2"] for r in wing) / len(wing), 1.0,
                math.sqrt(var) / len(wing))

    # At zero delay a triple needs the herald's partner in one output and
    # an uncorrelated photon in the other: g2(0) = 2 lambda / eta.
    zero = min(rows, key=lambda r: abs(r["tau_ns"]))
    wing_is2 = sum(r["n_is2"] for r in wing)
    lam = wing_is2 / len(wing) / n_idler
    eta = n_is1 / n_idler - lam
    g2_zero = 2.0 * lam / eta
    triples = g2_zero * n_is1 * zero["n_is2"] / n_idler
    report.near("g2.zero_delay_triples", zero["n_triples"], triples,
                math.sqrt(triples + triples ** 2 / wing_is2))


# -- franson ----------------------------------------------------------------

def check_franson(report, cfg, text):
    summary, rows = parse_output(text)
    early, central, late = (int(x) for x in _numbers(
        _summary_line(summary, "arrival-time peaks")))
    vis, vis_sigma = (float(x) for x in re.search(
        r"= (\S+) \+- (\S+)",
        _summary_line(summary, "quantum visibility")).groups())
    src, f, umi = cfg.source, cfg.franson, cfg.umi
    rate = pair_rate_hz(src.pgr_slope_mhz_per_uw, src.pump_power_uw,
                        src.saturation_rate_mhz) * cfg.spectrum.peak_fraction
    singles = [(rate * transmission(losses, src.detector_efficiency)
                + src.dark_rate_hz) for losses in (src.signal_losses_db,
                                                  src.idler_losses_db)]
    window = int(umi.postselect_window_ps)
    accidentals = singles[0] * singles[1] * (window + 1) * 1e-12 \
        * f.duration_s

    # Same-path pairs (SS + LL) fill the central peak, cross paths the two
    # side peaks, each half of the pairs; every window adds accidentals.
    side = early + late
    report.near("franson.side_minus_central", side - central, accidentals,
                math.sqrt(side + central),
                f"; (early + late) / central = {side / central:.4f}")

    # quantum counts = (C - A) s (1 + V cos 2xi) + A s, and cos 2xi sums to
    # zero over a full period: the mean is C s.
    counts = [r["quantum_counts"] for r in rows]
    mean_expected = central * f.integration_s / f.duration_s
    report.near("franson.quantum_mean", sum(counts) / len(counts),
                mean_expected, math.sqrt(mean_expected / len(counts)))

    share = (central - accidentals) / central
    sigma = math.hypot(vis_sigma, f.visibility
                       * math.sqrt(accidentals / OFFSET_WINDOWS) / central)
    report.near("franson.quantum_visibility", vis, f.visibility * share,
                sigma)


# -- sweep ------------------------------------------------------------------

def check_sweep(report, cfg, text):
    _, rows = parse_output(text)
    src, sw = cfg.source, cfg.sweep
    delays = Delays(src)
    t_arm = transmission(sw.losses_db, src.detector_efficiency)
    dur = sw.duration_s
    for row in rows:
        p = row["power_uw"]
        tag = f"sweep.{p:g}uW"
        rate = pair_rate_hz(src.pgr_slope_mhz_per_uw, p,
                            src.saturation_rate_mhz if sw.apply_saturation
                            else None)
        report.equal(tag + ".pair_rate", row["pair_rate_mhz"], rate * 1e-6,
                     rel=1e-12)
        singles = (rate * t_arm + src.dark_rate_hz) * dur
        _near_count(report, tag + ".n1", row["n1"], singles)
        _near_count(report, tag + ".n2", row["n2"], singles)

        n1, n2 = row["n1"], row["n2"]
        true_pairs = rate * t_arm * t_arm * dur
        acc_per_ps = n1 * n2 / (dur * 1e12)
        peaks = delays.peak_range(true_pairs, acc_per_ps)

        # N1 N2 / (N12 T) is biased against R by the capture fraction of
        # the window and by the accidentals inside it.
        w = int(sw.rate_window_ps)
        cap_lo, cap_hi = delays.capture_range(peaks, w)
        acc = acc_per_ps * (w + 1)
        n12_lo, n12_hi = _count_interval(true_pairs * cap_lo + acc,
                                         true_pairs * cap_hi + acc)
        estimate = n1 * n2 / dur * 1e-6
        report.within(tag + ".pgr_estimate", row["pgr_estimate_mhz"],
                      estimate / n12_hi, estimate / n12_lo,
                      f"; estimate / R = "
                      f"{row['pgr_estimate_mhz'] / (rate * 1e-6):.4f}, "
                      f"peak in [{peaks[0]}, {peaks[1]}] ps")

        w = int(sw.car_window_ps)
        cap_lo, cap_hi = delays.capture_range(peaks, w)
        acc = acc_per_ps * (w + 1)
        n12_lo, n12_hi = _count_interval(true_pairs * cap_lo + acc,
                                         true_pairs * cap_hi + acc)
        acc_lo, acc_hi = (x / OFFSET_WINDOWS for x in _count_interval(
            acc * OFFSET_WINDOWS, acc * OFFSET_WINDOWS))
        report.within(tag + ".car", row["car"], n12_lo / acc_hi,
                      n12_hi / acc_lo)


# -- replay -----------------------------------------------------------------

def read_ttps(path):
    """Independent reader: 16-byte header, then 9-byte u8/u64 records.

    Returns the header fields and the record bytes, unparsed.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    magic, version, n_channels, reserved = TTPS_HEADER.unpack_from(blob)
    header = {"magic": magic, "version": version, "n_channels": n_channels,
              "reserved": reserved}
    return header, blob[TTPS_HEADER.size:]


def _rank(sorted_b, sorted_q, strict):
    """Per query, how many of sorted_b are < q (strict) or <= q.

    One stable merge of the two sorted integer arrays: with the queries
    placed first, equal values of b sort after them, so only smaller b
    precede a query; placed last, equal b precede it too.
    """
    n_q = len(sorted_q)
    if strict:
        merged = np.concatenate([sorted_q, sorted_b])
        is_q = np.argsort(merged, kind="stable") < n_q
    else:
        merged = np.concatenate([sorted_b, sorted_q])
        is_q = np.argsort(merged, kind="stable") >= len(sorted_b)
    return np.flatnonzero(is_q) - np.arange(n_q)


def recount_windows(t_a, t_b, centres, half):
    """Exact pair counts with t_b - t_a in each closed window c +- half.

    Gathers every delay inside the union span of the windows once, sorts
    it, and counts each window on the sorted delays; integers throughout.
    """
    lo = _rank(t_b, t_a + (min(centres) - half), strict=True)
    hi = _rank(t_b, t_a + (max(centres) + half), strict=False)
    per_a = hi - lo
    first = np.repeat(lo - (np.cumsum(per_a) - per_a), per_a)
    idx = first + np.arange(int(per_a.sum()))
    delays = np.sort(t_b[idx] - np.repeat(t_a, per_a))
    edges_lo = np.array([c - half for c in centres], dtype=np.int64)
    edges_hi = np.array([c + half for c in centres], dtype=np.int64)
    order = np.argsort(edges_lo)   # edges_hi shares this order
    below = np.empty(len(centres), dtype=np.int64)
    upto = np.empty(len(centres), dtype=np.int64)
    below[order] = _rank(delays, edges_lo[order], strict=True)
    upto[order] = _rank(delays, edges_hi[order], strict=False)
    return [int(x) for x in upto - below]


def check_replay(report, device_cfg, source_cfg, texts, events_path):
    spectrum, simulate, coinc = texts
    _, rows = parse_output(spectrum)
    peak = max(rows, key=lambda r: r["strength"])
    signal_family = device_cfg.matching.pairs[0].signal
    anchor = next(f.anchor_wavelength_nm
                  for f in device_cfg.resonator.families
                  if f.id == signal_family)
    report.expect("replay.spectrum_peak_holds_anchor",
                  peak["lo_nm"] <= anchor < peak["hi_nm"],
                  f"{anchor} nm in [{peak['lo_nm']}, {peak['hi_nm']})")
    _near_count(report, "replay.spectrum_total_counts",
                sum(r["counts"] for r in rows),
                sum(r["expected_counts"] for r in rows))

    _, (sim,) = parse_output(simulate)
    src = source_cfg.source
    rate = pair_rate_hz(src.pgr_slope_mhz_per_uw, src.pump_power_uw,
                        src.saturation_rate_mhz)
    dur = source_cfg.sweep.duration_s
    t_s = transmission(src.signal_losses_db, src.detector_efficiency)
    t_i = transmission(src.idler_losses_db, src.detector_efficiency)
    report.equal("replay.pair_rate", sim["pair_rate_mhz"], rate * 1e-6,
                 rel=1e-12)
    _near_count(report, "replay.pairs_generated", sim["n_pairs_generated"],
                rate * dur)
    _near_count(report, "replay.n_signal", sim["n_signal"],
                (rate * t_s + src.dark_rate_hz) * dur)
    _near_count(report, "replay.n_idler", sim["n_idler"],
                (rate * t_i + src.dark_rate_hz) * dur)

    header, body = read_ttps(events_path)
    report.expect("replay.file_header",
                  header["magic"] == b"TTPS" and header["version"] == 1
                  and header["n_channels"] == 2
                  and header["reserved"] == bytes(6), repr(header))
    whole = len(body) % TTPS_RECORD.itemsize == 0
    report.expect("replay.file_size", whole,
                  f"16 + {len(body)} bytes, 9 per record")
    if not whole:
        return
    records = np.frombuffer(body, dtype=TTPS_RECORD)
    channels, times = records["channel"], records["t"].astype(np.int64)
    duration_ps = round(dur * 1e12)
    report.expect("replay.file_times",
                  bool(np.all(np.diff(times) >= 0)) and times[0] >= 0
                  and times[-1] < duration_ps,
                  f"sorted, within [0, {duration_ps}) ps")
    t_sig, t_idl = times[channels == 0], times[channels == 1]
    report.equal("replay.file_n_signal", len(t_sig), sim["n_signal"])
    report.equal("replay.file_n_idler", len(t_idl), sim["n_idler"])
    report.equal("replay.file_n_events", len(times),
                 sim["n_signal"] + sim["n_idler"])

    _, (co,) = parse_output(coinc)
    report.equal("replay.coinc_n1", co["n1"], sim["n_signal"])
    report.equal("replay.coinc_n2", co["n2"], sim["n_idler"])
    window = int(src.coincidence_window_ps)
    report.equal("replay.coinc_window", co["window_ps"], window)
    p = co["peak_delay_ps"]
    per_side = OFFSET_WINDOWS // 2
    first, last = OFFSET_RANGE_PS
    offsets = [first + k * (last - first) // (per_side - 1)
               for k in range(per_side)]
    centres = [p] + [p + o for o in offsets] + [p - o for o in offsets]
    counts = recount_windows(t_sig, t_idl, centres, window // 2)
    report.equal("replay.recount_n12", co["n12"], counts[0])
    report.equal("replay.recount_accidentals", co["accidental_mean"],
                 sum(counts[1:]) / OFFSET_WINDOWS, rel=1e-12)

    # Expected value of the N1 N2 / (N12 T) estimator at this peak.
    n1, n2 = co["n1"], co["n2"]
    true_pairs = rate * t_s * t_i * dur
    acc = n1 * n2 * (window + 1) / (dur * 1e12)
    n12 = true_pairs * Delays(src).capture(p, window) + acc
    n12_lo, n12_hi = _count_interval(n12, n12)
    estimate = n1 * n2 / co["duration_s"] * 1e-6
    report.within("replay.pgr_estimate", co["pgr_estimate_mhz"],
                  estimate / n12_hi, estimate / n12_lo,
                  f"; estimate / R = "
                  f"{co['pgr_estimate_mhz'] / (rate * 1e-6):.4f}")
