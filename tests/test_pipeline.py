import dataclasses
import math
import os

import numpy as np
import pytest

from diskspdc.config import SourceSection, default_config, parse_config
from diskspdc.events import SourceModel
from diskspdc.franson import extract_visibility
from diskspdc.pipeline import (_ramp_reference_nm, build_system,
                               channel_pair_rate_hz, derive_seed,
                               dispersion_ramp, find_triple, run_coinc,
                               run_franson, run_g2, run_match, run_modes,
                               run_power_sweep, run_scan, run_simulate,
                               run_spectrum, run_trace, scan_table)
from diskspdc import events, pipeline, tcspc
from diskspdc.tcspc import dwdm_channel_index

from streams import short_blocks


def test_derive_seed_golden():
    assert derive_seed(12345, 0) == 2454886589211414944
    assert derive_seed(12345, 1) == 18133564086679993456
    assert derive_seed(12345, 6) == 11865894196000964985
    assert derive_seed(0, 0) == 16294208416658607535
    assert derive_seed(12345, 0x5EE9) == 3563120413024115685


def test_derive_seed_distinct_and_ranged():
    seeds = {derive_seed(12345, i) for i in range(64)}
    assert len(seeds) == 64
    assert all(0 <= s < 2 ** 64 for s in seeds)
    assert derive_seed(12345, 3) != derive_seed(12346, 3)


def test_build_system_structure():
    cfg = default_config()
    sys_ = build_system(cfg)
    assert sys_.pump.m == 824
    assert sys_.pump.wavelength_nm == 774.86
    assert sys_.comb_band_nm == (1531.0, 1569.4)
    # combs exist only for families referenced by a pair, not the pump
    assert "pump" not in sys_.combs
    assert len(sys_.combs) == 10
    assert len(sys_.families) == 11
    assert len(sys_.pairs) == 5
    assert sys_.pairs[0].overlap == 1.0


def test_build_system_requires_pump_anchor():
    cfg = parse_config("""
[resonator.family]
id = only
polarization = TM

[matching]
pump_family = only

[matching.pair]
signal = only
idler = only
""")
    with pytest.raises(ValueError, match="anchor"):
        build_system(cfg)


def test_scan_covers_filter_band():
    cfg = default_config()
    entries, grid, _ = run_scan(cfg)
    assert len(grid) == 38
    assert len(entries) == 40
    window = cfg.matching.window_fraction * cfg.matching.linewidth_ghz
    assert all(abs(e.delta_f_ghz) <= window for e in entries)
    assert max(e.strength for e in entries) == 1.0


def test_scan_table_channels():
    cfg = default_config()
    columns, rows, summary = scan_table(cfg)
    assert columns == ("signal_nm", "idler_nm", "delta_m", "delta_f_ghz",
                       "channel", "strength")
    assert summary == ["matched triples: 40"]
    channels = {r[4] for r in rows}
    # every filter channel holds a triple; one covering entry sits just
    # outside the grid (idler in band, reference wavelength below it)
    assert set(range(38)) <= channels
    assert channels - set(range(38)) == {-1}
    strongest = max(rows, key=lambda r: r[5])
    assert strongest[4] == 21
    assert strongest[2] == 1


def test_spectrum_deterministic():
    cfg = default_config()
    cols_a, rows_a, summ_a = run_spectrum(cfg)
    cols_b, rows_b, summ_b = run_spectrum(cfg)
    assert rows_a == rows_b
    assert summ_a == summ_b
    assert len(rows_a) == 38
    peak = max(rows_a, key=lambda r: r[5])
    assert peak[0] == 21
    assert peak[1] <= 1552.52 < peak[2]
    assert all(isinstance(r[8], int) and r[8] >= 0 for r in rows_a)
    assert all(r[4] >= 1 for r in rows_a)


def test_channel_pair_rate_tracks_source():
    cfg = default_config()
    # saturating law r = slope*P / (1 + slope*P/sat), then the per-channel
    # fraction of the collective rate
    slope = cfg.source.pgr_slope_mhz_per_uw
    sat = cfg.source.saturation_rate_mhz
    for power in (1.0, 46.5):
        linear = slope * power
        expected = linear / (1.0 + linear / sat) * 1e6 * 0.0178
        assert channel_pair_rate_hz(cfg, power) == pytest.approx(expected)


# a value other than the default, and admitted by the config, for every
# [source] key but coincidence_window_ps, which generation does not read
OTHER_SOURCE = {
    "pump_power_uw": "12.5",
    "pgr_slope_mhz_per_uw": "4.5",
    "saturation_rate_mhz": "900",
    "pair_lifetime_ps": "120",
    "signal_losses_db": "1.5, 2.5",
    "idler_losses_db": "0.5",
    "detector_efficiency": "0.5",
    "dark_rate_hz": "250",
    "jitter_sigma_ps": "15",
    "min_pair_spacing_ps": "1",
    "idler_delay_sign": "-1",
}


class _Handed(Exception):
    """Carries the SourceModel that a run handed on, and stops the run."""


def _handed_model(monkeypatch, name, run, *args):
    """The SourceModel that run(*args) hands to pipeline.<name>."""
    def stop(*handed, **_):
        raise _Handed(*(a for a in handed if isinstance(a, SourceModel)))

    monkeypatch.setattr(pipeline, "_cpus", lambda: 1)
    monkeypatch.setattr(pipeline, name, stop)
    with pytest.raises(_Handed) as handed:
        run(*args)
    (model,) = handed.value.args
    return model


@pytest.mark.parametrize("key", [f.name for f in dataclasses.fields(
    SourceSection) if f.name != "coincidence_window_ps"])
def test_every_source_key_reaches_the_model(monkeypatch, key):
    # build_source carries each [source] key, and each caller that
    # overrides some of them changes only those; a key added without an
    # OTHER_SOURCE value fails here
    cfg = parse_config(f"[source]\n{key} = {OTHER_SOURCE[key]}\n")
    assert getattr(cfg.source, key) != getattr(default_config().source, key)

    def assert_carries(model, **overridden):
        want = vars(cfg.source) | overridden
        assert {k: getattr(model, k) for k in want} == want

    slope = cfg.source.pgr_slope_mhz_per_uw
    assert_carries(pipeline.build_source(cfg))
    assert_carries(pipeline._channel_source(cfg, 2.5e5),
                   pump_power_uw=2.5e5 * 1e-6 / slope,
                   saturation_rate_mhz=None)
    power, losses = cfg.sweep.powers_uw[-1], cfg.sweep.losses_db
    assert_carries(
        _handed_model(monkeypatch, "event_blocks", pipeline._sweep_point,
                      (cfg, power, 1)),
        pump_power_uw=power, saturation_rate_mhz=None,
        signal_losses_db=losses, idler_losses_db=losses)
    rate_hz = channel_pair_rate_hz(cfg, cfg.g2.pump_power_uw)
    assert_carries(
        _handed_model(monkeypatch, "_drawn_fold", run_g2, cfg),
        pump_power_uw=rate_hz * 1e-6 / slope, saturation_rate_mhz=None,
        signal_losses_db=cfg.g2.losses_db, idler_losses_db=cfg.g2.losses_db,
        signal_channels=(0, 2), idler_channels=(1,))


def test_dispersion_ramp():
    cfg = default_config()
    ramp = dispersion_ramp(cfg)
    entries, _, _ = run_scan(cfg)
    refs = [_ramp_reference_nm(e.triple) for e in entries]
    cutoff = cfg.matching.dispersion_cutoff_nm
    below = entries[refs.index(min(refs))].triple
    assert ramp(below) == 0.0
    above_idx = max(range(len(refs)), key=lambda k: refs[k])
    above = entries[above_idx].triple
    rate = cfg.matching.dispersion_ramp_ghz_per_nm
    assert ramp(above) == pytest.approx(rate * (refs[above_idx] - cutoff))
    assert ramp(above) > 0.0
    assert dispersion_ramp(parse_config(
        "[matching]\ndispersion_ramp_ghz_per_nm = 0.0\n")) is None
    assert dispersion_ramp(parse_config(
        "[matching]\ndispersion_cutoff_nm = none\n")) is None


def test_run_modes():
    cfg = default_config()
    sys_ = build_system(cfg)
    columns, rows, _ = run_modes(cfg)
    assert columns[0] == "family"
    assert {r[0] for r in rows} == set(sys_.combs)
    lo, hi = sys_.comb_band_nm
    assert all(lo <= r[2] <= hi for r in rows)
    columns, rows, _ = run_modes(cfg, family_id="pump")
    assert len(rows) == 11
    assert all(r[0] == "pump" for r in rows)
    with pytest.raises(ValueError, match="no family"):
        run_modes(cfg, family_id="nope")


def test_run_match():
    cfg = default_config()
    columns, rows, summary = run_match(cfg)
    assert len(rows) == 48
    assert rows == sorted(rows, key=lambda r: (r[0], r[1]))
    assert {r[4] for r in rows} == {-1, 1}
    assert all(abs(r[5]) <= cfg.matching.energy_tol_ghz for r in rows)
    assert summary == ["48 triples within 1 GHz"]


def test_find_triple():
    cfg = default_config()
    t = find_triple(cfg, 1)
    assert t.delta_m == 1
    assert abs(t.delta_f_ghz) < 0.01
    t = find_triple(cfg, -1)
    assert t.delta_m == -1
    with pytest.raises(ValueError, match="no triple"):
        find_triple(cfg, 99)


def test_run_trace():
    cfg = default_config()
    columns, rows, summary = run_trace(cfg)
    assert columns == ("theta_rad", "re_amplitude", "im_amplitude",
                       "intensity")
    assert len(rows) == cfg.matching.grid_points + 1
    assert rows[0][0] == 0.0
    assert rows[0][3] == 0.0
    assert rows[-1][0] == pytest.approx(2.0 * math.pi)
    assert all(r[3] >= 0.0 for r in rows)
    assert "delta_m = 1" in summary[0]
    two_turn = run_trace(cfg, delta_m=-1, n_turns=2)[1]
    assert len(two_turn) == 2 * cfg.matching.grid_points + 1
    assert two_turn[-1][0] == pytest.approx(4.0 * math.pi)


def test_run_power_sweep_tiny(monkeypatch):
    monkeypatch.setattr(pipeline, "_cpus", lambda: 1)
    cfg = parse_config("""
[source]
jitter_sigma_ps = 0.0

[sweep]
powers_uw = 0.4, 0.8
duration_s = 0.2
losses_db = 3.0
""")
    columns, rows, summary = run_power_sweep(cfg)
    assert columns == ("power_uw", "pair_rate_mhz", "n1", "n2", "n12",
                       "pgr_estimate_mhz", "car")
    assert [r[0] for r in rows] == [0.4, 0.8]
    slope = cfg.source.pgr_slope_mhz_per_uw
    for power, rate_mhz, n1, n2, n12, pgr_mhz, car in rows:
        assert rate_mhz == pytest.approx(slope * power)  # saturation off
        assert n12 > 1000
        assert pgr_mhz == pytest.approx(slope * power, rel=0.05)
        # CAR tracks capture/(r*w); generous band, the acceptance tests
        # pin it statistically
        r_hz = slope * power * 1e6
        cf = 0.8646647167633873 / (r_hz * cfg.sweep.car_window_ps * 1e-12)
        assert cf / 1.5 < car < cf * 1.5
    assert rows[0][6] > rows[1][6]
    assert "fitted rate slope" in summary[0]


def test_sweep_pool_takes_the_longest_points_first(monkeypatch):
    cfg = parse_config("""
[sweep]
powers_uw = 0.2, 0.4, 0.8
duration_s = 0.02
losses_db = 3.0
""")
    submitted = []
    workers = []

    def in_order(fn, points, n_workers):
        """Worker processes that run in this one, in submission order."""
        workers.append(n_workers)
        submitted.extend(p[1] for p in points)
        return [fn(p) for p in points]

    monkeypatch.setattr(pipeline, "_cpus", lambda: 1)
    serial = run_power_sweep(cfg)
    monkeypatch.setattr(pipeline, "_in_processes", in_order)
    # no more workers than points are started; the fake starts no process
    # at any CPU count
    for n_cpus in (2, 1000):
        monkeypatch.setattr(pipeline, "_cpus", lambda n=n_cpus: n)
        del submitted[:]
        assert run_power_sweep(cfg) == serial
        assert submitted == [0.8, 0.4, 0.2]
    assert workers == [2, 3]


def test_worker_count_follows_the_cpu_affinity(monkeypatch):
    # pinned to one CPU (taskset -c 0), the sweep runs inline: it used to
    # fork os.cpu_count() workers onto that one CPU
    cfg = parse_config("""
[sweep]
powers_uw = 0.2, 0.4
duration_s = 0.02
""")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "_cpus", lambda: 1)
        want = run_power_sweep(cfg)

    def no_workers(*args):
        raise AssertionError("worker processes were started for one CPU")

    monkeypatch.setattr(pipeline, "_in_processes", no_workers)
    monkeypatch.setattr(pipeline.os, "cpu_count", lambda: 8)
    monkeypatch.setattr(pipeline.os, "sched_getaffinity", lambda pid: {3},
                        raising=False)
    assert pipeline._cpus() == 1
    assert run_power_sweep(cfg) == want
    # where the platform has no affinity call, every CPU counts
    monkeypatch.delattr(pipeline.os, "sched_getaffinity")
    assert pipeline._cpus() == 8


def test_run_simulate_coinc_roundtrip(tmp_path):
    cfg = parse_config("""
[source]
pump_power_uw = 1.0
pgr_slope_mhz_per_uw = 2.0
saturation_rate_mhz = none
signal_losses_db = 3.0
idler_losses_db = 3.0
jitter_sigma_ps = 10.0
dark_rate_hz = 0.0

[sweep]
duration_s = 0.05
""")
    path = str(tmp_path / "events.bin")
    columns, rows, summary = run_simulate(cfg, path)
    assert columns == ("duration_s", "n_pairs_generated", "n_signal",
                       "n_idler", "pair_rate_mhz")
    (duration, n_pairs, n_sig, n_idl, rate_mhz) = rows[0]
    assert duration == pytest.approx(0.05)
    assert rate_mhz == 2.0
    assert n_pairs == pytest.approx(100000, abs=5 * math.sqrt(100000))
    assert 0 < n_sig < n_pairs
    assert summary[0].endswith(path)

    from_file = run_coinc(cfg, events_path=path)[1][0]
    fresh = run_coinc(cfg)[1][0]
    # the stored stream carries no duration, so the reader infers it from
    # the last event; counts and CAR must agree exactly
    assert from_file[:6] == fresh[:6]
    assert from_file[8] == fresh[8]
    assert from_file[6] == pytest.approx(fresh[6], rel=1e-4)
    assert from_file[7] == pytest.approx(fresh[7], rel=1e-3)
    assert fresh[8] > 100.0
    assert abs(fresh[4]) < 100


def test_run_g2_tiny():
    cfg = parse_config("""
[g2]
pump_power_uw = 5.0
duration_s = 0.3
window_ps = 400
tau_max_ns = 2.0
tau_points = 5
losses_db = 2.0
""")
    columns, rows, summary = run_g2(cfg)
    assert columns == ("tau_ns", "g2", "n_triples", "n_idler", "n_is1",
                       "n_is2")
    assert len(rows) == 5
    assert [r[0] for r in rows] == [-2.0, -1.0, 0.0, 1.0, 2.0]
    assert all(r[1] >= 0.0 for r in rows)
    assert all(r[3] > 10000 for r in rows)
    center = rows[2]
    assert center[1] < 0.05  # deep antibunching at this pump level
    assert "g2(0)" in summary[1]


def test_run_g2_draws_its_blocks_in_its_shard_processes(monkeypatch,
                                                        tmp_path):
    # blocks of about 2^10 events: on 2 CPUs each of the two time shards
    # draws and folds its blocks in a worker process of its own, and the
    # rows are those of one pass in this process
    cfg = parse_config("[g2]\nduration_s = 0.02\ntau_points = 11\n")
    log = tmp_path / "drawn"

    def recorded(model, duration_s, seed, shard):
        for block in events.event_blocks(model, duration_s, seed, shard):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            yield block

    def drawn_on(n_cpus):
        monkeypatch.setattr(pipeline, "_cpus", lambda: n_cpus)
        log.write_text("")
        rows = run_g2(cfg)
        return rows, set(log.read_text().split())

    monkeypatch.setattr(pipeline, "event_blocks", recorded)
    with short_blocks(1 << 10, 1 << 20):
        plain, one = drawn_on(1)
        sharded, two = drawn_on(2)
    assert one == {str(os.getpid())}
    assert len(two) == 2 and str(os.getpid()) not in two
    # repr: the rows hold NaN, which equals nothing
    assert repr(sharded) == repr(plain)


def test_run_franson_tiny():
    cfg = parse_config("""
[source]
pump_power_uw = 10.0
signal_losses_db = 3.0
idler_losses_db = 3.0
jitter_sigma_ps = 5.0
dark_rate_hz = 0.0

[franson]
duration_s = 0.4
integration_s = 1.2
xi_points = 16
""")
    columns, rows, summary = run_franson(cfg)
    xi = np.array([r[0] for r in rows])
    fit_q = extract_visibility(xi, np.array([r[1] for r in rows]), harmonic=2)
    fit_c = extract_visibility(xi, np.array([r[2] for r in rows]), harmonic=1)
    assert len(rows) == 16
    assert all(isinstance(r[1], int) and r[1] >= 0 for r in rows)
    early, center, late = (int(v) for v in
                           summary[0].split(":")[1].split(","))
    assert center > 1000
    assert (early + late) / center == pytest.approx(1.0, abs=0.1)
    assert fit_q.visibility == pytest.approx(cfg.franson.visibility,
                                             abs=0.01)
    assert fit_c.visibility == pytest.approx(cfg.franson.visibility,
                                             abs=0.01)
    assert fit_q.harmonic == 2
    assert fit_c.harmonic == 1


def test_one_gather_per_channel_pair(monkeypatch):
    # inline, so that every gather is counted in this process
    monkeypatch.setattr(pipeline, "_cpus", lambda: 1)
    cfg = parse_config("""
[source]
pump_power_uw = 10.0
jitter_sigma_ps = 5.0

[sweep]
powers_uw = 0.4, 0.8, 1.2
duration_s = 0.01
losses_db = 3.0

[franson]
duration_s = 2.0
xi_points = 8
""")
    spans = []
    gather = tcspc.coincidences

    def counted(times_a, times_b, lo_ps, hi_ps):
        spans.append((lo_ps, hi_ps, len(times_a)))
        return gather(times_a, times_b, lo_ps, hi_ps)

    monkeypatch.setattr(tcspc, "coincidences", counted)
    rows = run_power_sweep(cfg)[1]
    # one span for both windows, the wider rate window's, and each signal
    # event gathered once, the highest power first
    assert [s[:2] for s in spans] == [tcspc.two_fold_span(2400)] * 3
    assert [s[2] for s in spans] == [row[2] for row in reversed(rows)]
    spans.clear()
    # franson folds its blocks, drawn routed: one gather per released
    # batch of signal events, all over one span, each signal event gathered
    # once.  Blocks of about 2^10 events make several batches.
    folds = []
    fold = pipeline.fold_delays
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(events, "_BLOCK_EVENTS", 1 << 10)
        mp.setattr(pipeline, "fold_delays", lambda *args, **kw:
                   folds.append(fold(*args, **kw)) or folds[-1])
        run_franson(cfg)
    assert len(spans) > 1 and len({s[:2] for s in spans}) == 1
    assert sum(s[2] for s in spans) == folds[0].n_a
    spans.clear()
    n1 = run_coinc(cfg)[1][0][0]
    assert spans == [(*tcspc.two_fold_span(800), n1)]
