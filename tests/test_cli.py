import json
import multiprocessing
import os

import pytest

from diskspdc import pipeline
from diskspdc.cli import main

TINY_CFG = """
seed = 777

[source]
pump_power_uw = 10.0
signal_losses_db = 3.0
idler_losses_db = 3.0
jitter_sigma_ps = 5.0
dark_rate_hz = 0.0

[sweep]
powers_uw = 0.5, 1.0
duration_s = 0.05
losses_db = 3.0

[g2]
pump_power_uw = 5.0
duration_s = 0.2
window_ps = 400
tau_max_ns = 2.0
tau_points = 5
losses_db = 2.0

[franson]
duration_s = 0.3
integration_s = 0.9
xi_points = 12
"""


def run_cli(argv, capsys):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def table_lines(out):
    return [ln for ln in out.splitlines() if not ln.startswith("#")]


def write_cfg(tmp_path, text=TINY_CFG):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


def test_help_includes_config_reference(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for name in ("modes", "match", "trace", "scan", "simulate", "coinc",
                 "g2", "franson", "spectrum", "sweep", "run"):
        assert name in out
    assert "pump_power_uw" in out
    assert "[resonator.family]" in out


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "diskspdc" in capsys.readouterr().out


def test_bad_config_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("[source]\nnot_a_key = 1\n")
    rc, out, err = run_cli(["modes", "-c", str(path)], capsys)
    assert rc == 2
    assert err.startswith("config error:")
    assert "bad.cfg:2" in err


@pytest.mark.parametrize("command,section,key,value", [
    ("coinc", "source", "coincidence_window_ps", "6000"),
    ("coinc", "source", "coincidence_window_ps", "0.5"),
    ("franson", "umi", "postselect_window_ps", "0.6"),
    ("franson", "umi", "postselect_window_ps", "4000"),
    ("g2", "g2", "window_ps", "0.5"),
])
def test_windows_the_analysis_rejects_fail_at_the_config(
        tmp_path, capsys, command, section, key, value):
    path = tmp_path / "w.cfg"
    path.write_text(f"[{section}]\n{key} = {value}\n")
    rc, out, err = run_cli([command, "-c", str(path)], capsys)
    assert rc == 2
    assert err.startswith(f"config error: {path}:2: {section}.{key} must be")


def test_missing_config_file(capsys):
    rc, out, err = run_cli(["modes", "-c", "/no/such/file.cfg"], capsys)
    assert rc == 2
    assert err.startswith("config error:")


def test_seed_range_check(capsys):
    rc, out, err = run_cli(["modes", "--family", "pump", "--seed", "-1"],
                           capsys)
    assert rc == 2
    assert "--seed" in err


def test_missing_events_file(capsys):
    rc, out, err = run_cli(["coinc", "--events", "/no/such/events.bin"],
                           capsys)
    assert rc == 3
    assert err.startswith("error:")


def test_run_without_experiment_key(capsys):
    rc, out, err = run_cli(["run"], capsys)
    assert rc == 2
    assert "experiment" in err


def test_modes_csv_output(capsys):
    rc, out, err = run_cli(["modes", "--family", "pump"], capsys)
    assert rc == 0
    assert err == ""
    lines = table_lines(out)
    assert lines[0] == "family,m,wavelength_nm,frequency_ghz,fsr_nm," \
                       "linewidth_ghz"
    assert len(lines) == 12  # header + 11 pump resonances
    assert all(ln.startswith("pump,") for ln in lines[1:])
    assert any(ln.startswith("#") for ln in out.splitlines())


def test_json_output(capsys):
    rc, out, err = run_cli(["modes", "--family", "pump", "-f", "json"],
                           capsys)
    assert rc == 0
    # stdout is one JSON document; the summary lines go to stderr
    doc = json.loads(out)
    assert doc["columns"][:2] == ["family", "m"]
    assert len(doc["rows"]) == 11
    assert err and all(ln.startswith("# ") for ln in err.splitlines())


def test_reruns_byte_identical(capsys):
    rc_a, out_a, _ = run_cli(["scan"], capsys)
    rc_b, out_b, _ = run_cli(["scan"], capsys)
    assert rc_a == rc_b == 0
    assert out_a == out_b


def test_seed_changes_spectrum_counts(capsys):
    rc_a, out_a, _ = run_cli(["spectrum", "--seed", "7"], capsys)
    rc_b, out_b, _ = run_cli(["spectrum", "--seed", "8"], capsys)
    assert rc_a == rc_b == 0
    assert out_a != out_b


def test_out_file(tmp_path, capsys):
    rc, out, err = run_cli(["modes", "--family", "pump"], capsys)
    assert rc == 0
    table = "\n".join(table_lines(out)) + "\n"
    out_path = tmp_path / "modes.csv"
    rc, out2, err = run_cli(["modes", "--family", "pump", "-o",
                             str(out_path)], capsys)
    assert rc == 0
    assert f"# wrote {out_path}" in out2
    assert out_path.read_text() == table


def test_unwritable_out_file_exit_code(tmp_path, capsys):
    out_path = tmp_path / "missing_dir" / "modes.csv"
    rc, out, err = run_cli(["modes", "--family", "pump", "-o",
                            str(out_path)], capsys)
    assert rc == 3
    assert err.startswith("error:")
    assert out == ""


def test_trace_options(capsys):
    rc, out, err = run_cli(["trace", "--delta-m", "-1", "--turns", "2"],
                           capsys)
    assert rc == 0
    lines = table_lines(out)
    assert lines[0] == "theta_rad,re_amplitude,im_amplitude,intensity"
    assert len(lines) == 2 * 4096 + 2
    assert "delta_m = -1" in out


def test_simulate_coinc_roundtrip(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    ev = str(tmp_path / "ev.ttps")
    rc, out, err = run_cli(["simulate", "-c", cfg, "--events", ev,
                            "--duration", "0.02"], capsys)
    assert rc == 0
    assert (tmp_path / "ev.ttps").exists()

    rc, out, err = run_cli(["coinc", "-c", cfg, "--events", ev], capsys)
    assert rc == 0
    lines = table_lines(out)
    assert lines[0].startswith("n1,n2,n12,")
    n12 = int(lines[1].split(",")[2])
    assert n12 > 100


def test_coinc_events_honours_duration(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    ev = str(tmp_path / "ev.ttps")
    assert run_cli(["simulate", "-c", cfg, "--events", ev,
                    "--duration", "0.02"], capsys)[0] == 0
    durations = []
    for extra in ([], ["--duration", "0.02"]):
        rc, out, err = run_cli(["coinc", "-c", cfg, "--events", ev, *extra],
                               capsys)
        assert rc == 0, err
        durations.append(float(table_lines(out)[1].split(",")[6]))
    guessed, given = durations
    assert given == 0.02
    assert guessed < given  # last timestamp + 1 ps
    # a duration that ends before the last event is an input error
    rc, out, err = run_cli(["coinc", "-c", cfg, "--events", ev,
                            "--duration", "0.01"], capsys)
    assert rc == 3
    assert "duration" in err
    # so is a duration that is not finite and positive, even for a file
    # with no events
    empty = str(tmp_path / "empty.ttps")
    assert run_cli(["simulate", "-c", cfg, "--events", empty,
                    "--duration", "0"], capsys)[0] == 0
    for bad in ("inf", "nan", "0", "-1"):
        rc, out, err = run_cli(["coinc", "-c", cfg, "--events", empty,
                                "--duration", bad], capsys)
        assert rc == 3, bad
        assert "duration" in err
    rc, out, err = run_cli(["simulate", "-c", cfg, "--events", empty,
                            "--duration", "inf"], capsys)
    assert rc == 3
    assert "duration" in err


def test_simulate_csv_events(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    ev = str(tmp_path / "ev.csv")
    rc, out, err = run_cli(["simulate", "-c", cfg, "--events", ev,
                            "--duration", "0.01"], capsys)
    assert rc == 0
    first = (tmp_path / "ev.csv").read_text().splitlines()[0]
    assert first == "channel,timestamp_ps"
    rc, out, err = run_cli(["coinc", "-c", cfg, "--events", ev], capsys)
    assert rc == 0


@pytest.mark.parametrize("seed", ["1", "12345"])
def test_the_path_suffix_picks_the_event_format(tmp_path, capsys, seed):
    cfg = write_cfg(tmp_path)
    tables = []
    for name in ("a.ttps", "a.csv"):
        ev = str(tmp_path / name)
        assert run_cli(["simulate", "-c", cfg, "--seed", seed, "--events", ev,
                        "--duration", "0.02"], capsys)[0] == 0
        rc, out, err = run_cli(["coinc", "-c", cfg, "--events", ev], capsys)
        assert rc == 0, err
        tables.append(out)
    assert tables[0] == tables[1]
    assert (tmp_path / "a.ttps").read_bytes()[:4] == b"TTPS"
    # the format has no option of its own
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--events-format", "csv", "--duration", "0.001",
              "--events", str(tmp_path / "b.csv")])
    assert exc.value.code == 2


@pytest.mark.parametrize("seed", ["1", "12345"])
def test_coinc_draws_the_stream_simulate_writes(tmp_path, capsys, seed):
    # both draw at the same seed index over the same duration: analysing
    # the written file gives the table of drawing the stream afresh
    ev = str(tmp_path / "f.ttps")
    rc, drawn, err = run_cli(["coinc", "--seed", seed, "--duration", "0.02"],
                             capsys)
    assert rc == 0, err
    assert run_cli(["simulate", "--seed", seed, "--duration", "0.02",
                    "--events", ev], capsys)[0] == 0
    rc, read, err = run_cli(["coinc", "--events", ev, "--duration", "0.02"],
                            capsys)
    assert rc == 0, err
    assert read == drawn
    assert "n12 =" in drawn


def test_run_dispatches_configured_experiment(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "experiment = scan\n")
    rc_run, out_run, _ = run_cli(["run", "-c", cfg], capsys)
    rc_scan, out_scan, _ = run_cli(["scan", "-c", cfg], capsys)
    assert rc_run == rc_scan == 0
    assert out_run == out_scan


def test_each_experiment_runs(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    for argv in (["match", "-c", cfg],
                 ["spectrum", "-c", cfg],
                 ["sweep", "-c", cfg],
                 ["g2", "-c", cfg],
                 ["franson", "-c", cfg],
                 ["coinc", "-c", cfg, "--duration", "0.02"]):
        rc, out, err = run_cli(argv, capsys)
        assert rc == 0, (argv, err)
        assert table_lines(out), argv


def test_duration_prints_as_given(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    ev = str(tmp_path / "ev.ttps")
    rc, out, err = run_cli(["simulate", "-c", cfg, "--events", ev,
                            "--duration", "0.1"], capsys)
    assert rc == 0, err
    assert table_lines(out)[1].split(",")[0] == "0.1"
    rc, out, err = run_cli(["coinc", "-c", cfg, "--events", ev,
                            "--duration", "0.1"], capsys)
    assert rc == 0, err
    assert table_lines(out)[1].split(",")[6] == "0.1"


def test_delay_span_past_the_cap_exit_code(tmp_path, capsys):
    # peak_areas reads the +-4 ns calibration span and a window one arm
    # delay D past either end: 2 D + 8800 one-ps bins, capped at 2^22
    for delay_ns, want in (("2092.752", 0), ("2092.753", 3)):
        cfg = write_cfg(tmp_path, TINY_CFG + f"\n[umi]\narm_delay_ns = "
                        f"{delay_ns}\n")
        rc, out, err = run_cli(["franson", "-c", cfg], capsys)
        assert rc == want, (delay_ns, err)
    assert "exceeds 4194304 one-ps bins" in err


def test_a_worker_that_dies_exits_3(monkeypatch, capsys):
    # a worker process that ends without its result is a runtime failure:
    # one error line and exit status 3, with every worker joined
    monkeypatch.setattr(pipeline, "_cpus", lambda: 2)
    monkeypatch.setattr(pipeline, "_sweep_point", lambda point: os._exit(9))
    rc, out, err = run_cli(["sweep", "--seed", "1"], capsys)
    assert rc == 3
    assert out == ""
    assert err.splitlines() == [
        "error: a worker process ended without its result"]
    assert multiprocessing.active_children() == []
