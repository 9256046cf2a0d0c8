import numpy as np
import pytest

from diskspdc.events import (
    EventFormatError,
    EventStream,
    SourceModel,
    arm_transmission,
    generate_events,
    read_events,
    write_events,
)

# saturating rate law at 27.3 uW, slope 5.13 MHz/uW, ceiling 5385 MHz,
# frozen from 140.049 / (1 + 140.049/5385)
RATE_AT_27P3 = 136.49903647913348


def quiet_model(**kw):
    """Lossless, jitter-free, dark-free defaults for deterministic checks."""
    base = dict(pump_power_uw=1.0, pgr_slope_mhz_per_uw=1.0,
                detector_efficiency=1.0, dark_rate_hz=0.0,
                jitter_sigma_ps=0.0)
    base.update(kw)
    return SourceModel(**base)


def test_saturating_rate_law():
    m = SourceModel(pump_power_uw=27.3, pgr_slope_mhz_per_uw=5.13,
                    saturation_rate_mhz=5385.0)
    assert m.pair_rate_mhz == pytest.approx(RATE_AT_27P3, rel=1e-12)
    linear = SourceModel(pump_power_uw=27.3, pgr_slope_mhz_per_uw=5.13)
    assert linear.pair_rate_mhz == pytest.approx(5.13 * 27.3, rel=1e-12)


def test_arm_transmission():
    assert arm_transmission(()) == 1.0
    assert arm_transmission((), 0.85) == 0.85
    assert arm_transmission((3.0, 3.0), 0.85) == pytest.approx(
        0.2135103466783143, rel=1e-12)
    assert arm_transmission((2.2, 2.4, 4.0, 8.7, 3.0, 4.0), 0.85) == \
        pytest.approx(0.0031580494473259653, rel=1e-12)
    with pytest.raises(ValueError):
        arm_transmission((-1.0,))


def test_model_validation():
    with pytest.raises(ValueError):
        SourceModel(pump_power_uw=-1.0)
    with pytest.raises(ValueError):
        SourceModel(pgr_slope_mhz_per_uw=0.0)
    with pytest.raises(ValueError):
        SourceModel(pair_lifetime_ps=0.0)
    with pytest.raises(ValueError):
        SourceModel(detector_efficiency=0.0)
    with pytest.raises(ValueError):
        SourceModel(idler_delay_sign=0)
    with pytest.raises(ValueError):
        SourceModel(signal_channels=(0,), idler_channels=(0,))
    with pytest.raises(ValueError):
        SourceModel(signal_channels=())
    with pytest.raises(ValueError):
        SourceModel(signal_channels=(0, 300), idler_channels=(1,))


def test_generation_is_deterministic_across_chunks():
    # 3e6 pairs straddles the internal chunk boundary
    m = quiet_model(pgr_slope_mhz_per_uw=3.0)
    a = generate_events(m, 1.0, seed=42)
    b = generate_events(m, 1.0, seed=42)
    assert a.n_pairs_generated == b.n_pairs_generated > 2 ** 21
    assert np.array_equal(a.channels, b.channels)
    assert np.array_equal(a.timestamps_ps, b.timestamps_ps)
    assert a.channels.dtype == np.uint8
    assert a.timestamps_ps.dtype == np.int64
    c = generate_events(m, 1.0, seed=43)
    assert not np.array_equal(a.timestamps_ps, c.timestamps_ps)


def test_stream_is_sorted_and_in_range():
    m = quiet_model(dark_rate_hz=200.0, jitter_sigma_ps=40.0,
                    pgr_slope_mhz_per_uw=0.05)
    s = generate_events(m, 0.5, seed=7)
    assert np.all(np.diff(s.timestamps_ps) >= 0)
    assert s.timestamps_ps[0] >= 0
    assert s.timestamps_ps[-1] < s.duration_ps
    assert set(np.unique(s.channels)) <= {0, 1}


def test_rounded_timestamps_stay_below_duration():
    # 20 GHz of darks in 1 ns: rounding can reach t == duration_ps, which
    # the cut on the rounded integer times must drop
    m = SourceModel(pump_power_uw=0, dark_rate_hz=2e10)
    for seed in range(200):
        s = generate_events(m, 1e-9, seed=seed)
        assert np.all(s.timestamps_ps >= 0)
        assert np.all(s.timestamps_ps < s.duration_ps)


def test_pair_count_follows_rate():
    m = quiet_model(pgr_slope_mhz_per_uw=2.0)
    s = generate_events(m, 0.5, seed=11)
    expect = 1e6
    assert abs(s.n_pairs_generated - expect) < 5.0 * np.sqrt(expect)
    # lossless: every pair contributes one click per arm
    assert s.n_channel(0) == s.n_pairs_generated
    assert abs(s.n_channel(1) - s.n_pairs_generated) < 5  # boundary clips


def test_losses_thin_each_arm():
    m = quiet_model(pgr_slope_mhz_per_uw=1.0,
                    signal_losses_db=(10.0,), idler_losses_db=(3.0,))
    s = generate_events(m, 0.5, seed=3)
    n = s.n_pairs_generated
    for ch, t in ((0, 0.1), (1, 10 ** -0.3)):
        got = s.n_channel(ch)
        assert abs(got - n * t) < 5.0 * np.sqrt(n * t * (1 - t) + 1)


def test_idler_delay_sign():
    from diskspdc.tcspc import calibrate_peak_delay

    for sign in (+1, -1):
        m = quiet_model(pgr_slope_mhz_per_uw=0.1, idler_delay_sign=sign,
                        pair_lifetime_ps=400.0)
        s = generate_events(m, 0.2, seed=5)
        # the delay histogram is one-sided, so its peak carries the sign
        assert np.sign(calibrate_peak_delay(s, 0, 1)) == sign


def test_renewal_source_enforces_dead_time():
    m = quiet_model(pgr_slope_mhz_per_uw=0.1, min_pair_spacing_ps=1e6,
                    pair_lifetime_ps=1.0)
    s = generate_events(m, 0.2, seed=9)
    spacings = np.diff(s.channel_times(0))
    assert len(spacings) > 100
    assert spacings.min() >= 1e6 - 2  # integer rounding


def test_channel_splitting():
    m = quiet_model(pgr_slope_mhz_per_uw=0.5,
                    signal_channels=(0, 2), idler_channels=(1,))
    s = generate_events(m, 0.2, seed=13)
    n0, n2 = s.n_channel(0), s.n_channel(2)
    total = n0 + n2
    assert total == s.n_pairs_generated
    assert abs(n0 - total / 2) < 5.0 * np.sqrt(total) / 2


def test_darks_only():
    m = quiet_model(pump_power_uw=0.0, dark_rate_hz=1000.0)
    s = generate_events(m, 1.0, seed=17)
    assert s.n_pairs_generated == 0
    for ch in (0, 1):
        assert abs(s.n_channel(ch) - 1000) < 5.0 * np.sqrt(1000)


def test_zero_duration():
    s = generate_events(quiet_model(), 0.0, seed=1)
    assert len(s) == 0
    with pytest.raises(ValueError):
        generate_events(quiet_model(), -1.0, seed=1)


def test_binary_round_trip(tmp_path):
    m = quiet_model(pgr_slope_mhz_per_uw=0.02, dark_rate_hz=50.0)
    s = generate_events(m, 0.1, seed=21)
    path = tmp_path / "events.ttps"
    write_events(s, path)
    back = read_events(path, duration_ps=s.duration_ps)
    assert np.array_equal(back.channels, s.channels)
    assert np.array_equal(back.timestamps_ps, s.timestamps_ps)
    assert back.duration_ps == s.duration_ps
    # without the duration hint the last timestamp bounds the stream
    assert read_events(path).duration_ps == int(s.timestamps_ps[-1]) + 1


def test_csv_round_trip(tmp_path):
    m = quiet_model(pgr_slope_mhz_per_uw=0.01)
    s = generate_events(m, 0.1, seed=23)
    path = tmp_path / "events.csv"
    write_events(s, path)
    text = path.read_text().splitlines()
    assert text[0] == "channel,timestamp_ps"
    back = read_events(path, duration_ps=s.duration_ps)
    assert np.array_equal(back.channels, s.channels)
    assert np.array_equal(back.timestamps_ps, s.timestamps_ps)


def test_format_errors(tmp_path):
    p = tmp_path / "bad.ttps"
    p.write_bytes(b"\x00\x01")
    with pytest.raises(EventFormatError):
        read_events(p)
    good = tmp_path / "good.ttps"
    s = generate_events(quiet_model(pgr_slope_mhz_per_uw=0.001), 0.1, seed=2)
    write_events(s, good)
    raw = good.read_bytes()
    (tmp_path / "magic.ttps").write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(EventFormatError):
        read_events(tmp_path / "magic.ttps")
    (tmp_path / "cut.ttps").write_bytes(raw[:-3])
    with pytest.raises(EventFormatError):
        read_events(tmp_path / "cut.ttps")
    # version field sits after the 4-byte magic
    (tmp_path / "ver.ttps").write_bytes(raw[:4] + b"\x63\x00\x00\x00"
                                        + raw[8:])
    with pytest.raises(EventFormatError):
        read_events(tmp_path / "ver.ttps")
    with pytest.raises(ValueError):
        write_events(s, tmp_path / "x.bin", fmt="hdf5")


def test_stream_helpers():
    s = EventStream(channels=np.array([0, 1, 0], dtype=np.uint8),
                    timestamps_ps=np.array([10, 20, 30], dtype=np.int64),
                    duration_ps=100)
    assert len(s) == 3
    assert s.n_channel(0) == 2
    assert list(s.channel_times(1)) == [20]
