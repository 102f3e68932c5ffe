import json
import math
import os
import re
import subprocess
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from sorkin_lab.cli import (
    _COMMANDS,
    _DEFAULTS,
    EXIT_BAD_CONFIG,
    EXIT_MISSING_FILE,
    EXIT_OK,
    EXIT_UNWRITABLE,
    SUMMARY_JSON_SCHEMA,
    cmd_ideal,
    cmd_rwa_check,
    cmd_sensitivity,
    main,
    parse_config,
)
from sorkin_lab.born import ProbabilityRule
from sorkin_lab.detection import (
    BATCH_CSV_SCHEMA,
    KappaEstimate,
    Readout,
    _t_quantile,
    batch_csv_text,
    estimate_kappa,
    exact_probabilities,
    predicted_kappa_std,
    sample_batches,
)
from sorkin_lab.dynamics import _period_propagator, _pulse_propagator
from sorkin_lab.errors import ConfigError
from conftest import clear_propagator_memos


def _write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_empty_config_gives_defaults(tmp_path):
    cfg = parse_config(_write(tmp_path, "# nothing here\n"))
    echo = cfg.echo()
    assert echo["hamiltonian"]["D_hz"] == 2.87e9
    assert echo["hamiltonian"]["B_G"] == 510.0
    assert echo["amplitudes"]["a"] == pytest.approx(1 / math.sqrt(3))
    assert echo["measurement"]["theta1"] == pytest.approx(math.pi / 2)
    assert echo["rule"] == "born"
    assert echo["detection"]["shots"] == 2_000_000
    assert echo["batches"] == 50
    assert echo["master_seed"] == 42


def test_rule_and_shots_round_trip(tmp_path):
    cfg = parse_config(
        _write(tmp_path, "rule = triple:0.1\ndetection.shots = 123456\n")
    )
    assert cfg.rule.kind == "triple"
    assert cfg.rule.epsilon == pytest.approx(0.1)
    assert cfg.echo()["detection"]["shots"] == 123456


def test_measurement_preset(tmp_path):
    cfg = parse_config(_write(tmp_path, "measurement.preset = M2\n"))
    assert cfg.measurement.theta1 == pytest.approx(3 * math.pi / 2)
    assert cfg.measurement.theta2 == pytest.approx(math.pi / 2)
    with pytest.raises(ConfigError):
        parse_config(
            _write(tmp_path, "measurement.preset = M1\nmeasurement.theta1 = 1\n", "c2.cfg")
        )


def test_removed_t2star_key_exits_3(tmp_path):
    # removed in sorkin-lab.summary/4: no run read it
    path = _write(tmp_path, "hamiltonian.T2star_s = 1.5e-6\n")
    with pytest.raises(ConfigError, match="unknown config key 'hamiltonian.T2star_s'"):
        parse_config(path)
    out = tmp_path / "out"
    assert main(["simulate", "--config", path, "--out", str(out)]) == EXIT_BAD_CONFIG
    assert not out.exists()


def test_config_rejections(tmp_path):
    with pytest.raises(ConfigError, match="unknown config key"):
        parse_config(_write(tmp_path, "bogus = 1\n"))
    # removed in sorkin-lab.summary/3: it changed nothing but its own echo
    with pytest.raises(ConfigError, match="unknown config key"):
        parse_config(_write(tmp_path, "detection.readout_window_s = 3e-7\n", "w.cfg"))
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config(_write(tmp_path, "batches = 2\nbatches = 3\n", "d.cfg"))
    with pytest.raises(ConfigError, match="cannot parse"):
        parse_config(_write(tmp_path, "batches = many\n", "e.cfg"))
    with pytest.raises(ConfigError):
        parse_config(_write(tmp_path, "detection.mode = sometimes\n", "f.cfg"))
    with pytest.raises(ConfigError):
        parse_config(_write(tmp_path, "rule = bogus:1\n", "g.cfg"))
    with pytest.raises(ConfigError):
        parse_config(_write(tmp_path, "hamiltonian.B_G = -5\n", "h.cfg"))
    # a byte that is not UTF-8, in a value, in a comment (an encoded
    # surrogate), or past a lone carriage return, is refused by its line,
    # not as a traceback with exit 1, the code of a rejected Born null
    not_utf8 = [
        (b"batches = 5\xff\n", 1),
        (b"\xef\xbb\xbfbatches = 5\n# caf\xc3\xa9 \xed\xa0\x80\n", 2),
        (b"batches = 5\r# caf\xc3\xa9\rmaster_seed\xff = 3\n", 3),
    ]
    for i, (data, lineno) in enumerate(not_utf8):
        path = tmp_path / f"latin{i}.cfg"
        path.write_bytes(data)
        with pytest.raises(ConfigError, match=f"^line {lineno}: the file is not UTF-8$"):
            parse_config(str(path))
        out = tmp_path / f"latin{i}"
        assert main(["ideal", "--config", str(path), "--out", str(out)]) == EXIT_BAD_CONFIG
        assert not out.exists()
    angles =["measurement.theta1 = nan\n", "measurement.theta2 = inf\n"]
    for i, text in enumerate(angles):
        path = _write(tmp_path, text, f"angle{i}.cfg")
        with pytest.raises(ConfigError, match="finite"):
            parse_config(path)
        out = tmp_path / f"angle{i}"
        assert main(["ideal", "--config", path, "--out", str(out)]) == EXIT_BAD_CONFIG
        assert not out.exists()
    # every rule of the run and of the sensitivity grid is evaluated at
    # parse time; at this angle the measurement ket's |-1> amplitude is
    # about 5e-18, and the grid's triple eps = 0.01 drives a probability of
    # about -1e-20
    path = _write(tmp_path, "measurement.theta1 = -1e-17\n", "tiny.cfg")
    with pytest.raises(ConfigError, match="sensitivity.eps_grid: triple deformation"):
        parse_config(path)
    for command in ("sensitivity", "ideal"):
        out = tmp_path / f"tiny-{command}"
        assert main([command, "--config", path, "--out", str(out)]) == EXIT_BAD_CONFIG
        assert not out.exists()
    # drawn counts must stay exact in float64: at most 2**53 shots, and an
    # expected reference count lam with lam + 10 sqrt(lam) <= 2**53; at an
    # expected count of exactly 2**53 about half the references exceed it,
    # and at mu_bright = 1 the most shots is the largest n with
    # n + 10 sqrt(n) <= 2**53
    huge = [
        "detection.mu_bg = 1e9\ndetection.shots = 10000000000\n",
        "detection.mu_bright = 1e-12\ndetection.mu_bg = 0\n"
        "detection.shots = 10000000000000000000\n",
        "detection.mu_bright = 1\ndetection.mu_bg = 0\ndetection.shots = 9007199254740992\n",
    ]
    for i, (text, most) in enumerate(zip(huge, (9007198, 2**53, 9007198305678385))):
        path = _write(tmp_path, text, f"huge{i}.cfg")
        with pytest.raises(ConfigError, match=f"allow shots <= {most}$"):
            parse_config(path)
        out = tmp_path / f"huge{i}"
        assert main(["simulate", "--config", path, "--out", str(out)]) == EXIT_BAD_CONFIG
        assert not out.exists()
    # a simulated run draws at most MAX_BATCHES = 2**20 batches; beyond it
    # these counts ran out of memory or past numpy's largest dimension in
    # the draws, a traceback with exit 1, the code of a rejected Born null
    for i, many in enumerate((10**15, 10**20)):
        path = _write(tmp_path, f"batches = {many}\n", f"many{i}.cfg")
        too_many = (
            f"^batches: a simulated run draws at most MAX_BATCHES = 1048576 batches, got {many}$"
        )
        with pytest.raises(ConfigError, match=too_many):
            parse_config(path)
        for command in ("simulate", "sensitivity"):
            out = tmp_path / f"many{i}-{command}"
            assert main([command, "--config", path, "--out", str(out)]) == EXIT_BAD_CONFIG
            assert not out.exists()
    # an exact run draws nothing, so it keeps only its at-least-one rule
    text = "detection.mode = exact\nbatches = 1000000000000000\n"
    exact = _write(tmp_path, text, "many-exact.cfg")
    assert parse_config(exact).batches == 10**15
    # simulated mode reads out the expected estimates C*p + d, and their I2
    # must clear the floor too: this background makes C about 3.6e-11 and
    # the expected I2 about 2.3e-11, though the exact I2 is 0.64
    path = _write(tmp_path, "detection.mu_bg = 1e9\n", "background.cfg")
    with pytest.raises(ConfigError, match="rule: second-order .* floor .* expected readout"):
        parse_config(path)
    for command in ("ideal", "simulate", "sensitivity"):
        out = tmp_path / f"background-{command}"
        assert main([command, "--config", path, "--out", str(out)]) == EXIT_BAD_CONFIG
        assert not out.exists()
    exact = _write(tmp_path, "detection.mode = exact\ndetection.mu_bg = 1e9\n", "bg-exact.cfg")
    assert parse_config(exact).detection is None
    path = _write(tmp_path, "rule = triple:-1e6\n", "negative.cfg")
    with pytest.raises(ConfigError, match="rule: triple deformation"):
        parse_config(path)
    # a --measurement override is checked as the config key it sets: this
    # rule is physical at M2 but drives a probability negative at M1
    text = (
        "amplitudes.a = 0.8\namplitudes.b = -0.36\namplitudes.c = -0.48\n"
        "measurement.preset = M2\nrule = triple:-2\n"
    )
    path = _write(tmp_path, text, "override.cfg")
    assert parse_config(path).rule.label() == "triple:-2.0"
    out = tmp_path / "override"
    args = ["ideal", "--config", path, "--out", str(out), "--measurement", "M1"]
    assert main(args) == EXIT_BAD_CONFIG
    assert not out.exists()


def _flatten(echo):
    flat = {}
    for key, value in echo.items():
        if isinstance(value, dict):
            flat.update({f"{key}.{k}": v for k, v in value.items()})
        else:
            flat[key] = value
    return flat


def _echo_config_text(echo):
    """A report's config echo written back as ``key = value`` lines."""
    flat = _flatten(echo)
    preset = flat.pop("measurement.preset")
    if preset is not None:
        del flat["measurement.theta1"], flat["measurement.theta2"]
        flat["measurement.preset"] = preset
    lines = []
    for key, value in flat.items():
        if isinstance(value, list):
            value = ",".join(map(repr, value))
        lines.append(f"{key} = {value}\n")
    return "".join(lines)


def test_echo_has_every_key_at_its_default(tmp_path):
    flat = _flatten(parse_config(_write(tmp_path, "")).echo())
    assert flat.keys() == _DEFAULTS.keys()
    for key, default in _DEFAULTS.items():
        expected = list(default) if isinstance(default, tuple) else default
        assert flat[key] == expected, key


def test_echo_round_trips_through_a_config_file(tmp_path):
    text = (
        "hamiltonian.D_hz = 2.88e9\nhamiltonian.gamma_e_hz_per_G = 2.81e6\n"
        "hamiltonian.B_G = 500\nhamiltonian.omega1_hz = 2e7\n"
        "amplitudes.a = 0.6\namplitudes.b = -0.64\namplitudes.c = -0.48\n"
        "measurement.theta1 = 1.1\nmeasurement.theta2 = 0.3\n"
        "rule = triple:0.123456789\n"
        "detection.mode = exact\ndetection.mu_bright = 0.2\n"
        "detection.contrast = 0.25\ndetection.mu_bg = 0.002\n"
        "detection.shots = 5000\n"
        "batches = 3\nmaster_seed = 9\n"
        "sensitivity.rule_family = exponent\nsensitivity.eps_grid = 0,0.2,-0.5\n"
    )
    echo = parse_config(_write(tmp_path, text)).echo()
    for key, value in _flatten(echo).items():
        default = _DEFAULTS[key]
        if key != "measurement.preset":
            assert value != (list(default) if isinstance(default, tuple) else default), key
    again = parse_config(_write(tmp_path, _echo_config_text(echo), "echo.cfg")).echo()
    assert again == echo


@pytest.mark.parametrize(
    "text",
    [
        "",
        "rule = triple:0.123456789\nmeasurement.preset = M2\n"
        "batches = 5\ndetection.shots = 412\n",
        "detection.mode = exact\nsensitivity.rule_family = exponent\nbatches = 3\n"
        "hamiltonian.omega1_hz = 2e7\n"
        "amplitudes.a = 0.6\namplitudes.b = -0.64\namplitudes.c = -0.48\n"
        "measurement.theta1 = 1.1\n",
    ],
    ids=["defaults", "triple-M2", "exact-exponent"],
)
def test_every_artifact_reruns_byte_identically_from_its_echo(tmp_path, text):
    path = _write(tmp_path, text)
    for command in ("ideal", "simulate", "rwa-check", "schedule", "sensitivity"):
        first, again = tmp_path / command, tmp_path / f"{command}-echo"
        assert main([command, "--config", path, "--out", str(first), "--seed", "1"]) == EXIT_OK
        (report,) = first.glob("*.json")  # each command writes one JSON report
        echo = json.loads(report.read_text(encoding="utf-8"))["config"]
        echo_path = _write(tmp_path, _echo_config_text(echo), f"{command}-echo.cfg")
        assert main([command, "--config", echo_path, "--out", str(again)]) == EXIT_OK
        names = sorted(f.name for f in first.iterdir())
        assert names == sorted(f.name for f in again.iterdir())
        for name in names:
            assert (first / name).read_bytes() == (again / name).read_bytes(), name


def _run(tmp_path, capsys, name, command, path, *flags):
    """(exit code, stdout, {artifact name: bytes}) of one CLI run."""
    out = tmp_path / name
    rc = main([command, "--config", path, "--out", str(out), *flags])
    files = {f.name: f.read_bytes() for f in out.iterdir()} if out.exists() else {}
    return rc, capsys.readouterr().out, files


@pytest.mark.parametrize("command", _COMMANDS)
def test_overrides_are_byte_identical_to_config_keys(tmp_path, capsys, command):
    base = "batches = 3\ndetection.shots = 50000\nsensitivity.eps_grid = 0,0.05\n"
    # the overrides replace a given seed and drop the given angles
    flagged = _write(tmp_path, base + "master_seed = 3\nmeasurement.theta1 = 1.1\n", "f.cfg")
    keyed = _write(tmp_path, base + "master_seed = 7\nmeasurement.preset = M2\n", "k.cfg")
    by_flags = _run(tmp_path, capsys, "flags", command, flagged, "--seed", "7", "--measurement", "M2")
    by_keys = _run(tmp_path, capsys, "keys", command, keyed)
    assert by_flags[0] == EXIT_OK
    assert by_flags[2]
    assert by_flags == by_keys


@pytest.mark.parametrize("command", _COMMANDS)
def test_main_writes_and_prints_what_the_subcommand_returns(
    tmp_path, capsys, monkeypatch, command
):
    text = "batches = 3\ndetection.shots = 50000\nsensitivity.eps_grid = 0,0.05\n"
    path = _write(tmp_path, text)
    monkeypatch.chdir(tmp_path)
    result = _COMMANDS[command](parse_config(path))
    # the subcommand itself neither prints nor writes
    assert capsys.readouterr() == ("", "")
    assert os.listdir(tmp_path) == ["run.cfg"]
    rc, out, files = _run(tmp_path, capsys, "o", command, path)
    assert rc == result.exit_code == EXIT_OK
    assert out == "".join(line + "\n" for line in result.stdout)
    assert files == {name: body.encode() for name, body in result.artifacts.items()}


def test_unwritable_artifacts_exit_4_and_leave_none_behind(tmp_path, capsys):
    path = _write(tmp_path, "batches = 3\ndetection.shots = 50000\n")
    # --out names an existing file
    blocker = tmp_path / "file"
    blocker.write_text("kept\n")
    assert main(["ideal", "--config", path, "--out", str(blocker)]) == EXIT_UNWRITABLE
    assert blocker.read_text() == "kept\n"
    # the summary's path is a directory: the CSV written before it is removed
    out = tmp_path / "o"
    (out / "simulate_summary.json").mkdir(parents=True)
    assert main(["simulate", "--config", path, "--out", str(out)]) == EXIT_UNWRITABLE
    assert [f.name for f in out.iterdir()] == ["simulate_summary.json"]
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("error: cannot write") == 2


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_closed_stdout_exits_4_and_leaves_no_artifacts(tmp_path, unbuffered):
    # a pipe whose read end is already closed, as after `| head -1`; a
    # buffered stdout still holds the text when the interpreter exits
    read_end, write_end = os.pipe()
    os.close(read_end)
    out = tmp_path / "o"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "sorkin_lab.cli", "ideal",
             "--config", _write(tmp_path, ""), "--out", str(out)],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == EXIT_UNWRITABLE
    assert proc.stderr.decode().startswith("error: cannot write")
    assert b"Traceback" not in proc.stderr and b"Exception ignored" not in proc.stderr
    assert list(out.iterdir()) == []


def test_measurement_override_replaces_explicit_angles(tmp_path, capsys):
    path = _write(tmp_path, "measurement.theta1 = 1.1\nmeasurement.theta2 = 0.3\n")
    rc, _, files = _run(tmp_path, capsys, "o", "ideal", path, "--measurement", "M1")
    assert rc == EXIT_OK
    measurement = json.loads(files["ideal_report.json"])["config"]["measurement"]
    assert measurement == {"preset": "M1", "theta1": math.pi / 2, "theta2": math.pi / 2}


def test_negative_seed_override_rejected(tmp_path, capsys):
    path = _write(tmp_path, "")
    out = tmp_path / "o"
    assert main(["ideal", "--config", path, "--out", str(out), "--seed", "-1"]) == EXIT_BAD_CONFIG
    assert "master_seed" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["schedule", "rwa-check"])
def test_unschedulable_target_creates_no_out(tmp_path, capsys, command):
    path = _write(tmp_path, "amplitudes.a = 0\namplitudes.b = 0.6\namplitudes.c = -0.8\n")
    assert _run(tmp_path, capsys, "o", command, path)[0] == EXIT_BAD_CONFIG
    assert not (tmp_path / "o").exists()


def test_rwa_check_refuses_a_pulse_too_long_to_trust(tmp_path, capsys):
    # at 1 kHz the MW2 pi pulse spans about 2.15e6 drive periods, whose power
    # used to fail the state's norm check on roundoff
    path = _write(tmp_path, "hamiltonian.omega1_hz = 1e3\n")
    out = tmp_path / "o"
    assert main(["rwa-check", "--config", path, "--out", str(out)]) == EXIT_BAD_CONFIG
    assert not out.exists()
    err = capsys.readouterr().err
    assert re.search(r"spans \d+ drive periods, more than the maximum 32768", err)
    # no other subcommand propagates a pulse
    assert _run(tmp_path, capsys, "s", "schedule", path)[0] == EXIT_OK


@pytest.mark.parametrize(
    "text,key",
    [("rule = triple:50\n", "rule"), ("sensitivity.eps_grid = 0,50\n", "sensitivity.eps_grid")],
    ids=["rule", "grid"],
)
def test_unsampleable_probability_rejected_in_simulated_mode(tmp_path, capsys, text, key):
    # the counting model samples Binomial(N, p), so p above 1 cannot run
    path = _write(tmp_path, text)
    with pytest.raises(ConfigError, match=rf"{key}: true probability .* outside \[0, 1\]"):
        parse_config(path)
    for command in _COMMANDS:
        out = tmp_path / command
        assert main([command, "--config", path, "--out", str(out)]) == EXIT_BAD_CONFIG
        assert not out.exists()
    # exact mode takes unnormalised probabilities as they are
    exact = _write(tmp_path, "detection.mode = exact\n" + text, "exact.cfg")
    assert main(["ideal", "--config", exact, "--out", str(tmp_path / "exact")]) == EXIT_OK


def test_no_second_order_interference_rejected_at_parse_time(tmp_path):
    # at theta1 = pi every pairwise term vanishes up to rounding (I2 ~ 1e-16),
    # so kappa is undefined: ideal used to exit 3 only at run time, simulate
    # and sensitivity to exit 0 with kappa normalised by noise alone
    path = _write(tmp_path, "measurement.theta1 = 3.141592653589793\n")
    with pytest.raises(ConfigError, match="rule: second-order interference .* floor"):
        parse_config(path)
    for command in ("ideal", "simulate", "sensitivity"):
        out = tmp_path / command
        assert main([command, "--config", path, "--out", str(out)]) == EXIT_BAD_CONFIG
        assert not out.exists()


def test_missing_config_exit_code(tmp_path):
    rc = main(["ideal", "--config", str(tmp_path / "nope.cfg")])
    assert rc == EXIT_MISSING_FILE


def test_bad_config_exit_code(tmp_path):
    path = _write(tmp_path, "nonsense.key = 1\n")
    rc = main(["ideal", "--config", path, "--out", str(tmp_path / "o")])
    assert rc == EXIT_BAD_CONFIG


def test_a_byte_order_mark_is_not_part_of_the_first_key(tmp_path, capsys):
    # editors that save UTF-8 with a byte-order mark put it before the first key
    text = "batches = 60\ndetection.shots = 50000\n"
    marked = tmp_path / "marked.cfg"
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
    by_marked = _run(tmp_path, capsys, "marked", "simulate", str(marked))
    assert by_marked[0] == EXIT_OK
    assert by_marked == _run(tmp_path, capsys, "plain", "simulate", _write(tmp_path, text))


def test_ideal_report(tmp_path, capsys):
    path = _write(tmp_path, "")
    out = tmp_path / "out"
    assert main(["ideal", "--config", path, "--out", str(out)]) == EXIT_OK
    payload = json.loads((out / "ideal_report.json").read_text())
    assert payload["command"] == "ideal"
    assert abs(payload["report"]["I3"]) < 1e-12
    assert payload["report"]["I2"] == pytest.approx(0.638071, abs=1e-6)
    assert abs(payload["report"]["kappa"]) < 1e-12
    assert payload["config"]["detection"]["shots"] == 2_000_000
    assert payload["version"]
    # ideal reports exact probabilities alone, so the report names no provenance
    assert sorted(payload["report"]) == ["I2", "I3", "kappa", "p", "q", "second_order"]
    assert "kappa" in capsys.readouterr().out


def test_ideal_independent_of_detection_params(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    cfg_a = _write(tmp_path, "detection.shots = 1000\n", "a.cfg")
    cfg_b = _write(tmp_path, "detection.shots = 9000000\ndetection.contrast = 0.9\n", "b.cfg")
    assert main(["ideal", "--config", cfg_a, "--out", str(out_a)]) == EXIT_OK
    assert main(["ideal", "--config", cfg_b, "--out", str(out_b)]) == EXIT_OK
    rep_a = json.loads((out_a / "ideal_report.json").read_text())["report"]
    rep_b = json.loads((out_b / "ideal_report.json").read_text())["report"]
    assert rep_a == rep_b


def test_simulate_outputs_and_determinism(tmp_path):
    path = _write(tmp_path, "batches = 10\ndetection.shots = 50000\n")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", path, "--out", str(out_a), "--seed", "5"]) == EXIT_OK
    assert main(["simulate", "--config", path, "--out", str(out_b), "--seed", "5"]) == EXIT_OK
    csv_a = (out_a / "simulate_batches.csv").read_bytes()
    csv_b = (out_b / "simulate_batches.csv").read_bytes()
    assert csv_a == csv_b
    summary = json.loads((out_a / "simulate_summary.json").read_text())
    assert summary["master_seed"] == 5
    assert summary["config"]["batches"] == 10
    assert summary["csv_schema"] == "sorkin-lab.batches/3"
    # the CSV is the run's counts, from which its kappa summary follows
    config = parse_config(path)
    report = sample_batches(config.amplitudes, config.p, config.detection, 10, 5)
    assert csv_a.decode() == batch_csv_text(report)
    assert csv_a.decode().split("\n")[0] == "batch,s1,s2,s3,s4,s5,s6,s7,ref"
    assert len(csv_a.decode().strip().split("\n")) == 11
    p = exact_probabilities(config.amplitudes, config.measurement, config.rule)
    predicted = predicted_kappa_std(config.amplitudes, p, config.detection)
    kappa = asdict(estimate_kappa(report)) | {"std_predicted": predicted}
    assert summary["kappa"] == json.loads(json.dumps(kappa))


def test_exact_simulate_writes_no_batch_csv(tmp_path, capsys):
    # an exact run draws no counts: its summary alone, with no CSV schema,
    # and its line names no batch count, since it draws no batches
    exact = _write(tmp_path, "batches = 3\ndetection.mode = exact\n", "exact.cfg")
    out = tmp_path / "x"
    assert main(["simulate", "--config", exact, "--out", str(out)]) == EXIT_OK
    assert [f.name for f in out.iterdir()] == ["simulate_summary.json"]
    summary = json.loads((out / "simulate_summary.json").read_text())
    assert summary["csv_schema"] is None
    assert summary["kappa"]["std_predicted"] is None
    assert capsys.readouterr().out == f"kappa = {summary['kappa']['mean']:.6g} (exact)\n"


def test_no_batch_of_a_run_is_refused_at_the_floor(tmp_path, capsys):
    # at 412 shots and theta2 = 2 pi, batch 6 of row 7 (eps 0.07) reads
    # three pairwise terms that cancel to 2.2e-16; the mean of batch kappas
    # refused the whole scan with exit 3, the pooled summary reads the row
    path = _write(tmp_path, "detection.shots = 412\nmeasurement.theta2 = 6.283185307179586\n")
    out = tmp_path / "o"
    assert main(["sensitivity", "--config", path, "--out", str(out), "--seed", "23"]) == EXIT_OK
    rows = json.loads((out / "sensitivity.json").read_text())["rows"]
    assert [row["eps"] for row in rows][7] == 0.07
    assert all(math.isfinite(row["kappa_mean"]) for row in rows)


def test_a_run_at_the_floor_of_its_mean_exits_3_writing_nothing(tmp_path, monkeypatch, capsys):
    # simulate summarizes its counts before it writes: counts whose mean
    # estimates have their I2 at the kappa floor are refused with exit 3.
    # No config draws such counts (its expected readout is checked at
    # parse time), so the draw is replaced by flat ones.
    def flat(t, p_true, det, n_batches, master_seed):
        return Readout(t, np.full((n_batches, 7), 10**6), np.full(n_batches, 2 * 10**6))

    monkeypatch.setattr("sorkin_lab.cli.sample_batches", flat)
    out = tmp_path / "o"
    path = _write(tmp_path, "batches = 4\n")
    assert main(["simulate", "--config", path, "--out", str(out)]) == EXIT_BAD_CONFIG
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: second-order interference 0.0 is at or below the floor")
    assert err.count("\n") == 1


def test_simulate_seed_changes_output(tmp_path):
    path = _write(tmp_path, "batches = 5\ndetection.shots = 50000\n")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    main(["simulate", "--config", path, "--out", str(out_a), "--seed", "1"])
    main(["simulate", "--config", path, "--out", str(out_b), "--seed", "2"])
    assert (out_a / "simulate_batches.csv").read_bytes() != (
        out_b / "simulate_batches.csv"
    ).read_bytes()


def test_measurement_override_flag(tmp_path):
    path = _write(tmp_path, "")
    out = tmp_path / "m2"
    assert main(
        ["ideal", "--config", path, "--out", str(out), "--measurement", "M2"]
    ) == EXIT_OK
    payload = json.loads((out / "ideal_report.json").read_text())
    assert payload["config"]["measurement"]["preset"] == "M2"
    assert payload["report"]["p"][2] == pytest.approx(0.7285533905932737, abs=1e-12)


def test_schedule_command(tmp_path, capsys):
    path = _write(tmp_path, "")
    out = tmp_path / "s"
    assert main(["schedule", "--config", path, "--out", str(out)]) == EXIT_OK
    text = capsys.readouterr().out
    assert "psi7" in text
    payload = json.loads((out / "schedule.json").read_text())
    assert len(payload["schedules"]) == 7
    assert payload["schedules"][6]["phi1"] == pytest.approx(math.pi)
    # pi pulse at 5 MHz lasts 100 ns
    assert payload["schedules"][6]["segments"][0]["duration_ns"] == pytest.approx(100.0)


def test_sensitivity_command(tmp_path):
    path = _write(
        tmp_path,
        "batches = 6\ndetection.mode = exact\nsensitivity.eps_grid = 0,0.05,0.1\n",
    )
    out = tmp_path / "sens"
    assert main(["sensitivity", "--config", path, "--out", str(out)]) == EXIT_OK
    payload = json.loads((out / "sensitivity.json").read_text())
    assert payload["smallest_detected_eps"] == 0.05
    csv_text = (out / "sensitivity.csv").read_text()
    assert csv_text.startswith("eps,kappa_mean,kappa_std,detected")


def _predicted_detectable_eps(tmp_path, text):
    result = cmd_sensitivity(parse_config(_write(tmp_path, text)))
    return json.loads(result.artifacts["sensitivity.json"])["predicted_detectable_eps"]


def test_sensitivity_predicts_the_detectable_eps(tmp_path):
    # eps* = q sigma / (sqrt(50) * slope) = 0.0646, q the flag's t threshold
    # at 3 sigma and 49 degrees of freedom; sigma is the counting model's and
    # the slope is exact
    slope = 0.10663603541648406  # triple kappa per unit eps at the working point
    config = parse_config(_write(tmp_path, ""))
    born = exact_probabilities(config.amplitudes, config.measurement, ProbabilityRule.born())
    sigma = predicted_kappa_std(config.amplitudes, born, config.detection)
    eps_star = _predicted_detectable_eps(tmp_path, "")
    q49 = _t_quantile(49, 3.0)
    assert eps_star == pytest.approx(q49 * sigma / (math.sqrt(50) * slope), rel=1e-9)
    assert eps_star == pytest.approx(0.0646, abs=5e-4)
    # 4x the batches halve it but for the threshold's shift from 49 to 199
    # degrees of freedom; the grid's order does not matter
    text = "batches = 200\nsensitivity.eps_grid = 0.05,0,0.01\n"
    ratio = _t_quantile(199, 3.0) / q49 / 2
    assert _predicted_detectable_eps(tmp_path, text) == pytest.approx(eps_star * ratio, rel=1e-9)


@pytest.mark.parametrize(
    "text",
    [
        "detection.mode = exact\n",
        "sensitivity.eps_grid = 0\n",
        # Born's expected readout has an I2 of 1.1e-16, below the kappa floor
        "measurement.theta1 = 3.141592653589793\nrule = exponent:0.5\n"
        "sensitivity.rule_family = exponent\nsensitivity.eps_grid = 0.5,1.0\n",
    ],
)
def test_predicted_detectable_eps_is_null_without_noise_or_slope(tmp_path, text):
    assert _predicted_detectable_eps(tmp_path, text) is None


def test_rwa_check_command(tmp_path):
    path = _write(tmp_path, "")
    out = tmp_path / "rwa"
    assert main(["rwa-check", "--config", path, "--out", str(out)]) == EXIT_OK
    payload = json.loads((out / "rwa_check.json").read_text())
    assert payload["schema"] == "sorkin-lab.summary/10"
    assert all(0.999 <= row["fidelity"] <= 1.0 for row in payload["pulses"])
    labels = {row["pulse"] for row in payload["pulses"]}
    assert "measurement" in labels and "psi1" in labels


def test_readme_names_the_current_schema_ids():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    for schema in (SUMMARY_JSON_SCHEMA, BATCH_CSV_SCHEMA):
        assert f"`{schema}`" in readme, schema


def test_rwa_check_integrates_one_period_per_channel(tmp_path):
    # 10 pulses, 5 of them distinct: the pulse memo integrates each distinct
    # pulse once, and each channel's period once, so the period memo sees
    # only the 5 distinct pulses
    clear_propagator_memos()
    result = cmd_rwa_check(parse_config(_write(tmp_path, "")))
    assert result.exit_code == EXIT_OK
    pulses = json.loads(result.artifacts["rwa_check.json"])["pulses"]
    assert len(pulses) == 10
    info = _pulse_propagator.cache_info()
    assert (info.misses, info.hits) == (5, 5)
    info = _period_propagator.cache_info()
    assert (info.misses, info.hits) == (2, 3)


def test_rwa_check_skips_a_tiny_negative_measurement_angle(tmp_path, capsys):
    listed = {}
    # the default triple sensitivity family drives this measurement's
    # near-zero |-1> probability negative, which parse_config refuses
    for name, theta1 in (("zero", "0"), ("tiny", "-1e-17")):
        text = f"measurement.theta1 = {theta1}\nsensitivity.rule_family = exponent\n"
        path = _write(tmp_path, text, f"{name}.cfg")
        out = tmp_path / name
        assert main(["rwa-check", "--config", path, "--out", str(out)]) == EXIT_OK
        pulses = json.loads((out / "rwa_check.json").read_text())["pulses"]
        listed[name] = (pulses, capsys.readouterr().out)
    assert listed["tiny"] == listed["zero"]
    assert ("measurement", "MW1") not in {(r["pulse"], r["channel"]) for r in listed["tiny"][0]}


def test_born_null_decision():
    # simulate's verdict is the one significance rule at 5 sigma on the t
    # statistic |mean| / stderr: 10 clears it at 99 degrees of freedom (t
    # quantile 5.35) but not at 2 (1,321), and 4 does not; an exact run,
    # df 0, must clear the float floor of 1e-12 on its own
    est = KappaEstimate(0.001, 0.01, 0.0001, (0.0, 0.002), 99)
    assert est.excludes_zero(5.0)
    assert not replace(est, df=2).excludes_zero(5.0)
    est2 = KappaEstimate(0.0004, 0.01, 0.0001, (0.0, 0.002), 99)
    assert not est2.excludes_zero(5.0)
    assert est2.excludes_zero(3.0)
    exact = KappaEstimate(0.0, 0.0, 0.0, (0.0, 0.0), 0)
    assert not exact.excludes_zero(5.0)
    assert replace(exact, mean=2e-12).excludes_zero(5.0)


@pytest.mark.parametrize("command", ["simulate", "sensitivity"])
def test_single_simulated_batch_rejected_at_parse_time(tmp_path, command):
    # one noisy batch has no spread; sensitivity would flag Born as detected
    path = _write(
        tmp_path,
        "batches = 1\ndetection.shots = 50000\nsensitivity.eps_grid = 0,0.05\n",
    )
    # the rule of detection.check_batches, named as the key it checks
    one = "^batches: a simulated run needs at least 2 batches, got 1$"
    with pytest.raises(ConfigError, match=one):
        parse_config(path)
    out = tmp_path / "o"
    assert main([command, "--config", path, "--out", str(out)]) == EXIT_BAD_CONFIG
    assert not out.exists()


def test_single_exact_batch_still_runs(tmp_path):
    path = _write(
        tmp_path,
        "batches = 1\ndetection.mode = exact\nsensitivity.eps_grid = 0,0.05\n",
    )
    out = tmp_path / "o"
    assert main(["sensitivity", "--config", path, "--out", str(out)]) == EXIT_OK
    payload = json.loads((out / "sensitivity.json").read_text())
    assert payload["smallest_detected_eps"] == 0.05
    # simulate reports its one exact batch with no spread
    out = tmp_path / "s"
    assert main(["simulate", "--config", path, "--out", str(out)]) == EXIT_OK
    k = json.loads((out / "simulate_summary.json").read_text())["kappa"]
    ideal = cmd_ideal(parse_config(path)).artifacts["ideal_report.json"]
    mean = json.loads(ideal)["report"]["kappa"]
    assert k == {
        "mean": mean,
        "std": 0.0,
        "stderr": 0.0,
        "ci95": [mean, mean],
        "df": 0,
        "std_predicted": None,
    }


def test_detection_keys_validated_in_exact_mode(tmp_path):
    path = _write(tmp_path, "detection.mode = exact\ndetection.shots = 0\n")
    with pytest.raises(ConfigError, match="shots"):
        parse_config(path)
    rc = main(["ideal", "--config", path, "--out", str(tmp_path / "o")])
    assert rc == EXIT_BAD_CONFIG


@pytest.mark.parametrize(
    "text",
    [
        "detection.mu_bg = 0\ndetection.mu_bright = 1e-9\ndetection.shots = 1\n",
        "detection.shots = 10\n",
    ],
)
def test_too_few_reference_photons_rejected_at_parse_time(tmp_path, monkeypatch, text):
    def no_batches(*args, **kwargs):
        raise AssertionError("a batch ran")

    monkeypatch.setattr("sorkin_lab.cli.sample_batches", no_batches)
    path = _write(tmp_path, "batches = 2\n" + text)
    with pytest.raises(ConfigError, match="shots >="):
        parse_config(path)
    out = tmp_path / "o"
    assert main(["simulate", "--config", path, "--out", str(out)]) == EXIT_BAD_CONFIG
    assert not out.exists()


@pytest.mark.parametrize(
    "command,text",
    [
        ("ideal", "rule = exponent:nan\n"),
        ("ideal", "rule = triple:inf\n"),
        ("sensitivity", "sensitivity.eps_grid =\n"),
        ("sensitivity", "sensitivity.eps_grid = 0,nan\n"),
        (
            "sensitivity",
            "sensitivity.rule_family = exponent\nsensitivity.eps_grid = 0,-2\n",
        ),
    ],
    ids=["exponent-nan", "triple-inf", "empty-grid", "nan-in-grid", "exponent-eps-2"],
)
def test_bad_deformations_rejected_at_parse_time(tmp_path, monkeypatch, command, text):
    def no_run(*args, **kwargs):
        raise AssertionError("the subcommand ran")

    monkeypatch.setitem(_COMMANDS, command, no_run)
    path = _write(tmp_path, "detection.mode = exact\n" + text)
    with pytest.raises(ConfigError):
        parse_config(path)
    out = tmp_path / "o"
    assert main([command, "--config", path, "--out", str(out)]) == EXIT_BAD_CONFIG
    assert not out.exists()
