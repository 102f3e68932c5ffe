"""Command-line harness: reproducible experiment runs from a config file.

Usage:
    sorkin-lab <ideal|simulate|rwa-check|schedule|sensitivity>
               --config <path> [--out <dir>] [--seed <u64>] [--measurement M1|M2]

Subcommands:
    ideal        exact seven-experiment report (no detection noise)
    simulate     M noisy batches; JSON summary plus, in simulated mode, the
                 batch CSV of the counts drawn
    rwa-check    per-pulse rotating-wave fidelities for the solved schedules
    schedule     solved pulse schedules with durations at omega_1
    sensitivity  deformation-strength detection scan

Each subcommand is a pure function of the resolved configuration that
returns its artifact texts, stdout lines and exit code; main alone reads
the config, writes the artifacts and prints.

Config files are UTF-8 ``key = value`` lines (``#`` comments); dotted keys
address sections, e.g. ``detection.shots = 2000000``.  Missing keys take
the documented defaults; unknown keys are rejected.  Exit codes: 0 ok,
1 simulate-under-born rejected the null at 5 sigma, 2 config file missing
or unreadable, 3 schema violation or domain error, 4 an artifact or
stdout could not be written (none of the run's artifacts is left behind).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from dataclasses import asdict, astuple, dataclass, fields

from . import __version__
from .born import DEFORMATIONS, ProbabilityRule, parse_rule
from .detection import (
    BATCH_CSV_SCHEMA,
    DetectionParams,
    batch_csv_text,
    check_batches,
    estimate_kappa,
    exact_probabilities,
    expected_estimates,
    predicted_kappa_std,
    sample_batches,
    sensitivity_scan,
    sorkin_report,
)
from .dynamics import HamiltonianParams, PulseSegment, rwa_fidelity
from .errors import (
    ConfigError,
    InsufficientBatchesError,
    QuantumRegimeError,
    SorkinLabError,
    UnphysicalParameterError,
)
from .protocol import (
    MEASUREMENT_M1,
    MEASUREMENT_M2,
    MeasurementSpec,
    TargetAmplitudes,
    solve_schedule,
)

# the schema id every JSON report of this module embeds
SUMMARY_JSON_SCHEMA = "sorkin-lab.summary/10"

EXIT_OK = 0
EXIT_NULL_REJECTED = 1
EXIT_MISSING_FILE = 2
EXIT_BAD_CONFIG = 3
EXIT_UNWRITABLE = 4

_SQRT3 = math.sqrt(3.0)

_MEASUREMENT_PRESETS = {
    "M1": MEASUREMENT_M1,
    "M2": MEASUREMENT_M2,
}

# Each dataclass section's keys and defaults are its default object's fields.
_SECTIONS = {
    "hamiltonian": HamiltonianParams(),
    "amplitudes": TargetAmplitudes(1.0 / _SQRT3, -1.0 / _SQRT3, -1.0 / _SQRT3),
    "measurement": MEASUREMENT_M1,
    "detection": DetectionParams(),
}

_DEFAULTS: dict[str, object] = {
    f"{section}.{f.name}": getattr(default, f.name)
    for section, default in _SECTIONS.items()
    for f in fields(default)
} | {
    "measurement.preset": None,
    "detection.mode": "simulated",
    "rule": "born",
    "batches": 50,
    "master_seed": 42,
    "sensitivity.rule_family": "triple",
    "sensitivity.eps_grid": tuple(round(0.01 * i, 10) for i in range(13)),
}


def _float_list(raw: str) -> tuple[float, ...]:
    return tuple(float(x) for x in raw.split(",") if x.strip())


# A key parses as the type of its default, except these.
_PARSERS = {type(None): str, tuple: _float_list}


@dataclass(frozen=True)
class ExperimentConfig:
    hamiltonian: HamiltonianParams
    amplitudes: TargetAmplitudes
    measurement: MeasurementSpec
    rule: ProbabilityRule
    # the rule's seven exact probabilities, every subcommand's p
    p: tuple[float, ...]
    # what the batch sampler consumes: None selects exact probabilities
    detection: DetectionParams | None
    batches: int
    master_seed: int
    sensitivity_family: str
    eps_grid: tuple[float, ...]
    # the resolved value of every config key, as the echo reports it
    resolved: dict

    def echo(self) -> dict:
        """Fully resolved configuration, embedded in every report.

        Every config key with its resolved value, nested on the key's first
        dot.  Written back as ``key = value`` lines, it parses to this same
        configuration, so a report's echo reproduces its run.
        """
        echo: dict = {}
        for key, value in self.resolved.items():
            section, dot, name = key.partition(".")
            if dot:
                echo.setdefault(section, {})[name] = value
            else:
                echo[key] = value
        return echo


def _read_pairs(path: str) -> dict:
    values = {}
    # surrogateescape decodes each byte that is not UTF-8 to one of the lone
    # surrogates U+DC80..U+DCFF, which no UTF-8 text decodes to
    with open(path, "r", encoding="utf-8-sig", errors="surrogateescape") as f:
        for lineno, line in enumerate(f, start=1):
            if not line.isascii() and any("\udc80" <= ch <= "\udcff" for ch in line):
                raise ConfigError(f"line {lineno}: the file is not UTF-8")
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ConfigError(f"line {lineno}: expected 'key = value', got {line.rstrip()!r}")
            key, raw = (part.strip() for part in stripped.split("=", 1))
            if key not in _DEFAULTS:
                raise ConfigError(f"unknown config key {key!r}")
            if key in values:
                raise ConfigError(f"duplicate config key {key!r}")
            kind = type(_DEFAULTS[key])
            try:
                values[key] = _PARSERS.get(kind, kind)(raw)
            except ValueError as exc:
                raise ConfigError(f"key {key!r}: cannot parse {raw!r} ({exc})") from None
    return values


def parse_config(path: str) -> ExperimentConfig:
    """Load a config file; missing keys take the documented defaults (see _resolve)."""
    return _resolve(_read_pairs(path))


def _resolve(values: dict) -> ExperimentConfig:
    """Check parsed ``key: value`` pairs and build the run's configuration.

    Every run input takes this one path: main puts the command-line
    overrides into the pairs as config keys before calling it.

    The ``detection.*`` keys are validated in every mode, since the report
    echoes them even when ``detection.mode = exact`` ignores them.  The
    sensitivity grid is checked here too: it must be non-empty and every
    strength must build a rule of the scan's family.  The configured rule
    and every grid rule go through the functions a run uses, so a run never
    fails on them after writing: their seven probabilities for the
    configured target and measurement must be non-negative, and the report
    built from them must keep its second-order interference I2 above the
    kappa floor.  In simulated mode that report is of the readout's
    expected estimates, C*p + d, so every probability must also be
    sampleable (at most 1) and C*I2 must lie above the floor.
    """

    resolved = {key: values.get(key, default) for key, default in _DEFAULTS.items()}
    preset = resolved["measurement.preset"]
    if preset is not None:
        if "measurement.theta1" in values or "measurement.theta2" in values:
            raise ConfigError("measurement.preset conflicts with explicit measurement angles")
        if preset not in _MEASUREMENT_PRESETS:
            raise ConfigError(f"measurement.preset must be M1 or M2, got {preset!r}")
        angles = asdict(_MEASUREMENT_PRESETS[preset])
        resolved |= {f"measurement.{name}": value for name, value in angles.items()}

    mode = resolved["detection.mode"]
    if mode not in ("simulated", "exact"):
        raise ConfigError(f"detection.mode must be 'simulated' or 'exact', got {mode!r}")

    master_seed = resolved["master_seed"]
    if master_seed < 0:
        raise ConfigError("master_seed must be a non-negative integer")
    batches = resolved["batches"]
    try:
        check_batches(batches, exact=mode == "exact")
    except (InsufficientBatchesError, ValueError) as exc:
        raise ConfigError(f"batches: {exc}") from exc

    family = resolved["sensitivity.rule_family"]
    if family not in DEFORMATIONS:
        raise ConfigError(
            f"sensitivity.rule_family must be one of {DEFORMATIONS}, got {family!r}"
        )
    eps_grid = resolved["sensitivity.eps_grid"]
    if not eps_grid:
        raise ConfigError("sensitivity.eps_grid is empty")

    try:
        grid_rules = [ProbabilityRule(family, eps) for eps in eps_grid]
        built = {
            section: type(default)(
                **{f.name: resolved[f"{section}.{f.name}"] for f in fields(default)}
            )
            for section, default in _SECTIONS.items()
        }
        rule = parse_rule(resolved["rule"])
    except (ValueError, SorkinLabError) as exc:
        raise ConfigError(str(exc)) from exc
    # the echo gives the rule in the repr form it parses back from
    resolved |= {"rule": rule.label(), "sensitivity.eps_grid": list(eps_grid)}
    t, spec = built["amplitudes"], built["measurement"]
    det = None if mode == "exact" else built["detection"]

    # each rule goes through the functions a run uses, on what the run reports
    rules = [("rule", rule)] + [("sensitivity.eps_grid", r) for r in grid_rules]
    checked = []
    for key, r in rules:
        try:
            p = exact_probabilities(t, spec, r)
            readout = p if det is None else expected_estimates(p, det)
            sorkin_report(t, readout)
        except (UnphysicalParameterError, QuantumRegimeError) as exc:
            where = "" if det is None else " (simulated mode: of the expected readout)"
            raise ConfigError(f"{key}: {exc}{where}") from exc
        checked.append(p)
    return ExperimentConfig(
        hamiltonian=built["hamiltonian"],
        amplitudes=t,
        measurement=spec,
        rule=rule,
        p=checked[0],
        detection=det,
        batches=batches,
        master_seed=master_seed,
        sensitivity_family=family,
        eps_grid=eps_grid,
        resolved=resolved,
    )


@dataclass(frozen=True)
class CommandResult:
    """A subcommand's whole output, for main to write and print."""

    artifacts: dict[str, str]  # file name -> text
    stdout: list[str]
    exit_code: int = EXIT_OK


def _report_json(command: str, config: ExperimentConfig, **fields) -> str:
    payload = {
        "schema": SUMMARY_JSON_SCHEMA,
        "version": __version__,
        "command": command,
        "config": config.echo(),
        "master_seed": config.master_seed,
        **fields,
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _report_dict(report) -> dict:
    return {
        "p": list(report.p),
        "q": {"q_a": report.q_a, "q_b": report.q_b, "q_c": report.q_c},
        "second_order": {
            "I_ab": report.I_ab,
            "I_ac": report.I_ac,
            "I_bc": report.I_bc,
        },
        "I2": report.I2,
        "I3": report.I3,
        "kappa": report.kappa,
    }


def cmd_ideal(config: ExperimentConfig) -> CommandResult:
    report = sorkin_report(config.amplitudes, config.p)
    return CommandResult(
        {"ideal_report.json": _report_json("ideal", config, report=_report_dict(report))},
        [
            f"kappa = {report.kappa!r}",
            f"I2 = {report.I2!r}   I3 = {report.I3!r}",
            "p = " + " ".join(f"{x:.9f}" for x in report.p),
        ],
    )


def cmd_simulate(config: ExperimentConfig) -> CommandResult:
    t, det = config.amplitudes, config.detection
    run = sample_batches(t, config.p, det, config.batches, config.master_seed)
    est = estimate_kappa(run)
    rejected = config.rule.kind == "born" and est.excludes_zero(5.0)
    # exact mode has no counting noise to predict
    predicted = None if det is None else predicted_kappa_std(t, config.p, det)
    summary = _report_json(
        "simulate",
        config,
        # an exact run draws no counts, so it writes no batch CSV
        csv_schema=None if det is None else BATCH_CSV_SCHEMA,
        kappa=asdict(est) | {"std_predicted": predicted},
        born_null_rejected_5sigma=rejected,
    )
    line = f"kappa = {est.mean:.6g}"
    if det is None:  # an exact run draws nothing: no CSV, no spread, no batch count
        artifacts, line = {}, line + " (exact)"
    else:
        artifacts = {"simulate_batches.csv": batch_csv_text(run)}
        line += f" +/- {est.std:.3g} (stderr {est.stderr:.3g}, {config.batches} batches)"
    return CommandResult(
        artifacts | {"simulate_summary.json": summary},
        [line],
        EXIT_NULL_REJECTED if rejected else EXIT_OK,
    )


def cmd_schedule(config: ExperimentConfig) -> CommandResult:
    omega1_hz = config.hamiltonian.omega1_hz
    rows = []
    stdout = ["state  phi1(rad)   phi2(rad)   duration(ns)"]
    for i, sched in enumerate(solve_schedule(config.amplitudes, omega1_hz), start=1):
        phi1, phi2 = sched.angle_pair()
        dur_ns = sched.total_duration_s(omega1_hz) * 1e9
        stdout.append(f"psi{i}   {phi1:<11.8f} {phi2:<11.8f} {dur_ns:.3f}")
        segments = [
            {
                "channel": seg.channel,
                "angle_rad": seg.angle,
                "duration_ns": seg.duration_s(omega1_hz) * 1e9,
            }
            for seg in sched
        ]
        rows.append({"state": f"psi{i}", "phi1": phi1, "phi2": phi2, "segments": segments})
    return CommandResult(
        {"schedule.json": _report_json("schedule", config, schedules=rows)}, stdout
    )


def cmd_rwa_check(config: ExperimentConfig) -> CommandResult:
    schedules = solve_schedule(config.amplitudes, config.hamiltonian.omega1_hz)
    pulses = [
        (f"psi{i}", seg) for i, sched in enumerate(schedules, start=1) for seg in sched
    ]
    pulses.append(("measurement", PulseSegment("MW2", config.measurement.theta2)))
    pulses.append(("measurement", PulseSegment("MW1", config.measurement.theta1)))
    rows = []
    stdout = ["pulse          channel  angle(rad)  fidelity"]
    for label, seg in pulses:
        if seg.angle == 0.0:
            continue
        fid = rwa_fidelity(config.hamiltonian, seg)
        stdout.append(f"{label:<14} {seg.channel:<8} {seg.angle:<11.8f} {fid:.9f}")
        rows.append(
            {
                "pulse": label,
                "channel": seg.channel,
                "angle_rad": seg.angle,
                "duration_ns": seg.duration_s(config.hamiltonian.omega1_hz) * 1e9,
                "fidelity": fid,
            }
        )
    return CommandResult(
        {"rwa_check.json": _report_json("rwa-check", config, pulses=rows)}, stdout
    )


def cmd_sensitivity(config: ExperimentConfig) -> CommandResult:
    scan = sensitivity_scan(
        config.amplitudes,
        config.measurement,
        config.sensitivity_family,
        config.eps_grid,
        config.detection,
        config.batches,
        config.master_seed,
    )
    columns = ("eps", "kappa_mean", "kappa_std", "detected")
    csv = [",".join(columns)]
    rows = []
    stdout = ["eps      kappa_mean    kappa_std     detected"]
    for r in scan.rows:
        values = astuple(r)
        rows.append(dict(zip(columns, values)))
        # as JSON a float reads as its repr and a bool in lower case
        csv.append(",".join(map(json.dumps, values)))
        stdout.append(
            f"{r.epsilon:<8.4g} {r.kappa_mean:<13.6g} {r.kappa_std:<13.6g} {r.detected}"
        )
    stdout.append(f"smallest detected eps: {scan.smallest_detected_eps}")
    summary = _report_json(
        "sensitivity",
        config,
        rows=rows,
        smallest_detected_eps=scan.smallest_detected_eps,
        predicted_detectable_eps=scan.predicted_detectable_eps,
    )
    return CommandResult(
        {"sensitivity.csv": "\n".join(csv) + "\n", "sensitivity.json": summary}, stdout
    )


_COMMANDS = {
    "ideal": cmd_ideal,
    "simulate": cmd_simulate,
    "rwa-check": cmd_rwa_check,
    "schedule": cmd_schedule,
    "sensitivity": cmd_sensitivity,
}


def _write_output(out_dir: str, result: CommandResult) -> None:
    """Write each artifact into out_dir (created) as UTF-8 with \\n line ends,
    then print stdout; on an OSError, a closed stdout included, remove the
    files written so far and re-raise."""
    written = []
    try:
        os.makedirs(out_dir, exist_ok=True)
        for name, text in result.artifacts.items():
            path = os.path.join(out_dir, name)
            with open(path, "w", encoding="utf-8", newline="\n") as f:
                written.append(path)
                f.write(text)
        print("\n".join(result.stdout), flush=True)
    except OSError:
        for path in written:
            with contextlib.suppress(OSError):
                os.remove(path)
        raise


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sorkin-lab",
        description="Seven-experiment interference test laboratory",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="path to the config file")
    parser.add_argument("--out", default=".", help="output directory (created)")
    parser.add_argument("--seed", type=int, default=None, help="override master_seed")
    parser.add_argument(
        "--measurement",
        choices=sorted(_MEASUREMENT_PRESETS),
        default=None,
        help="override the measurement with a named preset",
    )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if not os.path.isfile(args.config):
        print(f"config file not found: {args.config}", file=sys.stderr)
        return EXIT_MISSING_FILE
    try:
        values = _read_pairs(args.config)
        if args.seed is not None:
            values["master_seed"] = args.seed
        if args.measurement is not None:
            values = {k: v for k, v in values.items() if not k.startswith("measurement.")}
            values["measurement.preset"] = args.measurement
        result = _COMMANDS[args.command](_resolve(values))
    except SorkinLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except OSError as exc:
        # the commands are pure, so only the config's read does I/O here
        print(f"error: cannot read config file {args.config}: {exc}", file=sys.stderr)
        return EXIT_MISSING_FILE
    try:
        _write_output(args.out, result)
    except OSError as exc:
        if isinstance(exc, BrokenPipeError):
            # stdout's unflushed text would fail again as the interpreter exits
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write the output: {exc}", file=sys.stderr)
        return EXIT_UNWRITABLE
    if result.exit_code == EXIT_NULL_REJECTED:
        print("born null REJECTED at 5 sigma", file=sys.stderr)
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
