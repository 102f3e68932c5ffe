"""The config contract, generatively: whatever a config file's keys hold,
every subcommand ends in an exit code, never a traceback.

A drawn config sets a few keys of cli._DEFAULTS, each to a value of its
default's type or to an edge value; a run either refuses the config with
exit 3, one `error:` line and nothing written, or runs to exit 0, and
only simulate may return 1, its Born-null verdict.  A run that is not
refused writes JSON artifacts that hold no NaN or Infinity.  Runs keep
`batches` small: the int values are small, or edge values that
check_batches refuses.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from sorkin_lab import cli
from sorkin_lab.detection import MAX_BATCHES

_COMMANDS = ("ideal", "simulate", "rwa-check", "schedule", "sensitivity")


def _refuse(constant):
    raise ValueError(f"{constant} is not JSON")


_EDGE_FLOATS = [
    0.0,
    5e-324,
    1e-300,
    1e300,
    1.7e308,
    -1.0,
    -1e300,
    math.pi,
    -math.pi,
    1.5 * math.pi,
    2.0 * math.pi,
    float(2**53),
    float(2**63),
]
_EDGE_INTS = [0, 1, 2, -1, 2**53, 2**63, MAX_BATCHES + 1]

_FLOATS = st.one_of(
    st.sampled_from(_EDGE_FLOATS),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(-10.0, 10.0),
)
_INTS = st.one_of(st.sampled_from(_EDGE_INTS), st.integers(-3, 60))
# printable ASCII, so that a value stays on its own line
_TEXT = st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=12)

# the string keys' meaningful values, with near misses
_WORDS = {
    "rule": ["born", "triple:0.05", "exponent:0.07", "exponent:-2", "triple:1e300", "triple:nan"],
    "detection.mode": ["simulated", "exact", "Exact"],
    "measurement.preset": ["M1", "M2", "M3"],
    "sensitivity.rule_family": ["triple", "exponent", "born"],
}


# a default scaled by these stays near a working config
_SCALES = st.sampled_from([-1.0, 0.5, 0.99, 1.01, 2.0, 10.0, 1e-3])


def _value(key):
    """The text of a drawn value for key: of its default's type, near the
    default, or any text."""
    default = cli._DEFAULTS[key]
    kind = type(default)
    if kind is float:
        typed = st.one_of(_FLOATS, _SCALES.map(lambda f: default * f)).map(repr)
    elif kind is int:
        typed = st.one_of(_INTS, _SCALES.map(lambda f: int(default * f))).map(str)
    elif kind is tuple:
        typed = st.lists(_FLOATS, max_size=3).map(lambda xs: ",".join(map(repr, xs)))
    else:
        typed = st.one_of(st.sampled_from(_WORDS[key]), _TEXT)
    return st.one_of(typed, typed, typed, _TEXT)


_CONFIGS = (
    st.lists(st.sampled_from(sorted(cli._DEFAULTS)), unique=True, max_size=4)
    .flatmap(lambda keys: st.fixed_dictionaries({key: _value(key) for key in keys}))
    .map(lambda pairs: "".join(f"{key} = {text}\n" for key, text in pairs.items()))
)


@settings(max_examples=50, derandomize=True, deadline=None)
@given(_CONFIGS)
# each of these once ended in a traceback and exit 1
@example("amplitudes.a = 1e300\n")
@example("detection.mu_bright = 5e-324\ndetection.mu_bg = 0.0\n")
@example("hamiltonian.D_hz = 1e308\n")
@example("hamiltonian.omega1_hz = 1e-300\n")
@example("hamiltonian.omega1_hz = 5e-324\n")
# the least omega1 whose longest schedule is finite in ns
@example("hamiltonian.omega1_hz = 1.2e-299\n")
@example(f"detection.shots = {10**400}\n")
# the fewest shots the default rates allow, at the paper's batch count scale
@example("detection.shots = 412\nbatches = 20000\n")
def test_every_config_ends_in_an_exit_code(text):
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "drawn.cfg"
        config.write_text(text, encoding="utf-8")
        for command in _COMMANDS:
            out, err = Path(tmp) / command, io.StringIO()
            with contextlib.redirect_stderr(err):
                code = cli.main([command, "--config", str(config), "--out", str(out)])
            assert code in (cli.EXIT_OK, cli.EXIT_BAD_CONFIG) or (
                command == "simulate" and code == cli.EXIT_NULL_REJECTED
            ), (command, code)
            if code == cli.EXIT_BAD_CONFIG:
                message = err.getvalue()
                assert message.startswith("error: ") and message.count("\n") == 1, message
                assert not out.exists()
            else:
                for artifact in out.glob("*.json"):
                    json.loads(artifact.read_text(encoding="utf-8"), parse_constant=_refuse)
