"""Pluggable outcome-probability rules.

The standard squared-modulus (Born) rule plus two single-parameter
deformations used to calibrate how sensitively the protocol detects a
violation:

  * ``exponent:<eps>``  |<m|psi>|^(2+eps), a generic deformation leaking
    into every interference order;
  * ``triple:<eps>``    Born plus 2*eps*Re(w_a conj(w_b) w_c), a pure
    third-order injection built from the per-path detection amplitudes
    w_a = conj(alpha) a, w_b = conj(beta) b, w_c = conj(gamma) c.  The
    extra term vanishes whenever any path amplitude is zero, so only the
    full superposition's probability moves.

Both deformations are deliberately unnormalized: the analysis pipeline
only ever uses probability ratios, and kappa's affine invariance makes
normalization conventions irrelevant.  Deformed rules are this package's
own calibration choices and are labeled as such in every output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import UnphysicalParameterError
from .qutrit import QutritState, inner_product

# The deformation families, each "<kind>:<eps>" in configs and labels.
DEFORMATIONS = ("exponent", "triple")
_KINDS = ("born", *DEFORMATIONS)


@dataclass(frozen=True)
class ProbabilityRule:
    """Which law maps (measurement ket, state) to an outcome probability."""

    kind: str = "born"
    epsilon: float = 0.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"rule kind must be one of {_KINDS}, got {self.kind!r}")
        if not math.isfinite(self.epsilon):
            raise ValueError(f"deformation must be finite, got {self.epsilon!r}")
        if self.kind == "born" and self.epsilon != 0.0:
            raise ValueError("the born rule takes no deformation parameter")
        if self.kind == "exponent" and self.epsilon <= -2.0:
            raise UnphysicalParameterError(
                f"exponent deformation needs eps > -2, got {self.epsilon!r}"
            )

    @classmethod
    def born(cls) -> "ProbabilityRule":
        return cls("born", 0.0)

    def label(self) -> str:
        """The rule as parse_rule reads it; repr keeps epsilon exact."""
        if self.kind == "born":
            return "born"
        return f"{self.kind}:{self.epsilon!r}"


def parse_rule(text: str) -> ProbabilityRule:
    """Parse ``born``, ``exponent:<eps>`` or ``triple:<eps>``."""
    s = text.strip()
    if s == "born":
        return ProbabilityRule.born()
    kind, sep, arg = s.partition(":")
    if sep and kind in DEFORMATIONS:
        try:
            eps = float(arg)
        except ValueError:
            raise ValueError(f"bad deformation parameter in rule {text!r}") from None
        return ProbabilityRule(kind, eps)
    forms = ", ".join(f"{family}:<eps>" for family in DEFORMATIONS)
    raise ValueError(f"unknown rule {text!r}; expected born, {forms}")


def probability(rule: ProbabilityRule, m: QutritState, psi: QutritState) -> float:
    """Outcome probability assigned by `rule` to projecting psi onto m."""
    kind = rule.kind
    if kind == "born":
        return abs(inner_product(m, psi)) ** 2
    if kind == "exponent":
        return abs(inner_product(m, psi)) ** (2.0 + rule.epsilon)
    # the one kind left is triple
    w_a = m.c_zero.conjugate() * psi.c_zero
    w_b = m.c_plus.conjugate() * psi.c_plus
    w_c = m.c_minus.conjugate() * psi.c_minus
    p = abs(w_a + w_b + w_c) ** 2 + 2.0 * rule.epsilon * (
        w_a * w_b.conjugate() * w_c
    ).real
    if not 0.0 <= p < math.inf:  # a huge eps can overflow to inf or nan
        raise UnphysicalParameterError(
            f"triple deformation eps={rule.epsilon:g} drives a probability "
            f"negative or non-finite ({p!r}) for this configuration"
        )
    return p
