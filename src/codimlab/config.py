"""Run configuration and machine-readable refusals.

A Refusal is a first-class outcome, not a crash: callers that hit a
budget cap or an undecidable subproblem receive a reason code and
enough detail to rerun with different settings.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

DEFAULT_BUDGET = 10 ** 9
BUDGET_ENV_VAR = "CODIMLAB_BUDGET"


def budget_from_environment() -> int:
    raw = os.environ.get(BUDGET_ENV_VAR)
    if raw is None:
        return DEFAULT_BUDGET
    try:
        value = int(float(raw))
    except ValueError:
        raise ValueError(
            f"{BUDGET_ENV_VAR} must be numeric, got {raw!r}") from None
    if value <= 0:
        raise ValueError(f"{BUDGET_ENV_VAR} must be positive")
    return value


@dataclass
class RunConfig:
    """The four knobs shared by the heavy computations.

    budget caps the scalar-multiplication estimate
    (dim L)^(n+1) * n! * |G|^n before a codimension run starts,
    substitutions * brackets * (dim L)^3 before an identity check, and
    (dim L)^3 times the section tuples and q-vectors of the exponent's
    condition-2 sweep before that sweep.  The
    first estimate prices the multilinear rows of every variable order,
    which the weight-space engine no longer builds; it is kept as it
    is on purpose, since its figures are a pinned public contract.
    q_max and r_max_override tune the exponent search, verify adds a
    two-prime rank cross-check of every weight component.
    """

    budget: int = field(default_factory=budget_from_environment)
    q_max: int | None = None
    r_max_override: int | None = None
    verify: bool = False

    def __post_init__(self):
        if self.budget <= 0:
            raise ValueError("budget must be positive")


class Refusal(Exception):
    """Computation declined with a structured reason.

    reason is one of "budget" or "undecided"; details carry the
    machine-readable payload (cost estimates, feasible sizes, the
    undecided section, ...).
    """

    def __init__(self, reason: str, message: str, **details):
        super().__init__(message)
        self.reason = reason
        self.message = message
        self.details = details

    def to_dict(self) -> dict:
        return {"refused": True, "reason": self.reason,
                "message": self.message, **self.details}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)
