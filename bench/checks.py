"""Correctness checks for benchmark outputs.

Every failed operation is attributed to exactly one stage.  Residuals are
tested one by one with ``math.isfinite``: a reduction such as
``max(0.0, nan)`` returns ``0.0`` and would let a NaN pass the gate.
"""

import json
import math

#: absolute relation residual gate (the acceptance suite's test_01)
RESIDUAL_GATE = 1e-9
#: relative coordinate round-trip gate (the acceptance suite's test_04)
ROUNDTRIP_GATE = 1e-8

POINT_STAGES = (
    "build_raised",
    "residual_nonfinite",
    "residual_over_gate",
    "recover_raised",
    "roundtrip_mismatch",
)
WALK_STAGES = (
    "fn_roundtrip",
    "elem_trace",
    "vertex_identity",
    "walk_mismatch",
    "step_raised",
)
#: exit codes the README documents: success, malformed, outside the domain, numeric
DOCUMENTED_EXIT_CODES = (0, 2, 3, 4)


def residual_stage(residuals):
    """None when every residual is finite and below the gate, else the stage."""
    values = list(residuals.values())
    if not values:
        return "residual_nonfinite"
    if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in values):
        return "residual_nonfinite"
    if any(v >= RESIDUAL_GATE for v in values):
        return "residual_over_gate"
    return None


def relative_error(got, want):
    return abs(got - want) / max(1.0, abs(want))


def params_match(got, want, gate):
    """True when every eigenvalue and twist agrees within the relative gate.

    NaN or infinite values never match; key sets must agree exactly.
    """
    if set(got.eigen) != set(want.eigen) or set(got.twist) != set(want.twist):
        return False
    for table, ref in ((got.eigen, want.eigen), (got.twist, want.twist)):
        for key, value in ref.items():
            err = relative_error(complex(table[key]), complex(value))
            if not (math.isfinite(err) and err <= gate):
                return False
    return True


def branch_choice(recovered, params):
    """Eigenvalue branch per edge that matches the input (as in test_04)."""
    choice = {}
    for eid, e in params.eigen.items():
        got = recovered.eigen[eid]
        choice[eid] = 1 if abs(got - e) <= abs(1 / got - e) else -1
    return choice


def _reject_constant(token):
    raise ValueError("non-standard JSON token %s" % token)


def strict_json(text):
    """Parse text as strict JSON; NaN, Infinity and -Infinity are rejected."""
    return json.loads(text, parse_constant=_reject_constant)


def cli_stage(returncode, stdout, expected_codes):
    """None when an invocation behaved as documented, else the failed stage.

    A crash (an exit code outside the documented set) is an exit-code
    failure; otherwise stdout must be strict JSON, and then the exit code
    must be one the input class expects.
    """
    if returncode not in DOCUMENTED_EXIT_CODES:
        return "exit_code"
    try:
        strict_json(stdout)
    except ValueError:
        return "invalid_json"
    if returncode not in expected_codes:
        return "exit_code"
    return None
