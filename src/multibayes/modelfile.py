"""JSON model files: named spaces, distributions, factors, multisets,
evidence and channels referencing each other by identifier."""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Any

from .channel import Channel, dagger, pull, push, triple_pull
from .core import SampleSpace, Scalar, format_scalar, parse_scalar
from .distribution import Dist, flrn
from .divergence import kl_divergence
from .errors import ExprParseError, ModelError, MultibayesError
from .evidence import Evidence, Factor, and_conj, match_status
from .multiset import Multiset, coefm
from .update import bayes_update, jeffrey_update, pearl_update, vfe_update
from .validity import covariance, jeffrey_validity, pearl_validity, validity


@dataclass
class Model:
    """In-memory form of a model file; every entity keyed by identifier."""

    spaces: dict[str, SampleSpace] = field(default_factory=dict)
    distributions: dict[str, Dist] = field(default_factory=dict)
    factors: dict[str, Factor] = field(default_factory=dict)
    multisets: dict[str, Multiset] = field(default_factory=dict)
    evidence: dict[str, Evidence] = field(default_factory=dict)
    channels: dict[str, Channel] = field(default_factory=dict)


def _scalar_from_json(value: Any) -> Scalar:
    if isinstance(value, str):
        return parse_scalar(value)
    if isinstance(value, bool):
        raise ModelError(f"invalid scalar {value!r}")
    if isinstance(value, int):
        return parse_scalar(str(value))
    if isinstance(value, float):
        return value
    raise ModelError(f"invalid scalar {value!r}")


def _scalar_to_json(value: Scalar) -> Any:
    if isinstance(value, float):
        return value
    return format_scalar(value)


def _space_ref(model: Model, name: Any) -> SampleSpace:
    if not isinstance(name, str) or name not in model.spaces:
        raise ModelError(f"unknown space {name!r}")
    return model.spaces[name]


def _section(raw: dict, name: str) -> dict:
    body = raw.get(name, {})
    if not isinstance(body, dict):
        raise ModelError(f"section {name!r} must be a JSON object")
    return body


def parse_model(text: str) -> Model:
    """Parse model JSON; malformed input raises ExprParseError with position."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ExprParseError(f"invalid JSON: {exc.msg}", exc.lineno, exc.colno) from exc
    if not isinstance(raw, dict):
        raise ModelError("model file must be a JSON object")
    model = Model()
    try:
        for name, body in _section(raw, "spaces").items():
            model.spaces[name] = SampleSpace(body["elements"])
        for name, body in _section(raw, "distributions").items():
            space = _space_ref(model, body["space"])
            model.distributions[name] = Dist(space, [_scalar_from_json(w) for w in body["weights"]])
        for name, body in _section(raw, "factors").items():
            space = _space_ref(model, body["space"])
            model.factors[name] = Factor(space, [_scalar_from_json(v) for v in body["values"]])
        for name, body in _section(raw, "multisets").items():
            space = _space_ref(model, body["space"])
            counts = {entry["element"]: entry["count"] for entry in body["counts"]}
            model.multisets[name] = Multiset.from_counts(space, counts)
        for name, body in _section(raw, "evidence").items():
            pairs = []
            for entry in body:
                ref = entry["factor"]
                if ref not in model.factors:
                    raise ModelError(f"unknown factor {ref!r} in evidence {name!r}")
                pairs.append((model.factors[ref], entry["count"]))
            model.evidence[name] = Evidence(pairs)
        for name, body in _section(raw, "channels").items():
            dom = _space_ref(model, body["dom"])
            cod = _space_ref(model, body["cod"])
            rows = [
                Dist(_space_ref(model, row["space"]), [_scalar_from_json(w) for w in row["weights"]])
                for row in body["rows"]
            ]
            model.channels[name] = Channel(dom, cod, rows)
    except MultibayesError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelError(f"invalid model file: {exc}") from exc
    return model


def load_model(path: str) -> Model:
    with open(path, encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise ModelError(f"model file is not valid UTF-8: {exc}") from exc
    return parse_model(text)


def serialize_model(model: Model) -> str:
    """Canonical JSON rendering; parsing then serialising is the identity."""

    def space_name(space: SampleSpace) -> str:
        for name, candidate in model.spaces.items():
            if candidate == space:
                return name
        raise ModelError("entity refers to a space that is not declared")

    def factor_name(factor: Factor) -> str:
        for name, candidate in model.factors.items():
            if candidate == factor:
                return name
        raise ModelError("evidence refers to a factor that is not declared")

    doc: dict[str, Any] = {}
    if model.spaces:
        doc["spaces"] = {
            name: {"elements": list(space.elements)} for name, space in sorted(model.spaces.items())
        }
    if model.distributions:
        doc["distributions"] = {
            name: {
                "space": space_name(dist.space),
                "weights": [_scalar_to_json(w) for w in dist.weights],
            }
            for name, dist in sorted(model.distributions.items())
        }
    if model.factors:
        doc["factors"] = {
            name: {
                "space": space_name(factor.space),
                "values": [_scalar_to_json(v) for v in factor.values],
            }
            for name, factor in sorted(model.factors.items())
        }
    if model.multisets:
        doc["multisets"] = {
            name: {
                "space": space_name(phi.space),
                "counts": [
                    {"element": x, "count": c} for x, c in phi.items()
                ],
            }
            for name, phi in sorted(model.multisets.items())
        }
    if model.evidence:
        doc["evidence"] = {
            name: [
                {"factor": factor_name(factor), "count": count} for factor, count in psi.items()
            ]
            for name, psi in sorted(model.evidence.items())
        }
    if model.channels:
        doc["channels"] = {
            name: {
                "dom": space_name(channel.dom),
                "cod": space_name(channel.cod),
                "rows": [
                    {
                        "space": space_name(row.space),
                        "weights": [_scalar_to_json(w) for w in row.weights],
                    }
                    for row in channel.rows
                ],
            }
            for name, channel in sorted(model.channels.items())
        }
    return json.dumps(doc, indent=2) + "\n"


def save_model(model: Model, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(serialize_model(model))


def builtin_medical_model() -> Model:
    """The disease-test scenario as a model-file object."""
    from .models import medical_model

    source = medical_model()
    model = Model()
    model.spaces["D"] = source.disease_space
    model.spaces["T"] = source.test_space
    model.distributions["prior"] = source.prior
    model.factors["pt"] = source.pos_test
    model.factors["nt"] = source.neg_test
    model.evidence["three_tests"] = Evidence(((source.pos_test, 2), (source.neg_test, 1)))
    model.channels["test"] = source.test_channel
    return model


# expression -> (argument resolver kinds, callable)
_OPERATIONS = {
    "validity": ("dist factor", validity),
    "jeffrey_validity": ("dist evidence", jeffrey_validity),
    "pearl_validity": ("dist evidence", pearl_validity),
    "covariance": ("dist factor factor", covariance),
    "bayes_update": ("dist factor", bayes_update),
    "jeffrey_update": ("dist evidence", jeffrey_update),
    "pearl_update": ("dist evidence", pearl_update),
    "vfe_update": ("dist evidence", vfe_update),
    "flrn": ("multiset", flrn),
    "coefm": ("multiset", coefm),
    "and_conj": ("evidence", and_conj),
    "match_status": ("evidence", match_status),
    "push": ("channel dist", push),
    "pull": ("channel factor", pull),
    "triple_pull": ("channel evidence", triple_pull),
    "dagger": ("channel dist", dagger),
    "kl_divergence": ("dist dist", kl_divergence),
}

_EXPR_RE = re.compile(r"^\s*([A-Za-z_][A-Za-z0-9_]*)\s*\(\s*([^()]*)\s*\)\s*$")
_SECTION_OF_KIND = {
    "dist": "distributions",
    "factor": "factors",
    "evidence": "evidence",
    "multiset": "multisets",
    "channel": "channels",
}


def eval_expression(model: Model, expr: str):
    """Evaluate ``operation(entity, ...)`` against a model.

    The grammar is a single operation applied to entity identifiers;
    anything else raises ExprParseError with the offending column.
    """
    match = _EXPR_RE.match(expr)
    if not match:
        paren = expr.find("(")
        column = (paren if paren >= 0 else len(expr)) + 1
        raise ExprParseError("expected 'operation(entity, ...)'", 1, column)
    op_name, arg_text = match.groups()
    if op_name not in _OPERATIONS:
        raise ExprParseError(f"unknown operation {op_name!r}", 1, expr.find(op_name) + 1)
    kinds, func = _OPERATIONS[op_name]
    kinds = kinds.split()
    args = [a.strip() for a in arg_text.split(",")] if arg_text.strip() else []
    if len(args) != len(kinds):
        raise ExprParseError(
            f"{op_name} expects {len(kinds)} argument(s), got {len(args)}", 1, len(expr)
        )
    resolved = []
    for name, kind in zip(args, kinds):
        section = getattr(model, _SECTION_OF_KIND[kind])
        if name not in section:
            raise ModelError(f"unknown {kind} {name!r}")
        resolved.append(section[name])
    return func(*resolved)


def format_result(value) -> str:
    """Render an eval result: scalars in exact-fraction form when exact."""
    if isinstance(value, (Dist, Factor, Evidence, Multiset, Channel)):
        return str(value)
    if hasattr(value, "value"):  # MatchStatus
        return str(value.value)
    if isinstance(value, (int, float)) or hasattr(value, "denominator"):
        return format_scalar(value)
    return str(value)
