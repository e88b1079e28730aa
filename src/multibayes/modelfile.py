"""JSON model files: named spaces, distributions, factors, multisets,
evidence and channels referencing each other by identifier."""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Any

from .channel import Channel, dagger, pull, push, triple_pull
from .core import SampleSpace, format_scalar
from .distribution import Dist, flrn
from .divergence import kl_divergence
from .errors import ExprParseError, ModelError, MultibayesError
from .evidence import Evidence, Factor, MatchStatus, and_conj, match_status
from .multiset import Multiset, coefm
from .update import bayes_update, jeffrey_update, pearl_update, vfe_update
from .validity import covariance, jeffrey_validity, pearl_validity, validity


class Model:
    """In-memory form of a model file: for each section of ``_SECTIONS``,
    an attribute of that name holding a dict from identifier to entity."""

    def __init__(self):
        for section in _SECTIONS:
            setattr(self, section, {})


def _array(value: Any, what: str) -> list:
    """``value``, which a model file must give as a JSON array."""
    if not isinstance(value, list):
        raise ModelError(f"{what} must be a JSON array")
    return value


def _lookup(model: Model, kind: str, name: Any):
    """The entity of ``kind`` (a kind of ``_SECTIONS``) named ``name``."""
    entities = getattr(model, _SECTION_OF_KIND[kind])
    if not isinstance(name, str) or name not in entities:
        raise ModelError(f"unknown {kind} {name!r}")
    return entities[name]


# Readers take the model read so far and one JSON entry; Dist and Factor
# read the scalars themselves.  Writers take one entity and ``name_of``.


def _vector(cls, key: str):
    """Reader and writer of a Dist or Factor, whose scalars ``cls.<key>``
    are the JSON array ``key``: exact ones as strings, floats as numbers."""

    def read(model: Model, body: Any):
        return cls(_lookup(model, "space", body["space"]), _array(body[key], key))

    def write(vector, name_of) -> dict:
        values = [v if isinstance(v, float) else format_scalar(v) for v in getattr(vector, key)]
        return {"space": name_of("space", vector.space), key: values}

    return read, write


_read_dist, _write_dist = _vector(Dist, "weights")


def _read_multiset(model: Model, body: Any) -> Multiset:
    space = _lookup(model, "space", body["space"])
    counts = {}
    for entry in _array(body["counts"], "counts"):
        if entry["element"] in counts:
            raise ModelError(f"duplicate element {entry['element']!r} in multiset counts")
        counts[entry["element"]] = entry["count"]
    return Multiset.from_counts(space, counts)


def _read_channel(model: Model, body: Any) -> Channel:
    dom, cod = _lookup(model, "space", body["dom"]), _lookup(model, "space", body["cod"])
    return Channel(dom, cod, [_read_dist(model, row) for row in _array(body["rows"], "rows")])


#: section -> (entity kind, reader, writer), in dependency order: spaces
#: first, factors before evidence.  Evidence that names a factor twice
#: adds the counts, as Evidence merges equal factors.
_SECTIONS = {
    "spaces": (
        "space",
        lambda model, body: SampleSpace(_array(body["elements"], "elements")),
        lambda space, name_of: {"elements": list(space.elements)},
    ),
    "distributions": ("dist", _read_dist, _write_dist),
    "factors": ("factor", *_vector(Factor, "values")),
    "multisets": (
        "multiset",
        _read_multiset,
        lambda phi, name_of: {
            "space": name_of("space", phi.space),
            "counts": [{"element": x, "count": c} for x, c in phi.items()],
        },
    ),
    "evidence": (
        "evidence",
        lambda model, body: Evidence(
            [(_lookup(model, "factor", entry["factor"]), entry["count"]) for entry in _array(body, "evidence")]
        ),
        lambda psi, name_of: [{"factor": name_of("factor", f), "count": c} for f, c in psi.items()],
    ),
    "channels": (
        "channel",
        _read_channel,
        lambda channel, name_of: {
            "dom": name_of("space", channel.dom),
            "cod": name_of("space", channel.cod),
            "rows": [_write_dist(row, name_of) for row in channel.rows],
        },
    ),
}
_SECTION_OF_KIND = {kind: section for section, (kind, _, _) in _SECTIONS.items()}


def parse_model(text: str) -> Model:
    """Parse model JSON; malformed input raises ExprParseError with position."""
    try:
        raw = json.loads(text)
        if not isinstance(raw, dict):
            raise ModelError("model file must be a JSON object")
        model = Model()
        for section, (_, read, _) in _SECTIONS.items():
            body = raw.get(section, {})
            if not isinstance(body, dict):
                raise ModelError(f"section {section!r} must be a JSON object")
            entities = getattr(model, section)
            for name, entry in body.items():
                entities[name] = read(model, entry)
    except json.JSONDecodeError as exc:
        raise ExprParseError(f"invalid JSON: {exc.msg}", exc.lineno, exc.colno) from exc
    except MultibayesError:
        raise
    # json.loads raises ValueError on an int of too many digits and
    # RecursionError on arrays nested too deep
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
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

    def name_of(kind: str, entity) -> str:
        for name, candidate in getattr(model, _SECTION_OF_KIND[kind]).items():
            if candidate == entity:
                return name
        raise ModelError(f"entity refers to a {kind} that is not declared")

    doc: dict[str, Any] = {}
    for section, (_, _, write) in _SECTIONS.items():
        entities = getattr(model, section)
        if entities:
            doc[section] = {name: write(entity, name_of) for name, entity in sorted(entities.items())}
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
    model.evidence["three_tests"] = source.three_tests
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
    return func(*[_lookup(model, kind, name) for name, kind in zip(args, kinds)])


def format_result(value) -> str:
    """Render an eval result: scalars in exact-fraction form when exact."""
    if isinstance(value, MatchStatus):
        return value.value
    if isinstance(value, (int, float, Fraction)):
        return format_scalar(value)
    return str(value)
