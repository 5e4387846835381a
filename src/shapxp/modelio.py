"""Model and sample ingestion plus run-report serialization.

Model files are versioned JSON (see docs/model-format.md). Rational
literals are accepted anywhere a number is expected, written either as
JSON numbers (decimals are parsed exactly, never via binary floats) or as
"p/q" strings. Strings that do not parse as rationals are categorical
labels. Samples are header-bearing delimiter-separated text files, one
point per row, with an optional trailing prediction column.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Optional

from .errors import DomainError, ValidationError
from .models import (
    CATEGORICAL,
    NUMERIC,
    BoxPiecewiseModel,
    Cell,
    DiscreteDomain,
    Feature,
    FeatureSpace,
    IntervalDomain,
    Model,
    TabularModel,
    TreeLeaf,
    TreeModel,
    TreeNode,
    predict,  # noqa: F401  (looked up here by the benchmark's tracer)
)
from .explanations import Sample

SCHEMA_VERSION = 1
_DELIMITERS = (",", "\t", ";", "|")


def parse_rational(x, where: str = "value") -> Fraction:
    if isinstance(x, bool):
        raise ValidationError(f"{where}: booleans are not rationals")
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            raise ValidationError(f"{where}: {x!r} is not a rational literal") from None
    raise ValidationError(f"{where}: {x!r} is not a rational literal")


def parse_value(x, where: str = "value"):
    """A scalar from a model/sample file: rational if it parses as one,
    otherwise a categorical label."""
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            return x
    return parse_rational(x, where)


def format_value(v):
    """Canonical JSON form: integers as numbers, other rationals as
    "p/q" strings, labels as themselves."""
    if isinstance(v, Fraction):
        return int(v) if v.denominator == 1 else str(v)
    return v


def rational_str(v) -> str:
    return str(Fraction(v))


# ---------------------------------------------------------------------------
# Model files
# ---------------------------------------------------------------------------

def load_model(path) -> Model:
    """Read and validate a JSON model file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh, parse_float=Fraction)
        except (ValueError, RecursionError) as exc:
            # Bad JSON, bytes that are not UTF-8 and integer literals past
            # Python's digit limit raise ValueError; deep nesting recurses.
            raise ValidationError(f"{path}: not valid UTF-8 JSON ({exc})") from None
    return model_from_dict(doc, where=str(path))


def model_from_dict(doc: dict, where: str = "model") -> Model:
    if not isinstance(doc, dict):
        raise ValidationError(f"{where}: model document must be a JSON object")
    if doc.get("version") != SCHEMA_VERSION:
        raise ValidationError(f"{where}: missing or unsupported schema version "
                              f"(need \"version\": {SCHEMA_VERSION})")
    kind = doc.get("kind")
    value_kind = doc.get("value_kind", NUMERIC)
    if value_kind not in (NUMERIC, CATEGORICAL):
        raise ValidationError(f"{where}: unknown value_kind {value_kind!r}")
    space = _space_from(doc.get("features"), where)
    if kind == "tabular":
        return _tabular_from(doc, space, value_kind, where)
    if kind == "tree":
        return _tree_from(doc, space, value_kind, where)
    if kind == "box_piecewise":
        return _box_from(doc, space, where)
    raise ValidationError(f"{where}: unknown model kind {kind!r}")


def _space_from(entries, where: str) -> FeatureSpace:
    if not isinstance(entries, list) or not entries:
        raise ValidationError(f"{where}: 'features' must be a non-empty list")
    features = []
    for entry in entries:
        if not isinstance(entry, dict):
            raise ValidationError(f"{where}: each feature must be a JSON object")
        fid = entry.get("id")
        if isinstance(fid, bool) or not isinstance(fid, int):
            raise ValidationError(f"{where}: feature 'id' must be an integer, got {fid!r}")
        name = entry.get("name", f"x{fid}")
        dom = entry.get("domain", {})
        if not isinstance(name, str):
            raise ValidationError(f"{where}: feature {fid}: 'name' must be a string")
        if not isinstance(dom, dict):
            raise ValidationError(f"{where}: feature {fid}: 'domain' must be a JSON object")
        dtype = dom.get("type")
        if dtype == "discrete":
            raw_values = dom.get("values", [])
            if not isinstance(raw_values, list):
                raise ValidationError(f"{where}: feature {fid}: 'values' must be a list")
            values = tuple(parse_value(v, f"{where}: feature {fid} domain")
                           for v in raw_values)
            domain = DiscreteDomain(values)
        elif dtype == "interval":
            domain = IntervalDomain(
                parse_rational(dom.get("lo"), f"{where}: feature {fid} lo"),
                parse_rational(dom.get("hi"), f"{where}: feature {fid} hi"))
        else:
            raise ValidationError(f"{where}: feature {fid}: unknown domain type {dtype!r}")
        features.append(Feature(fid, name, domain))
    return FeatureSpace(tuple(features))


def _model_value(raw, value_kind: str, where: str):
    if value_kind == NUMERIC:
        return parse_rational(raw, where)
    if not isinstance(raw, str):
        raise ValidationError(f"{where}: categorical values must be strings, got {raw!r}")
    return raw


def _tabular_from(doc, space, value_kind, where) -> TabularModel:
    entries = doc.get("table")
    if not isinstance(entries, list):
        raise ValidationError(f"{where}: tabular model needs a 'table' list")
    table = {}
    for k, entry in enumerate(entries):
        loc = f"{where}: table entry {k}"
        if not isinstance(entry, dict):
            raise ValidationError(f"{loc}: expected a JSON object")
        raw_point = entry.get("point")
        if not isinstance(raw_point, list) or len(raw_point) != space.m:
            raise ValidationError(f"{loc}: 'point' must list {space.m} values")
        point = tuple(parse_value(x, loc) for x in raw_point)
        try:
            space.check_point(point)
        except DomainError as exc:
            raise ValidationError(f"{loc}: {exc}") from None
        if point in table:
            raise ValidationError(f"{loc}: duplicate point {point}")
        table[point] = _model_value(entry.get("value"), value_kind, loc)
    if "default" in doc:
        default = _model_value(doc["default"], value_kind, f"{where}: default")
        for point in space.points():
            table.setdefault(point, default)
    return TabularModel(space, table, value_kind)


def _tree_from(doc, space, value_kind, where) -> TreeModel:
    raw_nodes = doc.get("nodes")
    if not isinstance(raw_nodes, list) or "root" not in doc:
        raise ValidationError(f"{where}: tree model needs 'root' and a 'nodes' list")
    nodes = {}
    for entry in raw_nodes:
        if not isinstance(entry, dict):
            raise ValidationError(f"{where}: tree nodes must be JSON objects")
        nid = _node_id(entry.get("id"), f"{where}: node id")
        loc = f"{where}: node {nid}"
        if nid in nodes:
            raise ValidationError(f"{loc}: duplicate node id")
        if "value" in entry:
            nodes[nid] = TreeLeaf(_model_value(entry["value"], value_kind, loc))
        elif "feature" in entry:
            feature = entry["feature"]
            if isinstance(feature, bool) or not isinstance(feature, int):
                raise ValidationError(f"{loc}: 'feature' must be a feature id, got {feature!r}")
            raw_edges = entry.get("edges", [])
            if not isinstance(raw_edges, list):
                raise ValidationError(f"{loc}: 'edges' must be a list")
            edges = []
            for edge in raw_edges:
                if not isinstance(edge, dict) or not isinstance(edge.get("values", []), list):
                    raise ValidationError(f"{loc}: each edge must be an object with a 'values' list")
                values = tuple(parse_value(v, loc) for v in edge.get("values", []))
                edges.append((values, _node_id(edge.get("child"), f"{loc}: child")))
            nodes[nid] = TreeNode(feature, tuple(edges))
        else:
            raise ValidationError(f"{loc}: needs either 'value' or 'feature'")
    return TreeModel(space, nodes, _node_id(doc["root"], f"{where}: root"), value_kind)


def _node_id(raw, where: str):
    # Node ids key a dict, so a JSON list or object cannot be one.
    if isinstance(raw, (list, dict)):
        raise ValidationError(f"{where}: a node id must be a number or a string, got {raw!r}")
    return raw


def _box_from(doc, space, where) -> BoxPiecewiseModel:
    raw_cells = doc.get("cells")
    if not isinstance(raw_cells, list):
        raise ValidationError(f"{where}: box model needs a 'cells' list")
    cells = []
    for k, entry in enumerate(raw_cells):
        loc = f"{where}: cell {k}"
        if not isinstance(entry, dict):
            raise ValidationError(f"{loc}: expected a JSON object")
        box = entry.get("box")
        affine = entry.get("affine")
        if not isinstance(box, list) or len(box) != space.m or not all(
                isinstance(pair, list) and len(pair) == 2 for pair in box):
            raise ValidationError(f"{loc}: 'box' must list {space.m} [lo, hi] pairs")
        if not isinstance(affine, list) or len(affine) != space.m + 1:
            raise ValidationError(f"{loc}: 'affine' must list {space.m + 1} coefficients")
        bounds = tuple(
            (parse_rational(lo, loc), parse_rational(hi, loc)) for lo, hi in box)
        coeffs = [parse_rational(a, loc) for a in affine]
        cells.append(Cell(bounds, coeffs[0], tuple(coeffs[1:])))
    return BoxPiecewiseModel(space, tuple(cells))


# ---------------------------------------------------------------------------
# Sample files
# ---------------------------------------------------------------------------

def load_sample(path, model: Model) -> Sample:
    """Read a delimiter-separated sample; the trailing 'prediction'
    column, when present, is checked against the model."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            lines = [line.rstrip("\n") for line in fh if line.strip()]
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path}: not UTF-8 text ({exc})") from None
    if len(lines) < 2:
        raise ValidationError(f"{path}: sample needs a header line and at least one row")
    names = [f.name for f in model.space.features]
    header, delim = _split_header(lines[0], names, path)
    has_prediction = len(header) == len(names) + 1
    rows, preds = [], []
    for lineno, line in enumerate(lines[1:], start=2):
        fields = [f.strip() for f in line.split(delim)]
        if len(fields) != len(header):
            raise ValidationError(f"{path}:{lineno}: expected {len(header)} fields, "
                                  f"got {len(fields)}")
        point = tuple(parse_value(f, f"{path}:{lineno}") for f in fields[:len(names)])
        try:
            model.space.check_point(point)
        except DomainError as exc:
            raise ValidationError(f"{path}:{lineno}: {exc}") from None
        actual = model.output(point)  # the point was checked just above
        if has_prediction:
            given = _model_value(fields[-1], model.value_kind, f"{path}:{lineno}")
            if given != actual:
                raise ValidationError(
                    f"{path}:{lineno}: prediction {given!r} disagrees with the "
                    f"model output {actual!r}")
        rows.append(point)
        preds.append(actual)
    return Sample(tuple(rows), tuple(preds))


def _split_header(line: str, names: list[str], path) -> tuple[list[str], str]:
    for delim in _DELIMITERS:
        fields = [f.strip() for f in line.split(delim)]
        if fields[:len(names)] == names and len(fields) in (len(names), len(names) + 1):
            return fields, delim
    raise ValidationError(
        f"{path}: header must list the feature names {names} (optionally followed "
        f"by a prediction column)")


# ---------------------------------------------------------------------------
# Run reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunReport:
    """Everything one CLI invocation computed, in JSON-ready form.

    All rationals inside are canonical strings, so serialization is
    lossless and byte-stable. Timing is excluded from JSON by default to
    keep identical invocations byte-identical.
    """

    command: str
    model: dict
    instance: Optional[dict]
    similarity: Optional[dict]
    universe: Optional[dict]
    results: dict
    diagnostics: Optional[dict] = None
    timing_ms: Optional[float] = None

    def to_json(self, include_timing: bool = False) -> str:
        doc = asdict(self)
        if not include_timing:
            doc.pop("timing_ms")
        return json.dumps(doc, sort_keys=True, separators=(",", ": "), indent=1) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        doc = json.loads(text)
        return cls(
            command=doc["command"],
            model=doc["model"],
            instance=doc.get("instance"),
            similarity=doc.get("similarity"),
            universe=doc.get("universe"),
            results=doc["results"],
            diagnostics=doc.get("diagnostics"),
            timing_ms=doc.get("timing_ms"),
        )
