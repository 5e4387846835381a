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
from operator import getitem, mul
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
    Point,
    TabularModel,
    TreeLeaf,
    TreeModel,
    TreeNode,
    dense_slots,
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


class PointReader:
    """Reads raw points (JSON tokens or text fields) as points of a space.

    On a discrete space each feature keeps a cache from a raw token to its
    value's domain position, keyed by (type(token), token) because
    True == 1. A point whose tokens all hit is neither parsed nor checked
    again, and its coordinates are the domain's own objects. A miss parses
    and checks the whole point, so a bad point raises what parse_value and
    check_point raise, in their order: ValidationError for a token that is
    no value, DomainError for a value outside its domain."""

    def __init__(self, space: FeatureSpace):
        self.space = space
        self.caches = [{} for _ in space.features]
        self.discrete = space.all_discrete()

    def indexes(self, raw, where: str) -> list[int]:
        """The domain positions of a discrete point's raw tokens, one token
        per feature (callers check the count)."""
        try:
            return [cache[type(t), t] for cache, t in zip(self.caches, raw)]
        except (KeyError, TypeError):  # a new token, or an unhashable one
            pass
        point = self._parsed(raw, where)
        indexes = [f.domain.index[x] for f, x in zip(self.space.features, point)]
        for cache, t, k in zip(self.caches, raw, indexes):
            cache[type(t), t] = k
        return indexes

    def point(self, raw, where: str) -> Point:
        if not self.discrete:
            return self._parsed(raw, where)
        return self.point_at(self.indexes(raw, where))

    def point_at(self, indexes) -> Point:
        return tuple(map(getitem, (f.domain.values for f in self.space.features), indexes))

    def _parsed(self, raw, where: str) -> Point:
        point = tuple(parse_value(t, where) for t in raw)
        self.space.check_point(point)
        return point


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


def _memo_value(memo: dict, raw, value_kind: str, where: str):
    """_model_value through a memo keyed by (type(raw), raw), because
    True == 1; an unhashable token, which _model_value rejects, skips it."""
    try:
        return memo[type(raw), raw]
    except KeyError:
        value = memo[type(raw), raw] = _model_value(raw, value_kind, where)
        return value
    except TypeError:
        return _model_value(raw, value_kind, where)


def _tabular_from(doc, space, value_kind, where) -> TabularModel:
    """Each entry fills its point's output slot: a filled slot is a
    duplicate, and a slot left empty with no default fails totality."""
    entries = doc.get("table")
    if not isinstance(entries, list):
        raise ValidationError(f"{where}: tabular model needs a 'table' list")
    outputs = dense_slots(space)
    m, strides, reader, values = space.m, space.strides, PointReader(space), {}
    for k, entry in enumerate(entries):
        loc = f"{where}: table entry {k}"
        if not isinstance(entry, dict):
            raise ValidationError(f"{loc}: expected a JSON object")
        raw_point = entry.get("point")
        if not isinstance(raw_point, list) or len(raw_point) != m:
            raise ValidationError(f"{loc}: 'point' must list {m} values")
        try:
            indexes = reader.indexes(raw_point, loc)
        except DomainError as exc:
            raise ValidationError(f"{loc}: {exc}") from None
        slot = sum(map(mul, indexes, strides))
        if outputs[slot] is not None:
            raise ValidationError(f"{loc}: duplicate point {reader.point_at(indexes)}")
        outputs[slot] = _memo_value(values, entry.get("value"), value_kind, loc)
    if "default" in doc:
        default = _model_value(doc["default"], value_kind, f"{where}: default")
        outputs = [default if y is None else y for y in outputs]
    return TabularModel(space, outputs, value_kind)


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
    cells, memo = [], {}  # each distinct token is parsed once
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
        bounds = tuple((_memo_value(memo, lo, NUMERIC, loc), _memo_value(memo, hi, NUMERIC, loc))
                       for lo, hi in box)
        coeffs = [_memo_value(memo, a, NUMERIC, loc) for a in affine]
        cells.append(Cell(bounds, coeffs[0], tuple(coeffs[1:])))
    return BoxPiecewiseModel(space, tuple(cells))


# ---------------------------------------------------------------------------
# Sample files
# ---------------------------------------------------------------------------

def load_sample(path, model: Model) -> Sample:
    """Read a delimiter-separated sample; the trailing 'prediction'
    column, when present, is checked against the model. Each distinct
    line is read, checked and evaluated (by slot on a discrete space) once,
    at its first occurrence, and its repeats share that row."""
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
    space, m, rows = model.space, len(names), []
    reader, predictions, seen = PointReader(space), {}, {}  # seen: line -> row
    for lineno, line in enumerate(lines[1:], start=2):
        row = seen.get(line)
        if row is None:
            where = f"{path}:{lineno}"
            fields = [f.strip() for f in line.split(delim)]
            if len(fields) != len(header):
                raise ValidationError(f"{where}: expected {len(header)} fields, "
                                      f"got {len(fields)}")
            try:
                if reader.discrete:
                    codes = tuple(reader.indexes(fields[:m], where))
                    point = reader.point_at(codes)
                    actual = model._read(sum(map(mul, codes, space.strides)))
                else:
                    codes, point = None, reader.point(fields[:m], where)
                    actual = model.output(point)  # the reader checked the point
            except DomainError as exc:
                raise ValidationError(f"{where}: {exc}") from None
            if has_prediction:
                given = _memo_value(predictions, fields[-1], model.value_kind, where)
                if given != actual:
                    raise ValidationError(
                        f"{where}: prediction {given!r} disagrees with the "
                        f"model output {actual!r}")
            row = seen[line] = point, codes, actual
        rows.append(row)
    points, codes, preds = zip(*rows)
    if not reader.discrete:  # the sample codes its values itself
        return Sample(points, preds)
    return Sample(points, preds, codes, space.indexes)


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
