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
import sys
from fractions import Fraction
from itertools import chain, repeat
from operator import add, getitem, itemgetter, mul, ne

from .errors import DomainError, SizeLimitError, ValidationError
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
    not_total,
    predict,  # noqa: F401  (looked up here by the benchmark's tracer)
)
from .explanations import Sample

SCHEMA_VERSION = 1
_DELIMITERS = (",", "\t", ";", "|")
# The token types a column of a table is read from; True == 1, so a bool
# (and any other type) sends the table to the entry loop.
_TOKEN_TYPES = {int, str, Fraction}


def _fraction(text: str) -> Fraction:
    """Fraction(text), refused (ValueError) before any power of ten is
    built when the literal's numerator or denominator, written out in full
    before reducing, would pass Python's integer digit limit: "1e5000"
    could be read but never printed, and "1e9999999" takes seconds."""
    limit = sys.get_int_max_str_digits()
    # With no exponent, a literal shorter than the limit stays within it.
    if limit and (len(text) >= limit or "e" in text or "E" in text):
        mantissa, _, exponent = text.lower().partition("e")
        decimals = mantissa.partition(".")[2]
        shift = (int(exponent) if exponent else 0) - sum(map(str.isdecimal, decimals))
        if sum(map(str.isdecimal, mantissa)) + max(shift, 0) > limit or -shift >= limit:
            raise ValueError(f"{text!r} passes the integer digit limit")
    return Fraction(text)


def parse_rational(x, where: str = "value") -> Fraction:
    if isinstance(x, bool):
        raise ValidationError(f"{where}: booleans are not rationals")
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return _fraction(x)
        except (ValueError, ZeroDivisionError):
            raise ValidationError(f"{where}: {x!r} is not a rational literal") from None
    raise ValidationError(f"{where}: {x!r} is not a rational literal")


def parse_value(x, where: str = "value"):
    """A scalar from a model/sample file: rational if it parses as one,
    otherwise a categorical label. It also reads JSON decimals, so a
    number past the digit limit loads as its literal text."""
    if isinstance(x, str):
        try:
            return _fraction(x)
        except (ValueError, ZeroDivisionError):
            return x
    return parse_rational(x, where)


def _integral(parse):
    """``parse`` with an integral rational as an int, which hashes and compares in C."""
    def read(x, where: str = "value"):
        if x.__class__ is str and x.lstrip("-").isdecimal():
            try:
                return int(x)
            except ValueError:  # "--1", or past the digit limit, as Fraction() is
                pass
        v = x if x.__class__ is int else parse(x, where)
        return v.numerator if v.__class__ is Fraction and v.denominator == 1 else v
    return read


# Interval bounds, box cells and box points stay Fractions: (lo + hi) / 2 of ints is a float.
read_discrete, read_number = _integral(parse_value), _integral(parse_rational)


def read_point(space: FeatureSpace, raw, where: str) -> Point:
    """A raw point (JSON tokens or text fields) as a point of ``space``:
    every token is parsed, then the point is checked, so a bad point raises
    ValidationError for a token that is no value, else DomainError for a
    value outside its domain, as ``parse_value`` reads it. On a discrete
    space the coordinates are the domain's own objects, which dict lookups,
    membership tests and ``Sample.disagreements`` match by identity first."""
    discrete = space.all_discrete()
    point = tuple((read_discrete if discrete else parse_value)(t, where) for t in raw)
    try:
        space.check_point(point)
    except DomainError:  # raised again with the values as parse_value reads them
        space.check_point(tuple(map(parse_value, raw)))
        raise
    if not discrete:
        return point
    return tuple(f.domain.values[index[x]]
                 for f, index, x in zip(space.features, space.indexes, point))


def _as_parsed(values) -> tuple:
    """Loaded values as error texts show them: ints as Fractions."""
    return tuple(Fraction(v) if v.__class__ is int else v for v in values)


def format_value(v):
    """Canonical JSON form: integers as numbers, other rationals as
    "p/q" strings, labels as themselves."""
    if isinstance(v, Fraction):
        text = rational_str(v)
        return v.numerator if v.denominator == 1 else text
    return v


def rational_str(v) -> str:
    """v as "p/q", or "p" for an integer. A rational computed from
    in-limit literals can still pass Python's integer digit limit, so
    such a value raises SizeLimitError rather than ValueError."""
    v = Fraction(v)
    try:
        return str(v)
    except ValueError:
        raise SizeLimitError(
            f"a result has more than {sys.get_int_max_str_digits()} digits in its "
            "numerator or denominator, past Python's integer digit limit") from None


# ---------------------------------------------------------------------------
# Model files
# ---------------------------------------------------------------------------

def load_model(path) -> Model:
    """Read and validate a JSON model file. A JSON boolean is spelled
    ``true`` or ``false``, so a text holding neither has none."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
            doc = json.loads(text, parse_float=parse_value)
        except (ValueError, RecursionError) as exc:
            # Bad JSON, bytes that are not UTF-8 and integer literals past
            # Python's digit limit raise ValueError; deep nesting recurses.
            raise ValidationError(f"{path}: not valid UTF-8 JSON ({exc})") from None
    return model_from_dict(doc, str(path), "true" in text or "false" in text)


def model_from_dict(doc: dict, where: str = "model", booleans: bool = True) -> Model:
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
        return _tabular_from(doc, space, value_kind, where, booleans)
    if kind == "tree":
        return _tree_from(doc, space, value_kind, where)
    if kind == "box_piecewise":
        return _box_from(doc, space, value_kind, where, booleans)
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
            at = f"{where}: feature {fid} domain"
            kind, args = DiscreteDomain, (tuple(read_discrete(v, at) for v in raw_values),)
        elif dtype == "interval":
            kind, args = IntervalDomain, (
                parse_rational(dom.get("lo"), f"{where}: feature {fid} lo"),
                parse_rational(dom.get("hi"), f"{where}: feature {fid} hi"))
        else:
            raise ValidationError(f"{where}: feature {fid}: unknown domain type {dtype!r}")
        try:
            features.append(Feature(fid, name, kind(*args)))
        except ValidationError as exc:  # the domain's own checks, which name no feature
            raise ValidationError(f"{where}: feature {fid}: {exc}") from None
    return FeatureSpace(tuple(features))


def _label(raw, where: str) -> str:
    if not isinstance(raw, str):
        raise ValidationError(f"{where}: categorical values must be strings, got {raw!r}")
    return raw


# Each value kind's reading of a model output: a table value or default, a
# tree leaf, a sample's prediction.
_OUTPUT = {NUMERIC: read_number, CATEGORICAL: _label}


def _memo_value(memo: dict, raw, parse, where: str):
    """parse(raw, where) through a memo keyed by (type(raw), raw), because
    True == 1; an unhashable token, which the parsers reject, skips it."""
    try:
        return memo[type(raw), raw]
    except KeyError:
        value = memo[type(raw), raw] = parse(raw, where)
        return value
    except TypeError:
        return parse(raw, where)


def _tabular_from(doc, space, value_kind, where, booleans) -> TabularModel:
    """The table read by columns when it is regular, else by the entry
    loop, which raises on what is not."""
    entries = doc.get("table")
    if not isinstance(entries, list):
        raise ValidationError(f"{where}: tabular model needs a 'table' list")
    outputs = dense_slots(space)
    if _table_columns(entries, space, value_kind, outputs, booleans) is None:
        _table_entries(entries, space, value_kind, outputs, where)
    if "default" in doc:
        default = _OUTPUT[value_kind](doc["default"], f"{where}: default")
        outputs = [default if y is None else y for y in outputs]
    elif len(entries) < len(outputs):  # each entry filled a slot of its own
        raise not_total(space, outputs, _as_parsed)
    return TabularModel(space, outputs, value_kind)


def _table_columns(entries, space, value_kind, outputs, booleans) -> list | None:
    """The entry loop's filling of the empty ``outputs``, read column by
    column: a table of one entry per point whose columns list the domains
    in slot order (the first feature varying slowest) fills the slots in
    turn, and any other has each feature's distinct tokens parsed and
    looked up once, and whole columns mapped to slot offsets and values.
    Nothing is filled, and None returned, unless the table is regular:
    entries are objects with a 'point' of m tokens and a 'value', every
    token's type is in _TOKEN_TYPES, every point lies in the space, no
    point repeats and every value parses. The entry loop reports what is
    irregular; it is the reference this path must agree with.

    A column equal to its slot-order column has each token read as the
    domain value it equals, unless one is a JSON boolean (True == 1), so
    its types are checked only when ``booleans``: the text may hold one."""
    try:
        points = list(map(itemgetter("point"), entries))
        raw_values = list(map(itemgetter("value"), entries))
    except (KeyError, TypeError):  # a missing field, or an entry that is no object
        return None
    if not ({*map(type, entries)} <= {dict} and {*map(type, points)} <= {list}
            and {*map(len, points)} <= {space.m} and {*map(type, raw_values)} <= _TOKEN_TYPES):
        return None
    n = len(points)
    slots = None if n == space.size else [0] * n  # None while the columns run in slot order
    for feature, stride, column in zip(space.features, space.strides, zip(*points)):
        domain = feature.domain.values
        block = stride * len(domain)  # the slots one pass over the domain spans
        in_order = slots is None and column == tuple(
            chain.from_iterable(map(repeat, domain, repeat(stride)))) * (n // block)
        if (booleans or not in_order) and not {*map(type, column)} <= _TOKEN_TYPES:
            return None
        if in_order:
            continue
        if slots is None:
            slots = [slot - slot % block for slot in range(n)]  # the earlier columns' offsets
        index = feature.domain.index
        try:
            offsets = {t: index[read_discrete(t)] * stride for t in set(column)}
        except KeyError:  # a value outside the domain
            return None
        slots = list(map(add, slots, map(offsets.__getitem__, column)))
    if slots is not None and len(set(slots)) < n:
        return None
    parse = _OUTPUT[value_kind]
    try:
        values = {t: parse(t, "") for t in set(raw_values)}
    except ValidationError:
        return None
    read = map(values.__getitem__, raw_values)
    if slots is None:  # every column ran in slot order
        outputs[:] = read
    else:
        for slot, y in zip(slots, read):
            outputs[slot] = y
    return outputs


def _table_entries(entries, space, value_kind, outputs, where) -> list:
    """Each entry fills its point's output slot: a filled slot is a
    duplicate, and a slot left empty with no default fails totality. Only
    a table the column path refuses is read here, and the first entry that
    is wrong raises. Each feature's tokens, and the values, are read once
    per call: a token ``read_point`` accepted before at that position is
    known by its domain position, keyed by (type, token), as True == 1."""
    m, parse = space.m, _OUTPUT[value_kind]
    known = [{} for _ in range(m)]  # per feature: (type, token) -> domain position
    values = {}  # the value tokens, for _memo_value
    for k, entry in enumerate(entries):
        loc = f"{where}: table entry {k}"
        if not isinstance(entry, dict):
            raise ValidationError(f"{loc}: expected a JSON object")
        raw_point = entry.get("point")
        if not isinstance(raw_point, list) or len(raw_point) != m:
            raise ValidationError(f"{loc}: 'point' must list {m} values")
        try:
            at = list(map(getitem, known, zip(map(type, raw_point), raw_point)))
        except (KeyError, TypeError):  # a token not met before, or an unhashable one
            try:
                at = list(map(getitem, space.indexes, read_point(space, raw_point, loc)))
            except DomainError as exc:
                raise ValidationError(f"{loc}: {exc}") from None
            for memo, t, position in zip(known, raw_point, at):
                memo[type(t), t] = position
        slot = sum(map(mul, at, space.strides))
        if outputs[slot] is not None:
            point = _as_parsed(f.domain.values[p] for f, p in zip(space.features, at))
            raise ValidationError(f"{loc}: duplicate point {point}")
        outputs[slot] = _memo_value(values, entry.get("value"), parse, loc)
    return outputs


def _tree_from(doc, space, value_kind, where) -> TreeModel:
    raw_nodes = doc.get("nodes")
    if not isinstance(raw_nodes, list) or "root" not in doc:
        raise ValidationError(f"{where}: tree model needs 'root' and a 'nodes' list")
    nodes, leaves, edge_values, leaf = {}, {}, {}, _OUTPUT[value_kind]
    for entry in raw_nodes:
        if not isinstance(entry, dict):
            raise ValidationError(f"{where}: tree nodes must be JSON objects")
        nid = entry.get("id")
        if type(nid) not in _TOKEN_TYPES:  # a subclass, or no id: _node_id decides
            _node_id(nid, f"{where}: node id")
        try:  # an error is located here, so no node pays for its location
            if nid in nodes:
                raise ValidationError(": duplicate node id")
            if "value" in entry:
                nodes[nid] = TreeLeaf(_memo_value(leaves, entry["value"], leaf, ""))
            elif "feature" in entry:
                feature = entry["feature"]
                if isinstance(feature, bool) or not isinstance(feature, int):
                    raise ValidationError(f": 'feature' must be a feature id, got {feature!r}")
                raw_edges = entry.get("edges", [])
                if not isinstance(raw_edges, list):
                    raise ValidationError(": 'edges' must be a list")
                edges = []
                for edge in raw_edges:
                    tokens = edge.get("values", []) if isinstance(edge, dict) else None
                    if not isinstance(tokens, list):
                        raise ValidationError(": each edge must be an object with a 'values' list")
                    values = tuple([_edge_value(edge_values, feature, t, space) for t in tokens])
                    child = edge.get("child")
                    if type(child) not in _TOKEN_TYPES:
                        _node_id(child, ": child")
                    edges.append((values, child))
                nodes[nid] = TreeNode(feature, tuple(edges))
            else:
                raise ValidationError(": needs either 'value' or 'feature'")
        except ValidationError as exc:
            raise ValidationError(f"{where}: node {nid}{exc}") from None
    return TreeModel(space, nodes, _node_id(doc["root"], f"{where}: root"), value_kind)


def _edge_value(memo: dict, feature, token, space):
    """An edge token as its feature's own domain value, else as ``parse_value``
    reads it, for TreeModel's error; read once per (feature, type, token)."""
    try:
        return memo[feature, type(token), token]
    except (KeyError, TypeError):  # new, or unhashable, which read_discrete refuses
        value = read_discrete(token, "")
    domain = space.features[feature - 1].domain if 0 < feature <= space.m else None
    at = getattr(domain, "index", {}).get(value)  # an interval domain has none
    memo[feature, type(token), token] = parse_value(token) if at is None else domain.values[at]
    return memo[feature, type(token), token]


def _node_id(raw, where: str):
    # Node ids key a dict: true and false would alias 1 and 0, and null a missing id.
    if isinstance(raw, bool) or not isinstance(raw, (int, Fraction, str)):
        raise ValidationError(f"{where}: a node id must be a number or a string, got {raw!r}")
    return raw


def _box_from(doc, space, value_kind, where, booleans) -> BoxPiecewiseModel:
    """The cells read by columns when they are regular, else by the cell
    loop, which raises on what is not."""
    raw_cells = doc.get("cells")
    if not isinstance(raw_cells, list):
        raise ValidationError(f"{where}: box model needs a 'cells' list")
    columns = _box_columns(raw_cells, space.m, booleans)
    if columns is None:
        return BoxPiecewiseModel.from_cells(space, _box_cells(raw_cells, space.m, where), value_kind)
    return BoxPiecewiseModel(space, *columns, value_kind)


def _box_columns(raw_cells, m, booleans=True) -> tuple[tuple, tuple] | None:
    """The cell loop's cells as the model's columns (see BoxPiecewiseModel),
    read as whole lists: each distinct token is parsed once, and the 2m
    bound and m + 1 affine columns are cut from one flat list. None unless
    every cell is an object with a 'box' of m [lo, hi] lists and an 'affine'
    of m + 1 coefficients whose tokens' types are in _TOKEN_TYPES and parse;
    the cell loop reports what is not, and is this path's reference. A
    JSON boolean equals 1 or 0, so only when ``booleans`` (the text may
    hold one) is every token's type checked, else each distinct token's."""
    try:
        boxes = list(map(itemgetter("box"), raw_cells))
        affines = list(map(itemgetter("affine"), raw_cells))
    except (KeyError, TypeError):  # a missing field, or a cell that is no object
        return None
    if not ({*map(type, raw_cells)} <= {dict} and {*map(type, boxes)} <= {list}
            and {*map(type, affines)} <= {list} and {*map(len, boxes)} <= {m}
            and {*map(len, affines)} <= {m + 1}):
        return None
    pairs = list(chain.from_iterable(boxes))
    if not ({*map(type, pairs)} <= {list} and {*map(len, pairs)} <= {2}):
        return None
    tokens = list(chain(chain.from_iterable(pairs), chain.from_iterable(affines)))
    try:
        distinct = set(tokens)
    except TypeError:  # an unhashable token
        return None
    if not {*map(type, tokens if booleans else distinct)} <= _TOKEN_TYPES:
        return None
    try:
        values = {t: _rational(t) for t in distinct}
    except ValidationError:
        return None
    flat, n = tuple(map(values.__getitem__, tokens)), len(pairs) * 2
    return (tuple(flat[i:n:2 * m] for i in range(2 * m)),
            tuple(flat[n + i::m + 1] for i in range(m + 1)))


def _rational(token) -> Fraction:
    """parse_rational(token) for a token of _TOKEN_TYPES: an int, and a
    "p" or "p/q" string of ASCII digits shorter than the digit limit, are
    read without the literal parser."""
    if token.__class__ is int:
        return Fraction(token)
    limit = sys.get_int_max_str_digits()
    if token.__class__ is str and token.isascii() and (not limit or len(token) < limit):
        p, slash, q = token.partition("/")
        if p.removeprefix("-").isdigit() and (q.isdigit() and int(q) or not slash):
            return Fraction(int(p), int(q) if slash else 1)
    return parse_rational(token)


def _box_cells(raw_cells, m, where) -> list:
    """The cells one by one; the first one that is wrong raises. Each
    distinct token is parsed once per call, through ``_memo_value``."""
    cells, memo = [], {}
    for k, entry in enumerate(raw_cells):
        loc = f"{where}: cell {k}"
        if not isinstance(entry, dict):
            raise ValidationError(f"{loc}: expected a JSON object")
        box = entry.get("box")
        affine = entry.get("affine")
        if not isinstance(box, list) or len(box) != m or not all(
                isinstance(pair, list) and len(pair) == 2 for pair in box):
            raise ValidationError(f"{loc}: 'box' must list {m} [lo, hi] pairs")
        if not isinstance(affine, list) or len(affine) != m + 1:
            raise ValidationError(f"{loc}: 'affine' must list {m + 1} coefficients")
        bounds = tuple((_memo_value(memo, lo, parse_rational, loc),
                        _memo_value(memo, hi, parse_rational, loc)) for lo, hi in box)
        coeffs = [_memo_value(memo, a, parse_rational, loc) for a in affine]
        cells.append(Cell(bounds, coeffs[0], tuple(coeffs[1:])))
    return cells


# ---------------------------------------------------------------------------
# Sample files
# ---------------------------------------------------------------------------

def load_sample(path, model: Model) -> Sample:
    """Read a delimiter-separated sample; the trailing 'prediction'
    column, when present, is checked against the model. Each distinct
    line is read, checked and evaluated (by slot on a discrete space) once,
    and its repeats share that row."""
    with open(path, "r", encoding="utf-8") as fh:
        try:  # split on newlines only: splitlines also splits on \f, \x85 and \u2028
            text = fh.read().split("\n")
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path}: not UTF-8 text ({exc})") from None
    lines = list(filter(str.strip, text))
    if len(lines) < 2:
        raise ValidationError(f"{path}: sample needs a header line and at least one row")
    names = [f.name for f in model.space.features]
    header, delim = _split_header(lines[0], names, path)
    if model.space.all_discrete():
        sample = _sample_columns(lines[1:], delim, len(header), model)
        if sample is not None:
            return sample
    return _sample_lines(text, text.index(lines[0]), delim, len(header), model, path)


def _sample_columns(lines, delim, width, model) -> Sample | None:
    """The line loop's sample on a discrete space, read column by column
    over the distinct lines: their fields are transposed once, each
    feature's distinct tokens are parsed and looked up once, to a slot
    offset and to the domain's own object, and whole columns are mapped
    through those two lookups to slots and values. Each distinct line keeps
    one row, which its repeats share. None unless every line has ``width``
    fields, every value lies in its domain and every prediction parses and
    agrees with the model; the line loop reports what does not, and is the
    reference this path must agree with."""
    space = model.space
    rows = dict.fromkeys(lines)  # each distinct line -> its (point, output)
    fields = [line.split(delim) for line in rows]
    if {*map(len, fields)} != {width}:
        return None
    columns = list(zip(*fields))
    slots, values = [0] * len(fields), []
    for feature, stride, column in zip(space.features, space.strides, columns):
        tokens, domain = list(set(column)), feature.domain
        try:
            at = [domain.index[read_discrete(t.strip())] for t in tokens]
        except KeyError:  # a value outside the domain
            return None
        offset = dict(zip(tokens, map(stride.__mul__, at)))
        slots = list(map(add, slots, map(offset.__getitem__, column)))
        value = dict(zip(tokens, map(domain.values.__getitem__, at)))
        values.append(map(value.__getitem__, column))
    actual = list(map(model._read, slots))
    if width > space.m:
        column, parse = columns[-1], _OUTPUT[model.value_kind]
        try:
            given = {t: parse(t.strip(), "") for t in set(column)}
        except ValidationError:
            return None
        if any(map(ne, map(given.__getitem__, column), actual)):
            return None
    rows.update(zip(rows, zip(zip(*values), actual)))  # no key is added, so rows may be iterated
    return Sample(*zip(*map(rows.__getitem__, lines)))


def _sample_lines(text, at, delim, width, model, path) -> Sample:
    """The sample from a file's lines ``text`` past its header ``text[at]``;
    the first line with an error raises it, under its number in the file.
    This reads every sample on a space with an interval domain, and on a
    discrete space only one the column path refuses. A token met before at
    its position is known by its ``read_point`` value (on a discrete space
    the domain's own object, as ``Sample.disagreements`` wants), and each
    distinct line's point is evaluated by ``model.output`` once."""
    space, m, seen = model.space, model.space.m, {}  # seen: line -> (point, output)
    parse = _OUTPUT[model.value_kind]
    known = [{} for _ in range(m)]  # per feature: token -> value
    for lineno, line in enumerate(text[at + 1:], start=at + 2):
        if line in seen or not line.strip():
            continue
        where = f"{path}:{lineno}"
        fields = [f.strip() for f in line.split(delim)]
        if len(fields) != width:
            raise ValidationError(f"{where}: expected {width} fields, got {len(fields)}")
        try:
            point = tuple(map(getitem, known, fields))
        except KeyError:  # a token not met before at its position
            try:
                point = read_point(space, fields[:m], where)
            except DomainError as exc:
                raise ValidationError(f"{where}: {exc}") from None
            for memo, t, x in zip(known, fields, point):
                memo[t] = x
        actual = model.output(point)  # read_point checked each value
        if width > m:
            given = parse(fields[-1], where)
            if given != actual:
                given, actual = _as_parsed((given, actual))
                raise ValidationError(
                    f"{where}: prediction {given!r} disagrees with the "
                    f"model output {actual!r}")
        seen[line] = point, actual
    return Sample(*zip(*map(seen.__getitem__, filter(str.strip, text[at + 1:]))))


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

class RunReport(dict):
    """Everything one CLI invocation computed, as its JSON document: the keys
    command, model, instance, similarity, universe, results and diagnostics,
    None where a command has no such part. Rationals inside are canonical
    strings, so ``RunReport(json.loads(text)).to_json()`` gives ``text`` back."""

    def to_json(self, timing_ms: float | None = None) -> str:
        # Wall time would break byte-stability, so it is written only when given.
        doc = self if timing_ms is None else {**self, "timing_ms": timing_ms}
        return json.dumps(doc, sort_keys=True, separators=(",", ": "), indent=1) + "\n"
