"""JSON schemas and exact-number string handling.

All numbers in emitted JSON are strings so exact rationals survive the
round trip: a value is written as a plain decimal when its denominator is
a product of 2s and 5s, and as "p/q" otherwise.  The parser accepts both
forms (and plain integers).  Every emitted artifact re-loads to an equal
in-memory object under the rational backend.

Instances are read and written per distinct value, not per individual.
One `_Reader` per call parses each distinct number, distribution and
hypothesis value once, keyed by JSON type and value, and individuals with
equal values share the parsed object; the emitter formats each distinct
distribution, weight and hypothesis value object once.  The output, and
every error a document raises, is that of reading or writing each value
on its own.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .audits import AuditReport
from .core import OutcomeDist, OutcomeSpace
from .errors import InputError
from .graph import DiGraph, VertexPartition
from .omni import LossFunction
from .population import Hypothesis, HypothesisClass, PopulationInstance, Predictor


def number_to_string(x) -> str:
    if isinstance(x, bool):
        raise InputError("booleans are not numbers here")
    if isinstance(x, int):
        return str(x)
    if isinstance(x, float):
        return repr(x)
    if isinstance(x, Fraction):
        den = x.denominator
        twos = 0
        while den % 2 == 0:
            den //= 2
            twos += 1
        fives = 0
        while den % 5 == 0:
            den //= 5
            fives += 1
        if den == 1:
            shift = max(twos, fives)
            scaled = x.numerator * 10 ** shift // x.denominator
            s = str(abs(scaled)).rjust(shift + 1, "0")
            sign = "-" if scaled < 0 else ""
            if shift == 0:
                return f"{sign}{s}"
            return f"{sign}{s[:-shift]}.{s[-shift:]}"
        return f"{x.numerator}/{x.denominator}"
    raise InputError(f"cannot serialize number {x!r}")


def parse_number(s) -> Fraction:
    """A JSON number or numeric string as an exact rational; a NaN or an
    infinite float, and a string no Fraction spells, raise InputError."""
    if isinstance(s, (int, Fraction)) and not isinstance(s, bool):
        return Fraction(s)
    try:
        return Fraction(s) if isinstance(s, float) else Fraction(str(s).strip())
    except (ValueError, OverflowError, ZeroDivisionError) as e:
        raise InputError(f"cannot parse number {s!r}: {e}") from None


def jsonify(obj):
    """Recursively convert library values into JSON-encodable structures."""
    if obj is None or isinstance(obj, (bool, str, int)):
        if isinstance(obj, int) and not isinstance(obj, bool):
            return str(obj) if abs(obj) > 2**53 else obj
        return obj
    if isinstance(obj, float):
        return repr(obj)
    if isinstance(obj, Fraction):
        return number_to_string(obj)
    if isinstance(obj, OutcomeDist):
        return {str(o): (repr(w) if isinstance(w, float) else number_to_string(Fraction(w)))
                for o, w in zip(obj.space.labels, obj.weights)}
    if isinstance(obj, dict):
        return {_key(k): jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        items = sorted(obj, key=repr) if isinstance(obj, (set, frozenset)) else obj
        return [jsonify(v) for v in items]
    if hasattr(obj, "__dict__"):
        # underscore fields are caches (`_prepared`, `_table`, ...), not data
        return {k: jsonify(v) for k, v in vars(obj).items() if not k.startswith("_")}
    return repr(obj)


def _key(k) -> str:
    if isinstance(k, str):
        return k
    if isinstance(k, Fraction):
        return number_to_string(k)
    if isinstance(k, tuple):
        return "|".join(_key(x) for x in k)
    return str(k)


# ---------------------------------------------------------------------------
# Population instances
# ---------------------------------------------------------------------------


def dist_to_json(d: OutcomeDist) -> dict:
    return {str(o): number_to_string(w if isinstance(w, Fraction) else Fraction(w))
            for o, w in zip(d.space.labels, d.weights)}


def _value_token(v):
    """Hypothesis values: numeric strings parse to Fractions, others stay strings."""
    if isinstance(v, str):
        try:
            f = Fraction(v)
        except (ValueError, ZeroDivisionError):
            return v
        return int(f) if f.denominator == 1 else f
    if isinstance(v, (int, Fraction)):
        return v
    raise InputError(f"bad hypothesis value {v!r}")


def _value_to_string(v) -> str:
    return number_to_string(v) if isinstance(v, (int, Fraction)) else str(v)


def _json_key(v):
    """A key equal only for JSON values of one type and value: `1`, `1.0` and
    `true` are equal and hash alike in Python, but parse differently.  A
    string, equal to no other JSON value, is its own key.  Hashing the key
    raises TypeError for a list, and for a dict holding a list or a dict."""
    if v.__class__ is str:
        return v
    if isinstance(v, dict):
        return (dict, *((k, x.__class__, x) for k, x in v.items()))
    return (v.__class__, v)


def _memoized(read):
    """`read`, run once per distinct JSON value; a value whose key cannot be
    hashed is read every time, so it fails as it would unmemoized."""
    memo = {}

    def cached(v):
        try:
            key = _json_key(v)
            out = memo.get(key)
        except TypeError:
            key = out = None
        if out is None:
            out = read(v)
            if key is not None:
                memo[key] = out
        return out
    return cached


class _Reader:
    """The readers of one document's numbers, distributions and hypothesis
    values, over one outcome space.

    Each reads every distinct JSON value once: equal values in a document
    parse to one shared object, so the work follows the distinct values,
    not the individuals.  A reader lives for one call.
    """

    def __init__(self, space: OutcomeSpace):
        self.space = space
        self.number = _memoized(parse_number)
        self.dist = _memoized(self._dist)
        self.token = _memoized(_value_token)

    def _dist(self, doc) -> OutcomeDist:
        if not isinstance(doc, dict) or not doc.keys() <= set(self.space.labels):
            raise InputError(f"a distribution maps outcomes of {list(self.space.labels)} to "
                             f"weights, not {doc!r}")
        return OutcomeDist.from_mapping(self.space,
                                        {o: self.number(v) for o, v in doc.items()})


def _formatter(fmt):
    """`fmt`, run once per distinct object, keyed by identity: the objects
    an emitter formats are held by its arguments for the whole call, and
    the equal values `random_instance` and `instance_from_json` build are
    one object."""
    memo = {}

    def cached(x):
        out = memo.get(id(x))
        if out is None:
            out = memo[id(x)] = fmt(x)
        return out
    return cached


def _dist_emitter():
    """`dist_to_json` of each distinct distribution once; every call returns
    its own dict, so a caller may edit one individual's entry."""
    cached = _formatter(dist_to_json)
    return lambda d: dict(cached(d))


def instance_to_json(pop: PopulationInstance, cls: HypothesisClass | None = None,
                     predictor: Predictor | None = None) -> dict:
    dist = _dist_emitter()
    weight = _formatter(lambda w: number_to_string(Fraction(w)))
    doc = {
        "outcomes": [str(o) for o in pop.space.labels],
        "individuals": [
            {"id": str(j), "weight": weight(pop.weight[j]), "p_true": dist(pop.p_true[j])}
            for j in pop.ids
        ],
    }
    if cls is not None:
        value = _formatter(_value_to_string)
        doc["hypotheses"] = [
            {
                "name": h.name,
                "range": [_value_to_string(v) for v in h.range_values],
                "values": {str(j): value(v) for j, v in h.values.items()},
            }
            for h in cls.hypotheses
        ]
        doc["closed_under_complement"] = cls.closed_under_complement
    if predictor is not None:
        doc["predictor"] = {str(j): dist(d) for j, d in predictor.values.items()}
    return doc


def _object(doc, what: str) -> dict:
    """doc, which must be a JSON object keyed by individual id."""
    if not isinstance(doc, dict):
        raise InputError(f"{what} must map individual ids to values, "
                         f"not a JSON {type(doc).__name__}")
    return doc


def instance_from_json(doc: dict):
    """Returns (population, hypothesis class or None, predictor or None).

    Every number, distribution and hypothesis value is read through one
    `_Reader`, so each distinct JSON value is parsed and validated once.
    """
    try:
        space = OutcomeSpace(tuple(doc["outcomes"]))
        read = _Reader(space)
        ids = tuple(ind["id"] for ind in doc["individuals"])
        weight = {ind["id"]: read.number(ind["weight"]) for ind in doc["individuals"]}
        p_true = {ind["id"]: read.dist(ind["p_true"]) for ind in doc["individuals"]}
        pop = PopulationInstance(space=space, ids=ids, weight=weight, p_true=p_true)
        cls = None
        if doc.get("hypotheses"):
            hyps = []
            for h in doc["hypotheses"]:
                rng = tuple(read.token(v) for v in h["range"])
                values = {j: read.token(v)
                          for j, v in _object(h["values"], "hypothesis values").items()}
                missing = [j for j in ids if j not in values]
                if missing:
                    raise InputError(f"hypothesis {h['name']!r} has no value for "
                                     f"individuals {missing[:5]}")
                hyps.append(Hypothesis(h["name"], rng, values))
            cls = HypothesisClass(tuple(hyps),
                                  closed_under_complement=doc.get("closed_under_complement",
                                                                  False))
        predictor = None
        if doc.get("predictor"):
            predictor = Predictor({j: read.dist(d)
                                   for j, d in _object(doc["predictor"], "a predictor").items()})
        return pop, cls, predictor
    except (KeyError, TypeError) as e:
        raise InputError(f"malformed instance document: {e}") from None


def predictor_to_json(predictor: Predictor) -> dict:
    dist = _dist_emitter()
    return {str(j): dist(d) for j, d in predictor.values.items()}


def predictor_from_json(space: OutcomeSpace, doc: dict) -> Predictor:
    read = _Reader(space)
    return Predictor({j: read.dist(d) for j, d in _object(doc, "a predictor").items()})


# ---------------------------------------------------------------------------
# Graphs, partitions, losses, reports
# ---------------------------------------------------------------------------


def graph_to_json(g: DiGraph) -> dict:
    return {"n": g.n, "edges": sorted([u, v] for u, v in g.edges)}


def _integer(x) -> int:
    """A vertex count or vertex id: an integer, an integral float or an
    integer string.  A boolean or a fractional number raises ValueError
    rather than being cut down to another vertex."""
    if isinstance(x, bool) or (isinstance(x, float) and not x.is_integer()):
        raise ValueError(f"{x!r} is not an integer")
    return int(x)


def graph_from_json(doc: dict) -> DiGraph:
    try:
        return DiGraph(_integer(doc["n"]),
                       frozenset((_integer(u), _integer(v)) for u, v in doc["edges"]))
    except (KeyError, TypeError, ValueError) as e:
        raise InputError(f"malformed graph document: {e}") from None


def graph_from_text(text: str) -> DiGraph:
    """Whitespace edge list: first token is the vertex count, then u v pairs."""
    tokens = text.split()
    if not tokens:
        raise InputError("empty graph text")
    try:
        n = int(tokens[0])
        rest = [int(t) for t in tokens[1:]]
    except ValueError as e:
        raise InputError(f"bad graph text: {e}") from None
    if len(rest) % 2:
        raise InputError("odd number of edge endpoints in graph text")
    return DiGraph(n, frozenset(zip(rest[0::2], rest[1::2])))


def partition_to_json(p: VertexPartition) -> list:
    return [list(part) for part in p.parts]


def partition_from_json(doc) -> VertexPartition:
    try:
        return VertexPartition(tuple(tuple(_integer(v) for v in part) for part in doc))
    except (TypeError, ValueError) as e:
        raise InputError(f"malformed partition document: {e}") from None


def losses_from_json(space: OutcomeSpace, doc) -> list:
    """Loss list: [{name, actions, table: {outcome: {action: value}}}]."""
    out = []
    try:
        for entry in doc:
            actions = tuple(entry["actions"])
            rows = entry["table"]
            if not (isinstance(rows, dict) and all(isinstance(r, dict) for r in rows.values())):
                raise InputError("malformed loss document: a table and each of its rows "
                                 "must be JSON objects")
            table = {}
            for o, row in rows.items():
                for y, v in row.items():
                    table[(o, y)] = parse_number(v)
            out.append(LossFunction(entry["name"], space, actions, table))
    except (KeyError, TypeError) as e:
        raise InputError(f"malformed loss document: {e}") from None
    return out


def report_to_json(report: AuditReport) -> dict:
    return {
        "kind": report.kind,
        "value": jsonify(report.value),
        "witness": jsonify(report.witness),
        "breakdown": jsonify(report.breakdown),
    }


def dump(doc, path=None) -> str:
    text = json.dumps(doc, indent=2, sort_keys=True)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    return text
