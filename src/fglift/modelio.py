"""Line-oriented text formats for models, evidence, background knowledge.

Model files::

    # comment
    rv <name> <value>,<value>,...
    factor <name> known <rv>,<rv>,... <p>,<p>,...
    factor <name> unknown <rv>,<rv>,...

Potentials are written row-major with the last argument varying fastest,
with 17 significant digits so that serialising and re-parsing reproduces
bit-identical floats. Parsing builds one table per distinct entries list
and shape, and one range per distinct value list, shared by every factor or
RV that repeats it; serialising formats each distinct table's entries once.
Evidence files hold one ``<rv> <value>`` pair per line, background knowledge
one ``individual <id> <factor>,...`` per line, query files one RV id per
line. ``#`` starts a comment anywhere.
"""
from __future__ import annotations

from functools import cache
from math import prod
from typing import Mapping

from .errors import ParseError
from .model import BackgroundKnowledge, Factor, FactorGraph, RandomVariable, RangeSpec
from .tables import PotentialTable

_SEPARATORS = set(" \t\r\n,#")


def _tokenize(text: str):
    """Yield (line_number, tokens) for every significant line."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        yield lineno, line.split()


def _split_csv(token: str, lineno: int, what: str) -> list[str]:
    parts = token.split(",")
    if any(p == "" for p in parts):
        raise ParseError(lineno, f"empty entry in {what} list {token!r}")
    return parts


def parse_model(text: str) -> FactorGraph:
    """Parse a model file into a FactorGraph.

    Rejects malformed lines, factors over undeclared RVs or repeating an
    argument, repeated names and wrong-cardinality tables, always with the
    offending line number.
    Factors that repeat an entries list under the same shape share one
    ``PotentialTable``, and RVs that repeat a value list share one
    ``RangeSpec``.
    """
    rvs: list[RandomVariable] = []
    factors: list[Factor] = []
    size: dict[str, int] = {}  # each declared RV's range size
    factor_ids: set[str] = set()
    # a token enters these only once it has parsed, so a malformed one is
    # reported, with its line, wherever it first appears
    ranges: dict[str, RangeSpec] = {}
    tables: dict[tuple[tuple[int, ...], str], PotentialTable] = {}
    for lineno, tokens in _tokenize(text):
        kind = tokens[0]
        if kind == "rv":
            if len(tokens) != 3:
                raise ParseError(lineno, f"expected 'rv <name> <values>', got {len(tokens)} tokens")
            name = tokens[1]
            if name in size or name in factor_ids:
                raise ParseError(lineno, f"duplicate node name {name!r}")
            spec = ranges.get(tokens[2])
            if spec is None:
                values = _split_csv(tokens[2], lineno, "range")
                try:
                    spec = ranges[tokens[2]] = RangeSpec(values)
                except ValueError as e:
                    raise ParseError(lineno, str(e)) from None
            rvs.append(RandomVariable(name, spec))
            size[name] = len(spec.values)
        elif kind == "factor":
            if len(tokens) < 4:
                raise ParseError(lineno, "expected 'factor <name> known|unknown <args> [<entries>]'")
            name, state = tokens[1], tokens[2]
            if name in size or name in factor_ids:
                raise ParseError(lineno, f"duplicate node name {name!r}")
            args = _split_csv(tokens[3], lineno, "argument")
            try:
                shape = tuple(map(size.__getitem__, args))
            except KeyError:
                undeclared = next(a for a in args if a not in size)
                raise ParseError(lineno, f"factor {name!r} references undeclared RV {undeclared!r}") from None
            table = None
            if state == "unknown":
                if len(tokens) != 4:
                    raise ParseError(lineno, "unknown factor takes no entries")
            elif state == "known":
                if len(tokens) != 5:
                    raise ParseError(lineno, "known factor needs exactly one entries list")
                key = (shape, tokens[4])
                table = tables.get(key)
                if table is None:
                    raw = _split_csv(tokens[4], lineno, "entries")
                    if len(raw) != prod(shape):
                        raise ParseError(
                            lineno,
                            f"factor {name!r} needs {prod(shape)} entries for shape {shape}, got {len(raw)}",
                        )
                    try:
                        entries = [float(x) for x in raw]
                    except ValueError:
                        raise ParseError(lineno, f"factor {name!r} has a non-numeric entry") from None
                    table = tables[key] = PotentialTable(shape, entries)
            else:
                raise ParseError(lineno, f"factor state must be 'known' or 'unknown', got {state!r}")
            try:
                factors.append(Factor(name, tuple(args), table))
            except ValueError as e:
                raise ParseError(lineno, str(e)) from None
            factor_ids.add(name)
        else:
            raise ParseError(lineno, f"unrecognised directive {kind!r}")
    return FactorGraph(rvs, factors)


def _check_token(token: str, what: str) -> str:
    if token == "" or not _SEPARATORS.isdisjoint(token):
        raise ValueError(f"{what} {token!r} cannot be written to the text format")
    return token


def _fmt(x: float) -> str:
    return format(x, ".17g")


def serialize_model(fg: FactorGraph) -> str:
    """Render a FactorGraph in the model format (evidence is not part of it).

    Each distinct range's values are checked and joined once, and each
    distinct table's entries formatted once. Arguments are not checked
    again: each names an RV whose id was checked on its ``rv`` line.
    """
    lines: list[str] = []
    values_of = cache(lambda spec: ",".join(_check_token(v, "range value") for v in spec.values))
    entries_of = cache(lambda table: ",".join(_fmt(x) for x in table.entries))
    for rv in fg.rvs:
        _check_token(rv.id, "rv name")
        lines.append(f"rv {rv.id} {values_of(rv.range)}")
    for f in fg.factors:
        _check_token(f.id, "factor name")
        args = ",".join(f.args)
        if f.table is None:
            lines.append(f"factor {f.id} unknown {args}")
        else:
            lines.append(f"factor {f.id} known {args} {entries_of(f.table)}")
    return "\n".join(lines) + "\n"


def parse_evidence(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, tokens in _tokenize(text):
        if len(tokens) != 2:
            raise ParseError(lineno, "expected '<rv> <value>'")
        rv, value = tokens
        if rv in out and out[rv] != value:
            raise ParseError(lineno, f"conflicting evidence for {rv!r}")
        out[rv] = value
    return out


def serialize_evidence(evidence: Mapping[str, str]) -> str:
    lines = [
        f"{_check_token(rv, 'rv name')} {_check_token(value, 'value')}"
        for rv, value in sorted(evidence.items())
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def parse_background(text: str) -> BackgroundKnowledge:
    groups: list[tuple[str, tuple[str, ...]]] = []
    seen: set[str] = set()
    for lineno, tokens in _tokenize(text):
        if len(tokens) != 3 or tokens[0] != "individual":
            raise ParseError(lineno, "expected 'individual <id> <factor>,...'")
        ind = tokens[1]
        if ind in seen:
            raise ParseError(lineno, f"duplicate individual {ind!r}")
        seen.add(ind)
        fids = _split_csv(tokens[2], lineno, "factor")
        groups.append((ind, tuple(sorted(set(fids)))))
    return BackgroundKnowledge(tuple(groups))


def serialize_background(bk: BackgroundKnowledge) -> str:
    lines = []
    for ind, fids in bk.groups:
        _check_token(ind, "individual id")
        lines.append(f"individual {ind} {','.join(_check_token(f, 'factor id') for f in fids)}")
    return "\n".join(lines) + ("\n" if lines else "")


def parse_queries(text: str) -> list[str]:
    out: list[str] = []
    for lineno, tokens in _tokenize(text):
        if len(tokens) != 1:
            raise ParseError(lineno, "expected one RV id per line")
        out.append(tokens[0])
    return out


def serialize_queries(queries: list[str]) -> str:
    lines = [_check_token(q, "rv name") for q in queries]
    return "\n".join(lines) + ("\n" if lines else "")
