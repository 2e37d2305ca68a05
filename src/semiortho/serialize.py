"""JSON encoding of lattices, collections, matrices and reports.

Numbers are exact: integers stay JSON numbers while |x| < 2^53 and become
decimal strings beyond that; rationals are always "p/q" in lowest terms.
`encode_int`, `encode_number`, `encode_matrix`, `encode_lattice` and
`encode_collection` each have a reader that accepts their output unchanged.
`encode_triple`, `encode_verdict`, `encode_report`, `encode_orbit_report`
and `encode_trace` have none yet.
"""

from __future__ import annotations

import json
import re
from contextlib import suppress
from fractions import Fraction

from .bilinear_form import BilinearLattice
from .classification import (
    DecomposableRational,
    FormTypeReport,
    IrrationalSpectrum,
    Type1,
    Type2,
)
from .exact_linalg import IntMatrix, RatMatrix
from .markov import MarkovTriple, ReductionTrace
from .mutations import OrbitReport, SonCollection

_SAFE = 1 << 53
_ECHO = 40  # the longest rejected value an error message repeats whole
# the literals the encoders write; int() and Fraction() also take "1_000",
# " 5 ", non-ASCII digits and "1e3"
_INT = re.compile(r"[+-]?[0-9]+")
_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


class InputFormatError(ValueError):
    """Malformed or out-of-schema JSON input."""


def _excerpt(v) -> str:
    """repr(v), or the head of a longer one and the length of v's text."""
    text = repr(v)
    return text if len(text) <= _ECHO else f"{text[:_ECHO]}... ({len(str(v))} characters)"


def _decimal(x: int) -> str:
    try:
        return str(x)
    except ValueError:  # over sys.get_int_max_str_digits()
        raise InputFormatError(
            f"result has a {x.bit_length()}-bit integer, too long to print in decimal") from None


def encode_int(x: int):
    return x if abs(x) < _SAFE else _decimal(x)


def decode_int(v) -> int:
    if type(v) is int:  # not a bool, which is an int subclass
        return v
    if not isinstance(v, str):
        raise InputFormatError(f"expected integer, got {_excerpt(v)}")
    if _INT.fullmatch(v):
        with suppress(ValueError):  # over sys.get_int_max_str_digits()
            return int(v)
    raise InputFormatError(f"bad integer literal {_excerpt(v)}")


def encode_number(x):
    """Integer or Fraction to JSON value."""
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return encode_int(x.numerator)
        return f"{_decimal(x.numerator)}/{_decimal(x.denominator)}"
    return encode_int(x)


def decode_number(v) -> Fraction:
    if type(v) is int:  # not a bool
        return Fraction(v)
    if not isinstance(v, str):
        raise InputFormatError(f"expected number, got {_excerpt(v)}")
    if _RATIONAL.fullmatch(v):
        with suppress(ValueError, ZeroDivisionError):
            return Fraction(v)
    raise InputFormatError(f"bad number literal {_excerpt(v)}")


def encode_matrix(m) -> list:
    """A matrix, or a tuple of int rows, as an array of row arrays."""
    rows = m.entries if isinstance(m, (IntMatrix, RatMatrix)) else m
    return [[encode_number(x) for x in row] for row in rows]


def decode_int_matrix(v) -> IntMatrix:
    rows = _matrix_rows(v)
    return IntMatrix.from_rows([[decode_int(x) for x in row] for row in rows])


def decode_rat_matrix(v) -> RatMatrix:
    rows = _matrix_rows(v)
    return RatMatrix.from_rows([[decode_number(x) for x in row] for row in rows])


def _matrix_rows(v):
    if not isinstance(v, list) or not all(isinstance(r, list) for r in v):
        raise InputFormatError("matrix must be an array of row arrays")
    if v and any(len(r) != len(v[0]) for r in v):
        raise InputFormatError("matrix rows must have equal length")
    return v


def encode_lattice(lattice: BilinearLattice) -> dict:
    return {"rank": lattice.rank, "gram": encode_matrix(lattice.gram)}


def decode_lattice(v) -> BilinearLattice:
    if not isinstance(v, dict) or "gram" not in v:
        raise InputFormatError('lattice must be an object with a "gram" field')
    gram = decode_int_matrix(v["gram"])
    if "rank" in v and decode_int(v["rank"]) != gram.rows:
        raise InputFormatError("rank field disagrees with gram size")
    try:
        return BilinearLattice(gram)
    except ValueError as e:
        raise InputFormatError(str(e)) from None


def encode_collection(c: SonCollection) -> dict:
    return {"ambient": encode_lattice(c.ambient),
            "vectors": [[encode_int(x) for x in v] for v in c.vectors]}


def decode_collection(v) -> SonCollection:
    if not isinstance(v, dict) or "ambient" not in v or "vectors" not in v:
        raise InputFormatError('collection needs "ambient" and "vectors" fields')
    ambient = decode_lattice(v["ambient"])
    if not isinstance(v["vectors"], list):
        raise InputFormatError("vectors must be an array")
    vectors = [[decode_int(x) for x in row] for row in _matrix_rows(v["vectors"])]
    try:
        return SonCollection(ambient, vectors)
    except ValueError as e:
        raise InputFormatError(str(e)) from None


def encode_verdict(verdict) -> dict:
    if isinstance(verdict, Type1):
        return {"type": "type1", "n": verdict.n, "epsilon": verdict.epsilon}
    if isinstance(verdict, Type2):
        return {"type": "type2", "k": verdict.k, "mu": encode_number(verdict.mu)}
    if isinstance(verdict, DecomposableRational):
        return {"type": "decomposable",
                "summands": [encode_verdict(s) for s in verdict.summands]}
    if isinstance(verdict, IrrationalSpectrum):
        return {"type": "irrational_spectrum",
                "rational_roots": [[encode_number(r), m]
                                   for r, m in verdict.rational_roots],
                "remainder": [encode_number(c) for c in verdict.remainder]}
    raise TypeError(f"unknown verdict {verdict!r}")


def encode_report(report: FormTypeReport) -> dict:
    return {"char_poly_of_kappa": [encode_number(c)
                                   for c in report.char_poly_of_kappa],
            "rational_eigenvalues": [[encode_number(r), m]
                                     for r, m in report.rational_eigenvalues],
            "verdict": encode_verdict(report.verdict)}


def encode_orbit_report(r: OrbitReport) -> dict:
    return {"orbit_size": r.orbit_size,
            "truncated": r.truncated,
            "canonical_gram": encode_matrix(r.canonical_gram),
            "generators_used": list(r.generators_used),
            "reached_markov_canonical": r.reached_markov_canonical}


def encode_triple(t: MarkovTriple) -> list:
    return [encode_int(t.a), encode_int(t.b), encode_int(t.c)]


def encode_trace(trace: ReductionTrace) -> dict:
    moves = []
    for m in trace.moves:
        # a Vieta move has one position, printed as a number
        where = {"position": m.positions[0]} if len(m.positions) == 1 else \
            {"positions": list(m.positions)}
        moves.append({"move": m.kind, **where, "word": str(m.word),
                      "triple_after": encode_triple(m.triple_after)})
    return {"start": encode_triple(trace.start), "moves": moves,
            "end": encode_triple(trace.end)}


def dumps(obj) -> str:
    """Deterministic JSON text: sorted keys, fixed separators."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def dumps_pretty(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


def loads(text: str):
    try:
        return json.loads(text)
    # ValueError is also an integer literal over the digit limit, and
    # RecursionError arrays or objects nested deeper than the stack
    except (ValueError, RecursionError) as e:
        raise InputFormatError(f"invalid JSON: {e}") from None
