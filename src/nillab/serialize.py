"""JSON file formats for algebras and systems.

Algebra files: {dim, step, brackets: [{i, j, coeffs: [[k, "p/q"], ...]}]};
unlisted pairs bracket to zero.  System files: {algebra, automorphism (m x m
"p/q" entries), translation (per-coordinate lists of {monomial, coeff}
records), symbols, optional second_generator}.  Everything is exact text;
no floats ever enter a file.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .algebra import NilLieAlgebra
from .group import UnipotentAutomorphism
from .scalars import ExtScalar, SymbolContext, parse_rat, rat_str
from .structure import AffineNilsystem


def algebra_to_dict(alg: NilLieAlgebra) -> dict:
    brackets = []
    for (i, j) in sorted(alg.brackets):
        coeffs = [[k, rat_str(c)] for k, c in sorted(alg.brackets[(i, j)].items())]
        brackets.append({"i": i, "j": j, "coeffs": coeffs})
    return {"dim": alg.dim, "step": alg.step, "brackets": brackets}


def _integer(value, what: str) -> int:
    """``value`` if it is a JSON integer: a bool, float or string is refused, not truncated."""
    if type(value) is not int:
        raise ValueError("%s must be an integer, got %r" % (what, value))
    return value


def algebra_from_dict(data: dict) -> NilLieAlgebra:
    brackets = {}
    for rec in data.get("brackets", []):
        i, j = _integer(rec["i"], "bracket index i"), _integer(rec["j"], "bracket index j")
        brackets[(i, j)] = {_integer(k, "coefficient index k"): parse_rat(c, "bracket coefficient")
                            for k, c in rec["coeffs"]}
    return NilLieAlgebra(_integer(data["dim"], "dim"), _integer(data["step"], "step"), brackets)


def _coord_records(ctx: SymbolContext, coords: list) -> list:
    return [ExtScalar.lift(t, ctx).to_records() for t in coords]


def _coords_from_records(ctx: SymbolContext, recs: list) -> list:
    return [ExtScalar.from_records(ctx, r) for r in recs]


def _matrix_strs(A: UnipotentAutomorphism) -> list[list[str]]:
    return [[rat_str(Fraction(x)) for x in row] for row in A.matrix]


def _matrix(rows, what: str) -> list[list[Fraction]]:
    """The rational matrix of a list of rows, each a list of "p/q" strings."""
    if type(rows) is not list or any(type(row) is not list for row in rows):
        raise ValueError("%s must be a list of rows, each a list, got %r" % (what, rows))
    return [[parse_rat(x, what + " entry") for x in row] for row in rows]


def system_to_dict(sys: AffineNilsystem) -> dict:
    """The file data of ``sys``: T1's record at the top level, T2's as ``second_generator``."""
    ctx = sys.context
    data = {"algebra": algebra_to_dict(sys.algebra), "symbols": list(ctx.names)}
    if sys.name:
        data["name"] = sys.name
    for i, (A, g) in enumerate(sys.generators):
        record = {"automorphism": _matrix_strs(A), "translation": _coord_records(ctx, g)}
        if i == 0:
            data.update(record)
        else:
            data["second_generator"] = record
    return data


def system_from_dict(data: dict) -> AffineNilsystem:
    alg = algebra_from_dict(data["algebra"])
    symbols = data.get("symbols", [])
    if type(symbols) is not list or any(type(n) is not str for n in symbols):
        raise ValueError("symbols must be a list of strings, got %r" % (symbols,))
    ctx = SymbolContext(symbols)
    records = [data]
    if "second_generator" in data:
        records.append(data["second_generator"])
    generators = []
    for record in records:
        A = UnipotentAutomorphism(alg, _matrix(record["automorphism"], "automorphism"))
        generators.append((A, _coords_from_records(ctx, record["translation"])))
    return AffineNilsystem(alg, generators, context=ctx, name=data.get("name", ""))


def save_system(path: str, sys: AffineNilsystem) -> None:
    with open(path, "w") as fh:
        json.dump(system_to_dict(sys), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_system(path: str) -> AffineNilsystem:
    with open(path) as fh:
        return system_from_dict(json.load(fh))
