"""Classification of unimodular forms via the Jordan structure of kappa.

Splitting is carried out over the rationals only: when the characteristic
polynomial of the canonical operator has irrational roots the verdict reports
the factorization instead of decomposing.  `_spectrum` gives both readers,
the verdict and the root split, the char poly and its rational roots: a
triangular kappa's roots are its diagonal entries, and only other matrices
search the divisor candidates of `rational_roots`.  One list of root spaces,
`_root_spaces`, groups those roots for both readers: the verdict takes each
Jordan type from the integer kernel chain of c q kappa - c p I, and the root
split takes its basis from the same chain.

Jordan types are computed from kernel-rank sequences, never from eigenvector
chains, with one shortcut: a triangular m with constant diagonal mu and no
zero on the off-diagonal next to it is one Jordan block.  Deleting the first
row and the last column of a lower triangular m - mu leaves a triangular
minor whose diagonal is that subdiagonal, so m - mu has rank n - 1 (an upper
one likewise).  kappa on K0(P^n) over the binomial basis is such a matrix.
Every other matrix takes the rank path, the shape test's oracle in the tests.

The verdict is the Jordan type of kappa.  That fixes the form up to
congruence over an algebraically closed field, not over Q or Z: the Grams
[[1]] and [[-1]] have the same kappa and so the same verdict.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence, Union

from .bilinear_form import BilinearLattice
from .exact_linalg import (
    IntMatrix,
    RatMatrix,
    ShapeError,
    _cleared,
    _is_triangular,
    char_poly_rat,
    clear_denominators,
    kernel_basis,
    rank_over_q,
)
from .k0_pn import DSeries


class IrrationalSpectrumError(ValueError):
    """Canonical operator has irrational eigenvalues; no rational splitting."""


@dataclass(frozen=True)
class Type1:
    n: int
    epsilon: int


@dataclass(frozen=True)
class Type2:
    k: int
    mu: Fraction


@dataclass(frozen=True)
class DecomposableRational:
    summands: tuple


@dataclass(frozen=True)
class IrrationalSpectrum:
    """Rational roots found so far plus the irreducible-over-our-means remainder."""

    rational_roots: tuple[tuple[Fraction, int], ...]
    remainder: tuple[Fraction, ...]  # monic factor with no rational roots, low degree first


Verdict = Union[Type1, Type2, DecomposableRational, IrrationalSpectrum]


@dataclass(frozen=True)
class FormTypeReport:
    char_poly_of_kappa: tuple[Fraction, ...]
    rational_eigenvalues: tuple[tuple[Fraction, int], ...]
    verdict: Verdict


def _divisors(n: int) -> list[int]:
    n = abs(n)
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def _poly_eval(ints: Sequence[int], p: int, q: int) -> int:
    """q^d f(p/q) for f = sum ints[i] x^i of degree d, by integer Horner."""
    acc, qk = 0, 1
    for c in reversed(ints):
        acc = acc * p + c * qk
        qk *= q
    return acc


def _poly_deflate(ints: Sequence[int], p: int, q: int) -> list[int]:
    """f / (qx - p) for a root p/q of f; exact over Z by Gauss's lemma."""
    out = [0] * (len(ints) - 1)
    carry = 0
    for i in range(len(ints) - 1, 0, -1):
        carry = (ints[i] + carry * p) // q
        out[i - 1] = carry
    assert ints[0] + carry * p == 0
    return out


def rational_roots(coeffs: Sequence[Fraction]) -> tuple[list[tuple[Fraction, int]], tuple[Fraction, ...]]:
    """All rational roots with multiplicities, plus the rootless remainder factor.

    A root p/q in lowest terms of the cleared integer polynomial has p | a_0
    and q | a_d, and dividing out (qx - p) keeps both, so the candidates are
    enumerated once and each is divided out while it remains a root.
    """
    cur = tuple(Fraction(c) for c in coeffs)
    roots: Counter = Counter()
    while len(cur) > 1 and cur[0] == 0:
        roots[Fraction(0)] += 1
        cur = cur[1:]
    if len(cur) < 2:
        return sorted(roots.items()), cur
    _, ints = _cleared(cur)
    denominators = _divisors(ints[-1])
    for p in _divisors(ints[0]):
        for q in denominators:
            # p and q of a root still divide the ends of the deflated polynomial
            if math.gcd(p, q) > 1 or ints[0] % p or ints[-1] % q:
                continue
            for num in (p, -p):
                mult = 0
                while len(ints) > 1 and _poly_eval(ints, num, q) == 0:
                    mult += 1
                    ints = _poly_deflate(ints, num, q)
                if mult:
                    roots[Fraction(num, q)] += mult
    if len(ints) < len(cur):
        cur = tuple(cur[-1] * c / ints[-1] for c in ints)
    return sorted(roots.items()), cur


def _spectrum(m: IntMatrix | RatMatrix) -> tuple[tuple[Fraction, ...],
                                                list[tuple[Fraction, int]], tuple[Fraction, ...]]:
    """Char poly of m, its sorted rational roots with multiplicities, and the rootless
    remainder.  A triangular m splits into its diagonal entries, so its roots are counted
    there and the remainder is 1; every other m searches with `rational_roots`, which
    the tests keep as the diagonal's oracle."""
    cp = char_poly_rat(m)
    if not _is_triangular(m):
        return (cp, *rational_roots(cp))
    counts = Counter(r[i] for i, r in enumerate(m.entries))
    return cp, sorted((Fraction(mu), mult) for mu, mult in counts.items()), (Fraction(1),)


def _kernel_chain(m: IntMatrix | RatMatrix, mu: Fraction) -> Iterator[tuple[int, IntMatrix]]:
    """(dim ker (m - mu I)^k, an integer matrix with that kernel), k = 1, 2, ...

    With c the common denominator of m and mu = p/q, the integer matrix
    c q m - c p I has the kernels of m - mu I and of its powers.  The chain is
    lazy: each power is taken only when the caller reads on, and once the
    kernel reaches the root multiplicity later powers keep it, so that power's
    kernel is the root space of mu.
    """
    n = m.rows
    c, cm = clear_denominators(m)
    p, q = mu.numerator, mu.denominator
    shifted = IntMatrix(tuple(tuple(q * a - (c * p if i == j else 0) for j, a in enumerate(r))
                              for i, r in enumerate(cm.entries)))
    power = shifted
    while True:
        yield n - rank_over_q(power), power
        power = power * shifted


def _is_single_block(m: IntMatrix | RatMatrix, mu: Fraction) -> bool:
    """m is triangular with diagonal mu and no zero on the off-diagonal next
    to it, so one Jordan block at mu (see the module docstring)."""
    a = m.entries
    off = range(len(a) - 1)
    # with no zero next to the diagonal on one side, a triangular m of size
    # 2 or more has its zeros on the other side
    return (all(r[i] == mu for i, r in enumerate(a))
            and (all(a[i + 1][i] for i in off) or all(a[i][i + 1] for i in off))
            and _is_triangular(m))


def _jordan_partition(m: IntMatrix | RatMatrix, mu: Fraction, mult: int) -> Counter:
    """Multiset of Jordan chain lengths for eigenvalue mu, from kernel ranks.

    A triangular m that `_is_single_block` accepts has a triangular minor of
    m - mu of size n - 1 with no zero on its diagonal, so it is one chain of
    length mult, with no rank taken.  Every other m takes the rank path, which
    the tests keep as the oracle for the shape test.

    kdims[k] - kdims[k-1] counts the chains of length >= k.  The chain stops
    at the multiplicity, or as soon as that count is at most 1: a single
    chain still growing takes the rest of the multiplicity, one dimension per
    power, so the later kernel dimensions need no power and no rank.
    """
    if _is_single_block(m, mu):
        return Counter({mult: 1})
    kdims = [0]
    for dim, _ in _kernel_chain(m, mu):
        kdims.append(dim)
        if dim >= mult or dim - kdims[-2] <= 1:
            break
    kdims += range(kdims[-1] + 1, mult + 1)
    at_least = [b - a for a, b in zip(kdims, kdims[1:])] + [0]
    exactly = [a - b for a, b in zip(at_least, at_least[1:])]
    return Counter({length: cnt for length, cnt in enumerate(exactly, start=1) if cnt})


def _root_spaces(roots: list[tuple[Fraction, int]]) -> list[tuple[tuple[Fraction, ...], int]]:
    """The root spaces of kappa in the order of its sorted rational roots.

    Each is (mu,) for mu = +-1, else the pair (mu, 1/mu) with mu the smaller,
    with the multiplicity of mu.  kappa is similar to its inverse transpose,
    so 1/mu is a root of the same multiplicity.
    """
    spaces = []
    for mu, mult in roots:
        if mu in (1, -1):
            spaces.append(((mu,), mult))
        elif mu < 1 / mu:
            spaces.append(((mu, 1 / mu), mult))
    return spaces


def _summands(kappa: IntMatrix | RatMatrix, roots: list[tuple[Fraction, int]]) -> list[Verdict]:
    out: list[Verdict] = []
    for evs, mult in _root_spaces(roots):
        # a pair is named by its eigenvalue above 1 in absolute value
        mu = max(evs, key=abs)
        partition = _jordan_partition(kappa, mu, mult)
        if len(evs) == 2 and partition != _jordan_partition(kappa, 1 / mu, mult):
            raise ValueError("paired root spaces have different cycle types")
        for length in sorted(partition, reverse=True):
            cnt = partition[length]
            if len(evs) == 2:
                out.extend(Type2(length, mu) for _ in range(cnt))
            elif (-1) ** (length - 1) == mu:
                out.extend(Type1(length - 1, int(mu)) for _ in range(cnt))
            elif cnt % 2:
                # chains of this parity only pair up into type-2 blocks
                raise ValueError("odd chain count with mismatched sign; "
                                 "form cannot be nondegenerate")
            else:
                out.extend(Type2(length, mu) for _ in range(cnt // 2))
    return out


def kappa_of_gram(gram: RatMatrix) -> RatMatrix:
    """kappa = gram^-1 gram^t, solved in one elimination."""
    if not gram.is_square:
        raise ShapeError("Gram matrix must be square")
    try:
        return gram.solve(gram.transpose())
    except ValueError:
        raise ValueError("degenerate form") from None


def _report(kappa: IntMatrix | RatMatrix) -> FormTypeReport:
    """Char poly of kappa, its rational roots and the Jordan verdict."""
    cp, roots, remainder = _spectrum(kappa)
    if len(remainder) > 1:
        verdict: Verdict = IrrationalSpectrum(tuple(roots), remainder)
    else:
        summands = _summands(kappa, roots)
        verdict = summands[0] if len(summands) == 1 else DecomposableRational(tuple(summands))
    return FormTypeReport(cp, tuple(roots), verdict)


def detect_type_gram(gram: RatMatrix) -> FormTypeReport:
    return _report(kappa_of_gram(gram))


def detect_type(lattice: BilinearLattice) -> FormTypeReport:
    """The verdict from the integer kappa of a unimodular lattice."""
    return _report(lattice.kappa)


@dataclass(frozen=True)
class SplitSummand:
    """One biorthogonal summand of the root decomposition."""

    eigenvalues: tuple[Fraction, ...]  # (mu,) for mu = +-1, else (mu, 1/mu)
    basis: tuple[tuple[Fraction, ...], ...]  # column vectors spanning the summand
    restricted_gram: RatMatrix


def biorthogonal_split(gram: RatMatrix) -> list[SplitSummand]:
    """Root-space decomposition of kappa over Q, with restricted forms.

    Cross-pairings between different summands are verified to vanish in both
    orders; a failure means an implementation bug, not bad input.
    """
    kappa = kappa_of_gram(gram)
    _, roots, remainder = _spectrum(kappa)
    if len(remainder) > 1:
        raise IrrationalSpectrumError(
            f"irrational eigenvalues remain (degree {len(remainder) - 1} factor)")
    # the chain reaches the multiplicity within that many powers, and the
    # power it reaches it at has the root space as its kernel
    groups = [(evs, [v for ev in evs for v in kernel_basis(
                  next(power for dim, power in _kernel_chain(kappa, ev) if dim >= mult))])
              for evs, mult in _root_spaces(roots)]
    # one product B^t G B over all root-space bases: its diagonal blocks are
    # the restricted Grams, every block off the diagonal must vanish
    b = RatMatrix.from_rows(v for _, basis in groups for v in basis).transpose()
    pairing = (b.transpose() * gram * b).entries
    out, start = [], 0
    for evs, vs in groups:
        end = start + len(vs)
        if any(x for row in pairing[start:end] for x in row[:start] + row[end:]):
            raise AssertionError("root summands fail biorthogonality")
        restricted = RatMatrix(tuple(row[start:end] for row in pairing[start:end]))
        out.append(SplitSummand(evs, tuple(vs), restricted))
        start = end
    return out


def standard_type2_gram(k: int, mu) -> RatMatrix:
    """The 2k x 2k anti-triangular standard Gram matrix of a type-2 form.

    Upper-right block: mu on the antidiagonal, 1 just right of it; lower-left
    block: antidiagonal of 1s.  So row i < k holds mu at column 2k-1-i and 1
    at column 2k-i, and row k+i holds 1 at column k-1-i.
    """
    mu = Fraction(mu)
    if k < 1:
        raise ValueError("k must be >= 1")
    if mu == 0 or mu == Fraction((-1) ** (k + 1)):
        raise ValueError(f"mu must differ from 0 and (-1)^(k+1) = {(-1) ** (k + 1)}")
    rows = [[Fraction(0)] * (2 * k) for _ in range(2 * k)]
    for i in range(k):
        rows[i][2 * k - 1 - i] = mu
        if i:
            rows[i][2 * k - i] = Fraction(1)
        rows[k + i][k - 1 - i] = Fraction(1)
    return RatMatrix.from_rows(rows)


def standard_type1_gram(n: int) -> RatMatrix:
    """The (n+1) x (n+1) standard Gram matrix of a type-1 form.

    Nonzero only on the antidiagonal and just below it, with signs alternating
    along each row: G[i][j] = (-1)^j (-1)^n for i + j in {n, n+1}.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    return RatMatrix.from_rows([[(-1) ** (j + n) if i + j in (n, n + 1) else 0
                                 for j in range(n + 1)] for i in range(n + 1)])


def zeta_from_kappa(kappa: RatMatrix, n: int) -> RatMatrix:
    """zeta = (eps kappa + E)^-1 (eps kappa - E) with eps = (-1)^n; the factors commute."""
    eps = (-1) ** n
    e = RatMatrix.identity(kappa.rows)
    num, den = kappa.scale(eps) - e, kappa.scale(eps) + e
    try:
        return den.solve(num)
    except ValueError:
        raise ValueError("eps*kappa + E is singular: not a type-1 canonical operator") from None


def kappa_from_zeta(zeta: RatMatrix, n: int) -> RatMatrix:
    """Inverse of zeta_from_kappa: kappa = (E - zeta)^-1 eps (E + zeta)."""
    e = RatMatrix.identity(zeta.rows)
    return (e - zeta).solve((e + zeta).scale((-1) ** n))


def odd_coefficient_count(n: int) -> int:
    """Number of odd powers z, z^3, ... available below degree n+1."""
    return (n + 1) // 2


def type1_isometry_from_odd(odd: Sequence, sign: int, n: int) -> DSeries:
    """The unique isometry f with f(0) = sign and the given odd coefficients.

    Even coefficients are solved degree by degree from f(-z) f(z) = 1; the
    parametrization is exactly the two-component description of the isometry
    group of a type-1 form.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    k = odd_coefficient_count(n)
    odd = [Fraction(c) for c in odd]
    if len(odd) != k:
        raise ValueError(f"expected {k} odd coefficients for n = {n}")
    a = [Fraction(0)] * (n + 1)
    a[0] = Fraction(sign)
    for i, c in enumerate(odd):
        a[2 * i + 1] = c
    for m in range(1, n // 2 + 1):
        d = 2 * m
        # coefficient of z^d in f(-z) f(z) is sum (-1)^i a_i a_{d-i}; the
        # a_d terms contribute 2 a_0 a_d, everything else is already known
        rest = sum((-1) ** i * a[i] * a[d - i] for i in range(1, d))
        a[d] = -rest / (2 * a[0])
    return DSeries(n, tuple(a))


def is_type1_isometry(f: DSeries) -> bool:
    """f(-z) f(z) = 1: f is an isometry of the type-1 form in Q[z]/z^(n+1)."""
    return f.negate_variable() * f == DSeries.one(f.n)
