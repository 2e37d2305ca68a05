"""Classification of unimodular forms via the Jordan structure of kappa.

Splitting is carried out over the rationals only: when the characteristic
polynomial of the canonical operator has irrational roots the verdict reports
the factorization instead of decomposing.  Jordan types are computed from
kernel-rank sequences, never from eigenvector chains: one integer kernel
chain of c q kappa - c p I serves both the Jordan type and the root split.

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

from .bilinear_form import BilinearLattice, OperatorOnLattice, is_reflexive, right_dual
from .exact_linalg import (
    IntMatrix,
    RatMatrix,
    ShapeError,
    char_poly_rat,
    clear_denominators,
    det,
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
    scale = math.lcm(*(c.denominator for c in cur))
    ints = [int(c * scale) for c in cur]
    denominators = _divisors(ints[-1])
    for p in _divisors(ints[0]):
        for q in denominators:
            # p and q of a root still divide the ends of the deflated polynomial
            if math.gcd(p, q) > 1 or ints[0] % p or ints[-1] % q:
                continue
            for num in (p, -p):
                while len(ints) > 1 and _poly_eval(ints, num, q) == 0:
                    roots[Fraction(num, q)] += 1
                    ints = _poly_deflate(ints, num, q)
    if len(ints) < len(cur):
        cur = tuple(cur[-1] * c / ints[-1] for c in ints)
    return sorted(roots.items()), cur


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


def _jordan_partition(m: IntMatrix | RatMatrix, mu: Fraction, mult: int) -> Counter:
    """Multiset of Jordan chain lengths for eigenvalue mu, from kernel ranks.

    kdims[k] - kdims[k-1] counts the chains of length >= k.  The chain stops
    at the multiplicity, or as soon as that count is at most 1: a single
    chain still growing takes the rest of the multiplicity, one dimension per
    power, so the later kernel dimensions need no power and no rank.
    """
    kdims = [0]
    for dim, _ in _kernel_chain(m, mu):
        kdims.append(dim)
        if dim >= mult or dim - kdims[-2] <= 1:
            break
    while len(kdims) <= mult:
        kdims.append(min(mult, 2 * kdims[-1] - kdims[-2]))
    at_least = [kdims[j] - kdims[j - 1] for j in range(1, mult + 1)]
    partition: Counter = Counter()
    for m_len in range(1, mult + 1):
        cnt = at_least[m_len - 1] - (at_least[m_len] if m_len < mult else 0)
        if cnt:
            partition[m_len] = cnt
    return partition


def _pick_mu(mu: Fraction) -> Fraction:
    # canonical representative of the pair {mu, 1/mu}
    return mu if abs(mu.numerator) >= abs(mu.denominator) else 1 / mu


def _summands(kappa: IntMatrix | RatMatrix, roots: list[tuple[Fraction, int]]) -> list[Verdict]:
    out: list[Verdict] = []
    seen_pairs = set()
    for mu, mult in roots:
        if mu in (1, -1):
            eps = int(mu)
            partition = _jordan_partition(kappa, mu, mult)
            for length in sorted(partition, reverse=True):
                cnt = partition[length]
                if (-1) ** (length - 1) == eps:
                    out.extend(Type1(length - 1, eps) for _ in range(cnt))
                else:
                    # chains of this parity only pair up into type-2 blocks
                    if cnt % 2:
                        raise ValueError("odd chain count with mismatched sign; "
                                         "form cannot be nondegenerate")
                    out.extend(Type2(length, Fraction(eps)) for _ in range(cnt // 2))
        else:
            rep = _pick_mu(mu)
            if rep in seen_pairs:
                continue
            seen_pairs.add(rep)
            partition = _jordan_partition(kappa, rep, mult)
            partition_inv = _jordan_partition(kappa, 1 / rep, mult)
            if partition != partition_inv:
                raise ValueError("paired root spaces have different cycle types")
            for length in sorted(partition, reverse=True):
                out.extend(Type2(length, rep) for _ in range(partition[length]))
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
    cp = char_poly_rat(kappa)
    roots, remainder = rational_roots(cp)
    if len(remainder) > 1:
        verdict: Verdict = IrrationalSpectrum(tuple(roots), remainder)
        return FormTypeReport(cp, tuple(roots), verdict)
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
    cp = char_poly_rat(kappa)
    roots, remainder = rational_roots(cp)
    if len(remainder) > 1:
        raise IrrationalSpectrumError(
            f"irrational eigenvalues remain (degree {len(remainder) - 1} factor)")
    groups: list[tuple[tuple[Fraction, ...], list[tuple[Fraction, ...]]]] = []
    seen = set()
    mults = dict(roots)
    for mu, _ in roots:
        if mu in seen:
            continue
        evs = (mu,) if mu in (1, -1) else (mu, 1 / mu)
        seen.update(evs)
        # the chain reaches the multiplicity within that many powers, and
        # the power it reaches it at has the root space as its kernel
        basis = [v for ev in evs for v in kernel_basis(
            next(power for dim, power in _kernel_chain(kappa, ev) if dim >= mults[ev]))]
        groups.append((evs, basis))
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
    block: antidiagonal of 1s.
    """
    mu = Fraction(mu)
    if k < 1:
        raise ValueError("k must be >= 1")
    if mu == 0 or mu == Fraction((-1) ** (k + 1)):
        raise ValueError(f"mu must differ from 0 and (-1)^(k+1) = {(-1) ** (k + 1)}")
    size = 2 * k
    rows = [[Fraction(0)] * size for _ in range(size)]
    for i in range(k):
        for j in range(k):
            if i + j == k - 1:
                rows[i][k + j] = mu
                rows[k + i][j] = Fraction(1)
            if i + j == k and i >= 1:
                rows[i][k + j] = Fraction(1)
    return RatMatrix.from_rows(rows)


def standard_type1_gram(n: int) -> RatMatrix:
    """The (n+1) x (n+1) standard Gram matrix of a type-1 form.

    Zero above the antidiagonal; on and below it the entries repeat the right
    column with alternating signs: G[i][j] = (-1)^j eps c_{i+j-n} with
    c_0 = c_1 = 1 and c_m = 0 otherwise.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    eps = (-1) ** n
    c = [0] * (n + 2)
    c[0] = 1
    c[1] = 1
    rows = []
    for i in range(n + 1):
        row = []
        for j in range(n + 1):
            if i + j < n:
                row.append(Fraction(0))
            else:
                row.append(Fraction((-1) ** j * eps * c[i + j - n]))
        rows.append(row)
    return RatMatrix.from_rows(rows)


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
    return (f.negate_variable() * f).is_one()


def isometry_orbit_invariant(a: OperatorOnLattice) -> OperatorOnLattice:
    """A* A; equal invariants characterize one orbit of the isometry group."""
    if not is_reflexive(a):
        raise ValueError("operator is not in the canonical algebra")
    if det(a.matrix) == 0:
        raise ValueError("operator must be invertible over Q")
    return OperatorOnLattice(right_dual(a).matrix * a.matrix, a.ambient)
