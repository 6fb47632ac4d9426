"""Reference answers computed without the hilb2 package.

Every function here re-derives a result from the formulas stated in the
paper (as summarised in the README), with its own code: the benchmark checks
the program against these, so they must never import from ``src/``.
Symbols are plain tuples ``(family, i, j)`` with family one of
``"A", "A'", "B", "B'", "C"``; classes are ``{symbol: Fraction}`` dicts.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, prod

FAMILY_ORDER = ("A", "A'", "B", "B'", "C")
MS = ("A", "B'", "C")
ES = ("A'", "B", "C")
BB = ("A", "B", "C")
BASES = {"MS": MS, "ES": ES, "BB": BB}


def valid(fam: str, i: int, j: int, n: int) -> bool:
    if fam in ("A", "A'"):
        return 0 <= i < j <= n
    if fam in ("B", "B'"):
        return 0 <= i <= j <= n - 1
    return 1 <= i <= j <= n


def sort_key(sym):
    return (FAMILY_ORDER.index(sym[0]), sym[1], sym[2])


def symbols(n: int, families, dim: int) -> list:
    """Symbols of one dimension, family blocks in basis order, first index rising."""
    return [
        (fam, i, dim - i)
        for fam in families
        for i in range(dim // 2 + 1)
        if valid(fam, i, dim - i, n)
    ]


def symbols_codim(n: int, families, codim: int) -> list:
    """Codimension-``codim`` symbols, first index falling inside each family block."""
    dim = 2 * n - codim
    out = []
    for fam in families:
        out.extend(reversed(symbols(n, (fam,), dim)))
    return out


def all_symbols(n: int, families) -> list:
    """Every symbol of a basis, family blocks in basis order, (i, j) ascending."""
    return [
        (fam, i, j)
        for fam in families
        for i in range(n + 1)
        for j in range(i, n + 1)
        if valid(fam, i, j, n)
    ]


def rank(n: int, codim: int) -> int:
    return len(symbols(n, MS, 2 * n - codim))


def pair(x, y, n: int, diag: int = 1) -> int:
    """Intersection number of an ES or MS symbol ``x`` with an MS symbol ``y``.

    Nonzero only on complementary indices ``(k, l) = (n - j, n - i)``; the
    values are the paper's table (MS x MS and ES x MS blocks).
    """
    fx, i, j = x
    fy, k, l = y
    if (k, l) != (n - j, n - i):
        return 0
    if fx == "B'" and fy == "B'":
        return 2 if i == j else 1
    if (fx, fy) in (("A", "A"), ("A", "B'"), ("B'", "A"), ("B'", "C"), ("C", "B'")):
        return 1
    if (fx, fy) == ("A'", "A"):
        return diag
    if (fx, fy) == ("B", "C"):
        return 1 if i == j == 0 else 2
    return 0


def partners(x, n: int) -> list:
    """MS symbols that can pair nonzero with the symbol ``x``."""
    k, l = n - x[2], n - x[1]
    return [(f, k, l) for f in MS if valid(f, k, l, n)]


def effectivity_vector(X: dict, n: int) -> dict:
    """Pairing of a dimension-k MS class against each codimension-k MS generator."""
    out: dict = {}
    for x, c in X.items():
        for y in partners(x, n):
            v = pair(x, y, n)
            if v:
                out[y] = out.get(y, 0) + c * v
    return out


def c_shift(X: dict, n: int) -> dict:
    """Product with ``C_{n-1,n-1}``: every A and B' index pair moves down by (1, 1)."""
    out = {}
    for (fam, i, j), c in X.items():
        if valid(fam, i - 1, j - 1, n):
            out[(fam, i - 1, j - 1)] = c
    return out


def bprime_power(n: int, k: int) -> dict:
    """Closed form of ``B'_{n-1,n-1}^k`` from the paper."""
    lead = Fraction(2) ** (k - 1)
    bound = k - 1 if 2 * k - 1 <= n else n - k
    out = {}
    if valid("B'", n - k, n - k, n):
        out[("B'", n - k, n - k)] = lead
    for i in range(1, bound + 1):
        for fam, sign in (("B'", 1), ("A", -1)):
            if valid(fam, n - k - i, n - k + i, n):
                out[(fam, n - k - i, n - k + i)] = sign * lead
    return out


def monomial(n: int, a: int, b: int) -> dict:
    X = bprime_power(n, a)
    for _ in range(b):
        X = c_shift(X, n)
    return X


def chern(n: int, d: int) -> tuple[dict, dict]:
    if n == 1:
        c1 = {("A", 0, 1): Fraction(d - 1)}
        c2 = {("B'", 0, 0): Fraction(comb(d, 2))}
    else:
        c1 = {("A", n - 1, n): Fraction(d - 1), ("C", n - 1, n): Fraction(1)}
        c2 = {("B'", n - 1, n - 1): Fraction(comb(d, 2)), ("C", n - 1, n - 1): Fraction(d)}
    return {s: c for s, c in c1.items() if c}, {s: c for s, c in c2.items() if c}


def elementary(degrees) -> list[int]:
    """``e[k]`` = sum over k-subsets S of prod_{S} C(d,2) * prod_{not S} d."""
    e = [1] + [0] * len(degrees)
    for top, d in enumerate(degrees, start=1):
        c = comb(d, 2)
        for k in range(top, 0, -1):
            e[k] = e[k] * d + e[k - 1] * c
        e[0] *= d
    return e


def secant_mu(n: int, degrees) -> int:
    """``deg(Sec X) * mu1`` by the closed formula, evaluated by convolution."""
    m = n - len(degrees)
    e = elementary(degrees)
    return sum(e[k] << (k - 1) for k in range(m + 1, len(degrees) + 1))


def closed_subsets(r: int, m: int) -> int:
    """Subsets the closed subset-sum route visits for ``r`` degrees."""
    return sum(comb(r, k) for k in range(m + 1, r + 1))


def classical(n: int, degrees) -> int | None:
    """Chord count (m = 0) or curve secant formula with adjunction genus (m = 1)."""
    m = n - len(degrees)
    D = prod(degrees)
    if m == 0:
        return D * (D - 1) // 2
    if m == 1:
        genus = (D * (sum(degrees) - n - 1) + 2) // 2
        return (D - 1) * (D - 2) // 2 - genus
    return None


def fixed_points(n: int) -> list:
    """``(kind, i, j, cell symbol, cell dimension, generators)`` per fixed point."""
    out = []
    for kind in "IJK":
        for i in range(n):
            for j in range(i + 1, n + 1):
                if kind == "I":
                    cell, quad = ("A", i, j), f"x{i}*x{j}"
                elif kind == "J":
                    cell, quad = ("B", i, j - 1), f"x{j}^2"
                else:
                    cell, quad = ("C", i + 1, j), f"x{i}^2"
                gens = [quad] + [f"x{t}" for t in range(n + 1) if t not in (i, j)]
                out.append((kind, i, j, cell, cell[1] + cell[2], gens))
    return out


def sym_text(sym) -> str:
    return f"{sym[0]}_{{{sym[1]},{sym[2]}}}"


def sym_doc(sym) -> dict:
    return {"family": sym[0], "i": sym[1], "j": sym[2]}


def class_text(X: dict) -> str:
    """Text rendering: canonical order, unit coefficients elided, signed joins."""
    parts = []
    for sym in sorted(X, key=sort_key):
        c = X[sym]
        mag = abs(c)
        body = sym_text(sym) if mag == 1 else f"{mag}*{sym_text(sym)}"
        if not parts:
            parts.append(("-" if c < 0 else "") + body)
        else:
            parts.append(("- " if c < 0 else "+ ") + body)
    return " ".join(parts) if parts else "0"


def class_doc(X: dict, n: int) -> dict:
    fams = {s[0] for s in X}
    tag = next((b for b in ("MS", "ES", "BB") if fams <= set(BASES[b])), "mixed")
    return {
        "n": n,
        "basis": tag,
        "terms": [{**sym_doc(s), "coeff": str(X[s])} for s in sorted(X, key=sort_key)],
    }
