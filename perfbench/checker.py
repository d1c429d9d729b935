"""Independent checker for the CLI's JSON output (exact integers only).

The checker never imports the library under test.  It reads the JSON
documents the CLI writes and compares every claimed value with the known
construction from :mod:`workloads`.  A value's digits count as certified
only when its claimed precision is actually correct; one wrong claimed
digit, a missing or extra solution or eigenpair, a wrong multiplicity, a
nonzero exit code or an escaped exception fails the whole operation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction

_REPR = re.compile(r"^(?:(?P<u>\d+)\*(?P<p>\d+)\^(?P<v>-?\d+) \+ )?O\((?P<q>\d+)\^(?P<n>-?\d+)\)$")


@dataclass
class Verdict:
    ok: bool
    reason: str = ""
    digits: list = field(default_factory=list)   # certified digits per value


def _fail(reason):
    return Verdict(False, reason)


class _Wrong(Exception):
    """A claim in the output is false; the message says which."""


def parse_num(entry, p):
    """(integer representative, absolute precision) of a CLI number."""
    m = _REPR.match(entry["repr"])
    if m is None or int(m.group("q")) != p:
        raise _Wrong(f"unparseable number {entry['repr']!r}")
    prec = int(m.group("n"))
    if m.group("u") is None:
        return 0, prec
    v = int(m.group("v"))
    if v < 0:
        raise _Wrong(f"negative valuation in {entry['repr']!r}")
    return int(m.group("u")) * p ** v, prec


def _matrix(rows, p):
    """Entries as (integer, absolute precision) pairs."""
    return [[parse_num(e, p) for e in row] for row in rows]


def _ints(m):
    return [[x for x, _ in row] for row in m]


def _val(x, k, p):
    """Valuation of x known mod p^k (k when x vanishes there)."""
    x %= p ** k
    if x == 0:
        return k
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def _product(a, b, p):
    """a @ b with the absolute precision each entry is known to.

    A product x y of x known mod p^kx and y known mod p^ky is known mod
    p^min(kx + val y, ky + val x); a sum keeps its least precision.
    """
    va = [[_val(x, k, p) for x, k in row] for row in a]
    vb = [[_val(x, k, p) for x, k in row] for row in b]
    out = []
    for row, vrow in zip(a, va):
        out_row = []
        for j in range(len(b[0])):
            s = 0
            prec = None
            for t, (x, kx) in enumerate(row):
                y, ky = b[t][j]
                s += x * y
                k = min(kx + vb[t][j], ky + vrow[t])
                prec = k if prec is None else min(prec, k)
            out_row.append((s, prec))
        out.append(out_row)
    return out


def _agree(left, right, p, cap=float("inf")):
    """Entrywise congruence at the precision both sides are known to, and
    at most ``cap``.

    Returns the least such precision, or None when a claimed digit is wrong.
    """
    least = None
    for rl, rr in zip(left, right):
        for (x, kx), (y, ky) in zip(rl, rr):
            k = min(kx, ky, cap)
            if (x - y) % p ** k:
                return None
            least = k if least is None else min(least, k)
    return least


def _exact(a, prec):
    return [[(x, prec) for x in row] for row in a]


def _unimodular(a, p):
    """det(a) is a unit mod p (Gaussian elimination over F_p)."""
    m = [[x % p for x in row] for row in a]
    n = len(m)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c]), None)
        if piv is None:
            return False
        m[c], m[piv] = m[piv], m[c]
        inv = pow(m[c][c], -1, p)
        for r in range(c + 1, n):
            f = m[r][c] * inv % p
            if f:
                m[r] = [(x - f * y) % p for x, y in zip(m[r], m[c])]
    return True


# ----------------------------------------------------------------------
# per mode

def check_solve(doc, truth):
    p = truth["prime"]
    names = truth["names"]
    points = [tuple(pt) for pt in truth["points"]]
    matched = set()
    digits = []
    for sol in doc["solutions"]:
        coords = [parse_num(sol["coordinates"][name], p) for name in names]
        hits = [
            i for i, point in enumerate(points)
            if all((x - t) % p ** k == 0 for (x, k), t in zip(coords, point))
        ]
        if not hits:
            raise _Wrong("a solution matches no true point at its claimed digits")
        if sol["multiplicity"] != 1:
            raise _Wrong("a simple solution claims multiplicity "
                         f"{sol['multiplicity']}")
        if len(hits) > 1 or hits[0] in matched:
            raise _Wrong("extra solution: two reported points match one true point")
        matched.add(hits[0])
        digits.extend(k for _, k in coords)
    if len(matched) != len(points):
        raise _Wrong(f"missing solutions: {len(points) - len(matched)} of {len(points)}")
    return digits


def check_eig(doc, truth):
    p = truth["prime"]
    values = truth["values"]
    uinv = truth["uinv"]
    nq = len(values)
    n = len(uinv)
    covered = set()
    per_set = {}
    digits = []
    for pair in doc["pairs"]:
        lam, klam = parse_num(pair["value"], p)
        vec = [parse_num(e, p) for e in pair["vector"]]
        kvec = min(k for _, k in vec)
        hits = frozenset(i for i, d in enumerate(values) if (lam - d) % p ** klam == 0)
        if not hits:
            raise _Wrong("an eigenvalue matches no true eigenvalue at its claimed digits")
        if pair["multiplicity"] != len(hits):
            raise _Wrong(f"multiplicity {pair['multiplicity']} claimed for an "
                         f"eigenvalue of multiplicity {len(hits)} at its digits")
        # coordinates of v in the exact eigenbasis (columns of U)
        coords = [sum(uinv[i][j] * x for j, (x, _) in enumerate(vec)) for i in range(n)]
        if any(coords[i] % p ** kvec for i in range(n) if i not in hits):
            raise _Wrong("an eigenvector leaves its eigenspace at its claimed digits")
        if all(coords[i] % p == 0 for i in hits):
            raise _Wrong("an eigenvector vanishes mod p")
        per_set[hits] = per_set.get(hits, 0) + 1
        if per_set[hits] > len(hits):
            raise _Wrong("extra eigenpair for one eigenvalue")
        covered |= hits
        digits.extend((klam, kvec))
    if len(covered) != nq:
        raise _Wrong(f"missing eigenpairs: {nq - len(covered)} of {nq} Q_p eigenvalues")
    dim = sum(blk["dimension"] for blk in doc["unresolved_blocks"])
    if dim != n - nq:
        raise _Wrong(f"unresolved dimension {dim}, expected {n - nq}")
    if truth["unresolved_charpoly"] is not None:
        _check_unresolved(doc["unresolved_blocks"], truth["unresolved_charpoly"], p)
    return digits


def _charpoly2(m):
    """Monic characteristic polynomial of a 2x2 integer matrix, low to high."""
    (a, b), (c, d) = m
    return [a * d - b * c, -(a + d), 1]


def _check_unresolved(blocks, expected, p):
    if len(blocks) != 1 or blocks[0]["dimension"] != 2:
        raise _Wrong("the non-Q_p part is not reported as one 2x2 block")
    op = _matrix(blocks[0]["operator"], p)
    prec = min(k for row in op for _, k in row)
    got = _charpoly2(_ints(op))
    if any((x - y) % p ** prec for x, y in zip(got, expected)):
        raise _Wrong("the unresolved block has the wrong characteristic polynomial")


def check_schur(doc, truth):
    """The CLI claims A V = V T + O(p^r), r its residual_valuation, with T
    block upper triangular at that precision."""
    p = truth["prime"]
    a = _exact(truth["matrix"], doc["precision"])
    n = len(a)
    t = _matrix(doc["t"], p)
    v = _matrix(doc["v"], p)
    r = doc["residual_valuation"]
    bounds = doc["block_boundaries"]
    if bounds[0] != 0 or bounds[-1] != n:
        raise _Wrong(f"block boundaries {bounds} do not cover 0..{n}")
    block_of = [0] * n
    for b, (s, e) in enumerate(zip(bounds, bounds[1:])):
        for i in range(s, e):
            block_of[i] = b
    for i in range(n):
        for j in range(n):
            x, k = t[i][j]
            if block_of[i] > block_of[j] and x % p ** min(k, r):
                raise _Wrong("T has a nonzero entry below its diagonal blocks")
    k = _agree(_product(a, v, p), _product(v, t, p), p, cap=r)
    if k is None:
        raise _Wrong("A V != V T at the claimed digits")
    if not _unimodular(_ints(v), p):
        raise _Wrong("V is not unimodular")
    return [k]


def check_qr(doc, truth):
    p = truth["prime"]
    a = _exact(truth["matrix"], doc["precision"])
    q = _matrix(doc["q"], p)
    r = _matrix(doc["r"], p)
    k = _agree(_product(q, r, p), a, p)
    if k is None:
        raise _Wrong("Q R != A at the claimed digits")
    if not _unimodular(_ints(q), p):
        raise _Wrong("Q is not unimodular")
    pivots = {i: j for i, j in doc["pivots"]}
    for i, row in enumerate(r):
        first = pivots.get(i, len(row))
        if any(x % p ** kk for x, kk in row[:first]):
            raise _Wrong("R is not in echelon form at its claimed digits")
        if i in pivots and row[first][0] % p ** row[first][1] == 0:
            raise _Wrong("a pivot of R vanishes at its claimed digits")
    return [k]


def check_svd(doc, truth):
    p = truth["prime"]
    prec = doc["precision"]
    a = _exact(truth["matrix"], prec)
    n = len(a)
    u = _matrix(doc["u"], p)
    v = _matrix(doc["v"], p)
    sigma = [parse_num(e, p) for e in doc["sigma"]]
    expected = sorted(e for e in truth["exponents"] if e < prec)
    expected += [None] * (n - len(expected))
    if doc["smith_valuations"] != expected:
        raise _Wrong(f"Smith valuations {doc['smith_valuations']} != {expected}")
    if doc["rank"] != sum(1 for e in expected if e is not None):
        raise _Wrong(f"rank {doc['rank']} is wrong")
    diag = [[sigma[i] if i == j else (0, prec) for j in range(n)] for i in range(n)]
    vt = [list(col) for col in zip(*v)]
    k = _agree(_product(_product(u, diag, p), vt, p), a, p)
    if k is None:
        raise _Wrong("U Sigma V^T != A at the claimed digits")
    if not (_unimodular(_ints(u), p) and _unimodular(_ints(v), p)):
        raise _Wrong("U or V is not unimodular")
    return [k]


def check_valuations(result, truth):
    expected = [Fraction(v) for v in truth["valuations"]]
    got = [Fraction(x) for x in result]
    if got != expected:
        raise _Wrong(f"valuations {[str(x) for x in got]} != {truth['valuations']}")
    return []


CHECKS = {
    "solve": check_solve, "eig": check_eig, "schur": check_schur,
    "qr": check_qr, "svd": check_svd, "valuations": check_valuations,
}


def check(mode, status, output, truth, error=None):
    """Verdict for one operation.

    ``status`` is the CLI exit code (0 expected), ``output`` the parsed
    JSON document (or the eigenvalue_valuations list), ``error`` the text
    of an exception that escaped the call.
    """
    if error is not None:
        return _fail(f"exception escaped: {error}")
    if status != 0:
        return _fail(f"exit code {status}")
    try:
        digits = CHECKS[mode](output, truth)
    except _Wrong as exc:
        return _fail(str(exc))
    except (KeyError, TypeError, ValueError) as exc:
        return _fail(f"malformed output: {exc!r}")
    return Verdict(True, digits=digits)
