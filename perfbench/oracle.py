"""Independent exact oracle for the quantities the benchmark checks.

Written from the conventions stated in the project README, with plain
``Fraction`` matrices and no call into ``wtw``:

* Levi-Civita gammas from the Koszul formula for an orthonormal frame,
  ``2 g(nabla_X Y, Z) = g([X,Y],Z) - g([Y,Z],X) + g([Z,X],Y)``;
* the Weyl connection ``D_X Y = nabla_X Y - 1/2 (phi(X) Y + phi(Y) X - g(X,Y) phi#)``;
* ``R(X, Y) = nabla_[X,Y] - [nabla_X, nabla_Y]`` as a matrix commutator,
  ``r[i][j][k][l] = g(R(E_i, E_j) E_k, E_l)``;
* ``rho(X, Z) = Tr{Y -> g(R(X,Y) Z, Y)}`` and
  ``rho*(X, Z) = Tr{Y -> g(R(JY, X) JZ, Y)}``;
* the Lee form ``theta = -2/(n-2) (delta Omega) o J`` with
  ``Omega(X, Y) = g(JX, Y)`` and ``delta Omega(Z) = -sum_i (nabla_{E_i} Omega)(E_i, Z)``.

Everything is evaluated at one rational point of the parameters, so each
entry is a single rational number.  The module also evaluates the
program's printed polynomials at that point, with its own reader of the
canonical polynomial format (``-1/2*a2^2 - a2``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

F = Fraction


def _mat_mul(a, b):
    n = len(a)
    return [[sum((a[i][k] * b[k][j] for k in range(n) if a[i][k]), F(0)) for j in range(n)]
            for i in range(n)]


@dataclass(frozen=True)
class OracleValues:
    lc: tuple        # lc[i][j][k] = g(nabla_{E_i} E_j, E_k)
    weyl: tuple      # same for the Weyl connection
    r_lc: tuple      # r[i][j][k][l] = g(R(E_i, E_j) E_k, E_l)
    r_weyl: tuple
    rho: tuple       # Weyl Ricci, rho[i][k] = rho(E_i, E_k)
    rho_star: tuple  # Weyl *-Ricci
    theta: tuple     # Lee form coefficients


def levi_civita(c) -> list:
    n = len(c)
    return [[[(c[i][j][k] - c[j][k][i] + c[k][i][j]) / 2 for k in range(n)]
             for j in range(n)] for i in range(n)]


def weyl(c, phi) -> list:
    n = len(c)
    lc = levi_civita(c)
    out = [[[F(0)] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                corr = (phi[i] if j == k else 0) + (phi[j] if i == k else 0) \
                    - (phi[k] if i == j else 0)
                out[i][j][k] = lc[i][j][k] - F(corr) / 2
    return out


def _connection_matrices(gamma):
    """M_i with (nabla_{E_i} E_k) = sum_l M_i[l][k] E_l."""
    n = len(gamma)
    return [[[gamma[i][k][l] for k in range(n)] for l in range(n)] for i in range(n)]


def curvature(c, gamma) -> list:
    n = len(c)
    M = _connection_matrices(gamma)
    r = [[[[F(0)] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            mij = _mat_mul(M[i], M[j])
            mji = _mat_mul(M[j], M[i])
            for l in range(n):
                for k in range(n):
                    value = sum((c[i][j][m] * M[m][l][k] for m in range(n) if c[i][j][m]), F(0))
                    r[i][j][k][l] = value - (mij[l][k] - mji[l][k])
    return r


def ricci(r) -> list:
    n = len(r)
    return [[sum((r[i][j][k][j] for j in range(n)), F(0)) for k in range(n)] for i in range(n)]


def star_ricci(r, J) -> list:
    """rho*[i][k] = sum_j g(R(J E_j, E_i) J E_k, E_j), R bilinear in its slots."""
    n = len(r)
    out = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for k in range(n):
            total = F(0)
            for j in range(n):
                for p in range(n):      # J E_j = sum_p J[p][j] E_p
                    if not J[p][j]:
                        continue
                    for q in range(n):  # J E_k = sum_q J[q][k] E_q
                        if J[q][k]:
                            total += J[p][j] * J[q][k] * r[p][i][q][j]
            out[i][k] = total
    return out


def lee_form(c, J) -> list:
    n = len(c)
    M = _connection_matrices(levi_civita(c))
    Jm = [list(row) for row in J]
    delta_omega = [F(0)] * n
    for i in range(n):
        # nabla_{E_i} J = [M_i, J]; (nabla_{E_i} Omega)(E_i, Z) = g((nabla_{E_i} J) E_i, Z)
        dj = [[a - b for a, b in zip(r1, r2)]
              for r1, r2 in zip(_mat_mul(M[i], Jm), _mat_mul(Jm, M[i]))]
        for z in range(n):
            delta_omega[z] -= dj[z][i]
    factor = F(-2, n - 2)
    return [factor * sum((J[p][k] * delta_omega[p] for p in range(n)), F(0)) for k in range(n)]


def _freeze(value):
    if isinstance(value, list):
        return tuple(_freeze(v) for v in value)
    return value


def evaluate(c, J, phi) -> OracleValues:
    """Every oracle quantity for structure constants ``c``, complex structure
    ``J`` and the Weyl form's values ``phi`` at the point."""
    lc = levi_civita(c)
    wg = weyl(c, phi)
    r_lc = curvature(c, lc)
    r_w = curvature(c, wg)
    return OracleValues(lc=_freeze(lc), weyl=_freeze(wg), r_lc=_freeze(r_lc),
                        r_weyl=_freeze(r_w), rho=_freeze(ricci(r_w)),
                        rho_star=_freeze(star_ricci(r_w, J)), theta=_freeze(lee_form(c, J)))


# -- reading the program's canonical polynomial strings ---------------------

_TERM_SPLIT = re.compile(r" ([+-]) ")
_FACTOR = re.compile(r"(?:(\d+)(?:/(\d+))?|([A-Za-z_][A-Za-z0-9_]*)(?:\^(\d+))?)\Z")


def poly_terms(text: str) -> list[tuple[int, str]]:
    """Split ``-1/2*a2^2 - a2`` into signed terms ``[(-1, '1/2*a2^2'), (-1, 'a2')]``."""
    text = text.strip()
    sign = 1
    if text.startswith("-"):
        sign, text = -1, text[1:]
    parts = _TERM_SPLIT.split(text)
    terms = [(sign, parts[0])]
    for op, body in zip(parts[1::2], parts[2::2]):
        terms.append((1 if op == "+" else -1, body))
    return terms


def eval_poly(text: str, point: dict) -> Fraction:
    """Value of a canonical polynomial string at a rational point."""
    if text.strip() == "0":
        return F(0)
    total = F(0)
    for sign, body in poly_terms(text):
        value = F(sign)
        for factor in body.split("*"):
            match = _FACTOR.match(factor)
            if not match:
                raise ValueError(f"unreadable factor {factor!r} in {text!r}")
            num, den, name, power = match.groups()
            if num is not None:
                value *= F(int(num), int(den) if den else 1)
            else:
                value *= point[name] ** int(power or 1)
        total += value
    return total


def term_count(text: str) -> int:
    return 0 if text.strip() == "0" else len(poly_terms(text))
