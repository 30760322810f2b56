"""Transfer operators of the expansion map on Chebyshev grids.

The map has countably many inverse branches u_i(x) = 1/(i*theta + x),
i >= m, with branch weights

    P_i(x) = (theta*x + 1) / ((x + i*theta)(x + (i+1)*theta)),

which telescope to total mass 1.  Three operators act on functions over
[0, theta]:

  * U  - transfer operator under the invariant measure:
         Uf(x) = sum_i P_i(x) f(u_i(x));
  * V  - transfer operator under Lebesgue measure, weights 1/(i*theta+x)^2;
  * S  - transfer operator under an arbitrary density h, reduced to U by
         S f = U[(1+theta*x) f h] / ((1+theta*x) h).

Functions are carried on Chebyshev-Lobatto grids with barycentric
evaluation and spectral differentiation, so the iterates (analytic
functions) are resolved to near machine precision and geometric decay
rates can be measured down to ~1e-13 floors.

Branch series are summed directly up to an index N and the remainder is
folded in analytically: the function is interpolated by a degree-8
polynomial on [0, u_{N+1}(0)] (all tail arguments land there) and the
tail moments sum_{i>N} P_i(x) u_i(x)^k are evaluated in closed form
through Hurwitz zeta values.  The fold is written as weights on the
nine fit-point values, W = Z V^-1 (Z the moments over umax^k, V the
fit's Vandermonde matrix), which is backward stable: no power-basis
coefficients are formed.  The alternating-zeta form of the moments is
cancellation-free, which keeps iterated applications stable; the cutoff
index N adapts (doubling from max(256, m+1)) until the estimated
folding error meets 1e-13.  The zeta values and alternating zeta sums,
and the zeta and digamma differences of the distribution step, come
from Euler-Maclaurin expansions at a >= N+1 >= 257 in numpy; the
differences go through log1p/expm1, so they keep full relative accuracy
however small the shift.

On a grid every operator is a fixed linear map of the node values.  So
U, V and the distribution step applied to a GridFunction are matvecs
with a (degree+1)^2 matrix, assembled lazily by the same series on the
barycentric cardinal basis and cached per (m, degree, kind, N).  Each
application still picks N from the function it is given, by the rule
above, and uses the matrix for that N.  Arbitrary callables
(``transfer_values``) are summed by the series itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import constants as _constants
from .expansion import (
    DigitError,
    DomainError,
    ThetaParams,
    _as_qtheta,
    ceil_qtheta,
)

__all__ = [
    "OperatorSeriesError",
    "GridFunction",
    "OperatorConfig",
    "DecayReport",
    "branch_inverse",
    "branch_weight",
    "weight_tail_mass",
    "weight_normalization_residual",
    "transfer_values",
    "apply_U",
    "apply_V",
    "apply_V_power",
    "apply_S",
    "apply_S_power",
    "markov_transition",
    "gk_iterate_cdf",
    "gk_iterate_density",
    "error_sequence",
    "variation",
    "lipschitz_seminorm",
    "integrate_gamma",
    "pullback_measure",
]

_EPS = float(np.finfo(np.float64).eps)

#: Bound on the estimated error of folding the branch-series remainder
#: analytically (its leading term is the exact tail mass times f(0)).
_SERIES_CUTOFF_TOLERANCE = 1e-13
#: Degree of the local polynomial fit near 0 that folds the remainder.
_TAIL_FIT_DEGREE = 8
#: Largest direct-sum cutoff N tried before OperatorSeriesError.
_MAX_BRANCHES = 262_144
#: Elements per block of the temporaries of one branch sum or one
#: interpolation: 64 KB, below glibc's default 128 KB mmap threshold, so
#: repeated calls reuse heap memory instead of faulting in fresh pages
#: (at 512 KB blocks a function-family check took ~1000 minor faults).
_BLOCK_ELEMENTS = 8192
#: The same for the one-time matrix assembly, where faults do not repeat.
_ASSEMBLY_BLOCK_ELEMENTS = 65536


class OperatorSeriesError(ArithmeticError):
    """The branch series could not meet its tolerance within the index budget."""


# ---------------------------------------------------------------------------
# Chebyshev-Lobatto machinery
# ---------------------------------------------------------------------------


@lru_cache(maxsize=64)
def _cheb_machinery(m: int, degree: int):
    """Nodes (ascending on [0, theta]), barycentric weights, d/dx matrix."""
    theta = 1.0 / math.sqrt(m)
    j = np.arange(degree + 1)
    s = np.cos(np.pi * j / degree)  # 1 ... -1
    nodes = (1.0 - s) * theta / 2.0  # 0 ... theta, ascending
    bary = np.ones(degree + 1)
    bary[1::2] = -1.0
    bary[0] *= 0.5
    bary[-1] *= 0.5
    # standard first-kind differentiation matrix in s, then chain rule ds/dx = -2/theta
    c = np.hstack([2.0, np.ones(degree - 1), 2.0]) * (-1.0) ** j
    ds = s[:, None] - s[None, :]
    D = np.outer(c, 1.0 / c) / (ds + np.eye(degree + 1))
    D -= np.diag(D.sum(axis=1))
    Dx = D * (-2.0 / theta)
    nodes.setflags(write=False)
    bary.setflags(write=False)
    Dx.setflags(write=False)
    return nodes, bary, Dx


def _cardinal(nodes, weights, xq: np.ndarray) -> np.ndarray:
    """Cardinal functions l_k(xq), shape (len(xq), len(nodes)).

    The barycentric weights normalised row by row (Berrut & Trefethen,
    SIAM Rev. 46, 2004); a query that hits a node exactly gets that
    node's one-hot row.
    """
    d = xq[:, None] - nodes[None, :]
    hit = d == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        c = weights / d
        c /= c.sum(axis=1, keepdims=True)
    rows = hit.any(axis=1)
    if rows.any():
        c[rows] = hit[rows]
    return c


def _bary_eval(nodes, weights, values, xq):
    """Barycentric interpolation at query points, chunked for memory."""
    flat = np.ascontiguousarray(xq, dtype=float).ravel()
    out = np.empty(flat.shape, dtype=float)
    chunk = max(1, _BLOCK_ELEMENTS // nodes.size)
    for lo in range(0, flat.size, chunk):
        out[lo : lo + chunk] = _cardinal(nodes, weights, flat[lo : lo + chunk]) @ values
    return out.reshape(np.shape(xq))


class GridFunction:
    """A function on [0, theta] sampled at Chebyshev-Lobatto nodes.

    Evaluation anywhere in the interval goes through barycentric
    interpolation; polynomials up to the grid degree are reproduced to
    rounding.  Instances are treated as immutable values.
    """

    __slots__ = ("params", "values")

    def __init__(self, params: ThetaParams, values):
        vals = np.array(values, dtype=float)
        if vals.ndim != 1 or vals.size < 9:
            raise ValueError("GridFunction needs a 1-d value array of degree >= 8")
        self.params = params
        self.values = vals
        self.values.setflags(write=False)

    @property
    def degree(self) -> int:
        return self.values.size - 1

    @property
    def nodes(self) -> np.ndarray:
        return _cheb_machinery(self.params.m, self.degree)[0]

    @classmethod
    def from_callable(cls, fn, params: ThetaParams, degree: int = 64) -> "GridFunction":
        nodes = _cheb_machinery(params.m, degree)[0]
        try:
            vals = np.asarray(fn(nodes), dtype=float)
            if vals.shape != nodes.shape:
                raise TypeError
        except TypeError:
            vals = np.array([float(fn(t)) for t in nodes])
        return cls(params, vals)

    def with_values(self, values) -> "GridFunction":
        return GridFunction(self.params, values)

    def __call__(self, x):
        arr = np.asarray(x, dtype=float)
        if arr.size and (arr.min() < -1e-9 or arr.max() > self.params.theta + 1e-9):
            raise DomainError("evaluation outside [0, theta]")
        arr = np.clip(arr, 0.0, self.params.theta)
        nodes, bary, _ = _cheb_machinery(self.params.m, self.degree)
        out = _bary_eval(nodes, bary, self.values, arr)
        return float(out) if np.isscalar(x) else out

    def derivative(self) -> "GridFunction":
        _, _, Dx = _cheb_machinery(self.params.m, self.degree)
        return GridFunction(self.params, Dx @ self.values)


@dataclass(frozen=True)
class OperatorConfig:
    """Discretization of the Chebyshev grids: ``degree`` is the grid degree."""

    degree: int = 64

    def __post_init__(self):
        if self.degree < 8:
            raise ValueError("degree must be >= 8")


_DEFAULT_CONFIG = OperatorConfig()


# ---------------------------------------------------------------------------
# branch data
# ---------------------------------------------------------------------------


def _check_branch(i: int, params: ThetaParams) -> None:
    if i < params.m:
        raise DigitError(f"branch index {i} below m={params.m}")


def branch_inverse(i: int, x, params: ThetaParams):
    """Inverse branch u_i(x) = 1/(i*theta + x); maps into the digit-i cylinder."""
    _check_branch(i, params)
    return 1.0 / (i * params.theta + np.asarray(x, dtype=float)) if not np.isscalar(x) else 1.0 / (
        i * params.theta + x
    )


def branch_weight(i: int, x, params: ThetaParams):
    """Branch weight P_i(x); positive, increasing in x, summing to 1 over i."""
    _check_branch(i, params)
    th = params.theta
    xa = np.asarray(x, dtype=float)
    out = (th * xa + 1.0) / ((xa + i * th) * (xa + (i + 1) * th))
    return float(out) if np.isscalar(x) else out


def weight_tail_mass(N: int, x, params: ThetaParams):
    """Exact telescoped mass sum_{i>N} P_i(x) = (theta*x+1)/(theta*(x+(N+1)theta))."""
    th = params.theta
    xa = np.asarray(x, dtype=float)
    out = (th * xa + 1.0) / (th * (xa + (N + 1) * th))
    return float(out) if np.isscalar(x) else out


def weight_normalization_residual(x: float, N: int, params: ThetaParams) -> float:
    """|sum_{i=m}^{N} P_i(x) + tail mass - 1|, with a compensated sum."""
    terms = [branch_weight(i, x, params) for i in range(params.m, N + 1)]
    terms.append(weight_tail_mass(N, x, params))
    terms.append(-1.0)
    return abs(math.fsum(terms))


# ---------------------------------------------------------------------------
# Hurwitz zeta and digamma differences by Euler-Maclaurin
# ---------------------------------------------------------------------------

# B_2k/(2k)! and B_2k/(2k) for k = 1..8.  With a >= 256 and s <= 64 the
# first omitted Euler-Maclaurin term is below 1e-20 of the value, so eight
# terms leave only rounding.
_ZETA_COEF = tuple(float(b / math.factorial(2 * k)) for k, b in enumerate(_constants._BERNOULLI, start=1))
_DIGAMMA_COEF = tuple(float(b / (2 * k)) for k, b in enumerate(_constants._BERNOULLI, start=1))
_EM_MIN_A = 256.0


def _check_em_argument(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if np.min(a) < _EM_MIN_A:
        raise ValueError(f"Euler-Maclaurin helpers need a >= {_EM_MIN_A:g}")
    return a


@lru_cache(maxsize=128)
def _zeta_terms(s: int) -> tuple:
    """(p, c) with zeta(s, a) = sum c * a^(-p) up to the omitted terms (DLMF 25.11.5/6).

    The terms are a^(1-s)/(s-1), a^(-s)/2 and B_2k/(2k)! (s)_(2k-1) a^(-s-2k+1).
    """
    if not 2 <= s <= 64:
        raise ValueError("zeta order must lie in [2, 64]")
    out = [(s - 1, 1.0 / (s - 1)), (s, 0.5)]
    rising = float(s)  # (s)_1, then (s)_3, (s)_5, ...
    for k, c in enumerate(_ZETA_COEF, start=1):
        out.append((s + 2 * k - 1, c * rising))
        rising *= (s + 2 * k - 1.0) * (s + 2 * k)
    return tuple(out)


def _zeta(s: int, a):
    """Hurwitz zeta(s, a) for a >= 256, to a few ulps.

    Horner in a^-2 over the Bernoulli terms, then one power a^-s.
    """
    a = _check_em_argument(a)
    terms = _zeta_terms(s)
    inv2 = 1.0 / (a * a)
    acc = 0.0
    for _, c in reversed(terms[2:]):
        acc = acc * inv2 + c
    return a ** (-float(s)) * (a * terms[0][1] + 0.5 + acc / a)


def _zeta_diff(s: int, a, t):
    """zeta(s, a) - zeta(s, a + t) for a >= 256 and t >= 0, without cancellation.

    Each term c * a^-p of the expansion contributes
    c * (a^-p - (a+t)^-p) = -c * a^-p * expm1(-p * log1p(t/a)).
    """
    a = _check_em_argument(a)
    lg = np.log1p(np.asarray(t, dtype=float) / a)
    total = 0.0
    for p, c in reversed(_zeta_terms(s)):
        total = total - c * a ** float(s - p) * np.expm1(-p * lg)
    return a ** (-float(s)) * total


def _digamma_diff(a, t):
    """psi(a + t) - psi(a) for a >= 256 and t >= 0, without cancellation.

    From psi(a) ~ log a - 1/(2a) - sum B_2k/(2k) a^(-2k) (DLMF 5.11.2),
    with every difference written through log1p(t/a) as in _zeta_diff.
    """
    a = _check_em_argument(a)
    lg = np.log1p(np.asarray(t, dtype=float) / a)
    total = 0.0
    for k in range(len(_DIGAMMA_COEF), 0, -1):
        total = total - _DIGAMMA_COEF[k - 1] * a ** (-2.0 * k) * np.expm1(-2 * k * lg)
    return lg - 0.5 / a * np.expm1(-lg) + total


# ---------------------------------------------------------------------------
# series engine: direct sum + analytic tail fold
# ---------------------------------------------------------------------------


def _fit_points(umax: float) -> np.ndarray:
    """The Chebyshev points of [0, umax] that carry the tail fold."""
    d = _TAIL_FIT_DEGREE
    return (1.0 - np.cos(np.pi * np.arange(d + 1) / d)) * umax / 2.0


def _fit_near_zero(fun, umax: float):
    """fun at the fit points of [0, umax], and the fold's truncation estimate.

    The estimate is the residual of the interpolating polynomial (in the
    variable u/umax) at intermediate Chebyshev points; ``scale`` is the
    largest fitted value.
    """
    d = _TAIL_FIT_DEGREE
    xs = _fit_points(umax)
    ys = np.asarray(fun(xs), dtype=float)
    coef = np.polynomial.polynomial.polyfit(xs / umax, ys, d)
    mids = (1.0 - np.cos(np.pi * (np.arange(d) + 0.5) / d)) * umax / 2.0
    resid = np.polynomial.polynomial.polyval(mids / umax, coef) - np.asarray(fun(mids), dtype=float)
    est = float(np.max(np.abs(resid)))
    scale = float(np.max(np.abs(ys))) if ys.size else 1.0
    return ys, est, scale


@lru_cache(maxsize=64)
def _alternating_coefficients(s: int) -> tuple:
    """d_r, r = 0..16, with sum_{j>=0} (-1)^j zeta(s + j, a) = a^(1-s) sum_r d_r a^-r.

    The Euler-Maclaurin terms of every order s + j, collected by their
    power of 1/a; what is left out is of order a^-17 relative.
    """
    d = [0.0] * 17
    for j in range(17):
        for p, c in _zeta_terms(s + j):
            r = p - (s - 1)
            if r <= 16:
                d[r] += c if j % 2 == 0 else -c
    return tuple(d)


def _alternating_zeta(kplus2, a: np.ndarray) -> np.ndarray:
    """sum_{j>=0} (-1)^j zeta(kplus2 + j, a) for a >= 256, cancellation-free.

    One series in 1/a whose terms drop by a factor ~1/a, summed by Horner.
    A sequence of orders adds a last axis and sums them all in one pass.
    """
    a = _check_em_argument(a)
    s = np.asarray(kplus2)
    if s.ndim:
        a = a[..., None]
    table = np.array([_alternating_coefficients(int(k)) for k in s.ravel()]).reshape(s.shape + (17,))
    inv = 1.0 / a
    acc = 0.0
    for d in np.moveaxis(table, -1, 0)[::-1]:
        acc = acc * inv + d
    return a ** (1.0 - s) * acc


def _tail_weights(params: ThetaParams, N: int, xs: np.ndarray, kind: str) -> np.ndarray:
    """W, shape (len(xs), 9), with W @ fun(fit points) the folded remainder at xs.

    The remainder is sum_k c_k Z_k(x), with c_k the fit's coefficients in
    u/umax and Z_k the tail moments over umax^k:
      U:  sum_{i>N} P_i(x) u_i(x)^k, by alternating zeta sums;
      V:  sum_{i>N} u_i(x)^(k+2), by Hurwitz zeta;
      gk: sum_{i>N} [(i*theta)^-k - u_i(x)^k], by digamma (k = 1) and
          zeta (k >= 2) differences, and 0 for k = 0.
    Since c = V^-1 y for the fit's Vandermonde matrix V, the fold is W y
    with W = Z V^-1, solved from V^T W^T = Z^T.  Unlike the coefficients
    c, W is backward stable: at m from 2 to 1001 its rows of |W| sum to
    the tail mass for U and V and to at most 2 for the distribution step.
    """
    d = _TAIL_FIT_DEGREE
    th = params.theta
    umax = 1.0 / ((N + 1) * th)
    a = N + 1 + xs / th
    k = np.arange(d + 1)
    if kind == "U":
        Z = (th * xs[:, None] + 1.0) * th ** (-(k + 2.0)) * _alternating_zeta(k + 2, a)
    elif kind == "V":
        Z = np.stack([th ** (-(j + 2)) * _zeta(j + 2, a) for j in k], axis=1)
    else:
        t = xs / th
        Z = np.stack(
            [np.zeros_like(t), _digamma_diff(N + 1, t) / th] + [_zeta_diff(j, N + 1, t) / th**j for j in k[2:]],
            axis=1,
        )
    Z /= umax**k
    V = np.polynomial.polynomial.polyvander(_fit_points(umax) / umax, d)
    return np.linalg.solve(V.T, Z.T).T


def _choose_tail(fun, params: ThetaParams, kind: str):
    """Pick the direct-sum cutoff N meeting the tolerance; also fun at the fit points.

    The folding error is bounded by (fit residual) x (tail weight); the
    evaluation-noise floor of the residual does not amplify, so it is
    subtracted before testing the bound.
    """
    d = _TAIL_FIT_DEGREE
    th = params.theta
    N = max(256, params.m + 1)
    while True:
        ys, est, scale = _fit_near_zero(fun, 1.0 / ((N + 1) * th))
        if kind == "U":
            weight = params.m / (N + 1.0)
        elif kind == "V":
            weight = th ** (-2) * float(_zeta(2, N + 1))
        elif kind == "gk":
            weight = 2.0 * d * d
        else:  # pragma: no cover
            raise ValueError(kind)
        est_eff = max(est - 64.0 * _EPS * max(1.0, scale), 0.0)
        if est_eff * weight <= _SERIES_CUTOFF_TOLERANCE:
            return N, ys
        N *= 2
        if N > _MAX_BRANCHES:
            raise OperatorSeriesError(
                f"folding tolerance {_SERIES_CUTOFF_TOLERANCE:.1e} unreachable "
                f"within {_MAX_BRANCHES} branches"
            )


def _branch_blocks(params: ThetaParams, N: int, xs: np.ndarray, kind: str, budget: int):
    """Branches i = m..N in blocks of budget // len(xs) indices.

    Yields (i, u, w): a column of indices, u_i(xs) clipped to [0, theta],
    and the U or V weights at xs (None for the distribution step).
    """
    th = params.theta
    block = max(1, budget // max(1, xs.size))
    for lo in range(params.m, N + 1, block):
        i = np.arange(lo, min(lo + block, N + 1), dtype=float)[:, None]
        u = 1.0 / (i * th + xs[None, :])
        if kind == "U":
            w = (th * xs[None, :] + 1.0) / ((xs[None, :] + i * th) * (xs[None, :] + (i + 1.0) * th))
        elif kind == "V":
            w = u * u
        else:
            w = None
        yield i, np.clip(u, 0.0, th), w


def _direct_sum(fun, xs: np.ndarray, params: ThetaParams, N: int, kind: str) -> np.ndarray:
    total = np.zeros(xs.size)
    for _, u, w in _branch_blocks(params, N, xs, kind, _BLOCK_ELEMENTS):
        total += np.sum(w * np.asarray(fun(u), dtype=float), axis=0)
    return total


def transfer_values(fun, xs, params: ThetaParams, config: OperatorConfig | None = None, operator: str = "U"):
    """Evaluate (Uf)(xs) or (Vf)(xs) for an arbitrary callable f.

    The branch series itself, for any callable on [0, theta] (vectorized
    over numpy arrays), so test families need not be representable on
    the grid first; grid functions go through the assembled matrices of
    apply_U/apply_V instead.  ``config`` does not change the result: the
    series settings are module constants.
    """
    if operator not in ("U", "V"):
        raise ValueError(f"unknown operator {operator!r}")
    xs = np.asarray(xs, dtype=float)
    if xs.size and (xs.min() < -1e-9 or xs.max() > params.theta + 1e-9):
        raise DomainError("operator evaluation outside [0, theta]")
    xs = np.clip(xs, 0.0, params.theta)
    N, ys = _choose_tail(fun, params, operator)
    return _direct_sum(fun, xs, params, N, operator) + _tail_weights(params, N, xs, operator) @ ys


@lru_cache(maxsize=32)
def _operator_matrix(params: ThetaParams, degree: int, kind: str, N: int) -> np.ndarray:
    """The series of ``kind`` with cutoff N as a read-only matrix on node values.

    Column k is the series applied to the k-th cardinal function:
    M[j, k] = sum_{i=m..N} w_i(x_j) l_k(u_i(x_j)), or for the
    distribution step sum_i [l_k(1/(i*theta)) - l_k(u_i(x_j))], plus the
    tail weights applied to l_k at the fit points.  Branches go in blocks
    of _ASSEMBLY_BLOCK_ELEMENTS // (degree+1)^2, so the temporaries stay
    near 0.5 MB at any degree.
    """
    nodes, bary, _ = _cheb_machinery(params.m, degree)
    th = params.theta
    n = degree + 1
    M = np.zeros((n, n))
    for i, u, w in _branch_blocks(params, N, nodes, kind, _ASSEMBLY_BLOCK_ELEMENTS // n):
        L = _cardinal(nodes, bary, u.ravel()).reshape(u.shape + (n,))
        if w is None:
            at_zero = _cardinal(nodes, bary, np.clip(1.0 / (i[:, 0] * th), 0.0, th))
            M += np.sum(at_zero[:, None, :] - L, axis=0)
        else:
            M += np.einsum("ij,ijk->jk", w, L)
    M += _tail_weights(params, N, nodes, kind) @ _cardinal(nodes, bary, _fit_points(1.0 / ((N + 1) * th)))
    M.setflags(write=False)
    return M


def _apply_matrix(f: GridFunction, kind: str) -> GridFunction:
    """One application of U, V or the distribution step to f, as a matvec.

    N is chosen from f as by the series, so the cutoff and its errors are
    those of transfer_values.
    """
    N, _ = _choose_tail(f, f.params, kind)
    return f.with_values(_operator_matrix(f.params, f.degree, kind, N) @ f.values)


def apply_U(f: GridFunction, config: OperatorConfig | None = None) -> GridFunction:
    """Transfer operator under the invariant measure: fixes constants."""
    return _apply_matrix(f, "U")


def apply_V(f: GridFunction, config: OperatorConfig | None = None) -> GridFunction:
    """Transfer operator under Lebesgue measure: fixes c/(1 + theta*x)."""
    return _apply_matrix(f, "V")


def apply_V_power(f: GridFunction, n: int, config: OperatorConfig | None = None) -> GridFunction:
    """V^n f through the conjugacy V^n f = U^n[(1+theta*x) f] / (1+theta*x)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    th = f.params.theta
    g = f.with_values((1.0 + th * f.nodes) * f.values)
    for _ in range(n):
        g = apply_U(g, config)
    return f.with_values(g.values / (1.0 + th * f.nodes))


def apply_S(f: GridFunction, h: GridFunction, config: OperatorConfig | None = None) -> GridFunction:
    """Transfer operator under the measure with density h (w.r.t. dx/theta).

    Computed as S f = U[(1+theta*x) f h] / ((1+theta*x) h); requires h > 0
    on the grid.
    """
    return apply_S_power(f, h, 1, config)


def apply_S_power(
    f: GridFunction, h: GridFunction, n: int, config: OperatorConfig | None = None
) -> GridFunction:
    """S^n f = U^n[(1+theta*x) f h] / ((1+theta*x) h)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if h.degree != f.degree:
        raise ValueError("f and h must share a grid")
    if np.any(h.values <= 0.0):
        raise DomainError("density vanishes (or is negative) on the grid")
    th = f.params.theta
    g = f.with_values((1.0 + th * f.nodes) * f.values * h.values)
    for _ in range(n):
        g = apply_U(g, config)
    return f.with_values(g.values / ((1.0 + th * f.nodes) * h.values))


# ---------------------------------------------------------------------------
# Markov transition over interval unions
# ---------------------------------------------------------------------------


def markov_transition(x, intervals, params: ThetaParams) -> float:
    """Transition probability Q(x, A) = sum of P_i(x) over branches with u_i(x) in A.

    ``A`` is a finite union of pairwise-disjoint intervals given as
    (lower, upper) pairs, read half-open (lower, upper] to match the
    cylinder orientation; endpoints may be floats, Fractions, or exact
    field elements.  Branch membership is decided exactly: the candidate
    index range solves lower < 1/(i*theta + x) <= upper with integer
    ceilings computed in Q(theta), then the selected weights are summed
    in closed (telescoped) form.
    """
    th = params.theta
    xf = float(x)
    if not (-1e-12 <= xf <= th + 1e-12):
        raise DomainError(f"x={x!r} outside [0, theta]")
    xq = _as_qtheta(x, params)  # floats are exact binary rationals
    theta_exact = params.theta_exact

    pairs = []
    for item in intervals:
        try:
            lo, hi = item
        except (TypeError, ValueError):
            raise DomainError(f"malformed interval {item!r}") from None
        lo_q = _as_qtheta(lo, params)
        hi_q = _as_qtheta(hi, params)
        if lo_q.sign() < 0 or ((hi_q - theta_exact).sign() > 0 and float(hi_q) > th + 1e-12):
            raise DomainError(f"interval {item!r} outside [0, theta]")
        if (hi_q - lo_q).sign() < 0:
            raise DomainError(f"interval {item!r} has upper < lower")
        pairs.append((lo_q, hi_q))
    pairs.sort(key=lambda p: float(p[0]))
    for (_, hi_a), (lo_b, _) in zip(pairs, pairs[1:]):
        if (lo_b - hi_a).sign() < 0:
            raise DomainError("intervals overlap")

    total = 0.0
    for lo_q, hi_q in pairs:
        if (hi_q - lo_q).sign() == 0 or hi_q.sign() <= 0:
            continue
        # u_i(x) <= hi  <=>  i >= (1/hi - x)/theta.  An upper endpoint at or
        # beyond the float value of theta is read as the right endpoint
        # (float(theta) sits a hair below the exact value).
        if (hi_q - theta_exact).sign() >= 0 or float(hi_q) >= th:
            i_min = params.m
        else:
            y = (hi_q.reciprocal() - xq) / theta_exact
            i_min = max(params.m, ceil_qtheta(y))
        # u_i(x) > lo  <=>  i < (1/lo - x)/theta
        if lo_q.sign() <= 0:
            i_max = None
        else:
            y2 = (lo_q.reciprocal() - xq) / theta_exact
            i_max = ceil_qtheta(y2) - 1
            if i_max < i_min:
                continue
        head = (th * xf + 1.0) / th
        term = 1.0 / (xf + i_min * th)
        if i_max is not None:
            term -= 1.0 / (xf + (i_max + 1) * th)
        total += head * term
    return total


# ---------------------------------------------------------------------------
# distribution-function iteration
# ---------------------------------------------------------------------------


def gk_iterate_cdf(F0: GridFunction, n: int, config: OperatorConfig | None = None) -> list[GridFunction]:
    """Iterate the distribution-function recursion n times from F0.

    One step is F(x) -> sum_{i>=m} [F(1/(i*theta)) - F(1/(i*theta+x))],
    a linear map of the grid values (the "gk" matrix, whose tail moment
    differences are digamma (k=1) and Hurwitz zeta (k>=2) differences).
    Returns [F_0, F_1, ..., F_n].  F0 must be a distribution function on
    [0, theta] (F(0)=0, F(theta)=1, non-decreasing); each iterate remains
    one up to grid tolerance, with F(0) and F(theta) preserved by
    construction of the series.
    """
    vals = F0.values
    if abs(vals[0]) > 1e-8 or abs(vals[-1] - 1.0) > 1e-8:
        raise ValueError("F0 must satisfy F(0)=0 and F(theta)=1")
    if np.any(np.diff(vals) < -1e-10):
        raise ValueError("F0 must be non-decreasing")
    out = [F0]
    cur = F0
    for _ in range(n):
        cur = _apply_matrix(cur, "gk")
        out.append(cur)
    return out


def gk_iterate_density(f0: GridFunction, n: int, config: OperatorConfig | None = None) -> list[GridFunction]:
    """Density counterpart of the distribution iteration: the U-orbit of f0."""
    out = [f0]
    cur = f0
    for _ in range(n):
        cur = apply_U(cur, config)
        out.append(cur)
    return out


@dataclass(frozen=True)
class DecayReport:
    """Error decay of a distribution-function iteration.

    ``sup_errors[n]`` is sup|F_n - limit| over a 4x oversampled grid,
    ``ratios[n]`` = sup_errors[n+1]/sup_errors[n], ``lipschitz_M[n]`` is
    max|f_n'| for the density iterates, and ``q_reference`` the analytic
    contraction constant.  Entries below ``noise_floor`` measure rounding,
    not decay.
    """

    sup_errors: tuple
    ratios: tuple
    lipschitz_M: tuple
    q_reference: float
    degree: int
    noise_floor: float = 1e-12

    def csv_rows(self) -> list[list]:
        rows = [["n", "sup_error", "ratio", "M_n", "q_reference"]]
        for n, e in enumerate(self.sup_errors):
            ratio = "" if n == 0 else repr(self.ratios[n - 1])
            rows.append([n, repr(e), ratio, repr(self.lipschitz_M[n]), repr(self.q_reference)])
        return rows

    def to_json_dict(self) -> dict:
        return {
            "sup_errors": list(self.sup_errors),
            "ratios": list(self.ratios),
            "lipschitz_M": list(self.lipschitz_M),
            "q_reference": self.q_reference,
            "degree": self.degree,
            "noise_floor": self.noise_floor,
        }


def error_sequence(
    Fs: list[GridFunction],
    config: OperatorConfig | None = None,
    f0: GridFunction | None = None,
) -> DecayReport:
    """Sup-norm errors, decay ratios, and derivative maxima for iterates Fs.

    Errors are measured against the limit distribution on a 4x
    oversampled Chebyshev grid, in its log1p form ``gamma_cdf``, which is
    within an ulp at every m (the log form cancels and is off by 2e-12 at
    m = 5003, which the errors would plateau at).  The derivative maxima M_n = max|f_n'|
    use the density orbit f_{n+1} = U f_n (equivalent to differentiating
    F_n, but it costs one spectral differentiation instead of two, which
    keeps the noise floor near 1e-11).  f0 defaults to
    (1+theta*x) F_0'(x) by spectral differentiation.
    """
    if not Fs:
        raise ValueError("need at least one iterate")
    config = config or _DEFAULT_CONFIG
    params = Fs[0].params
    degree = Fs[0].degree
    xo = _cheb_machinery(params.m, 4 * degree)[0]
    limit = _constants.gamma_cdf(xo, params)
    sup_errors = [float(np.max(np.abs(F(xo) - limit))) for F in Fs]
    ratios = [
        sup_errors[k + 1] / sup_errors[k] if sup_errors[k] > 0 else math.inf
        for k in range(len(sup_errors) - 1)
    ]
    if f0 is None:
        dF = Fs[0].derivative()
        f0 = Fs[0].with_values((1.0 + params.theta * Fs[0].nodes) * dF.values)
    ms = []
    cur = f0
    for k in range(len(Fs)):
        ms.append(float(np.max(np.abs(cur.derivative()(xo)))))
        if k + 1 < len(Fs):
            cur = apply_U(cur, config)
    q_ref = _constants.contraction_q(params, 1e-10)
    return DecayReport(
        sup_errors=tuple(sup_errors),
        ratios=tuple(ratios),
        lipschitz_M=tuple(ms),
        q_reference=q_ref,
        degree=degree,
    )


# ---------------------------------------------------------------------------
# seminorms
# ---------------------------------------------------------------------------


def variation(f, params: ThetaParams | None = None, assume_monotone: bool = False, refinements=(1, 2, 4, 8)) -> float:
    """Total variation on [0, theta].

    For monotone f this is |f(theta) - f(0)| exactly.  Otherwise partition
    sums over successively refined Chebyshev grids give a lower bound
    that is non-decreasing under refinement; the maximum over
    ``refinements`` is returned.
    """
    if isinstance(f, GridFunction):
        params = f.params
        base = max(f.degree, 64)
    else:
        if params is None:
            raise ValueError("params required for a bare callable")
        base = 256
    if assume_monotone:
        ends = np.asarray(f(np.array([0.0, params.theta])), dtype=float)
        return float(abs(ends[1] - ends[0]))
    best = 0.0
    for r in refinements:
        xs = _cheb_machinery(params.m, r * base)[0]
        vals = np.asarray(f(xs), dtype=float)
        best = max(best, float(np.sum(np.abs(np.diff(vals)))))
    return best


def lipschitz_seminorm(f: GridFunction, oversample: int = 4) -> float:
    """Best Lipschitz constant, estimated as max|f'| by spectral differentiation."""
    xo = _cheb_machinery(f.params.m, oversample * f.degree)[0]
    return float(np.max(np.abs(f.derivative()(xo))))


# ---------------------------------------------------------------------------
# measure transport
# ---------------------------------------------------------------------------


def integrate_gamma(fn, a: float, b: float, params: ThetaParams, npts: int = 200) -> float:
    """Integral of fn over [a, b] against the invariant measure."""
    if not (-1e-12 <= a <= b <= params.theta + 1e-12):
        raise DomainError("integration interval outside [0, theta]")
    y, w = np.polynomial.legendre.leggauss(npts)
    xs = (a + b) / 2.0 + (b - a) / 2.0 * y
    th = params.theta
    dens = th / ((1.0 + th * xs) * params.log_normalizer)
    vals = np.asarray(fn(np.clip(xs, 0.0, th)), dtype=float)
    return float((b - a) / 2.0 * np.sum(w * vals * dens))


def pullback_measure(
    interval,
    n: int,
    h,
    params: ThetaParams,
    config: OperatorConfig | None = None,
) -> float:
    """Mass the map pulls back into ``interval`` after n steps.

    ``h`` is the starting density with respect to normalized Lebesgue
    measure (GridFunction, callable, or None for uniform).  The density
    is converted to its Radon-Nikodym derivative against the invariant
    measure, pushed with U^n, and integrated over the interval.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    config = config or _DEFAULT_CONFIG
    a, b = interval
    if h is None:
        h = GridFunction.from_callable(lambda x: np.ones_like(x), params, config.degree)
    elif not isinstance(h, GridFunction):
        h = GridFunction.from_callable(h, params, config.degree)
    if np.any(h.values < 0.0):
        raise DomainError("density must be nonnegative")
    th = params.theta
    L = params.log_normalizer
    f = h.with_values(h.values * (1.0 + th * h.nodes) * L * params.m)
    for _ in range(n):
        f = apply_U(f, config)
    return integrate_gamma(f, float(a), float(b), params)
