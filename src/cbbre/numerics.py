"""Quadrature building blocks, and the confluent kernel U(a, 1/2, w).

Four things live here because several modules need them:

* uniform lattices (`_lattice`), on which every quadrature of the package
  is the trapezoid rule in a log variable,
* the row blocks of every row sweep (`_row_blocks`), whose temporaries hold
  at most ``_ROW_BUDGET`` float64 elements, and the kernel sums on them
  (`_row_sums`),
* a fast vectorized confluent kernel ``U(a, 1/2, w)`` for every
  ``0 < a <= 100`` (`u_half`), together with the cancellation-free difference
  ``U(a,1/2,w) - U(a,1/2,0)`` (`u_half_diff`) that the oscillatory density
  integrals require at tiny arguments; the density of 1/(2 I_nu^(eta)) and
  phi_eta both reduce to it with a = (eta+1)/2,
* one cached rule for every Gamma expectation ``E[f(G)]``, ``G ~ Gamma(shape)``
  (`_gamma_rule`): a lattice in log x that keeps the mass near zero as
  one node; `gamma_power_expectation` is a weighted sum on it, and
  so is the Laplace transform ``E[exp(-q * G^power)]`` for an array of q
  (`_gamma_laplace_rows`, placed by `_peak_shape` at the largest q for
  negative powers, exactly 1 at q = 0), whose one-point case is
  `gamma_power_laplace`; the row sweeps of other modules sum on it too.

The package needs numpy only: Gamma and ln Gamma come from `math`.

The confluent kernel has three zones in w: the Kummer connection series
below ``min(0.45, 1.8/a)``, a piecewise polynomial of log U in log w,
interpolated at Chebyshev points (built once per ``a`` from a
Laplace-integral lattice), in the middle, and the divergent 2F0 asymptotic
series from ``60 + 8 a^2`` on.  Each call splits its points into
the zones once.  Both series stop at the terms each band of ``w`` needs
(`_power_sums`): most points need no term or one, and two comparisons
against the first two cuts settle them; only the rest are sorted and
grouped by their term count.  Every point sums its own terms in ascending
order, so no layout, order or block size of the points changes a value.
Accuracy is ~1e-13 relative.  An ``a`` outside (0, 100], or a negative or
NaN argument, raises `ParameterError`.
"""
from __future__ import annotations

import functools
import math

import numpy as np

from .errors import ParameterError

__all__ = [
    "u_half",
    "u_half_diff",
    "has_fast_kernel",
    "gamma_power_laplace",
    "gamma_power_expectation",
]

SQRT_PI = np.sqrt(np.pi)

# ---------------------------------------------------------------------------
# Lattices and row sweeps
# ---------------------------------------------------------------------------


def _lattice(lo: float, hi: float, h: float):
    """lo, lo + h, lo + 2h, ... up to the first node at or past hi."""
    return lo + h * np.arange(math.ceil((hi - lo) / h) + 1)


#: float64 elements (512 KiB) in one (rows x columns) temporary of a row
#: sweep.  glibc maps a block this large afresh, and faults it in anew, until
#: an earlier free of a larger block has raised its mmap threshold; then it
#: reuses heap memory.  Measured on `my_density_grid` at 3,000 points:
#: ~51 ms without such a free, 20-30 ms after one; budgets of 1 << 13 to
#: 1 << 15 took 50-60 ms, as their freed heap tops go back to the system too
_ROW_BUDGET = 1 << 16


def _row_blocks(n_rows: int, n_cols: int, share: int = 1):
    """Slices of consecutive rows, each block of n_cols columns within
    `_ROW_BUDGET` / ``share`` elements (one row at least), ``share`` being the
    number of threads that sweep at once.  Callers reduce every row on its
    own, so no budget changes a value."""
    step = max(1, _ROW_BUDGET // share // max(n_cols, 1))
    return [slice(i, min(i + step, n_rows)) for i in range(0, n_rows, step)]


def _row_sums(block, x, w, noise: bool = False):
    """sum_j block(x)[i, j] w[j] for each point x[i], one row block at a time
    (einsum sums each row alike for any row count; a BLAS product does not);
    ``noise`` adds sum_j |block(x)[i, j] w[j]|, its cancellation scale, as a second row."""
    out = np.empty((1 + noise, len(x)))
    for rows in _row_blocks(len(x), w.size):
        B = block(x[rows])
        out[0, rows] = np.einsum("ij,j->i", B, w)
        if noise:
            out[1, rows] = np.einsum("ij,j->i", np.abs(B, out=B), np.abs(w))
    return out if noise else out[0]


# ---------------------------------------------------------------------------
# Confluent hypergeometric kernel U(a, 1/2, w)
# ---------------------------------------------------------------------------

_KERNEL_MAX_A = 100.0
_SERIES_MAX_W = 0.45  # Kummer series below min(this, 1.8/a), fitted log U above
_FIT_PANEL = 0.25     # panel width in log w of the piecewise fit
_FIT_DEGREE = 8
_N_TERMS = 40         # terms held per series; either zone needs at most 18
_TERM_EPS = 1e-17     # a series term below this share of the value is dropped
_KERNEL_CACHE: dict[float, "_Kernel"] = {}


def _wlim(a: float) -> float:
    # start of the asymptotic zone: the 2F0 terms fall below _TERM_EPS
    # within _N_TERMS there
    return 60.0 + 8.0 * a * a


class _Kernel:
    """Everything U(a, 1/2, .) needs for one a: the term coefficients and
    band cuts of both series, and the piecewise fit between them."""

    def __init__(self, a: float):
        self.a = a
        k = np.arange(1, _N_TERMS + 1)
        self.u0 = SQRT_PI / math.gamma(a + 0.5)
        self.u1 = 2.0 * SQRT_PI / math.gamma(a)
        # Kummer connection formula (DLMF 13.2.42) at b = 1/2:
        #   U - u0 = u0 sum_k c1_k w^k - u1 sqrt(w) (1 + sum_k c2_k w^k),
        # and |U - u0| >= u1 sqrt(w)/3 up to w ~ 2.0/a (measured with mpmath
        # at a = 2 ... 100), so below series_max term k is needed only
        # where w exceeds kummer_cuts[k-1]
        self.series_max = min(_SERIES_MAX_W, 1.8 / a)
        self.c1 = np.cumprod((a + k - 1.0) / ((k - 0.5) * k))
        self.c2 = np.cumprod((a + k - 0.5) / ((k + 0.5) * k))
        tol = _TERM_EPS / 3.0
        cuts = np.minimum((tol * self.u1 / (self.u0 * self.c1)) ** (1.0 / (k - 0.5)),
                          (tol / self.c2) ** (1.0 / k))
        self.kummer_cuts = np.maximum.accumulate(cuts)
        # asymptotic 2F0(a, a+1/2;; -1/w): term k is (-1)^k d_k / w^k and is
        # needed only where w is below a cut that falls with k; negated, the
        # cuts rise with k and term k is needed where -w exceeds asym_cuts[k-1]
        self.d = np.cumprod((a + k - 1.0) * (a + k - 0.5) / k)
        self.asym_cuts = -np.minimum.accumulate((self.d / _TERM_EPS) ** (1.0 / k))
        self.poly = None  # the fit is built on first use

    def _fit(self):
        # log(w^a U) in u = log w on equal panels between the series and the
        # asymptotic zone, from the Laplace-integral quadrature; each panel
        # holds the monomial coefficients of its interpolant at the
        # Chebyshev points of the local variable t in [-1, 1]
        lo, hi = np.log(self.series_max), np.log(_wlim(self.a))
        n = int(np.ceil((hi - lo) / _FIT_PANEL))
        h = (hi - lo) / n
        x = np.cos(np.pi * (np.arange(_FIT_DEGREE + 1) + 0.5) / (_FIT_DEGREE + 1))
        u = lo + h * (np.arange(n)[:, None] + 0.5 * (x + 1.0))
        f = _log_u_quad(self.a, np.exp(u.ravel())) + self.a * u.ravel()
        self.poly = np.polynomial.polynomial.polyfit(x, f.reshape(n, -1).T, _FIT_DEGREE)
        self.fit_lo, self.fit_scale, self.n_panels = lo, 1.0 / h, n

    def fitted(self, w):
        if self.poly is None:
            self._fit()
        u = np.log(w)
        s = (u - self.fit_lo) * self.fit_scale
        idx = np.minimum(s.astype(np.intp), self.n_panels - 1)
        t = 2.0 * (s - idx) - 1.0
        acc = self.poly[-1][idx]
        for p in self.poly[-2::-1]:
            acc *= t
            acc += p[idx]
        return np.exp(acc - self.a * u)

    def kummer_diff(self, w):
        # U(a,1/2,w) - u0 = u0 m1 - u1 sqrt(w) (1 + m2), in place
        m1, m2 = _power_sums(w, w, self.kummer_cuts, (self.c1, self.c2))
        m1 *= self.u0
        r = np.sqrt(w)
        r *= self.u1
        m2 += 1.0
        r *= m2
        m1 -= r
        return m1

    def asymptotic(self, w):
        # w^-a 2F0(a, a+1/2;; -1/w) = w^-a (1 + s), in place
        (s,) = _power_sums(-1.0 / w, -w, self.asym_cuts, (self.d,))
        r = np.log(w)
        r *= -self.a
        np.exp(r, out=r)
        s += 1.0
        r *= s
        return r

    def values(self, w, diff: bool):
        """U(a, 1/2, w), or U - u0 when ``diff``, each zone evaluated once."""
        out = np.empty_like(w)
        small = w < self.series_max
        big = w >= _wlim(self.a)
        if small.any():
            v = self.kummer_diff(w[small])
            if not diff:
                v += self.u0
            out[small] = v
        for zone, evaluate in ((~(small | big), self.fitted), (big, self.asymptotic)):
            if zone.any():
                v = evaluate(w[zone])
                if diff:
                    v -= self.u0
                out[zone] = v
        return out


def _power_sums(x, key, cuts, coefs):
    """sum_{k=1}^{n_i} c[k-1] x_i^k for each coefficient row c, where point i
    needs the n_i terms whose ascending ``cuts`` lie below ``key[i]``.

    Most points need no term or one, and two comparisons settle them: 0,
    or c[0] x_i.  The rest are grouped by the number of terms they need, so
    term k runs only on the points that need it rather than on all of them
    under a mask, and each row of sums is scattered back on its own.  Every
    point sums its own terms in ascending order, so no layout or block size
    changes a value.
    """
    out = np.zeros((len(coefs), x.size))
    some = key > cuts[0]
    many = key > cuts[1]
    one = some ^ many  # cuts ascend, so many implies some
    if one.any():
        x1 = x[one]
        for row, c in zip(out, coefs):
            row[one] = c[0] * x1
    pos = np.flatnonzero(many)
    if pos.size:
        # small keys: numpy sorts them in linear time
        n_terms = np.searchsorted(cuts, key[pos]).astype(np.int8)
        order = np.argsort(n_terms, kind="stable")
        pos = pos[order]
        starts = np.searchsorted(n_terms[order], np.arange(1, n_terms.max() + 1))
        xs = x[pos]
        p = np.ones_like(xs)
        sums = np.zeros((len(coefs), xs.size))
        for k, s in enumerate(starts):
            p[s:] *= xs[s:]
            for row, c in zip(sums, coefs):
                row[s:] += c[k] * p[s:]
        for row, s in zip(out, sums):
            row[pos] = s
    return out


def _log_u_quad(a, w):
    # log U(a, 1/2, w) from the Laplace integral of DLMF 13.4.4 in u = log t,
    # by the trapezoid rule on u = -48, -48 + h, ..., 8, the step
    # h = 0.2 / max(1, sqrt(a/4)) narrowing with the integrand's peak; below
    # u = -48 the integrand is e^(a u) to double precision, and the lattice's
    # own nodes there sum to h e^(a(lo - h)) / (1 - e^(-a h)).  Each row's
    # largest term is factored out of its sum, so no term underflows
    lo, h = -48.0, 0.2 / max(1.0, math.sqrt(a / 4.0))
    u = _lattice(lo, 8.0, h)
    t = np.exp(u)
    base = a * u - np.log1p(t) * (a + 0.5)
    tail = a * (lo - h) - math.log(-math.expm1(-a * h))
    out = np.empty(len(w))
    for rows in _row_blocks(len(w), t.size):
        E = np.outer(w[rows], t)
        np.subtract(base, E, out=E)
        peak = E.max(axis=1)
        E -= peak[:, None]
        np.exp(E, out=E)
        out[rows] = peak + np.log(E.sum(axis=1) + np.exp(tail - peak))
    return out + (math.log(h) - math.lgamma(a))


def _kernel(a: float) -> _Kernel:
    a = float(a)
    if a not in _KERNEL_CACHE:
        if not has_fast_kernel(a):
            raise ParameterError(f"U(a, 1/2, w) needs 0 < a <= {_KERNEL_MAX_A:g}, got a = {a!r}")
        _KERNEL_CACHE[a] = _Kernel(a)
    return _KERNEL_CACHE[a]


def has_fast_kernel(a: float) -> bool:
    """True when `u_half` and `u_half_diff` take this a: 0 < a <= 100."""
    return 0.0 < a <= _KERNEL_MAX_A


def _kernel_argument(w):
    """w as a float array, refused unless every value is >= 0 (NaN is not)."""
    w = np.asarray(w, float)
    if w.size and not w.min() >= 0.0:  # one reduction; NaN propagates to it
        bad = float(w[~(w >= 0.0)].flat[0])
        raise ParameterError(f"U(a, 1/2, w) needs w >= 0, got w = {bad!r}")
    return w


def u_half(a: float, w):
    """U(a, 1/2, w) for 0 < a <= 100 and w >= 0, vectorized.

    The value is, by band of w: the Kummer connection series below
    w = min(0.45, 1.8/a), a piecewise polynomial fit of log U in log w at
    Chebyshev points (built once per ``a`` from the Laplace integral) up to
    60 + 8a^2, and the 2F0 asymptotic series beyond.  Each series stops at
    the terms its band of w needs.  The relative error is below ~1e-13
    wherever U is a normal double.  An ``a`` outside (0, 100], or a negative
    or NaN w, raises ParameterError.
    """
    w = _kernel_argument(w)
    return _kernel(a).values(w, diff=False)


def u_half_diff(a: float, w):
    """U(a,1/2,w) - U(a,1/2,0), full relative accuracy down to w -> 0.

    Direct subtraction is catastrophic for small w (both terms approach
    sqrt(pi)/Gamma(a+1/2)); the Kummer connection formula gives the
    difference as an explicit series there.  The range of ``a`` and of w
    is that of `u_half`.
    """
    return _kernel(a).values(_kernel_argument(w), diff=True)


# ---------------------------------------------------------------------------
# Gamma expectations on one lattice rule
# ---------------------------------------------------------------------------

_GAMMA_PEAK_EPS = 1e-16  # the weight at the first node, relative to its peak
_GAMMA_T_MIN = -700.0    # x = e^t stays a normal double above this
_GAMMA_STEP = 0.1        # lattice step in log x, shrunk for high powers and shapes


def _gamma_lattice(shape: float, power: float = 1.0):
    """Nodes x and unnormalized weights w of the trapezoid rule in
    tau = log(x / shape) for e^(shape tau - shape expm1(tau)) dtau, the Gamma
    weight in log x scaled to peak at 1; sum(w) ~ Gamma(shape) e^shape shape^-shape.

    The step, 0.1 / max(1, |power|/2, sqrt(shape)/3), resolves f of x^power
    and the peak's width 1/sqrt(shape).  The lattice runs from where the
    weight is below 1e-16 (or x = e^-700) to x = 60 + 12 shape; below, the
    weight is at most e^(shape (tau + 1)), exactly so where mass lies there,
    and those lattice nodes, a geometric series, are one more node.
    """
    h = _GAMMA_STEP / max(1.0, 0.5 * abs(power), math.sqrt(shape) / 3.0)
    lo = max(math.log(_GAMMA_PEAK_EPS) / shape - 1.0, _GAMMA_T_MIN - math.log(shape))
    tau = _lattice(lo, math.log(60.0 / shape + 12.0), h)
    f = np.exp(shape * tau - shape * np.expm1(tau))
    x = shape * np.exp(np.concatenate([[lo - h], tau]))
    return x, h * np.concatenate([[f[0] / math.expm1(shape * h)], f])


@functools.lru_cache(maxsize=64)
def _gamma_rule(shape: float, power: float = 1.0):
    """Read-only nodes x and weights w, sum(w * f(x)) ~ E[f(G)], G ~ Gamma(shape):
    the weights of `_gamma_lattice` divided by their sum, so that no Gamma
    function enters the rule."""
    x, w = _gamma_lattice(shape, power)
    w /= w.sum()
    x.flags.writeable = w.flags.writeable = False
    return x, w


def gamma_power_expectation(func, shape: float, power: float = 1.0) -> float:
    """E[func(G)] for G ~ Gamma(shape, rate 1) on `_gamma_rule(shape, power)`,
    where func is a function of G^power (|power| sets the lattice step)."""
    if shape <= 0:
        raise ValueError("Gamma shape must be positive")
    x, w = _gamma_rule(shape, power)
    with np.errstate(over="ignore"):  # G^p = inf at the smallest nodes when p < 0
        return float(w @ func(x))


def _peak_shape(shape: float, power: float, theta: float):
    """Shape s' and step power of the `_gamma_rule` for f(x) e^(-theta x^power)
    against G ~ Gamma(shape), theta the largest one; the caller reweights,
    E_s[f(G)] = Gamma(s')/Gamma(s) E_s'[f(G) G^(s-s')].

    Positive powers keep (shape, power).  For power < 0 the integrand peaks
    at x* = (|power| theta)^(1/(1+|power|)) with width 1/sqrt((1+|power|) x*)
    in log x: s' = x*/4 takes the rule's reach (60 + 12 s') past it, and the
    step narrows with the width.
    """
    if power >= 0:
        return shape, power
    peak = (-power * theta) ** (1.0 / (1.0 - power))
    return max(shape, 0.25 * peak), max(-power, 2.0 * math.sqrt((1.0 - power) * peak))


def _gamma_laplace_rows(q, shape: float, power: float):
    """E[exp(-q_i G**power)] for each q_i >= 0 of an array, G ~ Gamma(shape).

    One rule serves every row: `_peak_shape` places it at the largest q,
    and the reweighting G^(shape-s') stays inside the exponent, so no
    factor overflows at the smallest nodes.  Rows with q_i = 0 are exactly 1.
    """
    q = np.asarray(q, float)
    out = np.ones(q.shape)
    pos = q > 0
    if not pos.any():
        return out
    if shape <= 0:
        raise ValueError("Gamma shape must be positive")
    s, p = _peak_shape(shape, power, float(q.max()))
    x, w = _gamma_rule(s, p)
    lead = math.lgamma(s) - math.lgamma(shape) + (shape - s) * np.log(x)  # 0 when s = shape
    with np.errstate(over="ignore"):  # G^p = inf at the smallest nodes when p < 0
        xp = x**power
    out[pos] = _row_sums(lambda qq: np.exp(lead - np.outer(qq, xp)), q[pos], w)
    return out


def gamma_power_laplace(theta: float, shape: float, power: float):
    """E[exp(-theta * G**power)] for G ~ Gamma(shape, rate 1).

    This is the canonical numerical object behind the formal series
    sum_n (-theta)^n Gamma(n*power + shape)/(n! Gamma(shape)); the series
    itself diverges whenever |power| > 1 and is offered separately as a
    diagnostic only.  It is the one-point case of `_gamma_laplace_rows`.
    """
    if theta < 0:
        raise ValueError("theta must be nonnegative")
    return float(_gamma_laplace_rows(np.array([theta]), shape, power)[0])


def gamma_power_series(theta: float, shape: float, power: float, n_terms: int = 20):
    """Truncated formal series sum (-theta)^n Gamma(n*power+shape)/(n! Gamma(shape)).

    Diverges factorially for power > 1; returned with the index of the
    smallest term so callers can judge how asymptotic the truncation is.
    A term at a pole of Gamma, or a power of theta or ln Gamma past double
    range, raises ParameterError.
    """
    try:
        lg = [math.lgamma(n * power + shape) - math.lgamma(shape) - math.lgamma(n + 1.0)
              for n in range(n_terms)]
        powers = [(-theta) ** n for n in range(n_terms)]
    except (ValueError, OverflowError):
        raise ParameterError(f"the Gamma series at theta {theta}, shape {shape}, power "
                             f"{power} meets a pole of Gamma or leaves double range") from None
    terms = np.array(powers) * np.exp(lg)
    k_min = int(np.argmin(np.abs(terms)[1:]) + 1) if n_terms > 1 else 0
    return float(np.sum(terms[: k_min + 1])), k_min
