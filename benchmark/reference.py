"""Reference values for the benchmark's checks, computed with mpmath alone.

This script imports nothing from ``cbbre``: every value comes from
``mpmath.hyperu`` and ``mpmath.quad`` at 30 significant digits, so the
benchmark can hold the package's fast float64 kernels against numbers
that were made apart from them.  It writes ``reference.json`` beside
itself:

    python3 benchmark/reference.py

Contents (all at sigma = 1, beta = 1, c = 1):

* ``kernel``: U(a, 1/2, w) at drifts a with no half-integer 2a;
* ``density``: the density of 1/(2 I_nu^(eta)) at eta = 0.5, nu = 2.5 on
  a fixed point set (Matsumoto-Yor form, evaluated against U(a,1/2,.)
  with a = (eta+1)/2);
* ``phi_eta``: phi_eta(v) at eta = 0.5 through DLMF 13.4.4, which turns
  the inner Gamma integral into Gamma(a) w^(-1/2) U(a, 1/2, w);
* ``weakly_constant``: the weakly subcritical survival constant
  8/sigma^3 int_0^inf (1 - e^(-k z v)) phi_eta(v) dv at eta = 0.5,
  k = 1/2, which is also the Q-process weight U(z) of that regime.  The
  v-integral is done in closed form (DLMF 13.10.7, a hypergeometric 2F1),
  which leaves one integral over xi.

Takes about a minute on one core.
"""
from __future__ import annotations

import json
from pathlib import Path

import mpmath as mp

mp.mp.dps = 30

KERNEL_A = (0.3, 0.75, 1.35, 2.2, 3.7)
KERNEL_W = (1e-4, 0.01, 0.3, 2.0, 7.5, 25.0, 90.0, 400.0, 5e3)

DENSITY_NU = 2.5
DENSITY_ETA = 0.5
DENSITY_N = 64
DENSITY_LO, DENSITY_HI = 0.01, 6.0

PHI_ETA = 0.5
PHI_V = (1e-3, 0.05, 0.2, 0.5, 1.0, 3.0, 10.0)

WEAKLY_Z = (1.0, 2.0)
WEAKLY_K = 0.5

# a quadrature error estimate above this share of the value is a failure
REL_ERR_MAX = mp.mpf("1e-12")

# break points for the xi integrals, whose integrands decay like
# xi e^(-eta xi): beyond the last one less than 1e-19 is left at eta = 0.5
XI_POINTS = [0, 0.5, 1, 2, 4, 8, 16, 32, 64, 100]


def _quad(f, points):
    val, err = mp.quad(f, points, error=True, maxdegree=10)
    if abs(err) > REL_ERR_MAX * max(abs(val), mp.mpf("1e-300")):
        raise ArithmeticError(f"quadrature error {err} on value {val}")
    return val


def density_points():
    """The fixed point set of the generic-drift density check."""
    return [float(mp.exp(u)) for u in mp.linspace(mp.log(DENSITY_LO),
                                                  mp.log(DENSITY_HI), DENSITY_N)]


def density(x, nu, eta):
    """p_{nu,eta}(x), the density of 1/(2 I_nu^(eta)) for eta > -1."""
    x, nu, eta = mp.mpf(x), mp.mpf(nu), mp.mpf(eta)
    a = (eta + 1) / 2
    u0 = mp.sqrt(mp.pi) / mp.gamma(a + mp.mpf(0.5))

    def f(xi):
        return (mp.exp(-xi**2 / (2 * nu)) * mp.sinh(xi) * mp.sin(mp.pi * xi / nu)
                * (mp.hyperu(a, 0.5, x * mp.cosh(xi) ** 2) - u0))

    # the Gaussian factor is below 1e-70 beyond xi = 20 nu
    J = _quad(f, [nu * k for k in range(21)])
    log_c = (-eta**2 * nu / 2 + mp.pi**2 / (2 * nu) + mp.loggamma((eta + 2) / 2)
             + mp.loggamma(a) - mp.log(mp.sqrt(2) * mp.pi**2 * mp.sqrt(nu)))
    return mp.exp(log_c - x - a * mp.log(x)) * J


def _phi_pref(eta):
    a = (eta + 1) / 2
    return mp.gamma((eta + 2) / 2) * mp.gamma(a) / (mp.sqrt(2) * mp.pi)


def phi_eta(v, eta):
    """phi_eta(v) = Gamma((eta+2)/2) Gamma(a)/(sqrt(2) pi) e^(-v) v^(-a)
    int_0^inf xi sinh(xi) U(a, 1/2, v cosh^2 xi) dxi, a = (eta+1)/2
    (DLMF 13.4.4 applied to the Gamma integral of its definition)."""
    v, eta = mp.mpf(v), mp.mpf(eta)
    a = (eta + 1) / 2
    inner = _quad(lambda xi: xi * mp.sinh(xi) * mp.hyperu(a, 0.5, v * mp.cosh(xi) ** 2),
                  XI_POINTS)
    return _phi_pref(eta) * mp.exp(-v) * v ** (-a) * inner


def weakly_constant(z, k, eta):
    """8 int_0^inf (1 - e^(-k z v)) phi_eta(v) dv (sigma = beta = 1).

    With b = 1 - a, DLMF 13.10.7 gives
    int_0^inf e^(-s v) v^(b-1) U(a, 1/2, c2 v) dv = c2^(-b) F(s/c2),
    F(x) = Gamma(b) Gamma(b+1/2)/Gamma(3/2) 2F1(b, b+1/2; 3/2; 1-x),
    so only the xi integral is left to quadrature.
    """
    z, k, eta = mp.mpf(z), mp.mpf(k), mp.mpf(eta)
    a = (eta + 1) / 2
    b = 1 - a
    norm = mp.gamma(b) * mp.gamma(b + mp.mpf(0.5)) / mp.gamma(mp.mpf(1.5))

    def F(x):
        return norm * mp.hyp2f1(b, b + mp.mpf(0.5), mp.mpf(1.5), 1 - x)

    def f(xi):
        # the difference of F cancels to ~e^(-2 eta xi): carry extra digits
        with mp.workdps(mp.mp.dps + int(xi)):
            c2 = mp.cosh(xi) ** 2
            return xi * mp.sinh(xi) * c2 ** (-b) * (F(1 / c2) - F((1 + k * z) / c2))

    return 8 * _phi_pref(eta) * _quad(f, XI_POINTS)


def main():
    ref = {
        "generator": "benchmark/reference.py",
        "mpmath": mp.__version__,
        "dps": mp.mp.dps,
        "kernel": [{"a": a, "w": w, "u": float(mp.hyperu(a, 0.5, w))}
                   for a in KERNEL_A for w in KERNEL_W],
        "density": {"nu": DENSITY_NU, "eta": DENSITY_ETA,
                    "x": density_points(),
                    "p": [float(density(x, DENSITY_NU, DENSITY_ETA))
                          for x in density_points()]},
        "phi_eta": {"eta": PHI_ETA, "v": list(PHI_V),
                    "phi": [float(phi_eta(v, PHI_ETA)) for v in PHI_V]},
        "weakly_constant": {"eta": PHI_ETA, "k": WEAKLY_K, "z": list(WEAKLY_Z),
                            "constant": [float(weakly_constant(z, WEAKLY_K, PHI_ETA))
                                         for z in WEAKLY_Z]},
    }
    out = Path(__file__).with_name("reference.json")
    out.write_text(json.dumps(ref, indent=1) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
