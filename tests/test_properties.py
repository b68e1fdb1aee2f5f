"""Property-based oracles: randomized parameters against closed forms.

hypothesis runs derandomized, without an example database and with a fixed
number of examples, so every run draws the same cases.
"""
from hypothesis import given, settings
from hypothesis import strategies as st

from cbbre.environment import sample_env_path
from cbbre.flow import closed_form_feller, closed_form_neveu, closed_form_stable, solve_backward
from cbbre.mechanisms import Feller, Neveu, Stable

ORACLE = settings(derandomize=True, database=None, max_examples=150, deadline=None)

T, N_STEPS = 1.0, 200

alphas = st.floats(-1.0, 1.0)
lams = st.floats(0.01, 20.0)
sigmas = st.floats(0.0, 1.5)
seeds = st.integers(0, 10**6)
flavors = st.sampled_from(["K", "K0"])


def _env(sigma, alpha, seed, flavor):
    # K has drift -sigma^2/2 and K0 = K + alpha t drift alpha - sigma^2/2
    drift = -0.5 * sigma**2 + (alpha if flavor == "K0" else 0.0)
    return sample_env_path(sigma, drift, T, N_STEPS, seed=seed, flavor=flavor)


def _assert_solver_matches(mech, lam, env, want):
    got = solve_backward(mech, lam, T, env).initial
    assert abs(got - want) <= 1e-8 * max(1.0, abs(want)), (got, want)


@ORACLE
@given(alpha=alphas, gamma2=st.floats(0.05, 2.0), lam=lams, sigma=sigmas, seed=seeds,
       flavor=flavors)
def test_feller_solver_matches_closed_form(alpha, gamma2, lam, sigma, seed, flavor):
    env = _env(sigma, alpha, seed, flavor)
    _assert_solver_matches(Feller(alpha, gamma2), lam, env,
                           closed_form_feller(lam, T, env, alpha, gamma2))


@ORACLE
@given(alpha=alphas, size=st.floats(0.1, 1.0), positive=st.booleans(),
       c=st.floats(0.2, 2.0), lam=lams, sigma=sigmas, seed=seeds, flavor=flavors)
def test_stable_solver_matches_closed_form(alpha, size, positive, c, lam, sigma, seed,
                                           flavor):
    # beta in [0.1, 1] or [-0.9, -0.1]; an infinite-mean (beta < 0) mechanism
    # conditions on K only
    beta = size if positive else -min(size, 0.9)
    if beta < 0:
        c, flavor = -c, "K"
    env = _env(sigma, alpha, seed, flavor)
    _assert_solver_matches(Stable(alpha, beta, c), lam, env,
                           closed_form_stable(lam, T, env, beta, c, alpha))


@ORACLE
@given(lam=lams, sigma=sigmas, seed=seeds)
def test_neveu_solver_matches_closed_form(lam, sigma, seed):
    env = _env(sigma, 0.0, seed, "K")
    _assert_solver_matches(Neveu(), lam, env, closed_form_neveu(lam, T, env))

