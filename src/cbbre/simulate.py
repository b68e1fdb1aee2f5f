"""Pathwise simulation with absorption and explosion detection.

Two schemes.  Where the mechanism has an exact transition law given the
environment (``Mechanism.exact_step``: Feller, with or without linear
immigration, ``Stable`` at beta = 1, which is Feller, and Neveu), the exact
sampler draws Z from it at the end of each record interval, so no state is
stepped between record times; Feller absorption times are exact, located
on the grid.  The environment is drawn on the simulation grid from the
chunk's stream, one record interval at a time in the row blocks of
`numerics`; the demographic variates come from a
second stream (the chunk's Philox stream jumped ahead by 2^128 draws), one
call over the chunk's paths per variate and interval, so a seed draws one
environment whatever the demography.  No block size or worker count changes
a value, and no (paths x steps) array is held.  ``"auto"`` takes this
scheme wherever it applies, that is, with no nu-immigration jumps and no
``driving`` noise, and Euler elsewhere.

Euler (``"euler-full-truncation"``) is explicit with full truncation: all
coefficients are evaluated at max(Z, 0), so states may briefly dip below
zero but are clamped back each step.  The mechanism supplies the SDE
coefficients (``Mechanism.sde_coefficients``) and, for the branching jumps
and the immigration measure alike, a jump law whose ``increment(rng, mass,
dt)`` draws one step's jumps for every path.  The stable family (``Stable``
and ``StableImmigration``) has a ``StableLaw``: with the state frozen, a
step's jumps sum to one exact stable variable per path, drawn whole.  The
other laws (Neveu, ``GeneralCB``, a tabulated immigration measure) are
``JumpLaw``s thinned at the size threshold ``eps_jump``: a Poisson count per
path, sizes from the law's sampler, then the law's drift (the mean of the
removed small jumps when the SDE does not compensate them, less the
compensator of the simulated ones when it does) and, for compensated small
jumps, a variance-matched Gaussian.  Record times must lie on the
simulation grid.

In both schemes the environment increments are drawn once per step and
shared between the state and the returned environment path, so formula
evaluators can be compared pathwise against the same realization.
"""
from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass

import numpy as np

from . import rng as _rng
from .environment import _increment_blocks
from .errors import ParameterError, UnsupportedMechanismError
from .mechanisms import ImmigrationMechanism, Mechanism

logger = logging.getLogger(__name__)

__all__ = [
    "SimConfig",
    "SimBatch",
    "simulate_cbbre_batch",
    "simulate_cbibre_batch",
    "martingale_diagnostics",
    "MartingaleReport",
]

EULER = "euler-full-truncation"
SCHEMES = ("auto", EULER)


@dataclass(frozen=True)
class SimConfig:
    """Simulation settings.

    ``scheme``: ``"auto"`` (the exact sampler where it applies, Euler
    elsewhere) or ``"euler-full-truncation"``.  ``eps_jump`` (the truncation
    of thinned jump laws; the stable family's increments are exact and
    ignore it), ``eps_abs`` (absorption level) and ``m_expl`` (explosion
    level) are Euler thresholds; the exact sampler ignores them: its zero is
    exact absorption, and a large state is a value, not an explosion.  The
    exact sampler makes one approximation: a Feller Poisson count whose mean
    exceeds 1e15 (numpy refuses means above ~9.2e18) is drawn from its
    normal approximation, rounded and at least 0, whose relative error,
    about mean^(-1/2), is at most 3.2e-8.
    """

    dt: float = 1e-3
    eps_jump: float = 1e-3
    eps_abs: float = 1e-10
    m_expl: float = 1e9
    scheme: str = "auto"
    seed: int = 0

    def __post_init__(self):
        if self.dt <= 0 or self.eps_jump <= 0:
            raise ParameterError("dt and eps_jump must be positive")
        if self.m_expl <= 0:
            raise ParameterError("explosion threshold must be positive")
        if self.scheme not in SCHEMES:
            raise ParameterError(f"unknown simulation scheme {self.scheme!r}; "
                                 f"the schemes are {', '.join(map(repr, SCHEMES))}")


@dataclass(frozen=True)
class SimBatch:
    """Simulated states recorded at ``times`` for many paths."""

    times: np.ndarray
    z: np.ndarray  # (n_paths, len(times)); inf marks exploded
    env_values: np.ndarray  # same shape: K (or K0) at times
    env_flavor: str
    t0: np.ndarray  # absorption times, nan if never absorbed
    t_inf: np.ndarray  # explosion times, nan if never exploded
    config: SimConfig
    scheme: str  # the scheme that ran: "exact" or "euler-full-truncation"

    @property
    def n_paths(self) -> int:
        return self.z.shape[0]


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------


_STEP_BLOCK = 8  # steps of driving noise transposed at a time


def _run_chunk(mech, sigma, z0, T, cfg, n, gen, record_idx, imm, scheme,
               driving=None):
    """n paths by ``scheme``: Z and the environment at the steps
    ``record_idx``, absorption and explosion times."""
    flavor, mean_growth = mech.sde_coefficients()[2:]
    k_drift = (0.0 if flavor == "K" else mean_growth) - 0.5 * sigma**2
    n_steps = int(round(T / cfg.dt))
    dt = T / n_steps
    absorbing = imm is None or imm.trivial
    z = np.full(n, float(z0))
    t0 = np.full(n, np.nan)
    t_inf = np.full(n, np.nan)
    if z0 == 0 and absorbing:
        t0[:] = 0.0
    if scheme == EULER:
        states = _euler_states(mech, sigma, z, cfg, gen, imm, dt, n_steps, k_drift,
                               absorbing, t0, t_inf, driving)
    else:
        stops = sorted(set(record_idx) - {0} | {n_steps})
        states = _exact_states(mech, sigma, z, gen, imm, dt, stops, k_drift, t0)
    z_rec = np.empty((n, len(record_idx)))
    k_rec = np.empty((n, len(record_idx)))
    rec_map = {idx: j for j, idx in enumerate(record_idx)}
    for step_i, z, k_env in itertools.chain([(0, z, 0.0)], states):
        if step_i in rec_map:
            j = rec_map[step_i]
            z_rec[:, j] = z
            k_rec[:, j] = k_env
    return z_rec, k_rec, t0, t_inf, flavor


def _exact_states(mech, sigma, z, gen, imm, dt, stops, k_drift, t0):
    """``(step, Z, K)`` at each of the steps ``stops`` by ``mech.exact_step``,
    absorption times into ``t0``.  The environment is drawn from ``gen`` one
    interval at a time, the demography from ``gen`` jumped ahead by 2^128."""
    d = 0.0 if imm is None else imm.d
    demo = np.random.Generator(gen.bit_generator.jumped())
    k_env = np.zeros(z.size)
    start = 0
    for stop in stops:
        env = _increment_blocks(gen, z.size, stop - start, k_drift, sigma, dt)
        z, dk, hit = mech.exact_step(z, env, dt, demo, d)
        if hit is not None:
            dead = hit > 0
            t0[dead] = (start + hit[dead]) * dt
        k_env = k_env + dk
        yield stop, z, k_env
        start = stop


def _euler_states(mech, sigma, z, cfg, gen, imm, dt, n_steps, k_drift, absorbing,
                  t0, t_inf, driving):
    """``(step, Z, K)`` after each Euler step, absorption and explosion times
    into ``t0`` and ``t_inf``."""
    alpha, gamma2 = mech.sde_coefficients()[:2]
    n = z.size
    sq_dt = math.sqrt(dt)
    jumps = mech.jump_law(cfg.eps_jump)
    imm_drift = 0.0 if absorbing else imm.d
    imm_jumps = None if absorbing or imm.nu is None else imm.nu.jump_law(cfg.eps_jump)
    per_path = np.ones(n)  # immigration arrives at the same rate on every path
    k_env = np.zeros(n)
    if driving is None:
        # bulk-drawn per chunk: per-step Generator calls dominate otherwise
        all_dB = gen.normal(0.0, sq_dt, (n, n_steps)) if gamma2 > 0 else None
        all_dBe = gen.normal(0.0, sq_dt, (n, n_steps))
    else:
        all_dB, all_dBe = driving
    # live: neither exploded nor (when zero absorbs) absorbed.  Paths only
    # ever leave it, so it is updated in place, and while every path is live
    # the masking below is skipped: it would leave every value unchanged
    live = np.isnan(t_inf) & np.isnan(t0)
    all_live = bool(live.all())
    for step_i in range(1, n_steps + 1):
        b = (step_i - 1) % _STEP_BLOCK
        if b == 0:
            # the draws are stored path by path; a block of steps is copied
            # step by step so that each step reads contiguous memory
            cols = slice(step_i - 1, step_i - 1 + _STEP_BLOCK)
            blk_Be = np.ascontiguousarray(all_dBe[:, cols].T)
            if gamma2 > 0:
                blk_B = np.ascontiguousarray(all_dB[:, cols].T)
        dBe = blk_Be[b]
        zp = np.maximum(z, 0.0)
        if not all_live:
            zp = np.where(live, zp, 0.0)  # frozen paths: no flow
        dz = alpha * zp * dt + sigma * zp * dBe
        if gamma2 > 0:
            dz = dz + np.sqrt(2.0 * gamma2 * zp) * blk_B[b]
        if jumps is not None:
            dz = dz + jumps.increment(gen, zp, dt)
        if imm_jumps is not None:
            dz = dz + imm_jumps.increment(gen, per_path, dt)
        dz = dz + imm_drift * dt
        z_new = np.maximum(z + dz, 0.0)
        if not all_live:
            z_new = np.where(live, z_new, z)
        k_env = k_env + k_drift * dt + sigma * dBe
        t_now = step_i * dt
        # NaN, +inf and values above the threshold all fail z <= m_expl
        boom = ~(z_new <= cfg.m_expl)
        if not all_live:
            boom &= live
        if boom.any():
            t_inf[boom] = t_now
            z_new[boom] = np.inf
            live &= ~boom
            all_live = False
        if absorbing:
            dead = z_new < cfg.eps_abs  # exploded paths sit at +inf
            if not all_live:
                dead &= live
            if dead.any():
                t0[dead] = t_now
                z_new[dead] = 0.0
                live &= ~dead
                all_live = False
        z = z_new
        yield step_i, z, k_env


def _resolve_scheme(mech, imm, cfg, driving) -> str:
    """The scheme that runs: the exact sampler unless ``cfg.scheme`` forces
    Euler or the run needs what only Euler draws."""
    if (cfg.scheme == EULER or mech.exact_step is None or driving is not None
            or (imm is not None and imm.nu is not None)):
        return EULER
    return "exact"


def _resolve_record(T, cfg, record_times):
    """Sorted step indices and times of ``record_times``, which must be
    distinct points of the simulation grid in [0, T]."""
    n_steps = int(round(T / cfg.dt))
    h = T / n_steps
    if record_times is None:
        idx = list(range(n_steps + 1))
    else:
        pos = np.asarray(record_times, float).ravel() / h
        near = np.rint(pos)
        if not (np.abs(pos - near) <= 1e-9).all():  # slack: 1e-9 of a step
            raise ParameterError(f"record times must be multiples of the step {h:.17g}")
        if ((near < 0) | (near > n_steps)).any():
            raise ParameterError(f"record times must lie in [0, {T:.17g}]")
        idx = sorted(int(i) for i in near)
        if len(set(idx)) < len(idx):
            raise ParameterError("record times must be distinct")
    times = np.array([i * h for i in idx])
    return idx, times


def simulate_cbbre_batch(mech: Mechanism, sigma: float, z0: float, T: float,
                         cfg: SimConfig, n_paths: int, record_times=None,
                         imm: ImmigrationMechanism | None = None,
                         chunk: int = 20000, driving=None,
                         workers: int = 1) -> SimBatch:
    """Simulate many CBBRE paths; record states at ``record_times``.

    ``cfg.scheme`` selects the exact sampler or Euler (see `SimConfig`);
    the batch records the one that ran.  ``record_times=None`` keeps the
    full grid (memory permitting); given times must be distinct grid points
    in [0, T].  With ``workers > 1`` chunks run on a thread pool; each chunk
    owns its RNG streams and reduction is in chunk order, so results are
    identical for any worker count.
    """
    if z0 < 0 or T <= 0:
        raise ParameterError("need z0 >= 0 and T > 0")
    if sigma < 0:
        raise ParameterError("sigma must be nonnegative")
    if imm is not None and not imm.trivial and mech.infinite_mean:
        raise UnsupportedMechanismError(
            "immigration requires a finite-mean branching mechanism"
        )
    record_idx, times = _resolve_record(T, cfg, record_times)
    scheme = _resolve_scheme(mech, imm, cfg, driving)
    flavor = mech.sde_coefficients()[2]
    if scheme == EULER:
        # Euler holds the chunk's (paths x steps) noise: bound its size
        n_steps = int(round(T / cfg.dt))
        chunk = max(1000, min(chunk, int(2.5e7 / max(n_steps, 1))))
    if driving is not None:
        gen = _rng.stream(cfg.seed, 1)
        z, k, t0, ti, flavor = _run_chunk(mech, sigma, z0, T, cfg,
                                          driving[0].shape[0], gen, record_idx,
                                          imm, scheme, driving)
        results = [(z, k, t0, ti)]
    else:
        chunks = _rng.chunk_streams(cfg.seed, n_paths, chunk)

        def work(args):
            gen, m = args
            z, k, t0, ti, _ = _run_chunk(mech, sigma, z0, T, cfg, m, gen, record_idx,
                                         imm, scheme)
            return z, k, t0, ti

        if workers > 1 and len(chunks) > 1:
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(work, chunks))  # fixed chunk order
        else:
            results = [work(c) for c in chunks]
    return SimBatch(times, np.vstack([r[0] for r in results]),
                    np.vstack([r[1] for r in results]), flavor,
                    np.concatenate([r[2] for r in results]),
                    np.concatenate([r[3] for r in results]), cfg, scheme)


def simulate_cbibre_batch(mech: Mechanism, imm: ImmigrationMechanism,
                          sigma: float, z0: float, T: float, cfg: SimConfig,
                          n_paths: int, record_times=None) -> SimBatch:
    """CBBRE plus immigration: zero is no longer absorbing."""
    return simulate_cbbre_batch(mech, sigma, z0, T, cfg, n_paths, record_times, imm=imm)


# ---------------------------------------------------------------------------
# Diagnostics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MartingaleReport:
    mean_ratio: float
    stderr: float
    supermartingale_ok: bool
    regression_r2: float
    p_w_zero: float
    w_tol: float
    n_exploded: int


def martingale_diagnostics(batch: SimBatch, z0: float,
                           w_tol: float = 1e-3) -> MartingaleReport:
    """Check E[Z_t e^{-K0_t}] <= z0 and the conditional-mean regression.

    Uses the final recorded time.  The conditional mean given the
    environment is z0 * e^{K0_t}; binning paths by K0_t and regressing the
    log bin-means of Z against K0 should give slope 1 and R^2 > 0.99.
    Paths capped at the explosion threshold are excluded from the
    supermartingale mean and counted as W > 0; pick the horizon and
    ``m_expl`` so they are rare.
    """
    if batch.env_flavor != "K0":
        raise UnsupportedMechanismError("martingale diagnostics need a finite-mean mechanism")
    z = batch.z[:, -1]
    k = batch.env_values[:, -1]
    finite = np.isfinite(z)
    w = np.where(finite, z, 0.0) * np.exp(-k)
    n = w.size
    mean = float(w[finite].mean())
    se = float(w[finite].std(ddof=1) / math.sqrt(max(finite.sum(), 2)))
    ok = mean <= z0 + 3.0 * se
    # regression of binned means
    nb = 16
    qs = np.quantile(k, np.linspace(0, 1, nb + 1))
    xs, ys = [], []
    for i in range(nb):
        m = (k >= qs[i]) & (k <= qs[i + 1]) & finite
        if m.sum() > 50:
            mz = z[m].mean()
            if mz > 0:
                xs.append(k[m].mean())
                ys.append(math.log(mz))
    xs, ys = np.array(xs), np.array(ys)
    if xs.size >= 3:
        A = np.column_stack([xs, np.ones_like(xs)])
        coef, res, *_ = np.linalg.lstsq(A, ys, rcond=None)
        ss_tot = float(((ys - ys.mean()) ** 2).sum())
        ss_res = float(res[0]) if res.size else float(((ys - A @ coef) ** 2).sum())
        r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    else:
        r2 = float("nan")
    p_w0 = float((finite & (w < w_tol * max(z0, 1e-300))).mean())
    return MartingaleReport(mean / z0 if z0 > 0 else mean, se, ok, r2, p_w0,
                            w_tol, int((~finite).sum()))
