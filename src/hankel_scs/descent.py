"""Projected gradient descent shared by the symmetric and two-factor solvers.

Both solvers minimize the same data term plus Hankel penalty over a
factorization of the lifted signal -- one factor with M = Z Z^T in
:mod:`hankel_scs.shgd`, two with M = Z_U Z_V^H in :mod:`hankel_scs.pgd` --
by the same projected scheme Z <- P_C(Z - eta * grad f(Z)).  This module
holds what they share: the configuration and result types, the input checks
at the solver boundary, mask splitting, the loss terms, the step rule, the
radius of P_C (:func:`projection_radius`), the per-iteration products of
both factorizations -- the r x r Hermitian grams (:func:`gram`) and the
n x r^2 right products (:func:`right_mul`) -- and the iteration loop
(:func:`descend`).  Each solver passes its factorization in as callbacks:
evaluation, gradient and projection.

Normalization.  :func:`check_inputs` divides the observations by a power of
four S near their largest magnitude, so the solvers always see O(1) data and
the quartic loss neither underflows nor overflows; :func:`descend` rescales
what it returns (``x_hat`` and ``sigma1_M0`` by S, the factors by sqrt(S),
each loss by S^2, each step by 1/S, each balancing gap by S).  Scaling by a
power of four is exact, square root included, so a double-precision solve
gives the same bits as the same solve on unscaled data, up to that scale.

Precision schedule.  A solve with ``step_policy == "fixed"`` and
``rel_change_tol`` below :data:`SINGLE_UNTIL` runs its first iterations in
complex64: the early, inaccurate iterates do not need double precision, and
single-precision FFTs and grams cost about half as much.  Its iterates
follow the double-precision trajectory until single precision runs out, so
the phase lasts as long as the solve's own rate of descent says it is useful
(:func:`single_phase_end`).  The iterations at which the lowest
``rel_change`` first reaches 1e-3 and 1e-4 (:data:`RATE_LEVELS`, above every
complex64 floor seen) give the iterations per decade, and the phase ends
where that rate extrapolates from 1e-4 to max(``rel_change_tol``,
:data:`SINGLE_FLOOR`), eps32 / 8; the tolerance term keeps a loose one from
running complex64 iterations it does not need.  The stall rule backs it up
for a solve whose complex64 floor lies above 1e-4: :data:`STALL_ITERS`
iterations in a row without a new low end the phase too.  It waits for a run
of iterations, not one rise, because ``rel_change`` is not monotone even in
double precision, and it counts only once the lowest ``rel_change`` has
reached 1e-3, because at the paper's timing point ``rel_change`` can sit at
1.1e-2 for more than 25 iterations while the solve still progresses.  The
iteration after the phase casts the iterate to complex128, evaluates it once
more and goes on in double precision under the unchanged stopping rule;
``tol_reached`` is only ever decided in double precision.  Backtracking
solves never leave complex128: Armijo compares losses that single precision
cannot resolve near the switch.  Looser tolerances would leave nothing to
finish in double precision, so they also run in complex128 throughout.
:func:`opening_dtype` is this rule, and both solvers' spectral inits follow
it too: a solve that opens in complex64 runs its init's subspace rounds in
complex64, then one complex128 Rayleigh-Ritz step finishes the init (see
:func:`hankel_scs.lowrank.trunc_svd`), so the loop starts from the same kind
of double-precision factor either way.
``RecoveryResult.single_iters`` counts the complex64 iterations and
``single_ended_by`` names the rule that ended them.  A fixed-step run
shorter than its complex64 phase, such as the 12 iterations of
``bench.run_scaling``, runs and times complex64 iterations only.

Memory.  :func:`descend` holds one spectrum at a time, plus the current and
the candidate factors (an Armijo trial adds the gradient).  The gradient
consumes the state's spectrum, which goes as the gradient returns.  A
rejected Armijo candidate goes, spectrum and all, before the next trial is
evaluated.  At a precision switch or a new split part, the last state's
unconsumed spectrum goes before the re-evaluation, and the last iterate's
goes before the result is formed.  No name in the loop holds the factors it
opened from, their opening cast, a past iterate or a used gradient.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, field
from typing import ClassVar

import numpy as np
from scipy.linalg import blas

from . import hankel_ops
from .signal_model import SamplingMask

SINGLE_UNTIL = 1e-5  # a fixed-step solve opens in complex64 when rel_change_tol is below it
# The complex64 phase measures its rate of descent between the first iterations
# whose lowest rel_change reaches each of RATE_LEVELS, then ends where that rate
# extrapolates to max(rel_change_tol, SINGLE_FLOOR) (see single_phase_end).
RATE_LEVELS = (1e-3, 1e-4)
SINGLE_FLOOR = float(np.finfo(np.float32).eps) / 8
STALL_ITERS = 25  # complex64 iterations without a new low below RATE_LEVELS[0] end it too

# gram() takes Z^H Z from BLAS herk once rows * r^2 reaches HERK_FROM.  herk
# computes one triangle, half the flops of the general product, but its call
# and the mirror of the other triangle cost about 10 us, so small grams stay
# on the general product.  Time of one gram, herk (mirror included) / general
# product, on a Fortran-ordered factor (medians of repeated timings, BLAS on 1
# thread, 2-core host):
#
#   rows x r     rows r^2   complex128  complex64
#   64 x 12          9216      2.75        2.73     desk (n=127, r up to 12)
#   1024 x 8        65536      1.32        1.35
#   8192 x 4       131072      1.12        1.08
#   1024 x 16      262144      0.93        1.02
#   128 x 64       524288      0.96        1.09
#   4096 x 12      589824      0.92        0.99
#   1024 x 30      921600      0.81        0.81     scaling ladder, lowest rung
#   1024 x 32     1048576      0.77        0.80     the herk tests' solves
#   8192 x 30     7372800      0.63        0.62     long-signal
#   1024 x 150   23040000      0.63        0.60     paper-point
#
# herk wins in complex128 from about 2.5e5 and in complex64 from about 6e5,
# depending on the shape; from 2^20 on it wins by 20% or more in both.
HERK_FROM = 1 << 20


def as_int(name: str, value, least: int | None = None) -> int:
    """``value`` as an int of at least ``least``: the rule for every integer
    setting, which refuses a bool or a fraction instead of truncating it."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return int(value)


@dataclass
class SolverConfig:
    """Settings of both solvers; every solve reads each of them.

    Both step policies start from eta_prime/sigma_1(M0): "fixed" keeps that
    step and "backtracking" multiplies it by :attr:`beta` per failed Armijo
    test.  ``mu`` sets both solvers' radius of P_C (:func:`projection_radius`);
    left as None, each solver estimates it, and ``math.inf`` never clips.
    ``K`` >= 1 splits the mask into K+1 equal parts (remainder round-robin):
    part 0 initializes, parts 1..K are cycled per iteration; 0 splits nothing.
    """

    beta: ClassVar[float] = 0.5
    c_armijo: ClassVar[float] = 1e-4
    max_halvings: ClassVar[int] = 30
    epsilon0: ClassVar[float] = 0.1  # sigma = sigma_1 / (1 - epsilon0) in the radius

    r: int
    max_iters: int = 1000
    rel_change_tol: float = 1e-7
    step_policy: str = "backtracking"
    eta_prime: float = 0.75
    mu: float | None = None
    K: int = 0
    seed: int | None = None

    def __post_init__(self):
        for name, least in (("r", 1), ("max_iters", 0), ("K", 0)):
            setattr(self, name, as_int(name, getattr(self, name), least))
        if self.seed is not None:
            self.seed = as_int("seed", self.seed, 0)
        if not self.rel_change_tol >= 0:
            raise ValueError(f"rel_change_tol must be >= 0, got {self.rel_change_tol}")
        if self.step_policy not in ("fixed", "backtracking"):
            raise ValueError(f"unknown step_policy {self.step_policy!r}")
        if not 0 < self.eta_prime < math.inf:
            raise ValueError(f"eta_prime must be positive and finite, got {self.eta_prime}")
        if self.mu is not None and not self.mu > 0:
            raise ValueError(f"mu must be positive (inf never clips), got {self.mu}")

    @property
    def eta0_scale(self) -> float:
        """Read-only alias of ``eta_prime``, the backtracking numerator."""
        return self.eta_prime


@dataclass
class IterRecord:
    k: int
    loss: float
    rel_change: float
    step: float
    ms: float
    fft_passes: int = 0
    rel_err: float | None = None
    balancing_gap: float | None = None


@dataclass
class RecoveryResult:
    x_hat: np.ndarray
    Z_final: object
    iters: int
    history: list[IterRecord]
    termination: str  # tol_reached | max_iters | diverged
    sigma1_M0: float = 0.0
    mu: float = 0.0
    counter: hankel_ops.OpCounter = field(default_factory=hankel_ops.OpCounter)
    single_iters: int = 0  # iterations run in complex64
    single_ended_by: str | None = None  # rate | stall; None if the phase never ended


@dataclass
class State:
    """One evaluated iterate.

    ``g`` is the lifted-signal estimate G*(M), ``masked`` the count-weighted
    residual of the data term, ``spectrum`` the factors' column FFTs from
    G*(M) (None for a dense lift) and ``aux`` the grams the gradient reuses.
    The gradient's correlation consumes the spectrum, and :func:`descend`
    drops it as soon as the gradient returns, before the next evaluation.
    """

    Zs: tuple
    g: np.ndarray
    masked: np.ndarray
    loss: float
    spectrum: np.ndarray | None
    aux: tuple


def opening_dtype(config: SolverConfig) -> type:
    """complex64 for a solve that opens with the complex64 phase of the
    precision schedule (a fixed step and ``rel_change_tol`` below
    :data:`SINGLE_UNTIL`), complex128 otherwise."""
    mixed = config.step_policy == "fixed" and config.rel_change_tol < SINGLE_UNTIL
    return np.complex64 if mixed else np.complex128


def single_phase_end(changes, tol: float) -> str | None:
    """Why the complex64 phase ends after the last of ``changes``, its
    iterations' ``rel_change`` values in order, or None if it goes on.

    With k3 and k4 the first iterations whose lowest ``rel_change`` reaches
    each of :data:`RATE_LEVELS`, d = max(k4 - k3, 1) is the solve's own number
    of iterations per decade.  "rate": the last iteration k >= k4 is the first
    whose extrapolated level RATE_LEVELS[1] * 10^(-(k - k4) / d) is at most
    max(``tol``, :data:`SINGLE_FLOOR`).  "stall": :data:`STALL_ITERS`
    iterations in a row without a new low, counted only once the lowest
    ``rel_change`` has reached RATE_LEVELS[0], so a plateau above it never
    ends the phase.
    """
    high, low = RATE_LEVELS
    lowest = math.inf
    k3 = k4 = None
    since_low = 0
    for k, change in enumerate(changes):
        if change < lowest:
            lowest, since_low = change, 0
        elif lowest <= high:
            since_low += 1
        if k3 is None and lowest <= high:
            k3 = k
        if k4 is None and lowest <= low:
            k4 = k
    if k4 is not None:
        per_decade = max(k4 - k3, 1)
        if low * 10.0 ** (-(k - k4) / per_decade) <= max(tol, SINGLE_FLOOR):
            return "rate"
    return "stall" if since_low >= STALL_ITERS else None


def fixed_step(sigma1_M0: float, eta_prime: float) -> float:
    """Step size eta = eta' / sigma_1(M0)."""
    if sigma1_M0 <= 0:
        raise ValueError("sigma1_M0 must be positive")
    return eta_prime / sigma1_M0


def right_mul(Z: np.ndarray, M: np.ndarray, counter=None) -> np.ndarray:
    """The n x r by r x r product Z M, column-major when ``Z`` is.

    :func:`descend` holds the factors column-major, the layout the Hankel
    kernels transform without a strided copy.  ``Z @ M`` would come back
    row-major, and every sum with a kernel result, the update and
    :func:`project_C` would then run strided; ``(M^T Z^T)^T`` keeps the
    factor's layout.  Both gradients take their n x r^2 products here, and
    each adds its rows * r^2 to ``counter.gram_flops``.
    """
    if counter is not None:
        counter.add_flops(Z.shape[0] * Z.shape[1] ** 2)
    return (M.T @ Z.T).T


def gram(Z: np.ndarray, counter=None) -> np.ndarray:
    """The r x r Hermitian gram Z^H Z of an n x r factor.

    From rows * r^2 = :data:`HERK_FROM` on, BLAS herk forms the upper
    triangle and the lower one is its conjugate mirror, so the result is
    Hermitian bit for bit with a real diagonal.  Below it, the general
    product ``Z.conj().T @ Z``, whose triangles may differ in the last bit.
    Both agree with the exact gram to rounding; any layout is accepted.
    Each gram adds its rows * r^2 to ``counter.gram_flops``.
    """
    rows, r = Z.shape
    if counter is not None:
        counter.add_flops(rows * r * r)
    if rows * r * r < HERK_FROM:
        return Z.conj().T @ Z
    herk = blas.get_blas_funcs("herk", (Z,))
    A = herk(1.0, Z, trans=2)  # upper triangle of Z^H Z; the lower one is zero
    A += np.triu(A, 1).conj().T
    return A


def project_C(Z: np.ndarray, radius: float) -> np.ndarray:
    """Clip factor rows to 2-norm ``radius`` (idempotent).

    ``Z`` itself comes back when no row is longer than ``radius``.  Row
    energies are summed over one real view of the column-major factor, its
    real and imaginary parts interleaved, so no complex temporary is made,
    with the bits of summing the two parts apart; the square root is taken
    only for rows that clip.  A factor of another layout is copied first.
    """
    V = np.asfortranarray(Z).T.view(Z.real.dtype)
    s = np.einsum("lk,lk->k", V, V)
    energy = s[0::2] + s[1::2]
    clip = energy > radius * radius
    if not np.count_nonzero(clip):
        return Z
    scale = np.ones_like(energy)
    scale[clip] = radius / np.sqrt(energy[clip])
    return Z * scale[:, None]


def estimate_mu(F0: np.ndarray, n: int, r: int) -> float:
    """Incoherence proxy max(1, n ||U0||_{2,inf}^2 / (2r)), U0 = F0 with unit columns."""
    col_norms = np.linalg.norm(F0, axis=0)
    col_norms[col_norms == 0] = 1.0
    energy = float((np.abs(F0 / col_norms[None, :]) ** 2).sum(axis=1).max())
    return max(n * energy / (2 * r), 1.0)


def projection_radius(F0: np.ndarray, n: int, sigma1: float,
                      config: SolverConfig) -> tuple[float, float]:
    """(radius, mu) of P_C: radius = 2 sqrt(mu r sigma / n) with sigma =
    sigma1 / (1 - epsilon0) and mu = ``config.mu``, or ``estimate_mu(F0, n,
    r)`` when that is None.  The symmetric factor passes its lift's length n,
    each rectangular factor twice its row count."""
    sigma = sigma1 / (1.0 - config.epsilon0)
    mu = config.mu if config.mu is not None else estimate_mu(F0, n, config.r)
    return 2.0 * math.sqrt(mu * config.r * sigma / n), mu


def data_scale(observed: np.ndarray) -> float:
    """Power of four S with max |observed| / S in [1/2, 2); 1 for zero data.

    The exponent is clipped so that S, 1/S and sqrt(S) are normal floats.
    """
    peak = float(np.abs(observed).max()) if observed.size else 0.0
    if peak == 0.0:
        return 1.0
    half_exp = min(max(math.frexp(peak)[1] // 2, -500), 500)
    return math.ldexp(1.0, 2 * half_exp)


def check_inputs(observed, mask: SamplingMask, r: int, x_true=None):
    """Validate a solver's inputs and normalize them.

    Returns (observed / S, truth / S, S) with complex arrays and S from
    :func:`data_scale`; truth is None when ``x_true`` is.  The rank is
    checked against the caller's signal length (:func:`hankel_ops.check_rank`).
    """
    observed = np.asarray(observed, dtype=complex)
    if observed.shape[0] != mask.n:
        raise ValueError("observation length and mask ambient length differ")
    hankel_ops.check_rank(mask.n, r)
    if not np.isfinite(observed).all():
        raise ValueError("observed samples must be finite")
    scale = data_scale(observed)
    truth = None
    if x_true is not None:
        truth = np.asarray(x_true, dtype=complex)
        if truth.shape[0] != observed.shape[0]:
            raise ValueError("x_true length must match the observation length")
        if not np.isfinite(truth).all():
            raise ValueError("x_true must be finite")
        truth = truth / scale
    return observed / scale, truth, scale


def split_for_iterations(mask: SamplingMask, config: SolverConfig):
    """(init mask, per-iteration (counts, p) pairs); splitting by ``config.K``."""
    if config.K == 0:
        return mask, [(hankel_ops.mask_counts(mask), mask.p)]
    perm = np.random.default_rng(config.seed).permutation(np.asarray(mask.indices))
    parts = [
        SamplingMask(mask.n, np.sort(perm[j :: config.K + 1]), mask.with_replacement)
        for j in range(config.K + 1)
    ]
    return parts[0], [(hankel_ops.mask_counts(m), m.p) for m in parts[1:]]


def make_state(Zs, g, m_norm2, y_obs, counts, p, spectrum, aux, extra_loss=0.0) -> State:
    """State with the shared loss terms: data misfit and Hankel penalty.

    ``m_norm2`` is ||M||_F^2, so ||(I - GG*)M||_F^2 = m_norm2 - ||g||^2;
    ``extra_loss`` adds a solver's own term (the baseline's balancing).
    """
    resid = g - y_obs
    masked = counts * resid
    data = float(np.vdot(masked, resid).real) / (4.0 * p)
    pen = max(0.25 * (m_norm2 - float(np.vdot(g, g).real)), 0.0)
    return State(Zs, g, masked, max(data + pen + extra_loss, 0.0), spectrum, aux)


def _phase_data(y_obs, iter_counts, dtype):
    """``y_obs`` and the per-iteration counts cast once for a phase in ``dtype``."""
    real = np.float32 if dtype == np.complex64 else np.float64
    counts = [(c.astype(real, copy=False), p) for c, p in iter_counts]
    return y_obs.astype(dtype, copy=False), counts


def _signal(state: State) -> np.ndarray:
    """Sample-domain iterate D^{-1} g."""
    return hankel_ops.apply_D_inv(state.g)


def _norm(x: np.ndarray) -> float:
    """||x||_2 of a 1-D vector by ``np.linalg.norm``'s own formula for it,
    sqrt(re . re + im . im), with its bits and without its dispatch: about
    1 us a call against 2-4 us, three times per iteration."""
    re, im = x.real, x.imag
    return float(np.sqrt(re.dot(re) + im.dot(im)))


def _step(Zs, grads, eta: float, in_place: bool) -> tuple:
    """Z - eta * gz for each factor, as -eta * gz + Z: negating eta * gz is
    exact, so the sum has the same bits.  ``in_place`` forms it in the
    gradient's memory (a fixed step, the only trial); each Armijo trial
    reads the gradient again, so it takes one temporary."""
    stepped = []
    for Z, gz in zip(Zs, grads):
        Z_new = np.multiply(gz, -eta, out=gz if in_place else None)
        Z_new += Z
        stepped.append(Z_new)
    return tuple(stepped)


def descend(
    *,
    evaluate,
    gradient,
    project,
    Zs0,
    y_obs,
    iter_counts,
    config: SolverConfig,
    sigma1: float,
    n_out: int,
    factor_of,
    mu: float,
    scale: float = 1.0,
    step_scale: float = 1.0,
    truth=None,
    gap_of=None,
) -> RecoveryResult:
    """Projected-gradient loop shared by the one- and two-factor solvers.

    ``evaluate(Zs, y_obs, counts, p, counter)`` returns a :class:`State`,
    ``gradient(state, p, counter)`` the per-factor gradients as fresh arrays,
    which a fixed step overwrites, consuming the state's spectrum (see
    :class:`State`), and ``project(Zs)`` the factors on the constraint set.
    Each iteration's first step is ``step_scale * config.eta_prime /
    sigma1``.  The result keeps ``n_out`` samples, ``factor_of(Zs)`` as ``Z_final`` and ``mu`` as
    the incoherence that set the projection radius; ``gap_of(state)`` fills
    each record's balancing gap.  Inputs are in units of the data scale
    ``scale`` (see :func:`check_inputs`), and the result is rescaled to the
    caller's units; the precision schedule is in the module docstring.
    """
    counter = hankel_ops.OpCounter()
    eta0 = fixed_step(sigma1, step_scale * config.eta_prime)
    fixed = config.step_policy == "fixed"
    dtype = opening_dtype(config)
    y, phase_counts = _phase_data(y_obs, iter_counts, dtype)

    counts, p = phase_counts[0]
    # Factors stay column-major (see right_mul); this cast and the one at
    # each new phase below are the only places that set the layout.  No name
    # here holds the opening factors: they live while a state does.
    state = evaluate(project(tuple(np.asfortranarray(Z, dtype=dtype) for Z in Zs0)),
                     y, counts, p, counter)
    del Zs0
    loss_init = state.loss
    x_prev = _signal(state)
    truth_norm = _norm(truth) if truth is not None else None
    history: list[IterRecord] = []
    termination = "max_iters"
    single_changes: list[float] = []
    single_ended_by = None

    for k in range(config.max_iters):
        t0 = time.perf_counter()
        passes0 = counter.fft_passes
        if (k and len(phase_counts) > 1) or state.Zs[0].dtype != dtype:
            # A new split part, or the first double-precision iteration;
            # iteration 0 runs on the part evaluated above.
            counts, p = phase_counts[k % len(phase_counts)]
            state.spectrum = None  # never consumed: the state is evaluated again
            state = evaluate(tuple(np.asfortranarray(Z, dtype=dtype) for Z in state.Zs),
                             y, counts, p, counter)
            x_prev = _signal(state)
        grads = gradient(state, p, counter)
        state.spectrum = None  # consumed by the gradient; its memory goes now

        def _candidate(eta):
            # The stepped factors are an argument only: those that project
            # clips die before the evaluation.
            return evaluate(project(_step(state.Zs, grads, eta, fixed)), y, counts, p, counter)

        eta = eta0
        if not fixed:
            # Taken before the first trial, so its flattened copies of the
            # gradient never coexist with a candidate's spectrum.
            gnorm2 = sum(float(np.vdot(gz, gz).real) for gz in grads)
        new_state = _candidate(eta)
        if not fixed:
            for _ in range(config.max_halvings):
                if new_state.loss <= state.loss - config.c_armijo * eta * gnorm2:
                    break
                eta *= config.beta  # shrink only when another trial follows
                del new_state  # rejected: its spectrum goes before the next trial's
                new_state = _candidate(eta)
            if new_state.loss > state.loss:
                termination = "diverged"  # no decrease at the smallest step
                history.append(IterRecord(
                    k=k, loss=new_state.loss, rel_change=float("inf"),
                    step=eta, ms=(time.perf_counter() - t0) * 1e3,
                    fft_passes=counter.fft_passes - passes0,
                ))
                break
        del grads  # a fixed step's are the candidate's factors; Armijo's are dead

        x_new = _signal(new_state)
        denom = _norm(x_prev)
        delta = _norm(x_new - x_prev)
        rel_change = delta / denom if denom > 0 else (0.0 if delta == 0 else float("inf"))
        rec = IterRecord(
            k=k,
            loss=new_state.loss,
            rel_change=rel_change,
            step=eta,
            ms=(time.perf_counter() - t0) * 1e3,
            fft_passes=counter.fft_passes - passes0,
        )
        if truth is not None:
            # Compare on the truth's own support: iterates may carry a padded
            # tail sample that the caller's reference signal does not cover.
            rec.rel_err = _norm(x_new[: truth.shape[0]] - truth) / truth_norm
        if gap_of is not None:
            rec.balancing_gap = gap_of(new_state)
        history.append(rec)

        if not math.isfinite(new_state.loss):
            termination = "diverged"  # keep the last finite iterate
            break
        state, x_prev = new_state, x_new
        del new_state  # state alone holds the iterate, so a re-evaluation releases it
        if dtype == np.complex64:
            # The tolerance is only ever decided in double precision.
            single_changes.append(rel_change)
            single_ended_by = single_phase_end(single_changes, config.rel_change_tol)
            if single_ended_by is not None:
                dtype = np.complex128
                y, phase_counts = _phase_data(y_obs, iter_counts, dtype)
        elif rel_change <= config.rel_change_tol:
            termination = "tol_reached"
            break
        if state.loss > 1e6 * loss_init + 1e-300:
            termination = "diverged"
            break

    state.spectrum = None  # the last iterate's is never consumed
    # Back to the caller's units; every factor is a power of two, so exact.
    root = math.sqrt(scale)
    for rec in history:
        rec.loss = rec.loss * scale * scale
        rec.step = rec.step / scale
        if rec.balancing_gap is not None:
            rec.balancing_gap = rec.balancing_gap * scale
    return RecoveryResult(
        x_hat=x_prev[:n_out].astype(complex, copy=False) * scale,
        Z_final=factor_of(tuple(Z.astype(complex, copy=False) * root for Z in state.Zs)),
        iters=len(history),
        history=history,
        termination=termination,
        sigma1_M0=sigma1 * scale,
        mu=mu,
        counter=counter,
        single_iters=len(single_changes),
        single_ended_by=single_ended_by,
    )


def result_to_dict(result: RecoveryResult) -> dict:
    """JSON-ready view of a recovery result (non-finite floats become null)."""

    def _num(v):
        return float(v) if v is not None and math.isfinite(v) else None

    # One row per record, from its fields; a field that is None is left out.
    hist = [{key: v if isinstance(v, int) else _num(v)
             for key, v in asdict(rec).items() if v is not None}
            for rec in result.history]
    return {
        "x_hat": [[float(v.real), float(v.imag)] for v in result.x_hat],
        "iters": result.iters,
        "single_iters": result.single_iters,
        "single_ended_by": result.single_ended_by,
        "termination": result.termination,
        "sigma1_M0": _num(result.sigma1_M0),
        "mu": _num(result.mu),
        "counter": asdict(result.counter),
        "history": hist,
    }


def save_result(path, result: RecoveryResult) -> None:
    with open(path, "w") as f:
        json.dump(result_to_dict(result), f)
