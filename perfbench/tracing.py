"""Span tracing by rebinding public functions of the package's modules.

The benchmark edits nothing in the package.  :func:`installed` swaps the
module attributes listed in :data:`HOOKS` for wrappers that record a span
per call and restores them on exit.  The package reaches every hooked name
through a module lookup at call time (``hankel_ops.gstar_gram(...)``,
``lowrank.trunc_svd(...)``, or a module global such as ``hankel_corr`` inside
``hankel_ops``), so the wrappers see each call on the solve path.  Only
public names are wrapped.

Spans are kept in memory.  Each records its name, its parent span, the root
call it belongs to (a solver or ESPRIT), whether it runs under a spectral
init, and a few counts taken at the boundary: subspace rounds, clipped rows
and the array shapes that the computed kernel counts derive from.
"""

from __future__ import annotations

import inspect
import math
import time
from contextlib import contextmanager

import numpy as np

INITS = ("lowrank.spectral_init", "pgd.rect_spectral_init")
CPLX = 16  # bytes per complex128 element


class Span:
    __slots__ = ("name", "parent", "root", "in_init", "t0", "t1", "info", "self_s")

    def __init__(self, name, parent, root, in_init):
        self.name = name
        self.parent = parent
        self.root = root
        self.in_init = in_init
        self.t0 = self.t1 = 0.0
        self.info = None


class Tracer:
    """In-memory span recorder for one thread."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def call(self, name, fn, args, kwargs, info=None):
        if self._stack:
            parent = self._stack[-1]
            up = self.spans[parent]
            span = Span(name, parent, up.root, up.in_init or name in INITS)
        else:
            span = Span(name, None, name, name in INITS)
        span.info = info
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.t0 = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            span.t1 = self.clock()
            self._stack.pop()

    def take(self) -> list[Span]:
        """Hand over the recorded spans and start afresh."""
        spans, self.spans = self.spans, []
        return spans


def fft_len(n: int) -> int:
    return 1 << (n - 1).bit_length() if n > 1 else 1


def _fft_flops(nfft: int, transforms: int) -> float:
    """The conventional 5 N log2 N real flops per complex transform of length N."""
    return 5.0 * nfft * math.log2(max(nfft, 2)) * transforms


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _cols(a) -> int:
    return 1 if np.ndim(a) == 1 else np.shape(a)[1]


# Computed kernel counts.  They derive from the argument shapes and from how
# each kernel is written (transforms per call, arrays each touches once), not
# from hardware counters, and are labelled "computed" wherever reported.

def _gstar_gram_counts(args, kwargs):
    n_s, r = np.shape(args[0])
    nfft = fft_len(2 * n_s - 1)
    flops = _fft_flops(nfft, r + 1) + 8.0 * nfft * r
    moved = CPLX * (n_s * r + 2 * nfft * r + nfft + (2 * n_s - 1))
    return {"flops": flops, "bytes": moved}


def _gstar_outer_counts(args, kwargs):
    A, B = args[0], args[1]
    n_a, r = np.shape(A)
    n_b = np.shape(B)[0]
    n = n_a + n_b - 1
    nfft = fft_len(n)
    spectra = 1 if B is A else 2
    flops = _fft_flops(nfft, spectra * r + 1) + 8.0 * nfft * r
    moved = CPLX * ((n_a + n_b) * r + 2 * spectra * nfft * r + nfft + n)
    return {"flops": flops, "bytes": moved}


def _hankel_corr_counts(args, kwargs):
    h, C = args[0], args[1]
    n_out = _arg(args, kwargs, 2, "n_out")
    spectrum = _arg(args, kwargs, 4, "cbar_spectrum")
    n = np.shape(h)[0]
    r = _cols(C)
    nfft = fft_len(n)
    transforms = 1 + r + (r if spectrum is None else 0)
    flops = _fft_flops(nfft, transforms) + 6.0 * nfft * r
    moved = CPLX * (n + nfft + 2 * nfft * r + n_out * r)
    if spectrum is None:
        moved += CPLX * (np.shape(C)[0] * r + nfft * r)
    return {"flops": flops, "bytes": moved, "cols": r}


def _plain(tracer, name, fn, counts=None):
    def wrapper(*args, **kwargs):
        info = counts(args, kwargs) if counts is not None else None
        return tracer.call(name, fn, args, kwargs, info)

    return wrapper


def _project_hook(tracer, name, fn, counts=None):
    def wrapper(Z, radius):
        index = len(tracer.spans)
        out = tracer.call(name, fn, (Z, radius), {})
        # Counted after the span closes, so the norms are not charged to it.
        clipped = int(np.count_nonzero(np.linalg.norm(Z, axis=1) > radius))
        tracer.spans[index].info = {"clipped": clipped, "rows": Z.shape[0]}
        return out

    return wrapper


def _trunc_svd_hook(tracer, name, fn, counts=None):
    signature = inspect.signature(fn)

    def wrapper(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        applyH = bound.arguments["applyH"]
        rounds = [0]

        def counted_applyH(U):  # called once per subspace round
            rounds[0] += 1
            return applyH(U)

        bound.arguments["applyH"] = counted_applyH
        index = len(tracer.spans)
        out = tracer.call(name, fn, bound.args, bound.kwargs)
        # The convergence check runs later, outside every span (see
        # subspace_residual): recomputing it here would be charged to the init.
        tracer.spans[index].info = {
            "rounds": rounds[0],
            "tol": bound.arguments["tol"],
            "check": (applyH, out),
        }
        return out

    return wrapper


# (module.attribute, which is also the span name; wrapper factory;
#  computed-count function)
HOOKS = (
    ("hankel_ops.gstar_gram", _plain, _gstar_gram_counts),
    ("hankel_ops.gstar_outer", _plain, _gstar_outer_counts),
    ("hankel_ops.hankel_corr", _plain, _hankel_corr_counts),
    ("hankel_ops.g_apply_times_conj", _plain, None),
    ("lowrank.trunc_svd", _trunc_svd_hook, None),
    ("lowrank.takagi_truncated", _plain, None),
    ("lowrank.spectral_init", _plain, None),
    ("pgd.rect_spectral_init", _plain, None),
    ("shgd.project_C", _project_hook, None),
    ("pgd.project_C", _project_hook, None),
    ("shgd.recover", _plain, None),
    ("pgd.pgd_recover", _plain, None),
    ("freq_est.esprit", _plain, None),
)


@contextmanager
def installed(tracer: Tracer, package):
    """Rebind every hooked attribute of ``package``'s modules while active."""
    saved = []
    try:
        for name, factory, counts in HOOKS:
            module_name, fn_name = name.split(".")
            module = getattr(package, module_name)
            fn = getattr(module, fn_name)
            saved.append((module, fn_name, fn))
            setattr(module, fn_name, factory(tracer, name, fn, counts))
        yield tracer
    finally:
        for module, fn_name, fn in reversed(saved):
            setattr(module, fn_name, fn)


def subspace_residual(applyH, out) -> float:
    """max_i ||M^H u_i - sigma_i v_i|| / sigma_1 for a returned truncated SVD.

    Call it with the hooks uninstalled, so the operator's kernels record no
    spans.
    """
    U, sigma, V = out
    if sigma[0] <= 0:
        return 0.0
    pair = applyH(U) - V * sigma[None, :]
    return float(np.linalg.norm(pair, axis=0).max() / sigma[0])
