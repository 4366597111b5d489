"""Instrumentation seams: every solve reaches its stages and kernels through
module attributes, so a wrapper bound onto the attribute sees each call.

The traced benchmark relies on this: it rebinds these names at run time and
edits nothing in the package.
"""

import inspect

import pytest

from hankel_scs import freq_est, hankel_ops, lowrank, pgd, shgd
from conftest import make_instance

SEAMS = (
    (hankel_ops, "gstar_gram"),
    (hankel_ops, "gstar_outer"),
    (hankel_ops, "hankel_corr"),
    (hankel_ops, "g_apply_times_conj"),
    (lowrank, "trunc_svd"),
    (lowrank, "takagi_truncated"),
    (lowrank, "spectral_init"),
    (pgd, "rect_spectral_init"),
    (shgd, "project_C"),
    (pgd, "project_C"),
)
N, R, M = 31, 2, 20


def _counting(counts, key, fn):
    if key.endswith("project_C"):
        def wrapper(Z, radius):  # the benchmark's hook takes exactly these
            counts[key] += 1
            return fn(Z, radius)
    elif key == "lowrank.trunc_svd":
        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):  # the benchmark's hook binds these names
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            assert callable(bound.arguments["applyH"])
            assert bound.arguments["tol"] > 0
            counts[key] += 1
            return fn(*args, **kwargs)
    else:
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
    return wrapper


@pytest.fixture
def counts(monkeypatch):
    counts = {}
    for module, name in SEAMS:
        key = f"{module.__name__.rsplit('.', 1)[1]}.{name}"
        counts[key] = 0
        monkeypatch.setattr(module, name, _counting(counts, key, getattr(module, name)))
    return counts


@pytest.fixture
def instance():
    _, x, mask, observed = make_instance(N, R, M, 3, min_sep=1.5 / N)
    config = shgd.SolverConfig(
        r=R, max_iters=4, rel_change_tol=1e-300,
        step_policy="fixed", eta_prime=0.5, seed=0,
    )
    return x, mask, observed, config


def _hit(counts):
    return {key for key, value in counts.items() if value}


def test_shgd_recover_reaches_its_seams(counts, instance):
    _, mask, observed, config = instance
    res = shgd.recover(observed, mask, config)
    assert _hit(counts) == {
        "lowrank.spectral_init", "lowrank.takagi_truncated", "lowrank.trunc_svd",
        "hankel_ops.hankel_corr", "hankel_ops.gstar_gram",
        "hankel_ops.g_apply_times_conj", "shgd.project_C",
    }
    # One evaluation (and projection) before the loop, one per fixed step.
    assert res.iters == 4
    assert counts["hankel_ops.gstar_gram"] == res.iters + 1
    assert counts["shgd.project_C"] == res.iters + 1
    n_s = (N + 1) // 2
    assert res.counter.gram_flops == (2 * res.iters + 1) * n_s * R ** 2


def test_pgd_recover_reaches_its_seams(counts, instance):
    _, mask, observed, config = instance
    res = pgd.pgd_recover(observed, mask, config)
    assert _hit(counts) == {
        "pgd.rect_spectral_init", "lowrank.trunc_svd",
        "hankel_ops.hankel_corr", "hankel_ops.gstar_outer", "pgd.project_C",
    }
    assert res.iters == 4
    assert counts["hankel_ops.gstar_outer"] == res.iters + 1
    assert counts["pgd.project_C"] == 2 * (res.iters + 1)
    assert res.counter.gram_flops == (2 * res.iters + 1) * (N + 1) * R ** 2


def test_esprit_reaches_its_seams(counts, instance):
    x, _, _, _ = instance
    freq_est.esprit(x, R)
    assert _hit(counts) == {"lowrank.trunc_svd", "hankel_ops.hankel_corr"}
