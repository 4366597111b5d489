"""What both solvers share: input checks at the boundary and the step record."""

import numpy as np
import pytest

from hankel_scs import descent, pgd, shgd
from conftest import make_instance

SOLVERS = (shgd.recover, pgd.pgd_recover)


@pytest.mark.parametrize("solve", SOLVERS)
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_solvers_reject_nonfinite_samples(solve, bad):
    _, x, mask, observed = make_instance(63, 3, 40, 0)
    observed = observed.copy()
    observed[mask.indices[0]] = bad
    with pytest.raises(ValueError, match="finite"):
        solve(observed, mask, shgd.SolverConfig(r=3, seed=0))


@pytest.mark.parametrize("max_halvings", [0, 1, 3])
def test_recorded_armijo_step_is_the_last_step_tried(max_halvings):
    # A first step at eta0_scale=50 fails every Armijo test, so all
    # max_halvings + 1 candidates run and the last one tried is recorded.
    _, x, mask, observed = make_instance(63, 3, 40, 0)
    config = shgd.SolverConfig(r=3, eta0_scale=50, projection=False,
                               max_halvings=max_halvings, max_iters=1, seed=0)
    result = shgd.recover(observed, mask, config)
    rec = result.history[0]
    # One gradient and max_halvings + 1 candidate losses, r passes each.
    assert rec.fft_passes == 3 * (max_halvings + 2)
    eta0 = descent.fixed_step(result.sigma1_M0, config.eta0_scale)
    assert rec.step == pytest.approx(eta0 * config.beta ** max_halvings, rel=1e-12)
