"""The boundary both solvers share: input checks before any work is done."""

import numpy as np
import pytest

from hankel_scs import pgd, shgd
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
