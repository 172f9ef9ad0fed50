"""The x-step factor's probe solve.

At a huge rho the ridge ``kron`` x-system loses its loss curvature in
rounding without SuperLU meeting an exactly zero pivot.  The factor
then misses its own probe system, and the solve stops with
:class:`SingularSystemError` naming rho instead of diverging (rho 1e100)
or overflowing into NaN with RuntimeWarnings (rho 1e200).
"""

import re

import numpy as np
import pytest

from netlasso.cli import main
from netlasso.datasets import gen_two_line_regression, save_csv
from netlasso.graph import complete_graph, path_graph
from netlasso.losses import RidgeRegression, SquaredDistance
from netlasso.solver import SingularSystemError, solve_nl

HUGE = (1e100, 1e200)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("rho", HUGE)
def test_ridge_kron_system_at_huge_rho_raises(rho):
    rng = np.random.default_rng(0)
    losses = RidgeRegression(rng.normal(size=200), rng.normal(size=200),
                             epsilon=0.3)
    with pytest.raises(SingularSystemError, match=re.escape(f"rho={rho!r}")):
        solve_nl(losses, path_graph(200), 0.5, rho=rho, max_iters=50)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("rho", HUGE)
def test_ridge_kron_system_at_huge_rho_exits_3(rho, tmp_path, capsys):
    data = tmp_path / "two_line.csv"
    save_csv(gen_two_line_regression(200, noise_sd=0.1, seed=1), data)
    assert main(["solve-nl", "--data-file", str(data), "--has-labels",
                 "--has-responses", "--loss", "ridge", "--graph", "path",
                 "--gamma", "0.5", "--rho", repr(rho),
                 "--out-dir", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:")
    assert f"rho={rho!r}" in err


@pytest.mark.parametrize("rho", [1e14, 1e20])
def test_ridge_kron_system_that_runs_today_still_runs(rho):
    rng = np.random.default_rng(0)
    losses = RidgeRegression(rng.normal(size=200), rng.normal(size=200),
                             epsilon=0.3)
    state, _ = solve_nl(losses, path_graph(200), 0.5, rho=rho, max_iters=5)
    assert np.all(np.isfinite(state.x))


def test_factor_without_a_zero_pivot_passes_the_probe():
    # rho * Laplacian swamps the unit curvature of the complete graph,
    # yet the factor still reproduces its right-hand sides
    rng = np.random.default_rng(1)
    state, _ = solve_nl(SquaredDistance(rng.normal(size=(100, 2))),
                        complete_graph(100), 0.5, rho=1e100, max_iters=5)
    assert np.all(np.isfinite(state.x))
