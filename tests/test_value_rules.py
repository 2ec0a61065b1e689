"""One rule for every size, index and setting a caller passes.

A size, count or index must be a Python or numpy integer, never a ``bool``
and never truncated; a real setting must be a finite real number.  Each
module raises its own error: sizes and indexes ``DimensionError``, network
legs ``NetworkError``, settings ``ValueError``.
"""

import numpy as np
import pytest

from ttkit.dense import GroupingPlan, contract_pair, permute, split_index
from ttkit.errors import DimensionError, NetworkError
from ttkit.layers import ShapePlan, compress_dataset
from ttkit.network import ContractionNetwork
from ttkit.optimize import (
    IteConfig,
    QudoProblem,
    Solution,
    non_repetition_layer,
    uniform_state,
)
from ttkit.tt import TruncationPolicy, identity_mpo, param_count_mps

EXACT = TruncationPolicy()
PROBLEM = QudoProblem((np.zeros(2), np.ones(2)), (np.eye(2),))

BAD = {
    "split_index-float-factors": (
        DimensionError, lambda: split_index(np.ones(4), 0, (2.9, 2.0))
    ),
    "split_index-bool-factor": (DimensionError, lambda: split_index(np.ones(2), 0, (True, 2))),
    "ShapePlan-float-factors": (DimensionError, lambda: ShapePlan((2.7,), (2.2,))),
    "balanced-negative-rows": (DimensionError, lambda: ShapePlan.balanced(-6, 4, 2)),
    "balanced-float-rows": (DimensionError, lambda: ShapePlan.balanced(6.5, 4, 2)),
    "balanced-float-sites": (DimensionError, lambda: ShapePlan.balanced(6, 4, 2.5)),
    "GroupingPlan-float-shape": (
        DimensionError, lambda: GroupingPlan((2.5, 3), ((0,), (1,)))
    ),
    "permute-float-axis": (DimensionError, lambda: permute(np.ones((2, 2)), (0.5, 1))),
    "compress_dataset-float-dims": (
        DimensionError, lambda: compress_dataset(np.ones(4), (2.5, 2), EXACT)
    ),
    "compress_dataset-negative-dims": (
        DimensionError, lambda: compress_dataset(np.ones(4), (-1, -4), EXACT)
    ),
    "contract_pair-float-axis": (
        DimensionError, lambda: contract_pair(np.ones(2), np.ones(2), [(0.9, 0)])
    ),
    "cost-float-value": (DimensionError, lambda: PROBLEM.cost((1.9, 0))),
    "Solution-float-value": (DimensionError, lambda: Solution((0.5, 1), 1.0, "m")),
    "param_count_mps-float-sites": (DimensionError, lambda: param_count_mps(2.5, 2, 2)),
    "param_count_mps-bool-sites": (DimensionError, lambda: param_count_mps(True, 2, 2)),
    "identity_mpo-float-dim": (DimensionError, lambda: identity_mpo([2.5])),
    "uniform_state-float-sites": (DimensionError, lambda: uniform_state(2.5, 2)),
    "counter-layer-no-sites": (DimensionError, lambda: non_repetition_layer(0, 2, 0)),
    "counter-layer-float-value": (DimensionError, lambda: non_repetition_layer(2, 3, 1.5)),
    "counter-layer-value-past-d": (DimensionError, lambda: non_repetition_layer(2, 3, 3)),
    "network-float-free-leg": (
        NetworkError,
        lambda: ContractionNetwork({"x": np.ones(2)}, (), (("x", 0.5),)),
    ),
    "IteConfig-float-dense_cap": (ValueError, lambda: IteConfig(dense_cap=2.5)),
    "IteConfig-bool-dense_cap": (ValueError, lambda: IteConfig(dense_cap=True)),
    "IteConfig-text-dense_cap": (ValueError, lambda: IteConfig(dense_cap="5")),
    "IteConfig-bool-tau": (ValueError, lambda: IteConfig(tau=True)),
    "IteConfig-text-tau": (ValueError, lambda: IteConfig(tau="1")),
}


@pytest.mark.parametrize("error, call", BAD.values(), ids=BAD.keys())
def test_bad_value_raises_the_module_error(error, call):
    with pytest.raises(error):
        call()


def test_numpy_scalars_keep_working():
    assert split_index(np.ones(4), 0, (np.int64(2), 2)).shape == (2, 2)
    assert ShapePlan.balanced(np.int64(16), 16, 2) == ShapePlan((4, 4), (4, 4))
    assert PROBLEM.cost(np.array([1, 0])) == 1.0
    assert IteConfig(tau=np.float32(2.0)).tau == 2.0
