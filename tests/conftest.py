import numpy as np
import pytest

from zdmn import model, networks


@pytest.fixture(scope="session")
def bundled_specs():
    """Every bundled network at its default parameters."""
    return {name: networks.bundled_spec(name) for name in networks.BUNDLED}


@pytest.fixture(scope="session")
def one_letter_spec():
    """Factory for a network of n nodes whose alphabets all have one letter.

    Every node sits in the one input and the one output block, so the spec
    stays a single 1 x 1 channel however many nodes it has.
    """
    def make(n_nodes: int) -> model.NetworkSpec:
        block = model.Partition((model.NodeSet(tuple(range(1, n_nodes + 1))),))
        xs = tuple(model.x_var(i) for i in range(1, n_nodes + 1))
        ys = tuple(model.y_var(i) for i in range(1, n_nodes + 1))
        channel = model.ChannelTable(xs, ys, np.ones((1, 1)))
        return model.NetworkSpec(n_nodes, (1,) * n_nodes, (1,) * n_nodes, 1,
                                 block, block, (channel,))
    return make
