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


@pytest.fixture(scope="session")
def binary_chain_spec():
    """Factory for a chain of n binary nodes, S = ({1}, ..., {n}) and
    G = ({2}, ..., {n}, {1}), with uniformly noisy channels.

    Channel h sees every earlier input and output, so the spec file grows
    as 4^n while the positive-delay grid at k = 1 has only 2^n points.
    """
    def make(n_nodes: int) -> model.NetworkSpec:
        singles = tuple(model.NodeSet((i,)) for i in range(1, n_nodes + 1))
        part_s = model.Partition(singles)
        part_g = model.Partition(singles[1:] + singles[:1])
        channels = tuple(
            model.ChannelTable(
                tuple(model.x_var(i) for i in range(1, h + 1))
                + tuple(model.y_var(i) for i in range(2, h + 1)),
                (model.y_var(h % n_nodes + 1),),
                np.full((2 ** (2 * h - 1), 2), 0.5))
            for h in range(1, n_nodes + 1))
        return model.NetworkSpec(n_nodes, (2,) * n_nodes, (2,) * n_nodes, n_nodes,
                                 part_s, part_g, channels)
    return make
