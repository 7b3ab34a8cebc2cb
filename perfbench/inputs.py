"""Seeded inputs for the benchmark workloads.

Everything a workload hands the program is drawn here from the one workload
seed, with an independent stream per purpose: the same seed gives the same
networks, codes, rate tuples and per-task seeds.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from zdmn import networks
from zdmn.bounds import RateTuple
from zdmn.model import ChannelTable, DelayProfile, NetworkSpec, NodeSet, Partition
from zdmn.simulate import random_table_code

import oracle

_PURPOSE = {"ternary": 1, "engine-code": 2, "enum-code": 3, "rates": 4,
            "task": 5, "cli": 6}

ENGINE_N = 4
RELAY_PROFILE = (1, 0, 1)
TERNARY_PROFILE = (1, 0, 0)
ENUM_SEEDS = 10            # codes per (bundled network, blocklength), as acceptance 4/5
MEMBERSHIP_EPS = 0.11


def derive_seed(seed: int, purpose: str, *index: int) -> int:
    """A 31-bit seed for one purpose and index, fixed by the workload seed."""
    ss = np.random.SeedSequence([_PURPOSE[purpose], int(seed), *index])
    return int(ss.generate_state(1)[0] >> 1)


def _rng(seed: int, purpose: str) -> np.random.Generator:
    return np.random.default_rng(derive_seed(seed, purpose))


def ternary_network(seed: int) -> NetworkSpec:
    """Random 3-node ternary network with S=({1},{2},{3}), G=({2},{3},{1});
    every channel row is a Dirichlet(1, 1, 1) draw."""
    rng = _rng(seed, "ternary")
    s = Partition((NodeSet((1,)), NodeSet((2,)), NodeSet((3,))))
    g = Partition((NodeSet((2,)), NodeSet((3,)), NodeSet((1,))))
    shell = NetworkSpec(3, (3, 3, 3), (3, 3, 3), 3, s, g, ())
    channels = []
    for h in range(1, 4):
        in_vars = shell.channel_input_vars(h)
        out_vars = shell.channel_output_vars(h)
        rows = rng.dirichlet(np.ones(3 ** len(out_vars)), size=3 ** len(in_vars))
        channels.append(ChannelTable(in_vars, out_vars, rows))
    return dataclasses.replace(shell, channels=tuple(channels))


def engine_cases(seed: int) -> dict:
    """name -> (spec, code): the bundled causal relay and the seeded ternary
    network, each with a random table code at n=4."""
    relay = networks.causal_relay_spec()
    ternary = ternary_network(seed)
    return {
        "relay": (relay, random_table_code(
            relay, ENGINE_N, DelayProfile.of(RELAY_PROFILE),
            seed=derive_seed(seed, "engine-code", 0))),
        "ternary": (ternary, random_table_code(
            ternary, ENGINE_N, DelayProfile.of(TERNARY_PROFILE),
            seed=derive_seed(seed, "engine-code", 1))),
    }


def enumeration_codes(seed: int) -> list:
    """(network name, spec, code) for every bundled network x n in {1, 2} x
    ENUM_SEEDS unit-delay random codes."""
    out = []
    for ni, name in enumerate(sorted(networks.BUNDLED)):
        spec = networks.bundled_spec(name)
        profile = DelayProfile.of((1,) * spec.n_nodes)
        for n in (1, 2):
            for r in range(ENUM_SEEDS):
                out.append((name, spec, random_table_code(
                    spec, n, profile, seed=derive_seed(seed, "enum-code", ni, n, r))))
    return out


def membership_rates(seed: int) -> tuple[RateTuple, RateTuple]:
    """(inside, outside) rate tuples for bscfb(0.11) in capacity mode.

    Inside: both rates a fraction in [0.1, 0.9] of their closed-form caps,
    which the uniform grid point attains exactly.  Outside: the forward rate
    exceeds 1 - H(eps) by 5-50 %, which no input distribution reaches.
    """
    rng = _rng(seed, "rates")
    fwd = 1.0 - oracle.binary_entropy(MEMBERSHIP_EPS)
    u = rng.uniform(0.1, 0.9, size=3)
    v = rng.uniform(0.05, 0.5)
    inside = RateTuple.from_pairs(2, {(1, 2): u[0] * fwd, (2, 1): u[1]})
    outside = RateTuple.from_pairs(2, {(1, 2): (1.0 + v) * fwd, (2, 1): u[2]})
    return inside, outside
