"""The four benchmark workloads.

Every workload is a closed loop: one process, one client, one task at a
time.  A workload has

* ``prepare()``: the one-time work a user pays before the first task; it is
  timed into setup_s, ``prepare_repeats`` times, and the median counts;
* ``references()``: what the output checks compare against; not timed;
* ``cycle(c)``: the tasks of round c of the mix.  The runner repeats whole
  rounds until the run time is used and at least ``min_rounds`` have run,
  so every run holds the same mix.

A task's ``check`` returns None when its output is right and the reason
otherwise; a task that raises or fails its check counts toward fail_frac.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

# Calls go through module attributes, so a traced run sees them wrapped.
from zdmn import bounds, networks, polar, probability, simulate
from zdmn.model import DelayProfile, save_spec

import inputs
import oracle

CAP_TOL = 1e-9        # a reported cap may exceed its reference by this much
ACCEPT_TOL = 0.01     # acceptance 2 and 3: grid caps within 0.01 of the closed forms
EXACT_TOL = 1e-9      # acceptance 4 and 5: worst L1 and worst conditional MI
BINOMIAL_Z = 6.0      # width of the interval around the exact error probability


@dataclass
class Task:
    label: str
    units: int
    call: Callable[[], object]
    check: Callable[[object], "str | None"]


class Workload:
    """Defaults: cheap one-time work timed three times, one round at least,
    times at the reference host speed (hostspeed.py), no references, no
    workload-specific layer metrics."""

    prepare_repeats = 3
    min_rounds = 1
    host_adjusted = True

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def prepare(self) -> None:
        pass

    def references(self) -> None:
        pass

    def layer_metrics(self) -> dict:
        return {}


class ForwardCode(Workload):
    """The masked-feedback scheme at the acceptance-1 point.

    One task is one ``bscfb_scheme(..., trials=200)`` call with its own
    seed.  The polar code (n=2000, k=800, L=16, CRC-16) is built once in
    set-up, as every ``zdmn bscfb`` run builds it; its construction takes
    seconds, so set-up runs once per benchmark run.

    Its times stay as measured.  The list decoder works on arrays of about
    100 MB, and when the host slows down it slows about a third as much as
    the host-speed probe does (slope 0.3 of log decode time on log probe
    time, 63 paired samples), so scaling by the probe added more spread
    than it took away.
    """

    name = "forward-code"
    unit = "blocks"
    prepare_repeats = 1
    host_adjusted = False
    EPS, N, RATE, TRIALS = 0.11, 2000, 0.4, 200
    K = 800                      # floor(RATE * N), the code bscfb_scheme builds

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.blocks = 0
        self.blocks_ok = 0

    def prepare(self) -> None:
        polar.PolarCode(self.N, self.K, self.EPS)

    def cycle(self, c: int) -> list[Task]:
        seed = inputs.derive_seed(self.seed, "task", c)
        return [Task("bscfb_scheme", self.TRIALS,
                     lambda: simulate.bscfb_scheme(self.EPS, self.N, self.RATE, seed=seed,
                                          trials=self.TRIALS),
                     self._check)]

    def _check(self, res) -> "str | None":
        fwd, rev = res.report.pairs[(1, 2)], res.report.pairs[(2, 1)]
        self.blocks += fwd.trials
        self.blocks_ok += fwd.trials - fwd.errors
        if rev.errors != 0:
            return f"{rev.errors} reverse errors, exactly 0 required"
        if not fwd.estimate < 0.1:
            return f"forward error rate {fwd.estimate} not below 0.1"
        return None

    def layer_metrics(self) -> dict:
        return {"polar.block_ok_frac": self.blocks_ok / self.blocks if self.blocks else 0.0}


def relay_error_probabilities(seed: int) -> dict:
    """Exact per-pair error probability of the engine's causal-relay code,
    from its induced joint (about 4.2M cells)."""
    spec, code = inputs.engine_cases(seed)["relay"]
    joint = simulate.induced_joint(spec, code)
    pairs = code.message_pairs()
    w_names = [f"W{i}.{j}" for (i, j) in pairs]
    out = {}
    for (i, j) in pairs:
        y_names = [f"Y{j}.{k}" for k in range(1, code.n + 1)]
        marg = probability.marginalize(joint, w_names + y_names).as_array()
        err = 0.0
        for cell, p in zip(itertools.product(*map(range, marg.shape)), marg.reshape(-1)):
            if p <= 0.0:
                continue
            messages = dict(zip(pairs, cell[:len(pairs)]))
            est = code.decode(i, j, code.w_row_of(j, messages), cell[len(pairs):])
            if est != messages[(i, j)]:
                err += float(p)
        out[(i, j)] = err
    return out


class Engine(Workload):
    """``estimate_error`` on seeded random table codes at n=4.

    Large calls (2,000 trials) alternate between the bundled causal relay
    (profile 1,0,1) and the seeded ternary network (profile 1,0,0); small
    calls (25 trials, the CLI acceptance size) outnumber them, six per case
    per round.  Large calls set the throughput, small calls the median.
    """

    name = "engine"
    unit = "trials"
    LARGE, SMALL, SMALL_PER_CASE = 2000, 25, 6

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.cases = None
        self.exact = None
        self.seen: dict = {}

    def prepare(self) -> None:
        self.cases = inputs.engine_cases(self.seed)

    def references(self) -> None:
        # In a child process, so the 4.2M-cell joint stays out of peak RSS.
        code = ("import json, sys, workloads; json.dump([[*p, v] for p, v in "
                f"workloads.relay_error_probabilities({self.seed}).items()], sys.stdout)")
        here = os.path.dirname(os.path.abspath(__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [here, *filter(None, [os.environ.get("PYTHONPATH")])])}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              check=True, timeout=150, env=env)
        self.exact = {(i, j): p for i, j, p in json.loads(proc.stdout)}

    def _task(self, case: str, trials: int, seed: int) -> Task:
        spec, code = self.cases[case]
        check = self._check_relay if case == "relay" else self._check_repeat
        return Task(f"estimate_error {case} {trials}", trials,
                    lambda: simulate.estimate_error(spec, code, trials, seed),
                    lambda rep: check(rep, trials, seed))

    def cycle(self, c: int) -> list[Task]:
        d = inputs.derive_seed
        tasks = [self._task("relay", self.LARGE, d(self.seed, "task", 0, c))]
        for j in range(self.SMALL_PER_CASE):
            tasks.append(self._task("relay", self.SMALL, d(self.seed, "task", 1, c, j)))
            # ternary seeds come in pairs, so every second call repeats one
            tasks.append(self._task("ternary", self.SMALL,
                                    d(self.seed, "task", 3, c, j // 2)))
        tasks.append(self._task("ternary", self.LARGE, d(self.seed, "task", 2, c // 2)))
        return tasks

    def _check_relay(self, rep, trials: int, _seed: int) -> "str | None":
        for pair, stats in rep.pairs.items():
            p = self.exact[pair]
            width = BINOMIAL_Z * math.sqrt(trials * p * (1.0 - p)) + 1.0
            if abs(stats.errors - trials * p) > width:
                return (f"pair {pair}: {stats.errors}/{trials} errors, exact "
                        f"probability {p:.6f}")
        return None

    def _check_repeat(self, rep, trials: int, seed: int) -> "str | None":
        counts = tuple(sorted((p, s.errors) for p, s in rep.pairs.items()))
        first = self.seen.setdefault((trials, seed), counts)
        return None if first == counts else f"seed {seed} gave {counts}, before {first}"


class Exact(Workload):
    """Exact-enumeration queries, the same list every round:

    * ``grid_hull`` on bscfb at eps 0.05, 0.11, 0.25, both modes, k=8;
    * ``grid_hull`` on the causal relay, capacity mode, k=12;
    * ``grid_hull`` on the seeded ternary network, positive-delay mode, k=4;
    * ``region_membership`` on bscfb(0.11), capacity mode, k=8, for a seeded
      tuple inside the region and one outside it;
    * ``equivalence_check`` plus both Markov checks, one query per code of
      the acceptance 4/5 set: 10 seeded unit-delay codes per bundled network
      and n in {1, 2}.

    The 80 enumeration queries of a round outnumber the 10 others, and the
    grid scans set the throughput.  The first round runs about 10% slower
    (fresh memory for the grid arrays); three rounds at least keep its share
    of the run small.
    """

    name = "exact"
    unit = "queries"
    min_rounds = 3
    EPS_SET = (0.05, 0.11, 0.25)
    MODES = ("capacity", "positive-delay")

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.gap = -math.inf

    def prepare(self) -> None:
        self.bscfb = {eps: networks.bscfb_spec(eps) for eps in self.EPS_SET}
        self.relay = networks.causal_relay_spec()
        self.ternary = inputs.ternary_network(self.seed)
        self.codes = inputs.enumeration_codes(self.seed)
        self.inside, self.outside = inputs.membership_rates(self.seed)
        self.member_spec = networks.bscfb_spec(inputs.MEMBERSHIP_EPS)

    def references(self) -> None:
        self.refs = {("bscfb", eps, mode): oracle.bscfb_reference(eps, mode)
                     for eps in self.EPS_SET for mode in self.MODES}
        self.refs[("ternary",)] = {cut: upper for cut, (_lo, upper)
                                   in oracle.positive_delay_reference(self.ternary).items()}

    def cycle(self, c: int) -> list[Task]:
        tasks = []
        for eps in self.EPS_SET:
            for mode in self.MODES:
                tasks.append(self._hull(f"grid_hull bscfb {mode}", self.bscfb[eps], mode, 8,
                                        ("bscfb", eps, mode)))
        tasks.append(self._hull("grid_hull causal-relay capacity", self.relay,
                                "capacity", 12, None))
        tasks.append(self._hull("grid_hull ternary positive-delay", self.ternary,
                                "positive-delay", 4, ("ternary",)))
        for rates, want in ((self.inside, "inside"), (self.outside, "not-found")):
            tasks.append(Task(
                f"region_membership {want}", 1,
                lambda rates=rates: bounds.region_membership(self.member_spec, rates,
                                                             "capacity", 8),
                lambda res, want=want: None if res.verdict.startswith(want)
                else f"verdict {res.verdict}, want {want}"))
        for name, spec, code in self.codes:
            tasks.append(Task(f"enumeration {name} n={code.n}", 1,
                              lambda spec=spec, code=code: _enumeration(spec, code),
                              _check_enumeration))
        return tasks

    def _hull(self, label, spec, mode, k, ref_key) -> Task:
        return Task(label, 1, lambda: bounds.grid_hull(spec, mode, k),
                    lambda res: self._check_hull(res, mode, ref_key))

    def _check_hull(self, res, mode, ref_key) -> "str | None":
        if ref_key is None:
            return None
        ref = self.refs[ref_key]
        for c in res[0]:
            want = ref[c.cut.nodes.members]
            self.gap = max(self.gap, want - c.cap)
            if c.cap > want + CAP_TOL:
                return f"cut {c.cut.nodes.members}: cap {c.cap} above reference {want}"
            if ref_key[0] == "bscfb":
                # acceptance 2 (capacity mode) and 3 (positive-delay mode)
                if mode == "capacity" and abs(c.cap - want) > ACCEPT_TOL:
                    return f"cut {c.cut.nodes.members}: cap {c.cap} not within 0.01 of {want}"
                if mode == "positive-delay" and c.cap > ref[(1,)] + ACCEPT_TOL:
                    return f"cut {c.cut.nodes.members}: cap {c.cap} above 1-H(eps)+0.01"
        return None

    def layer_metrics(self) -> dict:
        return {"bounds.gap_bits": self.gap}


def _enumeration(spec, code):
    l1 = simulate.equivalence_check(spec, code)
    cmi = [v for (_k, _h, v) in simulate.check_memoryless_markov(spec, code)]
    cmi += [v for (_k, _h, v) in simulate.check_positive_delay_markov(spec, code)]
    return l1, max(cmi)


def _check_enumeration(res) -> "str | None":
    l1, cmi = res
    if l1 > EXACT_TOL:
        return f"L1 {l1} above {EXACT_TOL}"
    if cmi > EXACT_TOL:
        return f"conditional MI {cmi} above {EXACT_TOL}"
    return None


class Cli(Workload):
    """The ten acceptance-8 commands, each run twice as subprocesses, one at
    a time.  A command passes when it exits with 0 and its stdout and written
    files are byte-identical across both runs."""

    name = "cli"
    unit = "commands"
    prepare_repeats = 0          # set-up is a bare `import zdmn`

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.first: dict = {}

    def references(self) -> None:
        w = self.workdir

        def d(j: int) -> str:
            return str(inputs.derive_seed(self.seed, "cli", j) % 1000)

        spec_f, code_f = f"{w}/net.json", f"{w}/code.json"
        spec = networks.bscfb_spec(0.11)
        save_spec(spec, spec_f)
        code = simulate.random_table_code(spec, 1, DelayProfile.of((1, 1)),
                                          seed=inputs.derive_seed(self.seed, "cli", 0))
        simulate.save_code(code, code_f)
        trace_f, gspec_f, gcode_f = f"{w}/trace.csv", f"{w}/gen_spec.json", f"{w}/gen_code.json"
        self.commands = [
            (["validate", "--spec", spec_f], ()),
            (["feasible", "--spec", spec_f, "--all"], ()),
            (["feasible", "--spec", spec_f, "--profile", "1,0"], ()),
            (["bound", "--spec", spec_f, "--grid", "4", "--format", "json"], ()),
            (["bound", "--spec", spec_f, "--grid", "4", "--mode", "positive-delay",
              "--format", "csv"], ()),
            (["simulate", "--spec", spec_f, "--code", code_f, "--trials", "25",
              "--seed", d(1), "--trace-out", trace_f], (trace_f,)),
            (["bscfb", "--eps", "0.11", "--n", "64", "--rate", "0.25",
              "--trials", "30", "--seed", d(2)], ()),
            (["gaussian", "--power", "5", "--experiment", "--n", "8",
              "--blocks", "20", "--trials", "10", "--seed", d(3)], ()),
            (["generate", "spec", "--name", "causal-relay", "--out", gspec_f], (gspec_f,)),
            (["generate", "code", "--spec", spec_f, "--n", "1", "--seed", d(4),
              "--out", gcode_f], (gcode_f,)),
        ]

    def cycle(self, c: int) -> list[Task]:
        tasks = []
        for ci, (argv, written) in enumerate(self.commands):
            for run in range(2):
                tasks.append(Task(f"cli {argv[0]}", 1,
                                  lambda argv=argv: subprocess.run(
                                      [sys.executable, "-m", "zdmn.cli", *argv],
                                      capture_output=True, timeout=150),
                                  lambda proc, key=(c, ci), run=run, written=written:
                                  self._check(proc, key, run, written)))
        return tasks

    def _check(self, proc, key, run, written) -> "str | None":
        if proc.returncode != 0:
            return f"exit code {proc.returncode}: {proc.stderr.decode(errors='replace')[-200:]}"
        files = []
        for f in written:
            with open(f, "rb") as fh:
                files.append(fh.read())
        out = (proc.stdout, tuple(files))
        if run == 0:
            self.first[key] = out
            return None
        return None if self.first[key] == out else "output differs between the two runs"


WORKLOADS = {w.name: w for w in (ForwardCode, Engine, Exact, Cli)}
