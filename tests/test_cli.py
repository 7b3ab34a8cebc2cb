"""Command-line interface: outputs, exit codes, determinism."""

import contextlib
import io
import json
import math
import re
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from zdmn import model, networks, polar, simulate
from zdmn.cli import EXIT_CAP, EXIT_DOMAIN, EXIT_IO, EXIT_OK, main


def _run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


@pytest.fixture()
def spec_path(tmp_path):
    path = tmp_path / "net.json"
    model.save_spec(networks.bscfb_spec(0.11), path)
    return str(path)


@pytest.fixture()
def code_path(tmp_path, spec_path, capsys):
    path = tmp_path / "code.json"
    rc, out, _ = _run(capsys, "generate", "code", "--spec", spec_path,
                      "--n", "1", "--seed", "0", "--out", str(path))
    assert rc == EXIT_OK and "wrote random table code" in out
    return str(path)


# ---------------------------------------------------------------------------
# validate / feasible


def test_validate_ok(capsys, spec_path):
    rc, out, err = _run(capsys, "validate", "--spec", spec_path)
    assert rc == EXIT_OK
    assert out == "spec OK: 2 nodes, 2 channels\n"
    assert err == ""


def test_validate_invalid_spec(capsys, tmp_path):
    # 0.9: the row no longer sums to one; NaN: every comparison with it is false
    for entry, why in ((0.9, "sums to"), (float("nan"), "non-finite")):
        d = model.spec_to_dict(networks.bscfb_spec(0.11))
        d["channels"][0]["rows"][0][0] = entry
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(d))
        rc, out, _ = _run(capsys, "validate", "--spec", str(path))
        assert rc == EXIT_DOMAIN
        assert out.startswith("spec INVALID:")
        assert "- " in out and why in out


def test_infinite_channel_entries_print_no_warning(tmp_path):
    # inf + -inf in one row sums to NaN; numpy's warning must not reach stderr
    d = model.spec_to_dict(networks.bscfb_spec(0.11))
    d["channels"][1]["rows"][0] = [float("inf"), float("-inf")]
    path = tmp_path / "inf.json"
    path.write_text(json.dumps(d))
    runs = {cmd: subprocess.run([sys.executable, "-m", "zdmn.cli", cmd, "--spec", str(path)],
                                capture_output=True, text=True, timeout=300)
            for cmd in ("validate", "bound")}
    for proc in runs.values():
        assert proc.returncode == EXIT_DOMAIN and "Warning" not in proc.stderr
    assert runs["validate"].stdout.startswith("spec INVALID:")
    bound_err = runs["bound"].stderr
    assert bound_err.startswith("error: ") and bound_err.count("\n") == 1


def _set(d, path, value):
    for key in path[:-1]:
        d = d[key]
    d[path[-1]] = value


@pytest.mark.parametrize("path,value", [
    (("n_nodes",), 2.9), (("alpha",), 2.2), (("alpha",), True),
    (("input_alphabets", 0), 2.5), (("output_alphabets", 1), "2"),
    (("input_partition", 0, 0), 1.7), (("output_partition", 1, 0), True)])
def test_validate_non_integer_field_is_an_io_error(capsys, tmp_path, path, value):
    # each used to be truncated by int() and the spec then validated OK
    d = model.spec_to_dict(networks.bscfb_spec(0.11))
    _set(d, path, value)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(d))
    rc, out, err = _run(capsys, "validate", "--spec", str(bad))
    assert rc == EXIT_IO and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_validate_missing_file(capsys, tmp_path):
    rc, out, err = _run(capsys, "validate", "--spec", str(tmp_path / "nope.json"))
    assert rc == EXIT_IO
    assert out == "" and err.startswith("error: ")


def test_validate_unparseable_file(capsys, tmp_path):
    path = tmp_path / "bad.json"
    for content in (b'{"n_nodes": 2, "input_alphabet_sizes": [2',
                    b'{"n_nodes": "\xe9"}',  # not UTF-8
                    b"[" * 100000 + b"]" * 100000):  # deeper than the parser recurses
        path.write_bytes(content)
        rc, out, err = _run(capsys, "validate", "--spec", str(path))
        assert rc == EXIT_IO and out == ""
        assert err.startswith("error: cannot read spec file") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("bound", "--spec", "{spec}", "--grid", "2", "--out", "{out}"),
    ("simulate", "--spec", "{spec}", "--code", "{code}", "--trials", "5",
     "--trace-out", "{out}"),
    ("generate", "spec", "--name", "bscfb", "--out", "{out}"),
    ("generate", "code", "--spec", "{spec}", "--out", "{out}")])
def test_write_into_missing_directory(capsys, tmp_path, spec_path, code_path, argv):
    out_path = str(tmp_path / "missing" / "out.txt")
    argv = [a.format(spec=spec_path, code=code_path, out=out_path) for a in argv]
    rc, out, err = _run(capsys, *argv)
    assert rc == EXIT_IO and out == ""
    assert err.startswith("error: cannot write") and err.count("\n") == 1


def test_feasible_single_profiles(capsys, spec_path):
    rc, out, _ = _run(capsys, "feasible", "--spec", spec_path, "--profile", "1,0")
    assert rc == EXIT_OK and out == "profile 1,0: feasible\n"
    rc, out, _ = _run(capsys, "feasible", "--spec", spec_path, "--profile", "0,1")
    assert rc == EXIT_OK and out == "profile 0,1: infeasible\n"


def test_feasible_listing(capsys, spec_path):
    rc, out, _ = _run(capsys, "feasible", "--spec", spec_path, "--all")
    assert rc == EXIT_OK
    lines = out.strip().split("\n")
    assert lines[0] == "feasible profiles (2 of 4 candidates):"
    assert lines[1:] == ["1,0", "1,1"]


def test_feasible_listing_over_cap(capsys, tmp_path, one_letter_spec):
    path = tmp_path / "wide.json"
    n = model.PROFILE_CAP.bit_length()
    model.save_spec(one_letter_spec(n), path)
    rc, out, err = _run(capsys, "feasible", "--spec", str(path), "--all")
    assert rc == EXIT_CAP and out == ""
    assert err == (f"error: {n} nodes give 2^{n} delay profiles, "
                   f"above the cap of {model.PROFILE_CAP}\n")


def test_feasible_malformed_profile(capsys, spec_path):
    rc, _, err = _run(capsys, "feasible", "--spec", spec_path, "--profile", "2,0")
    assert rc == EXIT_DOMAIN and err.startswith("error: ")


# ---------------------------------------------------------------------------
# bound


def test_bound_text_output(capsys, spec_path):
    rc, out, _ = _run(capsys, "bound", "--spec", spec_path, "--grid", "4")
    assert rc == EXIT_OK
    assert "mode: capacity" in out
    assert "grid resolution: 4" in out
    assert "distributions searched: " in out
    assert "cut 10 T={1}: " in out and "cut 01 T={2}: " in out


def test_bound_csv_formats_by_mode(capsys, spec_path):
    rc, out, _ = _run(capsys, "bound", "--spec", spec_path, "--grid", "4",
                      "--format", "csv", "--cut", "10")
    assert rc == EXIT_OK
    lines = out.strip().split("\n")
    assert lines[0] == "cut,term_1,term_2,cap"
    assert len(lines) == 2 and lines[1].startswith("10,")
    rc, out, _ = _run(capsys, "bound", "--spec", spec_path, "--grid", "4",
                      "--mode", "positive-delay", "--format", "csv")
    lines = out.strip().split("\n")
    assert lines[0] == "cut,term_1,cap"  # single-term bound in this mode
    assert len(lines) == 3


def test_bound_json_and_out_file(capsys, tmp_path, spec_path):
    dest = tmp_path / "hull.json"
    rc, out, _ = _run(capsys, "bound", "--spec", spec_path, "--grid", "2",
                      "--format", "json", "--out", str(dest))
    assert rc == EXIT_OK and out == ""
    payload = json.loads(dest.read_text())
    assert payload["mode"] == "capacity"
    assert payload["grid_resolution"] == 2
    assert {h["cut"] for h in payload["hull"]} == {"10", "01"}
    for h in payload["hull"]:
        assert abs(sum(h["terms"]) - h["cap"]) < 1e-5


def test_bound_rejects_improper_cut(capsys, spec_path):
    rc, _, err = _run(capsys, "bound", "--spec", spec_path, "--grid", "2",
                      "--cut", "11")
    assert rc == EXIT_DOMAIN and err.startswith("error: ")


def test_bound_distribution_cap(capsys, spec_path):
    # 31^5 = 28629151 grid points of bscfb at k = 30, above POINT_CAP
    rc, out, err = _run(capsys, "bound", "--spec", spec_path, "--grid", "30")
    assert rc == EXIT_CAP and out == ""
    assert err == "error: grid has 28629151 distributions, above the cap 10000000\n"


def test_bound_point_count_beyond_int64(capsys, spec_path):
    # 7001^5 points: the exact count is refused before any int64 index exists
    rc, out, err = _run(capsys, "bound", "--spec", spec_path, "--grid", "7000")
    assert rc == EXIT_CAP and out == ""
    assert err.startswith(f"error: grid has {7001 ** 5} distributions") and err.count("\n") == 1


def test_bound_grid_cell_cap(capsys, tmp_path, binary_chain_spec):
    # 512 grid points whose scan batch of D = 2^18 joints would need 1.6 GB
    path = tmp_path / "chain.json"
    model.save_spec(binary_chain_spec(9), path)
    rc, out, err = _run(capsys, "bound", "--spec", str(path),
                        "--mode", "positive-delay", "--grid", "1")
    assert rc == EXIT_CAP and out == ""
    assert err.startswith("error: grid needs ") and err.count("\n") == 1


def test_bound_rejects_nonpositive_grid(capsys, spec_path):
    for k in ("0", "-3"):
        rc, out, err = _run(capsys, "bound", "--spec", spec_path, "--grid", k)
        assert rc == EXIT_DOMAIN and out == ""
        assert err == f"error: grid resolution k must be >= 1, got {k}\n"


# ---------------------------------------------------------------------------
# simulate


def test_simulate_reports_and_traces(capsys, tmp_path, spec_path, code_path):
    trace_file = tmp_path / "trace.csv"
    rc, out, _ = _run(capsys, "simulate", "--spec", spec_path, "--code", code_path,
                      "--trials", "20", "--seed", "3",
                      "--trace-out", str(trace_file))
    assert rc == EXIT_OK
    assert out.startswith("trials: 20  seed: 3\n")
    assert "P_1->2: " in out and "P_2->1: " in out
    lines = trace_file.read_text().strip().split("\n")
    assert lines[0] == "slot,node,X,Y"
    assert len(lines) == 3  # one slot, two nodes


def test_simulate_deterministic(capsys, spec_path, code_path):
    args = ("simulate", "--spec", spec_path, "--code", code_path,
            "--trials", "15", "--seed", "9")
    rc1, out1, _ = _run(capsys, *args)
    rc2, out2, _ = _run(capsys, *args)
    assert rc1 == rc2 == EXIT_OK
    assert out1 == out2


def test_simulate_missing_code(capsys, tmp_path, spec_path):
    rc, _, err = _run(capsys, "simulate", "--spec", spec_path,
                      "--code", str(tmp_path / "nocode.json"))
    assert rc == EXIT_IO and err.startswith("error: ")


def test_simulate_threads_flag_is_gone(capsys, spec_path, code_path):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--spec", spec_path, "--code", code_path, "--threads", "2"])
    assert exc.value.code == EXIT_IO  # argparse usage error
    assert "--threads" in capsys.readouterr().err


@pytest.fixture()
def relay_files(tmp_path, capsys):
    """The causal relay and a random n=2 table code for it, written by the CLI."""
    spec_f, code_f = str(tmp_path / "relay.json"), str(tmp_path / "code.json")
    assert _run(capsys, "generate", "spec", "--name", "causal-relay",
                "--out", spec_f)[0] == EXIT_OK
    assert _run(capsys, "generate", "code", "--spec", spec_f, "--n", "2",
                "--out", code_f)[0] == EXIT_OK
    return spec_f, code_f


def _narrow_encoder(d):
    d["encoders"][0]["tables"][0] = [[0]]


def _narrow_decoder(d):
    d["decoders"][0]["table"] = [[0]]


def _drop_slot_table(d):
    d["encoders"][1]["tables"].pop()


def _huge_message_size(d):
    d["message_sizes"][0][1] = 10 ** 30


def _drop_decoder_pair(d):
    d["decoders"].pop(2)


def _wrong_output_sizes(d):
    d["output_sizes"] = [1, 1, 1]


def _delay_bit_minus_one(d):
    d["delay_profile"][0] = -1  # |Y_1| = 1, so every table keeps its shape


def _delay_bit_two(d):
    d["delay_profile"][0] = 2


@pytest.mark.parametrize("edit", [_wrong_output_sizes, _narrow_encoder,
                                  _narrow_decoder, _drop_slot_table,
                                  _huge_message_size, _drop_decoder_pair,
                                  _delay_bit_minus_one, _delay_bit_two])
def test_simulate_malformed_code_is_a_domain_error(capsys, tmp_path, relay_files, edit):
    spec_f, code_f = relay_files
    with open(code_f, encoding="utf-8") as fh:
        d = json.load(fh)
    edit(d)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(d))
    rc, out, err = _run(capsys, "simulate", "--spec", spec_f, "--code", str(bad),
                        "--trials", "5")
    assert rc == EXIT_DOMAIN and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def _encoder_node_zero(d):
    d["encoders"][-1]["node"] = 0  # read as the last node at the parent


def _encoder_node_repeated(d):
    d["encoders"].append(d["encoders"][0])


def _fractional_table_entry(d):
    d["encoders"][0]["tables"][0][0][0] = 0.7  # truncated to 0 at the parent


def _boolean_table_entry(d):
    d["decoders"][0]["table"][0][0] = True


def _decoder_pair_repeated(d):
    d["decoders"].append(d["decoders"][0])


def _decoder_source_out_of_range(d):
    d["decoders"].append(dict(d["decoders"][0], source=9))  # ignored at the parent


def _fractional_blocklength(d):
    d["n"] = 2.0


def _fractional_delay_bit(d):
    d["delay_profile"][0] = 0.5


@pytest.mark.parametrize("edit", [_encoder_node_zero, _encoder_node_repeated,
                                  _fractional_table_entry, _boolean_table_entry,
                                  _decoder_pair_repeated, _decoder_source_out_of_range,
                                  _fractional_blocklength, _fractional_delay_bit])
def test_simulate_misread_code_is_an_io_error(capsys, tmp_path, relay_files, edit):
    spec_f, code_f = relay_files
    with open(code_f, encoding="utf-8") as fh:
        d = json.load(fh)
    edit(d)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(d))
    rc, out, err = _run(capsys, "simulate", "--spec", spec_f, "--code", str(bad),
                        "--trials", "5")
    assert rc == EXIT_IO and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_simulate_unreachable_out_of_range_symbol(capsys, tmp_path):
    # identity network, n=2: node 1 sends 0 in slot 1, so the 7 in its slot-2
    # column for a received 1 is never reached, and is still refused
    spec_f, code_f = tmp_path / "det.json", tmp_path / "rogue.json"
    spec = networks.bundled_spec("deterministic")
    model.save_spec(spec, spec_f)
    d = simulate.code_to_dict(simulate.random_table_code(
        spec, 2, model.DelayProfile.all_one(2), seed=0))
    first, second = d["encoders"][0]["tables"]
    d["encoders"][0]["tables"] = [[[0] for _ in first], [[r[0], 7] for r in second]]
    code_f.write_text(json.dumps(d))
    rc, out, err = _run(capsys, "simulate", "--spec", str(spec_f), "--code", str(code_f),
                        "--trials", "5")
    assert rc == EXIT_DOMAIN and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "node 1, slot 2" in err


def test_generate_code_over_cell_cap(capsys, tmp_path, relay_files):
    spec_f, _ = relay_files
    out_f = tmp_path / "big.json"
    tracemalloc.start()
    try:
        rc, out, err = _run(capsys, "generate", "code", "--spec", spec_f,
                            "--n", "40", "--out", str(out_f))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rc == EXIT_CAP and out == "" and not out_f.exists()
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(simulate.CODE_CELL_CAP) in err
    assert peak < 2 ** 20  # the cap is checked before any table is drawn


@pytest.mark.parametrize("argv", [
    ("simulate", "--spec", "{spec}", "--code", "{code}", "--trials", "5"),
    ("bscfb", "--eps", "0.11", "--n", "16", "--rate", "0.25", "--trials", "5"),
    ("gaussian", "--power", "5", "--experiment", "--n", "8", "--blocks", "2",
     "--trials", "2"),
    ("generate", "code", "--spec", "{spec}", "--n", "1", "--out", "{out}"),
], ids=lambda argv: " ".join(argv[:2]) if argv[0] == "generate" else argv[0])
def test_negative_seed_is_a_domain_error(capsys, tmp_path, spec_path, code_path, argv):
    paths = {"spec": spec_path, "code": code_path, "out": str(tmp_path / "out.json")}
    rc, out, err = _run(capsys, *[a.format(**paths) for a in argv], "--seed", "-1")
    assert rc == EXIT_DOMAIN and out == "" and not (tmp_path / "out.json").exists()
    assert err == "error: seed must be >= 0, got -1\n"


def test_trial_counts_over_uniform_cap(capsys, spec_path, code_path):
    for argv in (("simulate", "--spec", spec_path, "--code", code_path),
                 ("bscfb", "--eps", "0.11", "--n", "64")):
        rc, out, err = _run(capsys, *argv, "--trials", "1000000000000")
        assert rc == EXIT_CAP and out == ""
        assert err.startswith("error: 1000000000000 trials of ") and err.count("\n") == 1
        assert str(simulate.UNIFORM_CAP) in err


# ---------------------------------------------------------------------------
# the two worked examples


def test_bscfb_command_small(capsys):
    args = ("bscfb", "--eps", "0.11", "--n", "64", "--rate", "0.25",
            "--trials", "30", "--seed", "1")
    rc, out, _ = _run(capsys, *args)
    assert rc == EXIT_OK
    assert out.startswith("eps: 0.110000  n: 64  forward bits: 16\n")
    assert "P_2->1: 0/30 = 0.000000" in out
    assert "achieved rates: forward 0.250000, reverse 1.000000" in out
    rc2, out2, _ = _run(capsys, *args)
    assert out2 == out


def test_bscfb_rate_above_capacity(capsys):
    rc, _, err = _run(capsys, "bscfb", "--eps", "0.11", "--n", "64",
                      "--rate", "0.75", "--trials", "5")
    assert rc == EXIT_DOMAIN and err.startswith("error: ")


def test_bscfb_nan_rate_is_a_domain_error(capsys):
    rc, out, err = _run(capsys, "bscfb", "--eps", "0.11", "--n", "64",
                        "--rate", "nan", "--trials", "5")
    assert rc == EXIT_DOMAIN and out == ""
    assert err == "error: forward rate must be positive, got nan\n"


def test_bscfb_blocklength_over_cap(capsys):
    n = polar.MAX_N + 1
    tracemalloc.start()
    try:
        rc, out, err = _run(capsys, "bscfb", "--eps", "0.11", "--n", str(n))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rc == EXIT_CAP and out == ""
    assert err == f"error: blocklength {n} is above the cap of {polar.MAX_N}\n"
    assert peak < 2 ** 20  # nothing of size n was allocated


def test_bscfb_blocklength_past_the_float_range():
    # forward_rate * n overflows a float once n passes about 1.8e308
    n = 10 ** 400
    proc = subprocess.run([sys.executable, "-m", "zdmn.cli", "bscfb", "--eps", "0.11",
                           "--n", str(n)], capture_output=True, text=True, timeout=300)
    assert proc.returncode == EXIT_CAP and proc.stdout == ""
    assert proc.stderr == f"error: blocklength {n} is above the cap of {polar.MAX_N}\n"


def test_gaussian_report_only(capsys):
    rc, out, _ = _run(capsys, "gaussian", "--power", "5")
    assert rc == EXIT_OK
    assert "positive-delay cap:   1.160964 bits/slot" in out
    assert "zero-delay rate:      1.729716 bits/slot" in out
    assert "separated:            yes" in out
    assert "exceeds cap:          yes" in out
    assert "gate-open frequency" not in out


def test_gaussian_non_finite_power(capsys):
    for power in ("nan", "inf"):
        rc, out, err = _run(capsys, "gaussian", "--power", power)
        assert rc == EXIT_DOMAIN and out == ""
        assert err == f"error: power must be positive and finite, got {power}\n"
    # 2P, and at n = 16 the experiment's sums of squares, would overflow to inf
    for argv, why in ((["1e308"], "power 1e+308 overflows 2P"),
                      (["1e307", "--experiment"], "power P=1e+307 (back-off 0.5) over 16 slots")):
        rc, out, err = _run(capsys, "gaussian", "--power", *argv)
        assert rc == EXIT_DOMAIN and out == ""
        assert err.startswith(f"error: {why}") and err.count("\n") == 1


def test_removed_options_are_usage_errors(capsys, spec_path):
    for argv in (("bound", "--spec", spec_path, "--max-distributions", "10"),
                 ("gaussian", "--power", "5", "--experiment", "--cap", "2"),
                 ("gaussian", "--power", "5", "--experiment", "--method", "redraw")):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == "", argv
        assert err.count("error:") == 1


def test_gaussian_experiment(capsys):
    args = ("gaussian", "--power", "5", "--experiment", "--n", "8",
            "--blocks", "20", "--trials", "10", "--seed", "2")
    rc, out, _ = _run(capsys, *args)
    assert rc == EXIT_OK
    assert "gate-open frequency:  " in out and "(20 blocks, n=8)" in out
    assert "codebook: M=" in out
    rc2, out2, _ = _run(capsys, *args)
    assert out2 == out


def test_gaussian_cell_caps(capsys):
    for extra in (("--n", "64", "--trials", "100000000"),
                  ("--n", "4096", "--rate", "0.004", "--trials", "2",
                   "--method", "exhaustive"),
                  ("--n", "100000000")):  # the relay's 3n-wide block window
        rc, out, err = _run(capsys, "gaussian", "--power", "5", "--experiment",
                            "--blocks", "2", *extra)
        assert rc == EXIT_CAP and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


def test_gaussian_codebook_cap(capsys):
    # 2^22 codewords of length 8 fit CELL_CAP but not CODEBOOK_CAP
    rc, out, err = _run(capsys, "gaussian", "--power", "5", "--experiment",
                        "--n", "8", "--rate", "2.75",
                        "--method", "exhaustive", "--trials", "5")
    assert rc == EXIT_CAP and out == ""
    assert err == "error: codebook too large: 4194304 codewords > cap 1048576\n"


def test_gaussian_bad_delta_prints_nothing(capsys):
    rc, out, err = _run(capsys, "gaussian", "--power", "5", "--experiment",
                        "--delta", "7")
    assert rc == EXIT_DOMAIN and out == ""
    assert err.startswith("error: power back-off") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# generate


def test_generate_spec_roundtrips(capsys, tmp_path):
    for name in sorted(networks.BUNDLED):
        dest = tmp_path / f"{name}.json"
        rc, out, _ = _run(capsys, "generate", "spec", "--name", name,
                          "--out", str(dest))
        assert rc == EXIT_OK and f"wrote {name} network" in out
        rc, out, _ = _run(capsys, "validate", "--spec", str(dest))
        assert rc == EXIT_OK and out.startswith("spec OK")


def test_generate_spec_refuses_eps_of_parameterless_network(capsys, tmp_path):
    dest = tmp_path / "deterministic.json"
    rc, out, err = _run(capsys, "generate", "spec", "--name", "deterministic",
                        "--eps", "0.3", "--out", str(dest))
    assert rc == EXIT_DOMAIN and out == ""
    assert err == "error: network 'deterministic' takes no eps, got 0.3\n"
    assert not dest.exists()


def test_generate_code_respects_profile(capsys, tmp_path, spec_path):
    dest = tmp_path / "zd.json"
    rc, out, _ = _run(capsys, "generate", "code", "--spec", spec_path,
                      "--n", "2", "--profile", "1,0", "--out", str(dest))
    assert rc == EXIT_OK
    data = json.loads(dest.read_text())
    assert data["delay_profile"] == [1, 0]
    rc, _, err = _run(capsys, "generate", "code", "--spec", spec_path,
                      "--profile", "0,0", "--out", str(dest))
    assert rc == EXIT_DOMAIN and err.startswith("error: ")


@pytest.mark.parametrize("name", ["bscfb", "causal-relay"])
def test_generate_spec_negative_zero_eps(capsys, tmp_path, name):
    # eps = -0.0 puts -0.0 in two table cells unless the table normalises it
    files = []
    for eps in ("0", "-0.0"):
        dest = tmp_path / f"eps{eps}.json"
        rc, _, _ = _run(capsys, "generate", "spec", "--name", name, "--eps", eps,
                        "--out", str(dest))
        assert rc == EXIT_OK
        files.append(dest.read_bytes())
    assert files[0] == files[1] and b"-0.0" not in files[1]


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bound"])  # missing required --spec
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["generate", "spec", "--name", "unknown", "--out", "x.json"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# contract: every argv ends in finite output or one error


_FLOATS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308, 1e307, 1e-300, -1.0, 0.0]),
    st.floats(0.0, 10.0), st.floats())
_COUNTS = st.one_of(st.integers(-2, 6), st.integers(10 ** 8, 10 ** 30))
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?")


@pytest.fixture(scope="module")
def contract_spec(tmp_path_factory):
    path = tmp_path_factory.mktemp("contract") / "net.json"
    model.save_spec(networks.bscfb_spec(0.11), path)
    return str(path)


def _contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as e:  # argparse usage errors
            rc = e.code
    out, err = out.getvalue(), err.getvalue()
    if argv[0] == "validate" and out.startswith("spec INVALID:\n"):
        # a failed validation is the command's report, one line per violation
        assert rc == EXIT_DOMAIN and err == ""
        assert all(line.startswith("- ") for line in out.splitlines()[1:]), out
    elif rc == EXIT_OK:
        assert not re.search(r"(?i)\b(nan|inf|infinity)\b", out), out
        assert all(math.isfinite(float(x)) for x in _NUMBER.findall(out)), out
    else:
        assert rc in (EXIT_DOMAIN, EXIT_IO, EXIT_CAP), (rc, err)
        assert out == ""
        assert sum("error:" in line for line in err.splitlines()) == 1, err


@settings(derandomize=True, deadline=None, max_examples=60)
@given(grid=st.one_of(st.integers(1, 3), st.sampled_from([-2, 0, 30, 7000, 10 ** 40])),
       mode=st.sampled_from(["capacity", "positive-delay"]),
       fmt=st.sampled_from(["text", "csv", "json"]),
       removed=st.sampled_from([[], ["--max-distributions", "10"]]))
def test_bound_argv_contract(contract_spec, grid, mode, fmt, removed):
    _contract(["bound", "--spec", contract_spec, "--grid", str(grid), "--mode", mode,
               "--format", fmt] + removed)


@st.composite
def _gaussian_argv(draw):
    """A small valid run with a random subset of its numbers redrawn."""
    values = {"power": 5.0, "rate": 1.2, "delta": 0.5, "n": 4, "trials": 5, "blocks": 5}
    for name in draw(st.sets(st.sampled_from(sorted(values)), max_size=2)):
        values[name] = draw(_COUNTS if isinstance(values[name], int) else _FLOATS)
    # "--power=-1e+308": argparse reads a bare "-1e+308" as an option name
    argv = ["gaussian"] + [f"--{name}={value!r}" for name, value in values.items()]
    argv += ["--experiment"] * draw(st.booleans())
    extras = [[], ["--cap", "2"]] + [["--method", m]
                                     for m in ("auto", "exhaustive", "analytic", "redraw")]
    return argv + draw(st.sampled_from(extras))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(argv=_gaussian_argv())
def test_gaussian_argv_contract(argv):
    _contract(argv)


_HUGE_COUNTS = st.one_of(st.integers(-2, 6), st.sampled_from([10 ** 10, 10 ** 30]))


@pytest.fixture(scope="module")
def contract_code(contract_spec):
    """A random n=2 code for the contract network, as a dict, and a file path."""
    code = simulate.random_table_code(networks.bscfb_spec(0.11), 2,
                                      model.DelayProfile.all_one(2), seed=0)
    return simulate.code_to_dict(code), contract_spec.replace("net.json", "code.json")


def _write_edited(d, edit, path):
    """Write the dict `d` as JSON to `path` after one `_code_edit` or
    `_spec_edit` edit."""
    if edit is not None and edit[0] == "drop":
        del d[edit[1]]
    elif edit is not None:
        *keys, last = edit[0]
        target = d
        for key in keys:
            target = target[key]
        target[last] = edit[1]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(d, fh)


@st.composite
def _code_edit(draw):
    """Path (keys and indices) into a code dict and the value put there, or
    the key to drop; None leaves the code as it is."""
    return draw(st.one_of(
        st.none(),
        st.tuples(st.just("drop"), st.sampled_from(
            ["n", "message_sizes", "delay_profile", "input_sizes", "output_sizes",
             "encoders", "decoders"])),
        st.tuples(st.just(("delay_profile", 0)), st.sampled_from([-1, 2])),
        st.tuples(st.just(("delay_profile", 1)), st.sampled_from([-1, 0, 2])),
        st.tuples(st.sampled_from([("encoders", 0, "tables", 1, 0, 0),
                                   ("decoders", 1, "table", 0, 0)]),
                  st.sampled_from([-1, 2, 7, 2 ** 63])),
        st.tuples(st.sampled_from([("encoders", 1, "tables", 0), ("decoders", 0, "table"),
                                   ("encoders", 0, "tables")]),
                  st.sampled_from([[], [[0]], [[0, 1, 0]]])),
        st.tuples(st.sampled_from([("n",), ("message_sizes", 0, 1), ("output_sizes", 1)]),
                  st.sampled_from([0, 1, 3, 2 ** 60]))))


@settings(derandomize=True, deadline=None, max_examples=100)
@given(edit=_code_edit(), trials=_HUGE_COUNTS, seed=st.integers(-2, 3))
def test_simulate_argv_contract(contract_spec, contract_code, edit, trials, seed):
    good, path = contract_code
    _write_edited(json.loads(json.dumps(good)), edit, path)
    _contract(["simulate", "--spec", contract_spec, "--code", path,
               "--trials", str(trials), "--seed", str(seed)])


@st.composite
def _bscfb_argv(draw):
    """A small valid run with a random subset of its numbers redrawn."""
    values = {"eps": 0.11, "rate": 0.25, "n": 64, "trials": 5}
    redraw = {"eps": _FLOATS, "rate": _FLOATS, "trials": _HUGE_COUNTS,
              "n": st.one_of(st.integers(-2, 80),
                             st.sampled_from([polar.MAX_N + 1, 10 ** 30, 10 ** 400]))}
    for name in draw(st.sets(st.sampled_from(sorted(values)), max_size=2)):
        values[name] = draw(redraw[name])
    return ["bscfb"] + [f"--{name}={value!r}" for name, value in values.items()]


@settings(derandomize=True, deadline=None, max_examples=100)
@given(argv=_bscfb_argv())
def test_bscfb_argv_contract(argv):
    _contract(argv)


_SPEC_VALUES = [None, True, "2", -1, 0, 1, 3, 2 ** 63, 1e308, math.nan, math.inf, [], {}]


@st.composite
def _spec_edit(draw):
    """Path (keys and indices) into a spec dict and the value put there, or
    the key to drop; None leaves the spec as it is."""
    return draw(st.one_of(
        st.none(),
        st.tuples(st.just("drop"), st.sampled_from(
            ["n_nodes", "input_alphabets", "output_alphabets", "alpha",
             "input_partition", "output_partition", "channels"])),
        st.tuples(st.sampled_from([("n_nodes",), ("alpha",), ("input_alphabets", 0),
                                   ("output_alphabets", 1), ("input_partition", 0, 0),
                                   ("output_partition", 1), ("channels", 1),
                                   ("channels", 0, "rows"), ("channels", 0, "rows", 1),
                                   ("channels", 1, "rows", 3, 0)]),
                  st.sampled_from(_SPEC_VALUES)),
        st.tuples(st.sampled_from([("input_alphabets",), ("input_partition",),
                                   ("output_partition",), ("channels",)]),
                  st.sampled_from([[], [2], [[1, 2]], [[2], [1]], [[1], [1]], [2, 2, 2]]))))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(edit=_spec_edit(), command=st.sampled_from(
    [["validate"], ["feasible", "--all"], ["feasible", "--profile=1,0"], ["bound", "--grid=1"],
     ["generate", "code"]]))
# node counts and alphabets no list backs, each of which used to hang or crash
@example(edit=(("n_nodes",), 2 ** 63), command=["validate"])
@example(edit=(("n_nodes",), 2 ** 63), command=["feasible", "--all"])
@example(edit=(("n_nodes",), -1), command=["feasible", "--all"])
@example(edit=(("n_nodes",), 3), command=["generate", "code"])
@example(edit=(("input_alphabets", 0), 0), command=["generate", "code"])
def test_spec_file_contract(contract_spec, edit, command):
    path = contract_spec.replace("net.json", "edited.json")
    _write_edited(model.spec_to_dict(networks.bscfb_spec(0.11)), edit, path)
    if command[0] == "generate":
        command = command + ["--out", contract_spec.replace("net.json", "generated.json")]
    _contract(command + ["--spec", path])


@settings(derandomize=True, deadline=None, max_examples=60)
@given(profile=st.one_of(st.sampled_from(["1,0", "0,1", "1,1", "0,0", " 1 , 0", "1", "1,0,1",
                                          "2,1", "-1,0", "", ",", "1,,0", "nan,inf"]),
                         st.text(alphabet="01,- x", max_size=6)))
def test_feasible_profile_contract(contract_spec, profile):
    _contract(["feasible", "--spec", contract_spec, f"--profile={profile}"])


@st.composite
def _generate_argv(draw):
    """`generate spec` or `generate code` with a random subset of its
    parameters redrawn."""
    if draw(st.booleans()):
        argv = ["generate", "spec", f"--name={draw(st.sampled_from(sorted(networks.BUNDLED)))}"]
        if draw(st.booleans()):
            argv.append(f"--eps={draw(_FLOATS)!r}")
        return argv
    values = {"n": 1, "seed": 0, "message-size": 2}
    redraw = {"n": _HUGE_COUNTS, "seed": st.integers(-2, 3) | st.just(2 ** 64),
              "message-size": _HUGE_COUNTS}
    for name in draw(st.sets(st.sampled_from(sorted(values)), max_size=2)):
        values[name] = draw(redraw[name])
    argv = ["generate", "code"] + [f"--{name}={value}" for name, value in values.items()]
    profile = draw(st.sampled_from([None, "1,1", "1,0", "0,1", "0,0", "1", "2,0", ""]))
    return argv + ([] if profile is None else [f"--profile={profile}"])


@settings(derandomize=True, deadline=None, max_examples=100)
@given(argv=_generate_argv())
def test_generate_argv_contract(contract_spec, argv):
    out_path = contract_spec.replace("net.json", "generated.json")
    if argv[1] == "code":
        argv = argv + ["--spec", contract_spec]
    _contract(argv + ["--out", out_path])
