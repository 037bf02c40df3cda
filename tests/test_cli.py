"""Command line behavior: plumbing, exit codes, deterministic output."""

import dataclasses
import json
import os
import random
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rankcert.adversaries import ATTACKS
from rankcert.cli import COMPANIONS, EXIT_ABORT, EXIT_ACCEPT, EXIT_REJECT, main
from rankcert.elimination import (
    random_grp_matrix,
    random_nonsingular,
    random_rank_deficient,
    random_unit_lower,
)
from rankcert.field import PrimeField
from rankcert.matrix import dump_matrix, load_matrix, DenseMatrix
from rankcert.protocols import wire


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def matrices(tmp_path):
    paths = {}
    code = main(
        ["gen", "--kind", "rankdef", "--rows", "6", "--cols", "5", "--rank", "3",
         "--seed", "9", "--out", str(tmp_path / "a.txt")]
    )
    assert code == EXIT_ACCEPT
    paths["a"] = str(tmp_path / "a.txt")
    code = main(["gen", "--kind", "swap", "--rows", "4", "--out", str(tmp_path / "swap.txt")])
    assert code == EXIT_ACCEPT
    paths["swap"] = str(tmp_path / "swap.txt")
    code = main(["gen", "--kind", "identity", "--rows", "3", "--out", str(tmp_path / "eye.txt")])
    assert code == EXIT_ACCEPT
    paths["eye"] = str(tmp_path / "eye.txt")
    return paths


def test_gen_writes_the_text_format(matrices):
    with open(matrices["a"]) as fh:
        mat = load_matrix(fh.read())
    assert mat.shape == (6, 5)
    from rankcert.bruteforce import oracle_rank

    assert oracle_rank(mat) == 3


def test_gen_to_stdout(capsys):
    code, out, _ = run_cli(capsys, "gen", "--kind", "identity", "--rows", "2", "--modulus", "7")
    assert code == EXIT_ACCEPT
    assert out == "2 2 7\n1 0\n0 1\n"


def test_run_accepts_and_reports_json(matrices, capsys):
    code, out, _ = run_cli(
        capsys, "run", "crp", "--matrix", matrices["a"], "--seed", "5", "--json"
    )
    assert code == EXIT_ACCEPT
    payload = json.loads(out)
    assert payload["accepted"] is True
    assert payload["value"] == [0, 1, 2]
    assert payload["meter"]["verifier_matvecs"] == 2


def test_run_output_is_byte_identical_per_seed(matrices, capsys):
    outs = []
    for _ in range(2):
        code, out, _ = run_cli(
            capsys, "run", "rpm", "--matrix", matrices["a"], "--seed", "3", "--json"
        )
        assert code == EXIT_ACCEPT
        outs.append(out)
    assert outs[0] == outs[1]


def test_run_different_seed_changes_transcript_not_verdict(matrices, capsys):
    code1, out1, _ = run_cli(
        capsys, "run", "ldup", "--matrix", matrices["swap"], "--seed", "1", "--json"
    )
    code2, out2, _ = run_cli(
        capsys, "run", "ldup", "--matrix", matrices["swap"], "--seed", "2", "--json"
    )
    assert code1 == code2 == EXIT_ACCEPT
    assert json.loads(out1)["accepted"] and json.loads(out2)["accepted"]


def test_run_aborts_with_exit_two_when_no_witness_exists(matrices, capsys):
    code, _, err = run_cli(capsys, "run", "grp", "--matrix", matrices["swap"])
    assert code == EXIT_ABORT
    assert "aborted" in err


def test_seal_then_check_round_trip(matrices, tmp_path, capsys):
    cert = str(tmp_path / "det.rkc")
    code, out, _ = run_cli(
        capsys, "seal", "det", "--matrix", matrices["swap"], "--out", cert, "--json"
    )
    assert code == EXIT_ACCEPT
    sealed = json.loads(out)
    assert sealed["value"] == 1  # the 4-element reversal is an even permutation

    code, out, _ = run_cli(capsys, "check", cert, "--json")
    assert code == EXIT_ACCEPT
    checked = json.loads(out)
    assert checked["accepted"] is True and checked["value"] == 1
    assert checked["protocol"] == "det"


def test_check_instance_mismatch_rejects(matrices, tmp_path, capsys):
    cert = str(tmp_path / "det.rkc")
    assert main(["seal", "det", "--matrix", matrices["swap"], "--out", cert]) == EXIT_ACCEPT
    capsys.readouterr()
    code, out, _ = run_cli(capsys, "check", cert, "--matrix", matrices["eye"], "--json")
    assert code == EXIT_REJECT
    assert json.loads(out)["reason"] == "instance-mismatch"


def test_check_corrupted_certificate_never_accepts(matrices, tmp_path, capsys):
    cert = str(tmp_path / "c.rkc")
    assert main(["seal", "crp", "--matrix", matrices["a"], "--out", cert]) == EXIT_ACCEPT
    capsys.readouterr()
    blob = bytearray(open(cert, "rb").read())
    blob[len(blob) // 2] ^= 0x40
    open(cert, "wb").write(bytes(blob))
    code, out, err = run_cli(capsys, "check", cert, "--json")
    assert code in (EXIT_REJECT, EXIT_ABORT)
    if code == EXIT_REJECT:
        assert json.loads(out)["accepted"] is False


def test_seal_refuses_an_empty_matrix_and_writes_nothing(tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_text("0 3 101\n")
    cert = tmp_path / "empty.rkc"
    code, _, err = run_cli(capsys, "seal", "rank-upper", "--matrix", str(empty), "--out", str(cert))
    assert code == EXIT_ABORT
    assert "cannot bind" in err
    assert not cert.exists()


def test_run_refuses_an_empty_matrix(tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_text("0 3 101\n")
    code, out, err = run_cli(capsys, "run", "rank-upper", "--matrix", str(empty), "--json")
    assert code == EXIT_ABORT
    assert out == "" and "cannot bind" in err


def test_run_refuses_rows_past_the_declared_count(tmp_path, capsys):
    """A file declaring 2 x 2 with a third row is not certified as its
    2 x 2 prefix."""
    long = tmp_path / "long.txt"
    long.write_text("2 2 101\n1 2\n3 4\n5 6\n")
    code, out, err = run_cli(capsys, "run", "det", "--matrix", str(long), "--json")
    assert code == EXIT_ABORT
    assert out == "" and "after the 2 declared rows" in err


@pytest.mark.parametrize("rows, cols", [("-2", "3"), ("0", "3"), ("3", "0")])
def test_gen_rejects_non_positive_sizes(tmp_path, capsys, rows, cols):
    out = tmp_path / "m.txt"
    code, _, err = run_cli(capsys, "gen", "--rows", rows, "--cols", cols, "--out", str(out))
    assert code == EXIT_ABORT
    assert "at least 1" in err
    assert not out.exists()


def test_gen_cols_default_to_rows(capsys):
    code, out, _ = run_cli(capsys, "gen", "--rows", "3")
    assert code == EXIT_ACCEPT
    assert load_matrix(out).shape == (3, 3)
    code, out, _ = run_cli(capsys, "gen")
    assert code == EXIT_ACCEPT
    assert load_matrix(out).shape == (8, 8)


@pytest.mark.parametrize("kind", ["identity", "swap"])
def test_gen_refuses_a_non_square_square_kind(tmp_path, capsys, kind):
    out = tmp_path / "m.txt"
    code, _, err = run_cli(
        capsys, "gen", "--kind", kind, "--rows", "3", "--cols", "5", "--out", str(out)
    )
    assert code == EXIT_ABORT
    assert "square" in err
    assert not out.exists()


def test_check_missing_file_aborts(capsys):
    code, _, err = run_cli(capsys, "check", "/nonexistent/cert.rkc")
    assert code == EXIT_ABORT
    assert "error" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("check", "{dir}"),
        ("run", "det", "--matrix", "{dir}"),
        ("seal", "det", "--matrix", "{matrix}", "--out", "{dir}"),
    ],
    ids=["check", "run", "seal"],
)
def test_unreadable_paths_abort_with_an_error(tmp_path, capsys, argv):
    """A path that cannot be read or written, here a directory, is unusable
    input: exit 2 with a message, never the exit code of a rejection."""
    matrix = tmp_path / "M.mat"
    assert main(["gen", "--kind", "random", "--rows", "5", "--out", str(matrix)]) == EXIT_ACCEPT
    argv = [arg.format(dir=tmp_path, matrix=matrix) for arg in argv]
    code, _, err = run_cli(capsys, *argv)
    assert code == EXIT_ABORT
    assert err.startswith("error: ") and "Traceback" not in err


def test_the_readme_cli_quick_start_prints_what_it_shows(tmp_path, monkeypatch, capsys):
    """Each ``$ rankcert`` line of README's CLI quick start, run in a fresh
    directory, exits 0 and prints every line the README shows under it
    (lines elided with ``...`` aside)."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI quick start", 1)[1].split("```", 2)[1]
    monkeypatch.chdir(tmp_path)
    outputs = {}
    for chunk in block.split("$ rankcert ")[1:]:
        command, *shown = chunk.strip().splitlines()
        code, out, _ = run_cli(capsys, *shlex.split(command))
        assert code == EXIT_ACCEPT, command
        assert [s for s in shown if "..." not in s and s not in out.splitlines()] == [], command
        outputs[command.split()[0]] = out
    run = dict(line.split(": ", 1) for line in outputs["run"].splitlines())
    assert json.loads(run["value"]) == [0, 1, 2, 3]
    assert json.loads(run["meter"])["communication"] == 26
    assert json.loads(outputs["check"])["value"] == 119981
    assert {"trials: 10000", "hits: 92"} <= set(outputs["attack"].splitlines())


def test_companion_files_are_honored(tmp_path, capsys):
    f = PrimeField(131071)
    a = DenseMatrix(f, np.array([[1, 2], [3, 4]], dtype=np.int64))
    b = DenseMatrix(f, np.array([[2, 0], [1, 1]], dtype=np.int64))
    c = a @ b
    for name, mat in (("a", a), ("b", b), ("c", c)):
        with open(tmp_path / f"{name}.txt", "w") as fh:
            fh.write(dump_matrix(mat))
    code, out, _ = run_cli(
        capsys, "run", "freivalds",
        "--matrix", str(tmp_path / "a.txt"),
        "--with", str(tmp_path / "b.txt"),
        "--with", str(tmp_path / "c.txt"),
        "--json",
    )
    assert code == EXIT_ACCEPT
    assert json.loads(out)["accepted"] is True
    # wrong companion count is a usage error
    with pytest.raises(SystemExit) as exc:
        main(["run", "freivalds", "--matrix", str(tmp_path / "a.txt"),
              "--with", str(tmp_path / "b.txt")])
    assert exc.value.code == EXIT_ABORT
    assert "freivalds takes 2 --with file(s), got 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "seal"])
def test_companion_files_over_another_modulus_abort(tmp_path, capsys, command):
    """A over p = 101 with B and C over p = 7, where A.B = C holds mod 7
    only: the statement is refused before anything is run or written."""
    for name, text in (("a", "2 2 101\n3 5\n6 4\n"), ("b", "2 2 7\n3 1\n2 0\n"),
                       ("c", "2 2 7\n5 3\n5 6\n")):
        (tmp_path / f"{name}.txt").write_text(text)
    out = tmp_path / "cert.rkc"
    code, _, err = run_cli(
        capsys, command, "freivalds", "--matrix", str(tmp_path / "a.txt"),
        "--with", str(tmp_path / "b.txt"), "--with", str(tmp_path / "c.txt"),
        *(["--out", str(out)] if command == "seal" else []),
    )
    assert code == EXIT_ABORT
    assert "over one field, got moduli [7, 101]" in err
    assert not out.exists()


def test_derived_companions_make_bare_invocations_true(matrices, capsys):
    """Every protocol with companion matrices has a derivation, and a bare
    invocation with it accepts."""
    bound = {name for name, spec in wire.PROTOCOLS.items() if len(spec.shapes) > 1}
    assert set(COMPANIONS) == bound
    for protocol in sorted(COMPANIONS):
        code, out, _ = run_cli(
            capsys, "run", protocol, "--matrix", matrices["swap"], "--json"
        )
        assert code == EXIT_ACCEPT, protocol
        assert json.loads(out)["accepted"] is True


def test_attack_subcommand_reports_and_signals(capsys):
    code, out, _ = run_cli(
        capsys, "attack", "freivalds", "--trials", "400", "--seed", "42", "--json"
    )
    assert code == EXIT_ACCEPT
    payload = json.loads(out)
    assert payload["trials"] == 400
    assert payload["within_bound"] is True
    assert 0 <= payload["rate"] <= 1


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_attack_without_trials_is_unusable_input(capsys, trials):
    code, out, err = run_cli(capsys, "attack", "freivalds", "--trials", trials)
    assert code == EXIT_ABORT
    assert out == "" and "Traceback" not in err
    assert err.startswith("error: need at least one trial")


def test_attack_output_is_deterministic(capsys):
    outs = []
    for _ in range(2):
        code, out, _ = run_cli(
            capsys, "attack", "crp", "--trials", "300", "--seed", "11", "--json"
        )
        assert code == EXIT_ACCEPT
        outs.append(out)
    assert outs[0] == outs[1]


def test_attack_without_a_name_sweeps_every_attack(capsys):
    code, out, _ = run_cli(capsys, "attack", "--trials", "40", "--modulus", "7", "--json")
    payload = json.loads(out)
    reports = payload["attacks"]
    assert [r["attack"] for r in reports] == sorted(ATTACKS)
    assert all(r["trials"] == 40 and r["threshold"] > r["bound"] for r in reports)
    assert payload["worst_ratio"] == max(r["rate"] / r["bound"] for r in reports)
    assert code == (EXIT_ACCEPT if all(r["within_bound"] for r in reports) else EXIT_REJECT)
    # at p = 101, 60 seeded trials leave an attack over its threshold: the
    # 3-sigma rule is loose at so few trials, and the exit status says so
    code, out, _ = run_cli(capsys, "attack", "--trials", "60")
    lines = out.splitlines()
    assert code == EXIT_REJECT
    assert [line.split()[0] for line in lines[2:-1]] == sorted(ATTACKS)
    assert lines[-1].startswith("worst rate/ceiling ratio: ")
    assert any(line.endswith("OVER") for line in lines)


def test_the_attack_sweep_over_f2_reports_ldup_unavailable_and_goes_on(capsys):
    """F_2 has no scaled diagonal for the ldup attack; the sweep measures
    the other attacks and names the one it could not build, while the
    ldup attack on its own still cannot run."""
    code, out, _ = run_cli(capsys, "attack", "--modulus", "2", "--trials", "400", "--json")
    payload = json.loads(out)
    reports = payload["attacks"]
    assert [r["attack"] for r in reports] == sorted(set(ATTACKS) - {"ldup"})
    assert payload["unavailable"] == {"ldup": "scale must differ from 0 and 1"}
    assert payload["worst_ratio"] == max(r["rate"] / r["bound"] for r in reports)
    assert code == EXIT_ACCEPT and all(r["within_bound"] for r in reports)
    _, out, _ = run_cli(capsys, "attack", "--modulus", "2", "--trials", "400")
    assert "ldup         none over this field: scale must differ from 0 and 1" in out.splitlines()
    code, out, err = run_cli(capsys, "attack", "ldup", "--modulus", "2")
    assert code == EXIT_ABORT and err == "error: scale must differ from 0 and 1\n"


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_the_benchmark_scripts_import_against_the_library():
    """``perfbench/spans.py`` and ``bench.py`` import library names
    directly, and the tracer patches functions and methods by name, so a
    rename in ``src/`` fails here before a benchmark run."""
    root = Path(__file__).resolve().parent.parent
    path = os.pathsep.join(str(root / d) for d in ("src", "perfbench"))
    script = "import spans, bench; t = spans.Tracer(); t.install(); t.uninstall()"
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_one_benchmark_round_over_the_warm_instances_fails_nothing():
    """``bench.run_round`` over each workload's warm instances: no seal,
    check or run fails, and each constructed answer agrees with the
    brute-force oracle, so a change that makes the benchmark count failed
    operations fails here first."""
    root = Path(__file__).resolve().parent.parent
    path = os.pathsep.join(str(root / d) for d in ("src", "perfbench"))
    script = (
        "import bench, instances, json, workloads\n"
        "out = {}\n"
        "for name, w in workloads.WORKLOADS.items():\n"
        "    warm = w.build(instances.Builder((5, 1), w.modulus), False)\n"
        "    rnd = bench.run_round(warm, w.checks)\n"
        "    out[name] = (rnd.attempted, rnd.failed, all(map(bench.oracle_agrees, warm)))\n"
        "print(json.dumps(out))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    rounds = json.loads(proc.stdout)
    assert sorted(rounds) == ["det-large", "small-mixed", "witness-bigp"]
    for name, (attempted, failed, agrees) in rounds.items():
        assert attempted > 0 and failed == 0 and agrees, (name, attempted, failed, agrees)


def test_a_check_in_a_fresh_process_reads_as_one_after_its_seal(tmp_path):
    """Every protocol's certificate, checked in a process that has sealed
    nothing, so that each block reader the replay keeps is built inside
    the check, gives the verdict, value and meter of a check after the
    seal."""
    f, r = PrimeField(101), random.Random(30)
    a, low = random_nonsingular(f, 6, r), random_rank_deficient(f, 7, 6, 4, r)
    t = random_unit_lower(f, 6, r)
    instances = {
        "freivalds": (a, low.transpose(), a @ low.transpose()),
        "rank-upper": (low,),
        "rank-lower": (low,),
        "tri-equiv-lower": (a, a @ t),
        "tri-equiv-upper": (a, a @ t.transpose()),
        "grp": (random_grp_matrix(f, 6, r),),
        "ldup": (a,),
        "det": (a,),
        "crp": (low,),
        "rrp": (low,),
        "rpm-inv": (a,),
        "rpm": (low,),
    }
    assert list(instances) == list(wire.PROTOCOLS)
    expected = {}
    for name, mats in instances.items():
        blob, _ = wire.seal(name, *mats)
        (tmp_path / f"{name}.rkc").write_bytes(blob)
        res = wire.check(blob)[2]
        expected[name] = [res.verdict.accepted, repr(res.value), dataclasses.asdict(res.meter)]
    script = (
        "import dataclasses, json, pathlib, sys\n"
        "from rankcert.protocols import wire\n"
        "out = {}\n"
        "for path in pathlib.Path(sys.argv[1]).glob('*.rkc'):\n"
        "    res = wire.check(path.read_bytes())[2]\n"
        "    out[path.stem] = [res.verdict.accepted, repr(res.value), dataclasses.asdict(res.meter)]\n"
        "print(json.dumps(out))\n"
    )
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)],
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == expected
