"""Command line behavior: plumbing, exit codes, deterministic output."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rankcert.adversaries import ATTACKS
from rankcert.cli import COMPANIONS, EXIT_ABORT, EXIT_ACCEPT, EXIT_REJECT, main
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
