"""Command-line interface: output formats, exit codes, determinism."""

import hashlib
import importlib.metadata
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10
    import tomli as tomllib

import uquery
from uquery.cli import main

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

# Runs a console-script target the way the wrapper that installers generate
# does: resolve the declared ``module:attr``, name the program, exit with
# the target's return value.
SCRIPT_WRAPPER = """\
import sys
from importlib.metadata import EntryPoint
target = EntryPoint("uquery", sys.argv.pop(1), "console_scripts").load()
sys.argv[0] = "uquery"
sys.exit(target())
"""


def child_env():
    """Environment in which a child interpreter imports the `uquery`
    package under test, whatever `PYTHONPATH` the tests were started with."""
    env = dict(os.environ)
    src = str(Path(uquery.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    return env


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_gen(capsys):
    rc, out, _ = run(capsys, "gen", "or:2")
    assert rc == 0
    assert out == (
        "spec = table:7:2\n"
        "family = or\n"
        "params = {\"n\": 2}\n"
        "arity = 2\n"
        "table = 0111\n"
    )


def test_gen_json(capsys, tmp_path):
    path = tmp_path / "f.json"
    rc, _, _ = run(capsys, "gen", "mind:2", "--out", str(path))
    assert rc == 0
    data = json.loads(path.read_text())
    assert data["spec"] == "table:035f:4"
    assert data["family"] == "mind"
    assert data["arity"] == 4


def test_gen_is_deterministic(capsys):
    first = run(capsys, "gen", "random:3:9")
    second = run(capsys, "gen", "random:3:9")
    assert first == second


def test_eval(capsys):
    assert run(capsys, "eval", "or:2", "0u")[1] == "u\n"
    assert run(capsys, "eval", "or:2", "00")[1] == "0\n"
    assert run(capsys, "eval", "or:2", "u1")[1] == "1\n"


def test_eval_bad_input(capsys):
    rc, _, err = run(capsys, "eval", "or:2", "0x")
    assert rc == 2
    assert err.startswith("error:")
    rc, _, err = run(capsys, "eval", "or:2", "0uu")
    assert rc == 2


def test_measures(capsys):
    rc, out, _ = run(capsys, "measures", "ind:1")
    assert rc == 0
    assert "function = table:35:3" in out
    assert "arity = 3" in out
    assert "C_u=2" in out and "bs_u=3" in out and "D_u=3" in out


def test_measures_json(capsys, tmp_path):
    path = tmp_path / "m.json"
    rc, _, _ = run(capsys, "measures", "maj:3", "--witnesses",
                   "--json", str(path))
    assert rc == 0
    data = json.loads(path.read_text())
    assert data["bs_u"] == 3 and data["C_u"] == 2
    assert data["witnesses"]["D_u"]["depth"] == 3


def test_solve_default_method(capsys):
    rc, out, _ = run(capsys, "solve", "and:2", "11")
    assert rc == 0
    assert out == (
        "output = 1\n"
        "queries = 2\n"
        "bound = 4\n"
        "transcript = 1:1 2:1\n"
    )


def test_solve_monotone_method(capsys):
    rc, out, _ = run(capsys, "solve", "mind:2", "01u0",
                     "--method", "monotone")
    assert rc == 0
    assert "output = u\n" in out
    assert "queries = 3\n" in out


def test_solve_tree_method(capsys):
    rc, out, _ = run(capsys, "solve", "ind:1", "uuu", "--method", "tree")
    assert rc == 0
    assert "output = u\n" in out


def test_solve_inapplicable_method_exits_2(capsys):
    rc, _, err = run(capsys, "solve", "parity:2", "0u",
                     "--method", "monotone")
    assert rc == 2
    assert "monotone" in err


def test_solve_json(capsys, tmp_path):
    path = tmp_path / "s.json"
    rc, _, _ = run(capsys, "solve", "table:e8:3", "00u", "--json", str(path))
    assert rc == 0
    data = json.loads(path.read_text())
    assert data["output"] == "1"
    assert data["queries"] == 3
    assert data["bound"] == 8


def test_tree_u_model(capsys):
    rc, out, _ = run(capsys, "tree", "or:2", "--model", "u")
    assert rc == 0
    assert "depth = 2\n" in out
    assert '"onU"' in out


def test_tree_binary_model(capsys, tmp_path):
    path = tmp_path / "t.json"
    rc, out, _ = run(capsys, "tree", "ind:1", "--model", "binary",
                     "--out", str(path))
    assert rc == 0
    assert "depth = 2\n" in out
    data = json.loads(path.read_text())
    assert data["depth"] == 2
    assert "onU" not in json.dumps(data["tree"])


# sha256 of the stdout of `tree SPEC --model MODEL`, then of the stdout and
# the file of the same command with `--out`, recorded when trees were
# still built as nested node objects; maj:11 (variables above 9, long runs
# of closing braces) was recorded from the node-by-node text writers.
TREE_COMMAND_DIGESTS = {
    ("ind:3", "u"): (
        "c257f68b3fe5d2287ba560aa5bcafcffc22c590a991388ee64b0aaf10103cff7",
        "5e4e91398dba23a3123bf7e027ccdad6d9c47b85c777df2175f856ce678262b3",
        "84ef2a0330b872d06cc5d73e72be0db7b3d56d100f5d2eaa3bb14aaa78195d7c"),
    ("ind:3", "binary"): (
        "a66152f1ff8db115a8e16591075299039b38d29736e9aa74d15baaa1b62b9b98",
        "b69763775ba837667eecc91e60315951c9f17035211f64c37a6103f743177906",
        "5a4049996d11e04c9c56352ee4d7fe69a29502bdb65d34c945d4c133fa060fd5"),
    ("maj:11", "u"): (
        "90073885d27cc28c764db78b1ac5f8c4585714b611a6feffa6db3d9d0e695961",
        "bf6c6118bd19bc488f74e8b5c28066df6363be60e7277520702a06618dc9e623",
        "b26e9e76b2facaf0ec74e91987d37f7ecca2f76c184067c0aab9a8832e070360"),
    ("mind:4", "u"): (
        "fd4ed43da3118c0bf5cb8d5a0af669d20a0340231b7284284376941e337255d7",
        "269330c2b138c81acf2366994136bb6c3aaa02e3f7983becdaf5e706119bc5d2",
        "bf9df70a81446a07842211f70b16989140f703a9510d79a238d0fe2f0dd985cd"),
    ("mind:4", "binary"): (
        "5fd1d254486313d5ecd202fc3dcd44f348467631c8b163a8b7189dbe86c360e9",
        "8b0db90120193ac5650f35da5451785f72c7f9c91a9b454c7258e20ec469d240",
        "c2e5feef1915713a9909c4ec9bd7f141034fb8d05a3d431a8942fe8ab02a18fc"),
    ("random:8:1", "u"): (
        "740381887d23d42fadeb2f6f6ba5ad61df65c5d6aafbaba984cd500e0cafa0ab",
        "e3ab4a99424a149dedad26dc892c2c0c2ac2826f3cbf71dee0611fb2e8b15d88",
        "572f5a5b7ec8ff9b8ad71ca96994e27d198d9a356792fa7fd0c29001c20e092b"),
    ("random:8:1", "binary"): (
        "91bb8eb755f6741bb82ade80f3205ed6d4488c093d161b5bac6595fb1df9f5a7",
        "35ac487ee72f6a799053423fe0deaa0b09c6ffa07f45225c24c365e9de477cf6",
        "1c79b03ed307d2c626af8dda31b0be2b3475bd2528c38294ede3417abcd3006c"),
}


@pytest.mark.parametrize("spec,model", sorted(TREE_COMMAND_DIGESTS))
def test_tree_command_bytes(capsys, tmp_path, spec, model):
    rc, out, _ = run(capsys, "tree", spec, "--model", model)
    assert rc == 0
    path = tmp_path / "tree.json"
    rc, out_with_file, _ = run(capsys, "tree", spec, "--model", model, "--out", str(path))
    assert rc == 0
    digests = tuple(hashlib.sha256(data).hexdigest() for data in
                    (out.encode(), out_with_file.encode(), path.read_bytes()))
    assert digests == TREE_COMMAND_DIGESTS[spec, model]


# sha256 of the stdout of `solve SPEC HIDDEN`, recorded from the solver that
# scanned all 3**n decoded inputs per round for the least consistent one.
SOLVE_COMMAND_DIGESTS = {
    ("random:8:1", "1u0u1u1u"):
        "8185c1da2f1bf9d65c35a126315c9e4e0430de45f0dd439e674e09ed6ffc6d2d",
    ("random:10:1", "1u0u1u1u01"):
        "4ea2d1e9c0f02d533b5f080581905654ba6db380d9212717a7cf39778bb90d2d",
}


@pytest.mark.parametrize("spec,hidden", sorted(SOLVE_COMMAND_DIGESTS))
def test_solve_command_bytes(capsys, spec, hidden):
    rc, out, _ = run(capsys, "solve", spec, hidden)
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SOLVE_COMMAND_DIGESTS[spec, hidden]


# sha256 of the stdout of `solve SPEC HIDDEN --method METHOD`, transcript
# included, recorded from the simulation that re-checked its orientation
# and rebuilt its tree walker on every call.
SIMULATION_COMMAND_DIGESTS = {
    ("mind:2", "01u0", "monotone"):
        "276e2be3341461abb11443900924e5623e3a6f7743690bbc2a9a416298862205",
    ("table:e8:3", "u0u", "unate"):
        "17ba3f773f27a708fe17e1f7d548fc2693d55ad8bd80c70411d73eb7f798b195",
    ("table:e8:3", "1uu", "unate"):
        "deb43e6b7aec06b0b75702aaf035fb44138d09a39806518b7c77d6a0ad0581bb",
}


@pytest.mark.parametrize("spec,hidden,method", sorted(SIMULATION_COMMAND_DIGESTS))
def test_simulation_command_bytes(capsys, spec, hidden, method):
    rc, out, _ = run(capsys, "solve", spec, hidden, "--method", method)
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        SIMULATION_COMMAND_DIGESTS[spec, hidden, method]


@pytest.mark.parametrize("spec", ["maj:5", "ind:2", "random:7:1"])
@pytest.mark.parametrize("witnesses", [False, True])
def test_measures_json_is_the_json_module_text(capsys, tmp_path, spec, witnesses):
    """The file is ``json.dump(payload, indent=2, sort_keys=True)`` and a
    newline, though its witness trees are written by write_indented_tree."""
    path = tmp_path / "m.json"
    flags = ["--witnesses"] if witnesses else []
    rc, _, _ = run(capsys, "measures", spec, *flags, "--json", str(path))
    assert rc == 0
    f = uquery.generate(spec)
    payload = {"function": f.to_spec(), "arity": f.arity}
    report = uquery.measure_report(uquery.hazard_free_table(f), with_witnesses=witnesses)
    payload.update(report.to_json_dict())
    assert path.read_text() == json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert ('"tree"' in path.read_text()) == witnesses


@pytest.mark.parametrize("spec", ["maj:5", "ind:2", "random:7:1"])
def test_measures_witnesses_line_is_the_json_module_text(capsys, spec):
    """The witnesses line is ``json.dumps`` of the report's JSON witnesses,
    though its trees are written by sorted_tree_text."""
    rc, out, _ = run(capsys, "measures", spec, "--witnesses")
    assert rc == 0
    report = uquery.measure_report(uquery.hazard_free_table(uquery.generate(spec)),
                                   with_witnesses=True)
    want = json.dumps(report.to_json_dict()["witnesses"], sort_keys=True)
    assert out.splitlines()[-1] == f"witnesses = {want}"


# sha256 of the stdout of `measures maj:11 --witnesses`, recorded while its
# witness trees still went through a dict per node.
MAJ11_WITNESSES_DIGEST = "61369493817b1a0d9014a3dc053b04b5c366f46d4ae67f275632464f835a6b73"


def test_measures_maj11_witnesses_bytes(capsys):
    rc, out, _ = run(capsys, "measures", "maj:11", "--witnesses")
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == MAJ11_WITNESSES_DIGEST


def test_bad_spec_exits_2(capsys):
    rc, _, err = run(capsys, "gen", "bogus:1")
    assert rc == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ("gen", "or:2", "--out"),
    ("tree", "maj:3", "--out"),
    ("measures", "maj:3", "--json"),
    ("solve", "maj:3", "01u", "--json"),
    ("verify", "core", "--n", "1", "--workers", "1", "--json"),
], ids=lambda argv: argv[0])
def test_unwritable_output_path_exits_2(capsys, tmp_path, argv):
    missing = tmp_path / "missing" / "x.json"
    for path, reason in ((missing, "No such file or directory"),
                         (tmp_path, "Is a directory")):
        rc, _, err = run(capsys, *argv, str(path))
        assert rc == 2
        assert err == f"error: cannot write {path}: {reason}\n"
    assert not missing.parent.exists()


def test_cap_flag(capsys):
    rc, _, err = run(capsys, "measures", "or:5", "--cap", "4")
    assert rc == 2 and "cap" in err
    rc, out, _ = run(capsys, "measures", "or:5", "--cap", "5")
    assert rc == 0 and "D_u=5" in out


def test_cap_env(capsys, monkeypatch):
    monkeypatch.setenv("UQUERY_CAP", "4")
    rc, _, err = run(capsys, "measures", "or:5")
    assert rc == 2 and "cap" in err
    # an explicit flag wins over the environment
    rc, out, _ = run(capsys, "measures", "or:5", "--cap", "5")
    assert rc == 0 and "D_u=5" in out


def test_verify_ignores_the_cap(capsys, monkeypatch):
    # verify's largest table (ind:2, six variables) is fixed by its
    # suites, so an arity cap has nothing to guard there.
    monkeypatch.setenv("UQUERY_CAP", "5")
    rc, out, _ = run(capsys, "verify", "core", "--n", "1..2", "--workers", "1")
    assert rc == 0
    assert out.splitlines()[-1].startswith("suite core: PASS")


@pytest.mark.parametrize("cap", ["0", "-1"])
def test_cap_below_1_exits_2(capsys, cap):
    rc, out, err = run(capsys, "measures", "or:1", "--cap", cap)
    assert (rc, out, err) == (2, "", "error: cap must be >= 1\n")


@pytest.mark.parametrize("cap", ["0", "-1"])
def test_cap_env_below_1_exits_2(capsys, monkeypatch, cap):
    monkeypatch.setenv("UQUERY_CAP", cap)
    rc, out, err = run(capsys, "gen", "or:2")
    assert (rc, out, err) == (2, "", "error: cap must be >= 1\n")


def test_cap_env_must_be_integer(capsys, monkeypatch):
    monkeypatch.setenv("UQUERY_CAP", "lots")
    rc, _, err = run(capsys, "gen", "or:2")
    assert rc == 2
    assert "UQUERY_CAP" in err


def test_verify_suite(capsys):
    rc, out, _ = run(capsys, "verify", "reduction")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0].startswith("PASS or-via-indexing: 20 cases, 0 failures")
    assert lines[-1] == "suite reduction: PASS (2 checks)"


def test_verify_output_is_deterministic(capsys):
    first = run(capsys, "verify", "core", "--n", "1..2", "--workers", "1")
    second = run(capsys, "verify", "core", "--n", "1..2", "--workers", "2")
    assert first == second


def test_verify_json_report(capsys, tmp_path):
    path = tmp_path / "r.json"
    rc, _, _ = run(capsys, "verify", "closure", "--n", "1..2",
                   "--json", str(path))
    assert rc == 0
    data = json.loads(path.read_text())
    assert data["suite"] == "closure"
    assert data["passed"] is True
    assert data["duration_seconds"] >= 0.0
    assert {r["check"] for r in data["records"]} \
        == {"closure-pointwise", "closure-depth"}


def test_verify_single_n(capsys):
    rc, out, _ = run(capsys, "verify", "algorithm1", "--n", "2")
    assert rc == 0
    assert "PASS solver-correct: 144 cases" in out


@pytest.mark.parametrize("suite", ["all", "core", "algorithm1", "closure"])
def test_verify_refuses_a_sweep_of_no_function(capsys, suite):
    # At n = 4 the full population needs --samples or --exhaustive; a
    # suite that would sweep nothing is an error, not a vacuous PASS.
    rc, out, err = run(capsys, "verify", suite, "--n", "4", "--workers", "1")
    assert rc == 2
    assert not out
    assert "--samples" in err and "--exhaustive" in err


def test_verify_monotone_runs_at_n_4(capsys):
    rc, out, _ = run(capsys, "verify", "monotone", "--n", "4", "--workers", "1")
    assert rc == 0
    assert "PASS monotone-simulation: 13608 cases" in out
    assert out.splitlines()[-1] == "suite monotone: PASS (4 checks)"


def test_verify_bad_range(capsys):
    rc, _, err = run(capsys, "verify", "core", "--n", "3..1")
    assert rc == 2
    rc, _, err = run(capsys, "verify", "core", "--n", "1..9")
    assert rc == 2


def test_entry_point_installed():
    with PYPROJECT.open("rb") as f:
        scripts = tomllib.load(f)["project"].get("scripts", {})
    assert "uquery" in scripts
    declared = scripts["uquery"]
    assert callable(importlib.metadata.EntryPoint(
        "uquery", declared, "console_scripts").load())
    # an installed `uquery` must be this declaration, not a stale install
    for installed in importlib.metadata.entry_points(
            group="console_scripts", name="uquery"):
        assert installed.value == declared

    args = ["eval", "maj:3", "0u1"]
    if shutil.which("uquery") is not None:
        proc = subprocess.run(
            ["uquery", *args], capture_output=True, text=True, timeout=60)
    else:
        # no script on PATH: run the declared target as its wrapper would
        proc = subprocess.run(
            [sys.executable, "-c", SCRIPT_WRAPPER, declared, *args],
            capture_output=True, text=True, timeout=60, env=child_env())
    assert proc.returncode == 0
    assert proc.stdout == "u\n"


def test_module_invocation():
    proc = subprocess.run(
        [sys.executable, "-m", "uquery.cli", "gen", "parity:2"],
        capture_output=True, text=True, timeout=60, env=child_env())
    assert proc.returncode == 0
    assert "spec = table:6:2" in proc.stdout


def test_one_process_matches_fresh_interpreters(capsys):
    # main reuses one parser across calls; each command run after others
    # in this process prints what it prints in an interpreter of its own.
    commands = [
        ["tree", "ind:1"],
        ["solve", "maj:3", "u10", "--method", "tree"],
        ["verify", "core", "--n", "1..2", "--workers", "1"],
        ["tree", "maj:3", "--model", "binary"],
    ]
    for argv in commands:
        rc, out, _ = run(capsys, *argv)
        fresh = subprocess.run(
            [sys.executable, "-m", "uquery.cli", *argv],
            capture_output=True, text=True, timeout=120, env=child_env())
        assert (rc, out) == (fresh.returncode, fresh.stdout)
        assert rc == 0
