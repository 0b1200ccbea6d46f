"""CLI behavior: exit codes, report formats, model output, env overrides."""

import importlib.resources
import os
import pathlib
import subprocess
import sys

import pytest

from kedl.cli import main
from kedl import interpretation_from_text, parse_kb


def data_text(name: str) -> str:
    return importlib.resources.files("kedl.data").joinpath(name).read_text(encoding="utf-8")


# test KBs, and the byte-exact `classify --format records` output of gas
# and of hierarchy.kedl in each mode (classify-<kb>-<mode>.records), and the
# `check --format records` output of merge.kedl (check-merge-<mode>.records,
# with {kb} for the file's path)
DATA = pathlib.Path(__file__).parent / "data"
HIERARCHY = DATA / "hierarchy.kedl"
ABOX = DATA / "abox.kedl"
MERGE = DATA / "merge.kedl"

UNSAT_KB = "oconcept C; oindividual c1; C <= bot; C(c1);"
EMPTY_C_KB = "oconcept C; oconcept D; C <= bot;"

# the records output of every branch of `kedl oracle`; ABOX, UNSAT and
# EMPTY_C name KB files, and {kb} stands for the file's path in the output
ORACLE_RECORDS = {
    "kb-model": (["--find-model", "ABOX", "--bounds", "2,2"], 0, """\
kedl-report/1
command=oracle
bounds=2,2
mode=at-most-one
kb={kb}
verdict=model-found
payload:
delta: x1 x2;
sigma: u1;
Monitored-tunnel = {x2};
Sensor = {x1};
Tunnel = {x2};
Methane-level = {u1};
Reading = {u1};
has-methane-level = {(x1,u1)};
has-sensor = {(x2,x1)};
ind level1 = u1;
ind sensor1 = x1;
ind tunnel1 = x2;
"""),
    "kb-none": (["--find-model", "UNSAT", "--bounds", "2,2"], 1, """\
kedl-report/1
command=oracle
bounds=2,2
mode=at-most-one
kb={kb}
verdict=no-model-up-to-bound
"""),
    "concept-model": (["--find-model", "-c", "some has-r A and C", "--bounds", "2,2"], 0, """\
kedl-report/1
command=oracle
bounds=2,2
mode=at-most-one
concept=some has-r A and C
verdict=model-found
payload:
delta: x1;
sigma: u1;
C = {x1};
A = {u1};
has-r = {(x1,u1)};
"""),
    "concept-none": (["--find-model", "-c", "C and not C", "--bounds", "2,2"], 1, """\
kedl-report/1
command=oracle
bounds=2,2
mode=at-most-one
concept=C and not C
verdict=no-model-up-to-bound
"""),
    "universal-countermodel": (["--validity", "-c", "C => D", "--bounds", "2,2"], 1, """\
kedl-report/1
command=oracle
bounds=2,2
mode=at-most-one
formula=C => D
verdict=countermodel-found
payload:
delta: x1;
sigma: u1;
C = {x1};
D = {};
"""),
    "universal-none": (["--validity", "-c", "C => C", "--bounds", "2,2"], 0, """\
kedl-report/1
command=oracle
bounds=2,2
mode=at-most-one
formula=C => C
verdict=no-countermodel-up-to-bound
"""),
    "existential-countermodel": (
        ["--validity", "-c", "C", "--bounds", "1,1", "--reading", "paper-existential"], 1, """\
kedl-report/1
command=oracle
bounds=1,1
mode=at-most-one
formula=C
verdict=countermodel-found
reading=paper-existential
payload:
delta: x1;
sigma: u1;
C = {};
"""),
    "existential-none": (
        ["--validity", "-c", "C => C", "--bounds", "2,2", "--reading", "paper-existential"], 0, """\
kedl-report/1
command=oracle
bounds=2,2
mode=at-most-one
formula=C => C
verdict=no-countermodel-up-to-bound
reading=paper-existential
"""),
    "count": (["--count", "-c", "some has-r A", "--bounds", "1,1"], 0, """\
kedl-report/1
command=oracle
bounds=1,1
mode=at-most-one
concept=some has-r A
models=1
"""),
    # with a KB file, -c is read relative to its axioms
    "kb-concept-none": (["--find-model", "-c", "C", "EMPTY_C", "--bounds", "2,2"], 1, """\
kedl-report/1
command=oracle
bounds=2,2
mode=at-most-one
concept=C
verdict=no-model-up-to-bound
"""),
    "kb-universal-none": (["--validity", "-c", "C => bot", "EMPTY_C", "--bounds", "2,2"], 0, """\
kedl-report/1
command=oracle
bounds=2,2
mode=at-most-one
formula=C => bot
verdict=no-countermodel-up-to-bound
"""),
    "kb-existential-none": (
        ["--validity", "-c", "C => bot", "EMPTY_C", "--bounds", "2,2", "--reading", "paper-existential"], 0, """\
kedl-report/1
command=oracle
bounds=2,2
mode=at-most-one
formula=C => bot
verdict=no-countermodel-up-to-bound
reading=paper-existential
"""),
    "kb-count": (["--count", "-c", "C", "EMPTY_C", "--bounds", "1,1"], 0, """\
kedl-report/1
command=oracle
bounds=1,1
mode=at-most-one
concept=C
models=0
"""),
}


@pytest.fixture
def gas_kedl(tmp_path):
    path = tmp_path / "gas.kedl"
    path.write_text(data_text("gas.kedl"), encoding="utf-8")
    return str(path)


@pytest.fixture
def gas_km(tmp_path):
    path = tmp_path / "gas.km"
    path.write_text(data_text("gas.km"), encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCheck:
    def test_consistent_corpus(self, capsys, gas_kedl):
        code, out, _ = run(capsys, "check", gas_kedl)
        assert code == 0
        assert "verdict: consistent" in out

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "check", "/nonexistent/kb.kedl")
        assert code == 2
        assert "error" in err

    def test_inconsistent_kb(self, capsys, tmp_path):
        path = tmp_path / "bad.kedl"
        path.write_text("oconcept C; oindividual c1; C <= bot; C(c1);")
        code, out, _ = run(capsys, "check", str(path))
        assert code == 1
        assert "inconsistent" in out
        assert "clash" in out

    def test_parse_error(self, capsys, tmp_path):
        path = tmp_path / "broken.kedl"
        path.write_text("oconcept ;;;")
        code, _, err = run(capsys, "check", str(path))
        assert code == 2

    @pytest.mark.parametrize("mode", ["at-most-one", "exactly-one", "free"])
    def test_merge_records(self, capsys, mode):
        # one object with two values of a cross role, and a second object
        # that shares one of them: two merges outside free mode
        code, out, _ = run(capsys, "check", str(MERGE), "--mode", mode, "--format", "records")
        assert code == 0
        want = (DATA / f"check-merge-{mode}.records").read_text(encoding="utf-8")
        assert out == want.replace("{kb}", str(MERGE))

    def test_long_definition_chain(self, capsys, tmp_path):
        # the witness evaluates definitions in dependency order, 1,500 deep
        n = 1500
        path = tmp_path / "chain.kedl"
        path.write_text("oconcept C;\n" + "".join(f"oconcept A{i};\n" for i in range(n + 1))
                        + "".join(f"A{i} := A{i + 1} and C;\n" for i in range(n)))
        code, out, _ = run(capsys, "check", str(path))
        assert code == 0
        assert "verdict: consistent" in out


class TestSat:
    def test_bot_unsatisfiable(self, capsys, gas_kedl):
        code, out, _ = run(capsys, "sat", gas_kedl, "-c", "bot")
        assert code == 1
        assert "unsatisfiable" in out

    def test_constrained_tunnel(self, capsys, gas_kedl):
        code, out, _ = run(
            capsys, "sat", gas_kedl,
            "-c", "Tunnel and some has-length (some more-than Meters1200)",
        )
        assert code == 0
        assert "verdict: satisfiable" in out

    def test_without_kb_uses_inference(self, capsys):
        code, out, _ = run(capsys, "sat", "-c", "some has-r A")
        assert code == 0

    def test_inference_overrules_a_defaulted_cross_role(self, capsys):
        # the inner "some p C" alone would make p a cross role; the outer
        # use, with an object operand, makes it an object role
        code, out, err = run(capsys, "sat", "-c", "some p some p C", "--format", "records")
        assert (code, err) == (0, "")
        assert "verdict=satisfiable" in out
        assert "p = {(x1,x2), (x2,x3)};" in out

    def test_inference_keeps_a_real_kind_clash(self, capsys):
        code, _, err = run(capsys, "sat", "-c", "some inv(p) C and some p some p C")
        assert code == 2
        assert "role p used with two kinds" in err

    def test_inference_unifies_an_atom_with_an_object_operand(self, capsys):
        # C is both p's filler and an operand of p's source sort, so p is
        # no cross role, the kind a lone use of p would default to
        for concept in ("some p C and (C and some p E)", "(some p C) and C and all p (some p top)"):
            code, out, err = run(capsys, "sat", "-c", concept)
            assert (code, err) == (0, "")
            assert "verdict: satisfiable" in out

    def test_inline_signature(self, capsys):
        code, out, _ = run(
            capsys, "sat", "-c", "some p C and all p (not C)",
            "--sig", "oconcept C; orole p;",
        )
        assert code == 1

    def test_too_deep_input_is_exit_2(self, gas_kedl):
        # in a subprocess, so that a traceback would reach stderr
        concept = "not " * 3000 + "Gas"
        result = subprocess.run(
            [sys.executable, "-m", "kedl.cli", "sat", gas_kedl, "-c", concept],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 2
        assert result.stderr.startswith("error: ")
        assert "Traceback" not in result.stderr

    def test_deeply_parenthesized_input_is_answered(self):
        # in a subprocess, as above: the parser keeps its own stacks, so
        # 5,000 parentheses reach the tableau
        concept = "(" * 5000 + "C" + ")" * 5000
        result = subprocess.run(
            [sys.executable, "-m", "kedl.cli", "sat", "--sig", "oconcept C;", "-c", concept],
            capture_output=True,
            text=True,
        )
        assert (result.returncode, result.stderr) == (0, "")
        assert "verdict: satisfiable" in result.stdout

    def test_model_out(self, capsys, gas_kedl, tmp_path):
        out_path = tmp_path / "model.txt"
        code, _, _ = run(capsys, "sat", gas_kedl, "-c", "Gas", "--model-out", str(out_path))
        assert code == 0
        kb = parse_kb(data_text("gas.kedl"))
        model = interpretation_from_text(out_path.read_text(), kb.sig)
        assert model.n_delta >= 1

    def test_sort_error_is_exit_2(self, capsys, gas_kedl):
        code, _, err = run(capsys, "sat", gas_kedl, "-c", "Gas and Length")
        assert code == 2
        assert "error" in err


class TestSubsumesInstanceClassify:
    def test_subsumption_from_corpus(self, capsys, gas_kedl):
        code, out, _ = run(
            capsys, "subsumes", gas_kedl, "-s", "Gas-explosion", "-t", "some has-location Location"
        )
        assert code == 0
        assert "verdict: true" in out

    def test_non_subsumption(self, capsys, gas_kedl):
        code, out, _ = run(capsys, "subsumes", gas_kedl, "-s", "Gas", "-t", "Tunnel")
        assert code == 1

    def test_instance(self, capsys, tmp_path):
        path = tmp_path / "inst.kedl"
        path.write_text("oconcept C; oconcept D; oindividual c1; C <= D; C(c1);")
        code, out, _ = run(capsys, "instance", str(path), "-i", "c1", "-c", "D")
        assert code == 0
        code, out, _ = run(capsys, "instance", str(path), "-i", "c1", "-c", "not C")
        assert code == 1

    def test_classify_corpus(self, capsys, gas_kedl):
        code, out, _ = run(capsys, "classify", gas_kedl)
        assert code == 0
        # the four object concepts are pairwise incomparable
        assert "Gas-explosion < Tunnel" not in out
        assert "Tunnel < Gas-explosion" not in out

    @pytest.mark.parametrize("mode", ["at-most-one", "exactly-one", "free"])
    def test_classify_hierarchy(self, capsys, mode):
        # nested definitions, two equivalent pairs and an unsatisfiable atom
        code, out, _ = run(capsys, "classify", str(HIERARCHY), "--mode", mode, "--format", "records")
        assert code == 0
        assert out == (DATA / f"classify-hierarchy-{mode}.records").read_text(encoding="utf-8")

    @pytest.mark.parametrize("mode", ["at-most-one", "exactly-one", "free"])
    def test_classify_corpus_records(self, capsys, gas_kedl, mode):
        code, out, _ = run(capsys, "classify", gas_kedl, "--mode", mode, "--format", "records")
        assert code == 0
        assert out == (DATA / f"classify-gas-{mode}.records").read_text(encoding="utf-8")

    @pytest.mark.parametrize("mode", ["at-most-one", "exactly-one", "free"])
    @pytest.mark.parametrize("name", ["gas", "hierarchy"])
    def test_classify_records_after_other_modes(self, capsys, monkeypatch, gas_kedl, name, mode):
        # every mode shares the KB's compiled concept store: the other
        # modes' queries, run first, give it another id history, and the
        # records must not move
        from functools import reduce

        from kedl import Or, cli
        from kedl.semantics import FunctionalityMode
        from kedl.syntax import Atom
        from kedl.tableau import Tableau, classify

        load = cli._load_kb

        def queried(path):
            kb = load(path)
            atoms = [Atom(a) for a in sorted(kb.sig.object_atoms, reverse=True)]
            for other in FunctionalityMode:
                if str(other) != mode:
                    Tableau(kb, other).is_satisfiable(reduce(Or, atoms))
                    classify(kb, other)
            return kb

        monkeypatch.setattr(cli, "_load_kb", queried)
        path = gas_kedl if name == "gas" else str(HIERARCHY)
        code, out, _ = run(capsys, "classify", path, "--mode", mode, "--format", "records")
        assert code == 0
        assert out == (DATA / f"classify-{name}-{mode}.records").read_text(encoding="utf-8")

    def test_classify_inconsistent(self, capsys, tmp_path):
        path = tmp_path / "bad.kedl"
        path.write_text("oconcept C; oindividual c1; C <= bot; C(c1);")
        code, out, _ = run(capsys, "classify", str(path))
        assert code == 1


class TestVerify:
    def test_single_item(self, capsys):
        code, out, _ = run(capsys, "verify", "--only", "axiom16")
        assert code == 0
        assert "axiom16" in out
        assert "checks: 1" in out

    def test_unknown_item(self, capsys):
        code, _, _ = run(capsys, "verify", "--only", "axiom99")
        assert code == 2

    def test_env_bounds(self, capsys, monkeypatch):
        monkeypatch.setenv("KEDL_BOUNDS", "1,1")
        code, out, _ = run(capsys, "verify", "--only", "property7")
        assert code == 0
        assert "bounds: 1,1" in out


class TestOracle:
    def test_find_model_negative(self, capsys):
        code, out, _ = run(capsys, "oracle", "--find-model", "-c", "C and not C", "--bounds", "3,3")
        assert code == 1
        assert "no-model-up-to-bound" in out

    def test_find_model_positive(self, capsys):
        code, out, _ = run(capsys, "oracle", "--find-model", "-c", "C", "--bounds", "2,2")
        assert code == 0
        assert "delta: x1" in out

    def test_count_fixture(self, capsys):
        code, out, _ = run(capsys, "oracle", "--count", "-c", "some has-r A", "--bounds", "1,1")
        assert code == 0
        assert "models: 1" in out

    def test_validity_readings_differ(self, capsys):
        # C => D fails universally but always has an existential witness in
        # interpretations with an element outside C
        code, _, _ = run(capsys, "oracle", "--validity", "-c", "C => D", "--bounds", "2,2")
        assert code == 1
        code, _, _ = run(
            capsys, "oracle", "--validity", "-c", "C => C", "--bounds", "2,2",
            "--reading", "paper-existential",
        )
        assert code == 0

    def test_kb_goal(self, capsys, gas_kedl):
        code, out, _ = run(capsys, "oracle", "--find-model", gas_kedl, "--bounds", "1,2")
        assert code == 0

    @pytest.mark.parametrize("bounds", ["0,0", "1,0"])
    def test_bounds_below_one_are_exit_2(self, capsys, bounds):
        code, _, err = run(capsys, "oracle", "--find-model", "-c", "bot", "--bounds", bounds)
        assert code == 2
        assert "bad bounds" in err

    def test_free_mode_separates_functionality(self, capsys):
        argv = ["oracle", "--find-model", "-c", "some has-r A and some has-r (not A)", "--bounds", "2,2"]
        code, _, _ = run(capsys, *argv)
        assert code == 1
        code, _, _ = run(capsys, *argv, "--mode", "free")
        assert code == 0

    @pytest.mark.parametrize("case", ORACLE_RECORDS)
    def test_records_of_every_branch(self, capsys, tmp_path, case):
        args, want_code, want = ORACLE_RECORDS[case]
        paths = {"ABOX": str(ABOX)}
        for key, text in (("UNSAT", UNSAT_KB), ("EMPTY_C", EMPTY_C_KB)):
            path = tmp_path / f"{key.lower()}.kedl"
            path.write_text(text, encoding="utf-8")
            paths[key] = str(path)
        code, out, _ = run(capsys, "oracle", *(paths.get(a, a) for a in args), "--format", "records")
        for path in paths.values():
            out = out.replace(path, "{kb}")
        assert (code, out) == (want_code, want)


class TestKmTranslate:
    def test_golden_output(self, capsys, gas_km, tmp_path):
        out_path = tmp_path / "out.kedl"
        code, _, _ = run(capsys, "km", "translate", gas_km, "-o", str(out_path))
        assert code == 0
        assert out_path.read_text(encoding="utf-8") == data_text("gas.kedl")

    def test_byte_identical_across_runs(self, capsys, gas_km, tmp_path):
        a, b = tmp_path / "a.kedl", tmp_path / "b.kedl"
        run(capsys, "km", "translate", gas_km, "-o", str(a))
        run(capsys, "km", "translate", gas_km, "-o", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_invalid_km_is_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.km"
        path.write_text("object Empty { attributes: Missing; }")
        code, _, err = run(capsys, "km", "translate", str(path), "-o", str(tmp_path / "x"))
        assert code == 2


class TestReports:
    def test_records_format_is_reproducible(self, capsys, gas_kedl):
        _, first, _ = run(capsys, "check", gas_kedl, "--format", "records")
        _, second, _ = run(capsys, "check", gas_kedl, "--format", "records")
        assert first == second
        assert first.startswith("kedl-report/1\ncommand=check\n")
        assert "time:" not in first

    def test_verify_records_format_reproducible(self, capsys):
        _, first, _ = run(capsys, "verify", "--only", "property8", "--format", "records")
        _, second, _ = run(capsys, "verify", "--only", "property8", "--format", "records")
        assert first == second

    def test_closed_stdout_is_exit_2_without_traceback(self):
        # as in `kedl verify --format records | head -5`, once head has quit:
        # the read end of the pipe is closed before kedl writes its report
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = subprocess.run(
                [sys.executable, "-m", "kedl.cli", "verify", "--only", "axiom1", "--format", "records"],
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
            )
        finally:
            os.close(write_end)
        assert result.returncode == 2
        assert result.stderr.startswith("error: ")
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("case", ["check-directory", "check-not-utf8", "model-out-directory",
                                      "translate-to-directory"])
    def test_unreadable_or_unwritable_file_is_exit_2(self, case, tmp_path, gas_kedl, gas_km):
        # a file that cannot be read or written is an error, never the
        # exit 1 of a negative verdict; in a subprocess, so that a
        # traceback would reach stderr
        latin1 = tmp_path / "latin1.kedl"
        latin1.write_bytes("oconcept Caf\xe9;".encode("latin-1"))
        argv = {
            "check-directory": ["check", str(tmp_path)],
            "check-not-utf8": ["check", str(latin1)],
            "model-out-directory": ["sat", gas_kedl, "-c", "Gas", "--model-out", str(tmp_path)],
            "translate-to-directory": ["km", "translate", gas_km, "-o", str(tmp_path)],
        }[case]
        result = subprocess.run([sys.executable, "-m", "kedl.cli", *argv], capture_output=True, text=True)
        assert result.returncode == 2
        assert result.stderr.startswith("error: ")
        assert "Traceback" not in result.stderr

    def test_no_stdout_keeps_the_verdict(self):
        # started with standard output closed (`kedl ... >&-`): the report
        # goes nowhere and the exit code is still the verdict
        result = subprocess.run(
            [sys.executable, "-m", "kedl.cli", "oracle", "--count", "-c", "bot", "--bounds", "1,1"],
            stderr=subprocess.PIPE,
            text=True,
            preexec_fn=lambda: os.close(1),
        )
        assert result.returncode == 0
        assert "Traceback" not in result.stderr


def test_console_script_entrypoint():
    result = subprocess.run(
        [sys.executable, "-m", "kedl.cli", "oracle", "--count", "-c", "bot", "--bounds", "1,1"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "models: 0" in result.stdout
