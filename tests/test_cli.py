"""The nct command line surface: exit codes, reports, output lines."""

import dataclasses
import json
from fractions import Fraction as F
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nctorus
from nctorus import DEFAULT_KAPPAS, TopVector, gclass, matrixmodel
from nctorus.cli import run
from nctorus.matrixmodel import TOL, IntertwinerReport


class TestExitCodes:
    def test_usage_errors_are_two(self):
        assert run([]) == 2
        assert run(["matrix", "verify", "-p", "2", "-q", "4"]) == 2
        assert run(["gclass", "derive", "-k", "2", "-m", "4"]) == 2
        assert run(["gclass", "chain", "-k", "1", "-m", "3",
                    "--kappa1", "3/5", "--kappa2", "3/10"]) == 2
        assert run(["gclass", "member", "--theta", "3/2"]) == 2
        assert run(["gclass", "certify", "--kappa1", "3/4", "--kappa2", "1/2"]) == 2
        assert run(["gclass", "certify", "--grid", "5", "-k", "1", "-m", "3"]) == 2
        assert run(["gclass", "certify", "--grid", "5", "-k", "1"]) == 2
        assert run(["expr", "echo", "--expr", "U + +"]) == 2
        assert run(["traces", "eval", "--kind", "t10", "--expr", "(U"]) == 2
        assert run(["chern", "top", "--charge", "plus", "-p", "2", "-q", "4"]) == 2
        assert run(["gclass", "certify", "--grid", "2"]) == 2
        assert run(["matrix", "verify", "--sweep", "0"]) == 2
        assert run(["traces", "check", "--window", "0"]) == 2
        assert run(["chern", "lemma24", "--nn", "2", "--kk", "1", "--window", "0"]) == 2
        assert run(["gclass", "member", "--theta", "1/2", "--kmax", "0"]) == 2
        assert run(["gclass", "interval", "-k", "2", "-m", "6"]) == 2
        assert run(["gclass", "cover", "--seeds", "2/6,2/5"]) == 2

    def test_out_of_memory_is_a_usage_error(self, monkeypatch, capsys):
        # the stub fails as numpy does on a matrix too large for memory, allocating nothing
        def too_large(q, p):
            raise MemoryError(f"Unable to allocate 7.28 TiB for an array with shape ({q}, {q})")

        monkeypatch.setattr(matrixmodel, "fourier_intertwiner", too_large)
        assert run(["matrix", "verify", "-q", "1000003", "-p", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.err == ("error: Unable to allocate 7.28 TiB for an array with shape "
                                "(1000003, 1000003)\n")
        assert captured.out == ""

    def test_cover_takes_seeds_as_written(self, capsys):
        # 2/6 is not reduced to 1/3, as interval -k 2 -m 6 is not
        assert run(["gclass", "cover", "--seeds", "2/6,2/5"]) == 2
        assert capsys.readouterr().err == "error: seed k/m must be reduced, got 2/6\n"
        assert run(["gclass", "cover", "--seeds", "1/3,5"]) == 2
        assert capsys.readouterr().err == "error: not a seed k/m: '5'\n"

    def test_empty_batch_names_smallest_value(self, capsys):
        assert run(["gclass", "certify", "--grid", "2"]) == 2
        assert "--grid 3" in capsys.readouterr().err
        assert run(["matrix", "verify", "--sweep", "0"]) == 2
        assert "--sweep 1" in capsys.readouterr().err
        assert run(["gclass", "member", "--theta", "1/2", "--kmax", "0"]) == 2
        assert "--kmax 3" in capsys.readouterr().err

    def test_lattice_failure_is_one(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(TopVector, "in_lattice", lambda self: False)
        out = tmp_path / "top.json"
        assert run(["chern", "top", "--charge", "plus", "-p", "1", "-q", "2", "-o", str(out)]) == 1
        assert "lattice: FAIL" in capsys.readouterr().out.splitlines()
        assert json.loads(out.read_text())["ok"] is False

    def test_verification_failure_is_one(self, tmp_path):
        # an admissible but extreme slack breaks the chain for a small seed;
        # the report is still written and says what failed
        for command in ("interval", "certify"):
            out = tmp_path / f"{command}.json"
            assert run(["gclass", command, "-k", "1", "-m", "3",
                        "--kappa1", "99/100", "--kappa2", "1/2", "-o", str(out)]) == 1
            obj = json.loads(out.read_text())
            assert obj["ok"] is False
            assert obj["error"]

    def test_grid_lists_each_chain_failure(self, tmp_path, capsys):
        # 99/100 breaks rs_lt_window_lo for all three seeds of the grid
        out = tmp_path / "grid.json"
        assert run(["gclass", "certify", "--grid", "5", "--kappa1", "99/100", "-o", str(out)]) == 1
        lines = capsys.readouterr().out.splitlines()
        fails = [line for line in lines if line.startswith("seed ")]
        assert [line.split(":")[0] for line in fails] == ["seed 1/3", "seed 1/5", "seed 2/5"]
        assert all(": FAIL (chain fails for seed" in line for line in fails)
        assert "grid of 3 seeds: FAIL" in lines
        assert not any(line.startswith(("narrowest", "widest")) for line in lines)
        obj = json.loads(out.read_text())
        assert obj["ok"] is False
        assert [entry["seed"] for entry in obj["certificates"]] == [{"k": 1, "m": 3}, {"k": 1, "m": 5},
                                                                    {"k": 2, "m": 5}]
        assert all(entry["ok"] is False and "rs_lt_window_lo" in entry["error"] for entry in obj["certificates"])

    def test_cover_reports_a_broken_chain_per_seed(self, tmp_path, capsys):
        # 81/100 > 4/5 breaks the chain of 1/9 but not of 1/3
        out = tmp_path / "cover.json"
        assert run(["gclass", "cover", "--seeds", "1/3,1/9", "--kappa1", "81/100", "-o", str(out)]) == 1
        iv = gclass.interval(gclass.SeedParams(1, 3), gclass.Kappas(F(81, 100), DEFAULT_KAPPAS.k2))
        lines = capsys.readouterr().out.splitlines()
        assert lines[:2] == [f"seed 1/3: ({iv.lo}, {iv.hi})", "seed 1/9: chain fails (rs_lt_window_lo)"]
        assert json.loads(out.read_text()) == {
            "intervals": [iv.to_json(), {"error": "chain fails for seed (1, 9): rs_lt_window_lo"}], "ok": False}

    def test_identity_failure_is_reported(self, tmp_path, monkeypatch):
        real = gclass.derive
        monkeypatch.setattr(gclass, "derive", lambda seed: dataclasses.replace(real(seed), r=real(seed).r + 1))
        out = tmp_path / "identities.json"
        assert run(["gclass", "identities", "-k", "1", "-m", "3", "-o", str(out)]) == 1
        obj = json.loads(out.read_text())
        assert obj["ok"] is False
        assert obj["identities"]["ps_qr_unimodular"] is False

    def test_unwritable_report_is_two(self, tmp_path, capsys):
        out = tmp_path / "missing" / "r.json"
        assert run(["expr", "echo", "--expr", "U", "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write report:")
        assert "Traceback" not in err
        assert not out.exists()

    def test_deep_nesting_is_two(self, capsys):
        deep = "(" * 1000 + "U" + ")" * 1000
        assert run(["expr", "echo", "--expr", deep]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: parentheses nested deeper than")
        assert "Traceback" not in err

    def test_help_exits_zero(self):
        assert run(["--help"]) == 0

    def test_success_paths(self):
        assert run(["gclass", "derive", "-k", "1", "-m", "3"]) == 0
        assert run(["gclass", "identities", "-k", "2", "-m", "5"]) == 0
        assert run(["gclass", "chain", "-k", "1", "-m", "3"]) == 0
        assert run(["gclass", "interval", "-k", "1", "-m", "3"]) == 0
        assert run(["gclass", "member", "--theta", "1/2", "--kmax", "6"]) == 0
        assert run(["gclass", "cover", "--seeds", "1/3,2/5"]) == 0
        assert run(["gclass", "certify", "-k", "1", "-m", "3"]) == 0
        assert run(["gclass", "certify", "--grid", "5"]) == 0
        assert run(["traces", "check", "--window", "2"]) == 0
        assert run(["traces", "eval", "--kind", "t11", "--expr", "U", "--adjoint"]) == 0
        assert run(["chern", "top", "--charge", "minus", "-p", "1", "-q", "2"]) == 0
        assert run(["chern", "crosscheck", "-p", "3", "-q", "7"]) == 0
        assert run(["chern", "lemma24", "--nn", "2", "--kk", "-1", "--window", "2"]) == 0
        assert run(["matrix", "verify", "-p", "1", "-q", "3"]) == 0
        assert run(["expr", "echo", "--expr", "V*U"]) == 0


def _fresh_python(*args: str) -> subprocess.CompletedProcess:
    """Run a new interpreter that imports this checkout's nctorus."""
    src = str(Path(nctorus.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=60)


def test_numpy_stays_unloaded_outside_the_matrix_commands():
    # a fresh interpreter, since this one may have loaded numpy already
    code = ("import sys, nctorus.cli as cli; cli.run(['expr', 'echo', '--expr', 'U']); "
            "assert 'numpy' not in sys.modules, 'numpy was imported'")
    proc = _fresh_python("-c", code)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("module", ["nctorus", "nctorus.cli"])
def test_python_m_runs_the_cli(module):
    proc = _fresh_python("-m", module, "gclass", "derive", "-k", "1", "-m", "3")
    assert proc.returncode == 0, proc.stderr
    assert "q = 169" in proc.stdout.splitlines()
    proc = _fresh_python("-m", module, "gclass", "derive", "-k", "1", "-m", "3", "--bogus")
    assert proc.returncode == 2
    assert "unrecognized arguments: --bogus" in proc.stderr


def test_export_list_names_every_public_name():
    public = {name for name, value in vars(nctorus).items()
              if not name.startswith("_") and not isinstance(value, type(nctorus))}
    assert set(nctorus.__all__) == public
    assert len(nctorus.__all__) == len(public)


def test_importing_main_module_runs_nothing():
    proc = _fresh_python("-c", "import nctorus.__main__; print('imported')")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "imported\n"


class TestReports:
    def test_certificate_written(self, tmp_path):
        out = tmp_path / "cert.json"
        assert run(["gclass", "certify", "-k", "1", "-m", "3", "-o", str(out)]) == 0
        obj = json.loads(out.read_text())
        assert obj["overall"] is True
        assert obj["derived"]["q"] == 169

    def test_matrix_report_with_dump(self, tmp_path):
        out = tmp_path / "matrix.json"
        assert run(["matrix", "verify", "-p", "1", "-q", "2", "--dump", "-o", str(out)]) == 0
        obj = json.loads(out.read_text())
        assert obj["ok"] is True
        assert len(obj["matrix"]) == 2

    def test_dump_builds_the_matrix_once(self, tmp_path, monkeypatch):
        solve = matrixmodel.fourier_intertwiner
        calls = []

        def counted(q, p):
            calls.append((q, p))
            return solve(q, p)

        import nctorus.cli as climod
        # count builds through the module and through any name the CLI imports
        monkeypatch.setattr(matrixmodel, "fourier_intertwiner", counted)
        monkeypatch.setattr(climod, "fourier_intertwiner", counted, raising=False)
        out = tmp_path / "matrix.json"
        assert run(["matrix", "verify", "-q", "5", "-p", "2", "--dump", "-o", str(out)]) == 0
        assert calls == [(5, 2)]
        assert json.loads(out.read_text())["matrix"] == matrixmodel.matrix_to_json(solve(5, 2))

    def test_kappas_default_to_gclass_defaults(self, tmp_path):
        out = tmp_path / "r.json"
        assert run(["gclass", "certify", "-k", "1", "-m", "3", "-o", str(out)]) == 0
        assert json.loads(out.read_text())["kappas"] == DEFAULT_KAPPAS.to_json()

    def test_report_still_written_on_failure(self, tmp_path, monkeypatch):
        # a failing verification must exit 1 yet still write its report
        import nctorus.cli as climod
        bad = IntertwinerReport(q=3, p=1, resid_u=1.0, resid_v=1.0,
                                resid_unitary=1.0, order_four_ok=False)
        monkeypatch.setattr(climod, "intertwiner_report", lambda q, p: bad)
        out = tmp_path / "report.json"
        assert run(["matrix", "verify", "-p", "1", "-q", "3", "-o", str(out)]) == 1
        obj = json.loads(out.read_text())
        assert obj["ok"] is False

    def test_trace_eval_value(self, capsys, tmp_path):
        out = tmp_path / "value.json"
        assert run(["traces", "eval", "--kind", "t10", "--expr", "U*V",
                    "-o", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "ph(-1)" in captured
        assert json.loads(out.read_text())["value"] == "ph(-1)"


    def test_p_beyond_int64_reduces_mod_q(self, tmp_path):
        huge, small = tmp_path / "huge.json", tmp_path / "small.json"
        assert run(["matrix", "verify", "-p", "100000000000000000001", "-q", "3",
                    "--dump", "-o", str(huge)]) == 0
        assert run(["matrix", "verify", "-p", "2", "-q", "3", "--dump", "-o", str(small)]) == 0
        obj = json.loads(huge.read_text())
        assert obj["p"] == 100000000000000000001
        assert obj["matrix"] == json.loads(small.read_text())["matrix"]


class TestOutputLines:
    def test_pass_lines(self, capsys):
        run(["gclass", "identities", "-k", "1", "-m", "3"])
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 8
        assert all(line.endswith(": PASS") for line in lines)

    def test_echo_canonical_form(self, capsys):
        run(["expr", "echo", "--expr", "V*U"])
        assert capsys.readouterr().out.strip() == "ph(1)*U*V"

    def test_member_summary(self, capsys):
        run(["gclass", "member", "--theta", "1/2", "--kmax", "6"])
        assert "0 seed(s)" in capsys.readouterr().out

    def test_member_flags_even_m(self, capsys, tmp_path):
        # the midpoint of I(1/4), a seed whose interval is in the class but
        # which certify rejects
        out = tmp_path / "member.json"
        theta = gclass.interval(gclass.SeedParams(1, 4)).midpoint()
        assert run(["gclass", "member", "--theta", f"{theta.numerator}/{theta.denominator}",
                    "--kmax", "4", "-o", str(out)]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "seed 1/4 (not certifiable: m even)"
        assert json.loads(out.read_text())["seeds"] == [{"k": 1, "m": 4, "certifiable": False}]
        theta = gclass.interval(gclass.SeedParams(1, 3)).midpoint()
        run(["gclass", "member", "--theta", f"{theta.numerator}/{theta.denominator}", "-o", str(out)])
        assert json.loads(out.read_text())["seeds"] == [{"k": 1, "m": 3, "certifiable": True}]

    def test_member_with_huge_kmax(self, capsys, tmp_path):
        # the bound on m no longer costs a step per m
        out = tmp_path / "member.json"
        assert run(["gclass", "member", "--theta", "1/3", "--kmax", "1000000000000000000", "-o", str(out)]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "0 seed(s) contain theta = 1/3"
        assert json.loads(out.read_text()) == {"theta": "1/3", "seeds": [], "convergents": 0}

    def test_member_counts_convergents_read(self, capsys, tmp_path):
        # 73/1156 = [0; 15, 1, 5, 12] has denominators 1, 15, 16, 95 and 1156, and only
        # 1156 lies in [s(3), s(40)] = [205, 109441]
        out = tmp_path / "member.json"
        assert run(["gclass", "member", "--theta", "73/1156", "-o", str(out)]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "0 seed(s) contain theta = 73/1156"
        assert json.loads(out.read_text()) == {"theta": "73/1156", "seeds": [], "convergents": 1}

    def test_trace_eval_output(self, capsys):
        # printed by the code that formed the product before taking psi
        expr = "(U + i*V)*(U*V^2 + ph(1/3)*V + 2*U^2*V^3)"
        for adjoint in ([], ["--adjoint"]):
            assert run(["traces", "eval", "--kind", "t21", "--expr", expr, *adjoint]) == 0
            assert capsys.readouterr().out == "2*ph(-9/2) + i*ph(-1/2) + ph(-1/6)\n"

    def test_grid_names_failed_checks(self, capsys, tmp_path, monkeypatch):
        import nctorus.cli as climod
        real = climod.certify

        def certify(seed, kappas):
            cert = real(seed, kappas)
            return dataclasses.replace(cert, tau0_positive=False) if seed.m == 5 else cert

        monkeypatch.setattr(climod, "certify", certify)
        out = tmp_path / "grid.json"
        assert run(["gclass", "certify", "--grid", "5", "-o", str(out)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert [line for line in lines if line.startswith("seed ")] == [
            "seed 1/3: PASS", "seed 1/5: FAIL (tau0_positive, kappa2_below_s_over_B)",
            "seed 2/5: FAIL (tau0_positive, kappa2_below_s_over_B)"]
        assert "grid of 3 seeds: FAIL" in lines
        entries = json.loads(out.read_text())["certificates"]
        assert [entry["overall"] for entry in entries] == [True, False, False]

    def test_grid_summary(self, capsys):
        assert run(["gclass", "certify", "--grid", "5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-3:] == [
            "narrowest window: 3191961/35852814749284 (8.903e-08)",
            "widest window: 44617/4801104100 (9.293e-06)",
            "grid of 3 seeds: PASS",
        ]

    def test_sweep_summary(self, capsys):
        assert run(["matrix", "verify", "--sweep", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == "sweep q <= 3: PASS"
        label, worst = lines[-2].split(": ")
        assert label == "worst residual"
        assert 0 < float(worst) < TOL
