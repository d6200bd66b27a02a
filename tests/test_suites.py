import hashlib
import inspect
import json
import os
import subprocess
import sys

import pytest

from gform_lab.groups import FiniteAbelianGroup
from gform_lab.number_fields import FieldConstructionError, build_field
from gform_lab.suites import CHECKS, SUITES, SuiteConfig, run_check, run_suite, sieve_conductors


def test_sieve_conductors():
    assert sieve_conductors(3, 20) == [7, 13, 19]
    assert 91 in sieve_conductors(3, 100)
    assert sieve_conductors(5, 12) == [11]
    assert 9 not in sieve_conductors(3, 100)  # not squarefree
    assert 21 not in sieve_conductors(3, 100)  # 3 divides it
    with pytest.raises(ValueError):
        sieve_conductors(4, 10)


def test_sieve_keeps_exactly_the_conductors_build_field_admits():
    for p in (3, 5, 7):
        kept = sieve_conductors(p, 100)
        for f in range(-2, 101):
            try:
                build_field(p, f)
            except FieldConstructionError:
                assert f not in kept
            else:
                assert f in kept
    for p in (1, 2, 4, 9):
        with pytest.raises(FieldConstructionError, match=f"^degree {p} must be an odd prime$"):
            sieve_conductors(p, 2)


def test_every_check_is_a_generator_function():
    for name, fn in CHECKS.values():
        assert inspect.isgeneratorfunction(fn), name


def test_run_check_keeps_every_instance_in_yield_order_and_fails_on_one(monkeypatch):
    def check(config):
        yield "second", {"n": 2}, True
        yield "first", {"n": 1}, False
        yield "third", [3], True

    monkeypatch.setitem(CHECKS, "C7", ("inverse_law_instances", check))
    result = run_check("C7", SuiteConfig())
    assert (result.check_id, result.name, result.status) == ("C7", "inverse_law_instances", "fail")
    assert list(result.details.items()) == [("second", {"n": 2}), ("first", {"n": 1}), ("third", [3])]
    assert not run_suite("theorem11").passed


def test_run_check_reports_a_raise_after_a_yield_as_error_without_entries(monkeypatch):
    def check(config):
        yield "done", {"ok": True}, True
        raise ArithmeticError("second instance broke")

    monkeypatch.setitem(CHECKS, "C7", ("inverse_law_instances", check))
    result = run_check("C7", SuiteConfig())
    assert result.status == "error"
    assert result.details == {"error": "ArithmeticError: second instance broke"}
    assert run_suite("theorem11").to_json()["checks"][0] == {
        "id": "C7",
        "name": "inverse_law_instances",
        "status": "error",
        "details": {"error": "ArithmeticError: second instance broke"},
    }


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("bogus")


def test_suite_reports_are_byte_reproducible():
    cfg = SuiteConfig(seed=1)
    r1 = run_suite("factorization", cfg)
    r2 = run_suite("factorization", cfg)
    assert r1.to_bytes() == r2.to_bytes()
    assert r1.passed


def test_report_schema_and_hash():
    report = run_suite("theorem11", SuiteConfig(seed=5))
    doc = report.to_json()
    assert doc["schema_version"] == 1
    assert doc["suite"] == "theorem11"
    assert doc["config"]["seed"] == 5
    assert doc["status"] == "pass"
    assert len(doc["artifact_hash"]) == 64
    assert {c["id"] for c in doc["checks"]} == {"C7", "C8"}
    assert "timings" not in doc  # deterministic core only, timings are opt-in


def test_timings_are_opt_in():
    report = run_suite("factorization", SuiteConfig(seed=1, include_timings=True))
    assert "timings" in report.to_json()


def test_every_check_in_exactly_one_nontrivial_suite():
    seen = {}
    for name, ids in SUITES.items():
        if name == "all":
            continue
        for cid in ids:
            assert cid not in seen, f"{cid} appears in {seen[cid]} and {name}"
            seen[cid] = name
    assert set(seen) == set(SUITES["all"])


def run_cli(*argv, env=None):
    proc = subprocess.run(
        [sys.executable, "-m", "gform_lab.cli", *argv],
        capture_output=True,
        text=True,
        timeout=300,
        env={**os.environ, **(env or {})},
    )
    return proc


def test_cli_corpus():
    proc = run_cli("corpus", "--degree", "3", "--max", "20", "--json")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["conductors"] == [7, 13, 19]


def test_cli_stickelberger_table(tmp_path):
    out = tmp_path / "table.json"
    proc = run_cli("stickelberger", "table", "--group", "3,9", "--out", str(out))
    assert proc.returncode == 0
    doc = json.loads(out.read_text())
    assert doc["group"] == [3, 9]
    assert len(doc["pairs"]) == 27 * 27
    assert len(doc["s_hat_basis"]) == 27
    assert doc["checks"]["integrality_matches_kernel"] == {
        "lattice_equals_kernel": True,
        "index": 27,
    }
    assert doc["checks"]["twist_equivariance"] is True
    assert doc["checks"]["transpose_self_dual"] is True


@pytest.mark.parametrize("check", ["integrality", "equivariance", "self_duality"])
def test_cli_stickelberger_table_exits_1_on_a_failed_check(check, monkeypatch, capsys):
    from gform_lab import stickelberger as stk
    from gform_lab.cli import main

    if check == "integrality":
        G = FiniteAbelianGroup((3, 3))
        cert = stk.integrality_certificate(G)
        broken = stk.IntegralityCertificate(G, cert.lattice, stk.det_kernel_basis(G)[0])
        monkeypatch.setattr(stk, "integrality_certificate", lambda group: broken)
    elif check == "equivariance":
        monkeypatch.setattr(stk, "equivariance_check", lambda group, gens: False)
    else:
        monkeypatch.setattr(stk, "image_selfdual_check", lambda f: False)
    assert main(["stickelberger", "table", "--group", "3,3", "--json"]) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert False in (checks["integrality_matches_kernel"]["lattice_equals_kernel"],
                     checks["twist_equivariance"], checks["transpose_self_dual"])


def test_stickelberger_suite_and_table_import_no_numpy(tmp_path):
    # numpy is a test extra only: the library's integrality path is exact
    # lattice arithmetic in pure Python
    code = "\n".join([
        "import sys",
        "from gform_lab.cli import main",
        "from gform_lab.suites import run_suite",
        "assert run_suite('stickelberger').passed",
        f"assert main(['stickelberger', 'table', '--group', '3,9', '--out', {str(tmp_path / 't.json')!r}]) == 0",
        "print('numpy' in sys.modules)",
    ])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_cli_field_analyze():
    proc = run_cli("field", "analyze", "--degree", "3", "--conductor", "7", "--json")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["gram"] == [[5, -2, -2], [-2, 5, -2], [-2, -2, 5]]
    assert doc["checks"]["disc"] == 49
    assert doc["checks"]["A_self_dual"] is True
    assert doc["checks"]["gram_det_A"] == "1/1"


def test_cli_selfdual_search():
    proc = run_cli("selfdual", "search", "--degree", "3", "--conductor", "7", "--json")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["gram_check"] is True
    assert doc["lattice_check"] is True
    assert len(doc["witness_coords"]) == 3


def test_cli_compose():
    proc = run_cli("compose", "--conductors", "7,13", "--json")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["composite_conductor"] == 91
    assert doc["status"] == "pass"


# sha256 of the --json stdout of each report, so that no refactor changes a
# report silently; a deliberate change re-pins its hash and says why
CLI_REPORT_HASHES = [
    pytest.param(("field", "analyze", "--degree", "3", "--conductor", "7"),
                 "b14269ba72e4dfa041f4ca5c36315dee19fee99d2d5eda01ff6911176761fe31",
                 id="field-analyze-3-7"),
    pytest.param(("field", "analyze", "--degree", "5", "--conductor", "11"),
                 "044302380bbec27acfb49b04c76f20943f05244dabfe6424588ac5066442e8e8",
                 id="field-analyze-5-11"),
    pytest.param(("selfdual", "search", "--degree", "3", "--conductor", "13"),
                 "2e2dcedc4c92c94fb44e0fdd1146b07cc2470c3a5a31436e9608facd14f8faf7",
                 id="selfdual-search-3-13"),
    pytest.param(("compose", "--conductors", "7,13"),
                 "f8212f8d21776d1e1c6a0e9eeef0290718ea2fb854b5222c31669f33ede8129d",
                 id="compose-7-13"),
    pytest.param(("stickelberger", "table", "--group", "3,3"),
                 "64f90c747763b2b2575529359340972bdcaadefa81c8756b79d3ed67cab834dc",
                 id="stickelberger-table-3-3"),
]


@pytest.mark.parametrize("argv, digest", CLI_REPORT_HASHES)
def test_cli_report_hash_is_pinned(argv, digest):
    proc = run_cli(*argv, "--json")
    assert proc.returncode == 0
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == digest


def test_cli_propcheck_single_suite(tmp_path):
    out = tmp_path / "report.json"
    proc = run_cli("propcheck", "theorem11", "--seed", "1", "--out", str(out))
    assert proc.returncode == 0
    doc = json.loads(out.read_text())
    assert doc["status"] == "pass"
    assert "[PASS] C7" in proc.stderr


def test_cli_propcheck_rejects_unknown_suite():
    proc = run_cli("propcheck", "nonsense")
    assert proc.returncode != 0


def test_cli_group_spec_validation():
    proc = run_cli("stickelberger", "table", "--group", "3,5")
    assert proc.returncode != 0
    proc = run_cli("stickelberger", "table", "--group", "2,4")
    assert proc.returncode != 0  # even order rejected at the pairing gate


@pytest.mark.parametrize(
    "argv,env,code,error",
    [
        (("selfdual", "search", "--conductor", "9"), {}, 2, "FieldConstructionError"),
        (("field", "analyze", "--conductor", "9"), {}, 2, "FieldConstructionError"),
        (("compose", "--conductors", "7,7"), {}, 2, "FieldConstructionError"),
        (("corpus", "--degree", "4"), {}, 2, "FieldConstructionError"),
        (("stickelberger", "table", "--group", "2,4"), {}, 2, "GroupSpecError"),
        (("field", "analyze", "--conductor", "7"), {"GFORM_LAB_MAX_LEVEL": "abc"}, 2, "ValueError"),
        (("compose", "--conductors", "7,13"), {"GFORM_LAB_MAX_LEVEL": "50"}, 3,
         "LevelBoundError"),
    ],
    ids=["selfdual_wild", "field_wild", "compose_clash", "corpus_degree", "even_group",
         "malformed_cap", "level_cap"],
)
def test_cli_library_errors_are_one_line(argv, env, code, error):
    proc = run_cli(*argv, env=env)
    assert proc.returncode == code
    assert proc.stdout == ""
    assert proc.stderr.startswith(f"gform-lab: error: {error}: ")
    assert proc.stderr.count("\n") == 1, proc.stderr


def test_cli_verbs_are_argparse_choices():
    proc = run_cli("selfdual", "find", "--conductor", "7")
    assert proc.returncode == 2
    assert "invalid choice: 'find'" in proc.stderr


def test_cli_propcheck_reports_a_raising_check_as_error():
    proc = run_cli("propcheck", "theorem11", "--json", env={"GFORM_LAB_MAX_LEVEL": "50"})
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    checks = {c["id"]: c for c in json.loads(proc.stdout)["checks"]}
    assert checks["C7"]["status"] == "pass"
    assert checks["C8"]["status"] == "error"
    assert checks["C8"]["name"] == "product_law_conductor_91"
    assert checks["C8"]["details"]["error"].startswith("LevelBoundError: level 91 exceeds cap 50")


def test_cli_propcheck_reports_a_raising_field_as_error():
    proc = run_cli("propcheck", "fields", "--json", env={"GFORM_LAB_MAX_LEVEL": "50"})
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    (check,) = json.loads(proc.stdout)["checks"]
    assert check["id"] == "C5"
    assert check["status"] == "error"
    assert check["details"]["error"].startswith("LevelBoundError: level 61 exceeds cap 50")
