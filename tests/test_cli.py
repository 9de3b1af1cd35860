import json
import os
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest

from wzkit import cli
from wzkit import involution as inv
from wzkit import wzengine
from wzkit.cli import (UsageError, _effective_jobs, _runtime_registry, main,
                       run_command)
from wzkit.identities import check_identity, corollary_derivations, registry
from wzkit.reports import frac_str, render, report_schema


def _validate(reports):
    schema = report_schema()
    payload = json.loads(render(reports, "json"))
    assert isinstance(payload, list) and payload
    for obj in payload:
        jsonschema.validate(obj, schema)
    return payload


def test_oracle_pass_exit_zero():
    code, reports = run_command(
        ["oracle", "--id", "thm1", "--n-min", "0", "--n-max", "40"])
    assert code == 0
    assert reports[0].status == "pass" and not reports[0].failures
    _validate(reports)


def test_parser_built_once_parses_each_call_afresh(monkeypatch):
    real, builds = cli.build_parser, []

    def counted():
        builds.append(1)
        return real()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    try:
        code, (first,) = run_command(["oracle", "--id", "thm3", "--mode", "literal",
                                      "--n-min", "1", "--n-max", "4"])
        assert code == 1
        assert (first.subject_id, first.mode, first.range) == ("thm3_printed", "literal", (1, 4))
        # no option of the call before carries over: mode and n-min are the
        # defaults again, and then a subcommand without --id parses
        code, (second,) = run_command(["oracle", "--id", "thm3", "--n-max", "3"])
        assert code == 0
        assert (second.subject_id, second.mode, second.range) == ("thm3_eq6", "corrected", (1, 3))
        code, reports = run_command(["lemmas", "--n-max", "2"])
        assert code == 0 and {r.range for r in reports} == {(1, 2)}
        assert len(builds) == 1
    finally:
        cli._parser.cache_clear()


def test_oracle_literal_thm3_exit_one_with_erratum():
    code, reports = run_command(
        ["oracle", "--id", "thm3_printed", "--n-min", "1", "--n-max", "10"])
    assert code == 1
    rep = reports[0]
    assert rep.status == "fail"
    assert [f.n for f in rep.failures] == [2, 4, 6, 8, 10]
    assert rep.failures[0].lhs == "-6" and rep.failures[0].rhs == "6"
    assert rep.errata  # erratum flag names the sign problem
    assert rep.mode == "literal"
    _validate(reports)


def test_oracle_mode_alias():
    code, reports = run_command(
        ["oracle", "--id", "thm3", "--mode", "corrected",
         "--n-min", "1", "--n-max", "12"])
    assert code == 0
    assert reports[0].subject_id == "thm3_eq6"


def test_verify_literal_exit_one():
    code, reports = run_command(["verify", "--id", "thm1", "--mode", "literal"])
    assert code == 1
    rep = reports[0]
    assert rep.mode == "literal" and rep.status == "fail"
    assert rep.errata and rep.failures
    _validate(reports)


def test_verify_corrected_exit_zero():
    code, reports = run_command(
        ["verify", "--id", "thm1", "--mode", "corrected",
         "--n-min", "0", "--n-max", "12", "--seed", "7"])
    assert code == 0
    _validate(reports)


def test_unknown_id_exit_two():
    code, reports = run_command(["oracle", "--id", "nonsense"])
    assert code == 2 and reports == []


@pytest.mark.parametrize("argv, ident", [
    (["involution", "--id", "thm4"], "thm4"),
    (["oracle", "--id", "nonsense"], "nonsense"),
])
def test_unknown_id_message(capsys, argv, ident):
    code, reports = run_command(argv)
    assert code == 2 and reports == []
    assert capsys.readouterr().err == f"wzkit: error: unknown id '{ident}'\n"


@pytest.mark.parametrize("argv", [
    ["involution", "--id", "thm1", "--n-min", "8", "--n-max", "9"],
    ["involution", "--id", "thm1", "--n-min", "8", "--n-max", "9", "--jobs", "2"],
    ["involution", "--id", "thm3", "--n-min", "0", "--n-max", "2"],
])
def test_involution_range_refused_before_enumerating(monkeypatch, argv):
    def enumerate_nothing(model):
        raise AssertionError(f"enumerated {model} before checking the range")

    monkeypatch.setattr(inv, "check_involution", enumerate_nothing)
    code, reports = run_command(argv)
    assert code == 2 and reports == []


def test_malformed_range_exit_two():
    code, _ = run_command(
        ["oracle", "--id", "thm1", "--n-min", "10", "--n-max", "3"])
    assert code == 2
    code, _ = run_command(
        ["oracle", "--id", "thm3_eq6", "--n-min", "0", "--n-max", "5"])
    assert code == 2  # below validFrom
    code, _ = run_command(["lemmas", "--n-min", "0", "--n-max", "3"])
    assert code == 2  # the lemmas read registry sums below their validFrom


def test_bad_spec_file_exit_two(tmp_path):
    bad = tmp_path / "bad.wz"
    bad.write_text("term X( := 1\n")
    code, _ = run_command(
        ["oracle", "--id", "thm1", "--spec", str(bad), "--n-max", "5"])
    assert code == 2


def test_spec_overlay_adds_case(tmp_path):
    extra = tmp_path / "extra.wz"
    extra.write_text(
        "term Z(n, k) := sign(n + k) * binom(n + k + 1, 2*k + 1) * pow(2, 2*k)\n"
        "sum doubled(n) := sum(k, 0, n, Z) == n + 1 for n >= 0\n")
    code, reports = run_command(
        ["oracle", "--id", "doubled", "--spec", str(extra),
         "--n-min", "0", "--n-max", "25"])
    assert code == 0
    assert reports[0].subject_id == "doubled"


def test_lemmas_exit_zero():
    code, reports = run_command(["lemmas", "--n-min", "1", "--n-max", "30"])
    assert code == 0
    assert {r.subject_id for r in reports} == {
        "boundary_flat", "boundary_stepped", "sum_difference", "boundary_gap"}
    _validate(reports)


def test_involution_thm2_pass():
    code, reports = run_command(
        ["involution", "--id", "thm2", "--n-min", "-1", "--n-max", "3"])
    assert code == 0
    _validate(reports)


def test_involution_thm3_reports_violations():
    code, reports = run_command(
        ["involution", "--id", "thm3", "--n-min", "1", "--n-max", "3"])
    assert code == 1
    rep = reports[0]
    assert rep.status == "fail"
    assert any("closure" in e for e in rep.errata)
    _validate(reports)


def test_discover_pass_and_no_solution():
    code, reports = run_command(["discover", "--id", "thm2", "--order", "1"])
    assert code == 0 and reports[0].status == "pass"
    _validate(reports)
    code, reports = run_command(["discover", "--id", "thm1", "--order", "0"])
    assert code == 1 and reports[0].status == "fail"
    assert "no order-0" in reports[0].errata[0]


def test_discover_prefactor_denominator_not_affine_exit_two(tmp_path, capsys):
    # the denominator (n+1)(k+1)(k+2) is of degree 2 in k, which discovery refuses
    spec = tmp_path / "quadratic.wz"
    spec.write_text(
        "term Fq(n, k) := binom(n + k + 1, 2*k + 1) * sign(k + n) / ((n + 1)*(k + 1)*(k + 2))\n"
        "cert Rq(n, k) := 0\n"
        "recurrence wz_quadratic(n, k) := [-1, 1] * Fq cert Rq\n")
    code = main(["discover", "--id", "wz_quadratic", "--spec", str(spec), "--order", "1"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == ("wzkit: error: prefactor denominator k^2*n + k^2 + 3*k*n + 3*k + 2*n + 2"
                   " is not one form affine in k times a factor free of k\n")


def test_discover_reads_every_spec(tmp_path):
    # wz_fallback is defined only in the first of the two files
    fallback, ratio = tmp_path / "fallback.wz", tmp_path / "ratio.wz"
    fallback.write_text(
        "term Fk(n, k) := binom(n + k + 1, 2*k + 1) * pow(2, 2*k) * sign(k + n)"
        " / ((n + 1)*(k + 1))\n"
        "cert Rk(n, k) := 0\n"
        "recurrence wz_fallback(n, k) := [-1, 1] * Fk cert Rk\n")
    ratio.write_text(
        "term Fr(n, k) := binom(n + k + 1, 2*k + 1) * pow(2, 2*k) * sign(k + n) * (k + 2)"
        " / ((n + 1)*(k + 1))\n"
        "cert Rr(n, k) := 0\n"
        "recurrence wz_ratio(n, k) := [-1, 1] * Fr cert Rr\n")
    specs = ["--spec", str(fallback), "--spec", str(ratio)]
    for ident in ("wz_fallback", "wz_ratio"):
        code, reports = run_command(["discover", "--id", ident, *specs, "--order", "1"])
        assert code == 0 and reports[0].status == "pass"


def test_later_spec_replaces_earlier_definition(tmp_path):
    right, wrong = tmp_path / "right.wz", tmp_path / "wrong.wz"
    right.write_text("term B(n, k) := binom(n, k)\n"
                     "sum s(n) := sum(k, 0, n, B) == pow(2, n) for n >= 0\n")
    wrong.write_text("term B(n, k) := binom(n, k)\n"
                     "sum s(n) := sum(k, 0, n, B) == pow(3, n) for n >= 0\n")
    for first, second, want in ((right, wrong, 1), (wrong, right, 0)):
        code, reports = run_command(["oracle", "--id", "s", "--spec", str(first),
                                     "--spec", str(second), "--n-min", "0", "--n-max", "4"])
        assert code == want and reports[0].subject_id == "s"
    assert (_runtime_registry(str(wrong), str(right)).case("s")
            == _runtime_registry(str(right)).case("s"))


def test_text_and_json_agree():
    _, reports = run_command(
        ["oracle", "--id", "thm3_printed", "--n-min", "1", "--n-max", "6"])
    payload = _validate(reports)
    text = render(reports, "text")
    for obj in payload:
        assert obj["status"].upper() in text
        assert obj["id"] in text
        for f in obj["failures"]:
            assert f["lhs"] in text and f["rhs"] in text
        for e in obj["errata"]:
            assert e in text


def test_jobs_parallel_matches_sequential():
    _, seq = run_command(
        ["oracle", "--id", "thm2", "--n-min", "-1", "--n-max", "60"])
    _, par = run_command(
        ["oracle", "--id", "thm2", "--n-min", "-1", "--n-max", "60",
         "--jobs", "2"])
    assert seq[0].status == par[0].status == "pass"
    assert [f._asdict() for f in seq[0].failures] == \
        [f._asdict() for f in par[0].failures]


@pytest.fixture
def submitted(monkeypatch):
    """The (n, k) of every stratum task handed to a process pool."""
    tasks = []
    submit = ProcessPoolExecutor.submit

    def recording_submit(pool, fn, model, k):
        tasks.append((model.n, k))
        return submit(pool, fn, model, k)

    monkeypatch.setattr(ProcessPoolExecutor, "submit", recording_submit)
    return tasks


@pytest.mark.parametrize("ident, lo, hi", [
    ("thm3", 1, 6), ("thm2", -1, 5),
    ("thm3", 6, 6),  # one n still splits into several tasks
])
def test_involution_jobs_matches_sequential(submitted, ident, lo, hi):
    argv = ["involution", "--id", ident, "--n-min", str(lo), "--n-max", str(hi)]
    code, seq = run_command(argv)
    assert submitted == []
    par_code, par = run_command(argv + ["--jobs", "2"])
    # n from the largest down; within each n the largest stratum first
    order = []
    for n in range(hi, lo - 1, -1):
        model = inv.WordModel(ident, n)
        size = {k: sum(1 for _ in model.stratum_words(k)) for k in model.strata()}
        order += [(n, k) for k in sorted(size, key=size.get, reverse=True)]
    assert submitted == order and len(order) > 1
    assert code == par_code == (1 if ident == "thm3" else 0)
    assert seq[0].status == par[0].status
    assert [f._asdict() for f in seq[0].failures] == \
        [f._asdict() for f in par[0].failures]
    assert seq[0].errata == par[0].errata
    assert bool(seq[0].errata) == (ident == "thm3")


def test_single_task_opens_no_pool(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("opened a pool for a single task")

    monkeypatch.setattr(ProcessPoolExecutor, "__init__", no_pool)
    for ident, n in (("thm1", "0"), ("thm2", "-1")):
        code, reports = run_command(
            ["involution", "--id", ident, "--n-min", n, "--n-max", n, "--jobs", "2"])
        assert code == 0 and reports[0].status == "pass"


def test_cli_imports_no_pool_machinery():
    # the pool modules load only when a pool is opened
    probe = ("import sys, wzkit.cli; wzkit.cli.registry(); "
             "print(sorted(m for m in ('concurrent.futures', 'multiprocessing') "
             "if m in sys.modules))")
    src = str(Path(cli.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == "[]"


def test_cli_import_loads_no_dataclasses():
    # dataclasses pulls in inspect, ast and dis, a fifth of wzkit's start-up;
    # counted against the modules loaded before the import, such as site's.
    # Reading the bundled .wz files and the schema loads neither
    probe = ("import sys; before = set(sys.modules); import wzkit.cli; "
             "wzkit.cli.registry(); wzkit.reports.report_schema(); "
             "added = set(sys.modules) - before; "
             "print(sorted(m for m in ('dataclasses', 'inspect') if m in added), "
             "'wzkit.cli' in added)")
    src = str(Path(cli.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == "[] True"


def test_jobs_from_a_script_on_stdin_runs_serially():
    # spawned workers re-import the main module by path, and "<stdin>" is none
    argv = ["involution", "--id", "thm3", "--n-min", "5", "--n-max", "6"]
    script = ("import json, sys\nfrom wzkit import cli, reports\n"
              f"code, reps = cli.run_command({argv + ['--jobs', '2']!r})\n"
              "print(code)\nprint(reports.render(reps, 'json'))\n")
    src = str(Path(cli.__file__).parents[1])
    out = subprocess.run([sys.executable, "-"], input=script, capture_output=True,
                         text=True, timeout=300, env=dict(os.environ, PYTHONPATH=src))
    assert out.returncode == 0, out.stderr
    assert "--jobs 2 lowered to 1: worker processes cannot import the main module " \
        "'<stdin>'" in out.stderr
    code, payload = out.stdout.split("\n", 1)
    serial_code, serial = run_command(argv)
    assert int(code) == serial_code == 1
    jobs2, serial = ([{k: v for k, v in o.items() if k != "ms"} for o in json.loads(text)]
                     for text in (payload, render(serial, "json")))
    assert jobs2 == serial and jobs2[0]["failures"]


def test_jobs_from_a_script_without_main_guard_exit_two(tmp_path):
    # each spawned worker re-runs the script and dies in its own pool start
    script = tmp_path / "unguarded.py"
    script.write_text(
        "import sys\nfrom wzkit import cli\n"
        "code, _ = cli.run_command(['involution', '--id', 'thm2', '--n-min', '3', "
        "'--n-max', '3', '--jobs', '2'])\nsys.exit(code)\n")
    src = str(Path(cli.__file__).parents[1])
    out = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                         timeout=300, env=dict(os.environ, PYTHONPATH=src))
    assert out.returncode == 2, out.stderr
    assert "wzkit: error: a worker process of --jobs 2 ended abruptly" in out.stderr
    assert 'under `if __name__ == "__main__":`' in out.stderr
    assert "BrokenProcessPool" not in out.stderr


def test_all_jobs_matches_golden(capsys):
    code = main(["all", "--jobs", "2", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    golden = json.loads(
        (Path(__file__).parent / "data" / "all_reports.json").read_text())
    assert code == 1
    assert [{k: v for k, v in obj.items() if k != "ms"} for obj in payload] == golden


def test_usage_error_exit_two():
    for argv in (
        ["oracle"],  # --id is required
        # options the subcommand does not read
        ["discover", "--id", "thm2", "--n-min", "9", "--n-max", "3", "--jobs", "2"],
        ["involution", "--id", "thm1", "--mode", "literal", "--seed", "3"],
        ["lemmas", "--jobs", "2"],
    ):
        with pytest.raises(SystemExit) as exc:
            run_command(argv)
        assert exc.value.code == 2, argv


def test_negative_binomial_top_exit_two(tmp_path, capsys):
    spec = tmp_path / "neg.wz"
    spec.write_text(
        "term T(n, k) := binom(k - n - 1, k)\n"
        "sum neg(n) := sum(k, 0, n, T) == 1 for n >= 0\n"
        "term N2(n, k, m) := binom(n - 2*k, m) * pow(3, m + k)\n"
        "sum negative_top_row(n) := sum(k, 0, n, N2) sum(m, 0, k, N2) == 0 for n >= 0\n")
    # a single and a double sum, then the double sum on its default range
    for ident, n_max, n in (("neg", ["--n-max", "1"], 0),
                            ("negative_top_row", ["--n-max", "1"], 1),
                            ("negative_top_row", [], 1)):
        code, reports = run_command(
            ["oracle", "--id", ident, "--spec", str(spec), *n_max])
        assert code == 2 and reports == []
        assert capsys.readouterr().err == (
            f"wzkit: error: binomial top must be >= 0, got -1 at n={n}\n"), ident


def test_spec_overlay_redefines_thm3_eq6(tmp_path):
    # the literal sign (-1)^(m+k) makes the sum (-1)^(n+1) n(n+1)
    spec = tmp_path / "thm3.wz"
    spec.write_text(
        "term T(n, k, m) := sign(m + k) * binom(n + k + 1, m) * pow(2, m - 1)\n"
        "sum thm3_eq6(n) := sum(m, 2, 2*n, T) sum(k, 0, floor2(m - 2), T)"
        " == n^2 + n for n >= 1\n")
    bundled = ["lemmas", "--n-min", "1", "--n-max", "6"]
    assert run_command(bundled)[0] == 0
    code, reports = run_command(bundled + ["--spec", str(spec)])
    assert code == 1
    diff = next(r for r in reports if r.subject_id == "sum_difference")
    assert [f.n for f in diff.failures] == [1, 2, 3, 4, 5, 6]
    assert (diff.failures[0].lhs, diff.failures[0].rhs) == ("-8", "4")
    assert all(r.status == "pass" for r in reports if r is not diff)
    assert run_command(bundled)[0] == 0
    fails = corollary_derivations(limit=6, reg=_runtime_registry(str(spec)))
    assert fails == {"cor1": [2, 4, 6], "cor2": [2, 4, 6], "cor3": [],
                     "cor4": [], "cor5": []}
    assert not any(corollary_derivations(limit=6).values())


def test_spec_overlay_breaks_only_the_cor5_recipe(tmp_path):
    # cor5 negated: its recipe, the sum of thm1 at odd parameters, fails at every n
    spec = tmp_path / "cor5.wz"
    spec.write_text(
        "term C5(l, k, m) := sign(m + 1) * binom(2*k + m + 1, 2*m - 1) * pow(4, m - 1)\n"
        "sum cor5(l) := sum(k, 0, 2*l, C5) sum(m, 1, 2*k + 2, C5)"
        " == -4*l^2 - 6*l - 2 for l >= 0\n")
    fails = corollary_derivations(limit=6, reg=_runtime_registry(str(spec)))
    assert fails == {"cor1": [], "cor2": [], "cor3": [], "cor4": [],
                     "cor5": [0, 1, 2, 3, 4, 5, 6]}


def test_spec_overlay_redefines_a_lemma_sum(tmp_path):
    # the lemmas read registry sums, so flipping the stepped sum's sign
    # breaks exactly the two lemmas built on it
    spec = tmp_path / "lemmas.wz"
    spec.write_text(
        "term BS(n, m, j) := sign(m + j + n) * binom(n + j + 1, m) * pow(2, m - 1)\n"
        "sum boundary_stepped_case(n) := sum(m, 2, 2*n, BS)"
        " sum(j, floor2(m), floor2(m), BS)"
        " == 2*n + 5/2 - (n + 1/2)*sign(n) - 3*pow(4, n) for n >= 1\n")
    bundled = ["lemmas", "--n-min", "1", "--n-max", "6"]
    code, reports = run_command(bundled + ["--spec", str(spec)])
    assert code == 1
    status = {r.subject_id: r.status for r in reports}
    assert status == {"boundary_flat": "pass", "boundary_stepped": "fail",
                      "sum_difference": "pass", "boundary_gap": "fail"}
    stepped = next(r for r in reports if r.subject_id == "boundary_stepped")
    assert [f.n for f in stepped.failures] == [1, 2, 3, 4, 5, 6]
    assert (stepped.failures[0].lhs, stepped.failures[0].rhs) == ("6", "-6")
    assert run_command(bundled)[0] == 0


def test_format_json_in_every_spelling(capsys):
    for fmt in (["--form", "json"], ["--format=json"], ["--format", "json"]):
        assert main(["oracle", "--id", "thm1", "--n-max", "2", *fmt]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [obj["id"] for obj in payload] == ["thm1"], fmt


def test_effective_jobs_rejects_and_clamps():
    for bad in (0, -1, -50):
        with pytest.raises(UsageError):
            _effective_jobs(bad, cpus=2)
    assert _effective_jobs(1, cpus=2) == 1
    assert _effective_jobs(2, cpus=2) == 2
    assert _effective_jobs(10**6, cpus=2) == 2
    assert _effective_jobs(3, cpus=8) == 3


def test_jobs_below_one_exit_two(capsys):
    for jobs in ("0", "-3"):
        code, reports = run_command(
            ["oracle", "--id", "thm1", "--n-max", "3", "--jobs", jobs])
        assert code == 2 and reports == []
        assert "--jobs must be at least 1" in capsys.readouterr().err


def test_negative_order_exit_two(capsys):
    code, reports = run_command(["discover", "--id", "thm1", "--order", "-1"])
    assert code == 2 and reports == []
    assert capsys.readouterr().err == "wzkit: error: --order must be at least 0, got -1\n"


@pytest.mark.parametrize("order", ["2", "3"])
def test_order_above_one_refused_before_discovery(monkeypatch, capsys, order):
    def discover_nothing(*args, **kwargs):
        raise AssertionError("discovery ran before the order was refused")

    monkeypatch.setattr(cli.wzengine, "discover_certificate", discover_nothing)
    code, reports = run_command(["discover", "--id", "thm1", "--order", order])
    assert code == 2 and reports == []
    err = capsys.readouterr().err
    assert err.startswith(f"wzkit: error: --order must be at most 1, got {order}: ")
    assert "runs past 60 s" in err


# a recurrence whose term has no upper support in k: a bare power, and
# thm3's summand, whose support in k is bounded only below, by its free m
_UNBOUNDED_SPECS = {
    "inf": ("term F(n, k) := pow(2, k)\n"
            "cert R(n, k) := 0\n"
            "recurrence inf(n, k) := [-1, 1] * F cert R\n"
            "    base 0 == 1\n"
            "check verify inf [0, 3]\n",
            "term pow(2, k) of inf"),
    "free": ("term T(n, k, m) := sign(m + k + n + 1) * binom(n + k + 1, m) * pow(2, m - 1)\n"
             "cert R(n, k) := 1\n"
             "recurrence free(n, k) := [-1, 1] * T cert R\n"
             "    base 1 == 2\n"
             "check verify free [1, 3]\n",
             "term sign(k + m + n + 1) * pow(2, m - 1) * binom(k + n + 1, m) of free"),
}


@pytest.mark.parametrize("command", ["verify", "all"])
@pytest.mark.parametrize("ident", sorted(_UNBOUNDED_SPECS))
def test_unbounded_recurrence_support_exit_two(tmp_path, capsys, command, ident):
    text, term = _UNBOUNDED_SPECS[ident]
    spec = tmp_path / f"{ident}.wz"
    spec.write_text(text)
    argv = [command, "--spec", str(spec)] + (["--id", ident] if command == "verify" else [])
    code, reports = run_command(argv)
    assert code == 2 and reports == []
    assert capsys.readouterr().err == (
        f"wzkit: error: {term} has no finite upper support in k\n")


def test_range_through_a_pole_exit_two(capsys):
    # the corrected pair's summand carries 1/(n+1), and n = -1 is in the range
    code, reports = run_command(["verify", "--id", "thm1", "--n-min", "-5", "--n-max", "2"])
    assert code == 2 and reports == []
    assert capsys.readouterr().err == (
        "wzkit: error: prefactor denominator n + 1 vanishes at {'n': -1, 'k': 0}\n")


_THM1_AGAIN = ("term T(n, k) := sign(n + k) * binom(n + k + 1, 2*k + 1) * pow(2, 2*k)\n"
               "sum thm1(n) := sum(k, 0, n, T) == n + 1 for n >= 0\n")


def test_spec_overlay_check_ranges_replace_bundled(tmp_path):
    spec = tmp_path / "thm1.wz"
    spec.write_text(_THM1_AGAIN + "check oracle thm1 [0, 5]\n"
                    "check involution thm1 [0, 2]\n"
                    "check lemma boundary_gap [1, 3]\n")
    overlay = ["--spec", str(spec)]
    code, reports = run_command(["oracle", "--id", "thm1", *overlay])
    assert code == 0 and reports[0].range == (0, 5)
    code, reports = run_command(["involution", "--id", "thm1", *overlay])
    assert code == 0 and reports[0].range == (0, 2)
    code, reports = run_command(["lemmas", *overlay])
    assert code == 0
    assert {r.subject_id: r.range for r in reports} == {
        "boundary_flat": (1, 200), "boundary_stepped": (1, 200),
        "sum_difference": (1, 200), "boundary_gap": (1, 3)}


def test_spec_overlay_redefinition_keeps_only_its_own_erratum(tmp_path):
    spec = tmp_path / "thm3.wz"
    spec.write_text(
        "term T(n, k, m) := sign(m + k) * binom(n + k + 1, m) * pow(2, m - 1)\n"
        "sum thm3_printed(n) := sum(k, 0, n - 1, T) sum(m, 2*k + 2, n + 1 + k, T)"
        " == n^2 + n for n >= 1\n"
        '    erratum "overlay: the sign is (-1)^(n+1) times the closed form"\n')
    for ident, mode in (("thm3_printed", "corrected"), ("thm3", "literal")):
        # the bundled (thm3, literal) alias now reaches the overlay's sum
        code, reports = run_command(
            ["oracle", "--id", ident, "--mode", mode, "--n-max", "4",
             "--spec", str(spec)])
        rep = reports[0]
        assert code == 1 and rep.subject_id == "thm3_printed"
        assert rep.mode == "literal"
        assert rep.errata == [
            "overlay: the sign is (-1)^(n+1) times the closed form"]
        assert [f.n for f in rep.failures] == [2, 4]


def test_sign_erratum_needs_lhs_equal_to_minus_rhs(tmp_path):
    # the literal thm3 sum against a closed form that it misses at exactly
    # the even n, but by lhs = -n(n+1) against rhs = n(n+1) + 2
    spec = tmp_path / "thm3.wz"
    spec.write_text(
        "term T(n, k, m) := sign(m + k) * binom(n + k + 1, m) * pow(2, m - 1)\n"
        "sum thm3_printed(n) := sum(k, 0, n - 1, T) sum(m, 2*k + 2, n + 1 + k, T)"
        " == n^2 + n + sign(n) + 1 for n >= 1\n")
    reg = _runtime_registry(str(spec))
    fails = check_identity(reg.case("thm3_printed"), 1, 6)
    assert [n for n, _, _ in fails] == [2, 4, 6]
    assert all(lhs == -n * (n + 1) and rhs == n * (n + 1) + 2 for n, lhs, rhs in fails)
    assert cli._sign_erratum(reg, "thm3_printed", (1, 6)).status == "fail"
    assert cli._sign_erratum(registry(), "thm3_printed", (1, 6)).status == "pass"


def test_spec_overlay_redefined_pair_inherits_no_bundled_facts(tmp_path):
    spec = tmp_path / "wz.wz"
    spec.write_text(
        "term F(n, k) := binom(n + k + 1, 2*k + 1) * pow(2, 2*k) * sign(k + n)"
        " / (n + 2)\n"
        "cert R(n, k) := (k*(2*k + 1)) / ((n + 1 - k)*(n + 2))\n"
        "recurrence wz_thm1_corrected(n, k) := [-1, 1] * F cert R\n")
    reg = _runtime_registry(str(spec))
    problem = reg.problem("thm1")  # the alias survives the redefinition
    assert problem.problem_id == "wz_thm1_corrected"
    assert problem.errata == () and problem.base_case is None
    assert reg.problem("thm1", "literal").errata  # bundled pair untouched
    assert registry().problem("thm1").base_case == (0, 1)


@pytest.mark.parametrize("text", [
    'sum s(n) := sum(k, 0, n, T) == 1\n    erratum "no closing quote\n',
    'erratum "out of place"\n',
    "term A(n) := (n)\nas thm1\n",
])
def test_bad_clause_spec_exit_two(tmp_path, capsys, text):
    spec = tmp_path / "bad.wz"
    spec.write_text(text)
    code, reports = run_command(["oracle", "--id", "thm1", "--spec", str(spec)])
    assert code == 2 and reports == []
    assert capsys.readouterr().err.startswith("wzkit: spec error: ")


# thm1's corrected summand times (m + 1)/(m + 1): m is a free variable
_FREE_M_TERM = ("term Fm(n, k, m) := binom(n + k + 1, 2*k + 1) * pow(2, 2*k) * sign(k + n)"
                " * (m + 1) / ((n + 1)*(m + 1))\n")
_FREE_M_BASE_SPEC = (_FREE_M_TERM + "cert R(n, k) := (k*(2*k + 1)) / ((n + 1 - k)*(n + 2))\n"
                     "recurrence freebase(n, k) := [-1, 1] * Fm cert R\n"
                     "    base 0 == 1\n"
                     "check verify freebase [0, 3]\n")
_FREE_M_BASE_ERR = (
    "term sign(k + n) * pow(2, 2*k) * binom(k + n + 1, 2*k + 1) * (m + 1) / (m*n + m + n + 1)"
    " of freebase has free variable m: its base case sums over k alone")


@pytest.mark.parametrize("argv,err", [
    (["verify", "--id", "thm2", "--n-min", "-5", "--n-max", "3"],
     "binomial top -1 < 0 at {'n': -2, 'k': 0}"),
    (["verify", "--id", "thm1", "--n-min", "-3", "--n-max", "2"],
     "prefactor denominator n + 1 vanishes at {'n': -1, 'k': 0}"),
    (["verify", "--id", "thm1", "--mode", "literal", "--n-min", "-2", "--n-max", "2"],
     "prefactor denominator n + 1 vanishes at {'n': -1, 'k': 1}"),
    (["verify", "--id", "thm3", "--n-min", "-5", "--n-max", "3"],
     "binomial top -4 < 0 at {'m': 2, 'n': -5, 'k': 0}"),
])
def test_numeric_layer_errors_exit_two(capsys, argv, err):
    # the summed check meets a negative top at n = -2, and a pole at n = -1;
    # the literal pair's pointwise scan meets the pole past its own skipped k
    assert main(argv) == 2
    out, got = capsys.readouterr()
    assert out == "" and got == f"wzkit: error: {err}\n"


@pytest.mark.parametrize("spec,err", [
    *[(text, f"{term} has no finite upper support in k")
      for text, term in _UNBOUNDED_SPECS.values()],
    ("check involution thm3 [1, 8]\n", "thm3 n=8 outside [1, 7]"),
    ("check involution thm1 [0, 40]\n", "thm1 cost 19 outside [0, 18]"),
    (_FREE_M_BASE_SPEC, _FREE_M_BASE_ERR),
])
def test_all_refuses_a_bad_line_before_any_check(tmp_path, capsys, monkeypatch, spec, err):
    def no_oracle(*args):
        raise AssertionError("an oracle ran before the bad line was refused")

    monkeypatch.setattr(cli, "_run_oracle", no_oracle)
    path = tmp_path / "bad.wz"
    path.write_text(spec)
    code, reports = run_command(["all", "--spec", str(path)])
    assert code == 2 and reports == []
    assert capsys.readouterr().err == f"wzkit: error: {err}\n"


# ---------------------------------------------------------------------------
# range bounds: an absurd range is refused before any check starts


_HUGE_CHECK_LINE = ("term B(n, k) := binom(n, k)\n"
                    "sum s(n) := sum(k, 0, n, B) == pow(2, n) for n >= 0\n"
                    "check oracle s [0, 99999999999]\n")


@pytest.mark.parametrize("argv,err", [
    (["oracle", "--id", "thm1", "--n-max", "100000000"],
     "oracle range [0, 100000000] is past the bound |n| <= 1000"),
    (["oracle", "--id", "thm1", "--n-min", "100000000", "--n-max", "100000000"],
     "oracle range [100000000, 100000000] is past the bound |n| <= 1000"),
    (["verify", "--id", "thm1", "--n-max", "100000000"],
     "verify range [0, 100000000] is past the bound |n| <= 2000"),
    (["lemmas", "--n-max", "100000000"],
     "lemma range [1, 100000000] is past the bound |n| <= 1000"),
    (["oracle", "--id", "s", "--spec", "{spec}"],
     "oracle range [0, 99999999999] is past the bound |n| <= 1000"),
    (["all", "--spec", "{spec}"],
     "oracle range [0, 99999999999] is past the bound |n| <= 1000"),
])
def test_absurd_ranges_exit_two_before_any_check(tmp_path, monkeypatch, capsys, argv, err):
    def no_check(*args, **kwargs):
        raise AssertionError("a check started on an absurd range")

    for name in ("_run_oracle", "_run_verify", "_run_lemma", "_run_involution"):
        monkeypatch.setattr(cli, name, no_check)
    spec = tmp_path / "huge.wz"
    spec.write_text(_HUGE_CHECK_LINE)
    assert main([a.replace("{spec}", str(spec)) for a in argv]) == 2
    out, got = capsys.readouterr()
    assert out == "" and got == f"wzkit: error: {err}\n"


def test_declared_ranges_are_inside_their_bounds():
    reg = registry()
    for c in reg.checks.values():
        cli._check_bound(c.kind, c.target, cli._check_range(reg, c.kind, c.target))
    for kind, bound in cli.MAX_N.items():
        cli._check_bound(kind, "thm1", (-bound, bound))
        for rng in ((-bound - 1, 0), (0, bound + 1)):
            with pytest.raises(UsageError, match=rf"\|n\| <= {bound}$"):
                cli._check_bound(kind, "thm1", rng)


def _digits_value(digits: str) -> int:
    """The int a decimal string names, read in chunks below the int-from-str limit."""
    value = 0
    for i in range(0, len(digits), 1000):
        chunk = digits[i:i + 1000]
        value = value * 10**len(chunk) + int(chunk)
    return value


def test_failure_values_past_the_digit_limit_print_exactly(tmp_path, capsys):
    # 2^100000 has 30103 digits, past Python's default limit of 4300 for str(int)
    spec = tmp_path / "big.wz"
    spec.write_text("term B(n, k) := binom(n, k) * pow(2, 100000)\n"
                    "sum s(n) := sum(k, 0, n, B) == pow(2, n) for n >= 0\n")
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    argv = ["oracle", "--id", "s", "--spec", str(spec), "--n-max", "1"]
    assert main([*argv, "--format", "json"]) == 1
    (report,) = json.loads(capsys.readouterr().out)
    got = [(f["n"], _digits_value(f["lhs"]), _digits_value(f["rhs"]))
           for f in report["failures"]]
    assert got == [(n, 2**(100000 + n), 2**n) for n in (0, 1)]
    assert main([*argv, "--format", "text"]) == 1
    text = capsys.readouterr().out
    assert all(f"n={f['n']}: lhs={f['lhs']} rhs={f['rhs']}" in text
               for f in report["failures"])
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
    num, den = frac_str(Fraction(-(3**20000), 7**9000)).split("/")
    assert num[1] != "0" and den[0] != "0"
    assert (num[0], _digits_value(num[1:]), _digits_value(den)) == ("-", 3**20000, 7**9000)


@pytest.mark.parametrize("power, error", [
    ("pow(2, 10000000000)", "constant above 100000"),
    ("pow(2, k - 100001)", "constant above 100000"),
    ("pow(2, 60000) * pow(2, 40001)", "constant above 100000"),
    ("pow(3, 65*k)", "coefficient above 64"),
    ("pow(3, (-65)*n)", "coefficient above 64"),
])
def test_unbounded_term_power_exit_two(tmp_path, capsys, power, error):
    # refused while parsing, before any sum computes base**e
    spec = tmp_path / "huge.wz"
    spec.write_text(f"term B(n, k) := binom(n, k) * {power}\n"
                    "sum s(n) := sum(k, 0, n, B) == pow(2, n) for n >= 0\n")
    assert main(["oracle", "--id", "s", "--spec", str(spec), "--n-max", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"wzkit: spec error: 1:17: term B: pow exponent {error}\n"


@pytest.mark.parametrize("term, call, error", [
    ("binom(n + 10000000000, k + 5000000000)", "sum(k, 0, n, T)",
     "1:17: term T: binomial top constant above 100000"),
    ("binom(n, k - 100001)", "sum(k, 0, n, T)",
     "1:17: term T: binomial bottom constant above 100000"),
    ("binom(65*n, k)", "sum(k, 0, n, T)", "1:17: term T: binomial top coefficient above 64"),
    ("binom(n, k)^2 * binom(n, (-65)*k)", "sum(k, 0, n, T)",
     "1:17: term T: binomial bottom coefficient above 64"),
    ("pow(2, k)", "sum(k, 0, 10000000000, T)", "2:23: sum s: upper bound constant above 100000"),
    ("pow(2, k)", "sum(k, -100001, n, T)", "2:20: sum s: lower bound constant above 100000"),
    ("pow(2, k)", "sum(k, floor2((-65)*n), n, T)",
     "2:20: sum s: lower bound coefficient above 64"),
    ("pow(2, k)", "sum(k, 0, floor2(n + 200002), T)",
     "2:23: sum s: upper bound constant above 100000"),
])
def test_unbounded_binomial_or_loop_exit_two(tmp_path, capsys, term, call, error):
    # refused while parsing, before any binomial is computed or any loop runs
    spec = tmp_path / "huge.wz"
    spec.write_text(f"term T(n, k) := {term}\nsum s(n) := {call} == 1\n")
    assert main(["oracle", "--id", "s", "--spec", str(spec), "--n-max", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"wzkit: spec error: {error}\n"


# ---------------------------------------------------------------------------
# verify: every failure branch, as exact JSON apart from ms


def _verify_json(capsys, argv):
    code = main(["verify", *argv, "--format", "json"])
    out, err = capsys.readouterr()
    assert err == ""
    return code, [{k: v for k, v in obj.items() if k != "ms"} for obj in json.loads(out)]


def _verify_report(ident, rng, failures, errata, mode="corrected"):
    return [{"command": "verify", "id": ident, "mode": mode, "range": list(rng),
             "status": "fail",
             "failures": [{"n": n, "lhs": lhs, "rhs": rhs} for n, lhs, rhs in failures],
             "errata": errata}]


def test_verify_witness_branch(capsys):
    code, got = _verify_json(capsys, ["--id", "thm1", "--mode", "literal"])
    assert code == 1
    assert got == _verify_report(
        "wz_thm1_literal", (0, 60), [(1, "0", "2")],
        [*registry().problem("thm1", "literal").errata,
         "pointwise witness at n=1, k=0: recurrence side 0 vs telescoped side 2"],
        mode="literal")


def test_verify_failed_certificate_without_witness(tmp_path, capsys):
    # the pointwise scan skips a term with a free variable
    spec = tmp_path / "freecert.wz"
    spec.write_text(_FREE_M_TERM + "cert R(n, k) := 1\n"
                    "recurrence freecert(n, k) := [-1, 1] * Fm cert R\n"
                    "check verify freecert [0, 3]\n")
    code, got = _verify_json(capsys, ["--id", "freecert", "--spec", str(spec)])
    assert code == 1
    assert got == _verify_report("freecert", (0, 3), [(0, "1", "0")], [])


def test_verify_wrong_base(tmp_path, capsys):
    spec = tmp_path / "wrongbase.wz"
    spec.write_text("term F(n, k) := binom(n + k + 1, 2*k + 1) * pow(2, 2*k) * sign(k + n)"
                    " / (n + 1)\n"
                    "cert R(n, k) := (k*(2*k + 1)) / ((n + 1 - k)*(n + 2))\n"
                    "recurrence wrongbase(n, k) := [-1, 1] * F cert R\n"
                    "    base 0 == 2\n"
                    "check verify wrongbase [0, 3]\n")
    code, got = _verify_json(capsys, ["--id", "wrongbase", "--spec", str(spec)])
    assert code == 1
    assert got == _verify_report("wrongbase", (0, 3), [(0, "1", "2")],
                                 ["proof stage failed: base-case"])


def test_verify_summed_failure(monkeypatch, capsys):
    real = wzengine.summed_recurrence_value
    monkeypatch.setattr(wzengine, "summed_recurrence_value",
                        lambda p, n, extra=None, rows=None:
                        real(p, n, extra, rows=rows) + (n == 2))
    code, got = _verify_json(capsys, ["--id", "thm1", "--n-min", "0", "--n-max", "3"])
    assert code == 1
    assert got == _verify_report(
        "wz_thm1_corrected", (0, 3), [(2, "1", "0")],
        [*registry().problem("thm1").errata, "proof stage failed: summed-recurrence"])


def test_verify_telescope_mismatch_over_grid_and_window(monkeypatch, capsys):
    # every prefix check fails: the failures list each m of the grid, and
    # within it the first 31 n of the range
    monkeypatch.setattr(wzengine, "telescope_first_mismatch",
                        lambda p, n, extra=None, kappa_cap=48, rows=None:
                        (0, Fraction(n), Fraction(extra["m"])))
    code, got = _verify_json(capsys, ["--id", "thm3", "--n-min", "0", "--n-max", "40"])
    assert code == 1
    assert got == _verify_report(
        "wz_thm3", (0, 40),
        [(n, str(n), str(m)) for m in range(2, 11) for n in range(0, 31)], [])


def test_verify_surviving_mutants(monkeypatch, capsys):
    real = wzengine.mutation_check

    def two_survive(*args, **kwargs):
        flags = real(*args, **kwargs)
        flags[3] = flags[17] = False
        return flags

    monkeypatch.setattr(wzengine, "mutation_check", two_survive)
    code, got = _verify_json(capsys, ["--id", "thm2", "--n-min", "-1", "--n-max", "2"])
    assert code == 1
    assert got == _verify_report(
        "wz_thm2", (-1, 2), [(3, "1", "0"), (17, "1", "0")],
        ["mutation #3 unexpectedly still verifies",
         "mutation #17 unexpectedly still verifies"])


@pytest.mark.parametrize("argv,mutation_checks", [
    (["--id", "thm1", "--n-min", "0", "--n-max", "3"], 1),
    (["--id", "thm3", "--n-min", "0", "--n-max", "3"], 1),
    (["--id", "thm1", "--mode", "literal"], 0),
])
def test_verify_decides_the_certificate_once(monkeypatch, argv, mutation_checks):
    calls = {"verify_certificate": 0, "mutation_check": 0}
    for name in calls:
        def counted(*args, _real=getattr(wzengine, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(wzengine, name, counted)
    run_command(["verify", *argv])
    assert calls == {"verify_certificate": 1, "mutation_check": mutation_checks}


def test_verify_sums_the_base_case_of_a_failed_certificate(tmp_path, capsys):
    # the base case sits on the term's pole, so the proof is refused even
    # though the certificate already fails
    spec = tmp_path / "basepole.wz"
    spec.write_text("term F(n, k) := binom(n + k + 1, 2*k + 1) * pow(2, 2*k) / (n - 3)\n"
                    "cert R(n, k) := 1\n"
                    "recurrence basepole(n, k) := [-1, 1] * F cert R\n"
                    "    base 3 == 1\n")
    code, reports = run_command(["verify", "--id", "basepole", "--spec", str(spec),
                                 "--n-min", "0", "--n-max", "1"])
    assert code == 2 and reports == []
    assert capsys.readouterr().err == (
        "wzkit: error: prefactor denominator n - 3 vanishes at {'n': 3, 'k': 0}\n")


def test_verify_refuses_a_base_case_over_a_free_variable(tmp_path, capsys):
    spec = tmp_path / "freebase.wz"
    spec.write_text(_FREE_M_BASE_SPEC)
    code, reports = run_command(["verify", "--id", "freebase", "--spec", str(spec)])
    assert code == 2 and reports == []
    assert capsys.readouterr().err == f"wzkit: error: {_FREE_M_BASE_ERR}\n"
