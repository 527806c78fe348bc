import json
import time
from math import comb

import pytest

from widecount import gallery
from widecount.cli import UsageError, parse_range, run
from widecount.gallery import cube_orbit_count, unlabeled_tree_counts
from widecount.quasipoly import Quasipolynomial, write_sequence_csv


def _run_json(argv, capsys):
    code = run(list(argv) + ["--no-timing"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_parse_range():
    assert parse_range("0..4") == [0, 1, 2, 3, 4]
    assert parse_range("7") == [7]


@pytest.mark.parametrize("n", ["-2", "-3..4"])
def test_negative_n_is_a_usage_error(n, capsys):
    with pytest.raises(UsageError, match="non-negative"):
        parse_range(n)
    for argv in (["example", "cube", "--d", "3"], ["elementary", "--k", "2"],
                 ["model", "--preset", "roots-of-unity", "--d", "2"]):
        assert run(argv + [f"--n={n}", "--no-timing"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "non-negative" in captured.err


def test_example_cube_verify(capsys):
    code, data = _run_json(["example", "cube", "--d", "3", "--n", "0..12", "--verify"], capsys)
    assert code == 0
    counts = [int(c) for _, c in data["sequence"]]
    assert counts == [1, 1, 2, 4, 5, 7, 10, 12, 15, 19, 22, 26, 31]
    assert data["verdict"] == "pass"
    assert not data["truncated"]


def test_example_verify_checks_the_formula(capsys, monkeypatch):
    for name in ("points", "planes"):
        code, data = _run_json(["example", name, "--n", "0..4", "--verify"], capsys)
        assert code == 0 and len(data["checks"]) == 5
    # off by one in the binomial, which still gives 1 at d = 1
    monkeypatch.setattr(gallery, "points_orbit_count", lambda d, n: comb(n + d, d - 1))
    code, data = _run_json(["example", "points", "--n", "0..4", "--verify"], capsys)
    assert code == 2 and data["verdict"] == "fail"


def test_elementary_galois_fit(capsys):
    code, data = _run_json(
        ["elementary", "--k", "2", "--group", "(1 2)", "--n", "0..10", "--fit"], capsys
    )
    assert code == 0
    assert [int(c) for _, c in data["sequence"]] == [n // 2 + 1 for n in range(11)]
    qp = data["quasipolynomial"]
    assert qp["period"] == 2
    assert qp["constituents"][0] == [["1", "1"], ["1", "2"]]


def test_fit_subcommand_nofit_on_trees(tmp_path, capsys):
    counts = unlabeled_tree_counts(10)
    path = tmp_path / "seq.csv"
    write_sequence_csv(path, {n: counts[n - 1] for n in range(1, 11)})
    code, data = _run_json(
        ["fit", "--in", str(path), "--max-period", "6", "--max-degree", "4"], capsys
    )
    assert code == 2  # the NoFit verdict is a reported cross-check failure
    assert any("nofit" in v.get("witness", {}) for v in data["checks"])


def test_example_cube_fit(capsys):
    code, data = _run_json(["example", "cube", "--d", "3", "--n", "0..30", "--fit"], capsys)
    assert code == 0
    qp = data["quasipolynomial"]
    assert qp["period"] == 3 and qp["onset"] == 0
    form = Quasipolynomial.from_json_dict(qp)
    assert all(form.evaluate(n) == cube_orbit_count(3, n) for n in range(61))


@pytest.mark.parametrize(
    "name,d,period,degree",
    [("points", 8, 1, 7), ("cube", 7, 7, 6), ("cube", 3, 3, 2), ("galois", 3, 2, 1), ("planes", 3, 1, 0)],
)
def test_example_fit_is_the_exact_elementary_form(capsys, name, d, period, degree):
    # a window fit would need degree 7 for points at d = 8, and more points
    # than 0..40 holds for period 7: the exact form needs neither
    code, data = _run_json(["example", name, "--d", str(d), "--n", "0..40", "--fit"], capsys)
    assert code == 0 and data["verdict"] == "pass"
    qp = data["quasipolynomial"]
    assert qp["period"] == period and qp["onset"] == 0
    form = Quasipolynomial.from_json_dict(qp)
    assert max(len(c) for c in form.constituents) - 1 == degree
    assert all(
        form.evaluate(n) == gallery.example_counts(name, n, d=d)["orbits"] for n in range(81)
    )


def test_example_trees_fit_reports_nofit(capsys):
    code, data = _run_json(["example", "trees", "--n", "1..10", "--fit"], capsys)
    assert code == 2
    failed = [v for v in data["checks"] if v["check"] == "fit"]
    assert len(failed) == 1 and failed[0]["status"] == "fail"
    assert "nofit" in failed[0]["witness"]


def test_precomp_planes_fit(capsys):
    code, data = _run_json(["precomp", "--preset", "planes", "--n", "0..12", "--fit"], capsys)
    assert code == 0
    qp = data["quasipolynomial"]
    assert qp["period"] == 1 and qp["constituents"] == [[["1", "1"]]]


def test_fit_subcommand_success(tmp_path, capsys):
    path = tmp_path / "lin.csv"
    write_sequence_csv(path, {n: 3 * n + 1 for n in range(12)})
    code, data = _run_json(["fit", "--in", str(path)], capsys)
    assert code == 0
    assert data["quasipolynomial"]["period"] == 1


def test_codes_count_cross_check(capsys):
    code, data = _run_json(
        ["codes", "count", "--q", "2", "--m", "2", "--n", "2..6", "--method", "both"], capsys
    )
    assert code == 0
    assert [int(c) for _, c in data["sequence"]] == [1, 3, 6, 10, 16]
    assert all(v["status"] == "pass" for v in data["checks"])


def test_codes_fit(capsys):
    code, data = _run_json(["codes", "fit", "--q", "2", "--m", "1", "--nmax", "9"], capsys)
    assert code == 0
    assert data["quasipolynomial"]["period"] == 1


def test_codes_fit_builds_period_twelve(capsys):
    code, data = _run_json(["codes", "fit", "--q", "3", "--m", "2", "--nmax", "100"], capsys)
    assert code == 0
    assert data["quasipolynomial"]["period"] == 12


def test_ranks_verify(capsys):
    code, data = _run_json(
        ["ranks", "--entries", "0,1", "--k", "2", "--n", "4", "--shape", "symmetric", "--verify"],
        capsys,
    )
    assert code == 0
    assert data["sequence"] == [["4", "14"]]
    assert [c["check"] for c in data["checks"]] == ["rank-total@4", "rank-formula@4"]


def test_ranks_verify_collapses_equal_entries(capsys):
    code, data = _run_json(["ranks", "--entries", "0,1,1", "--k", "1", "--n", "3", "--verify"], capsys)
    assert code == 0
    assert data["sequence"] == [["3", "3"]]
    assert [c["check"] for c in data["checks"]] == ["rank-total@3", "rank-brute@3", "rank-formula@3"]
    assert data["verdict"] == "pass"


def test_ranks_verify_checks_every_entry_set(capsys):
    # an entry list that starts with a negative entry is read in both spellings
    for entries in (["--entries=-1,0,1/2"], ["--entries", "-1,0,1/2"]):
        code, data = _run_json(["ranks", *entries, "--k", "3", "--n", "3..4", "--verify"], capsys)
        assert code == 0
        checks = [c["check"] for c in data["checks"]]
        assert checks == ["rank-total@3", "rank-brute@3", "rank-total@4"]
        assert data["verdict"] == "pass"


def test_model_both_methods(capsys):
    code, data = _run_json(
        ["model", "--preset", "roots-of-unity", "--d", "2", "--n", "1..6"], capsys
    )
    assert code == 0
    assert [int(c) for _, c in data["sequence"]] == [1, 2, 2, 3, 3, 4]
    assert all(v["status"] == "pass" for v in data["checks"])


def test_precomp_planes(capsys):
    code, data = _run_json(["precomp", "--preset", "planes", "--n", "0..5"], capsys)
    assert code == 0
    assert [int(c) for _, c in data["sequence"]] == [1] * 6


def test_verify_suite(capsys):
    code, data = _run_json(["verify"], capsys)
    assert code == 0
    assert data["verdict"] == "pass"
    checks = {c["check"] for c in data["checks"]}
    assert {"closed-forms-exact", "stratum-vs-peel", "rank-brute", "direct-vs-classes"} <= checks
    assert len(checks) == 11


def test_usage_error_exit_code(capsys):
    assert run(["example"]) == 1
    assert run(["nonsense"]) == 1


def test_codes_reject_a_field_size_below_two(capsys):
    # a usage error, not a hang: 0 is divisible by every prime
    for argv in (["codes", "count", "--q", "0", "--m", "1", "--n", "3"],
                 ["codes", "fit", "--q", "0", "--m", "1", "--nmax", "3"],
                 ["codes", "count", "--q", "-4", "--m", "1", "--n", "3", "--method", "direct"]):
        assert run(argv + ["--no-timing"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "prime power" in captured.err


def test_reports_byte_stable(capsys):
    code1 = run(["example", "galois", "--n", "0..6", "--verify", "--no-timing"])
    out1 = capsys.readouterr().out
    code2 = run(["example", "galois", "--n", "0..6", "--verify", "--no-timing"])
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2


def test_out_and_csv_files(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run(["example", "galois", "--n", "0..4", "--out", str(out), "--no-timing"])
    assert code == 0
    data = json.loads(out.read_text())
    assert [int(c) for _, c in data["sequence"]] == [1, 1, 2, 2, 3]
    csv_text = (tmp_path / "report.csv").read_text().strip().splitlines()
    assert csv_text[0] == "n,count"
    assert csv_text[1] == "0,1"


def test_time_limit_truncates(capsys):
    code, data = _run_json(
        ["example", "cube", "--d", "4", "--n", "0..40", "--time-limit", "0"], capsys
    )
    assert data["truncated"] is True
    # a truncated report reports only the prefix it completed, never junk
    assert len(data["sequence"]) <= 41


def test_time_limit_stops_inside_a_count(capsys):
    # at most 8 162 reduced states in one row, within the default cap: about
    # a second of counting without the deadline
    argv = ["ranks", "--entries", "0,1", "--k", "4", "--n", "7", "--shape", "symmetric"]
    start = time.monotonic()
    code, data = _run_json(argv + ["--max-states", "100000000", "--time-limit", "0.2"], capsys)
    assert time.monotonic() - start < 3
    assert code == 0 and data["truncated"] is True and data["sequence"] == []
    # below that peak the cap stops the count while it settles the rows
    code, data = _run_json(argv + ["--max-states", "5000"], capsys)
    assert code == 0 and data["truncated"] is True and data["sequence"] == []
    reason = data["checks"][0]["witness"]["truncated_by"]
    assert "reduced rank states" in reason and "exceeds the budget 5000" in reason
