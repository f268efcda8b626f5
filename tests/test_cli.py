import json

from iqgalois.cli import main


def test_classify_minimal(capsys):
    assert main(["classify", "-d", "-20"]) == 0
    out = capsys.readouterr().out
    assert "MINIMAL" in out and "minimal group G" in out


def test_classify_not_minimal(capsys):
    assert main(["classify", "-d", "-107"]) == 0
    assert "NOT_MINIMAL" in capsys.readouterr().out


def test_classify_invalid_discriminant_exits_2(capsys):
    assert main(["classify", "-d", "-12"]) == 2
    assert "invalid discriminant" in capsys.readouterr().err


def test_classify_abs_flag(capsys):
    assert main(["classify", "-d", "20", "--abs"]) == 0
    assert "MINIMAL" in capsys.readouterr().out


def test_classify_json_round_trips(capsys):
    assert main(["classify", "-d", "-107", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["verdict"] == "NOT_MINIMAL" and data["h"] == 3
    assert data["assumes_converse"] is True


def test_usage_error_exits_1(capsys):
    assert main(["tables", "--table", "9"]) == 1
    assert main(["nonsense"]) == 1
    assert main([]) == 1


def test_tables_1(capsys):
    assert main(["tables", "--table", "1", "--bound", "1000", "--max-p", "3"]) == 0
    out = capsys.readouterr().out
    assert "107, 331, 643" in out
    assert main(["tables", "--table", "1", "--bound", "1000", "--max-p", "3", "--csv"]) == 0
    out = capsys.readouterr().out
    assert "3,16,13,107|331|643" in out


def test_tables_2_and_3(capsys):
    assert main(["tables", "--table", "2", "--p", "3", "--N", "10", "--B", "5000"]) == 0
    assert "p*f_p=" in capsys.readouterr().out
    assert main(["tables", "--table", "3", "--p", "3", "--N", "10", "--B", "5000"]) == 0
    out = capsys.readouterr().out
    assert "split=" in out and "inert=" in out and "ramified=" in out


def test_tables_composite_p_exits_1(capsys):
    assert main(["tables", "--table", "3", "--p", "4", "--N", "10", "--B", "5000"]) == 1
    assert main(["tables", "--table", "2", "--p", "4", "--N", "10", "--B", "5000"]) == 1
    assert "not a prime" in capsys.readouterr().err


def test_survey_composite_prime_exits_1(tmp_path, capsys):
    out = str(tmp_path / "rows.csv")
    assert main(["survey", "--max", "300", "--primes", "2,4", "--out", out]) == 1
    assert "not a prime" in capsys.readouterr().err


def test_survey_writes_csv(tmp_path, capsys):
    out = str(tmp_path / "rows.csv")
    rc = main(["survey", "--max", "300", "--primes", "2,3", "--out", out])
    assert rc == 0
    with open(out, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert lines[0].startswith("D,h,class_group")
    assert len(lines) > 100


def test_survey_json_output(tmp_path):
    out = str(tmp_path / "rows.json")
    assert main(["survey", "--max", "200", "--out", out, "--format", "json"]) == 0
    with open(out, encoding="utf-8") as fh:
        data = json.load(fh)
    assert data and all("verdict" in obj for obj in data)


def test_verify_forms(capsys):
    assert main(["verify", "--suite", "forms"]) == 0
    assert "suite forms: ok" in capsys.readouterr().out


def test_verify_two_small(capsys):
    assert main(["verify", "--suite", "two", "--bound", "2000"]) == 0
    assert "suite two: ok" in capsys.readouterr().out
