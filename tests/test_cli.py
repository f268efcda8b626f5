import json
import os
import signal
import subprocess
import sys
import time

import pytest

from iqgalois import cli, survey
from iqgalois.cli import main
from iqgalois.quadform import ClassNumberAmbiguous

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


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


@pytest.mark.usefixtures("deadline")
def test_classify_huge_discriminant_exits_1_quickly(capsys):
    # beyond quadform.CLASS_NUMBER_LIMIT the count is refused before it allocates
    assert main(["classify", "-d", "-100000000000000003"]) == 1
    assert "exceeds the class-number limit" in capsys.readouterr().err


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


def test_tables_2_and_3_refuse_csv(capsys):
    # only table 1 has a CSV form; tables 2 and 3 must not print text for --csv
    for table in ("2", "3"):
        args = ["tables", "--table", table, "--p", "3", "--N", "5", "--B", "1000", "--csv"]
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "--csv applies to table 1 only" in captured.err


@pytest.mark.parametrize(
    "argv, option, target",
    [
        (["tables", "--table", "1", "--bound", "1000", "--max-p", "3", "--p", "5", "--N", "7",
          "--B", "99"], "--p", "table 1"),
        (["tables", "--table", "1", "--B", "99"], "--B", "table 1"),
        (["tables", "--table", "2", "--p", "3", "--N", "5", "--B", "1000", "--bound", "7",
          "--max-p", "99"], "--bound", "table 2"),
        (["tables", "--table", "3", "--max-p", "3"], "--max-p", "table 3"),
        (["verify", "--suite", "forms", "--bound", "5"], "--bound", "suite forms"),
        (["verify", "--suite", "local", "--bound", "5"], "--bound", "suite local"),
    ],
)
def test_options_that_do_not_apply_exit_1(argv, option, target, capsys):
    # an option the chosen table or suite does not read is refused before any computation
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {option} does not apply to {target}\n"


def test_tables_composite_p_exits_1(capsys):
    assert main(["tables", "--table", "3", "--p", "4", "--N", "10", "--B", "5000"]) == 1
    assert main(["tables", "--table", "2", "--p", "4", "--N", "10", "--B", "5000"]) == 1
    assert "not a prime" in capsys.readouterr().err


def test_tables_negative_lower_bound_exits_1(capsys):
    assert main(["tables", "--table", "3", "--p", "3", "--N", "5", "--B", "-100"]) == 1
    assert main(["tables", "--table", "2", "--p", "3", "--N", "5", "--B", "-1"]) == 1
    assert "lower bound" in capsys.readouterr().err


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


def test_survey_failed_scan_leaves_no_output(tmp_path, monkeypatch, capsys):
    # the scan raises after its first block: nothing may appear at --out
    blocks = []
    scan_block = survey._scan_block

    def failing(block):
        blocks.append(block)
        if len(blocks) > 1:
            raise ValueError("simulated failure in the second block")
        return scan_block(block)

    monkeypatch.setattr(survey, "BLOCK_SIZE", 100)
    monkeypatch.setattr(survey, "_scan_block", failing)
    for fmt in ("csv", "json"):
        blocks.clear()
        out = str(tmp_path / f"rows.{fmt}")
        assert main(["survey", "--max", "300", "--out", out, "--format", fmt]) == 1
        assert len(blocks) == 2
    assert "simulated failure" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_verify_forms(capsys):
    assert main(["verify", "--suite", "forms"]) == 0
    assert "suite forms: ok" in capsys.readouterr().out


def test_verify_two_small(capsys):
    assert main(["verify", "--suite", "two", "--bound", "2000"]) == 0
    assert "suite two: ok" in capsys.readouterr().out


def test_verify_generators_small(capsys):
    assert main(["verify", "--suite", "generators", "--bound", "2000"]) == 0
    assert "suite generators: ok" in capsys.readouterr().out


def test_verify_generators_bound_below_3_exits_1(capsys):
    assert main(["verify", "--suite", "generators", "--bound", "2"]) == 1
    assert "holds no discriminant" in capsys.readouterr().err


def test_verify_two_bound_below_3_exits_1(capsys):
    assert main(["verify", "--suite", "two", "--bound", "0"]) == 1
    assert "bound must be at least 3" in capsys.readouterr().err


HUGE = "100000000000000"  # 1e14, past quadform.CLASS_NUMBER_LIMIT


# past the limit a sieve block loops for hours and a whole-range sieve
# exhausts memory; with no primes a survey has no rows to write
@pytest.mark.usefixtures("deadline")
@pytest.mark.parametrize(
    "argv, message",
    [
        (["survey", "--min", HUGE, "--max", "100000000000010"], "class-number limit"),
        (["tables", "--table", "2", "--p", "3", "--N", "5", "--B", HUGE], "class-number limit"),
        (["tables", "--table", "1", "--bound", HUGE], "class-number limit"),
        (["verify", "--suite", "two", "--bound", HUGE], "class-number limit"),
        (["verify", "--suite", "generators", "--bound", HUGE], "class-number limit"),
        (["survey", "--max", "100", "--primes", ""], "no primes"),
        (["survey", "--max", "100", "--primes", ","], "no primes"),
        (["survey", "--min", "-5", "--max", "100"], "d_min -5 is negative"),
        (["tables", "--table", "1", "--bound", "-5"], "bound -5 is negative"),
        (["tables", "--table", "1", "--bound", "100", "--max-p", "-3"], "max_p -3 is negative"),
    ],
)
def test_out_of_range_input_exits_1_quickly(argv, message, tmp_path, capsys):
    if argv[0] == "survey":
        argv = argv + ["--out", str(tmp_path / "rows.csv")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err, err
    assert list(tmp_path.iterdir()) == []


def _classify_under_optimize(patch: str, D: int) -> subprocess.CompletedProcess:
    """Run classify -d D under python -O after the one-line patch."""
    script = (
        "import sys\n"
        "from iqgalois.cli import main\n"
        f"{patch}\n"
        f"sys.exit(main(['classify', '-d', '{D}']))\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=60
    )


def test_broken_invariant_exits_3_under_optimize():
    # a genus 2-rank that disagrees with the class group must stop the run
    # with its own exit code, also when python -O strips asserts
    proc = _classify_under_optimize(
        "sys.modules['iqgalois.classify'].genus_two_rank = lambda d: 7", -20
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("internal error: ") and "Traceback" not in proc.stderr


# One broken dependency per module on classify -23 (h = 3, and 3 splits in
# Q(sqrt(-23))) unless BROKEN_D names another discriminant, each caught by a
# check of that module or the next one down.
BROKEN = {
    # idealgen: compositions that return the first factor, so the first state
    # product has the norm of one factor, not of both (N(J) = a1 * a2)
    "idealgen": (
        "sys.modules['iqgalois.idealgen'].compose_unreduced = lambda f, g: (1, tuple(f))",
        "1*[2, 1] has norm 2, not 2*2",
    ),
    # classify: a generator image that is not a unit above p, caught by localtest
    "classify": (
        "sys.modules['iqgalois.classify'].torsion_power_generator = lambda form, p, ring: (6, 0)",
        "has norm divisible by 3",
    ),
    # localtest: no square root of D mod p^2 where p splits
    "localtest": (
        "sys.modules['iqgalois.localtest'].sqrt_mod_prime_power = lambda a, p, k: None",
        "no Hensel square root of -23 mod 9",
    ),
    # arith: a prime cofactor that Pollard rho is asked to split; factorize
    # tests primality only past trial division by the primes below 2^16, so
    # this one classifies -65537 * 65539, whose validation gets there
    "arith": ("sys.modules['iqgalois.arith'].is_prime = lambda n: False", "rho failed on "),
}
BROKEN_D = {"arith": -65537 * 65539}


@pytest.mark.parametrize("module", sorted(BROKEN))
def test_broken_module_check_exits_3_under_optimize(module):
    patch, message = BROKEN[module]
    proc = _classify_under_optimize(patch, BROKEN_D.get(module, -23))
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("internal error: ") and message in proc.stderr, proc.stderr


def test_unclosed_state_product_exits_3_under_optimize():
    # a composition whose middle coefficient is off by one yields a lattice
    # that is not an ideal: an internal fault, not a user error
    patch = (
        "idealgen = sys.modules['iqgalois.idealgen']; compose = idealgen.compose_unreduced; "
        "idealgen.compose_unreduced = lambda f, g: (lambda d, t: (d, (t[0], t[1] + 1, t[2])))"
        "(*compose(f, g))"
    )
    proc = _classify_under_optimize(patch, -23)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("internal error: ") and "Traceback" not in proc.stderr


def test_broken_square_product_exits_3_under_optimize():
    # a square whose middle coefficient is off by one has no c3: the exact
    # division in compose_unreduced stops the product that made it; exit 9
    # if the squaring branch's b3 line is not where the patch expects it
    patch = (
        "import inspect; quadform = sys.modules['iqgalois.quadform']; "
        "src = inspect.getsource(quadform.compose_unreduced); old = '* c1) % (2 * a3)'; "
        "exec(src.replace(old, '* c1 + 1) % (2 * a3)'), vars(quadform)) if old in src "
        "else sys.exit(9)"
    )
    proc = _classify_under_optimize(patch, -23)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("internal error: ") and "does not divide" in proc.stderr


def test_unpinned_class_number_exits_3(monkeypatch, capsys):
    def unpinned(value):
        raise ClassNumberAmbiguous(f"cannot pin the class number of {value}")

    monkeypatch.setattr(cli, "classify", unpinned)
    assert main(["classify", "-d", "-20"]) == 3
    assert capsys.readouterr().err.startswith("internal error: cannot pin")


@pytest.mark.parametrize("workers", [1, 2])
def test_survey_interrupted_exits_130_and_leaves_its_checkpoint(workers, tmp_path):
    # SIGINT to the process group of a survey, once its first block is
    # checkpointed: one line on stderr, exit 130, no output file, and a
    # checkpoint that holds the rows of the blocks it vouches for
    out, ckpt = tmp_path / "rows.csv", tmp_path / "scan.ckpt"
    argv = ["survey", "--max", "2000000", "--out", str(out), "--workers", str(workers)]
    command = [sys.executable, "-m", "iqgalois.cli", *argv, "--checkpoint", str(ckpt)]
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.Popen(
        command, env=env, stderr=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        deadline = time.monotonic() + 60
        while not ckpt.exists():
            assert proc.poll() is None and time.monotonic() < deadline, proc.returncode
            time.sleep(0.01)
        os.killpg(proc.pid, signal.SIGINT)
        err = proc.communicate(timeout=60)[1]
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    assert proc.returncode == 130, err
    assert err == f"interrupted; the same command resumes from checkpoint {ckpt}\n"
    assert not out.exists() and not (tmp_path / "rows.csv.tmp").exists()
    config = survey.SurveyConfig(d_max=2_000_000, checkpoint_path=str(ckpt))
    stored = survey._Checkpoint(str(ckpt), config)
    rows = list(stored.load())
    assert stored.blocks_done >= 1
    last = 2 + stored.blocks_done * survey.BLOCK_SIZE
    assert rows == list(survey.scan(survey.SurveyConfig(d_max=last)))
