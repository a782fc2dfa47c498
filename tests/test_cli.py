"""End-to-end CLI runs on miniature configs: artifacts, determinism, exit codes."""

import csv
import filecmp
import json
import signal

import pytest

from multlab.cli import build_parser, main

HQ_MINI = """
prime_sets = [all]
limit = 20000
x_grid = [20000]
y_grid = [20.0, 50.0]
z_factor = 2.0
seed = 3
"""

SMIRNOV_MINI = """
daniels_k = [1]
daniels_v_offset = [0]
daniels_u = [1.0]
daniels_samples = 2000
barrier_k = 1
barrier_v = 1.0
barrier_c = [2.0]
barrier_samples = 2000
yk_k = [1]
yk_v_factor = [2.0]
yk_samples = 2000
seed = 3
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_parser_basics(capsys):
    parser = build_parser()
    args = parser.parse_args(["hq-scan", "--seed", "4", "--threads", "2"])
    assert args.experiment == "hq-scan"
    assert args.seed == 4 and args.threads == 2
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(["--version"])
    assert exc.value.code == 0
    assert "multlab" in capsys.readouterr().out
    with pytest.raises(SystemExit):
        parser.parse_args([])  # a subcommand is required
    with pytest.raises(SystemExit):
        parser.parse_args(["hq-scan", "--format", "xml"])


def test_hq_scan_run_and_rerun_identical(tmp_path, capsys):
    cfg = write_cfg(tmp_path, HQ_MINI)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["hq-scan", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["hq-scan", "--config", str(cfg), "--out", str(out2)]) == 0
    stdout = capsys.readouterr().out
    assert "wrote" in stdout

    csv1, csv2 = out1 / "hq_scan.csv", out2 / "hq_scan.csv"
    assert filecmp.cmp(csv1, csv2, shallow=False)  # bytes, not just values
    with open(csv1, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    for row in rows:
        assert row["q"] == "all" and float(row["ratio"]) > 0

    man = json.loads((out1 / "hq_scan_manifest.json").read_text())
    assert man["seed"] == 3
    assert man["files"].keys() == {"hq_scan.csv"}
    man2 = json.loads((out2 / "hq_scan_manifest.json").read_text())
    assert man["files"] == man2["files"]  # same body hash both runs
    assert man["prime_sets"][0]["kappa_hat"] <= 10.0


def test_seed_flag_overrides_config(tmp_path):
    cfg = write_cfg(tmp_path, HQ_MINI)
    out = tmp_path / "o"
    assert main(["hq-scan", "--config", str(cfg), "--out", str(out), "--seed", "5"]) == 0
    man = json.loads((out / "hq_scan_manifest.json").read_text())
    assert man["seed"] == 5


def test_out_env_fallback(tmp_path, monkeypatch):
    cfg = write_cfg(tmp_path, HQ_MINI)
    env_dir = tmp_path / "from_env"
    monkeypatch.setenv("MULTLAB_OUT", str(env_dir))
    assert main(["hq-scan", "--config", str(cfg)]) == 0
    assert (env_dir / "hq_scan.csv").exists()
    # explicit flag beats the environment
    flag_dir = tmp_path / "from_flag"
    assert main(["hq-scan", "--config", str(cfg), "--out", str(flag_dir)]) == 0
    assert (flag_dir / "hq_scan.csv").exists()


def test_threads_env_validation(tmp_path, monkeypatch, capsys):
    cfg = write_cfg(tmp_path, HQ_MINI)
    for raw in ("many", "0"):
        monkeypatch.setenv("MULTLAB_THREADS", raw)
        assert main(["hq-scan", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
        assert "MULTLAB_THREADS" in capsys.readouterr().err
    monkeypatch.delenv("MULTLAB_THREADS")
    assert main(["hq-scan", "--config", str(cfg), "--out", str(tmp_path / "x"),
                 "--threads", "0"]) == 2  # ConfigError path


def test_config_errors_exit_2(tmp_path, capsys):
    out = str(tmp_path / "o")
    for body in (
        HQ_MINI + "unknown_key = 1\n",
        HQ_MINI.replace("y_grid = [20.0, 50.0]", "y_grid = []"),
        HQ_MINI.replace("[all]", "[congruence:4]"),  # malformed descriptor
        HQ_MINI.replace("z_factor = 2.0", "z_factor = 0.5"),
    ):
        cfg = write_cfg(tmp_path, body)
        assert main(["hq-scan", "--config", str(cfg), "--out", out]) == 2
        assert "error:" in capsys.readouterr().err
    assert main(["hq-scan", "--config", str(tmp_path / "nope.cfg"), "--out", out]) == 2


MINI_CONFIGS = {
    "hq-scan": HQ_MINI,
    "smirnov": SMIRNOV_MINI,
    "aq-dichotomy": "prime_sets = [all]\nn_grid = [100]\n",
    "poisson-phase": "lambda_grid = [10.0]\nv_grid = [10]\ninclude_gcurve = false\n",
}


@pytest.mark.parametrize("name, line", (
    ("hq-scan", "z_factor = steep"),
    ("hq-scan", "z_factor = NaN"),
    ("hq-scan", "limit = [1, 2]"),
    ("hq-scan", "x_grid = [0]"),
    ("hq-scan", "y_grid = [2.0]"),
    ("hq-scan", "y_grid = [0.5, 20.0]"),
    ("hq-scan", 'method = "fast"'),
    ("hq-scan", "seed = abc"),
    ("hq-scan", "seed = 1.5"),
    ("hq-scan", "limit = 3000000\nx_grid = [3000000]\nmethod = exhaustive"),
    ("hq-scan", "limit = 10\nx_grid = [10]\ny_grid = [5]"),
    ("smirnov", "daniels_u = [1.5]"),
    ("smirnov", "daniels_samples = 0"),
    ("smirnov", "barrier_k = 0"),
    ("smirnov", "yk_m = -1"),
    ("smirnov", "seed = abc"),
    ("smirnov", "barrier_k = 1.9"),
    ("smirnov", "barrier_m_offset = 0"),
    ("aq-dichotomy", "slope_threshold = flat"),
    ("aq-dichotomy", "n_grid = [100.7]"),
    ("poisson-phase", "lambda_grid = [0]"),
    ("poisson-phase", "v_grid = [ten]"),
    ("poisson-phase", "include_gcurve = False"),
    ("poisson-phase", "include_gcurve = true\ndelta_step = 1e-12"),
))
def test_bad_config_values_exit_2(tmp_path, capsys, name, line):
    # each of these once reached a kernel as a bare ValueError or TypeError, or
    # ran on a value other than the one given (include_gcurve = False wrote the
    # curve, seed = 1.5 was recorded but keyed sets by 1, n_grid = [100.7]
    # counted N = 100, barrier_m_offset changed nothing, delta_step = 1e-12 asked
    # for 7e11 rows, limit = 10 reached the density audit, whose grid starts at
    # 16, and a y below e in a grid whose largest y passed died in the predictor
    # with exit 3); now the config boundary names the value (later lines win)
    cfg = write_cfg(tmp_path, MINI_CONFIGS[name] + line + "\n")
    assert main([name, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert len(err.splitlines()) == 1


class _Overran(BaseException):
    """Raised by the alarm below; main() reports an Exception, never this."""


@pytest.mark.parametrize("modulus, code", (
    (1_000_000_007, 0),  # within the cap: a set with no member up to the limit
    (2**32 + 1, 2),
    (2**64 + 1, 2),  # past int64, where primes % m once overflowed
))
def test_large_modulus_returns_within_a_second(tmp_path, capsys, modulus, code):
    def overran(signum, frame):
        raise _Overran(f"congruence:{modulus}:1 still running after 1 s")

    cfg = write_cfg(tmp_path, HQ_MINI + f"prime_sets = [congruence:{modulus}:1]\n")
    previous = signal.signal(signal.SIGALRM, overran)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        got = main(["hq-scan", "--config", str(cfg), "--out", str(tmp_path / "o")])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert got == code
    err = capsys.readouterr().err
    if code == 0:
        assert err == ""
    else:
        assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_internal_error_exits_3_with_traceback(tmp_path, capsys, monkeypatch):
    def broken_kernel(*args, **kwargs):
        raise ValueError("planted kernel bug")

    monkeypatch.setattr("multlab.experiments.count_hq", broken_kernel)
    cfg = write_cfg(tmp_path, HQ_MINI)
    assert main(["hq-scan", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "Traceback (most recent call last)" in err
    assert "ValueError: planted kernel bug" in err
    assert not err.startswith("error: ")


def test_hq_scan_z_past_float_range_counts_up_to_x(tmp_path):
    # z = 1e305 * 5e4 overflows to inf, which counts divisors in (y, x]
    counts = []
    for z_factor in ("1e305", "2.0"):
        cfg = write_cfg(tmp_path, "prime_sets = [all]\nlimit = 100000\n"
                        "x_grid = [100000]\ny_grid = [50000.0]\n"
                        f"z_factor = {z_factor}\n")
        out = tmp_path / z_factor
        assert main(["hq-scan", "--config", str(cfg), "--out", str(out)]) == 0
        with open(out / "hq_scan.csv", newline="", encoding="utf-8") as fh:
            counts.append(int(next(csv.DictReader(fh))["count"]))
    assert counts[0] == counts[1] > 0


def test_aq_dichotomy_single_point(tmp_path):
    cfg = write_cfg(tmp_path, "prime_sets = [all]\nn_grid = [100]\nseed = 3\n")
    out = tmp_path / "aq"
    assert main(["aq-dichotomy", "--config", str(cfg), "--out", str(out)]) == 0
    with open(out / "aq_dichotomy.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert int(rows[0]["sq_count"]) == 100
    man = json.loads((out / "aq_dichotomy_manifest.json").read_text())
    # a single N gives slope 0, which reads as the flat side of the dichotomy
    assert man["summary"]["slopes"]["all"]["trend"] == "flat"


def test_poisson_phase_single_point(tmp_path):
    cfg = write_cfg(
        tmp_path,
        "lambda_grid = [10.0]\nv_grid = [10]\ninclude_gcurve = false\nseed = 3\n",
    )
    out = tmp_path / "pp"
    assert main(["poisson-phase", "--config", str(cfg), "--out", str(out)]) == 0
    body = (out / "poisson_phase.csv").read_text(encoding="utf-8")
    lines = body.splitlines()
    assert len(lines) == 2  # header + one grid point
    assert lines[1].split(",")[3] == "iii"
    assert not (out / "poisson_phase_gcurve.csv").exists()


def test_poisson_phase_json_format(tmp_path):
    cfg = write_cfg(
        tmp_path,
        "lambda_grid = [10.0]\nv_grid = [10]\ninclude_gcurve = false\nseed = 3\n",
    )
    out = tmp_path / "ppj"
    assert main(["poisson-phase", "--config", str(cfg), "--out", str(out),
                 "--format", "json"]) == 0
    rows = json.loads((out / "poisson_phase.json").read_text())
    assert len(rows) == 1 and rows[0]["regime"] == "iii"
    assert not (out / "poisson_phase.csv").exists()


def test_smirnov_degenerate_points_are_exact(tmp_path):
    # k = v = 1 with u = 1 makes every barrier event certain, so all the
    # estimates must come out exactly 1 with zero error
    cfg = write_cfg(tmp_path, SMIRNOV_MINI)
    out = tmp_path / "sm"
    assert main(["smirnov", "--config", str(cfg), "--out", str(out)]) == 0
    with open(out / "smirnov.csv", newline="", encoding="utf-8") as fh:
        rows = {r["op"]: r for r in csv.DictReader(fh)}
    for op in ("qk_exact", "qk_mc", "p_weak", "p_strong", "p_cond", "yk_vol"):
        assert float(rows[op]["estimate"]) == 1.0, op
    assert float(rows["qk_mc"]["std_error"]) == 0.0
    # simplex lower bound for Y_1(2, C): (v - k + 1) / (2 v k!)
    assert float(rows["yk_bound"]["estimate"]) == 0.5


def test_manifest_records_threads_used(tmp_path):
    # hq-scan ignores --threads; smirnov hands it to every MC kernel
    for name, body, used in (("hq-scan", HQ_MINI, 1), ("smirnov", SMIRNOV_MINI, 2)):
        cfg = write_cfg(tmp_path, body, name=f"{name}.cfg")
        out = tmp_path / name
        assert main([name, "--config", str(cfg), "--out", str(out),
                     "--threads", "2"]) == 0
        stem = name.replace("-", "_")
        man = json.loads((out / f"{stem}_manifest.json").read_text())
        assert (man["threads"], man["threads_used"]) == (2, used), name


def test_verify_filtered_criterion(tmp_path, capsys):
    out = tmp_path / "v"
    assert main(["verify", "--filter", "c06", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "c06 PASS" in stdout
    with open(out / "verify_results.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert rows[0]["cid"] == "c06" and rows[0]["passed"] == "true"
    rep = json.loads((out / "verify_report.json").read_text())
    assert rep["passed"] is True
    assert rep["criteria"][0]["cid"] == "c06"


def test_verify_c08_passes(tmp_path, capsys):
    out = tmp_path / "v"
    assert main(["verify", "--filter", "c08", "--out", str(out)]) == 0
    assert "c08 PASS" in capsys.readouterr().out
    with open(out / "verify_results.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert rows[0]["cid"] == "c08" and rows[0]["passed"] == "true"


def test_verify_unknown_filter_exits_2(tmp_path, capsys):
    assert main(["verify", "--filter", "zzz", "--out", str(tmp_path / "v")]) == 2
    assert "matches no criteria" in capsys.readouterr().err
