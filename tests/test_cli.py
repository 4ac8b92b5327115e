import contextlib
import io
import math
import os
import re
import subprocess
import sys
from dataclasses import fields, replace
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mdiqkd
from mdiqkd import AnalysisInputs, ChannelParams, OptimizationProblem, SideSources, cli, optimize, secure_key_rate
from mdiqkd.cli import MAX_RANGE_POINTS, main, parse_config_file, parse_distances, ConfigError, RunConfig

REPO_ROOT = Path(__file__).resolve().parent.parent
NUMERIC_KEYS = [f.name for f in fields(RunConfig) if f.type in ("float", "int")]
# Every numeric key with nan (id: the bare key) and with inf (id: key-inf).
NON_FINITE_CASES = [pytest.param(key, "nan", id=key) for key in NUMERIC_KEYS] + [
    pytest.param(key, "inf", id=f"{key}-inf") for key in NUMERIC_KEYS
]


def write_config(tmp_path: Path, extra: str = "", name: str = "run.cfg") -> Path:
    path = tmp_path / name
    path.write_text("# test configuration\n" + extra, encoding="utf-8")
    return path


def test_rate_with_defaults_is_positive(tmp_path, capsys):
    config = write_config(tmp_path, "distance_km = 10\nn_pairs = 1e11\n")
    assert main(["rate", "--config", str(config)]) == 0
    out = capsys.readouterr().out
    fields = dict(line.split(" = ") for line in out.strip().splitlines())
    assert float(fields["rate"]) > 0.0
    assert fields["reason"] == "ok"


def test_rate_writes_record_file(tmp_path):
    config = write_config(tmp_path, "distance_km = 10\n")
    out_file = tmp_path / "report.txt"
    assert main(["rate", "--config", str(config), "--out", str(out_file)]) == 0
    text = out_file.read_text()
    for field in ("rate = ", "h_lower = ", "h_upper = ", "chernoff_invocations = "):
        assert field in text


def test_swapped_decoys_exit_code_2(tmp_path, capsys):
    config = write_config(tmp_path, "mu_x = 0.4\nmu_y = 0.1\n")
    assert main(["rate", "--config", str(config)]) == 2
    assert "decoy" in capsys.readouterr().err


def test_zero_failure_probability_exit_code_2(tmp_path, capsys):
    config = write_config(tmp_path, "xi = 0\n")
    assert main(["rate", "--config", str(config)]) == 2
    assert "xi" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value, message",
    [
        pytest.param("f", "0.5", "must be at least 1, got 0.5", id="0.5-must be at least 1, got 0.5"),
        pytest.param("f", "nan", "must be finite, got nan", id="nan-must be finite, got nan"),
        pytest.param("e_d", "-0.1", "must lie in [0, 1], got -0.1", id="e_d-negative"),
        pytest.param("p_d", "2", "must lie in [0, 1], got 2.0", id="p_d-above-one"),
        pytest.param("eta_d", "1.01", "must lie in [0, 1], got 1.01", id="eta_d-above-one"),
        pytest.param("alpha_f", "-0.2", "must be nonnegative, got -0.2", id="alpha_f-negative"),
        pytest.param("n_pairs", "0.5", "must be at least 1, got 0.5", id="n_pairs-below-one"),
        pytest.param("distance_km", "-1", "must be nonnegative, got -1.0", id="distance_km-negative"),
    ],
)
def test_channel_error_names_the_config_key(tmp_path, capsys, key, value, message):
    config = write_config(tmp_path, f"{key} = {value}\n")
    assert main(["rate", "--config", str(config)]) == 2
    assert capsys.readouterr().err == f"error: {key} {message}\n"


def test_every_library_field_has_a_config_key():
    keys = {f.name for f in fields(RunConfig)}
    for cls in (ChannelParams, SideSources):
        for field in fields(cls):
            key = cli._KEY_OF_FIELD.get(field.name, field.name)
            assert key in keys, f"{cls.__name__}.{field.name} has no config key"


def test_config_keys_reach_their_library_fields():
    channel = dict(e_d=0.02, p_d=1e-6, eta_d=0.5, alpha_f=0.3, xi=1e-8, n_pairs=1e12, distance_km=7.0)
    side = dict(mu_x=0.05, mu_y=0.3, mu_z=0.6, p_v=0.2, p_x=0.15, p_y=0.05, p_z=0.6, vacuum_cap=1e-5, fluctuation=0.01)
    config = RunConfig(f=1.2, **channel, **side)
    assert config.channel_params() == ChannelParams(f_ec=1.2, **channel)
    assert config.ensemble().alice == SideSources(**side)
    assert RunConfig().channel_params() == ChannelParams(distance_km=10.0)


@pytest.mark.parametrize("key, value", NON_FINITE_CASES)
def test_non_finite_value_exit_code_2(tmp_path, capsys, key, value):
    config = write_config(tmp_path, f"{key} = {value}\n")
    assert main(["rate", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "must be finite" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "command, spec",
    [
        ("scan", "nan"),
        ("scan", "inf"),
        ("scan", "1e400"),
        ("scan", "5,nan"),
        ("scan", "0:inf:1"),
        ("scan", "nan:10:1"),
        ("scan", "0:10:inf"),
        ("optimize", "nan"),
    ],
)
def test_non_finite_distances_exit_code_2(tmp_path, capsys, command, spec):
    config = write_config(tmp_path)
    assert main([command, "--config", str(config), "--distances", spec]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad distances ") and "must be finite" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command, spec", [("scan", "0:1e8:1"), ("scan", "0:1e300:1e-300"), ("optimize", "0:100000:1")])
def test_too_long_distance_range_exit_code_2(tmp_path, capsys, command, spec):
    config = write_config(tmp_path)
    assert main([command, "--config", str(config), "--distances", spec]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad distances ") and f"more than {MAX_RANGE_POINTS} points" in err
    assert "Traceback" not in err


def test_decoy_failure_exit_code_2(tmp_path, capsys):
    # Valid sources whose fluctuation-widened decoy intervals overlap.
    config = write_config(tmp_path, "mu_x = 0.3\nmu_y = 0.4\nfluctuation = 0.2\n")
    assert main(["rate", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: decoy conditions fail for these sources: alice:intensity-intervals-disjoint: ")


def test_ulp_apart_decoys_give_zero_rate_not_decoy_failure(tmp_path, capsys):
    # Disjoint by one ulp, so the decoy conditions hold; the single-photon
    # denominator then rounds to zero or below and the rate is zero.
    config = write_config(tmp_path, "mu_x = 0.009885017232114096\nmu_y = 0.00988501723211411\n")
    assert main(["rate", "--config", str(config)]) == 0
    fields = dict(line.split(" = ") for line in capsys.readouterr().out.strip().splitlines())
    assert float(fields["rate"]) == 0.0
    assert fields["reason"].startswith("infeasible: single-photon denominator is not positive")


def test_vacuum_ratio_failing_beyond_depth_twenty_exit_code_2(tmp_path, capsys):
    # x's vacuum ratio holds up to k = 20 and fails from k = 21 on.
    config = write_config(tmp_path, "mu_x = 2.2\nmu_y = 3.2\nmu_z = 0.5\nvacuum_cap = 2.25\n")
    assert main(["rate", "--config", str(config)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: decoy conditions fail for these sources: ")
    assert ":vacuum-ratio:" in captured.err and captured.out == ""


@pytest.mark.parametrize("key, value", [("mu_y", "2e4"), ("mu_z", "2e4"), ("vacuum_cap", "2e4"), ("mu_y", "1e9"), ("mu_y", "800")])
def test_intensity_past_underflow_limit_exit_code_2(tmp_path, capsys, monkeypatch, key, value):
    # Every coefficient table calls poisson_coeff, and every observable pair_yield.
    built = []
    monkeypatch.setattr(mdiqkd.source_model, "poisson_coeff", lambda *args: built.append(args))
    monkeypatch.setattr(mdiqkd.channel_sim, "pair_yield", lambda *args: built.append(args))
    config = write_config(tmp_path, f"{key} = {value}\n")
    assert main(["rate", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: source ") and "underflows" in err and "Traceback" not in err
    assert built == []  # rejected before any coefficient table or observable


@pytest.mark.parametrize(
    "command, line, fragment",
    [
        ("optimize", "budget = 0", "budget must be at least 1"),
        ("optimize", "restarts = 0", "restarts must be at least 1"),
        ("validate-model", "seed = -1", "seed must be nonnegative"),
        ("validate-model", "mc_trials = 0", "mc_trials must be at least 1"),
        ("rate", "k_max = 20", "unknown key 'k_max'"),
        ("optimize", "budget = 1.7", "'budget': must be a whole number"),
        ("optimize", "restarts = 2.9", "'restarts': must be a whole number"),
        ("validate-model", "seed = 0.5", "'seed': must be a whole number"),
        ("validate-model", "mc_trials = 100000.5", "'mc_trials': must be a whole number"),
    ],
)
def test_bad_run_option_exit_code_2(tmp_path, capsys, command, line, fragment):
    config = write_config(tmp_path, line + "\n")
    assert main([command, "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and fragment in err
    assert "Traceback" not in err


def test_bad_optimize_flag_exit_code_2(tmp_path, capsys):
    config = write_config(tmp_path)
    assert main(["scan", "--config", str(config), "--optimize", "maybe"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad value for --optimize: expected on/off, got 'maybe'")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, extra, fragment",
    [
        pytest.param(["scan", "--optimize", ""], "distances = 10\n", "bad value for --optimize: expected on/off, got ''", id="scan-optimize"),
        pytest.param(["scan", "--distances", ""], "distances = 10\n", "bad value for --distances: no distances given", id="scan-distances"),
        pytest.param(["scan", "--distances", " "], "distances = 10\n", "bad value for --distances: no distances given", id="scan-distances-blank"),
        pytest.param(["optimize", "--distances", ""], "distances = 10\n", "bad value for --distances: no distances given", id="optimize-distances"),
        pytest.param(["optimize", "--distances", ""], "", "bad value for --distances: no distances given", id="optimize-distance_km"),
    ],
)
def test_empty_flag_value_exit_code_2(tmp_path, capsys, argv, extra, fragment):
    # An empty flag is an override, not a fallback to the config's distances
    # or, for optimize, to its distance_km.
    config = write_config(tmp_path, "distance_km = 10\nbudget = 12\nrestarts = 1\n" + extra)
    assert main(argv[:1] + ["--config", str(config)] + argv[1:]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: " + fragment)
    assert "Traceback" not in err


def test_integer_keys_accept_whole_numbers_in_any_float_form(tmp_path):
    config = write_config(tmp_path, "mc_trials = 1e7\nbudget = 120.0\nrestarts = 4\nseed = 2E1\n")
    assert parse_config_file(config) == {"mc_trials": 10_000_000, "budget": 120, "restarts": 4, "seed": 20}


def test_integer_keys_past_two_to_the_53_parse_exactly(tmp_path, capsys):
    config = write_config(tmp_path, "seed = 9007199254740993\nmc_trials = 1000\n")
    assert parse_config_file(config) == {"seed": 9007199254740993, "mc_trials": 1000}
    assert main(["validate-model", "--config", str(config)]) == 0
    assert "# seed=9007199254740993" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [["optimize"], ["scan", "--optimize", "on"]], ids=["optimize", "scan-optimize"])
def test_optimize_without_feasible_start_exit_code_2(tmp_path, capsys, argv):
    # Near fluctuation 0.96 and above, no random start keeps the widened decoy intervals disjoint.
    config = write_config(tmp_path, "fluctuation = 0.99\n")
    assert main([*argv, "--config", str(config), "--distances", "10"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: could not sample a feasible starting point: at fluctuation 0.99 ")
    assert "Traceback" not in captured.err and captured.out == ""


def test_optimize_vacuum_cap_past_underflow_limit_exit_code_2(tmp_path, capsys):
    config = write_config(tmp_path, "vacuum_cap = 800\n")
    assert main(["optimize", "--config", str(config), "--distances", "10"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: source v intensity interval ends at 800") and "Traceback" not in err


@pytest.mark.parametrize("extra", ["", "restarts = 1\n"], ids=["default-restarts", "one-restart"])
def test_optimize_fluctuation_at_or_above_one_exit_code_2(tmp_path, capsys, extra):
    config = write_config(tmp_path, "fluctuation = 1.5\n" + extra)
    assert main(["optimize", "--config", str(config), "--distances", "10"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: fluctuation must lie in [0, 1), got 1.5\n" and captured.out == ""


def test_optimized_scan_reports_zero_where_optimize_does(tmp_path, capsys):
    # At fluctuation 0.8 every point fails the decoy conditions: both commands
    # report a zero rate at DEFAULT_START rather than refusing the best point.
    reference = (REPO_ROOT / "configs" / "reference.cfg").read_text(encoding="utf-8")
    config = write_config(tmp_path, reference.replace("fluctuation = 0.01\n", "fluctuation = 0.8\n"))
    assert main(["optimize", "--config", str(config), "--distances", "10"]) == 0
    assert capsys.readouterr().out.splitlines()[-1].split(",")[:2] == ["10", "0.000000000000e+00"]
    assert main(["scan", "--config", str(config), "--distances", "10", "--optimize", "on"]) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines()[-1] == "10,optimized,0.000000000000e+00,nan,0.000000000000e+00,nan"
    assert captured.err == ""


def test_cli_import_leaves_scipy_unloaded():
    src = str(Path(mdiqkd.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys\nimport mdiqkd.cli\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


def test_rate_scan_and_optimize_leave_numpy_and_thread_pool_unloaded(tmp_path):
    # rate, scan and the search run in math alone; numpy is imported only by
    # validate-model, which simulates on the calling thread, with no thread
    # pool.  A search forks its workers itself, without multiprocessing.
    src = str(Path(mdiqkd.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    config = str(write_config(tmp_path))
    commands = [
        ["rate", "--config", config],
        ["scan", "--config", config, "--distances", "0:80:5"],
        ["optimize", "--config", config, "--distances", "10"],
        ["scan", "--config", config, "--distances", "10", "--optimize", "on"],
        ["validate-model", "--config", str(write_config(tmp_path, "mc_trials = 100000\n", "validate.cfg")), "--out", str(tmp_path / "validate.csv")],
    ]
    code = (
        "import sys, threading\nimport mdiqkd.cli\n"
        f"for argv in {commands!r}:\n"
        "    assert mdiqkd.cli.main(argv) == 0\n"
        "    loaded = [m for m in ('numpy', 'concurrent.futures', 'multiprocessing') if m in sys.modules]\n"
        "    print(argv[0], loaded, threading.active_count(), file=sys.stderr)"
    )
    err = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stderr
    assert err.splitlines() == ["rate [] 1", "scan [] 1", "optimize [] 1", "scan [] 1", "validate-model ['numpy'] 1"]


def test_optimize_leaves_scipy_unloaded(tmp_path):
    src = str(Path(mdiqkd.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    config = write_config(tmp_path, "budget = 12\nrestarts = 1\n")
    code = (
        "import sys\nfrom mdiqkd.cli import main\n"
        f"assert main(['optimize', '--config', {str(config)!r}, '--distances', '10']) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'), file=sys.stderr)"
    )
    err = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stderr
    assert err.strip() == "[]"


def test_underflowing_contamination_denominator_is_zero_rate_not_traceback(tmp_path, capsys):
    # Each coefficient bound is positive, but a0_v^L * a1_y^L underflows to 0.
    config = write_config(tmp_path, "mu_x = 300\nmu_y = 600\nvacuum_cap = 200\n")
    assert main(["rate", "--config", str(config)]) == 0
    captured = capsys.readouterr()
    fields = dict(line.split(" = ") for line in captured.out.strip().splitlines())
    assert float(fields["rate"]) == 0.0
    assert fields["reason"] == "infeasible: zero denominator in contamination factors; coefficient bounds degenerate"
    assert "Traceback" not in captured.err


def _reference_with(tmp_path, *replacements):
    text = (REPO_ROOT / "configs" / "reference.cfg").read_text(encoding="utf-8")
    for old, new in replacements:
        assert old in text
        text = text.replace(old, new)
    return write_config(tmp_path, text)


def test_pair_with_zero_expected_emissions_is_zero_rate_not_traceback(tmp_path, capsys):
    # p_v p_v = 1e-330 underflows to 0, so the v-v pair expects no emissions.
    config = _reference_with(tmp_path, ("p_v = 0.146\n", "p_v = 1e-165\n"), ("p_z = 0.625\n", "p_z = 0.771\n"))
    assert main(["rate", "--config", str(config)]) == 0
    captured = capsys.readouterr()
    fields = dict(line.split(" = ") for line in captured.out.strip().splitlines())
    assert float(fields["rate"]) == 0.0
    assert fields["reason"] == "infeasible: no expected emissions from source pair v-v; p_v p_v n_pairs underflows to zero"
    assert captured.err == ""
    assert main(["scan", "--config", str(config), "--distances", "0,10"]) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines()[-2:] == [
        f"{d},fixed,0.000000000000e+00,nan,0.000000000000e+00,nan" for d in (0, 10)
    ]
    assert captured.err == ""


def test_subnormal_expected_emissions_is_zero_rate_without_warning(tmp_path, capsys):
    # p_v p_v n_pairs is about 1e-309, a subnormal whose count weight makes s11 overflow.
    config = _reference_with(tmp_path, ("p_v = 0.146\n", "p_v = 1e-160\n"), ("p_z = 0.625\n", "p_z = 0.771\n"))
    assert main(["rate", "--config", str(config)]) == 0
    captured = capsys.readouterr()
    fields = dict(line.split(" = ") for line in captured.out.strip().splitlines())
    assert float(fields["rate"]) == 0.0
    assert fields["reason"].startswith("infeasible: single-photon yield floor s11 overflows on H in [0, ")
    assert captured.err == ""


# Sources whose two-photon ceiling over mu_x's interval, about mu_x^2 / 2,
# underflows to zero while the decoy conditions pass: no vacuum cap, and a
# nonzero cap below the x interval.
_UNDERFLOWING_X = {"cap-zero": "mu_x = 1e-170\nvacuum_cap = 0\n", "cap-below-x": "mu_x = 3.16e-274\nvacuum_cap = 1.8e-276\n"}


@pytest.mark.parametrize("extra", list(_UNDERFLOWING_X.values()), ids=list(_UNDERFLOWING_X))
def test_underflowing_x_ceiling_is_zero_rate_not_traceback(tmp_path, capsys, extra):
    config = write_config(tmp_path, extra)
    assert main(["rate", "--config", str(config)]) == 0
    captured = capsys.readouterr()
    fields = dict(line.split(" = ") for line in captured.out.strip().splitlines())
    assert float(fields["rate"]) == 0.0
    assert fields["reason"] == "infeasible: x-source coefficient ceiling underflows to zero; mu_x too small for the bound"
    assert captured.err == ""
    assert main(["scan", "--config", str(config), "--distances", "0,10"]) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines()[-2:] == [
        f"{d},fixed,0.000000000000e+00,nan,0.000000000000e+00,nan" for d in (0, 10)
    ]
    assert captured.err == ""


# Config fuzzing: per source and channel key, a range (lo, hi) for uniform
# values and a number of decades below hi for log-uniform ones.
_FUZZ_RANGES = {
    "e_d": (0.0, 0.5, 8),
    "p_d": (0.0, 1e-4, 12),
    "eta_d": (0.0, 1.0, 8),
    "alpha_f": (0.0, 1.0, 6),
    "f": (1.0, 3.0, 2),
    "xi": (0.0, 1e-3, 30),
    "n_pairs": (1.0, 1e14, 20),
    "distance_km": (0.0, 300.0, 8),
    "mu_x": (0.0, 0.5, 300),
    "mu_y": (0.0, 1.0, 300),
    "mu_z": (0.0, 1.0, 300),
    "p_v": (0.0, 1.0, 300),
    "p_x": (0.0, 1.0, 300),
    "p_y": (0.0, 1.0, 300),
    "p_z": (0.0, 1.0, 300),
    "vacuum_cap": (0.0, 1e-3, 300),
    "fluctuation": (0.0, 0.2, 12),
}
_SPECIAL = ("0", "-0", "5e-324", "1e-320", "1e308", repr(sys.float_info.max), "nan", "inf", "-1")
_PROBABILITIES = ("p_v", "p_x", "p_y", "p_z")


def _fuzz_value(draw, key: str, pick: int) -> str:
    """A value for ``key``: special where ``pick < 40``, else uniform where ``pick < 70``, else log-uniform."""
    lo, hi, decades = _FUZZ_RANGES[key]
    if pick < 40:
        return draw(st.sampled_from(_SPECIAL))
    u = draw(st.floats(0.0, 1.0))
    return repr(lo + (hi - lo) * u if pick < 70 else hi * 10.0 ** (-decades * u))


@st.composite
def _fuzz_configs(draw) -> str:
    """A config text: each key present with probability 0.7, then a special value 1 time in 7, else uniform or log-uniform."""
    values = {}
    for key in _FUZZ_RANGES:
        pick = draw(st.integers(0, 99))
        if pick < 30:
            continue
        values[key] = _fuzz_value(draw, key, pick)
    if draw(st.booleans()):
        p = [float(values.get(key, getattr(RunConfig, key))) for key in _PROBABILITIES]
        total = sum(p)
        if math.isfinite(total) and total > 0.0:
            values.update({key: repr(v / total) for key, v in zip(_PROBABILITIES, p)})
    return "".join(f"{key} = {value}\n" for key, value in values.items())


def _main_on_text(tmp_path_factory, text: str, argv: list[str]) -> tuple[int, str]:
    """``main`` on a config file holding ``text``: its exit code, and its stdout, or its stderr where the code is not 0.

    Its stderr holds no traceback.
    """
    config = tmp_path_factory.getbasetemp() / "fuzzed.cfg"
    config.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*argv, "--config", str(config)])
    assert "Traceback" not in err.getvalue()
    return code, err.getvalue() if code else out.getvalue()


@given(text=_fuzz_configs())
@example(text=_UNDERFLOWING_X["cap-zero"])
@example(text=_UNDERFLOWING_X["cap-below-x"])
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
def test_any_config_ends_rate_and_scan_in_exit_0_2_or_3(tmp_path_factory, text):
    for argv, rate_of in (
        (["rate"], lambda out: [line.split(" = ")[1] for line in out.splitlines() if line.startswith("rate = ")]),
        (["scan", "--distances", "0,50"], lambda out: [row.split(",")[2] for row in out.splitlines() if row[:1].isdigit()]),
    ):
        code, out = _main_on_text(tmp_path_factory, text, argv)
        assert code in (0, 2, 3), out
        if code == 0:
            rates = rate_of(out)
            assert rates and all(math.isfinite(float(rate)) for rate in rates)


@st.composite
def _reference_with_one_key(draw) -> str:
    """``configs/reference.cfg`` as it is 1 time in 5, else with one key set to a value of :func:`_fuzz_value`, special 1 time in 4."""
    text = (REPO_ROOT / "configs" / "reference.cfg").read_text(encoding="utf-8")
    pick = draw(st.integers(0, 99))
    if pick < 20:
        return text
    key = draw(st.sampled_from(list(_FUZZ_RANGES)))
    return re.sub(rf"^{key} = .*$", f"{key} = {_fuzz_value(draw, key, pick)}", text, count=1, flags=re.M)


def test_any_config_ends_optimize_in_exit_0_2_or_3_and_validate_model_in_0_1_or_2(tmp_path_factory):
    # Configs one key away from the reference, so most examples reach a search
    # or a Monte Carlo run rather than end at parsing: either command exits
    # with a code other than 2.
    reached = []

    @given(text=_reference_with_one_key())
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    def ends(text):
        searched, out = _main_on_text(tmp_path_factory, text + "budget = 30\nrestarts = 2\n", ["optimize", "--distances", "10"])
        assert searched in (0, 2, 3), out
        simulated, out = _main_on_text(tmp_path_factory, text + "mc_trials = 300\n", ["validate-model"])
        assert simulated in (0, 1, 2), out
        reached.append(searched != 2 or simulated != 2)

    ends()
    assert 3 * sum(reached) >= 2 * len(reached), f"{sum(reached)} of {len(reached)} examples reached a run"


def test_optimize_without_feasible_start_names_the_vacuum_cap(tmp_path, capsys):
    # Random starts draw mu_x below 0.25, so every x interval starts below the cap 3.
    config = _reference_with(tmp_path, ("vacuum_cap = 1e-6\n", "vacuum_cap = 3\n"))
    assert main(["optimize", "--config", str(config), "--distances", "10"]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        "error: could not sample a feasible starting point: at fluctuation 0.01 and vacuum cap 3 "
        "no random start passes the decoy conditions\n"
    )
    assert captured.out == ""


def test_removed_h_grid_key_rejected(tmp_path, capsys):
    config = write_config(tmp_path, "h_grid = 1001\n")
    assert main(["rate", "--config", str(config)]) == 2
    assert "unknown key 'h_grid'" in capsys.readouterr().err


def test_removed_e0_key_rejected(tmp_path, capsys):
    # The relay fixes the error rate of counts with no signal photon at 1/2.
    config = write_config(tmp_path, "e0 = 0.5\n")
    assert main(["rate", "--config", str(config)]) == 2
    assert capsys.readouterr().err == f"error: {config}:2: unknown key 'e0'\n"


def test_duplicate_key_rejected_with_line_number(tmp_path, capsys):
    config = write_config(tmp_path, "mu_x = 0.1\nmu_x = 0.2\n")
    assert main(["rate", "--config", str(config)]) == 2
    assert capsys.readouterr().err.endswith(":3: duplicate key 'mu_x'\n")


def test_seed_flag_overrides_the_config(tmp_path, capsys):
    config = write_config(tmp_path, "seed = 5\n")
    assert main(["scan", "--config", str(config), "--distances", "10", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "# seed=7" in out and "# seed=5" not in out


def test_optimize_off_in_the_config_runs_a_fixed_scan(tmp_path, capsys):
    config = write_config(tmp_path, "optimize = off\ndistances = 10\n")
    assert parse_config_file(config) == {"optimize": False, "distances": "10"}
    assert main(["scan", "--config", str(config)]) == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith("10,fixed,")


def test_unknown_key_rejected_with_line_number(tmp_path, capsys):
    config = write_config(tmp_path, "mu_q = 0.3\n")
    assert main(["rate", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert "mu_q" in err and ":2:" in err


def test_config_with_byte_order_mark_is_read(tmp_path, capsys):
    config = tmp_path / "bom.cfg"
    config.write_bytes(b"\xef\xbb\xbfmu_x = 0.05\n")
    assert parse_config_file(config) == {"mu_x": 0.05}
    assert main(["rate", "--config", str(config)]) == 0


def test_inline_comment_is_ignored(tmp_path, capsys):
    config = write_config(tmp_path, "mu_x = 0.1 # weak decoy\ndistances = 0:10:5# km\n")
    assert parse_config_file(config) == {"mu_x": 0.1, "distances": "0:10:5"}
    config = write_config(tmp_path, "mu_x # = 0.1\n")
    assert main(["rate", "--config", str(config)]) == 2
    assert capsys.readouterr().err.endswith(":2: expected 'key = value', got 'mu_x # = 0.1'\n")


def test_bad_value_rejected_with_line_number(tmp_path, capsys):
    config = write_config(tmp_path, "mu_x = fast\n")
    assert main(["rate", "--config", str(config)]) == 2
    assert ":2:" in capsys.readouterr().err


def test_missing_config_file_exit_code_2(tmp_path, capsys):
    assert main(["rate", "--config", str(tmp_path / "absent.cfg")]) == 2
    assert "not found" in capsys.readouterr().err


@pytest.mark.parametrize(
    "case", ["config-not-utf8", "config-bom-not-utf8", "config-is-directory", "out-in-missing-directory", "eval-log-in-missing-directory"]
)
def test_unreadable_or_unwritable_path_exit_code_2(tmp_path, capsys, case):
    config = write_config(tmp_path, "budget = 20\nrestarts = 2\n")
    (tmp_path / "latin1.cfg").write_bytes(b"mu_x = 0.1\xff\n")
    (tmp_path / "bom-latin1.cfg").write_bytes(b"\xef\xbb\xbfmu_x = 0.1\xff\n")
    missing = str(tmp_path / "missing" / "out.csv")
    argv = {
        "config-not-utf8": ["rate", "--config", str(tmp_path / "latin1.cfg")],
        "config-bom-not-utf8": ["rate", "--config", str(tmp_path / "bom-latin1.cfg")],
        "config-is-directory": ["rate", "--config", str(tmp_path)],
        "out-in-missing-directory": ["rate", "--config", str(config), "--out", missing],
        "eval-log-in-missing-directory": ["optimize", "--config", str(config), "--distances", "10", "--eval-log", missing],
    }[case]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot ")
    assert "Traceback" not in err


def test_distance_parsing():
    assert parse_distances("0:50:10") == [0.0, 10.0, 20.0, 30.0, 40.0, 50.0]
    assert parse_distances("5,1,12.5") == [5.0, 1.0, 12.5]
    assert len(parse_distances(f"0:{MAX_RANGE_POINTS - 1}:1")) == MAX_RANGE_POINTS
    with pytest.raises(ConfigError):
        parse_distances(f"0:{MAX_RANGE_POINTS}:1")
    with pytest.raises(ConfigError):
        parse_distances("10:0:5")
    for spec in ("", "0:10", "0:10:0", ",", "-5"):
        with pytest.raises(ConfigError):
            parse_distances(spec)


def test_scan_single_distance_matches_rate(tmp_path, capsys):
    config = write_config(tmp_path, "distance_km = 10\n")
    assert main(["rate", "--config", str(config)]) == 0
    rate_out = capsys.readouterr().out
    rate_value = dict(line.split(" = ") for line in rate_out.strip().splitlines())["rate"]

    assert main(["scan", "--config", str(config), "--distances", "10"]) == 0
    scan_out = capsys.readouterr().out
    data_row = scan_out.strip().splitlines()[-1].split(",")
    assert data_row[0] == "10" and data_row[1] == "fixed"
    assert float(data_row[2]) == pytest.approx(float(rate_value), rel=1e-12, abs=0.0)


def test_scan_builds_coefficient_bounds_once(tmp_path, capsys, monkeypatch):
    calls = []
    counted = mdiqkd.source_model.coeff_bounds
    monkeypatch.setattr(mdiqkd.source_model, "coeff_bounds", lambda ensemble: calls.append(1) or counted(ensemble))
    config = write_config(tmp_path, "fluctuation = 0.01\nvacuum_cap = 1e-6\n")
    assert main(["scan", "--config", str(config), "--distances", "0:60:15"]) == 0
    assert len(calls) == 1


def test_scan_checks_decoy_conditions_once(tmp_path, capsys, monkeypatch):
    calls = []
    counted = mdiqkd.source_model.check_decoy_conditions
    monkeypatch.setattr(mdiqkd.source_model, "check_decoy_conditions", lambda bounds: calls.append(1) or counted(bounds))
    config = write_config(tmp_path, "fluctuation = 0.01\nvacuum_cap = 1e-6\n")
    assert main(["scan", "--config", str(config), "--distances", "0:60:15"]) == 0
    assert len(calls) == 1


def test_scan_rows_equal_rate_records(tmp_path, capsys):
    # The scan shares one coefficient table across distances; each row must
    # still be byte-identical to a separate rate run at its distance.
    distances = ["0", "7.5", "20", "45", "90", "140"]
    base = (REPO_ROOT / "configs" / "reference.cfg").read_text(encoding="utf-8").replace("distance_km = 10\n", "")
    assert main(["scan", "--config", str(write_config(tmp_path, base)), "--distances", ",".join(distances)]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines() if not line.startswith("#")][1:]
    assert [row[0] for row in rows] == distances
    for row in rows:
        config = write_config(tmp_path, base + f"distance_km = {row[0]}\n", name="rate.cfg")
        assert main(["rate", "--config", str(config)]) == 0
        record = dict(line.split(" = ") for line in capsys.readouterr().out.strip().splitlines())
        assert row[2:] == [record["rate"], record["h_star"], record["s11_at_min"], record["e11_at_min"]]
    assert any(float(row[2]) > 0.0 for row in rows) and any(float(row[2]) == 0.0 for row in rows)


def test_scan_decoy_failure_exit_code_2_with_rate_message(tmp_path, capsys):
    config = write_config(tmp_path, "mu_x = 0.3\nmu_y = 0.4\nfluctuation = 0.2\n")
    assert main(["rate", "--config", str(config)]) == 2
    rate_err = capsys.readouterr().err
    assert main(["scan", "--config", str(config), "--distances", "0:20:10"]) == 2
    captured = capsys.readouterr()
    assert captured.err == rate_err and captured.out == ""
    assert rate_err.startswith("error: decoy conditions fail for these sources: ")


@pytest.mark.parametrize("xi", ["1e-300", "1e-310", "5e-324"])
def test_tiny_failure_probability_with_few_pairs_is_not_a_solver_failure(tmp_path, capsys, xi):
    # At xi = 1e-300 and 10^6 pairs the lower-envelope deviation is about
    # e^692; below about 1e-308, 2/xi overflows and xi/2 underflows.  The
    # envelopes must still come out, not as exit 3 or a traceback.
    reference = (REPO_ROOT / "configs" / "reference.cfg").read_text(encoding="utf-8")
    text = reference.replace("xi = 1e-7\n", f"xi = {xi}\n").replace("n_pairs = 1e11\n", "n_pairs = 1e6\n")
    assert text != reference
    assert main(["rate", "--config", str(write_config(tmp_path, text))]) == 0
    captured = capsys.readouterr()
    record = dict(line.split(" = ") for line in captured.out.strip().splitlines())
    assert record["reason"] == "ok" and captured.err == ""


def test_nan_rate_slope_exit_code_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(mdiqkd.keyrate_core.RateCurve, "slope", lambda self, h: float("nan"))
    assert main(["rate", "--config", str(write_config(tmp_path))]) == 3
    err = capsys.readouterr().err
    assert err.startswith("solver failure: candidate-rate slope is nan") and "Traceback" not in err


@pytest.mark.parametrize(
    "command, extra, fragment",
    [
        pytest.param("scan", "distances = nan\n", "bad distances 'nan'", id="scan-distances"),
        pytest.param("scan", "distances = 10\n", "xi must lie in (0, 1)", id="scan-channel"),
        pytest.param("rate", "", "xi must lie in (0, 1)", id="rate-channel"),
    ],
)
def test_distances_then_channel_then_sources_error_first(tmp_path, capsys, command, extra, fragment):
    config = write_config(tmp_path, "xi = 0\nmu_x = 0.4\nmu_y = 0.1\n" + extra)
    assert main([command, "--config", str(config)]) == 2
    assert capsys.readouterr().err.startswith("error: " + fragment)


@pytest.mark.parametrize("sources", ["mu_x = 0.3\nmu_y = 0.4\nfluctuation = 0.2\n"], ids=["overlapping"])
def test_search_does_not_gate_on_the_configured_sources(tmp_path, capsys, sources):
    # The configured sources are valid values but fail the decoy conditions; only the fixed scan uses them.
    config = write_config(tmp_path, sources + "budget = 12\nrestarts = 1\n")
    assert main(["scan", "--config", str(config), "--distances", "10"]) == 2
    assert capsys.readouterr().err.startswith("error: decoy ")
    assert main(["optimize", "--config", str(config), "--distances", "10"]) == 0
    assert main(["scan", "--config", str(config), "--distances", "10", "--optimize", "on"]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "command, lines, key",
    [
        ("validate-model", "mu_x = nan\n", "mu_x"),
        ("validate-model", "p_v = -1\n", "p_v"),
        ("validate-model", "mu_x = 0.5\nmu_y = 0.1\n", "mu_x"),
        ("optimize", "mu_x = nan\n", "mu_x"),
        ("optimize", "p_v = -1\n", "p_v"),
        ("optimize", "mu_x = 0.4\nmu_y = 0.1\n", "mu_x"),
        ("rate", "distances = abc\n", "distances"),
        ("validate-model", "distances = abc\n", "distances"),
        ("rate", "mu_z = 0\n", "mu_z"),
    ],
    ids=[
        "validate-nan", "validate-negative-p_v", "validate-swapped", "optimize-nan", "optimize-negative-p_v",
        "optimize-swapped", "rate-distances", "validate-distances", "rate-zero-mu_z",
    ],
)
def test_every_command_checks_every_config_value(tmp_path, capsys, command, lines, key):
    # A command that does not read a key still refuses a bad value for it.
    config = write_config(tmp_path, lines + "mc_trials = 1000\nbudget = 12\nrestarts = 1\n")
    assert main([command, "--config", str(config)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and key in captured.err.splitlines()[0]
    assert captured.out == "" and "Traceback" not in captured.err


@pytest.mark.parametrize(
    "argv, extra",
    [
        pytest.param(["scan", "--distances={zero},5"], "", id="scan"),
        pytest.param(["scan", "--distances={zero},5", "--optimize", "on"], "budget = 12\nrestarts = 1\n", id="scan-optimize"),
        pytest.param(["optimize", "--distances={zero}"], "budget = 12\nrestarts = 1\n", id="optimize"),
        pytest.param(["optimize"], "distance_km = {zero}\nbudget = 12\nrestarts = 1\n", id="optimize-distance_km"),
    ],
)
def test_minus_zero_distance_prints_as_zero(tmp_path, capsys, argv, extra):
    rows = {}
    for zero in ("-0", "0"):
        config = write_config(tmp_path, extra.format(zero=zero))
        assert main([argv[0], "--config", str(config)] + [arg.format(zero=zero) for arg in argv[1:]]) == 0
        rows[zero] = [line for line in capsys.readouterr().out.splitlines() if not line.startswith("#")]
    assert rows["-0"] == rows["0"] and rows["0"][1].startswith("0,")


def test_scan_rates_non_increasing_with_distance(tmp_path, capsys):
    config = write_config(tmp_path, "fluctuation = 0\n")
    assert main(["scan", "--config", str(config), "--distances", "0:20:10"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.strip().splitlines() if not line.startswith("#")][1:]
    rates = [float(row[2]) for row in rows]
    assert rates == sorted(rates, reverse=True)


def test_scan_output_is_byte_stable(tmp_path, capsys):
    config = write_config(tmp_path, "distances = 0:10:5\nseed = 9\n")
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert main(["scan", "--config", str(config), "--out", str(out_a)]) == 0
    capsys.readouterr()
    assert main(["scan", "--config", str(config), "--out", str(out_b)]) == 0
    capsys.readouterr()
    assert out_a.read_bytes() == out_b.read_bytes()


def test_reference_scan_matches_golden_output(capsys):
    assert main(["scan", "--config", str(REPO_ROOT / "configs" / "reference.cfg")]) == 0
    golden = (REPO_ROOT / "tests" / "data" / "reference_scan.csv").read_text(encoding="utf-8")
    assert capsys.readouterr().out == golden


def test_reference_optimized_scan_matches_golden_output(capsys):
    argv = ["scan", "--config", str(REPO_ROOT / "configs" / "reference.cfg"), "--distances", "10,25", "--optimize", "on"]
    assert main(argv) == 0
    golden = (REPO_ROOT / "tests" / "data" / "scan_optimize_reference.csv").read_text(encoding="utf-8")
    assert capsys.readouterr().out == golden


def test_reference_rate_matches_golden_output(capsys):
    assert main(["rate", "--config", str(REPO_ROOT / "configs" / "reference.cfg")]) == 0
    golden = (REPO_ROOT / "tests" / "data" / "rate_reference.txt").read_text(encoding="utf-8")
    assert capsys.readouterr().out == golden


def test_report_record_has_all_fields(capsys):
    assert main(["rate", "--config", str(REPO_ROOT / "configs" / "reference.cfg")]) == 0
    names = [line.split(" = ")[0] for line in capsys.readouterr().out.splitlines()]
    assert names == [
        "rate",
        "h_lower",
        "h_upper",
        "h_star",
        "s11_at_min",
        "e11_at_min",
        "signal_rate",
        "signal_error_rate",
        "chernoff_invocations",
        "reason",
        "trace_samples",
    ]


def test_reference_validation_matches_golden_output(tmp_path, capsys):
    reference = (REPO_ROOT / "configs" / "reference.cfg").read_text(encoding="utf-8")
    config = write_config(tmp_path, reference + "mc_trials = 100000\n")
    assert main(["validate-model", "--config", str(config)]) == 0
    golden = (REPO_ROOT / "tests" / "data" / "validate_reference.csv").read_text(encoding="utf-8")
    assert capsys.readouterr().out == golden


def test_reference_optimize_matches_golden_output(tmp_path, capsys):
    # Pins every probe's rate, and so its decoy verdict, not just the best points.
    log = tmp_path / "evals.csv"
    argv = ["optimize", "--config", str(REPO_ROOT / "configs" / "reference.cfg"), "--distances", "10,25", "--eval-log", str(log)]
    assert main(argv) == 0
    assert capsys.readouterr().out == (REPO_ROOT / "tests" / "data" / "optimize_reference.txt").read_text(encoding="utf-8")
    assert log.read_bytes() == (REPO_ROOT / "tests" / "data" / "optimize_reference_evals.csv").read_bytes()


def test_reference_scan_over_the_benchmark_range_matches_golden_output(capsys):
    # Every kilometre to 150 km, past where the fixed sources' rate reaches zero.
    assert main(["scan", "--config", str(REPO_ROOT / "configs" / "reference.cfg"), "--distances", "0:150:1"]) == 0
    assert capsys.readouterr().out == (REPO_ROOT / "tests" / "data" / "reference_scan_0_150.csv").read_text(encoding="utf-8")


def test_most_minima_over_h_of_the_reference_scans_end_at_h_lower_after_one_slope_evaluation():
    # The README's count, over every kilometre to 150 km at fluctuation 0, 0.01 and 0.05: 433 of the
    # 453 minima end at h_lower after one slope evaluation, and each other one bisects in 52-54.
    run = RunConfig(**parse_config_file(REPO_ROOT / "configs" / "reference.cfg"))
    channel, at_h_lower, bisections = run.channel_params(), 0, []
    for fluctuation in (0.0, 0.01, 0.05):
        ensemble = replace(run, fluctuation=fluctuation).ensemble()
        for distance in range(151):
            report = secure_key_rate(AnalysisInputs.from_simulation(ensemble, channel.at_distance(float(distance))))
            assert report.reason == "ok"
            if report.trace_samples == 1 and report.h_star == report.h_lower:
                at_h_lower += 1
            else:
                bisections.append(report.trace_samples)
    assert at_h_lower == 433 and len(bisections) == 20
    assert min(bisections) >= 52 and max(bisections) <= 54


def test_reference_optimize_on_the_zero_plateau_matches_golden_eval_log(tmp_path, capsys):
    # At 70 km no start finds a positive rate, so every random restart logs all its start probes.
    reference = (REPO_ROOT / "configs" / "reference.cfg").read_text(encoding="utf-8")
    config = write_config(tmp_path, reference + "budget = 160\nrestarts = 4\n")
    log = tmp_path / "evals.csv"
    assert main(["optimize", "--config", str(config), "--distances", "70", "--eval-log", str(log)]) == 0
    assert log.read_bytes() == (REPO_ROOT / "tests" / "data" / "optimize_plateau_reference_evals.csv").read_bytes()


def test_scan_provenance_headers(tmp_path, capsys):
    config = write_config(tmp_path, "")
    assert main(["scan", "--config", str(config), "--distances", "0,5"]) == 0
    out = capsys.readouterr().out
    assert "# command=scan" in out
    assert "# config_hash=" in out
    assert "# seed=" in out
    assert "# version=" in out


def test_scan_with_optimization_flag(tmp_path, capsys):
    config = write_config(tmp_path, "budget = 40\nrestarts = 2\n")
    assert main(["scan", "--config", str(config), "--distances", "10", "--optimize", "on"]) == 0
    rows = [line for line in capsys.readouterr().out.splitlines() if not line.startswith("#")]
    assert rows[1].split(",")[1] == "optimized"


def test_optimize_command_outputs_best_points(tmp_path, capsys):
    config = write_config(tmp_path, "budget = 60\nrestarts = 2\nn_pairs = 1e11\n")
    log = tmp_path / "log.csv"
    assert main(["optimize", "--config", str(config), "--distances", "10", "--eval-log", str(log)]) == 0
    out = capsys.readouterr().out
    header = [line for line in out.splitlines() if line.startswith("distance_km")][0]
    assert header == "distance_km,rate,mu_x,mu_y,mu_z,p_x,p_y,p_z"
    assert log.exists()
    assert len(log.read_text().splitlines()) > 5


def test_optimize_without_distances_runs_at_the_configured_distance(tmp_path, capsys):
    # 25.1234567 km, which the "%g" distance column shows as 25.1235.
    config = write_config(tmp_path, "distance_km = 25.1234567\nbudget = 60\nrestarts = 2\n")
    assert main(["optimize", "--config", str(config)]) == 0
    row = capsys.readouterr().out.splitlines()[-1].split(",")
    run = RunConfig(distance_km=25.1234567, budget=60, restarts=2)
    problem = OptimizationProblem(channel=run.channel_params(), vacuum_cap=run.vacuum_cap, fluctuation=run.fluctuation)
    expected = optimize(problem, seed=run.seed, budget=run.budget, restarts=run.restarts)
    assert row[:2] == ["25.1235", f"{expected.rate:.12e}"]


def test_validate_model_zero_trials_exit_code_2(tmp_path, capsys):
    config = write_config(tmp_path, "mc_trials = 0\n")
    assert main(["validate-model", "--config", str(config)]) == 2
    assert "mc_trials" in capsys.readouterr().err


def test_validate_model_disagreement_exit_code_1(tmp_path, capsys, monkeypatch):
    # An analytic model that predicts a gain of one half cannot agree with the simulation.
    monkeypatch.setattr(mdiqkd.channel_sim, "pair_yield", lambda *args: (0.5, 0.25))
    config = write_config(tmp_path, "mc_trials = 1000\n")
    assert main(["validate-model", "--config", str(config)]) == 1
    assert capsys.readouterr().out.splitlines()[-1].startswith("model validation FAILED (")


def test_validate_model_without_clicks_scores_zero_and_passes(tmp_path, capsys):
    # No light reaches a detector and none clicks in the dark, so every gain is 0
    # in the model and the simulation, both standard errors are 0, and so is z.
    config = write_config(tmp_path, "eta_d = 0\np_d = 0\nmc_trials = 1000\n")
    assert main(["validate-model", "--config", str(config)]) == 0
    lines = capsys.readouterr().out.splitlines()
    header = lines[4].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[5:-1]]
    assert len(rows) == 20 and lines[-1].startswith("model validation PASSED")
    for row in rows:
        assert [float(row[key]) for key in ("analytic_gain", "mc_gain", "analytic_error_gain", "mc_error_gain")] == [0.0] * 4
        assert (row["z_gain"], row["z_error"], row["ok"]) == ("0.000", "0.000", "1")


def test_validate_model_small_run_passes(tmp_path, capsys):
    config = write_config(tmp_path, "mc_trials = 200000\nseed = 4\n")
    assert main(["validate-model", "--config", str(config)]) == 0
    assert "PASSED" in capsys.readouterr().out


def test_calls_of_main_in_one_process_give_what_separate_processes_give(tmp_path, capsys, monkeypatch):
    # The parser is built at the first call and kept; a bad option between
    # commands must leave nothing behind for the next call.
    config = str(write_config(tmp_path, "distance_km = 10\nbudget = 12\nrestarts = 1\n"))
    calls = [
        ["rate", "--config", config],
        ["scan", "--config", config, "--bogus"],
        ["scan", "--config", config, "--distances", "0,20"],
        ["optimize", "--config", config, "--seed", "x"],
        ["optimize", "--config", config, "--seed", "3"],
        ["scan", "--help"],
        ["rate", "--config", config, "--out", str(tmp_path / "report.txt")],
    ]
    monkeypatch.setenv("COLUMNS", "100")  # the help text wraps at the terminal width
    in_process = []
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        in_process.append((code, captured.out, captured.err))
    src = str(Path(mdiqkd.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys\nfrom mdiqkd.cli import main\nsys.exit(main(sys.argv[1:]))"
    separate = []
    for argv in calls:
        proc = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True)
        separate.append((proc.returncode, proc.stdout, proc.stderr))
    assert [call[0] for call in in_process] == [0, 2, 0, 2, 0, 0, 0]
    assert in_process == separate


def test_main_runs_the_command_function_bound_at_the_call(tmp_path, monkeypatch):
    config = str(write_config(tmp_path))
    assert main(["scan", "--config", config, "--distances", "10"]) == 0  # builds the parser
    monkeypatch.setattr(cli, "cmd_scan", lambda config, args: 7)
    assert main(["scan", "--config", config, "--distances", "10"]) == 7


_EDGES = [math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, sys.float_info.min, sys.float_info.max, 1e16, 1e-5, 0.5]
# Any double, subnormals often, and values of the size where "%.3f" and "%.2f" differ.
_DOUBLE = st.floats() | st.floats(allow_subnormal=True, min_value=-1e-300, max_value=1e-300) | st.floats(-1e3, 1e3) | st.sampled_from(_EDGES)

# What each CSV row prints per column: its text, its 0/1 flag, or a number to
# ("sig", n) significant digits or ("places", n) places after the point.
_G, _E12, _F3 = ("sig", 6), ("sig", 13), ("places", 3)
_ROWS = {
    "_SCAN_ROW": [_G, "text", _E12, _E12, _E12, _E12],
    "_OPTIMIZE_ROW": [_G, *[_E12] * 7],
    "_VALIDATE_ROW": [_G, _G, "text", _E12, _E12, _F3, _E12, _E12, _F3, "flag"],
}


def _check_number(field: str, precision: tuple[str, int], value: float) -> None:
    """``field`` spells ``value`` as Python does and reads back to it within half a unit of its last printed digit."""
    if not math.isfinite(value):
        assert field == repr(value)  # nan, inf or -inf; a NaN's sign is not printed
        return
    assert field.startswith("-") == (math.copysign(1.0, value) < 0.0), (field, value)  # signed zeros too
    kind, digits = precision
    last = Decimal(value).adjusted() - digits + 1 if kind == "sig" else -digits  # the exponent of the last printed digit
    assert abs(Fraction(Decimal(field)) - Fraction(value)) <= Fraction(1, 2) * Fraction(10) ** last, (field, precision, value)


def _with_edges(test):
    """``test`` with an explicit example per edge value, in every number column."""
    for edge in _EDGES:
        test = example([edge] * 8, "optimized", False)(test)
    return test


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.lists(_DOUBLE, min_size=8, max_size=8), st.sampled_from(["fixed", "optimized", "X", "Z"]), st.booleans())
@_with_edges
def test_each_row_field_reads_back_to_its_value_within_its_printed_precision(values, text, ok):
    for name, columns in _ROWS.items():
        numbers = iter(values)
        args = [text if column == "text" else ok if column == "flag" else next(numbers) for column in columns]
        printed = (getattr(cli, name) % tuple(args)).split(",")
        assert len(printed) == len(columns), printed
        for field, column, arg in zip(printed, columns, args):
            if column == "text":
                assert field == arg
            elif column == "flag":
                assert field == ("1" if arg else "0")
            else:
                _check_number(field, column, arg)
