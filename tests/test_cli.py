import csv
import hashlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import qsearch
import qsearch.cli as cli
from qsearch import (
    AmplitudePlan,
    NumericalFailure,
    new_prior,
    parse_qasm,
    run_gate_circuit,
)
from qsearch import circuits as qc

NAIVE = new_prior([0.25, 0.25, 0.25, 0.25, 0, 0, 0, 0])


def write_prior(tmp_path, p, name="prior.json"):
    path = tmp_path / name
    path.write_text(json.dumps({"weights": p.weights.tolist()}))
    return path


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_optimize_writes_plan(tmp_path, capsys):
    prior = write_prior(tmp_path, NAIVE)
    out = tmp_path / "plan.json"
    code = cli.main(["optimize", "--prior", str(prior), "--t", "1", "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["esp"] == 1.0
    assert data["t"] == 1
    captured = capsys.readouterr().out
    assert "esp 1.0" in captured
    assert "kkt_residual" in captured


def test_optimize_certifies_once(tmp_path, monkeypatch):
    # The plan file carries the certificate optimize printed, not a recomputed one.
    calls = {"esp": 0, "kkt_residual": 0}
    for name in calls:

        def counted(*args, _real=getattr(qsearch.optimizer, name), _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(qsearch.optimizer, name, counted)
    prior = write_prior(tmp_path, qsearch.sample_random_prior(4096, 3))
    out = tmp_path / "plan.json"
    assert cli.main(["optimize", "--prior", str(prior), "--t", "2", "--out", str(out)]) == 0
    assert calls == {"esp": 1, "kkt_residual": 1}
    # the same bytes as the writer certifying the plan under the prior itself
    p = qsearch.load_prior(prior)
    assert out.read_text() == qsearch.plan_to_json(p, qsearch.load_plan(out)) + "\n"


def test_optimize_missing_prior(tmp_path):
    code = cli.main(
        ["optimize", "--prior", str(tmp_path / "nope.json"), "--t", "1", "--out", str(tmp_path / "o")]
    )
    assert code == 2


# Files json.load fails on with a ValueError other than JSONDecodeError
# (over Python's integer digit limit, not UTF-8) or with a RecursionError.
UNDECODABLE = {
    "digits.json": b'{"weights": [1, ' + b"9" * 5000 + b"]}",
    "utf16.json": b'\xff\xfe{"weights": [1]}',
    "nested.json": b"[" * 100_000 + b"]" * 100_000,
}


def test_optimize_malformed_prior(tmp_path, capsys):
    files = {"bad.json": b"{not json", **UNDECODABLE}
    out = tmp_path / "plan.json"
    for name, content in files.items():
        path = tmp_path / name
        path.write_bytes(content)
        code = cli.main(["optimize", "--prior", str(path), "--t", "1", "--out", str(out)])
        assert code == 2, name
        assert capsys.readouterr().err.startswith(f"error: {path}: not valid JSON ("), name
        assert not out.exists(), name


@pytest.mark.parametrize(
    "weights",
    ["[1, " + "9" * 401 + "]", '[true, "0.5", false, 1]', '[0.5, "0.5"]', "[0.5, null]", "[[0.5], 0.5]"],
)
def test_optimize_rejects_prior_entries_that_are_not_numbers(tmp_path, weights):
    path = tmp_path / "bad.json"
    path.write_text('{"weights": ' + weights + "}")
    out = tmp_path / "plan.json"
    code = cli.main(["optimize", "--prior", str(path), "--t", "1", "--out", str(out)])
    assert code == 2
    assert not out.exists()


def test_optimize_unwritable_out(tmp_path):
    prior = write_prior(tmp_path, NAIVE)
    out = tmp_path / "missing-dir" / "plan.json"
    code = cli.main(["optimize", "--prior", str(prior), "--t", "1", "--out", str(out)])
    assert code == 2


def test_optimize_maps_solver_failure(tmp_path, monkeypatch):
    def explode(p, t):
        raise NumericalFailure("did not converge")

    monkeypatch.setattr(cli, "optimize", explode)
    prior = write_prior(tmp_path, NAIVE)
    code = cli.main(["optimize", "--prior", str(prior), "--t", "1", "--out", str(tmp_path / "o")])
    assert code == 3


def compare_args(tmp_path, out_name, extra=()):
    return [
        "compare",
        "--n", "6",
        "--samples", "3",
        "--t-min", "1",
        "--t-max", "3",
        "--seed", "7",
        "--out", str(tmp_path / out_name),
        *extra,
    ]


def test_compare_structure(tmp_path):
    code = cli.main(compare_args(tmp_path, "sweep.csv"))
    assert code == 0
    rows = read_csv(tmp_path / "sweep.csv")
    assert rows[0] == ["t", "method", "mean_esp", "std_esp", "samples", "seed"]
    assert len(rows) == 1 + 3 * 4
    methods = [row[1] for row in rows[1:5]]
    assert methods == ["classical", "grover-uniform", "ranking", "optimal"]
    assert all(row[4] == "3" and row[5] == "7" for row in rows[1:])
    by_t = {}
    for row in rows[1:]:
        by_t.setdefault(int(row[0]), {})[row[1]] = float(row[2])
    for t, vals in by_t.items():
        assert vals["optimal"] >= vals["ranking"] - 1e-9
        assert vals["ranking"] >= vals["grover-uniform"] - 1e-9
        assert vals["optimal"] >= vals["classical"] - 1e-9
    optimal_means = [by_t[t]["optimal"] for t in sorted(by_t)]
    assert all(b >= a - 1e-9 for a, b in zip(optimal_means, optimal_means[1:]))


def test_compare_deterministic_output(tmp_path):
    assert cli.main(compare_args(tmp_path, "a.csv")) == 0
    assert cli.main(compare_args(tmp_path, "b.csv")) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_compare_injected_prior_rows(tmp_path):
    prior = write_prior(tmp_path, NAIVE)
    out = tmp_path / "fixed.csv"
    code = cli.main(
        [
            "compare",
            "--n", "8",
            "--samples", "2",
            "--t-min", "1",
            "--t-max", "1",
            "--seed", "5",
            "--prior", str(prior),
            "--out", str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "1,classical,0.25,0.0,2,5"
    assert lines[3] == "1,ranking,1.0,0.0,2,5"
    assert lines[4] == "1,optimal,1.0,0.0,2,5"
    uniform = lines[2].split(",")
    assert uniform[1] == "grover-uniform"
    assert float(uniform[2]) == pytest.approx(0.78125, abs=1e-12)
    assert float(uniform[3]) == 0.0


def test_compare_injected_prior_is_solved_once(tmp_path, monkeypatch):
    # Every sample reuses the one injected prior, so each budget is solved once.
    calls = []
    real = cli.optimize

    def counted(p, t):
        calls.append(t)
        return real(p, t)

    monkeypatch.setattr(cli, "optimize", counted)
    prior = write_prior(tmp_path, new_prior([0.3, 0.25, 0.2, 0.15, 0.06, 0.04]))
    code = cli.main(
        [
            "compare",
            "--n", "6",
            "--samples", "4",
            "--t-max", "3",
            "--prior", str(prior),
            "--out", str(tmp_path / "fixed.csv"),
        ]
    )
    assert code == 0
    assert calls == [1, 2, 3]
    rows = read_csv(tmp_path / "fixed.csv")[1:]
    assert {row[3] for row in rows} == {"0.0"}
    assert {row[4] for row in rows} == {"4"}


def test_compare_injected_prior_must_match_n(tmp_path):
    prior = write_prior(tmp_path, NAIVE)
    code = cli.main(
        ["compare", "--n", "6", "--samples", "1", "--prior", str(prior), "--out", str(tmp_path / "x")]
    )
    assert code == 2


@pytest.mark.parametrize(
    "overrides",
    [  # the flags, then the stderr line they give
        ("--n", "0", "error: --n must be >= 1"),
        ("--samples", "0", "error: --samples must be >= 1"),
        ("--t-min", "3", "--t-max", "1", "error: need 0 <= t-min <= t-max"),
        ("--t-min", "-1", "error: need 0 <= t-min <= t-max"),
        ("--seed", "-4", "error: --seed must be >= 0"),
    ],
)
def test_compare_rejects_bad_ranges(tmp_path, capsys, overrides):
    *flags, message = overrides
    args = ["compare", "--out", str(tmp_path / "x.csv"), "--samples", "1", "--n", "4", *flags]
    assert cli.main(args) == 2
    assert capsys.readouterr().err == message + "\n"
    assert not (tmp_path / "x.csv").exists()


# NumPy's pairwise summation regroups at 8 and 128 terms.
STAT_SAMPLES = (1, 2, 7, 8, 9, 127, 128, 129)
STAT_T = [1, 2, 3]


@pytest.fixture(scope="module")
def sampled_methods():
    """_sample_methods of compare --n 16 --seed 11 --t-max 3, samples 0..128."""
    return [
        cli._sample_methods(qsearch.sample_random_prior(16, 11 ^ s), STAT_T)
        for s in range(max(STAT_SAMPLES))
    ]


@pytest.mark.parametrize("samples", STAT_SAMPLES)
def test_compare_statistics_have_the_bits_of_each_column(tmp_path, samples, sampled_methods):
    # The reference is a mean and a std per (samples,) column of the
    # (samples, t, method) array.  A reduction along that strided axis of
    # the whole array adds the samples one by one instead of pairwise.
    out = tmp_path / "stats.csv"
    argv = ["compare", "--n", "16", "--samples", str(samples), "--t-max", "3", "--seed", "11"]
    assert cli.main([*argv, "--out", str(out)]) == 0
    values = np.asarray(sampled_methods[:samples])
    expected = []
    for ti, t in enumerate(STAT_T):
        for mi, method in enumerate(qsearch.METHODS):
            col = values[:, ti, mi]
            expected.append(
                f"{t},{method},{float(col.mean())!r},{float(col.std())!r},{samples},11"
            )
    assert out.read_text().splitlines()[1:] == expected


def test_the_reused_parser_leaks_nothing_between_calls(tmp_path, monkeypatch, capsys):
    build = cli.build_parser
    built = []
    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())

    def fresh(argv):
        """main's work with a parser built for this call alone."""
        args = build().parse_args(argv)
        return args.func(args)

    assert fresh(compare_args(tmp_path, "fresh.csv")) == 0
    expected = (tmp_path / "fresh.csv").read_bytes()
    prior = write_prior(tmp_path, new_prior([0.3, 0.25, 0.2, 0.15, 0.06, 0.04]))
    assert cli.main(compare_args(tmp_path, "injected.csv", ("--prior", str(prior)))) == 0
    assert cli.main(compare_args(tmp_path, "sampled.csv")) == 0
    assert (tmp_path / "sampled.csv").read_bytes() == expected

    with pytest.raises(SystemExit) as exc:
        cli.main(compare_args(tmp_path, "x.csv", ("--n", "six")))
    assert exc.value.code == 2
    assert cli.main(compare_args(tmp_path, "after-error.csv")) == 0
    assert (tmp_path / "after-error.csv").read_bytes() == expected

    assert cli.main(VERIFY_FAST) == 0
    capsys.readouterr()
    optimize = ["optimize", "--prior", str(prior), "--t", "2", "--out"]
    assert cli.main([*optimize, str(tmp_path / "reused.json")]) == 0
    reused = capsys.readouterr().out
    assert fresh([*optimize, str(tmp_path / "fresh.json")]) == 0
    assert capsys.readouterr().out == reused
    assert (tmp_path / "reused.json").read_bytes() == (tmp_path / "fresh.json").read_bytes()
    assert built == [1]  # main built one parser for all of these calls


def test_theta_table(tmp_path, capsys):
    out = tmp_path / "theta.csv"
    code = cli.main(["theta-table", "--out", str(out)])
    assert code == 0
    rows = read_csv(out)
    assert rows[0] == ["sigma", "theta", "paper_theta", "abs_diff"]
    assert len(rows) == 9
    for j, row in enumerate(rows[1:], start=1):
        assert float(row[0]) == pytest.approx(j / 80.0, abs=1e-15)
        assert float(row[3]) <= 1e-3
        assert abs(float(row[1]) - float(row[2])) == pytest.approx(float(row[3]), abs=1e-15)
    assert "worst |theta - reference|" in capsys.readouterr().out


VERIFY_FAST = ["verify", "--trials", "3", "--n-max", "6", "--t-max", "3", "--seed", "0"]


def test_verify_passes(capsys):
    code = cli.main(VERIFY_FAST)
    out = capsys.readouterr().out
    assert code == 0
    lines = [line for line in out.splitlines() if line.strip()]
    assert len(lines) == 6
    names = [line.split()[0] for line in lines]
    assert names == [
        "oracle-equivalence",
        "kkt-certificate",
        "duality-bound",
        "exchange-map",
        "robustness",
        "speedup",
    ]
    assert all(" PASS " in line for line in lines)


# md5 of `verify --seed S` stdout at the defaults.  These move only with a
# CHANGES.md entry that explains the bits that moved them.
VERIFY_STDOUT_MD5 = {
    0: "b211fe0a5a06429e50b3543ebc098e61",
    1: "5ad4d6007a078935efeb05ee708954ec",
    2: "02818ee49dc7509be6525ad96bfcd959",
}


@pytest.mark.parametrize("seed", sorted(VERIFY_STDOUT_MD5))
def test_verify_stdout_keeps_its_bits(seed, capsys):
    assert cli.main(["verify", "--seed", str(seed)]) == 0
    out = capsys.readouterr().out
    assert hashlib.md5(out.encode()).hexdigest() == VERIFY_STDOUT_MD5[seed]


def test_verify_inverted_oracle_fails(capsys, monkeypatch):
    real = cli.run_iterations
    monkeypatch.setattr(cli, "run_iterations", lambda plan, x: 1.0 - real(plan, x))
    code = cli.main(VERIFY_FAST)
    out = capsys.readouterr().out
    assert code == 4
    assert any(line.startswith("oracle-equivalence") and " FAIL " in line for line in out.splitlines())


def scaled_plans(solve, factor):
    def scaled(p, t):
        plan = solve(p, t)
        return AmplitudePlan(q=plan.q * factor, t=plan.t, meta=plan.meta)

    return scaled


def map_without_its_clamp(exchange_map):
    """The exchange map with q = sin^2(Theta / m), Theta no longer clamped at pi/2."""

    def unclamped(u):
        theta = exchange_map(u)[0]
        return theta, np.sin(theta / u.shape[0]) ** 2

    return unclamped


def map_scaled(factor):
    def fault(exchange_map):
        def scaled(u):
            theta, q = exchange_map(u)
            return theta, q * factor

        return scaled

    return fault


# test id: (failing check, module, attribute, fault built from the original, argv)
VERIFY_FAULTS = {
    "kkt-certificate": (
        "kkt-certificate", cli, "optimize", lambda f: scaled_plans(f, 1.0 - 1e-4), VERIFY_FAST
    ),
    # bounds looks optimize up at call time, so only the duality bound sees this binding
    "duality-bound": (
        "duality-bound", qsearch.optimizer, "optimize", lambda f: scaled_plans(f, 1.0 - 1e-4), VERIFY_FAST
    ),
    # the check takes bounds._clamped through its own binding
    "exchange-map-curve": (
        "exchange-map", cli, "_clamped", lambda f: lambda angles: np.sin(angles) ** 2, VERIFY_FAST
    ),
    "exchange-map-angle": ("exchange-map", cli, "exchange_map", map_without_its_clamp, VERIFY_FAST),
    "exchange-map-0.95": ("exchange-map", cli, "exchange_map", map_scaled(0.95), VERIFY_FAST),
    "robustness": ("robustness", cli, "l1_distance", lambda f: lambda p, q: 0.0, ["verify"]),
    # The worst loss at seed 0 is 0.047 of the distance, which this factor
    # puts between eps and the check's former 2 eps.
    "robustness-eps": (
        "robustness", cli, "l1_distance", lambda f: lambda p, q: 0.03 * f(p, q), ["verify"]
    ),
    "speedup": ("speedup", cli, "speedup_plan", lambda f: scaled_plans(f, 0.999), VERIFY_FAST),
}


@pytest.mark.parametrize("name", sorted(VERIFY_FAULTS))
def test_verify_fault_fails_its_own_check(name, capsys, monkeypatch):
    check, module, attr, fault, argv = VERIFY_FAULTS[name]
    monkeypatch.setattr(module, attr, fault(getattr(module, attr)))
    code = cli.main(argv)
    failed = [line.split()[0] for line in capsys.readouterr().out.splitlines() if " FAIL " in line]
    assert code == 4
    assert failed == [check]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_verify_sees_a_millionth_of_the_budget_unspent(seed, capsys, monkeypatch):
    # Every plan scaled by 1 - 1e-6, in cli's binding (the KKT check) and in
    # the one bounds looks up at call time (the duality bound).  Where every
    # item sits at its cap the loss is second order: the duality residual
    # then reads 1.2e-12 to 1.3e-12, still above its rounding bound.
    solve = qsearch.optimizer.optimize
    for module in (cli, qsearch.optimizer):
        monkeypatch.setattr(module, "optimize", scaled_plans(solve, 1.0 - 1e-6))
    code = cli.main(["verify", "--seed", str(seed)])
    failed = [line.split()[0] for line in capsys.readouterr().out.splitlines() if " FAIL " in line]
    assert code == 4
    assert failed == ["kkt-certificate", "duality-bound"]


def test_readme_lists_every_verify_check():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    table = readme.split("| check | fails on | cannot see |\n|---|---|---|\n", 1)[1].split("\n\n", 1)[0]
    names = [row.split("|")[1].strip().strip("`") for row in table.splitlines()]
    assert names == [name for name, _ in cli._VERIFY_CHECKS]


def test_compare_fails_on_a_method_ordering_violation(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "ranking_baseline", lambda p, t: types.SimpleNamespace(value=1.0))
    assert cli.main(compare_args(tmp_path, "sweep.csv")) == 4
    assert "method ordering violated" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


def test_theta_table_fails_beyond_the_tolerance(tmp_path, capsys, monkeypatch):
    shifted = tuple((sigma, theta + 0.01) for sigma, theta in qc.REFERENCE_THETA)
    monkeypatch.setattr(qc, "REFERENCE_THETA", shifted)
    assert cli.main(["theta-table", "--out", str(tmp_path / "theta.csv")]) == 4
    assert "exceeded the 1e-3 tolerance" in capsys.readouterr().err


def test_verify_rejects_empty_suite(capsys):
    for flag, value, message in [
        ("--trials", "0", "error: --trials must be >= 1\n"),
        ("--n-max", "1", "error: --n-max must be >= 2\n"),
        ("--t-max", "0", "error: --t-max must be >= 1\n"),
        ("--seed", "-1", "error: --seed must be >= 0\n"),
    ]:
        assert cli.main(["verify", flag, value]) == 2
        assert capsys.readouterr() == ("", message)


def test_emit_circuit_file(tmp_path, capsys):
    out = tmp_path / "circuit.qasm"
    code = cli.main(["emit", "--sigma", "0.0125", "--solution", "101", "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert text.startswith("OPENQASM 2.0;")
    assert "// solution: 101" in text
    assert text.count("ccx") == 2
    printed = capsys.readouterr().out
    assert printed.startswith("predicted_success ")
    predicted = float(printed.split()[1])
    probs = run_gate_circuit(parse_qasm(text))
    assert probs[5] == pytest.approx(predicted, abs=1e-10)


@pytest.mark.parametrize(
    "sigma, solution",
    [("0.2", "101"), ("-0.01", "101"), ("0.05", "abc"), ("0.05", "0101")],
)
def test_emit_rejects_bad_inputs(tmp_path, sigma, solution):
    code = cli.main(["emit", "--sigma", sigma, "--solution", solution, "--out", str(tmp_path / "x")])
    assert code == 2


def run_module(module, *args):
    """Run ``python -m module args`` against the qsearch package under test."""
    env = dict(os.environ)
    package_root = str(Path(qsearch.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", module, *args], env=env, capture_output=True, text=True, timeout=300
    )


@pytest.mark.parametrize("module", ["qsearch", "qsearch.cli"])
def test_python_m_runs_the_cli(tmp_path, module):
    out = tmp_path / "theta.csv"
    ok = run_module(module, "theta-table", "--out", str(out))
    assert ok.returncode == 0, ok.stderr
    assert out.read_text().startswith("sigma,theta,paper_theta,abs_diff\n")
    bad = run_module(
        module, "emit", "--sigma", "0.2", "--solution", "101", "--out", str(tmp_path / "x.qasm")
    )
    assert bad.returncode == 2
    assert bad.stderr.startswith("error: ")
    assert not (tmp_path / "x.qasm").exists()
