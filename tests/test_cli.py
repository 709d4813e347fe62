import json
import os
import subprocess
import sys

import pytest

import acgraphs
from acgraphs.cli import main
from acgraphs.errors import VerificationError


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_analyze_alt5(capsys, tmp_path):
    path = tmp_path / "alt5.json"
    code, _, _ = run_cli(
        capsys, "analyze", "--group", "alt:5", "--k", "2", "--mode", "full-ac",
        "--output", str(path),
    )
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["report"]["vertexCount"] == 3599
    assert doc["report"]["componentCount"] == 1
    assert doc["manifest"]["command"] == "analyze"
    assert doc["version"]


def test_analyze_embeds_manifest_and_defaults(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--group", "abelian:3,3", "--k", "2",
                           "--mode", "nielsen")
    assert code == 0
    doc = json.loads(out)
    assert doc["manifest"]["parameters"]["mode"] == {"kind": "nielsen"}
    assert doc["manifest"]["seed"] == 1
    sizes = sorted(c["size"] for c in doc["report"]["components"])
    assert sizes == [24, 24]


def test_analyze_distance_and_diameter(capsys):
    code, out, _ = run_cli(
        capsys, "analyze", "--group", "abelian:3,3", "--k", "2", "--mode",
        "extended-nielsen", "--diameter", "exact",
        "--distance", "(1,0);(0,1)|(0,1);(1,0)",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["diameter"][0]["value"] == 4
    assert doc["report"]["distances"][0]["value"] is not None


def test_analyze_csv_component_membership(capsys):
    code, out, _ = run_cli(
        capsys, "analyze", "--group", "abelian:3,3", "--k", "2", "--mode",
        "nielsen", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "vertexCode,vertex,component"
    assert len(lines) == 49  # header + 48 vertices


def test_walk_byte_determinism(capsys, tmp_path):
    path = tmp_path / "walk.json"
    argv = [
        "walk", "--group", "sym:8", "--normal", "derived", "--k", "2",
        "--init", "(0 1)(2 3)", "--budget", "auto", "--samples", "500",
        "--seed", "7", "--output", str(path),
    ]
    assert main(argv) == 0
    first = path.read_bytes()
    assert main(argv) == 0
    assert path.read_bytes() == first
    doc = json.loads(first)
    assert doc["report"]["resolvedBudget"] == 2 * 8 * 3
    assert doc["report"]["samples"] == 500


def test_walk_thread_count_does_not_change_report(capsys, tmp_path):
    base = ["walk", "--group", "sym:4", "--normal", "derived", "--k", "2",
            "--init", "(0 1 2)", "--budget", "30", "--samples", "5000",
            "--seed", "3"]
    p1, p2 = tmp_path / "t1.json", tmp_path / "t2.json"
    assert main(base + ["--threads", "1", "--output", str(p1)]) == 0
    assert main(base + ["--threads", "4", "--output", str(p2)]) == 0
    r1 = json.loads(p1.read_text())["report"]
    r2 = json.loads(p2.read_text())["report"]
    assert r1 == r2
    assert "mixing" in r1


def test_threads_is_a_walk_option_only(capsys):
    code, out, err = run_cli(
        capsys, "analyze", "--group", "sym:3", "--k", "2", "--threads", "2"
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


def test_walk_pra(capsys):
    code, out, _ = run_cli(
        capsys, "walk", "--group", "sym:4", "--normal", "whole", "--algorithm",
        "pra", "--k", "2", "--init", "(0 1);(0 1 2 3)", "--budget", "50",
        "--samples", "400", "--seed", "5",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["algorithm"] == "pra"


@pytest.mark.parametrize(
    "spec, init, order",
    [("sym:4", "(0 1);(0 1 2 3)", 24), ("dihedral:4", "(2 4);(1 2 3 4)", 8)],
)
def test_pra_mixing_is_measured_over_the_whole_group(capsys, spec, init, order):
    # neither group is perfect: PRA's samples leave the default --normal, [G,G]
    code, out, err = run_cli(
        capsys, "walk", "--group", spec, "--algorithm", "pra", "--init", init,
        "--samples", "200",
    )
    assert code == 0, err
    assert json.loads(out)["report"]["mixing"]["support"] == order


def test_walk_cayley(capsys):
    code, out, _ = run_cli(
        capsys, "walk", "--group", "sym:4", "--normal", "derived", "--algorithm",
        "cayley", "--k", "1", "--init", "(0 1 2)", "--budget", "40",
        "--samples", "300", "--seed", "5",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["mixing"]["samples"] == 300


@pytest.mark.parametrize(
    "options, keys",
    [
        (("--algorithm", "pra"), {"k", "stepBudget", "useCumulative"}),
        (("--algorithm", "acr", "--full-move-set"),
         {"k", "stepBudget", "useCumulative", "conjugatorSource", "fullMoveSet"}),
        (("--algorithm", "acr"), {"k", "stepBudget", "useCumulative", "conjugatorSource",
                                  "fullMoveSet", "plainMoveProbability"}),
        (("--algorithm", "cayley", "--normal", "derived", "--k", "1", "--init", "(0 1 2)"),
         {"k", "stepBudget"}),
    ],
    ids=["pra", "acr-full-move-set", "acr", "cayley"],
)
def test_walk_config_names_only_the_settings_the_walk_reads(capsys, options, keys):
    start = ("--normal", "whole", "--k", "2", "--init", "(0 1);(0 1 2 3)")
    code, out, err = run_cli(
        capsys, "walk", "--group", "sym:4", *start, "--budget", "5", "--samples", "20",
        *options,
    )
    assert code == 0, err
    doc = json.loads(out)
    assert set(doc["report"]["config"]) == keys
    assert doc["manifest"]["parameters"]["config"] == doc["report"]["config"]


def test_stats_distribution_json_and_csv(capsys):
    code, out, _ = run_cli(capsys, "stats", "--cycle-distribution", "4",
                           "--parity", "even")
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["distribution"]["support"] == [
        {"cycles": 2, "numerator": 11, "denominator": 12},
        {"cycles": 4, "numerator": 1, "denominator": 12},
    ]
    code, out, _ = run_cli(capsys, "stats", "--cycle-distribution", "4",
                           "--parity", "even", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "cycles,numerator,denominator"


def test_stats_observed_histogram(capsys, tmp_path):
    hist = tmp_path / "hist.json"
    hist.write_text(json.dumps({"2": 917, "4": 83}))
    code, out, _ = run_cli(capsys, "stats", "--observed", str(hist), "--n", "4",
                           "--parity", "even")
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["chiSquared"]["pass"] in (True, False)


def test_scan_ak_pair(capsys):
    code, out, _ = run_cli(capsys, "scan", "--group", "sl2:5", "--pair", "ak",
                           "--mode", "full-ac")
    assert code == 0
    doc = json.loads(out)
    rep = doc["report"]
    assert rep["determinant"] == 1
    assert rep["imageIsVertex"] is True
    assert rep["sameComponent"] is True
    assert rep["distance"] >= 1
    assert len(rep["geodesic"]) == rep["distance"]


def test_scan_series(capsys):
    code, out, _ = run_cli(capsys, "scan", "--series", "sl2:3,sl2:5", "--pair",
                           "ak", "--mode", "restricted-ac")
    assert code == 0
    doc = json.loads(out)
    rows = doc["report"]["series"]
    assert [r["spec"] for r in rows] == ["sl2:3", "sl2:5"]
    assert all(r["error"] is None for r in rows)


def test_walk_laws_come_from_the_target_subgroup(capsys):
    # N = V4 in sym:4: a uniform member has 2 cycles with probability 3/4
    # (the double transpositions) and 4 with 1/4 (the identity)
    code, out, err = run_cli(
        capsys, "walk", "--group", "sym:4", "--normal", "ncl:(0 1)(2 3)", "--k", "2",
        "--init", "(0 1)(2 3);(0 2)(1 3)", "--samples", "20000", "--seed", "5",
    )
    assert code == 0, err
    report = json.loads(out)["report"]
    hist = report["cycleHistogram"]
    assert set(hist) == {"2", "4"} and sum(hist.values()) == 20_000
    expected = {"4": 20_000 / 4, "2": 20_000 * 3 / 4}  # ascending, as the test pools
    pearson = sum((hist[c] - e) ** 2 / e for c, e in expected.items())
    assert report["cycleChiSquared"]["statistic"] == pytest.approx(pearson, rel=1e-12)
    assert report["cycleChiSquared"]["dof"] == 1 and report["cycleChiSquared"]["pass"]
    # V4 acts regularly on the 4 points: the image of point 0 names the
    # member, so the point test and the mixing test see the same counts
    point = report["pointActionChiSquared"]
    assert point["dof"] == 3
    assert point["statistic"] == pytest.approx(report["mixing"]["chiSquared"]["statistic"])


def test_walker_steps_are_capped(capsys, monkeypatch):
    import acgraphs.cli as cli_mod

    monkeypatch.setattr(cli_mod, "MAX_WALKER_STEPS", 200)
    walk = ("walk", "--group", "alt:5", "--init", "(0 1 2)", "--samples")
    assert run_cli(capsys, *walk, "10", "--budget", "20")[0] == 0
    for samples, budget, need in (("10", "21", 210), ("201", "0", 201)):
        assert run_cli(capsys, *walk, samples, "--budget", budget) == (
            3, "", f"resource cap: resource cap 'walker_steps' exceeded: need {need}, "
                   "cap is 200\n")
    # an ACR step counts its conjugator-word letters too: 10 x 5 x (1 + 3)
    words = ("walk", "--group", "alt:5", "--normal", "whole", "--init", "(0 1 2);(0 1 2 3 4)",
             "--samples", "10", "--budget", "5", "--conjugator-words")
    assert run_cli(capsys, *words, "3")[0] == 0
    assert run_cli(capsys, *words, "4") == (
        3, "", "resource cap: resource cap 'walker_steps' exceeded: need 250, "
               "cap is 200\n")
    # PRA and Cayley walks draw no conjugator words, so they refuse the option
    for algorithm in ("pra", "cayley"):
        assert run_cli(capsys, *words, "4", "--algorithm", algorithm) == (
            1, "", f"error: --conjugator-words does not apply to walk --algorithm {algorithm}\n")


def test_oversized_walk_is_refused_at_once():
    # 10 walkers of 10^9 steps each would run for hours, and so would one
    # walker of 1,024 steps whose conjugators are words of 2^20 letters
    src = os.path.dirname(os.path.dirname(acgraphs.__file__))
    walk = (sys.executable, "-m", "acgraphs.cli", "walk", "--group", "alt:5")
    for argv in (("--k", "3", "--init", "(0 1 2);(2 3 4)", "--samples", "10",
                  "--budget", "1000000000"),
                 ("--normal", "whole", "--init", "(0 1 2);(2 3 4)", "--samples", "1",
                  "--budget", "1024", "--conjugator-words", str(2**20))):
        proc = subprocess.run(
            [*walk, *argv], capture_output=True, text=True, timeout=20,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 3, (argv, proc.stderr)
        assert "'walker_steps'" in proc.stderr


def test_exit_codes(capsys):
    code, _, err = run_cli(capsys, "analyze", "--group", "nope:1", "--k", "2")
    assert code == 1
    code, _, err = run_cli(capsys, "analyze", "--group", "sym:8", "--k", "3")
    assert code == 3
    for flag in ("--stirling", "--cycle-distribution"):
        code, _, err = run_cli(capsys, "stats", flag, "1001")
        assert (code, err) == (3, "resource cap: resource cap 'stirling_row' exceeded: "
                                  "need 1001, cap is 1000\n")
    # a word literal's letters are counted before any is built
    assert run_cli(capsys, "scan", "--group", "sl2:5", "--pair", "x^99999999999;y") == (
        3, "", "resource cap: resource cap 'word_letters' exceeded: need 99999999999, "
               "cap is 1048576\n")
    code, _, err = run_cli(capsys, "frobnicate")
    assert code == 1
    code, _, err = run_cli(capsys, "scan")
    assert code == 1


def test_oversized_tuple_counts_are_resource_caps(capsys, monkeypatch):
    # the count of --k tuples is taken in Python ints and stops once it
    # passes the cap, so the message never prints a 4,300-digit number
    monkeypatch.delenv("ACGRAPHS_MAX_TUPLES", raising=False)
    for k, need in (("4", "207360000"), ("1000000", "120^1000000")):
        assert run_cli(capsys, "analyze", "--group", "sym:5", "--k", k) == (
            3, "", f"resource cap: resource cap 'graph_tuples' exceeded: need {need}, "
                   "cap is 4000000\n")


def test_k_past_numpy_axis_limit_is_a_resource_cap(capsys):
    # one code per graph, but numpy arrays have at most 64 axes
    for argv in (("--group", "cyclic:1", "--k", "64"), ("--group", "cyclic:1", "--k", "100"),
                 ("--group", "sym:3", "--normal", "ncl:", "--k", "70")):
        code, _, err = run_cli(capsys, "analyze", *argv)
        assert code == 3 and "numpy's axis limit" in err, (argv, err)
    assert run_cli(capsys, "analyze", "--group", "cyclic:1", "--k", "63")[0] == 0


def test_huge_k_is_refused_at_once():
    # 120^(10^8) has 208 million digits: the cap check must not compute it
    src = os.path.dirname(os.path.dirname(acgraphs.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "acgraphs.cli", "analyze", "--group", "sym:5",
         "--k", "100000000"],
        capture_output=True, text=True, timeout=20, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 3, proc.stderr


@pytest.mark.parametrize(
    "raised, code, message",
    [
        (AssertionError("abelian basis is not independent"), 4,
         "internal error: AssertionError: abelian basis is not independent\n"),
        (KeyError(7), 4, "internal error: KeyError: 7\n"),
        # a failed invariant on concrete data keeps its own code
        (VerificationError("component split"), 2,
         "verification failure: component split\n"),
        # a bare ValueError is a bug too: usage errors have their own types
        (ValueError("generators span 2 of 6"), 4,
         "internal error: ValueError: generators span 2 of 6\n"),
    ],
)
def test_internal_errors_have_their_own_exit_code(capsys, monkeypatch, raised, code,
                                                  message):
    def layer(*args, **kwargs):
        raise raised

    monkeypatch.setattr("acgraphs.cli.components", layer)
    assert run_cli(capsys, "analyze", "--group", "sym:3", "--k", "2") == (code, "", message)


def _fresh_python(script: str, *args: str) -> subprocess.CompletedProcess:
    src = os.path.dirname(os.path.dirname(acgraphs.__file__))
    return subprocess.run(
        [sys.executable, "-c", script, *args], capture_output=True, text=True,
        timeout=120, env={**os.environ, "PYTHONPATH": src},
    )


def test_analyze_and_scan_do_not_import_numpy_ma():
    # a CLI child compiles every module it imports, so analyze and scan load
    # none of the check catalog, the thread pool and csv; numpy's flagless
    # 1-D unique would import numpy.ma (14 ms, 1.3 MB) on first use
    script = (
        "import contextlib, io, sys\n"
        "from acgraphs.cli import main\n"
        "def run(argv):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv.split()) == 0, argv\n"
        "for argv in sys.argv[1:]:\n"
        "    run(argv)\n"
        "unused = ('acgraphs.verify', 'concurrent.futures', 'csv', 'numpy.ma')\n"
        "print([name for name in unused if name in sys.modules])\n"
        "run('verify --corpus small')\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    jobs = [f"analyze --group sl2:5 --k 2 --mode {mode}" for mode in ("full-ac", "nielsen")]
    jobs += ["analyze --group sl2:5 --k 2 --mode restricted-ac --diameter estimate",
             "scan --group sl2:5 --pair ak --mode full-ac"]
    proc = _fresh_python(script, *jobs)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\nFalse\n"


def test_verify_loads_on_first_access():
    script = (
        "import sys\n"
        "import acgraphs\n"
        "assert 'acgraphs.verify' not in sys.modules\n"
        "assert all(callable(check) for check in acgraphs.verify.CHECKS)\n"
        "assert acgraphs.verify is sys.modules['acgraphs.verify']\n"
        "try:\n"
        "    acgraphs.no_such_layer\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
    )
    proc = _fresh_python(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "module 'acgraphs' has no attribute 'no_such_layer'\n"


def test_bad_input_is_a_usage_error_without_traceback(tmp_path):
    missing = tmp_path / "missing"
    # (environment overrides, argv)
    cases = [({}, argv) for argv in (
        ("analyze", "--group", "alt:5", "--k", "2", "--distance", "(0 1)|(0 1 2)"),
        ("analyze", "--group", "sym:4", "--k", "2", "--mode", "nielsen",
         "--normal", "derived"),
        ("analyze", "--group", "sym:3", "--k", "2", "--mode", "bogus"),
        ("analyze", "--group", "sym:3", "--k", "2", "--mode", "full-ac",
         "--directed-conjugators"),
        # csv carries no diameter or distance; refused before sym:8 hits its cap
        *(("analyze", "--group", "sym:8", "--k", "2", "--format", "csv", *extra)
          for extra in (("--diameter", "exact"), ("--distance", "(0 1 2)|(0 1 3)"))),
        ("scan", "--group", "sl2:3", "--mode", "nielsen", "--directed-conjugators"),
        ("walk", "--group", "alt:5", "--normal", "whole", "--init", "(0 1)"),
        ("walk", "--group", "alt:5", "--normal", "ncl:(0 1)", "--init", "(0 1 2)"),
        ("walk", "--group", "alt:5", "--init", "(0 1 2)", "--samples", "0"),
        ("walk", "--group", "alt:5", "--init", "(0 1 2)", "--threads", "0"),
        ("walk", "--group", "sym:9", "--algorithm", "pra", "--init", "(0 1 2)"),
        ("walk", "--group", "alt:5", "--init", "(0 1 2)", "--budget", "x"),
        *(("walk", "--group", "alt:5", "--algorithm", algorithm, "--normal", "whole",
           "--init", "(0 1 2);(2 3 4)", "--budget", "-3")
          for algorithm in ("acr", "pra", "cayley")),
        ("walk", "--group", "sl2:5", "--normal", "whole", "--init", "[[1,1],[1,1]]"),
        ("scan", "--group", "sl2:5", "--pair", "x;z"),
        ("stats", "--observed", str(tmp_path / "bad.json"), "--n", "4"),
        ("stats", "--observed", str(missing / "hist.json"), "--n", "4"),
        ("stats", "--observed", str(tmp_path / "hist.json")),
        ("stats", "--observed", str(tmp_path / "fractional.json"), "--n", "3"),
        ("stats", "--observed", str(tmp_path / "negative.json"), "--n", "4"),
        ("stats", "--observed", str(tmp_path / "hist.json"), "--n", "3", "--format", "csv"),
        # options the chosen form does not read, and forms that exclude each other
        *(("walk", "--group", "alt:5", "--algorithm", "cayley", "--normal", "whole", "--k", "1",
           "--init", "(0 1 2)", "--samples", "50", "--budget", "5", *extra)
          for extra in (("--conjugator-words", "7"), ("--full-move-set",),
                        ("--plain-prob", "0.1"), ("--no-cumulative",), ("--threads", "2"))),
        *(("walk", "--group", "sl2:5", "--algorithm", "pra", "--normal", "whole", "--k", "2",
           "--init", "[[1,2],[0,1]];[[1,0],[2,1]]", "--samples", "50", *extra)
          for extra in (("--conjugator-words", "2"), ("--full-move-set",),
                        ("--plain-prob", "0.1"))),
        ("walk", "--group", "alt:5", "--normal", "whole", "--init", "(0 1 2)", "--samples", "50",
         "--full-move-set", "--plain-prob", "0.1"),
        ("stats", "--stirling", "3", "--cycle-distribution", "4"),
        ("stats", "--stirling", "3", "--parity", "even"),
        ("stats", "--stirling", "3", "--n", "3"),
        ("stats", "--cycle-distribution", "4", "--n", "3"),
        ("scan", "--group", "sl2:5", "--series", "sl2:3"),
        ("scan", "--series", "sl2:3", "--base", "[[1,2],[0,1]];[[1,0],[2,1]]"),
        ("scan", "--series", "sl2:3", "--no-geodesic"),
        ("stats", "--stirling", "-1"),
        # numpy seeds only non-negative integers; every form records its seed
        *((*argv, "--seed", "-1") for argv in (
            ("analyze", "--group", "sym:3", "--k", "2"),
            ("walk", "--group", "sym:4", "--init", "(0 1 2)", "--samples", "20"),
            ("stats", "--stirling", "3"),
            ("scan", "--group", "sl2:3"),
            ("verify",),
        )),
        ("stats", "--stirling", "4", "--output", str(missing / "out.json")),
        ("stats", "--stirling", "4", "--format", "csv",
         "--output", str(missing / "out.csv")),
    )] + [
        ({"ACGRAPHS_MAX_TUPLES": "lots"}, ("analyze", "--group", "sym:3", "--k", "2")),
        ({"ACGRAPHS_MAX_ELEMENTS": "lots"}, ("analyze", "--group", "sym:3", "--k", "2")),
    ]
    (tmp_path / "hist.json").write_text('{"1": 3, "2": 5}')
    (tmp_path / "bad.json").write_text('{"1": 3, "2": ')
    (tmp_path / "fractional.json").write_text('{"1": 20.7, "2": 30, "3": 10.9}')
    (tmp_path / "negative.json").write_text('{"1": -50, "2": 30, "3": 60, "4": 20}')
    src = os.path.dirname(os.path.dirname(acgraphs.__file__))
    for overrides, argv in cases:
        proc = subprocess.run(
            [sys.executable, "-m", "acgraphs.cli", *argv],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src, **overrides},
        )
        assert proc.returncode == 1, argv
        assert proc.stderr.startswith("error: "), (argv, proc.stderr)
        assert "Traceback" not in proc.stderr, argv
        assert all(name in proc.stderr for name in overrides), proc.stderr


# -- the option contract: each form reads every option it accepts ----------------

SL2_GENS = "[[1,1],[0,1]];[[1,0],[1,1]]"  # generates SL2(p) for every p
# the value of each option in a rerun, per subcommand; None marks a flag
RERUN_VALUES = {
    "analyze": {"--group": "alt:4", "--k": "3", "--mode": "nielsen", "--normal": "derived",
                "--directed-conjugators": None, "--diameter": "exact",
                "--distance": "(0 1);(0 1 2)|(0 1 2);(0 1)", "--format": "csv"},
    "walk": {"--group": "sym:5", "--normal": "whole", "--algorithm": "cayley", "--k": "3",
             "--init": "(0 1 2);(1 2 3)", "--budget": "9", "--samples": "41",
             "--no-cumulative": None, "--plain-prob": "0.1", "--conjugator-words": "2",
             "--full-move-set": None, "--threads": "2"},
    "stats": {"--stirling": "4", "--cycle-distribution": "5", "--observed": "hist2.json",
              "--parity": "even", "--n": "5", "--format": "csv"},
    "scan": {"--group": "sl2:5", "--series": "sl2:3,sl2:5", "--pair": "x;y",
             "--mode": "nielsen", "--base": "[[1,2],[0,1]];[[1,0],[1,1]]",
             "--no-geodesic": None, "--directed-conjugators": None},
    "verify": {"--corpus": "full"},
}
WALK_ACR = ("walk", "--group", "sym:4", "--normal", "derived", "--k", "2", "--init", "(0 1 2)",
            "--budget", "8", "--samples", "40")
WALK_PRA = ("walk", "--group", "sl2:3", "--algorithm", "pra", "--normal", "whole",
            "--init", SL2_GENS, "--budget", "8", "--samples", "40")
WALK_CAYLEY = ("walk", "--group", "sym:4", "--algorithm", "cayley", "--normal", "derived",
               "--k", "2", "--init", "(0 1 2)", "--budget", "8", "--samples", "40")
ANALYZE = ("analyze", "--group", "sym:3", "--k", "2", "--mode", "restricted-ac")
# the walkers need the init tuple to normally generate N, so it fixes N
# and another --normal is a precondition error
FIXED_N = {"--normal": "error: initial tuple does not normally generate N\n"}
# read, but invisible in these outputs: repeating a conjugation move undoes
# it in a finite group, so directed conjugators keep the components, and
# the distances scanned here stay the same too
SAME_OUTPUT = "exit 0 with the same output"
SAME = {"--directed-conjugators": SAME_OUTPUT}


def _refusals(form: str, *options: str) -> dict[str, str]:
    return {o: f"error: {o} does not apply to {form}\n" for o in options}


def _conflicts(form: str, *options: str) -> dict[str, str]:
    return {o: f"error: argument {o}: not allowed with argument {form}\n" for o in options}


# form -> (base argv, rerun values it overrides, the stderr of each rerun
# that exits 1, or SAME_OUTPUT); every other rerun exits 0 with another report
FORMS = {
    "analyze json": (ANALYZE, {}, {}),
    "analyze csv": ((*ANALYZE, "--format", "csv"), {"--format": "json"},
                    {**SAME, **_refusals("analyze --format csv", "--diameter", "--distance")}),
    "walk acr": (WALK_ACR, {}, FIXED_N),
    "walk acr full-move-set": ((*WALK_ACR, "--full-move-set"), {},
                               {**FIXED_N, "--full-move-set": SAME_OUTPUT,
                                **_refusals("walk --full-move-set", "--plain-prob"),
                                "--algorithm": "error: --full-move-set does not apply to "
                                               "walk --algorithm cayley\n"}),
    # PRA samples the whole group: a proper normal subgroup, the centre of
    # sl2:3, is refused
    "walk pra": (WALK_PRA, {"--group": "sl2:5", "--algorithm": "acr",
                            "--init": "[[1,2],[0,1]];[[1,0],[1,1]]",
                            "--normal": "ncl:[[2,0],[0,2]]"},
                 {"--normal": "error: --normal ncl:[[2,0],[0,2]] is not the whole group, "
                              "which walk --algorithm pra samples\n",
                  **_refusals("walk --algorithm pra", "--conjugator-words", "--plain-prob",
                              "--full-move-set")}),
    "walk cayley": (WALK_CAYLEY, {"--algorithm": "acr"},
                    {"--normal": "error: seeds do not normally generate N\n",
                     **_refusals("walk --algorithm cayley", "--no-cumulative", "--plain-prob",
                                 "--conjugator-words", "--full-move-set", "--threads")}),
    "stats stirling": (("stats", "--stirling", "3"), {},
                       {**_conflicts("--stirling", "--cycle-distribution", "--observed"),
                        **_refusals("stats --stirling", "--parity", "--n")}),
    "stats cycle-distribution": (
        ("stats", "--cycle-distribution", "4"), {},
        {**_conflicts("--cycle-distribution", "--stirling", "--observed"),
         **_refusals("stats --cycle-distribution", "--n")}),
    "stats observed": (("stats", "--observed", "hist.json", "--n", "4"), {},
                       {**_conflicts("--observed", "--stirling", "--cycle-distribution"),
                        **_refusals("stats --observed", "--format")}),
    "scan group": (("scan", "--group", "sl2:3", "--mode", "restricted-ac"), {},
                   _conflicts("--group", "--series")),
    "scan series": (("scan", "--series", "sl2:3", "--mode", "restricted-ac"), {},
                    {**SAME, **_conflicts("--series", "--group"),
                     **_refusals("scan --series", "--base", "--no-geodesic")}),
    "verify": (("verify",), {}, {}),
}
# not rerun: every form records --seed and --output in its manifest, the
# seed whether or not the form draws random numbers; ACR and PRA reports
# do not depend on --threads by design (see
# test_walk_thread_count_does_not_change_report)
EXEMPT = {"--seed", "--output"}
EXEMPT_IN = {"walk acr": {"--threads"}, "walk acr full-move-set": {"--threads"},
             "walk pra": {"--threads"}}


@pytest.mark.parametrize("form", sorted(FORMS))
def test_every_accepted_option_is_read(capsys, tmp_path, monkeypatch, form):
    import acgraphs.verify as verify_mod
    from acgraphs.cli import build_parser

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(verify_mod, "CHECKS", (verify_mod.check_stirling_sums,))
    (tmp_path / "hist.json").write_text('{"2": 900, "4": 100}')
    (tmp_path / "hist2.json").write_text('{"2": 800, "4": 200}')
    base, overrides, outcomes = FORMS[form]

    def payload(argv):
        """A run's exit code, then its report (or CSV text), or its stderr."""
        code, out, err = run_cli(capsys, *argv)
        if code:
            return code, err
        try:
            return code, json.loads(out)["report"]
        except json.JSONDecodeError:
            return code, out

    code, first = payload(base)
    assert code == 0, first
    commands = next(a for a in build_parser()._actions if a.dest == "command")
    options = {a.option_strings[0] for a in commands.choices[base[0]]._actions
               if a.dest != "help"}
    values = {**RERUN_VALUES[base[0]], **overrides}
    assert options - EXEMPT == values.keys()
    for option in sorted(values.keys() - EXEMPT_IN.get(form, set())):
        value = values[option]
        code, got = payload([*base, option] + ([] if value is None else [value]))
        outcome = outcomes.get(option)
        if outcome is SAME_OUTPUT:
            assert (code, got) == (0, first), option
        elif outcome:
            assert (code, got) == (1, outcome), option
        else:
            assert code == 0, (option, got)
            assert got != first, option


def test_walk_with_too_few_samples_reports_insufficient_samples():
    src = os.path.dirname(os.path.dirname(acgraphs.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-m", "acgraphs.cli", "walk", "--group", "alt:5",
         "--init", "(0 1 2);(0 1 2 3 4)", "--samples", "10"],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)["report"]
    assert report["samples"] == 10
    assert sum(report["cycleHistogram"].values()) == 10
    assert report["cycleChiSquared"] == "insufficient samples"
    assert report["pointActionChiSquared"] == "insufficient samples"
    assert report["mixing"]["chiSquared"] == "insufficient samples"
    assert report["mixing"]["samples"] == 10
    assert report["mixing"]["tvDistance"]["denominator"] > 0


def test_verify_smoke_subset(capsys, tmp_path, monkeypatch):
    # run the real command against a reduced catalog to keep this fast
    import acgraphs.verify as verify_mod

    fast = tuple(
        c
        for c in verify_mod.CHECKS
        if c.__name__
        in (
            "check_parse_orders",
            "check_stirling_sums",
            "check_tv_bounds",
            "check_ak_exponent_matrix",
        )
    )
    monkeypatch.setattr(verify_mod, "CHECKS", fast)
    path = tmp_path / "verify.json"
    code = main(["verify", "--corpus", "small", "--output", str(path)])
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["report"]["failed"] == 0
    assert {c["status"] for c in doc["report"]["checks"]} == {"PASS"}
