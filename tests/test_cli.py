"""Command-line surface: subcommands, exit codes, report files, manifests."""

import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

import chaoslab
from chaoslab import (
    CertificateReport,
    IndexSet,
    RunManifest,
    dump_index_set,
    gen_sum_set,
    gen_triangle,
    kernel,
    load_index_set,
    write_report,
)
from chaoslab.cli import parse_space, run
from chaoslab.errors import InvalidArgumentError


@pytest.fixture
def sum_file(tmp_path):
    path = tmp_path / "a.idx"
    assert run(["gen-set", "--kind", "sum", "--max", "6", "--out", str(path)]) == 0
    return path


class TestGenSet:
    def test_file_contents(self, sum_file):
        lines = [l for l in sum_file.read_text().splitlines() if l.strip()]
        assert len(lines) == 6

    def test_round_trip(self, sum_file):
        assert load_index_set(sum_file) == gen_sum_set(6)

    def test_triangle(self, tmp_path):
        path = tmp_path / "t.idx"
        assert run(["gen-set", "--kind", "triangle", "--order", "2", "--max", "4",
                    "--out", str(path)]) == 0
        assert len(load_index_set(path)) == 6

    def test_missing_out(self):
        assert run(["gen-set", "--kind", "sum", "--max", "6"]) == 2


class TestKhintchine:
    def test_output_and_exit(self, capsys):
        assert run(["khintchine", "--coeffs", "1,1", "--p", "4"]) == 0
        out = capsys.readouterr().out
        assert "1.681793" in out
        assert "pass" in out

    def test_report_csv(self, tmp_path):
        out = tmp_path / "k.csv"
        assert run(["khintchine", "--coeffs", "1,2", "--p", "2", "--out", str(out)]) == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "quantity,value,bound,comparison,verdict"
        assert any("moment" in r for r in rows[1:])

    def test_usage_error(self):
        assert run(["khintchine", "--p", "4"]) == 2

    def test_resource_exit(self):
        coeffs = ",".join(["1"] * 25)
        assert run(["khintchine", "--coeffs", coeffs, "--p", "2"]) == 3

    def test_io_failure_exit(self, tmp_path):
        missing_dir = tmp_path / "no" / "such" / "dir" / "r.csv"
        assert run(["khintchine", "--coeffs", "1,1", "--p", "2",
                    "--out", str(missing_dir)]) == 3


class TestClt:
    def test_sum_set_csv(self, sum_file, tmp_path):
        path = tmp_path / "s.idx"
        run(["gen-set", "--kind", "sum", "--max", "40", "--out", str(path)])
        out = tmp_path / "clt.csv"
        code = run(["clt", "--set", str(path), "--n-list", "10,20,40", "--out", str(out)])
        assert code == 0
        rows = [r.split(",") for r in out.read_text().splitlines()]
        assert rows[0] == ["N", "cardinality", "star_ratio", "sharp_ratio"]
        sharp_col = [r[3] for r in rows[1:]]
        assert all(float(v) == 0.0 for v in sharp_col)
        star_col = [float(r[2]) for r in rows[1:]]
        assert star_col == sorted(star_col, reverse=True)

    def test_triangle_fails(self, tmp_path):
        path = tmp_path / "t.idx"
        run(["gen-set", "--kind", "triangle", "--order", "3", "--max", "8", "--out", str(path)])
        assert run(["clt", "--set", str(path), "--n-list", "6,8"]) == 1


class TestOtherCommands:
    def test_norm(self, sum_file, capsys):
        assert run(["norm", "--set", str(sum_file), "--space", "lp:2"]) == 0
        assert "2.449490" in capsys.readouterr().out

    def test_moments(self, sum_file, capsys):
        assert run(["moments", "--set", str(sum_file), "--p-list", "1,2,4"]) == 0
        assert "theta" in capsys.readouterr().out

    def test_rud_seeded_reproducible(self, sum_file, capsys):
        argv = ["rud", "--set", str(sum_file), "--space", "linf",
                "--mc-samples", "64", "--seed", "3"]
        assert run(argv) == 0
        first = capsys.readouterr().out
        assert run(argv) == 0
        assert capsys.readouterr().out == first

    def test_rud_exact_l2_ratio_is_one(self, tmp_path, capsys):
        # unit coefficients on 18 edges: every pattern has L2 norm sqrt(18)
        path = tmp_path / "t18.idx"
        dump_index_set(IndexSet.from_tuples(list(gen_triangle(2, 7).tuples())[:18]), path)
        assert run(["rud", "--set", str(path), "--space", "lp:2"]) == 0
        assert "ratio              = 1\n" in capsys.readouterr().out

    @pytest.mark.parametrize("seed", ["-1", str(2**128)])
    def test_rud_seed_out_of_range(self, sum_file, capsys, seed):
        argv = ["rud", "--set", str(sum_file), "--space", "lp:4",
                "--mc-samples", "10", "--seed", seed]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert f"seed {seed} must be an integer in [0, 2**128)" in err

    def test_dimension(self, tmp_path, capsys):
        path = tmp_path / "s.idx"
        run(["gen-set", "--kind", "sum", "--max", "60", "--out", str(path)])
        assert run(["dimension", "--set", str(path), "--n-list", "8,16,32",
                    "--strategy", "identity-blocks"]) == 0
        assert "alpha_hat" in capsys.readouterr().out

    @pytest.mark.parametrize("n_list", ["4,4,4", "4,4,8"])
    def test_dimension_needs_three_distinct_sizes(self, n_list, tmp_path, capsys):
        path = tmp_path / "s.idx"
        run(["gen-set", "--kind", "sum", "--max", "60", "--out", str(path)])
        capsys.readouterr()
        assert run(["dimension", "--set", str(path), "--n-list", n_list]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "3 distinct block sizes" in captured.err
        assert f"[{n_list.replace(',', ', ')}]" in captured.err

    def test_density(self, tmp_path, capsys):
        path = tmp_path / "t.idx"
        run(["gen-set", "--kind", "triangle", "--order", "2", "--max", "4", "--out", str(path)])
        assert run(["density", "--set", str(path), "--n", "2", "--universe", "4"]) == 0
        out = capsys.readouterr().out
        assert "best count: 4" in out

    def test_density_certificate_mode(self, tmp_path, capsys):
        path = tmp_path / "s.idx"
        run(["gen-set", "--kind", "sum", "--max", "30", "--out", str(path)])
        code = run(["density", "--set", str(path), "--universe", "30",
                    "--strategy", "identity-blocks",
                    "--alpha", "2", "--beta", "2", "--n-list", "5,8,12"])
        assert code == 0
        assert "super_alpha_constant" in capsys.readouterr().out

    def test_density_needs_mode(self, tmp_path):
        path = tmp_path / "s.idx"
        run(["gen-set", "--kind", "sum", "--max", "10", "--out", str(path)])
        assert run(["density", "--set", str(path), "--universe", "10"]) == 2

    def test_moments_blei_mode(self, tmp_path, capsys):
        path = tmp_path / "s.idx"
        run(["gen-set", "--kind", "sum", "--max", "12", "--out", str(path)])
        code = run(["moments", "--set", str(path), "--p-list", "2,4,8", "--beta", "2"])
        assert code == 0
        assert "max_ratio" in capsys.readouterr().out

    def test_moments_blei_mode_takes_one_law(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "s.idx"
        run(["gen-set", "--kind", "sum", "--max", "20", "--out", str(path)])
        calls = []
        law = kernel.law

        def counting_law(*args):
            calls.append(args)
            return law(*args)

        monkeypatch.setattr(kernel, "law", counting_law)
        assert run(["moments", "--set", str(path), "--beta", "3"]) == 0
        assert len(calls) == 1  # the table and the Blei ratios read one law
        assert "max_ratio" in capsys.readouterr().out

    def test_dimension_csv(self, tmp_path):
        src = tmp_path / "s.idx"
        run(["gen-set", "--kind", "sum", "--max", "60", "--out", str(src)])
        out = tmp_path / "dim.csv"
        assert run(["dimension", "--set", str(src), "--n-list", "8,16,32",
                    "--out", str(out)]) == 0
        assert out.read_text().startswith("n,best_count")

    def test_enumeration_hard_cap_exit(self, tmp_path):
        path = tmp_path / "s40.idx"
        assert run(["gen-set", "--kind", "sum", "--max", "40", "--out", str(path)]) == 0
        assert run(["moments", "--set", str(path), "--max-enum-bits", "40"]) == 3

    def test_norm_coefficient_mismatch(self, sum_file):
        assert run(["norm", "--set", str(sum_file), "--coeffs", "1,2",
                    "--space", "lp:2"]) == 2

    @pytest.mark.parametrize("argv", [["rud", "--space", "lp:2"], ["moments"],
                                      ["moments", "--beta", "2"]])
    def test_coefficient_mismatch_one_check(self, sum_file, capsys, argv):
        run(["norm", "--set", str(sum_file), "--coeffs", "1,2", "--space", "lp:2"])
        message = capsys.readouterr().err
        assert message == "error: 2 coefficients for 6 elements\n"
        assert run([*argv, "--set", str(sum_file), "--coeffs", "1,2"]) == 2
        assert capsys.readouterr().err == message

    def test_concentration(self):
        assert run(["concentration", "--order", "2", "--n", "4"]) == 0
        # triangle(3, 7) has m = 35 pattern bits, over the sweep cap
        assert run(["concentration", "--order", "3", "--n", "7"]) == 3

    def test_concentration_from_set_file(self, tmp_path, capsys):
        path = tmp_path / "t.idx"
        assert run(["gen-set", "--kind", "triangle", "--order", "2", "--max", "6",
                    "--out", str(path)]) == 0
        capsys.readouterr()
        assert run(["concentration", "--set", str(path), "--n", "6"]) == 0
        from_file = capsys.readouterr().out
        assert run(["concentration", "--order", "2", "--n", "6"]) == 0
        assert capsys.readouterr().out == from_file

    def test_coincidence(self):
        assert run(["coincidence", "--orlicz", "exp:2:0", "--weight", "log:0.5",
                    "--eps", "0.5"]) == 0
        # exp(u^2) against a log^{-1} weight diverges: a failed certificate
        assert run(["coincidence", "--orlicz", "exp:2:0", "--weight", "log:1",
                    "--eps", "1.0"]) == 1

    @pytest.mark.parametrize("orlicz, weight, eps", [("power:4", "log:1", "1"),
                                                     ("power:8", "log:1", "1"),
                                                     ("power:3", "log:2", "0.5")])
    def test_coincidence_power_log_is_finite(self, orlicz, weight, eps):
        # eps^p e Gamma(gamma p + 1, 1) is finite, although the slabs grow at first
        assert run(["coincidence", "--orlicz", orlicz, "--weight", weight, "--eps", eps]) == 0

    @pytest.mark.parametrize("eps", [0.99, 0.999])
    def test_coincidence_boundary_case_is_finite(self, eps, capsys):
        # gamma r = 1 with eps < 1: the integral of (e/t)^a - 1, a = eps^2, is
        # e^a / (1 - a) - 1, and its slabs shrink by only 2^(a - 1) each
        assert run(["coincidence", "--orlicz", "exp:2", "--weight", "log:0.5",
                    "--eps", str(eps)]) == 0
        line = next(x for x in capsys.readouterr().out.splitlines() if "integral_estimate" in x)
        a = eps * eps
        assert float(line.split("=")[1]) == pytest.approx(math.exp(a) / (1 - a) - 1, rel=1e-9)

    @pytest.mark.parametrize("weight", ["log:1", "log:2"])
    def test_coincidence_overflow_is_divergence(self, weight):
        # gamma r > 1, and M(eps / phi(t)) overflows in the first slab
        assert run(["coincidence", "--orlicz", "exp:2", "--weight", weight,
                    "--eps", "20"]) == 1

    def test_unknown_command(self):
        assert run(["frobnicate"]) == 2

    @pytest.mark.parametrize(
        "flag,text",
        [
            ("--orlicz", "power"),
            ("--orlicz", "exp:abc"),
            ("--orlicz", "cubic:2"),
            ("--weight", "log"),
            ("--weight", "log:x"),
            ("--weight", "log:1:5"),
            ("--orlicz", "power:3:1"),
            ("--orlicz", "exp:2:1:3"),
        ],
    )
    def test_coincidence_malformed_descriptor(self, flag, text, capsys):
        given = {"--orlicz": "exp:2", "--weight": "log:0.5", flag: text}
        code = run(["coincidence", "--orlicz", given["--orlicz"],
                    "--weight", given["--weight"], "--eps", "0.5"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")


# one invocation per subcommand and mode; "SET" stands for a sum-set file
OUT_CASES = {
    "gen-set": ["gen-set", "--kind", "sum", "--max", "6"],
    "density --n": ["density", "--set", "SET", "--n", "2", "--universe", "6"],
    "density certificates": ["density", "--set", "SET", "--universe", "6", "--alpha", "1",
                             "--beta", "2", "--n-list", "2,3"],
    "dimension": ["dimension", "--set", "SET", "--n-list", "4,5,6"],
    "norm": ["norm", "--set", "SET", "--space", "lp:2"],
    "khintchine": ["khintchine", "--coeffs", "1,2", "--p", "3"],
    "moments": ["moments", "--set", "SET"],
    "moments --beta": ["moments", "--set", "SET", "--beta", "2"],
    "rud": ["rud", "--set", "SET", "--space", "lp:2"],
    "concentration": ["concentration", "--order", "2", "--n", "4"],
    "clt": ["clt", "--set", "SET", "--n-list", "3,6"],
    "coincidence": ["coincidence", "--orlicz", "exp:2", "--weight", "log:0.5", "--eps", "0.5"],
}
WRITES_NO_FILE = {"density --n", "norm", "rud"}


def test_out_cases_cover_every_subcommand():
    from chaoslab.cli import _build_parser

    sub = next(a for a in _build_parser()._actions if a.dest == "command")
    assert {argv[0] for argv in OUT_CASES.values()} == set(sub.choices)


@pytest.mark.parametrize("case", sorted(OUT_CASES))
def test_out_is_written_or_refused(case, sum_file, tmp_path, capsys):
    out = tmp_path / "out.txt"
    argv = [str(sum_file) if a == "SET" else a for a in OUT_CASES[case]]
    code = run([*argv, "--out", str(out)])
    err = capsys.readouterr().err
    if case in WRITES_NO_FILE:
        assert code == 2 and not out.exists()
        assert "--out" in err
    else:
        assert code in (0, 1), err
        assert out.stat().st_size > 0


@pytest.mark.parametrize("argv", [
    ["norm", "--set", "SET", "--space", "orlicz-exp:0.5:0.01"],
    ["coincidence", "--orlicz", "exp:0.5:1", "--weight", "log:0.5", "--eps", "0.5"],
])
def test_nonconvex_orlicz_splice_is_a_usage_error(argv, sum_file, capsys):
    argv = [str(sum_file) if a == "SET" else a for a in argv]
    assert run(argv) == 2
    assert "convex" in capsys.readouterr().err


class TestOutputBytes:
    """Exact bytes of the tables the CLI writes, on small fixed inputs."""

    @pytest.fixture
    def set_file(self, tmp_path):
        def make(top):
            path = tmp_path / f"s{top}.idx"
            assert run(["gen-set", "--kind", "sum", "--max", str(top), "--out", str(path)]) == 0
            return str(path)

        return make

    def test_dimension_csv(self, set_file, tmp_path):
        out = tmp_path / "dim.csv"
        assert run(["dimension", "--set", set_file(60), "--n-list", "8,16,32",
                    "--out", str(out)]) == 0
        assert out.read_text() == (
            "n,best_count\n8,12\n16,56\n32,240\n# alpha_hat,2.16096404744\n"
        )

    def test_moments_csv(self, set_file, tmp_path):
        out = tmp_path / "mom.csv"
        assert run(["moments", "--set", set_file(6), "--coeffs", "1,-0.5,2,0.25,3,-1.5",
                    "--p-list", "1,2,3,4", "--out", str(out)]) == 0
        assert out.read_text() == (
            "p,norm\n1,3.25\n2,4.06970514902\n3,4.70807988472\n4,5.18845766907\n"
            "# theta,0.338248883768\n"
        )

    CLT_TABLE = "N,cardinality,star_ratio,sharp_ratio\n10,20,0.4,0\n20,90,0.2,0\n40,380,0.1,0\n"

    def test_clt_csv(self, set_file, tmp_path, capsys):
        out = tmp_path / "clt.csv"
        assert run(["clt", "--set", set_file(40), "--n-list", "10,20,40",
                    "--out", str(out)]) == 0
        assert out.read_text() == self.CLT_TABLE
        assert capsys.readouterr().out.endswith("verdict: pass\n")

    def test_clt_stdout(self, set_file, capsys):
        path = set_file(40)
        capsys.readouterr()
        assert run(["clt", "--set", path, "--n-list", "10,20,40"]) == 0
        assert capsys.readouterr().out == self.CLT_TABLE + "verdict: pass\n"


GOLDEN = pathlib.Path(__file__).parent / "golden"


class TestGoldenOutputs:
    """Byte-exact output of the two block and pair searches, on the CLI's own set files."""

    @pytest.fixture
    def set_file(self, tmp_path):
        def make(*gen_args):
            path = tmp_path / ("_".join(gen_args) + ".idx")
            assert run(["gen-set", *gen_args, "--out", str(path)]) == 0
            return str(path)

        return make

    def test_clt_sum60(self, set_file, tmp_path, capsys):
        path, out = set_file("--kind", "sum", "--max", "60"), tmp_path / "clt.csv"
        capsys.readouterr()
        assert run(["clt", "--set", path, "--n-list", "20,40,60", "--out", str(out)]) == 0
        assert capsys.readouterr().out.encode() == (GOLDEN / "cli_clt_sum60.stdout").read_bytes()
        assert out.read_bytes() == (GOLDEN / "cli_clt_sum60.csv").read_bytes()

    def test_density_exhaustive_sum12(self, set_file, capsys):
        path = set_file("--kind", "sum", "--max", "12")
        capsys.readouterr()
        assert run(["density", "--set", path, "--n", "3", "--universe", "9",
                    "--strategy", "exhaustive"]) == 0
        golden = GOLDEN / "cli_density_exhaustive_sum12.stdout"
        assert capsys.readouterr().out.encode() == golden.read_bytes()

    def test_density_certificate_tri3_8(self, set_file, tmp_path):
        path, out = set_file("--kind", "triangle", "--order", "3", "--max", "8"), tmp_path / "d.csv"
        assert run(["density", "--set", path, "--alpha", "1", "--beta", "2", "--n-list", "2,3",
                    "--universe", "6", "--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / "cli_density_certificate_tri3_8.csv").read_bytes()


class TestParseSpace:
    @pytest.mark.parametrize(
        "text,kind",
        [
            ("lp:2", "lp"),
            ("linf", "linf"),
            ("orlicz-power:3", "orlicz"),
            ("orlicz-exp:2", "orlicz"),
            ("lorentz-log:1", "lorentz"),
            ("marcinkiewicz-log:0.5", "marcinkiewicz"),
            ("explr:2", "explr"),
            ("explr:2:extrapolation", "explr"),
        ],
    )
    def test_valid(self, text, kind):
        assert parse_space(text).kind == kind

    @pytest.mark.parametrize("text", ["l3", "lp", "orlicz-exp", "explr:2:magic",
                                      "lp:4:7", "linf:3", "explr:2:extrapolation:9",
                                      "orlicz-power:3:1", "orlicz-exp:2:1:3", "lorentz-log:1:5"])
    def test_invalid(self, text):
        with pytest.raises(InvalidArgumentError):
            parse_space(text)


class TestWriteReport:
    def make_report(self):
        r = CertificateReport("demo", {"k": 1})
        r.add("alpha", 1.5, "<=", 2.0)
        r.add("beta", 3.0, "info")
        return r

    def test_csv_byte_identical(self, tmp_path):
        r = self.make_report()
        p1, p2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        write_report(r, p1)
        write_report(r, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_only(self, tmp_path):
        r = CertificateReport("empty")
        path = tmp_path / "e.csv"
        write_report(r, path)
        assert path.read_text() == "quantity,value,bound,comparison,verdict\n"

    def test_verdict_conjunction(self):
        r = self.make_report()
        assert r.verdict
        r.add("gamma", 5.0, "<=", 4.0)
        assert not r.verdict

    def test_csv_has_fail_rows(self, tmp_path):
        r = self.make_report()
        r.add("gamma", 5.0, "<=", 4.0)
        path = tmp_path / "f.csv"
        write_report(r, path)
        text = path.read_text()
        assert "gamma,5,4,<=,fail" in text

    def test_twelve_significant_digits(self, tmp_path):
        r = CertificateReport("digits")
        r.add("pi_ish", 3.14159265358979, "info")
        path = tmp_path / "d.csv"
        write_report(r, path)
        assert "3.14159265359" in path.read_text()


class TestManifest:
    def test_outputs_exist(self, tmp_path):
        out = tmp_path / "k.csv"
        man = tmp_path / "run.json"
        code = run(["khintchine", "--coeffs", "1,1", "--p", "4",
                    "--out", str(out), "--manifest", str(man)])
        assert code == 0
        record = json.loads(man.read_text())
        assert record["outputs"] == [str(out)]
        assert all(__import__("os").path.exists(p) for p in record["outputs"])
        assert record["version"]
        assert record["tolerances"]["tol"] == 1e-10

    @pytest.mark.parametrize("case", sorted(OUT_CASES))
    def test_outputs_name_the_out_file(self, case, sum_file, tmp_path):
        out, man = tmp_path / "out.txt", tmp_path / "run.json"
        argv = [str(sum_file) if a == "SET" else a for a in OUT_CASES[case]]
        if case not in WRITES_NO_FILE:
            argv += ["--out", str(out)]
        assert run([*argv, "--manifest", str(man)]) in (0, 1)
        outputs = json.loads(man.read_text())["outputs"]
        assert outputs == ([] if case in WRITES_NO_FILE else [str(out)])

    def test_manifest_direct(self, tmp_path):
        manifest = RunManifest("chaoslab demo", {"p": 2}, 0, {"tol": 1e-10},
                               "0.1.0", 0.5, [])
        path = tmp_path / "m.json"
        manifest.write(path)
        assert json.loads(path.read_text())["command_line"] == "chaoslab demo"


def test_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(chaoslab.__file__))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, chaoslab.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_import_loads_no_thread_pool():
    # concurrent.futures, and the logging it loads, is imported where a pool runs
    src = os.path.dirname(os.path.dirname(chaoslab.__file__))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, chaoslab.cli; print('concurrent.futures' in sys.modules)"],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("argv, cause", [
    (["norm", "--set", "TRI", "--coeffs", "nan,1,1,1,1,1", "--space", "lp:2"], "finite"),
    (["norm", "--set", "TRI", "--coeffs", "inf,1,1,1,1,1", "--space", "lp:2"], "finite"),
    (["moments", "--set", "TRI", "--coeffs", "1,1,1,1,1,nan"], "finite"),
    (["moments", "--set", "TRI", "--coeffs", "1,1,1,1,1,-inf", "--beta", "2"], "finite"),
    (["rud", "--set", "TRI", "--coeffs", "1,1,1,1,1,inf", "--space", "lp:2"], "finite"),
    (["rud", "--set", "TRI", "--coeffs", "1,1,1,1,1,nan", "--space", "lp:2",
      "--mc-samples", "5"], "finite"),
    (["khintchine", "--coeffs", "nan,1", "--p", "2"], "finite"),
    (["moments", "--set", "TRI", "--coeffs", "0,0,0,0,0,0", "--beta", "2"], "zero"),
    (["rud", "--set", "TRI", "--coeffs", "0,0,0,0,0,0", "--space", "lp:2"], "zero"),
    (["rud", "--set", "TRI", "--coeffs", "0,0,0,0,0,0", "--space", "lp:2",
      "--mc-samples", "5"], "zero"),
])
def test_undefined_coefficients_are_a_usage_error(argv, cause, tmp_path, capsys):
    tri = tmp_path / "tri.txt"
    assert run(["gen-set", "--kind", "triangle", "--order", "2", "--max", "4",
                "--out", str(tri)]) == 0
    capsys.readouterr()
    assert run([str(tri) if a == "TRI" else a for a in argv]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and cause in err
    assert "nan" not in out and "verdict" not in out


def test_moments_beta_refuses_before_printing(sum_file, capsys):
    zeros = ",".join(["0"] * len(load_index_set(sum_file)))
    assert run(["moments", "--set", str(sum_file), "--coeffs", zeros, "--beta", "2"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "zero" in err


@pytest.mark.parametrize("argv, expected", [
    (["norm", "--set", "TRI", "--coeffs", "0,0,0,0,0,0", "--space", "lp:2"],
     "norm[L_2] = 0.000000\n"),
    (["khintchine", "--coeffs", "0,0", "--p", "2"], "verdict: pass\n"),
    (["moments", "--set", "TRI", "--coeffs", "0,0,0,0,0,0"], "growth exponent theta = 0\n"),
])
def test_zero_chaos_is_defined(argv, expected, tmp_path, capsys):
    tri = tmp_path / "tri.txt"
    assert run(["gen-set", "--kind", "triangle", "--order", "2", "--max", "4",
                "--out", str(tri)]) == 0
    capsys.readouterr()
    assert run([str(tri) if a == "TRI" else a for a in argv]) == 0
    assert capsys.readouterr().out.endswith(expected)


def test_gen_set_checks_out_before_generating(monkeypatch, capsys):
    import chaoslab.cli as cli

    def generate(*args):
        raise AssertionError("generated a set before checking --out")

    monkeypatch.setattr(cli, "gen_sum_set", generate)
    monkeypatch.setattr(cli, "gen_triangle", generate)
    assert run(["gen-set", "--kind", "sum", "--max", "30000"]) == 2
    assert run(["gen-set", "--kind", "triangle", "--order", "3", "--max", "30000"]) == 2
    assert "requires --out" in capsys.readouterr().err


def test_gen_set_sum_cap_names_a_smaller_max(tmp_path, capsys):
    out = tmp_path / "big.txt"
    assert run(["gen-set", "--kind", "sum", "--max", "30000", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "224985000 required, cap 5000000" in err and "--max" in err and "4473" in err
    assert not out.exists()


@pytest.mark.parametrize("r", ["0.01", "0.02"])
def test_norm_far_below_l1_is_bracketed(r, tmp_path, capsys):
    # the norm is about 1e-156 ||x||_1 at r = 0.01, hundreds of halvings away
    path = tmp_path / "sum12.idx"
    assert run(["gen-set", "--kind", "sum", "--max", "12", "--out", str(path)]) == 0
    assert run(["norm", "--set", str(path), "--space", f"orlicz-exp:{r}"]) == 0


@pytest.mark.parametrize("argv, cause", [
    (["norm", "--set", "SET", "--space", "lp:nan"], "p >= 1"),
    (["norm", "--set", "SET", "--space", "lorentz-log:nan"], "finite gamma"),
    (["norm", "--set", "SET", "--space", "orlicz-exp:2:nan"], "u0 must be finite"),
    (["norm", "--set", "SET", "--space", "orlicz-power:3", "--tol", "nan"], "(0, 1)"),
    (["norm", "--set", "SET", "--space", "orlicz-power:3", "--tol", "inf"], "(0, 1)"),
    (["norm", "--set", "SET", "--space", "orlicz-power:3", "--tol", "2"], "(0, 1)"),
    (["khintchine", "--coeffs", "1,2", "--p", "nan"], "p >= 1"),
    (["moments", "--set", "SET", "--beta", "nan"], "beta must be finite"),
    (["moments", "--set", "SET", "--p-list", "1,inf"], "finite"),
    (["moments", "--set", "SET", "--p-list", "1,nan"], "finite"),
    (["norm", "--set", "SET", "--space", "orlicz-exp:1e-3"], "overflows"),
    (["norm", "--set", "SET", "--space", "orlicz-exp:1e-10"], "overflows"),
    (["norm", "--set", "SET", "--space", "lp:2", "--max-enum-bits", "-1"], "bits_cap"),
    (["concentration", "--order", "0", "--n", "3"], "order >= 1"),
    (["norm", "--set", "SET", "--space", "lorentz-log:1.5"], "gamma <= 1"),
    (["norm", "--set", "SET", "--space", "marcinkiewicz-log:2"], "gamma <= 1"),
])
def test_non_finite_and_out_of_range_numbers_are_usage_errors(argv, cause, tmp_path, capsys):
    path = tmp_path / "sum12.idx"
    assert run(["gen-set", "--kind", "sum", "--max", "12", "--out", str(path)]) == 0
    capsys.readouterr()
    assert run([str(path) if a == "SET" else a for a in argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and cause in err


@pytest.mark.parametrize("argv, cause", [
    (["khintchine", "--coeffs", "1,1", "--p", "4", "--tol", "nan"], "tolerance must lie in (0, 1)"),
    (["gen-set", "--kind", "sum", "--max", "6", "--out", "OUT", "--max-enum-bits", "-3"],
     "bits_cap must be >= 0, got -3"),
    (["concentration", "--order", "2", "--n", "5", "--tol", "2"], "tolerance must lie in (0, 1)"),
])
def test_every_subcommand_checks_tol_and_max_enum_bits(argv, cause, tmp_path, capsys):
    # subcommands that read neither flag still refuse a value no reader could take
    out = tmp_path / "set.idx"
    assert run([str(out) if a == "OUT" else a for a in argv]) == 2
    stdout, err = capsys.readouterr()
    assert stdout == "" and err.startswith("error:") and cause in err
    assert not out.exists()
