"""End-to-end tests for the thetachar command line."""

import json
import os
import subprocess
import sys
from fractions import Fraction as F

import pytest
from mpmath import mp

from thetachar import cli, suites, theta
from thetachar.suites import CaseResult, SuiteConfig, SuiteReport

EXPAND_M1_TEXT = (
    b"# expand M=1 j=1/2 sector=NS sign=+\n"
    b"# trusted below q^8\n"
    b"# x window [-4, 2]\n"
    b"q^0  1\n"
)

EXPAND_M2_TEXT = (
    b"# expand M=2 j=-1/2 sector=NS sign=+\n"
    b"# trusted below q^7/8\n"
    b"# x window [-11/2, 1/2]\n"
    b"q^-1/8  x^-3/2 + x^-7/2 + x^-11/2\n"
    b"q^3/8   2*x^-1/2 + 2*x^-5/2 + 2*x^-9/2\n"
)

EXPAND_M1_JSON = (
    b'{"q_den":8,"x_den":2,"q_order":"2",'
    b'"terms":[{"q":0,"x":0,"re":"1","im":"0"}],'
    b'"x_window":["-4","2"]}\n'
)

TABLE_CSV = (
    b"M,j,heart,k1,k2,c,h,s\n"
    b"1,1/2,I,0,0,0,0,0\n"
    b"2,1/2,I,0,1,-3,-1/4,-1/2\n"
    b"2,-1/2,III,0,1,-3,-1/4,-3/2\n"
)

TABLE_TWISTED_JSON = (
    b'{"rows":[{"M":2,"j":"0","heart":"I","k1":0,"k2":1,"c":"-3",'
    b'"h":"-1/8","s":"0"},{"M":2,"j":"1","heart":"III","k1":0,"k2":1,'
    b'"c":"-3","h":"3/8","s":"1"}]}\n'
)


def run_cli(args, env=None):
    return subprocess.run([sys.executable, "-m", "thetachar", *args],
                          capture_output=True, env=env)


class TestExpand:
    def test_level_one_text_golden(self):
        cp = run_cli(["expand", "--M", "1", "--j", "1/2", "--sector", "NS",
                      "--sign", "+", "--format", "text"])
        assert cp.returncode == 0
        assert cp.stdout == EXPAND_M1_TEXT

    def test_level_two_text_golden(self):
        cp = run_cli(["expand", "--M", "2", "--j=-1/2", "--sector", "ns",
                      "--sign", "plus", "--q-order", "7/8",
                      "--format", "text"])
        assert cp.returncode == 0
        assert cp.stdout == EXPAND_M2_TEXT

    def test_json_golden_and_deterministic(self):
        args = ["expand", "--M", "1", "--j", "1/2", "--sector", "NS",
                "--sign", "+", "--q-order", "2"]
        first = run_cli(args)
        second = run_cli(args)
        assert first.returncode == second.returncode == 0
        assert first.stdout == EXPAND_M1_JSON
        assert second.stdout == first.stdout

    def test_fractional_q_order_reaches_negative_exponents(self):
        cp = run_cli(["expand", "--M", "2", "--j", "1/2", "--sector", "NS",
                      "--sign", "-", "--q-order", "5/8"])
        assert cp.returncode == 0
        d = json.loads(cp.stdout)
        lowest = min(F(t["q"], d["q_den"]) for t in d["terms"])
        assert lowest == F(-1, 8)
        assert F(d["q_order"]) == F(5, 8)

    def test_order_at_or_below_the_lead_gives_no_terms(self):
        # the lowest exponent of this character is h - c/24 = 1/4
        cp = run_cli(["expand", "--M", "2", "--j", "1", "--sector", "R",
                      "--sign", "+", "--q-order", "1/4"])
        assert cp.returncode == 0
        assert b'"terms":[]' in cp.stdout

    def test_default_q_order_is_eight(self):
        cp = run_cli(["expand", "--M", "1", "--j", "1/2", "--sector", "NS",
                      "--sign", "+"])
        assert json.loads(cp.stdout)["q_order"] == "8"

    def test_custom_window_is_respected(self):
        cp = run_cli(["expand", "--M", "2", "--j", "1/2", "--sector", "NS",
                      "--sign", "+", "--q-order", "1",
                      "--x-window=-5/2:-1/2"])
        assert cp.returncode == 0
        d = json.loads(cp.stdout)
        assert d["x_window"] == ["-5/2", "-1/2"]
        xs = {F(t["x"], d["x_den"]) for t in d["terms"]}
        assert xs and all(F(-5, 2) <= x <= F(-1, 2) for x in xs)

    def test_malformed_window_syntax(self):
        cp = run_cli(["expand", "--M", "1", "--j", "1/2", "--sector", "NS",
                      "--sign", "+", "--x-window", "1"])
        assert cp.returncode == 2
        assert b"LO:HI" in cp.stderr

    def test_inadmissible_j_lists_the_index_set(self):
        cp = run_cli(["expand", "--M", "2", "--j", "1/4", "--sector", "NS",
                      "--sign", "+"])
        assert cp.returncode == 2
        err = cp.stderr.decode()
        assert err.startswith("error:")
        assert "admissible j for M=2 sector NS: -1/2, 1/2" in err

    def test_bad_window_order(self):
        cp = run_cli(["expand", "--M", "1", "--j", "1/2", "--sector", "NS",
                      "--sign", "+", "--x-window", "1:0"])
        assert cp.returncode == 2
        assert b"LO <= HI" in cp.stderr

    @pytest.mark.parametrize("bad", [
        ["--sector", "XY", "--sign", "+"],
        ["--sector", "NS", "--sign", "*"],
    ])
    def test_bad_enum_values(self, bad):
        cp = run_cli(["expand", "--M", "1", "--j", "1/2", *bad])
        assert cp.returncode == 2
        assert cp.stderr.startswith(b"error:")

    @pytest.mark.parametrize("command", [
        ["expand", "--M", "1", "--j", "1/2", "--sector", "NS", "--sign", "+"],
        ["verify", "--suite", "theta"],
    ])
    @pytest.mark.parametrize("q_order", ["--q-order=0", "--q-order=-1"])
    def test_non_positive_q_order_is_a_usage_error(self, capsys, command,
                                                   q_order):
        # below q^0 there is no term: such a verify would pass every row
        assert cli.main(command + [q_order]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: --q-order must be positive")

    def test_q_order_parse_message_offers_positive_examples(self, capsys):
        # every example the --q-order message gives is accepted; --j
        # keeps the shared wording, where -5/8 is a valid value
        base = ["expand", "--M", "1", "--j", "1/2", "--sector", "NS",
                "--sign", "+"]
        assert cli.main(base + ["--q-order=x"]) == 2
        err = capsys.readouterr().err
        assert err == ("error: --q-order must be a positive rational like "
                       "3, 1/2 or 5/8; got 'x'\n")
        for example in ("3", "1/2", "5/8"):
            assert cli.main(base + ["--q-order", example]) == 0
        capsys.readouterr()
        assert cli.main(["expand", "--M", "1", "--j=y", "--sector", "NS",
                         "--sign", "+"]) == 2
        assert capsys.readouterr().err == (
            "error: --j must be a rational like 3, 1/2 or -5/8; got 'y'\n")


class TestExpandCache:
    """expand keeps no cache: every run computes, and none writes a file."""

    ARGS = ["expand", "--M", "2", "--j", "1", "--sector", "R", "--sign", "-",
            "--q-order", "3/2"]

    @staticmethod
    def cache_homes(tmp_path):
        # every place a cache could live, as an empty directory
        homes = {name: tmp_path / name for name in
                 ("HOME", "XDG_CACHE_HOME", "THETACHAR_CACHE_DIR")}
        for path in homes.values():
            path.mkdir()
        env = dict(os.environ, **{k: str(v) for k, v in homes.items()})
        return homes, env

    def test_cold_and_warm_runs_are_byte_identical(self, tmp_path):
        _, env = self.cache_homes(tmp_path)
        cold, warm = run_cli(self.ARGS, env), run_cli(self.ARGS, env)
        assert cold.returncode == warm.returncode == 0
        assert cold.stdout == warm.stdout

    def test_no_cache_leaves_directory_empty(self, tmp_path):
        homes, env = self.cache_homes(tmp_path)
        for _ in range(2):
            assert run_cli(self.ARGS, env).returncode == 0
        assert all(list(path.iterdir()) == [] for path in homes.values())


class TestTable:
    def test_csv_golden(self):
        cp = run_cli(["table", "--M-range", "1:2"])
        assert cp.returncode == 0
        assert cp.stdout == TABLE_CSV

    def test_twisted_json_golden(self):
        cp = run_cli(["table", "--M-range", "2", "--twisted",
                      "--format", "json"])
        assert cp.returncode == 0
        assert cp.stdout == TABLE_TWISTED_JSON

    def test_single_level_range(self):
        cp = run_cli(["table", "--M-range", "3"])
        rows = cp.stdout.decode().strip().split("\n")[1:]
        assert len(rows) == 3
        assert all(r.startswith("3,") for r in rows)

    @pytest.mark.parametrize("rng", ["4:2", "0:1", "x", "1:2:3"])
    def test_bad_ranges(self, rng):
        cp = run_cli(["table", "--M-range", rng])
        assert cp.returncode == 2
        assert cp.stderr.startswith(b"error:")


class TestVerify:
    def test_single_suite_text(self):
        cp = run_cli(["verify", "--suite", "theta", "--q-order", "3"])
        assert cp.returncode == 0
        out = cp.stdout.decode()
        assert "[pass] theta/sum-vs-product/00" in out
        assert "suite theta:" in out
        assert "0 fail" in out
        assert out.endswith("\n")

    def test_json_format(self):
        cp = run_cli(["verify", "--suite", "theta", "--q-order", "3",
                      "--format", "json"])
        d = json.loads(cp.stdout)
        (report,) = d["reports"]
        assert report["suite"] == "theta"
        assert all(c["status"] == "pass" for c in report["cases"])

    def test_q_order_below_every_valuation_fails(self, capsys):
        # rows that compare no term below the q-order fail, not pass
        assert cli.main(["verify", "--suite", "characters",
                         "--q-order", "1/100"]) == 1
        out = capsys.readouterr().out
        assert "compares no term below q^1/100" in out
        assert "4 pass, 23 fail" in out

    def test_unknown_suite(self):
        cp = run_cli(["verify", "--suite", "bogus"])
        assert cp.returncode == 2
        assert b"--suite must be one of" in cp.stderr

    def test_suite_builds_each_series_once(self, capsys):
        # cases share the lru-cached builders; run in order, each
        # series is built once
        theta.theta_shifted.cache_clear()
        assert cli.main(["verify", "--suite", "characters"]) == 0
        assert "0 fail" in capsys.readouterr().out
        info = theta.theta_shifted.cache_info()
        assert info.currsize > 0
        assert info.misses == info.currsize

    def test_every_cache_empties_as_perfbench_empties_them(self, capsys):
        # perfbench empties the program's caches before each request by
        # calling every module-level cache_clear in the package; the
        # factor series and their valuations must be reached that way
        assert cli.main(["verify", "--suite", "theta"]) == 0
        capsys.readouterr()
        caches = (theta.theta_shifted, theta._key_valuation)
        assert all(c.cache_info().currsize > 0 for c in caches)
        for name, mod in list(sys.modules.items()):
            if name == "thetachar" or name.startswith("thetachar."):
                for obj in vars(mod).values():
                    if callable(getattr(obj, "cache_clear", None)):
                        obj.cache_clear()
        assert all(c.cache_info().currsize == 0 for c in caches)

    def test_run_suite_scopes_precision(self, monkeypatch):
        seen = []
        monkeypatch.setattr(suites, "suite_cases", lambda name: (
            ("probe", lambda cfg: seen.append(mp.dps)),))
        mp.dps = 17
        report = suites.run_suite("theta", SuiteConfig(dps=30))
        assert report.ok
        assert seen == [30]
        assert mp.dps == 17

    def test_failing_case_exits_one(self, monkeypatch, capsys):
        failing = SuiteReport(
            suite="theta",
            cases=(CaseResult("theta/boom", "fail", "synthetic"),),
            wall_time=0.01,
            config={"q_order": "3", "tol": 1e-9, "precision_dps": 40})
        monkeypatch.setattr(cli, "run_suite",
                            lambda name, cfg: failing)
        code = cli.main(["verify", "--suite", "theta"])
        out = capsys.readouterr().out
        assert code == 1
        assert "[FAIL] theta/boom" in out


class TestTransform:
    def test_closure_certificate(self):
        args = ["transform", "--M", "1", "--which", "S", "--statement", "2",
                "--precision", "30"]
        cp = run_cli(args)
        assert cp.returncode == 0
        cert = json.loads(cp.stdout)
        assert cert["transform"] == "S"
        assert cert["M"] == 1
        assert cert["residual"] < 1e-9
        assert len(cert["points"]) == 3 * len(cert["family"])
        again = run_cli(args)
        assert again.stdout == cp.stdout

    def test_output_file(self, tmp_path):
        out = tmp_path / "cert.json"
        cp = run_cli(["transform", "--M", "1", "--which", "T",
                      "--statement", "2", "--precision", "30",
                      "--output", str(out)])
        assert cp.returncode == 0
        assert json.loads(out.read_text())["transform"] == "T"

    def test_residual_above_tolerance_exits_one(self):
        cp = run_cli(["transform", "--M", "1", "--which", "S",
                      "--statement", "2", "--precision", "30",
                      "--tol", "1e-40"])
        assert cp.returncode == 1
        assert b"exceeds tolerance" in cp.stderr
        # the certificate is still printed for inspection
        assert json.loads(cp.stdout)["residual"] > 0

    def test_precision_is_scoped(self, capsys):
        mp.dps = 17
        code = cli.main(["transform", "--M", "1", "--which", "T",
                         "--statement", "2", "--precision", "30"])
        assert code == 0
        assert mp.dps == 17
        with mp.workdps(30):
            want_bits = mp.prec
        cert = json.loads(capsys.readouterr().out)
        assert cert["precision_bits"] == want_bits

    def test_too_few_points(self):
        cp = run_cli(["transform", "--M", "1", "--which", "S",
                      "--statement", "2", "--points", "1"])
        assert cp.returncode == 2
        assert b"below the minimum" in cp.stderr

    @pytest.mark.parametrize("bad", [
        ["--which", "U"],
        ["--which", "S", "--statement", "3"],
        ["--which", "S", "--tol", "-1"],
        ["--which", "S", "--precision", "2"],
    ])
    def test_bad_arguments(self, bad):
        cp = run_cli(["transform", "--M", "1", *bad])
        assert cp.returncode == 2
        assert cp.stderr.startswith(b"error:")

    def test_m5_s_certificate_closes(self, capsys):
        # 45 members: the family the least-squares fit could not certify
        code = cli.main(["transform", "--M", "5", "--which", "S",
                         "--tol", "1e-25", "--precision", "30"])
        assert code == 0
        cert = json.loads(capsys.readouterr().out)
        assert len(cert["family"]) == 45
        assert cert["residual"] < 1e-25


class TestTopLevel:
    def test_version(self):
        cp = run_cli(["--version"])
        assert cp.returncode == 0
        assert cp.stdout.strip() == b"thetachar 0.1.0"

    def test_no_subcommand_is_usage_error(self):
        cp = run_cli([])
        assert cp.returncode == 2

    def test_in_process_version_exit_code(self, capsys):
        assert cli.main(["--version"]) == 0
        assert capsys.readouterr().out.strip() == "thetachar 0.1.0"

    def test_one_parser_serves_every_request(self, capsys):
        # the module's parser parses each request in one process: a
        # usage error, --version and a verify between two identical
        # expands change neither the exit codes a fresh process gives
        # nor the expand's bytes
        expand = ["expand", "--M", "2", "--j=-1/2", "--sector", "NS",
                  "--sign", "+", "--q-order", "3", "--format", "json"]
        requests = [expand,
                    ["expand", "--M", "2", "--j=7/3", "--sector", "NS",
                     "--sign", "+"],
                    ["--version"],
                    ["verify", "--suite", "theta", "--format", "json"],
                    expand]
        codes, outs = [], []
        for argv in requests:
            codes.append(cli.main(list(argv)))
            outs.append(capsys.readouterr().out)
        fresh = [run_cli(argv) for argv in requests]
        assert codes == [cp.returncode for cp in fresh] == [0, 2, 0, 0, 0]
        assert outs[0].encode() == outs[4].encode() == fresh[0].stdout

    def test_commands_are_looked_up_per_request(self, monkeypatch, capsys):
        # the parser is built once, and a request still runs the
        # cmd_expand the module holds when it arrives
        seen = []
        real = cli.cmd_expand
        monkeypatch.setattr(cli, "cmd_expand",
                            lambda args: seen.append(args.M) or real(args))
        assert cli.main(["expand", "--M", "1", "--j", "1/2", "--sector",
                         "NS", "--sign", "+"]) == 0
        assert seen == [1]
        assert capsys.readouterr().out.startswith('{"q_den":')
