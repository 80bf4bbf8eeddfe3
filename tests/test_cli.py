"""Command-line interface: output shapes, formats, determinism, exit codes."""
import contextlib
import hashlib
import io
import json
import subprocess
import sys
import time
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

import kwise
from kwise.cli import (MAX_P_TERM, MAX_PRECISION_BITS, MAX_SAMPLES, MAX_TABLE_CELLS, MAX_TABLE_ENTRIES,
                       _emit, run)
from kwise.sampler import Stream, StreamSpec, estimate_moment


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_usage_error_is_2(self, capsys):
        code, _, err = invoke(capsys)
        assert code == 2
        code, _, _ = invoke(capsys, "constant", "--n", "4")
        assert code == 2

    def test_help_is_0(self, capsys):
        code, out, _ = invoke(capsys, "--help")
        assert code == 0
        assert "construct" in out

    def test_computation_error_is_1(self, capsys):
        code, out, err = invoke(capsys, "bound", "--kind", "haagerup")
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    def test_partition_odd_dimension_is_1(self, capsys):
        code, _, err = invoke(capsys, "construct", "--construct", "partition", "--n", "5")
        assert code == 1
        assert "even" in err

    def test_one_run_leaves_the_next_unchanged(self, capsys):
        # the parser is built once per process, and the table's list
        # defaults are objects it shares across parses
        _, plain, _ = invoke(capsys, "table")
        assert invoke(capsys, "table", "--n", "4", "--k", "x")[0] == 2
        assert invoke(capsys, "table", "--n", "6", "--p", "3", "--k", "3")[0] == 0
        assert invoke(capsys, "constant", "--n", "4")[0] == 2
        assert invoke(capsys, "table") == (0, plain, "")

    def test_reduced_rejects_weights(self, capsys):
        code, _, err = invoke(
            capsys, "constant", "--n", "4", "--p", "4", "--k", "2", "--a", "1,1,1,1"
        )
        assert code == 1
        assert "--full" in err


class TestInputBounds:
    @pytest.mark.parametrize("bits", ["0", "-3"])
    def test_precision_bits_below_one_is_usage_error(self, capsys, bits):
        code, out, err = invoke(
            capsys, "bound", "--kind", "haagerup", "--p", "4", "--precision-bits", bits
        )
        assert code == 2
        assert out == ""
        assert "usage:" in err and "--precision-bits" in err

    @pytest.mark.parametrize("command", ["sample", "estimate"])
    @pytest.mark.parametrize("samples", ["0", "-1"])
    def test_samples_below_one_is_usage_error(self, capsys, command, samples):
        argv = [command, "--kind", "partition", "--n", "4", "--samples", samples]
        if command == "estimate":
            argv += ["--p", "4"]
        code, out, err = invoke(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "usage:" in err and "--samples" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("bound", "--kind", "haagerup", "--p", str(MAX_P_TERM + 1)),
            ("bound", "--kind", "haagerup", "--p", f"1/{MAX_P_TERM + 1}"),
            ("constant", "--n", "8", "--p", str(MAX_P_TERM + 1), "--k", "2"),
            ("moment", "--construct", "partition", "--n", "4", "--p", f"-{MAX_P_TERM + 1}"),
            ("table", "--n", "4", "--p", f"2,3/{MAX_P_TERM + 1}", "--k", "2"),
        ],
    )
    def test_order_above_cap_is_usage_error(self, capsys, argv):
        code, out, err = invoke(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "usage:" in err and "--p" in err

    def test_precision_bits_above_cap_is_usage_error(self, capsys):
        code, out, err = invoke(capsys, "bound", "--kind", "haagerup", "--p", "3",
                                "--precision-bits", str(MAX_PRECISION_BITS + 1))
        assert code == 2
        assert out == ""
        assert "usage:" in err and "--precision-bits" in err

    @pytest.mark.parametrize("command", ["sample", "estimate"])
    def test_samples_above_cap_is_usage_error(self, capsys, command):
        argv = [command, "--kind", "partition", "--n", "4", "--samples", str(MAX_SAMPLES + 1)]
        if command == "estimate":
            argv += ["--p", "4"]
        code, out, err = invoke(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "usage:" in err and "--samples" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("bound", "--kind", "haagerup", "--p", str(MAX_P_TERM)),
            ("bound", "--kind", "haagerup", "--p", str(MAX_P_TERM - 1)),
            ("moment", "--construct", "partition", "--n", "8", "--p", f"{MAX_P_TERM - 1}/{MAX_P_TERM // 2}"),
        ],
    )
    def test_caps_themselves_are_accepted(self, capsys, argv):
        code, out, _ = invoke(capsys, *argv, "--precision-bits", str(MAX_PRECISION_BITS))
        assert code == 0
        assert json.loads(out)["value"]["bits"] == MAX_PRECISION_BITS

    @pytest.mark.parametrize(
        "argv",
        [
            ("construct",),
            ("verify", "--k", "2"),
            ("moment", "--p", "4"),
        ],
    )
    def test_explicit_law_above_cap_is_usage_error(self, capsys, argv):
        # 2^21 atoms would take about 1 GB
        code, out, err = invoke(capsys, *argv, "--construct", "independent", "--n", "21")
        assert code == 2
        assert out == ""
        assert "usage:" in err and "--n" in err
        assert "Traceback" not in err

    def test_reduced_flag_is_gone(self, capsys):
        code, _, err = invoke(capsys, "constant", "--n", "4", "--p", "4", "--k", "2", "--reduced")
        assert code == 2
        assert "--reduced" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("constant", "--n", "400", "--p", "4", "--k", "60"),
            ("constant", "--full", "--n", "11", "--p", "4", "--k", "4"),
        ],
    )
    def test_program_above_work_bound_fails_fast(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = invoke(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert code == 1
        assert out == ""
        assert "program too large" in err

    @pytest.mark.parametrize(
        "argv,code",
        [
            # 6818 columns of about 52 000 bits: admitted before, it took 40 s
            (("constant", "--n", "6817", "--p", "4095", "--k", "10"), 1),
            (("constant", "--full", "--n", "12", "--p", "4095", "--k", "2"), 1),
            # one weight of 1329 bits: 2048 columns of 5316 bits
            (("constant", "--full", "--n", "12", "--p", "4", "--k", "2", "--a", "1," * 11 + "9" * 400), 1),
            (("table", "--n", "6817", "--p", "4095", "--k", "10"), 2),
            # each cell is admitted alone, but not the three together
            (("table", "--n", "4000,4000,4000", "--p", "2048", "--k", "2"), 2),
        ],
    )
    def test_objective_over_the_bit_budget_fails_fast(self, capsys, monkeypatch, argv, code):
        import kwise.extremal as extremal

        def no_build(*args, **kwargs):
            raise AssertionError("a refused program must not be built")

        for name in ("_reduced_rows", "_flip_program", "_powers"):
            monkeypatch.setattr(extremal, name, no_build)
        start = time.perf_counter()
        got, out, err = invoke(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert (got, out) == (code, "")
        assert "bits" in err

    @pytest.mark.parametrize(
        "construct,n,k,admitted",
        [
            # 2^20 atoms times every coordinate set: about a day of parity sums
            ("independent", 20, 20, False),
            ("independent", 14, 14, False),  # 2.7e8 visits, 30 s
            ("partition", 20, 3, False),
            ("xor", 5, 10, False),
            ("independent", 13, 13, True),  # 6.7e7 visits, 7 s
            ("independent", 19, 2, True),  # 1.0e8 visits, 13 s
            ("partition", 20, 2, True),
        ],
    )
    def test_verify_over_the_visit_budget_fails_fast(self, capsys, monkeypatch, construct, n, k, admitted):
        import kwise.cli as cli
        from kwise.independence import IndependenceReport

        def no_law(n):
            raise AssertionError("a refused check must not build its law")

        def no_check(space, k):
            assert admitted, "a refused check must not run"
            return IndependenceReport(k, k, None)

        monkeypatch.setitem(cli.CONSTRUCTIONS, construct, lambda n: None if admitted else no_law(n))
        monkeypatch.setattr(cli, "check_kwise", no_check)
        start = time.perf_counter()
        code, out, err = invoke(capsys, "verify", "--construct", construct, "--n", str(n), "--k", str(k))
        assert time.perf_counter() - start < 1
        if admitted:
            assert (code, json.loads(out)) == (0, {"k_verified": k, "witness": None})
        else:
            assert (code, out) == (1, "")
            assert "check too large" in err

    @pytest.mark.parametrize(
        "construct,n,k,message",
        [
            # 10^6 sums of comb(2^20, j) before the cause was reported
            ("xor", "20", "1000000", "2^20 coordinates exceed the dimension cap 63"),
            ("xor", "7", "3", "2^7 coordinates exceed the dimension cap 63"),
            ("partition", "19", "4", "partition law needs an even dimension >= 2, got 19"),
            ("xor", "5", "1000000", "independence level must be in [1, 32], got 1000000"),
            ("independent", "20", "0", "independence level must be in [1, 20], got 0"),
            ("independent", "20", "-3", "independence level must be in [1, 20], got -3"),
        ],
    )
    def test_verify_reports_an_invalid_law_before_counting(self, capsys, monkeypatch, construct, n, k, message):
        import kwise.cli as cli

        def no_law(n):
            raise AssertionError("an invalid check must not build its law")

        monkeypatch.setitem(cli.CONSTRUCTIONS, construct, no_law)
        start = time.perf_counter()
        code, out, err = invoke(capsys, "verify", "--construct", construct, "--n", n, "--k", k)
        assert time.perf_counter() - start < 1
        assert (code, out) == (1, "")
        assert message in err

    @pytest.mark.parametrize(
        "argv",
        [
            # a finite mean with an infinite standard error before
            ("--kind", "independent", "--n", "62", "--p", "170", "--samples", "100"),
            # an OverflowError after the first draws before
            ("--kind", "independent", "--n", "62", "--p", "172", "--samples", "100"),
            ("--kind", "partition", "--n", "62", "--p", "86", "--samples", "100"),
            ("--kind", "xor", "--n", "3", "--p", "201/2", "--a", "1000,1,1,1,1,1,1,1", "--samples", "100"),
        ],
    )
    def test_estimate_overflowing_a_double_fails_before_any_draw(self, capsys, monkeypatch, argv):
        import kwise.sampler as sampler

        def no_draw(*args, **kwargs):
            raise AssertionError("a refused estimate must not draw")

        for name in ("Stream", "_blocks"):
            monkeypatch.setattr(sampler, name, no_draw)
        code, out, err = invoke(capsys, "estimate", *argv)
        assert (code, out) == (1, "")
        assert f"exponent {argv[5]} too large" in err

    @pytest.mark.parametrize(
        "argv,message",
        [
            # the first cell took 7.3 s before the second was refused
            (("--n", "6817,20000", "--p", "4", "--k", "10"), "dimension too large: 20000 > 10000"),
            (("--n", "8,10", "--p", "4,1/2", "--k", "2"), "exponent must be at least 1"),
        ],
    )
    def test_table_checks_every_cell_before_solving_any(self, capsys, monkeypatch, argv, message):
        import kwise.cli as cli

        def no_solve(*args, **kwargs):
            raise AssertionError("no cell is solved when one is refused")

        monkeypatch.setattr(cli, "solve_reduced", no_solve)
        start = time.perf_counter()
        code, out, err = invoke(capsys, "table", *argv)
        assert time.perf_counter() - start < 1
        assert (code, out) == (1, "")
        assert message in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("construct", "--construct", "partition", "--n", "4"),
            ("verify", "--construct", "partition", "--n", "4", "--k", "2"),
            ("sample", "--kind", "partition", "--n", "4"),
            ("estimate", "--kind", "partition", "--n", "4", "--p", "4", "--samples", "100"),
        ],
    )
    def test_precision_bits_only_where_read(self, capsys, argv):
        assert invoke(capsys, *argv)[0] == 0
        code, out, err = invoke(capsys, *argv, "--precision-bits", "64")
        assert code == 2
        assert out == ""
        assert "usage:" in err and "--precision-bits" in err


class TestLargeOrders:
    """Orders whose single-root radicands would run to thousands of digits:
    they go through exp/log and finish in well under 5 s."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("bound", "--kind", "haagerup", "--p", "2001"),
            ("bound", "--kind", "haagerup", "--p", "4001/2"),
            ("bound", "--kind", "sharp", "--n", "10", "--p", "2001"),
            ("table", "--n", "4", "--p", "4001/2000", "--k", "2"),
            ("moment", "--construct", "partition", "--n", "8", "--p", "1001/1000"),
        ],
    )
    def test_finishes_under_five_seconds(self, capsys, argv):
        start = time.perf_counter()
        code, out, _ = invoke(capsys, *argv)
        assert time.perf_counter() - start < 5
        assert code == 0
        json.loads(out)


class TestLargeLaws:
    """Parity sums over a 2^16-atom law run on integer numerators."""

    def test_independent_sixteen_verifies_under_ten_seconds(self, capsys):
        start = time.perf_counter()
        code, out, _ = invoke(capsys, "verify", "--construct", "independent", "--n", "16", "--k", "2")
        assert time.perf_counter() - start < 10
        assert code == 0
        assert json.loads(out) == {"k_verified": 2, "witness": None}


class TestLongExactValues:
    def test_value_beyond_int_string_limit_prints(self, capsys):
        # 2000^3999 has 13201 digits, beyond the interpreter's default 4300
        code, out, err = invoke(capsys, "constant", "--n", "2000", "--p", "4000", "--k", "2")
        assert code == 0, err
        # n^(p-1) at k = 2 and even n; 2000^3999 = 2^3999 * 10^11997
        assert json.loads(out)["value"] == str(2**3999) + "0" * 11997 + "/1"

    def test_enclosure_beyond_int_string_limit_prints(self, capsys):
        # |<a, x>|^(4095/2) with one weight 10^6 is about 10^12286
        a = ",".join(["1000000"] + ["1"] * 9)
        code, out, err = invoke(capsys, "moment", "--construct", "partition", "--n", "10",
                                "--p", "4095/2", "--a", a)
        assert code == 0, err
        value = json.loads(out)["value"]
        lo, hi = Decimal(value["lo"]), Decimal(value["hi"])
        assert lo <= hi and len(value["lo"].partition(".")[0]) > 12000


class TestBrokenPipe:
    def test_closed_reader_gives_no_traceback(self):
        # about 1.3 MB of rows, far beyond a pipe buffer, so that the writes
        # are still going when the reader closes its end
        src = str(Path(kwise.__file__).resolve().parents[1])
        proc = subprocess.Popen(
            [sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r}); "
             "from kwise.cli import main; main()",
             "sample", "--kind", "independent", "--n", "40", "--samples", "20000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        head = proc.stdout.read(100)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert len(head) == 100
        assert "Traceback" not in err and "BrokenPipeError" not in err


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("construct", "--construct", "xor", "--n", "3"),
            ("constant", "--n", "4", "--p", "4", "--k", "2"),
            ("sample", "--kind", "independent", "--n", "6", "--samples", "5", "--seed", "3"),
            ("estimate", "--kind", "partition", "--n", "6", "--p", "4", "--samples", "500"),
            ("table", "--n", "4", "--p", "2,4", "--k", "2"),
        ],
    )
    def test_identical_bytes_across_runs(self, capsys, argv):
        code1, out1, _ = invoke(capsys, *argv)
        code2, out2, _ = invoke(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2


class TestConstruct:
    def test_partition_masses(self, capsys):
        code, out, _ = invoke(capsys, "construct", "--construct", "partition", "--n", "4")
        assert code == 0
        data = json.loads(out)
        assert data["n"] == 4
        probs = [Fraction(atom["prob"]) for atom in data["atoms"]]
        assert sum(probs) == 1
        signs = {atom["signs"] for atom in data["atoms"]}
        assert "++++" in signs and "----" in signs
        assert len(signs) == 2 + 6


class TestVerify:
    def test_partition_is_threewise(self, capsys):
        code, out, _ = invoke(
            capsys, "verify", "--construct", "partition", "--n", "8", "--k", "3"
        )
        assert code == 0
        data = json.loads(out)
        assert data["k_verified"] == 3
        assert data["witness"] is None

    def test_partition_fails_fourwise_with_witness(self, capsys):
        code, out, _ = invoke(
            capsys, "verify", "--construct", "partition", "--n", "6", "--k", "4"
        )
        assert code == 0
        data = json.loads(out)
        assert data["k_verified"] == 3
        assert data["witness"] is not None


class TestMoment:
    def test_partition_fourth(self, capsys):
        code, out, _ = invoke(
            capsys, "moment", "--construct", "partition", "--n", "4", "--p", "4"
        )
        data = json.loads(out)
        assert data["value"] == "64/1"
        root2 = 2 ** 0.5
        assert float(data["ratio"]["lo"]) <= root2 <= float(data["ratio"]["hi"])

    def test_fractional_exponent_gives_enclosure(self, capsys):
        code, out, _ = invoke(
            capsys, "moment", "--construct", "partition", "--n", "4", "--p", "5/2"
        )
        data = json.loads(out)
        assert set(data["value"]) == {"lo", "hi", "bits"}
        assert float(data["value"]["lo"]) == pytest.approx(8.0)

    def test_custom_weights(self, capsys):
        code, out, _ = invoke(
            capsys,
            "moment", "--construct", "independent", "--n", "3", "--p", "2",
            "--a", "1,1/2,1/2",
        )
        data = json.loads(out)
        assert data["value"] == "3/2"


class TestBound:
    def test_haagerup_fourth(self, capsys):
        code, out, _ = invoke(capsys, "bound", "--kind", "haagerup", "--p", "4")
        data = json.loads(out)
        target = 3 ** 0.25
        assert float(data["value"]["lo"]) <= target <= float(data["value"]["hi"])

    def test_sharp_needs_n(self, capsys):
        code, _, err = invoke(capsys, "bound", "--kind", "sharp", "--p", "4")
        assert code == 1

    def test_interpolation(self, capsys):
        code, out, _ = invoke(
            capsys, "bound", "--kind", "interpolation", "--n", "8", "--p", "4", "--k", "4"
        )
        data = json.loads(out)
        assert float(data["value"]["lo"]) > 1.0


class TestConstant:
    def test_reduced_pairwise(self, capsys):
        code, out, _ = invoke(capsys, "constant", "--n", "4", "--p", "4", "--k", "2")
        data = json.loads(out)
        assert data["value"] == "64/1"
        root2 = 2 ** 0.5
        assert float(data["ratio"]["lo"]) <= root2 <= float(data["ratio"]["hi"])
        assert data["unique"] is True
        assert data["certificate_ok"] is True
        assert data["optimizer"]["q"] == ["1/8", "0/1", "3/4", "0/1", "1/8"]

    def test_full_agrees(self, capsys):
        code, out, _ = invoke(
            capsys, "constant", "--n", "4", "--p", "4", "--k", "2", "--full"
        )
        data = json.loads(out)
        assert data["value"] == "64/1"
        assert "atoms" in data["optimizer"]

    def test_full_with_weights(self, capsys):
        code, out, _ = invoke(
            capsys,
            "constant", "--n", "2", "--p", "4", "--k", "2", "--full", "--a", "1,2",
        )
        data = json.loads(out)
        assert code == 0
        # pairwise independence pins a 2-dim law to uniform, so the fourth
        # moment is the plain average (|1+2|^4 + |1-2|^4 + ...) / 4
        assert Fraction(data["value"]) == Fraction(41)

    def test_full_weight_dimension_mismatch_is_1(self, capsys):
        code, out, err = invoke(
            capsys, "constant", "--n", "3", "--p", "4", "--k", "2", "--full", "--a", "1,2"
        )
        assert code == 1
        assert out == ""
        assert "weight vector has dimension" in err

    def test_odd_dimension_note(self, capsys):
        code, out, _ = invoke(capsys, "constant", "--n", "5", "--p", "4", "--k", "2")
        data = json.loads(out)
        assert "note" in data


class TestSampleAndEstimate:
    def test_sample_rows(self, capsys):
        code, out, _ = invoke(
            capsys, "sample", "--kind", "partition", "--n", "4", "--samples", "3",
            "--seed", "5",
        )
        rows = json.loads(out)
        assert [r["draw"] for r in rows] == [0, 1, 2]
        for r in rows:
            assert len(r["signs"]) == 4
            assert set(r["signs"]) <= {"+", "-"}

    @pytest.mark.parametrize("kind,n,samples,seed,digests", [
        ("partition", 6, 1000, 5, ("458b07e9a2512ba6", "3357492b5c851888", "e91c7c506f0228f6")),
        ("xor", 3, 12, 0, ("c6c1712a9db62ade", "6ba9cbcdbcf35196", "54af523db9293c1c")),
        # draw numbers outgrow the "draw" heading; one-character signs pad
        ("independent", 1, 10001, 8, ("207761e8d8b866fe", "52b15d4ca3fb2ad6", "bc49f525f9c6ff1e")),
        ("independent", 63, 3, 0, ("bee770301ea3a853", "b3d9d847aec0a495", "d05e98f0611aeaab")),
    ])
    def test_sample_bytes_equal_the_row_list_rendering(self, capsys, kind, n, samples, seed,
                                                       digests):
        # the digests were recorded when every row was built before printing
        stream = Stream(StreamSpec(kind, n, seed))
        rows = [{"draw": i, "signs": str(stream.draw())} for i in range(samples)]
        for fmt, digest in zip(("json", "csv", "table"), digests):
            code, out, _ = invoke(capsys, "sample", "--kind", kind, "--n", str(n),
                                  "--samples", str(samples), "--seed", str(seed),
                                  "--format", fmt)
            assert code == 0
            _emit(rows, fmt)
            assert out == capsys.readouterr().out
            assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest

    @pytest.mark.parametrize("fmt", ["json", "table"])
    def test_sample_memory_does_not_grow_with_draws(self, fmt):
        class Sink(io.TextIOBase):
            def write(self, text):
                return len(text)

        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(Sink()):
                code = run(["sample", "--kind", "independent", "--n", "8",
                            "--samples", "100000", "--format", fmt])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        # building every row before printing peaked at 36 MB (json) and 45 MB (table)
        assert peak < 2_000_000

    @pytest.mark.parametrize("fmt", ["json", "csv", "table"])
    def test_sample_writes_rows_in_blocks(self, fmt):
        class Sink(io.TextIOBase):
            writes = 0

            def write(self, text):
                self.writes += 1
                return len(text)

        sink = Sink()
        with contextlib.redirect_stdout(sink):
            code = run(["sample", "--kind", "independent", "--n", "8", "--samples", "100000",
                        "--format", fmt])
        assert code == 0
        # one print per row made at least 100000 writes
        assert sink.writes <= 100

    def test_estimate_matches_library(self, capsys):
        code, out, _ = invoke(
            capsys, "estimate", "--kind", "partition", "--n", "8", "--p", "4",
            "--samples", "500", "--seed", "0",
        )
        data = json.loads(out)
        direct = estimate_moment(StreamSpec("partition", 8, 0), None, 4, 500)
        assert float(data["mean"]) == direct.mean
        assert float(data["std_error"]) == direct.std_error
        assert data["samples"] == 500


class TestTable:
    def test_sweep_invariants(self, capsys):
        code, out, _ = invoke(capsys, "table", "--n", "4,6,8", "--p", "2,4", "--k", "2,3,4")
        rows = json.loads(out)
        assert code == 0
        seen = {(r["n"], r["p"], r["k"]) for r in rows}
        assert (4, "4/1", 2) in seen
        assert len(seen) == len(rows) == 3 * 2 * 3
        for r in rows:
            lo, hi = float(r["ratio_lo"]), float(r["ratio_hi"])
            assert lo <= hi
            # the independent-sum constant sits below the pairwise ratio
            # once the dimension passes it (n >= 4 suffices at p = 4)
            if r["k"] == 2 and r["p"] == "4/1" and r["n"] >= 4:
                assert float(r["haagerup"]) <= hi + 1e-12
            if r["sharp"] is not None:
                assert r["n"] % 2 == 0 and r["k"] in (2, 3)
                assert hi <= float(r["sharp"]) + 1e-12
            if r["interpolation"] is not None:
                assert r["k"] % 2 == 0 and Fraction(r["p"]) >= r["k"]

    def test_grid_over_the_cap_is_usage_error(self, capsys, monkeypatch):
        import kwise.cli as cli

        def no_solve(*args, **kwargs):
            raise AssertionError("a refused grid must not be solved")

        monkeypatch.setattr(cli, "solve_reduced", no_solve)
        ns = ",".join(["4"] * (MAX_TABLE_CELLS + 1))  # one cell over, at the default --k 2
        t0 = time.perf_counter()
        code, out, err = invoke(capsys, "table", "--n", ns, "--p", "4")
        assert time.perf_counter() - t0 < 1
        assert code == 2
        assert out == ""
        assert "usage:" in err and str(MAX_TABLE_CELLS) in err

    def test_grid_over_the_entry_budget_is_usage_error(self, capsys, monkeypatch):
        import kwise.cli as cli

        def no_solve(*args, **kwargs):
            raise AssertionError("a refused grid must not be solved")

        monkeypatch.setattr(cli, "solve_reduced", no_solve)
        per_cell = (8 + 1) * (128 + 1)  # entries of the n = 128, k = 8 program
        cells = MAX_TABLE_ENTRIES // per_cell + 1
        assert cells <= MAX_TABLE_CELLS and cells * per_cell - per_cell <= MAX_TABLE_ENTRIES
        t0 = time.perf_counter()
        code, out, err = invoke(capsys, "table", "--n", ",".join(["128"] * cells), "--p", "4", "--k", "8")
        assert time.perf_counter() - t0 < 1
        assert code == 2
        assert out == ""
        assert "usage:" in err and str(MAX_TABLE_ENTRIES) in err

    def test_even_n_sweep_is_within_the_entry_budget(self, capsys, monkeypatch):
        # even n up to 128, eight p and k = 1..8: 1.48 M entries
        import kwise.cli as cli

        def reached(*args, **kwargs):
            raise ValueError("solve reached")

        monkeypatch.setattr(cli, "solve_reduced", reached)
        code, out, err = invoke(capsys, "table", "--n", ",".join(map(str, range(2, 129, 2))),
                                "--p", "2,3,4,5,6,7/2,9/2,8", "--k", "1,2,3,4,5,6,7,8")
        assert (code, out, err) == (1, "", "error: solve reached\n")

    def test_grid_at_the_cap_is_admitted(self, capsys):
        # every cell has k > n, so the admitted grid solves nothing
        ns = ",".join(["1"] * MAX_TABLE_CELLS)
        code, out, _ = invoke(capsys, "table", "--n", ns, "--p", "4")
        assert code == 0
        assert json.loads(out) == []

    def test_haagerup_once_per_exponent(self, capsys, monkeypatch):
        import kwise.cli as cli
        from kwise.bounds import haagerup_constant

        argv = ("table", "--n", "4,6,8", "--p", "2,4,7/2", "--k", "2,3")
        _, plain, _ = invoke(capsys, *argv)
        calls = []

        def counted(p, *rest):
            calls.append(p)
            return haagerup_constant(p, *rest)

        monkeypatch.setattr(cli, "haagerup_constant", counted)
        code, out, _ = invoke(capsys, *argv)
        assert code == 0
        assert out == plain
        assert sorted(calls) == [Fraction(2), Fraction(7, 2), Fraction(4)]
        for r in json.loads(out):
            lo = haagerup_constant(Fraction(r["p"])).decimal_bounds(40)[0]
            assert r["haagerup"] == lo

    def test_k_above_n_skipped(self, capsys):
        code, out, _ = invoke(capsys, "table", "--n", "2", "--p", "2", "--k", "2,3")
        rows = json.loads(out)
        assert len(rows) == 1


class TestFormats:
    def test_csv_rows(self, capsys):
        code, out, _ = invoke(
            capsys, "table", "--n", "4", "--p", "2", "--k", "2", "--format", "csv"
        )
        lines = out.strip().split("\n")
        assert lines[0].startswith("n,p,k,value")
        assert len(lines) == 2

    def test_csv_of_single_dict_is_field_value(self, capsys):
        code, out, _ = invoke(
            capsys, "bound", "--kind", "haagerup", "--p", "4", "--format", "csv"
        )
        lines = out.strip().split("\n")
        assert lines[0] == "field,value"
        assert lines[1].startswith("kind,")

    def test_csv_quotes_commas(self, capsys):
        code, out, _ = invoke(
            capsys, "moment", "--construct", "partition", "--n", "4", "--p", "4",
            "--format", "csv",
        )
        lines = out.strip().split("\n")
        ratio_line = next(l for l in lines if l.startswith("ratio"))
        assert ratio_line.count('"') >= 2

    def test_table_format_aligns(self, capsys):
        code, out, _ = invoke(
            capsys, "table", "--n", "4,6", "--p", "2", "--k", "2", "--format", "table"
        )
        lines = out.strip().split("\n")
        assert lines[0].split()[:3] == ["n", "p", "k"]
        assert len(lines) == 3


# One process runs every argv in order; the digest covers each exit code and
# stdout, concatenated.  It covers every subcommand and format, the
# unreduced program with weights, a fractional p and an odd n, one usage
# error and one computation error.  Recorded at commit 9e1ca50.
GOLDEN_ARGV = (
    ("construct", "--construct", "partition", "--n", "6"),
    ("construct", "--construct", "xor", "--n", "3", "--format", "csv"),
    ("construct", "--construct", "independent", "--n", "3", "--format", "table"),
    ("verify", "--construct", "partition", "--n", "6", "--k", "3"),
    ("verify", "--construct", "xor", "--n", "3", "--k", "3", "--format", "csv"),
    ("moment", "--construct", "partition", "--n", "6", "--p", "4"),
    ("moment", "--construct", "independent", "--n", "4", "--p", "7/2", "--a", "1,2,1/2,3",
     "--format", "table"),
    ("bound", "--kind", "haagerup", "--p", "3"),
    ("bound", "--kind", "sharp", "--n", "8", "--p", "5/2", "--format", "csv"),
    ("bound", "--kind", "interpolation", "--n", "12", "--p", "6", "--k", "4", "--format", "table"),
    ("constant", "--n", "10", "--p", "4", "--k", "2"),
    ("constant", "--n", "64", "--p", "7/2", "--k", "3", "--format", "csv"),
    ("constant", "--full", "--n", "6", "--p", "4", "--k", "2"),
    ("constant", "--full", "--n", "5", "--p", "3", "--k", "2", "--a", "1,2,3,1/2,3/2"),
    ("constant", "--full", "--n", "6", "--p", "7/2", "--k", "3", "--format", "table"),
    ("constant", "--full", "--n", "7", "--p", "5", "--k", "4", "--format", "csv"),
    ("constant", "--full", "--n", "8", "--p", "5", "--k", "4"),
    ("sample", "--kind", "partition", "--n", "6", "--samples", "5", "--seed", "3"),
    ("sample", "--kind", "xor", "--n", "4", "--samples", "4", "--format", "csv"),
    ("sample", "--kind", "independent", "--n", "10", "--samples", "3", "--seed", "7",
     "--format", "table"),
    ("estimate", "--kind", "partition", "--n", "8", "--p", "4", "--samples", "500", "--seed", "1"),
    ("estimate", "--kind", "xor", "--n", "3", "--p", "5/2", "--a", "1,2,3,1/2,1,1,2,3",
     "--samples", "300", "--format", "csv"),
    ("estimate", "--kind", "independent", "--n", "12", "--p", "3", "--samples", "300",
     "--format", "table"),
    ("table", "--n", "4,6", "--p", "2,4", "--k", "2,3"),
    ("table", "--n", "5,8", "--p", "3,9/2", "--k", "2,4", "--format", "csv"),
    ("table", "--n", "6", "--p", "4", "--k", "1,2", "--format", "table"),
    ("constant", "--n", "4"),
    ("sample", "--kind", "xor", "--n", "7", "--samples", "1"),
)
GOLDEN_DIGEST = "721d6e92c560f7d8a77ddb8339a554be54ee5bdd6ca1673a4acbba2ec85c7633"


def test_golden_cli_bytes(capsys):
    h = hashlib.sha256()
    for argv in GOLDEN_ARGV:
        code, out, _ = invoke(capsys, *argv)
        h.update(f"{code}\n{out}".encode())
    assert h.hexdigest() == GOLDEN_DIGEST
