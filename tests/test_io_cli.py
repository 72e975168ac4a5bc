"""File formats (SDPA, instance JSON, traces) and the command-line frontend."""

import json
import pathlib

import numpy as np
import pytest
from click.testing import CliRunner

import swathscale as sw
import swathscale.generate
from swathscale.cli import main
from swathscale.errors import ParseError, RetryExhausted

SAMPLE_SDPA = """\
"a comment line
2
1
2
2.0 1.5
0 1 1 1 1.0
0 1 2 2 2.0
1 1 1 1 1.0
1 1 2 2 1.0
2 1 1 2 0.70710678118654752
"""


class TestSdpaParser:
    def test_sample(self):
        inst = sw.parse_sdpa(SAMPLE_SDPA)
        assert inst.n == 2 and inst.m == 2
        assert np.allclose(inst.C, np.diag([1.0, 2.0]))
        assert np.allclose(inst.constraints[0], np.eye(2))
        # off-diagonal entries mirror symmetrically
        assert inst.constraints[1][0, 1] == inst.constraints[1][1, 0]
        assert np.allclose(inst.b, [2.0, 1.5])

    def test_braces_and_commas_tolerated(self):
        text = SAMPLE_SDPA.replace("2.0 1.5", "{2.0, 1.5}")
        inst = sw.parse_sdpa(text)
        assert np.allclose(inst.b, [2.0, 1.5])

    def test_multiblock_concatenation(self):
        text = """\
1
2
2 -1
3.0
0 1 1 1 1.0
0 2 1 1 5.0
1 1 1 1 1.0
1 1 2 2 1.0
1 2 1 1 1.0
"""
        inst = sw.parse_sdpa(text)
        assert inst.n == 3
        assert inst.C[2, 2] == 5.0
        assert inst.metadata["block_sizes"] == [2, -1]

    @pytest.mark.parametrize(
        "mutation, lineno",
        [
            ("0 1 1 1", 6),  # wrong arity
            ("0 1 2 1 1.0", 6),  # not upper triangular
            ("9 1 1 1 1.0", 6),  # matrix number out of range
            ("0 7 1 1 1.0", 6),  # block number out of range
        ],
    )
    def test_entry_errors_carry_line_numbers(self, mutation, lineno):
        lines = SAMPLE_SDPA.splitlines()
        lines[5] = mutation
        with pytest.raises(ParseError) as err:
            sw.parse_sdpa("\n".join(lines))
        assert f"line {lineno}" in str(err.value)

    def test_diagonal_block_rejects_off_diagonal(self):
        text = """\
1
1
-2
1.0
0 1 1 2 1.0
1 1 1 1 1.0
"""
        with pytest.raises(ParseError):
            sw.parse_sdpa(text)

    def test_missing_constraint_entries(self):
        lines = [l for l in SAMPLE_SDPA.splitlines() if not l.startswith("2 ")]
        with pytest.raises(ParseError):
            sw.parse_sdpa("\n".join(lines))

    def test_roundtrip_bit_exact(self):
        inst, _ = sw.gen_central_path_sdp(4, 6, 1.0, 3)
        again = sw.parse_sdpa(sw.write_sdpa(inst))
        assert np.array_equal(inst.C, again.C)
        assert np.array_equal(inst.b, again.b)
        for A1, A2 in zip(inst.constraints, again.constraints):
            assert np.array_equal(A1, A2)


class TestHpJson:
    def test_roundtrip_bit_exact(self):
        inst, _ = sw.gen_hp_instance(sw.elementary_symmetric_family(6, 3), 3, 1.0, 1)
        again = sw.read_hp_json(sw.write_hp_json(inst, metadata={"tag": 1}))
        assert again.family == inst.family
        assert np.array_equal(again.c, inst.c)
        assert np.array_equal(again.A, inst.A)
        assert np.array_equal(again.b, inst.b)
        assert np.array_equal(again.e0, inst.e0)

    def test_malformed_raises(self):
        with pytest.raises(ParseError):
            sw.read_hp_json("{not json")
        with pytest.raises(ParseError):
            sw.read_hp_json(json.dumps({"family": {"name": "nope", "d": 3}}))

    def test_start_point_roundtrip(self):
        _, E0 = sw.gen_central_path_sdp(3, 2, 1.0, 0)
        again = sw.read_start_point(sw.write_start_point(E0))
        assert np.allclose(again, E0, atol=0)


class TestTracefile:
    def run_result(self):
        inst, E0 = sw.gen_central_path_sdp(4, 6, 1.0, 0)
        oracle = sw.det_barrier_oracle(4)
        config = sw.SolverConfig()
        res = sw.run(
            oracle, inst.constraint_rows(), inst.b, sw.svec(inst.C), sw.svec(E0), config
        )
        header = sw.trace_header("t", "sdp", config, 4, 6)
        return res, header

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_roundtrip_bit_exact(self, fmt):
        res, header = self.run_result()
        doc = sw.parse_trace(sw.export_trace(res, header, fmt))
        assert len(doc["rows"]) == res.iterations
        for row, rec in zip(doc["rows"], res.trace):
            assert row["k"] == rec.k
            assert row["gap"] == rec.gap  # exact float equality through text
            assert row["qtilde_a"] == rec.qtilde[0]
        assert doc["footer"]["status"] == res.status.value
        assert doc["header"]["alpha"] == 0.5

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            sw.parse_trace("")
        res, header = self.run_result()
        text = sw.export_trace(res, header, "csv")
        lines = text.splitlines()
        lines[len(header) + 1] += ",extra"
        with pytest.raises(ParseError):
            sw.parse_trace("\n".join(lines))


class TestCli:
    def test_generate_solve_roundtrip(self, tmp_path):
        runner = CliRunner()
        out = tmp_path / "inst.dat-s"
        r = runner.invoke(
            main, ["generate", "sdp", "--n", "4", "--m", "6", "--seed", "0", "--out", str(out)]
        )
        assert r.exit_code == 0, r.output
        assert out.exists() and (tmp_path / "inst.start.json").exists()

        trace = tmp_path / "trace.json"
        r = runner.invoke(
            main, ["solve", str(out), "--trace", str(trace), "--format", "json"]
        )
        assert r.exit_code == 0, r.output
        assert "status=converged" in r.output
        doc = sw.parse_trace(trace.read_text())
        assert doc["footer"]["status"] == "converged"

    def test_solve_hp_instance(self, tmp_path):
        runner = CliRunner()
        out = tmp_path / "hp.json"
        r = runner.invoke(
            main,
            [
                "generate", "hp", "--family", "second_order",
                "--n", "8", "--m", "4", "--seed", "1", "--out", str(out),
            ],
        )
        assert r.exit_code == 0, r.output
        r = runner.invoke(main, ["solve", str(out)])
        assert r.exit_code == 0, r.output
        assert "status=converged" in r.output

    def test_missing_sidecar_is_parse_error(self, tmp_path):
        path = tmp_path / "alone.dat-s"
        inst, _ = sw.gen_central_path_sdp(3, 2, 1.0, 0)
        path.write_text(sw.write_sdpa(inst))
        r = CliRunner().invoke(main, ["solve", str(path)])
        assert r.exit_code == 4

    def test_malformed_instance_is_parse_error(self, tmp_path):
        path = tmp_path / "bad.dat-s"
        path.write_text("not a number\n")
        (tmp_path / "bad.start.json").write_text('{"E0": [[1.0]]}')
        r = CliRunner().invoke(main, ["solve", str(path)])
        assert r.exit_code == 4

    def test_not_in_swath_exit_code(self, tmp_path):
        # Replace the planted objective with a random one: relaxation recedes.
        inst, E0 = sw.gen_central_path_sdp(3, 2, 1.0, 0)
        rng = np.random.default_rng(0)
        M = rng.standard_normal((3, 3))
        bad = sw.SdpInstance(
            C=0.5 * (M + M.T), constraints=inst.constraints, b=inst.b
        )
        path = tmp_path / "recede.dat-s"
        path.write_text(sw.write_sdpa(bad))
        (tmp_path / "recede.start.json").write_text(sw.write_start_point(E0))
        r = CliRunner().invoke(main, ["solve", str(path)])
        assert r.exit_code == 2

    def test_max_iters_exit_code(self, tmp_path):
        runner = CliRunner()
        out = tmp_path / "inst.dat-s"
        runner.invoke(
            main, ["generate", "sdp", "--n", "4", "--m", "6", "--seed", "0", "--out", str(out)]
        )
        r = runner.invoke(main, ["solve", str(out), "--max-iters", "2"])
        assert "status=max_iters" in r.output
        assert r.exit_code == 3

    @staticmethod
    def write_bad_start(tmp_path, start):
        """An SDP instance whose start point is infeasible or not interior."""
        inst, E0 = sw.gen_central_path_sdp(4, 6, 1.0, 0)
        if start == "infeasible":
            E = 2.0 * E0  # positive definite, but A e != b
        else:
            # Feasible but indefinite: move far along a null direction of A.
            null = np.linalg.svd(inst.constraint_rows())[2][-1]
            D = sw.smat(null)
            if np.linalg.eigvalsh(D)[0] >= 0.0:
                D = -D
            E = E0 + (2.0 * np.linalg.eigvalsh(E0)[-1] / -np.linalg.eigvalsh(D)[0]) * D
            assert np.linalg.eigvalsh(E)[0] < 0.0
        path = tmp_path / "bad.dat-s"
        path.write_text(sw.write_sdpa(inst))
        (tmp_path / "bad.start.json").write_text(sw.write_start_point(E))
        return path

    @pytest.mark.parametrize("start", ["infeasible", "not_interior"])
    def test_bad_start_point_exit_code(self, tmp_path, start):
        path = self.write_bad_start(tmp_path, start)
        r = CliRunner().invoke(main, ["solve", str(path)])
        assert r.exit_code == 2, r.output
        assert "error:" in r.output

    @pytest.mark.parametrize("start", ["infeasible", "not_interior"])
    def test_reduce_alpha_bad_start_point_exit_code(self, tmp_path, start):
        path = self.write_bad_start(tmp_path, start)
        r = CliRunner().invoke(
            main, ["reduce-alpha", str(path), "--alpha0", "0.9", "--target", "0.3"]
        )
        assert r.exit_code == 2, r.output
        assert "error:" in r.output

    @pytest.mark.parametrize(
        "command, options",
        [
            ("solve", ["--alpha", "1.5"]),
            ("solve", ["--tol", "-1"]),
            ("reduce-alpha", ["--alpha0", "1.5", "--target", "0.3"]),
            ("reduce-alpha", ["--alpha0", "0.3", "--target", "0.9"]),
        ],
        ids=["solve-alpha", "solve-tol", "reduce-alpha0", "reduce-target"],
    )
    def test_bad_option_is_input_error(self, tmp_path, command, options):
        runner = CliRunner()
        out = tmp_path / "inst.dat-s"
        runner.invoke(
            main, ["generate", "sdp", "--n", "4", "--m", "6", "--seed", "0", "--out", str(out)]
        )
        r = runner.invoke(main, [command, str(out), *options])
        assert r.exit_code == 4, r.output
        assert "error:" in r.output

    @pytest.mark.parametrize(
        "args",
        [
            ["sdp", "--n", "1", "--m", "1"],  # InvariantViolation
            ["hp", "--family", "elementary_symmetric", "--n", "6", "--m", "3"],  # no --k
        ],
        ids=["order-1", "esym-without-k"],
    )
    def test_generate_input_error_exit_code(self, tmp_path, args):
        r = CliRunner().invoke(
            main, ["generate", *args, "--seed", "0", "--out", str(tmp_path / "x")]
        )
        assert r.exit_code == 4, r.output
        assert "error:" in r.output

    def test_generate_retry_exhausted_exit_code(self, tmp_path, monkeypatch):
        def exhausted(*args, **kwargs):
            raise RetryExhausted("no independent constraint set found")

        monkeypatch.setattr(swathscale.generate, "gen_central_path_sdp", exhausted)
        r = CliRunner().invoke(
            main, ["generate", "sdp", "--n", "4", "--m", "6", "--seed", "0",
                   "--out", str(tmp_path / "x")]
        )
        assert r.exit_code == 3, r.output

    def test_reduce_alpha(self, tmp_path):
        runner = CliRunner()
        out = tmp_path / "inst.dat-s"
        runner.invoke(
            main, ["generate", "sdp", "--n", "4", "--m", "6", "--seed", "2", "--out", str(out)]
        )
        r = runner.invoke(
            main, ["reduce-alpha", str(out), "--alpha0", "0.9", "--target", "0.3"]
        )
        assert r.exit_code == 0, r.output
        assert "in_swath(target)=True" in r.output

    def test_validate_all_pass(self, tmp_path):
        runner = CliRunner()
        out = tmp_path / "inst.dat-s"
        runner.invoke(
            main, ["generate", "sdp", "--n", "4", "--m", "6", "--seed", "3", "--out", str(out)]
        )
        r = runner.invoke(main, ["validate", str(out), "--checks", "all"])
        assert r.exit_code == 0, r.output
        assert "FAIL" not in r.output
