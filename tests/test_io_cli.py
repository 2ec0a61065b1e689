"""File formats and the command-line contract (exit codes 0/1/2/3)."""

import argparse
import json
import shlex
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ttkit import cli, io
from ttkit.tt import TensorTrain, TensorTrainOperator, identity_mpo, tt_to_dense

RUN = [sys.executable, "-m", "ttkit"]
README = Path(__file__).resolve().parents[1] / "README.md"
# Values for the README's placeholders; "a|b" choices take their first option.
README_PLACEHOLDERS = {"N": "4", "T": "0.5", "B": "2"}


def run_cli(*args):
    return subprocess.run(RUN + list(args), capture_output=True, text=True)


class TestTensorFiles:
    def test_text_binary_roundtrips_are_value_exact(self, tmp_path):
        rng = np.random.default_rng(90)
        tensors = [
            rng.normal(size=(3, 4, 2)),
            np.array(7.25),
            np.array([0.0, -0.0, 1e-308, 1e308, 1.0 / 3.0, -2.5e-17]),
        ]
        for i, t in enumerate(tensors):
            txt = tmp_path / f"t{i}.json"
            bin1 = tmp_path / f"t{i}.ttk"
            bin2 = tmp_path / f"t{i}b.ttk"
            io.write_tensor(bin1, t)
            a = io.read_tensor(bin1)
            io.write_tensor(txt, a)
            b = io.read_tensor(txt)
            io.write_tensor(bin2, b)
            c = io.read_tensor(bin2)
            assert a.shape == b.shape == c.shape == t.shape
            assert np.array_equal(a, t)
            assert np.array_equal(b, t)
            assert np.array_equal(c, t)
            assert np.array_equal(np.signbit(c), np.signbit(t))

    def test_binary_layout(self, tmp_path):
        path = tmp_path / "x.ttk"
        io.write_tensor(path, np.array([[1.5, -2.0]]))
        raw = path.read_bytes()
        assert raw[:4] == b"TTKT"
        assert raw[4] == 1
        assert struct.unpack_from("<I", raw, 5)[0] == 2
        assert struct.unpack_from("<2Q", raw, 9) == (1, 2)
        assert struct.unpack_from("<2d", raw, 25) == (1.5, -2.0)
        assert len(raw) == 25 + 16

    def test_malformed_binary(self, tmp_path):
        good = tmp_path / "good.ttk"
        io.write_tensor(good, np.ones((2, 2)))
        raw = good.read_bytes()
        cases = {
            "truncated": raw[:-4],
            "trailing": raw + b"\x00" * 8,
            "bad_version": raw[:4] + b"\x09" + raw[5:],
        }
        for name, payload in cases.items():
            p = tmp_path / f"{name}.ttk"
            p.write_bytes(payload)
            with pytest.raises(io.FormatError):
                io.read_tensor(p)

    def test_malformed_text(self, tmp_path):
        cases = {
            "not_json": "{oops",
            "wrong_keys": json.dumps({"shape": [2], "data": [1, 2]}),
            "length_mismatch": json.dumps({"dims": [3], "data": [1.0, 2.0]}),
            "zero_dim": json.dumps({"dims": [0], "data": []}),
            "bad_data": json.dumps({"dims": [2], "data": [1.0, "x"]}),
        }
        for name, payload in cases.items():
            p = tmp_path / f"{name}.json"
            p.write_text(payload)
            with pytest.raises(io.FormatError):
                io.read_tensor(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(io.FormatError):
            io.read_tensor(tmp_path / "nope.json")


class TestTrainFiles:
    def test_mps_roundtrip(self, tmp_path):
        rng = np.random.default_rng(91)
        train = TensorTrain(
            [rng.normal(size=(1, 2, 3)), rng.normal(size=(3, 4, 2)), rng.normal(size=(2, 2, 1))]
        )
        path = tmp_path / "train.json"
        io.write_train(path, train)
        back = io.read_train(path)
        assert isinstance(back, TensorTrain)
        assert back.phys_dims == train.phys_dims
        assert back.bond_dims == train.bond_dims
        for a, b in zip(back.cores, train.cores):
            assert np.array_equal(a, b)

    def test_mpo_roundtrip(self, tmp_path):
        rng = np.random.default_rng(92)
        op = TensorTrainOperator(
            [rng.normal(size=(1, 2, 3, 2)), rng.normal(size=(2, 2, 2, 1))]
        )
        path = tmp_path / "op.json"
        io.write_train(path, op)
        back = io.read_train(path)
        assert isinstance(back, TensorTrainOperator)
        assert back.in_dims == op.in_dims and back.out_dims == op.out_dims

    def test_declared_dims_must_match_cores(self, tmp_path):
        train = TensorTrain([np.ones((1, 2, 1))])
        obj = io.train_to_obj(train)
        obj["phys_dims"] = [3]
        path = tmp_path / "bad.json"
        io.write_json(path, obj)
        with pytest.raises(io.FormatError):
            io.read_train(path)

    def test_adjacency_violation(self, tmp_path):
        obj = {
            "kind": "mps",
            "phys_dims": [2, 2],
            "bond_dims": [2],
            "cores": [
                {"dims": [1, 2, 2], "data": [1.0] * 4},
                {"dims": [3, 2, 1], "data": [1.0] * 6},
            ],
        }
        path = tmp_path / "bad.json"
        io.write_json(path, obj)
        with pytest.raises(io.FormatError):
            io.read_train(path)


class TestProblemFiles:
    def test_qudo_parse(self, tmp_path):
        path = tmp_path / "p.json"
        io.write_json(
            path,
            {"n": 2, "d": 2, "v": [[0.0, 1.0], [0.0, -1.0]], "w": [[[0.0, 0.0], [0.0, -3.0]]]},
        )
        kind, problem = io.read_problem(path)
        assert kind == "qudo"
        assert problem.n == 2 and problem.d == 2
        assert problem.cost((1, 1)) == pytest.approx(-3.0)

    def test_tsp_parse(self, tmp_path):
        path = tmp_path / "t.json"
        io.write_json(path, {"cost_matrix": [[0.0, 1.0], [2.0, 0.0]], "variant": "open"})
        kind, (costs, variant) = io.read_problem(path)
        assert kind == "tsp" and variant == "open"
        assert costs.shape == (2, 2)

    def test_malformed_problems(self, tmp_path):
        cases = [
            {"n": 2, "d": 2, "v": [[0, 1]], "w": []},  # table count
            {"n": 2, "d": 2, "v": [[0, 1], [0, 1]], "w": [[[0, 0]]]},  # coupling shape
            {"cost_matrix": [[0, 1]], "variant": "closed"},  # not square
            {"cost_matrix": [[0, 1], [1, 0]], "variant": "loop"},  # variant
            {"n": 1, "d": 1, "v": [[0]], "w": []},  # cardinality
            {"n": 3, "d": 2, "v": [[0, 1], [0, 1]], "w": [[[0, 0], [0, 0]]]},  # declared n
        ]
        for i, obj in enumerate(cases):
            path = tmp_path / f"bad{i}.json"
            io.write_json(path, obj)
            with pytest.raises(io.FormatError):
                io.read_problem(path)


class TestCliContract:
    def test_compress_reconstruct_roundtrip(self, tmp_path):
        rng = np.random.default_rng(93)
        t = rng.normal(size=(4, 4, 4))
        src = tmp_path / "in.ttk"
        io.write_tensor(src, t)
        train_path = tmp_path / "train.json"
        out_path = tmp_path / "out.json"
        report = tmp_path / "report.txt"
        r = run_cli(
            "compress", "--input", str(src), "--output", str(train_path),
            "--report", str(report),
        )
        assert r.returncode == 0, r.stderr
        r = run_cli("reconstruct", "--input", str(train_path), "--output", str(out_path))
        assert r.returncode == 0, r.stderr
        back = io.read_tensor(out_path)
        assert np.linalg.norm(back - t) <= 1e-10 * np.linalg.norm(t)
        text = report.read_text()
        assert "dense_params = 64" in text
        # reconstruct goes through the same densification as the library
        lib = tt_to_dense(io.read_train(train_path))
        assert np.array_equal(back, lib)

    def test_constant_tensor_report(self, tmp_path):
        src = tmp_path / "const.ttk"
        io.write_tensor(src, np.full((2,) * 8, 1.5))
        report = tmp_path / "rep.txt"
        r = run_cli(
            "compress", "--input", str(src), "--output", str(tmp_path / "t.json"),
            "--report", str(report),
        )
        assert r.returncode == 0
        lines = dict(
            line.split(" = ", 1) for line in report.read_text().splitlines() if " = " in line
        )
        assert float(lines["ratio"]) < 0.1
        assert float(lines["relative_error"]) <= 1e-12

    def test_usage_errors_exit_1(self, tmp_path):
        src = tmp_path / "t.json"
        io.write_tensor(src, np.ones(4))
        cases = [
            ["compress", "--input", str(src), "--output", "o.json", "--max-bond", "0"],
            ["compress", "--input", str(src), "--output", "o.json", "--tol", "-1"],
            ["compress"],  # missing required flags
            ["reconstruct", "--input", str(src), "--output", "o.json", "--dense-cap", "0"],
            ["qudo-solve", "--problem", str(src), "--readout", "magic"],
            ["qudo-solve", "--problem", str(src), "--tau", "0"],
            ["qudo-solve", "--problem", str(src), "--tau", "nan"],
            ["qudo-solve", "--problem", str(src), "--dense-cap", "0"],
            # The chain QUDO state is never rounded, so it takes no truncation flags.
            ["qudo-solve", "--problem", str(src), "--max-bond", "2"],
            ["qudo-solve", "--problem", str(src), "--tol", "0.1"],
            ["tsp-solve", "--problem", str(src), "--max-bond", "0"],
            ["tsp-solve", "--problem", str(src), "--tol", "-1"],
            ["no-such-command"],
        ]
        for args in cases:
            r = run_cli(*args)
            assert r.returncode == 1, (args, r.returncode, r.stderr)

    def test_malformed_inputs_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        missing = tmp_path / "missing.json"
        vec = tmp_path / "vec.json"
        io.write_tensor(vec, np.ones(3))
        qudo = tmp_path / "qudo.json"
        io.write_json(qudo, {"n": 2, "d": 2, "v": [[0, 0], [0, 0]], "w": [[[0, 0], [0, 0]]]})
        mpo = tmp_path / "mpo.json"
        io.write_train(mpo, identity_mpo([2] * 6))
        matrix = tmp_path / "matrix.json"
        io.write_tensor(matrix, np.ones((2, 3)))
        # JSON true/false where numbers belong; numpy would read them as 1 and 0.
        bool_dims = tmp_path / "bool_dims.json"
        io.write_json(bool_dims, {"dims": [True, 2], "data": [1.0, 2.0]})
        bool_data = tmp_path / "bool_data.json"
        io.write_json(bool_data, {"dims": [2], "data": [True, False]})
        bool_core = tmp_path / "bool_core.json"
        io.write_json(bool_core, {"kind": "mps", "phys_dims": [2], "bond_dims": [],
                                  "cores": [{"dims": [True, 2, 1], "data": [1.0, 2.0]}]})
        bool_meta = tmp_path / "bool_meta.json"
        io.write_json(bool_meta, {"kind": "mps", "phys_dims": [True, 2], "bond_dims": [True],
                                  "cores": [{"dims": [1, 1, 1], "data": [1.0]},
                                            {"dims": [1, 2, 1], "data": [1.0, 2.0]}]})
        # Dims whose element count wraps around in int64 arithmetic.
        huge_json = tmp_path / "huge.json"
        io.write_json(huge_json, {"dims": [2**32, 2**32], "data": []})
        huge_bin = tmp_path / "huge.ttk"
        huge_bin.write_bytes(io.MAGIC + bytes([io.VERSION]) + struct.pack("<I2Q", 2, 2**32, 2**32))
        # A train whose "cores" is not a list.
        bad_cores = []
        for i, cores in enumerate([None, 3, True]):
            path = tmp_path / f"bad_cores{i}.json"
            io.write_json(path, {"kind": "mpo", "phys_dims": [[2, 2]], "bond_dims": [],
                                 "cores": cores})
            bad_cores.append(path)
        bool_problems = [
            {"n": True, "d": 2, "v": [[0, 1]], "w": []},
            {"n": 2, "d": 2, "v": [[0, True], [0, 0]], "w": [[[0, 0], [0, 0]]]},
            {"n": 2, "d": 2, "v": [[0, 1], [0, 0]], "w": [[[0, 0], [False, 0]]]},
            {"cost_matrix": [[0, True], [1, 0]], "variant": "closed"},
        ]
        cases = [
            ["compress", "--input", str(bool_dims), "--output", str(tmp_path / "x.json")],
            ["compress", "--input", str(bool_data), "--output", str(tmp_path / "x.json")],
            ["reconstruct", "--input", str(bool_core), "--output", str(tmp_path / "x.json")],
            ["reconstruct", "--input", str(bool_meta), "--output", str(tmp_path / "x.json")],
            ["kernel-apply", "--mpo", str(mpo), "--input-vector", str(matrix),
             "--output", str(tmp_path / "x.json")],
        ]
        for i, obj in enumerate(bool_problems):
            path = tmp_path / f"bool_problem{i}.json"
            io.write_json(path, obj)
            kind = "tsp" if "cost_matrix" in obj else "qudo"
            cases.append([f"{kind}-solve", "--problem", str(path),
                          "--output", str(tmp_path / "x.json")])
        for path in bad_cores:
            cases += [
                ["reconstruct", "--input", str(path), "--output", str(tmp_path / "x.json")],
                ["kernel-apply", "--mpo", str(path), "--input-vector", str(vec),
                 "--output", str(tmp_path / "x.json")],
            ]
        cases += [
            ["compress", "--input", str(huge_json), "--output", str(tmp_path / "x.json")],
            ["compress", "--input", str(huge_bin), "--output", str(tmp_path / "x.json")],
            ["compress", "--input", str(bad), "--output", str(tmp_path / "x.json")],
            ["compress", "--input", str(missing), "--output", str(tmp_path / "x.json")],
            ["reconstruct", "--input", str(vec), "--output", str(tmp_path / "x.json")],
            ["compress", "--input", str(vec), "--output", str(tmp_path / "x.json"),
             "--factor-dims", "2,2"],
            ["tsp-solve", "--problem", str(qudo), "--output", str(tmp_path / "x.json")],
            ["oracle", "tsp", "--problem", str(qudo)],
            ["kernel-apply", "--mpo", str(vec), "--input-vector", str(vec),
             "--output", str(tmp_path / "x.json")],
        ]
        for args in cases:
            r = run_cli(*args)
            assert r.returncode == 2, (args, r.returncode, r.stderr)
            assert "Traceback" not in r.stderr, (args, r.stderr)

    def test_numerical_and_capacity_exit_3(self, tmp_path):
        nan_t = tmp_path / "nan.json"
        io.write_tensor(nan_t, np.array([np.nan, 1.0]))
        big_train = tmp_path / "big.json"
        io.write_json(
            big_train,
            {
                "kind": "mps",
                "phys_dims": [2] * 30,
                "bond_dims": [1] * 29,
                "cores": [{"dims": [1, 2, 1], "data": [1.0, 1.0]}] * 30,
            },
        )
        big_qudo = tmp_path / "qudo23.json"
        io.write_json(
            big_qudo,
            {"n": 23, "d": 2, "v": [[0, 1]] * 23, "w": [[[0, 0], [0, 0]]] * 22},
        )
        # A closed tour's start takes no site: 9 nodes densify 8^8 > 2^22.
        tour9 = tmp_path / "tsp9.json"
        io.write_json(tour9, {"cost_matrix": np.ones((9, 9)).tolist(), "variant": "closed"})
        # Finite costs whose spread overflows float64: the default tau would be 0.
        wide_qudo = tmp_path / "wide_qudo.json"
        io.write_json(wide_qudo, {"n": 3, "d": 2, "v": [[1e308, -1e308], [0, 1], [0.5, 0]],
                                  "w": [[[0, 0], [0, 0]]] * 2})
        wide_tour = tmp_path / "wide_tour.json"
        legs = [[0, 1, 1, 1], [1, 0, 1e308, 1], [1, 1, 0, 1e308], [1e308, 1, 1, 0]]
        io.write_json(wide_tour, {"cost_matrix": legs, "variant": "closed"})
        # Inputs whose computation overflows on the way to a non-finite
        # result: each is still one error line, with no numpy warnings.
        huge_t = tmp_path / "huge.json"
        io.write_tensor(huge_t, np.array([[1e200, 4e180], [3.0, 1.0]]))
        huge_mpo = tmp_path / "huge_mpo.json"
        io.write_train(huge_mpo, TensorTrainOperator([np.full((1, 2, 1, 1), 1e200)] * 3))
        ones = tmp_path / "ones.json"
        io.write_tensor(ones, np.ones(3))
        # A bond-1 operator of 23 sites with two outputs each: 2^23 outputs,
        # twice the dense cap, from a file of a few KB.
        wide_mpo = tmp_path / "wide_mpo.json"
        io.write_train(wide_mpo, TensorTrainOperator([np.ones((1, 2, 2, 1))] * 23))
        ones23 = tmp_path / "ones23.json"
        io.write_tensor(ones23, np.ones(23))
        edge_qudo = tmp_path / "edge_qudo.json"
        io.write_json(edge_qudo, {"n": 3, "d": 2, "v": [[1e308, 1e308], [0.3, 0.2], [-1e308, -1e308]],
                                  "w": [[[0.1, 0.2], [0.3, 0.4]], [[0.05, 0.15], [0.25, 0.35]]]})
        cases = [
            ["compress", "--input", str(huge_t), "--output", str(tmp_path / "x.json"),
             "--max-bond", "1"],
            ["kernel-apply", "--mpo", str(huge_mpo), "--input-vector", str(ones),
             "--output", str(tmp_path / "x.json")],
            ["reconstruct", "--input", str(huge_mpo), "--output", str(tmp_path / "x.json")],
            ["qudo-solve", "--problem", str(edge_qudo), "--output", str(tmp_path / "x.json")],
            ["compress", "--input", str(nan_t), "--output", str(tmp_path / "x.json")],
            ["reconstruct", "--input", str(big_train), "--output", str(tmp_path / "x.json")],
            ["qudo-solve", "--problem", str(big_qudo), "--output", str(tmp_path / "x.json")],
            ["tsp-solve", "--problem", str(tour9), "--output", str(tmp_path / "x.json")],
            ["qudo-solve", "--problem", str(wide_qudo), "--output", str(tmp_path / "x.json")],
            ["tsp-solve", "--problem", str(wide_tour), "--output", str(tmp_path / "x.json")],
            ["kernel-apply", "--mpo", str(wide_mpo), "--input-vector", str(ones23),
             "--output", str(tmp_path / "x.json")],
        ]
        for args in cases:
            r = run_cli(*args)
            assert r.returncode == 3, (args, r.returncode, r.stderr)
            assert len(r.stderr.splitlines()) == 1, (args, r.stderr)
            assert not (tmp_path / "x.json").exists(), args

    def test_one_parser_serves_every_call(self, tmp_path):
        # The parser is built once per process; repeated in-process calls
        # keep the exit codes of separate runs and share no flag values.
        src = tmp_path / "t.json"
        io.write_tensor(src, np.ones(4))
        out = tmp_path / "o.json"
        assert cli.build_parser() is cli.build_parser()
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                cli.main(["compress"])
            assert exc.value.code == 1
            argv = ["compress", "--input", str(src), "--output", str(out)]
            assert cli.main(argv + ["--max-bond", "3"]) == 0
            assert cli.build_parser().parse_args(argv).max_bond is None
            assert cli.main(["compress", "--input", str(tmp_path / "missing.json"),
                             "--output", str(out)]) == 2

    def test_readme_command_lines_match_the_parser(self):
        # Every ``ttkit ...`` line of the README parses with its optional
        # ``[...]`` parts included, and every subcommand has a line.
        parser = cli.build_parser()
        documented = set()
        for line in README.read_text(encoding="utf-8").splitlines():
            if not line.startswith("ttkit "):
                continue
            words = shlex.split(line.split("#")[0].replace("[", " ").replace("]", " "))
            argv = [README_PLACEHOLDERS.get(w, w.split("|")[0]) for w in words[1:]]
            try:
                documented.add(parser.parse_args(argv).command)
            except SystemExit:
                pytest.fail(f"README line does not parse: {line}")
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        assert documented == set(sub.choices)

    def test_no_partial_output_on_usage_error(self, tmp_path):
        # Every input path is missing, so exit 1 shows that the flags are
        # checked before anything is read.
        out = tmp_path / "out.json"
        missing = str(tmp_path / "missing.json")
        cases = [
            ["compress", "--input", missing, "--max-bond", "0"],
            ["compress", "--input", missing, "--factor-dims", "2,0"],
            ["compress", "--input", missing, "--factor-dims", "2,x"],
            ["layer-compress", "--matrix", missing, "--bias", missing, "--sites", "0"],
        ]
        for args in cases:
            r = run_cli(*args, "--output", str(out))
            assert r.returncode == 1, (args, r.returncode, r.stderr)
            assert not out.exists(), args

    def test_solver_oracle_agree_end_to_end(self, tmp_path):
        prob = tmp_path / "p.json"
        io.write_json(
            prob,
            {"n": 2, "d": 2, "v": [[0.0, 1.0], [0.0, -1.0]], "w": [[[0.0, 0.0], [0.0, -3.0]]]},
        )
        sol_path = tmp_path / "sol.json"
        r = run_cli("qudo-solve", "--problem", str(prob), "--tau", "1.0",
                    "--output", str(sol_path))
        assert r.returncode == 0, r.stderr
        sol = json.loads(sol_path.read_text())
        assert sol["configuration"] == [1, 1]
        assert sol["cost"] == pytest.approx(-3.0)
        assert sol["method"] == "ite-exact"
        r = run_cli("oracle", "qudo", "--problem", str(prob))
        assert r.returncode == 0
        oracle = json.loads(r.stdout)
        assert oracle["configuration"] == [1, 1]
        assert oracle["method"] == "oracle"

    def test_layer_compress_and_kernel_apply(self, tmp_path):
        rng = np.random.default_rng(94)
        mat = tmp_path / "mat.json"
        bias = tmp_path / "bias.json"
        io.write_tensor(mat, np.eye(16))
        io.write_tensor(bias, np.zeros(16))
        layer_path = tmp_path / "layer.json"
        report = tmp_path / "rep.txt"
        r = run_cli(
            "layer-compress", "--matrix", str(mat), "--bias", str(bias),
            "--sites", "4", "--output", str(layer_path), "--report", str(report),
        )
        assert r.returncode == 0, r.stderr
        assert "dense_params = 272" in report.read_text()
        layer = json.loads(layer_path.read_text())
        assert layer["weights"]["bond_dims"] == [1, 1, 1]

        mpo_path = tmp_path / "mpo.json"
        io.write_json(mpo_path, layer["weights"])
        vec = tmp_path / "x.json"
        x = rng.normal(size=4)
        io.write_tensor(vec, x)
        out = tmp_path / "out.json"
        r = run_cli(
            "kernel-apply", "--mpo", str(mpo_path), "--input-vector", str(vec),
            "--output", str(out),
        )
        assert r.returncode == 0, r.stderr
        got = io.read_tensor(out)
        # identity weights echo the feature map itself
        feats = [np.array([v, 1.0]) for v in x]
        want = feats[0]
        for f in feats[1:]:
            want = np.multiply.outer(want, f)
        assert np.allclose(got, want, rtol=1e-10)

    def test_deterministic_outputs(self, tmp_path):
        prob = tmp_path / "p.json"
        io.write_json(prob, {"cost_matrix": np.arange(16.0).reshape(4, 4).tolist(),
                             "variant": "closed"})
        outs = []
        for i in range(2):
            path = tmp_path / f"s{i}.json"
            r = run_cli("tsp-solve", "--problem", str(prob), "--output", str(path))
            assert r.returncode == 0
            outs.append(path.read_text())
        assert outs[0] == outs[1]
