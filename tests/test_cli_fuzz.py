"""Mutation fuzz of the command line: every input exits 0, 2 or 3, and says so.

Each example takes the small valid inputs of one subcommand, corrupts one
of them, and runs ``cli.main`` in process.  A JSON input gets one value
(at any depth) replaced by ``null``, a boolean, +-1e308, 2**63, NaN or a
nested list; a TTKT binary input is truncated or has one byte flipped.
Whatever the input, the call must return 0, 2 or 3 without an exception;
a solver that returns 0 must report the optimum of the independent
oracles in ``bench/checks.py`` (a chain min-sum DP and Held-Karp); and no
JSON it writes may hold ``NaN`` or ``Infinity`` (nor a report ``nan`` or
``inf``), and a failed call writes no output at all.
"""

import contextlib
import io as stdio
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ttkit import cli, io
from ttkit.tt import TensorTrain, TensorTrainOperator

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

from checks import check_qudo, check_tour, held_karp, qudo_optimum  # noqa: E402

REPLACEMENTS = [None, True, False, 1e308, -1e308, 2**63, float("nan"), [[1.0, 2.0]], []]


def _seed_inputs(root: Path) -> None:
    rng = np.random.default_rng(7)
    io.write_json(root / "tensor.json",
                  {"dims": [2, 3], "data": [0.5, -1.0, 2.0, 0.25, 3.0, -0.75]})
    io.write_tensor(root / "tensor.ttk", rng.normal(size=(2, 2, 2)))
    io.write_train(root / "train.json", TensorTrain([rng.normal(size=(1, 2, 2)),
                                                     rng.normal(size=(2, 3, 1))]))
    io.write_train(root / "mpo.json", TensorTrainOperator([rng.normal(size=(1, 2, 2, 2)),
                                                           rng.normal(size=(2, 2, 1, 2)),
                                                           rng.normal(size=(2, 2, 2, 1))]))
    io.write_tensor(root / "x.json", np.array([0.3, -0.2, 0.9]))
    io.write_tensor(root / "matrix.json", rng.normal(size=(4, 4)))
    io.write_tensor(root / "bias.json", rng.normal(size=4))
    io.write_json(root / "qudo.json", {"n": 3, "d": 2, "v": rng.random((3, 2)).tolist(),
                                       "w": rng.random((2, 2, 2)).tolist()})
    for variant in ("closed", "open"):
        costs = 1.0 + rng.random((4, 4))
        io.write_json(root / f"tsp_{variant}.json", {"cost_matrix": costs.tolist(),
                                                     "variant": variant})


# (argv, the input files it reads); "{x}" is the path of seed file x, and
# "{out}" the output directory.
CASES = [
    (["compress", "--input", "{tensor.json}", "--output", "{out}/t.json",
      "--report", "{out}/r.txt"], ["tensor.json"]),
    (["compress", "--input", "{tensor.ttk}", "--output", "{out}/t.json",
      "--max-bond", "1"], ["tensor.ttk"]),
    (["reconstruct", "--input", "{train.json}", "--output", "{out}/t.json"], ["train.json"]),
    (["layer-compress", "--matrix", "{matrix.json}", "--bias", "{bias.json}", "--sites", "2",
      "--output", "{out}/layer.json", "--max-bond", "2", "--report", "{out}/lr.txt"],
     ["matrix.json", "bias.json"]),
    (["kernel-apply", "--mpo", "{mpo.json}", "--input-vector", "{x.json}",
      "--output", "{out}/y.json"], ["mpo.json", "x.json"]),
    (["qudo-solve", "--problem", "{qudo.json}", "--output", "{out}/sol.json"], ["qudo.json"]),
    (["oracle", "qudo", "--problem", "{qudo.json}", "--output", "{out}/sol.json"], ["qudo.json"]),
    (["tsp-solve", "--problem", "{tsp_closed.json}", "--output", "{out}/sol.json"],
     ["tsp_closed.json"]),
    (["tsp-solve", "--problem", "{tsp_open.json}", "--output", "{out}/sol.json"],
     ["tsp_open.json"]),
    (["oracle", "tsp", "--problem", "{tsp_closed.json}", "--output", "{out}/sol.json"],
     ["tsp_closed.json"]),
]


def _paths(node, prefix=()):
    """Every position in a JSON tree, as a key path."""
    yield prefix
    if isinstance(node, dict):
        children = node.items()
    else:
        children = enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _paths(child, prefix + (key,))


def _replace(node, path, value):
    if not path:
        return value
    node[path[0]] = _replace(node[path[0]], path[1:], value)
    return node


def _mutate(path: Path, data) -> None:
    raw = path.read_bytes()
    if path.suffix == ".ttk":
        if data.draw(st.booleans(), label="truncate"):
            path.write_bytes(raw[: data.draw(st.integers(0, len(raw) - 1), label="length")])
        else:
            i = data.draw(st.integers(0, len(raw) - 1), label="byte")
            flipped = raw[i] ^ data.draw(st.integers(1, 255), label="mask")
            path.write_bytes(raw[:i] + bytes([flipped]) + raw[i + 1:])
        return
    doc = json.loads(raw)
    where = data.draw(st.sampled_from(list(_paths(doc))), label="where")
    value = data.draw(st.sampled_from(REPLACEMENTS), label="value")
    path.write_text(json.dumps(_replace(doc, where, value)))


def _reject_constant(name):
    raise AssertionError(f"written JSON holds {name}")


def _check_solution(argv, problem_path: Path, sol_path: Path) -> None:
    sol = json.loads(sol_path.read_text())
    kind, problem = io.read_problem(problem_path)
    if kind == "qudo":
        v, w = problem.local, problem.coupling
        optimum, _ = qudo_optimum(v, w)
        reason = check_qudo(v, w, sol["configuration"], sol["cost"], optimum)
    else:
        costs, variant = problem
        reason = check_tour(costs, variant, sol["configuration"], sol["cost"],
                            held_karp(costs, variant), exact=True)
    assert reason is None, (argv, reason)


@settings(max_examples=1500, deadline=None, derandomize=True)
@given(case=st.sampled_from(CASES), data=st.data())
def test_mutated_inputs_keep_the_exit_code_contract(case, data):
    template, inputs = case
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        out = root / "out"
        out.mkdir()
        _seed_inputs(root)
        _mutate(root / data.draw(st.sampled_from(inputs), label="input"), data)
        names = {f"{{{p.name}}}": str(p) for p in root.iterdir()}
        argv = []
        for word in template:
            for key, value in names.items():
                word = word.replace(key, value)
            argv.append(word.replace("{out}", str(out)))
        with contextlib.redirect_stdout(stdio.StringIO()), \
                contextlib.redirect_stderr(stdio.StringIO()) as err:
            code = cli.main(argv)
        assert code in (0, 2, 3), (argv, code, err.getvalue())
        if code != 0:  # outputs are written only after the computation succeeded
            assert not list(out.iterdir()), (argv, code)
        for written in out.glob("*.json"):
            json.loads(written.read_text(), parse_constant=_reject_constant)
        for report in out.glob("*.txt"):
            text = report.read_text()
            assert "nan" not in text and "inf" not in text, (argv, text)
        if code == 0 and template[0] in ("qudo-solve", "tsp-solve", "oracle"):
            _check_solution(argv, root / inputs[0], out / "sol.json")
