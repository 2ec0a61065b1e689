"""File formats: tensors, trains, problems, solutions, reports.

Tensors have two interchangeable encodings.  The text form is a JSON
document ``{"dims": [...], "data": [...]}`` with row-major data; the binary
form is magic ``TTKT``, a version byte ``0x01``, the rank as a 32-bit
little-endian unsigned integer, each dimension as a 64-bit little-endian
unsigned integer, and the data as 64-bit little-endian IEEE-754 reals in
row-major order.  Round-tripping between the two is value-exact for finite
doubles (JSON floats are written with shortest round-trip repr).

Trains and problems are JSON documents; see the README for their schemas.
All read paths validate against the in-memory invariants and raise
:class:`FormatError` on any inconsistency.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .errors import TtkitError
from .optimize import QudoProblem, _tsp_costs
from .tt import TensorTrain, TensorTrainOperator

__all__ = [
    "FormatError",
    "read_tensor",
    "write_tensor",
    "tensor_to_obj",
    "tensor_from_obj",
    "read_train",
    "write_train",
    "train_to_obj",
    "train_from_obj",
    "read_problem",
    "write_json",
    "read_json",
]

MAGIC = b"TTKT"
VERSION = 1


class FormatError(TtkitError, ValueError):
    """A file does not follow its declared format."""


def tensor_to_obj(t: np.ndarray) -> dict:
    t = np.asarray(t, dtype=np.float64)
    return {"dims": list(t.shape), "data": [float(x) for x in t.ravel()]}


def tensor_from_obj(obj) -> np.ndarray:
    if not isinstance(obj, dict) or set(obj) != {"dims", "data"}:
        raise FormatError("tensor object must have exactly the keys 'dims' and 'data'")
    dims = obj["dims"]
    data = obj["data"]
    if not isinstance(dims, list) or not all(isinstance(d, int) and d >= 1 for d in dims):
        raise FormatError(f"invalid dims {dims!r}")
    if not isinstance(data, list) or not all(isinstance(x, (int, float)) for x in data):
        raise FormatError("data must be a list of numbers")
    expected = int(np.prod(dims, dtype=np.int64)) if dims else 1
    if len(data) != expected:
        raise FormatError(f"dims {dims} require {expected} values, got {len(data)}")
    return np.asarray(data, dtype=np.float64).reshape(dims)


def _write_tensor_binary(path: Path, t: np.ndarray) -> None:
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(bytes([VERSION]))
        fh.write(struct.pack("<I", t.ndim))
        fh.write(struct.pack(f"<{t.ndim}Q", *t.shape))
        fh.write(np.ascontiguousarray(t, dtype="<f8").tobytes())


def _read_tensor_binary(raw: bytes, path: Path) -> np.ndarray:
    if len(raw) < 9 or raw[:4] != MAGIC:
        raise FormatError(f"{path}: missing TTKT magic")
    if raw[4] != VERSION:
        raise FormatError(f"{path}: unsupported version {raw[4]}")
    (rank,) = struct.unpack_from("<I", raw, 5)
    offset = 9
    if len(raw) < offset + 8 * rank:
        raise FormatError(f"{path}: truncated dimension header")
    dims = struct.unpack_from(f"<{rank}Q", raw, offset)
    offset += 8 * rank
    if any(d < 1 for d in dims):
        raise FormatError(f"{path}: invalid dims {dims}")
    count = int(np.prod(dims, dtype=np.int64)) if dims else 1
    if len(raw) != offset + 8 * count:
        raise FormatError(
            f"{path}: expected {8 * count} data bytes, found {len(raw) - offset}"
        )
    data = np.frombuffer(raw, dtype="<f8", count=count, offset=offset)
    return data.astype(np.float64).reshape(dims)


def write_tensor(path, t: np.ndarray, fmt: str | None = None) -> None:
    """Write a tensor file; format from ``fmt`` or the extension (.json = text)."""
    path = Path(path)
    t = np.asarray(t, dtype=np.float64)
    if fmt is None:
        fmt = "text" if path.suffix == ".json" else "binary"
    if fmt == "text":
        write_json(path, tensor_to_obj(t))
    elif fmt == "binary":
        _write_tensor_binary(path, t)
    else:
        raise ValueError(f"unknown tensor format {fmt!r}")


def read_tensor(path) -> np.ndarray:
    """Read a tensor file, sniffing binary magic versus JSON text."""
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    if raw[:4] == MAGIC:
        return _read_tensor_binary(raw, path)
    try:
        obj = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"{path}: neither TTKT binary nor valid JSON: {exc}") from exc
    return tensor_from_obj(obj)


def train_to_obj(train: TensorTrain | TensorTrainOperator) -> dict:
    if isinstance(train, TensorTrainOperator):
        kind = "mpo"
        phys = [[i, o] for i, o in zip(train.in_dims, train.out_dims)]
    else:
        kind = "mps"
        phys = list(train.phys_dims)
    return {
        "kind": kind,
        "phys_dims": phys,
        "bond_dims": list(train.bond_dims),
        "cores": [tensor_to_obj(c) for c in train.cores],
    }


def train_from_obj(obj) -> TensorTrain | TensorTrainOperator:
    if not isinstance(obj, dict):
        raise FormatError("train document must be a JSON object")
    missing = {"kind", "phys_dims", "bond_dims", "cores"} - set(obj)
    if missing:
        raise FormatError(f"train document lacks keys {sorted(missing)}")
    kind = obj["kind"]
    if kind not in ("mps", "mpo"):
        raise FormatError(f"unknown train kind {kind!r}")
    cores = [tensor_from_obj(c) for c in obj["cores"]]
    try:
        train = TensorTrain(cores) if kind == "mps" else TensorTrainOperator(cores)
    except TtkitError as exc:
        raise FormatError(f"invalid {kind} cores: {exc}") from exc
    declared = train_to_obj(train)
    if declared["phys_dims"] != obj["phys_dims"]:
        raise FormatError(
            f"declared phys_dims {obj['phys_dims']} do not match cores "
            f"{declared['phys_dims']}"
        )
    if declared["bond_dims"] != obj["bond_dims"]:
        raise FormatError(
            f"declared bond_dims {obj['bond_dims']} do not match cores "
            f"{declared['bond_dims']}"
        )
    return train


def write_train(path, train: TensorTrain | TensorTrainOperator) -> None:
    write_json(path, train_to_obj(train))


def read_train(path) -> TensorTrain | TensorTrainOperator:
    return train_from_obj(read_json(path))


def read_problem(path) -> tuple[str, object]:
    """Read a problem file; returns ``("qudo", QudoProblem)`` or ``("tsp", (costs, variant))``."""
    obj = read_json(path)
    if not isinstance(obj, dict):
        raise FormatError("problem document must be a JSON object")
    if "cost_matrix" in obj:
        if set(obj) != {"cost_matrix", "variant"}:
            raise FormatError("tsp problem needs exactly 'cost_matrix' and 'variant'")
        variant = obj["variant"]
        try:
            costs = _tsp_costs(obj["cost_matrix"], variant)
        except (TypeError, ValueError) as exc:
            raise FormatError(f"invalid tsp problem: {exc}") from exc
        return "tsp", (costs, variant)
    missing = {"n", "d", "v", "w"} - set(obj)
    if missing:
        raise FormatError(f"qudo problem lacks keys {sorted(missing)}")
    n, d = obj["n"], obj["d"]
    if not (isinstance(n, int) and isinstance(d, int)):
        raise FormatError(f"invalid sizes n={n!r}, d={d!r}")
    try:
        v = [np.asarray(row, dtype=np.float64) for row in obj["v"]]
        w = [np.asarray(tbl, dtype=np.float64) for tbl in obj["w"]]
    except (TypeError, ValueError) as exc:
        raise FormatError(f"invalid cost tables: {exc}") from exc
    try:
        problem = QudoProblem(tuple(v), tuple(w))
    except TtkitError as exc:
        raise FormatError(f"invalid problem: {exc}") from exc
    if (problem.n, problem.d) != (n, d):
        raise FormatError(
            f"declared n={n}, d={d} do not match the tables (n={problem.n}, d={problem.d})"
        )
    return "qudo", problem


def write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1)
        fh.write("\n")


def read_json(path):
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid JSON: {exc}") from exc
