"""Reading and writing datasets and result files.

Two dataset layouts are supported: a single JSON document, and a tabular
directory holding ``meta.json``, ``covariates.csv`` and ``responses.csv``
with responses in long (sample_id, row, col, value) form, 0-based indices.
Off-diagonal response entries may be given once (the mirror entry is
completed) or at both places (the ``Dataset`` checks their symmetry); an
entry repeated with another value, or missing, is rejected with the
offending sample named.

All files are written without timestamps so byte-identical inputs and
settings produce byte-identical outputs.
"""

import csv
import hashlib
import json
import os
from itertools import chain

import numpy as np

from .errors import InvalidInputError
from .frechet import Dataset, is_integer

DATASET_FORMAT = "bwfrechet-dataset"
RESULT_FORMAT = "bwfrechet-result"
# the two layouts are versioned apart, so a change to one does not orphan
# files of the other
DATASET_VERSION = 1
RESULT_VERSION = 2
# a version-1 result holds every version-2 key plus one since-removed
# diagnostics key, so it still loads
_READABLE_RESULT_VERSIONS = (1, RESULT_VERSION)

_META_NAME = "meta.json"
_COV_NAME = "covariates.csv"
_RESP_NAME = "responses.csv"


def _float_cell(value):
    return repr(float(value))


def read_json(path):
    """Parse a JSON object from a file; an unreadable, non-UTF-8 or malformed
    file, or one whose top level is not an object, is invalid input."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise InvalidInputError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise InvalidInputError(f"{path} is not UTF-8 text: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise InvalidInputError(f"{path}: expected a JSON object")
    return payload


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def write_dataset(path, data, fmt="json", metadata=None):
    """Write a dataset as one JSON file or as a tabular directory.

    ``fmt`` is "json" or "tabular"; for "tabular", ``path`` names a
    directory that is created if needed.
    """
    metadata = dict(metadata or {})
    if fmt == "json":
        payload = {
            "format": DATASET_FORMAT,
            "version": DATASET_VERSION,
            "n": data.n,
            "p": data.p,
            "p1": data.p1,
            "d": data.d,
            "covariates": [[float(v) for v in row] for row in data.covariates],
            "responses": [
                [[float(v) for v in row] for row in mat] for mat in data.responses
            ],
            "metadata": metadata,
        }
        _write_json(path, payload)
        return
    if fmt != "tabular":
        raise InvalidInputError(f"unknown dataset format {fmt!r}")

    os.makedirs(path, exist_ok=True)
    meta = {
        "format": DATASET_FORMAT,
        "version": DATASET_VERSION,
        "layout": "tabular",
        "n": data.n,
        "p": data.p,
        "p1": data.p1,
        "d": data.d,
        "metadata": metadata,
    }
    _write_json(os.path.join(path, _META_NAME), meta)

    with open(os.path.join(path, _COV_NAME), "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sample_id"] + [f"x_{j + 1}" for j in range(data.p)])
        for i, row in enumerate(data.covariates):
            writer.writerow([i] + [_float_cell(v) for v in row])

    with open(os.path.join(path, _RESP_NAME), "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sample_id", "row", "col", "value"])
        for i, mat in enumerate(data.responses):
            for r in range(data.d):
                for c in range(r, data.d):
                    writer.writerow([i, r, c, _float_cell(mat[r, c])])


def _require_keys(payload, keys, where):
    missing = [k for k in keys if k not in payload]
    if missing:
        raise InvalidInputError(f"{where}: missing keys {missing}")


def _int_keys(payload, keys, where):
    """The values at ``keys``; any value but an integer is invalid input."""
    for key in keys:
        if not is_integer(payload[key]):
            raise InvalidInputError(f"{where}: {key} must be an integer, got {payload[key]!r}")
    return [payload[key] for key in keys]


def _check_header(payload, where):
    if payload.get("format") != DATASET_FORMAT:
        raise InvalidInputError(
            f"{where}: format is {payload.get('format')!r}, expected {DATASET_FORMAT!r}"
        )
    if payload.get("version") != DATASET_VERSION:
        raise InvalidInputError(
            f"{where}: unsupported version {payload.get('version')!r}"
        )


def _parse_json_dataset(path):
    payload = read_json(path)
    _check_header(payload, path)
    _require_keys(payload, ["n", "p", "p1", "d", "covariates", "responses"], path)
    try:
        covariates = np.asarray(payload["covariates"], dtype=float)
        responses = np.asarray(payload["responses"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"{path}: malformed arrays: {exc}") from None
    n, p, d, p1 = _int_keys(payload, ("n", "p", "d", "p1"), path)
    if covariates.shape != (n, p):
        raise InvalidInputError(
            f"{path}: covariates shape {covariates.shape} does not match n={n}, p={p}"
        )
    if responses.shape != (n, d, d):
        raise InvalidInputError(
            f"{path}: responses shape {responses.shape} does not match n={n}, d={d}"
        )
    # the arrays have those shapes, so each cell is a scalar; a bool or a
    # numeric string converts to a float above but is no JSON number
    rows = {"covariates": payload["covariates"], "responses": chain.from_iterable(payload["responses"])}
    for name, cells in rows.items():
        bad = next((v for v in chain.from_iterable(cells) if type(v) not in (int, float)), None)
        if bad is not None:
            raise InvalidInputError(f"{path}: {name}: expected JSON numbers, got {bad!r}")
    return covariates, responses, p1


def _read_csv_rows(path, expected_header):
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            rows = list(reader)
    except OSError as exc:
        raise InvalidInputError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise InvalidInputError(f"{path} is not UTF-8 text: {exc}") from None
    if not rows:
        raise InvalidInputError(f"{path}: empty file")
    if rows[0] != expected_header:
        raise InvalidInputError(
            f"{path}: header {rows[0]} does not match expected {expected_header}"
        )
    return rows[1:]


def _parse_tabular_dataset(path):
    meta_path = os.path.join(path, _META_NAME)
    meta = read_json(meta_path)
    _check_header(meta, meta_path)
    _require_keys(meta, ["n", "p", "p1", "d"], meta_path)
    n, p, d, p1 = _int_keys(meta, ("n", "p", "d", "p1"), meta_path)

    cov_path = os.path.join(path, _COV_NAME)
    header = ["sample_id"] + [f"x_{j + 1}" for j in range(p)]
    rows = _read_csv_rows(cov_path, header)
    if len(rows) != n:
        raise InvalidInputError(f"{cov_path}: expected {n} rows, found {len(rows)}")
    sample_ids = []
    covariates = np.empty((n, p))
    seen = set()
    for i, row in enumerate(rows):
        if len(row) != p + 1:
            raise InvalidInputError(f"{cov_path}: row {i + 2} has {len(row)} fields, expected {p + 1}")
        try:
            sid = int(row[0])
            covariates[i] = [float(v) for v in row[1:]]
        except ValueError as exc:
            raise InvalidInputError(f"{cov_path}: row {i + 2}: {exc}") from None
        if sid in seen:
            raise InvalidInputError(f"{cov_path}: duplicate sample_id {sid}")
        seen.add(sid)
        sample_ids.append(sid)
    id_to_index = {sid: i for i, sid in enumerate(sample_ids)}

    resp_path = os.path.join(path, _RESP_NAME)
    rows = _read_csv_rows(resp_path, ["sample_id", "row", "col", "value"])
    responses = np.full((n, d, d), np.nan)
    for line_no, row in enumerate(rows, start=2):
        if len(row) != 4:
            raise InvalidInputError(f"{resp_path}: row {line_no} has {len(row)} fields, expected 4")
        try:
            sid, r, c = int(row[0]), int(row[1]), int(row[2])
            value = float(row[3])
        except ValueError as exc:
            raise InvalidInputError(f"{resp_path}: row {line_no}: {exc}") from None
        if sid not in id_to_index:
            raise InvalidInputError(f"{resp_path}: row {line_no}: unknown sample_id {sid}")
        if not (0 <= r < d and 0 <= c < d):
            raise InvalidInputError(
                f"{resp_path}: row {line_no}: index ({r}, {c}) outside [0, {d})"
            )
        i = id_to_index[sid]
        existing = responses[i, r, c]
        if not np.isnan(existing) and existing != value:
            raise InvalidInputError(
                f"{resp_path}: sample {sid}: entry ({r}, {c}) given twice with "
                f"different values {float(existing)!r} and {value!r}"
            )
        responses[i, r, c] = value

    # an entry given once is completed from its mirror; when both are given,
    # the Dataset judges their symmetry
    missing = np.isnan(responses)
    responses[missing] = np.swapaxes(responses, 1, 2)[missing]
    for i, sid in enumerate(sample_ids):
        if np.isnan(responses[i]).any():
            r, c = np.argwhere(np.isnan(responses[i]))[0]
            raise InvalidInputError(f"{resp_path}: sample {sid}: missing response entry ({r}, {c})")
    return covariates, responses, p1


def load_dataset(path, p1=None):
    """Load a dataset written by :func:`write_dataset`.

    A directory is read as the tabular layout, a file as JSON. Pass ``p1``
    to override the retained-block size recorded in the file. The parsers
    only parse: the ``Dataset`` checks what they read, naming ``path``.
    """
    parse = _parse_tabular_dataset if os.path.isdir(path) else _parse_json_dataset
    covariates, responses, recorded_p1 = parse(path)
    try:
        return Dataset(covariates, responses, recorded_p1 if p1 is None else p1)
    except InvalidInputError as exc:
        raise InvalidInputError(f"{path}: {exc}") from None


def dataset_checksum(path):
    """SHA-256 hex digest of a dataset file, or of a tabular directory's files."""
    digest = hashlib.sha256()
    if os.path.isdir(path):
        names = [_META_NAME, _COV_NAME, _RESP_NAME]
        for name in names:
            full = os.path.join(path, name)
            try:
                with open(full, "rb") as fh:
                    digest.update(fh.read())
            except OSError as exc:
                raise InvalidInputError(f"cannot read {full}: {exc}") from None
        return digest.hexdigest()
    try:
        with open(path, "rb") as fh:
            digest.update(fh.read())
    except OSError as exc:
        raise InvalidInputError(f"cannot read {path}: {exc}") from None
    return digest.hexdigest()


def write_result(path, kind, body):
    """Write a result document: a typed JSON envelope around ``body``."""
    payload = {"format": RESULT_FORMAT, "version": RESULT_VERSION, "kind": kind}
    payload.update(body)
    _write_json(path, payload)


def load_result(path):
    payload = read_json(path)
    if payload.get("format") != RESULT_FORMAT:
        raise InvalidInputError(
            f"{path}: format is {payload.get('format')!r}, expected {RESULT_FORMAT!r}"
        )
    if payload.get("version") not in _READABLE_RESULT_VERSIONS:
        raise InvalidInputError(f"{path}: unsupported version {payload.get('version')!r}")
    return payload


def test_result_body(result, input_sha256=None):
    """JSON-ready dictionary for a partial-effect test result."""
    body = {
        "statistic": float(result.statistic),
        "p_value": float(result.p_value),
        "quantile": float(result.quantile),
        "reject": bool(result.reject),
        "alpha": float(result.alpha),
        "mc_draws": int(result.mc_draws),
        "seed": int(result.seed),
        "eigenvalues": [float(v) for v in result.eigenvalues],
        "diagnostics": {
            "n1": result.diagnostics.n1,
            "n2": result.diagnostics.n2,
            "n_fits": result.diagnostics.n_fits,
            "nonconverged": result.diagnostics.nonconverged,
            "min_hessian_eigenvalue": float(result.diagnostics.min_hessian_eigenvalue),
        },
    }
    if input_sha256 is not None:
        body["input_sha256"] = input_sha256
    return body


def write_table(path, header, rows):
    """Write a CSV table with plain repr formatting for floats."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            out = []
            for cell in row:
                if isinstance(cell, float):
                    out.append(_float_cell(cell))
                else:
                    out.append(cell)
            writer.writerow(out)
