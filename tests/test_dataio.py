import csv
import json
import os

import numpy as np
import pytest
from numpy.testing import assert_allclose

# module import: one public helper starts with test_ and must not be
# collected by pytest
from bwfrechet import dataio as dio
from bwfrechet import partial_test as pt
from bwfrechet.dataio import (
    dataset_checksum,
    load_dataset,
    load_result,
    write_dataset,
    write_result,
    write_table,
)
from bwfrechet.errors import InvalidInputError
from bwfrechet.simgen import SimConfig, generate


def tiny_dataset(seed=0, n=8, d=3):
    data, _ = generate(
        SimConfig(example=1, n=n, p_y=2, p_z=1, d=d, delta_z=0.1, seed=seed)
    )
    return data


def write_tabular_by_hand(path, meta, cov_rows, resp_rows):
    os.makedirs(path, exist_ok=True)
    with open(os.path.join(path, "meta.json"), "w", encoding="utf-8") as fh:
        json.dump(meta, fh)
    with open(os.path.join(path, "covariates.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["sample_id"] + [f"x_{j + 1}" for j in range(meta["p"])])
        w.writerows(cov_rows)
    with open(os.path.join(path, "responses.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["sample_id", "row", "col", "value"])
        w.writerows(resp_rows)


BASE_META = {
    "format": "bwfrechet-dataset",
    "version": 1,
    "n": 2,
    "p": 2,
    "p1": 1,
    "d": 2,
}

BASE_COV = [[0, 0.25, -0.5], [1, -1.0, 0.75]]

# full upper triangles of two SPD matrices
BASE_RESP = [
    [0, 0, 0, 2.0],
    [0, 0, 1, 0.5],
    [0, 1, 1, 1.5],
    [1, 0, 0, 3.0],
    [1, 0, 1, -0.25],
    [1, 1, 1, 1.0],
]


# ---------------------------------------------------------------------------
# round trips
# ---------------------------------------------------------------------------


def test_json_roundtrip_exact(tmp_path):
    data = tiny_dataset()
    path = tmp_path / "d.json"
    write_dataset(path, data, fmt="json", metadata={"note": "check"})
    back = load_dataset(path)
    assert np.array_equal(back.covariates, data.covariates)
    assert np.array_equal(back.responses, data.responses)
    assert back.p1 == data.p1
    payload = json.loads(path.read_text())
    assert payload["format"] == "bwfrechet-dataset"
    assert payload["version"] == 1
    assert payload["metadata"] == {"note": "check"}
    # one compact line, written by json's C encoder
    text = path.read_text()
    assert text.count("\n") == 1 and text.endswith("\n")


def test_tabular_roundtrip_exact(tmp_path):
    data = tiny_dataset(seed=3)
    path = tmp_path / "tab"
    write_dataset(path, data, fmt="tabular")
    for name in ("meta.json", "covariates.csv", "responses.csv"):
        assert (path / name).is_file()
    back = load_dataset(path)
    assert np.array_equal(back.covariates, data.covariates)
    assert np.array_equal(back.responses, data.responses)
    assert back.p1 == data.p1
    # only the upper triangle is stored
    with open(path / "responses.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    d = data.d
    assert len(rows) == data.n * d * (d + 1) // 2
    assert all(int(r[1]) <= int(r[2]) for r in rows)


def test_unknown_format_rejected(tmp_path):
    data = tiny_dataset()
    with pytest.raises(InvalidInputError):
        write_dataset(tmp_path / "x", data, fmt="parquet")


def test_p1_override(tmp_path):
    data = tiny_dataset()
    path = tmp_path / "d.json"
    write_dataset(path, data, fmt="json")
    assert load_dataset(path).p1 == 2
    assert load_dataset(path, p1=1).p1 == 1


# ---------------------------------------------------------------------------
# tabular layout validation
# ---------------------------------------------------------------------------


def test_tabular_mirror_completion(tmp_path):
    path = tmp_path / "tab"
    write_tabular_by_hand(path, BASE_META, BASE_COV, BASE_RESP)
    data = load_dataset(path)
    assert_allclose(data.responses[0], [[2.0, 0.5], [0.5, 1.5]], atol=0)
    assert_allclose(data.responses[1], [[3.0, -0.25], [-0.25, 1.0]], atol=0)


def test_tabular_redundant_mirror_allowed(tmp_path):
    path = tmp_path / "tab"
    resp = BASE_RESP + [[0, 1, 0, 0.5]]  # mirror of (0, 1), same value
    write_tabular_by_hand(path, BASE_META, BASE_COV, resp)
    data = load_dataset(path)
    assert_allclose(data.responses[0], [[2.0, 0.5], [0.5, 1.5]], atol=0)


def test_tabular_mirror_disagreement(tmp_path):
    path = tmp_path / "tab"
    resp = BASE_RESP + [[0, 1, 0, 0.5001]]
    write_tabular_by_hand(path, BASE_META, BASE_COV, resp)
    with pytest.raises(InvalidInputError, match="not symmetric"):
        load_dataset(path)


def test_both_layouts_judge_symmetry_alike(tmp_path):
    # (0, 1) and (1, 0) differ by 1e-9, within 1e-12 of the largest entry
    # but not of their own size: the Dataset alone judges the symmetry
    mat = [[1e6, 1e-3], [1e-3 + 1e-9, 2e6]]
    cov = [[0.25, -0.5]]
    meta = {**BASE_META, "n": 1}
    json_path = tmp_path / "one.json"
    json_path.write_text(json.dumps({**meta, "covariates": cov, "responses": [mat]}))
    tab_path = tmp_path / "tab"
    resp = [[0, r, c, mat[r][c]] for r in range(2) for c in range(2)]
    write_tabular_by_hand(tab_path, meta, [[0] + cov[0]], resp)
    from_json, from_tab = load_dataset(json_path), load_dataset(tab_path)
    assert np.array_equal(from_json.responses, from_tab.responses)
    assert np.array_equal(from_json.covariates, from_tab.covariates)


def test_tabular_duplicate_entry_disagreement(tmp_path):
    path = tmp_path / "tab"
    resp = BASE_RESP + [[0, 0, 0, 2.125]]
    write_tabular_by_hand(path, BASE_META, BASE_COV, resp)
    with pytest.raises(InvalidInputError, match="twice"):
        load_dataset(path)


def test_tabular_missing_entry(tmp_path):
    path = tmp_path / "tab"
    write_tabular_by_hand(path, BASE_META, BASE_COV, BASE_RESP[:-1])
    with pytest.raises(InvalidInputError, match="missing response entry"):
        load_dataset(path)


@pytest.mark.parametrize(
    "resp, match",
    [
        # a nan entry is given, so its mirror does not replace it
        ([[0, 0, 0, 2.0], [0, 0, 1, "nan"], [0, 1, 0, 0.5], [0, 1, 1, 1.5]], "non-finite"),
        ([[0, 0, 0, "nan"], [0, 0, 1, 0.5], [0, 1, 1, 1.5]], "non-finite"),
        ([[0, 0, 0, 2.0], [0, 0, 1, "nan"], [0, 0, 1, 0.7], [0, 1, 1, 1.5]], "given twice"),
    ],
)
def test_tabular_nan_entry_counts_as_given(tmp_path, resp, match):
    path = tmp_path / "tab"
    write_tabular_by_hand(path, {**BASE_META, "n": 1}, BASE_COV[:1], resp)
    with pytest.raises(InvalidInputError, match=match):
        load_dataset(path)


def test_tabular_not_positive_definite(tmp_path):
    path = tmp_path / "tab"
    resp = list(BASE_RESP)
    resp[1] = [0, 0, 1, 2.5]  # off-diagonal dominates: eigenvalues straddle 0
    write_tabular_by_hand(path, BASE_META, BASE_COV, resp)
    with pytest.raises(InvalidInputError, match="not positive definite"):
        load_dataset(path)


def test_tabular_unknown_sample_and_bad_index(tmp_path):
    path = tmp_path / "tab"
    write_tabular_by_hand(path, BASE_META, BASE_COV, BASE_RESP + [[7, 0, 0, 1.0]])
    with pytest.raises(InvalidInputError, match="unknown sample_id"):
        load_dataset(path)
    path2 = tmp_path / "tab2"
    write_tabular_by_hand(path2, BASE_META, BASE_COV, BASE_RESP + [[0, 0, 2, 1.0]])
    with pytest.raises(InvalidInputError, match="outside"):
        load_dataset(path2)


def test_tabular_header_and_counts(tmp_path):
    path = tmp_path / "tab"
    write_tabular_by_hand(path, BASE_META, BASE_COV, BASE_RESP)
    cov = path / "covariates.csv"
    text = cov.read_text().replace("x_1", "col_1")
    cov.write_text(text)
    with pytest.raises(InvalidInputError, match="header"):
        load_dataset(path)

    path2 = tmp_path / "tab2"
    write_tabular_by_hand(path2, BASE_META, BASE_COV + [[2, 0.0, 0.0]], BASE_RESP)
    with pytest.raises(InvalidInputError, match="expected 2 rows"):
        load_dataset(path2)

    path3 = tmp_path / "tab3"
    write_tabular_by_hand(
        path3, BASE_META, [BASE_COV[0], [0, -1.0, 0.75]], BASE_RESP
    )
    with pytest.raises(InvalidInputError, match="duplicate sample_id"):
        load_dataset(path3)

    # a float or a bool is no count, even where int() would take it
    for key, value in (("n", "twelve"), ("p1", None), ("n", 2.9), ("p1", True)):
        path4 = tmp_path / f"tab-{key}-{value}"
        write_tabular_by_hand(path4, {**BASE_META, key: value}, BASE_COV, BASE_RESP)
        with pytest.raises(InvalidInputError, match=f"{key} must be an integer"):
            load_dataset(path4)

    path5 = tmp_path / "tab-list"
    write_tabular_by_hand(path5, BASE_META, BASE_COV, BASE_RESP)
    (path5 / "meta.json").write_text("[1, 2]")
    with pytest.raises(InvalidInputError, match="expected a JSON object"):
        load_dataset(path5)


def test_version_1_dataset_loads(tmp_path):
    # a dataset file written by hand at format version 1, the version that
    # every existing dataset carries
    payload = dict(BASE_META)
    payload["covariates"] = [row[1:] for row in BASE_COV]
    payload["responses"] = [[[2.0, 0.5], [0.5, 1.5]], [[3.0, -0.25], [-0.25, 1.0]]]
    path = tmp_path / "v1.json"
    path.write_text(json.dumps(payload))
    data = load_dataset(path)
    assert_allclose(data.covariates, [[0.25, -0.5], [-1.0, 0.75]], atol=0)
    assert_allclose(data.responses[1], [[3.0, -0.25], [-0.25, 1.0]], atol=0)


def test_json_cells_must_be_numbers(tmp_path):
    # a bool or a numeric string converts to a float, but is no JSON number
    cov = [[True, "-0.5"], ["2.0", 0.6]]
    resp = [[[2.0, 0.5], [0.5, 1.5]], [[3.0, -0.25], [-0.25, 1.0]]]
    path = tmp_path / "d.json"
    path.write_text(json.dumps({**BASE_META, "covariates": cov, "responses": resp}))
    with pytest.raises(InvalidInputError, match=r"d\.json: covariates: expected JSON numbers, got True"):
        load_dataset(path)
    cases = [("covariates", (1, 0), "2.0"), ("covariates", (0, 1), False),
             ("responses", (1, 1, 1), "1.0"), ("responses", (0, 0, 1), True)]
    for name, cell, bad in cases:
        # a fresh copy of a valid file, with one bad cell
        good = {**BASE_META, "covariates": [[0.25, -0.5], [-1, 0.75]], "responses": resp}
        payload = json.loads(json.dumps(good))
        target = payload[name]
        for i in cell[:-1]:
            target = target[i]
        target[cell[-1]] = bad
        path.write_text(json.dumps(payload))
        with pytest.raises(InvalidInputError, match=f"{name}: expected JSON numbers, got {bad!r}"):
            load_dataset(path)
    # an integer is a number
    path.write_text(json.dumps({**BASE_META, "covariates": [[0, -1], [2, 1]], "responses": resp}))
    assert np.array_equal(load_dataset(path).covariates, [[0.0, -1.0], [2.0, 1.0]])


def test_json_validation(tmp_path):
    data = tiny_dataset()
    path = tmp_path / "d.json"
    write_dataset(path, data, fmt="json")

    payload = json.loads(path.read_text())
    payload["format"] = "something-else"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    with pytest.raises(InvalidInputError, match="format"):
        load_dataset(bad)

    payload = json.loads(path.read_text())
    payload["version"] = 99
    bad.write_text(json.dumps(payload))
    with pytest.raises(InvalidInputError, match="version"):
        load_dataset(bad)

    payload = json.loads(path.read_text())
    payload["n"] = payload["n"] + 1
    bad.write_text(json.dumps(payload))
    with pytest.raises(InvalidInputError, match="shape"):
        load_dataset(bad)

    for key, value in (("n", "twelve"), ("p1", None), ("n", 8.9), ("p1", True), ("d", "3")):
        payload = json.loads(path.read_text())
        payload[key] = value
        bad.write_text(json.dumps(payload))
        with pytest.raises(InvalidInputError, match=f"{key} must be an integer"):
            load_dataset(bad)

    bad.write_text("[1, 2]")
    with pytest.raises(InvalidInputError, match="expected a JSON object"):
        load_dataset(bad)

# ---------------------------------------------------------------------------
# checksums and result envelopes
# ---------------------------------------------------------------------------


def test_checksum_stability_and_sensitivity(tmp_path):
    data = tiny_dataset(seed=5)
    jpath = tmp_path / "d.json"
    write_dataset(jpath, data, fmt="json")
    first = dataset_checksum(jpath)
    assert first == dataset_checksum(jpath)
    assert len(first) == 64

    tpath = tmp_path / "tab"
    write_dataset(tpath, data, fmt="tabular")
    tsum = dataset_checksum(tpath)
    assert tsum == dataset_checksum(tpath)
    assert tsum != first
    # flipping one byte in any covered file changes the digest
    cov = tpath / "covariates.csv"
    cov.write_text(cov.read_text().replace("0", "1", 1))
    assert dataset_checksum(tpath) != tsum

    with pytest.raises(InvalidInputError):
        dataset_checksum(tmp_path / "absent.json")


def test_result_envelope_roundtrip(tmp_path):
    data = tiny_dataset(n=12)
    res = pt.run_partial_test(
        data, pt.TestOptions(mc_draws=2000, max_nonconverged=1.0)
    )
    body = dio.test_result_body(res, input_sha256="ab" * 32)
    path = tmp_path / "res.json"
    write_result(path, "partial-effect-test", body)
    back = load_result(path)
    assert back["format"] == "bwfrechet-result"
    assert back["kind"] == "partial-effect-test"
    assert back["statistic"] == res.statistic
    assert back["p_value"] == res.p_value
    assert back["reject"] == res.reject
    assert back["input_sha256"] == "ab" * 32
    assert_allclose(back["eigenvalues"], res.eigenvalues, atol=0)
    assert back["diagnostics"]["n_fits"] == res.diagnostics.n_fits
    assert back["version"] == 2

    bad = tmp_path / "bad.json"
    payload = json.loads(path.read_text())
    payload["format"] = "nope"
    bad.write_text(json.dumps(payload))
    with pytest.raises(InvalidInputError):
        load_result(bad)
    bad.write_text("[1, 2]")
    with pytest.raises(InvalidInputError, match="expected a JSON object"):
        load_result(bad)


def test_version_1_result_loads(tmp_path):
    # a test result written by hand at result version 1, whose diagnostics
    # still carry the key that version 2 dropped
    payload = {
        "format": "bwfrechet-result",
        "version": 1,
        "kind": "partial-effect-test",
        "statistic": 3.5,
        "p_value": 0.25,
        "eigenvalues": [1.5, 0.5],
        "diagnostics": {
            "n1": 6, "n2": 6, "n_fits": 18, "nonconverged": 0,
            "min_hessian_eigenvalue": 0.125, "adjustment_dropped_modes": 0,
        },
    }
    path = tmp_path / "v1-result.json"
    path.write_text(json.dumps(payload))
    assert load_result(path) == payload

    payload["version"] = 3
    path.write_text(json.dumps(payload))
    with pytest.raises(InvalidInputError, match="unsupported version"):
        load_result(path)


def test_result_diagnostics_keys():
    # the options accept numpy integers; the body must still be plain JSON
    options = pt.TestOptions(seed=np.int64(3), mc_draws=np.int64(10), max_nonconverged=1.0)
    res = pt.run_partial_test(tiny_dataset(n=12), options)
    body = dio.test_result_body(res)
    assert list(body["diagnostics"]) == [
        "n1", "n2", "n_fits", "nonconverged", "min_hessian_eigenvalue"
    ]
    assert json.loads(json.dumps(body))["seed"] == 3


def test_write_table_float_repr(tmp_path):
    path = tmp_path / "t.csv"
    write_table(path, ["a", "b"], [[1, 0.1], ["x", 2.0 / 3.0]])
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["a", "b"]
    assert float(rows[1][1]) == 0.1
    assert float(rows[2][1]) == 2.0 / 3.0
