"""One SPD check behind every entry point.

The same bad matrices go to each function that takes an SPD input: the
shape, finiteness and symmetry rules raise ``InvalidInputError`` everywhere,
a matrix that is not positive definite raises ``InvalidInputError`` as a
response and ``IllConditionedError`` as a point of the geometry, and a
loader's message names the path it read.
"""

import csv
import json
import os

import numpy as np
import pytest

from bwfrechet import frechet
from bwfrechet.dataio import load_dataset
from bwfrechet.errors import IllConditionedError, InvalidInputError
from bwfrechet.frechet import Dataset, weighted_frechet_mean
from bwfrechet.manifold import (
    TransportBatch,
    ot_map,
    ot_map_differential,
    spd_eigh,
    wasserstein_distance,
)
from bwfrechet.simgen import SimConfig, generate

EYE = np.eye(2)

# each bad matrix, and whether it breaks a rule of the input's form (shape,
# finiteness, symmetry) rather than positive definiteness
BAD = {
    "nonsquare": (np.ones((2, 3)), True),
    "empty": (np.zeros((0, 0)), True),
    "nonfinite": (np.array([[np.nan, 0.0], [0.0, 1.0]]), True),
    "asymmetric": (np.array([[1.0, 0.5], [0.0, 1.0]]), True),
    "indefinite": (np.diag([1.0, -0.1]), False),
    "near_singular": (np.diag([1.0, 1e-14]), False),
}


def stack(bad):
    """Two responses, the bad one second; a non-square one cannot sit beside I."""
    return np.stack([EYE, bad]) if bad.shape == EYE.shape else np.stack([bad, bad])


def write_json(path, bad):
    payload = {
        "format": "bwfrechet-dataset", "version": 1, "n": 2, "p": 1, "p1": 1, "d": 2,
        "covariates": [[0.0], [1.0]],
        "responses": [EYE.tolist(), bad.tolist()],
        "metadata": {},
    }
    path.write_text(json.dumps(payload))
    return path


def write_tabular(path, bad):
    """Both triangles of each response in long form, so an asymmetric one reaches the loader."""
    os.makedirs(path)
    meta = {"format": "bwfrechet-dataset", "version": 1, "n": 2, "p": 1, "p1": 1, "d": 2}
    (path / "meta.json").write_text(json.dumps(meta))
    with open(path / "covariates.csv", "w", newline="") as fh:
        csv.writer(fh).writerows([["sample_id", "x_1"], [0, 0.0], [1, 1.0]])
    with open(path / "responses.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["sample_id", "row", "col", "value"])
        for sid, mat in enumerate((EYE, bad)):
            w.writerows([sid, r, c, repr(float(mat[r, c]))]
                        for r in range(mat.shape[0]) for c in range(mat.shape[1]))
    return path


# entry point -> (call on a bad matrix, whether it takes responses)
ENTRY_POINTS = {
    "Dataset": (lambda bad, tmp: Dataset(np.zeros((2, 1)), stack(bad), p1=1), True),
    "weighted_frechet_mean": (lambda bad, tmp: weighted_frechet_mean(stack(bad), np.ones(2)), True),
    "ot_map_base": (lambda bad, tmp: ot_map(bad, EYE), False),
    "ot_map_target": (lambda bad, tmp: ot_map(EYE, bad), False),
    "wasserstein_distance_first": (lambda bad, tmp: wasserstein_distance(bad, EYE), False),
    "wasserstein_distance_second": (lambda bad, tmp: wasserstein_distance(EYE, bad), False),
    "ot_map_differential_base": (lambda bad, tmp: ot_map_differential(bad, EYE), False),
    "ot_map_differential_target": (lambda bad, tmp: ot_map_differential(EYE, bad), False),
    "TransportBatch": (lambda bad, tmp: TransportBatch(bad, EYE), False),
    "load_dataset_json": (lambda bad, tmp: load_dataset(write_json(tmp / "d.json", bad)), True),
    "load_dataset_tabular": (lambda bad, tmp: load_dataset(write_tabular(tmp / "tab", bad)), True),
}


@pytest.mark.parametrize("matrix", sorted(BAD))
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_every_spd_entry_point_checks_alike(entry, matrix, tmp_path):
    call, takes_responses = ENTRY_POINTS[entry]
    bad, form_rule = BAD[matrix]
    expected = InvalidInputError if form_rule or takes_responses else IllConditionedError
    with pytest.raises((InvalidInputError, IllConditionedError)) as info:
        call(bad, tmp_path)
    assert info.type is expected, str(info.value)
    message = str(info.value)
    if entry.startswith("load_dataset"):
        assert str(tmp_path / ("tab" if entry.endswith("tabular") else "d.json")) in message
    if not form_rule:
        assert "not positive definite" in message
        # a response is named by its 0-based row, a geometry argument by its role
        assert ("[1]" in message) == takes_responses, message


def test_spd_eigh_names_the_first_failing_matrix():
    a = np.stack([EYE, np.diag([2.0, 1.0]), np.diag([1.0, -1.0]), np.diag([1.0, 0.0])])
    with pytest.raises(InvalidInputError, match=r"^q\[2\]: not positive definite .*\[-1, 1\]"):
        spd_eigh(a, "q", InvalidInputError)
    grid = a.reshape(2, 2, 2, 2)
    with pytest.raises(IllConditionedError, match=r"^q\[1, 0\]: not positive definite"):
        spd_eigh(grid, "q")
    skew = np.stack([EYE, EYE + np.array([[0.0, 1e-9], [0.0, 0.0]])])
    with pytest.raises(InvalidInputError, match=r"^q\[1\]: not symmetric"):
        spd_eigh(skew, "q")
    # symmetric within 1e-12 of each matrix's own largest entry, then symmetrized
    near = np.array([[1.0, 0.5], [0.5 + 1e-13, 1.0]])
    sym, vals, vecs = spd_eigh(near, "q")
    assert np.array_equal(sym, sym.T)
    np.testing.assert_allclose(vecs @ np.diag(vals) @ vecs.T, sym, atol=1e-14)


def test_generated_dataset_checks_its_responses_once(monkeypatch):
    calls = []
    real = frechet.spd_eigh

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(frechet, "spd_eigh", counted)
    data, _ = generate(SimConfig(example=1, n=12, p_y=2, p_z=1, d=3, seed=0))
    assert calls == [(12, 3, 3)]
    assert data.n == 12
