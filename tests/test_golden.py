"""Every figure builder against the committed full-precision reference."""
import gzip
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from cavity_gates import figures

REFERENCE = Path(__file__).resolve().parent.parent / "bench" / "reference" / "figures.json.gz"

#: relative tolerance for every nonzero cell; cells that are exactly 0.0
#: (clamped fidelities) must come back exactly 0.0
REL_TOL = 1e-10


@pytest.fixture(scope="module")
def reference():
    with gzip.open(REFERENCE, "rt", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", figures.FIGURE_NAMES)
def test_figure_matches_reference(name, reference):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        data = figures.build_figure(name)
    ref = reference[name]
    assert tuple(data.header) == tuple(ref["header"])
    expected = np.array(ref["rows"], dtype=float)
    rows = np.asarray(data.rows, dtype=float)
    assert rows.shape == expected.shape
    zero = expected == 0.0
    assert np.array_equal(rows[zero], expected[zero])
    rel = np.abs(rows[~zero] - expected[~zero]) / np.abs(expected[~zero])
    assert rel.max(initial=0.0) <= REL_TOL
