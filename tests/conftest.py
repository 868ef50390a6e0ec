import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from cubicrep import census  # noqa: E402


@pytest.fixture(scope="session")
def census2():
    return census(2)


@pytest.fixture(scope="session")
def census3():
    return census(3)


@pytest.fixture(scope="session")
def census_forms():
    """All smooth coefficient rows for q = 2 and q = 3, as TernaryCubic lists."""
    import numpy as np

    from cubicrep import _bulk, _tables, mk_field
    from cubicrep.plane import TernaryCubic
    from object_reference import forms_up_to_scalar

    out = {}
    for q in (2, 3):
        spec = mk_field(q, 1)
        sf = _tables.scalar_field(spec)
        forms = forms_up_to_scalar(spec)
        smooth = _bulk.smooth_mask(spec, forms)
        out[q] = [
            TernaryCubic(spec, [sf.decode(d) for d in forms[i]])
            for i in np.flatnonzero(smooth)
        ]
    return out


@pytest.fixture(scope="session")
def census_reps(census_forms):
    """all_reps output for every smooth form of the F_2 and F_3 censuses.

    The returned mapping carries its own construction time under the key
    "build_seconds" so timed tests can account for the shared work.
    """
    import time

    from cubicrep import all_reps

    start = time.time()
    out = {q: [(F, all_reps(F)) for F in forms]
           for q, forms in census_forms.items()}
    out["build_seconds"] = time.time() - start
    return out
