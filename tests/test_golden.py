"""The printed bytes of the command line on fixed inputs.

``golden/calls.json`` maps each name to a ``psdapprox`` argument list, run
from the ``golden`` directory, which holds the model and target files it
reads; ``golden/<name>.out`` is the standard output that call printed when
it was recorded.  The calls are the six ``bound`` variants on a dyadic
2-runs model with n=40, ``closed-form`` and ``min`` on a (1,2)-runs model
with n=24, ``oracle --target`` on 2-runs with n=200 and ``table1 --check``.
None enumerates the trials: every moment and fit is a closed form, so no
digit depends on the BLAS thread count.  A change that means to move a
printed byte re-records the file and says why.
"""

import json
from pathlib import Path

import pytest

from psdapprox.cli import main

GOLDEN = Path(__file__).parent / "golden"
CALLS = json.loads((GOLDEN / "calls.json").read_text())


@pytest.mark.parametrize("name", sorted(CALLS))
def test_printed_bytes_equal_the_recorded_ones(name, capsysbinary, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    assert main(CALLS[name]) == 0
    out, err = capsysbinary.readouterr()
    assert err == b""
    assert out == (GOLDEN / f"{name}.out").read_bytes()
