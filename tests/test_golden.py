"""Bit identity of every public output family, on both routes (see ``_golden.py``)."""

import json

import numpy as np
import pytest

from _golden import GOLDEN, digests

pytestmark = pytest.mark.both_routes


def test_every_output_family_keeps_its_golden_digest():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    now = digests()
    changed = sorted(k for k in golden["families"].keys() | now.keys()
                     if golden["families"].get(k) != now.get(k))
    assert not changed, (
        f"output families changed: {', '.join(changed)}. The digests were made with "
        f"numpy {golden['numpy']}, this is numpy {np.__version__}. A change that alters "
        "results on purpose regenerates them with `python tests/_golden.py`."
    )
