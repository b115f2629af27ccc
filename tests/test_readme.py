"""The README's examples run and print what their comments say."""

import re
from pathlib import Path

import numpy as np
import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_block():
    """The "Library use" block, run with ``print`` recording its
    arguments, prints True, the identity stochastic matrix, False, a
    robustness of 1.0 within 1e-6, 1.0 bit, a payoff of about 2.0 and a
    normalization maximum of at most 1."""
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    printed = []
    exec(block, {"print": printed.append})
    member, replacement, h_member, value, entropy, score, normalization_max = printed
    assert member is True and h_member is False
    assert np.array_equal(replacement, np.eye(2))
    assert value == pytest.approx(1.0, abs=1e-6)
    assert entropy == pytest.approx(1.0, abs=1e-12)
    assert score == pytest.approx(2.0, abs=1e-6)
    assert normalization_max <= 1.0 + 1e-9
