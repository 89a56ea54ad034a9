import pytest

from malalab.rng import substream


@pytest.mark.parametrize("a, b", [(0, 2**32), (7, 2**32 + 7), (1, 2**64 + 1)])
def test_int_paths_that_differ_name_different_streams(a, b):
    assert substream(0, "x", a).random(4).tolist() != substream(0, "x", b).random(4).tolist()
