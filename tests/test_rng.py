import numpy as np
import pytest

from malalab.rng import seed_path, substream


@pytest.mark.parametrize("a, b", [(0, 2**32), (7, 2**32 + 7), (1, 2**64 + 1)])
def test_int_paths_that_differ_name_different_streams(a, b):
    assert substream(0, "x", a).random(4).tolist() != substream(0, "x", b).random(4).tolist()


PATH = ("sweep", "collapse", 3, "proposals", 2)


@pytest.mark.parametrize("split", range(len(PATH) + 1))
def test_a_seed_path_draws_as_its_whole_path(split):
    # The CLI hands each cell seed_path(seed, "sweep", experiment, cell), and
    # the estimator derives its named streams under it.
    whole = substream(5, *PATH).random(4).tolist()
    assert substream(seed_path(5, *PATH[:split]), *PATH[split:]).random(4).tolist() == whole
    nested = seed_path(seed_path(5, *PATH[:split]), *PATH[split:])
    assert substream(nested).random(4).tolist() == whole


def test_seed_paths_that_differ_name_different_streams():
    cell = seed_path(0, "sweep", "collapse", 0)
    assert (substream(cell, "proposals", 0).random(4).tolist()
            != substream(cell, "proposals", 1).random(4).tolist())
    assert substream(cell).random(4).tolist() != substream(0).random(4).tolist()


@pytest.mark.parametrize("seed, name", [
    (np.random.default_rng(0), "Generator"), (True, "bool"), (3.0, "float"),
])
def test_a_seed_that_is_not_an_int_or_a_seed_path_raises(seed, name):
    for derive in (substream, seed_path):
        with pytest.raises(TypeError, match=name):
            derive(seed, "states")
