"""ParamStore: one vector, named views in layout order."""

import pickle

import numpy as np
import pytest

from uaperceiver.errors import DimensionError, NumericError
from uaperceiver.params import ParamStore

SHAPES = {"layer.w": (2, 2), "head.w": (3,)}


def store():
    return ParamStore(SHAPES, np.arange(7.0), requires_grad=True)


def test_tensors_are_views_of_the_vector_in_layout_order():
    s = store()
    assert s.names() == list(SHAPES)
    np.testing.assert_array_equal(s["layer.w"].data, [[0.0, 1.0], [2.0, 3.0]])
    s.vector[4] = 9.0
    assert s["head.w"].data[0] == 9.0
    s["layer.w"].data[1, 1] = -1.0
    assert s.vector[3] == -1.0
    assert s.num_scalars() == 7


def test_constructor_copies_its_vector():
    vector = np.arange(7.0)
    s = ParamStore(SHAPES, vector)
    assert not np.shares_memory(s.vector, vector)


@pytest.mark.parametrize("derive", [
    lambda s: s.copy(),
    lambda s: s.detached(),
    lambda s: s.map(lambda a: a),
    lambda s: s.map2(s, lambda a, b: a),
], ids=["copy", "detached", "map-identity", "map2-first"])
def test_derived_stores_never_alias_the_source(derive):
    s = store()
    out = derive(s)
    assert not np.shares_memory(out.vector, s.vector)
    out.vector[:] = 0.0
    np.testing.assert_array_equal(s.vector, np.arange(7.0))
    assert np.shares_memory(out["head.w"].data, out.vector)


def test_requires_grad_is_kept_or_set_by_copy():
    s = store()
    assert s.copy()["head.w"].requires_grad
    assert not s.detached()["head.w"].requires_grad
    assert s.detached().copy(requires_grad=True)["layer.w"].requires_grad


def test_nan_in_the_second_tensor_names_it():
    vector = np.arange(7.0)
    vector[6] = np.nan
    with pytest.raises(NumericError, match="'head.w'"):
        ParamStore(SHAPES, vector)


@pytest.mark.parametrize("size", [6, 8])
def test_vector_of_the_wrong_length(size):
    with pytest.raises(DimensionError, match=r"expected \(7,\)"):
        ParamStore(SHAPES, np.zeros(size))


def test_pickle_keeps_the_views():
    s = pickle.loads(pickle.dumps(store()))
    assert s.shapes() == SHAPES and s["head.w"].requires_grad
    s.vector[:] = 1.0
    np.testing.assert_array_equal(s["layer.w"].data, np.ones((2, 2)))


def test_combining_checks_tensor_order():
    s = store()
    swapped = ParamStore({"head.w": (3,), "layer.w": (2, 2)}, np.arange(7.0))
    with pytest.raises(DimensionError, match="'head.w' is out of order"):
        s.map2(swapped, np.add)
    with pytest.raises(DimensionError, match="out of order"):
        s.allclose(swapped)
