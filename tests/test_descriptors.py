import numpy as np
import pytest

from fpfusion.descriptors import DescriptorSet


@pytest.mark.parametrize("vectors", [np.zeros(4), np.zeros((2, 3, 4))])
def test_vectors_not_2d_rejected(vectors):
    with pytest.raises(ValueError, match="2-d"):
        DescriptorSet(vectors, np.ones(len(vectors), dtype=bool))


@pytest.mark.parametrize("valid", [np.ones(2, dtype=bool), np.ones(4, dtype=bool), np.ones((3, 1))])
def test_valid_mask_of_wrong_length_rejected(valid):
    with pytest.raises(ValueError, match="valid mask length"):
        DescriptorSet(np.zeros((3, 4)), valid)
