"""The synthetic corpus generator: its images are pinned bit for bit."""

import hashlib

import numpy as np
import pytest

from conftest import traced_peak
from statjpeg.synth import DEFAULT_CLASSES, synth_image

# sha256 of ``synth_image(kind, default_rng(seed), height, width).to_array()``;
# every digest in perfbench/golden.json and tests/test_byte_identity.py starts
# from these images.
RGB_PINS = {
    ("blobs", 48, 48, 0): "210bd3d465bd83f21e5d7a4193b63b2b368d5ffebabc2e443c8f1a5660d2fcec",
    ("blobs", 48, 48, 5): "3b632307e658ca057b34bed91924378878eebf4c296221832db3d9d972390ae3",
    ("blobs", 17, 33, 0): "a66c3ad7f8351549f497b07463c3ca39627b6315c9bfe9bd66915dcc4d0c4ef9",
    ("blobs", 17, 33, 5): "780d1abe1c62bc27506ab8beda4d52d66147a322543ad77e6205ebd02beebfc9",
    ("gradients", 48, 48, 0): "90382d99e25a8f4b369d0063a42bb5c270932bc285eeb7f54ff3dea75e172364",
    ("gradients", 48, 48, 5): "d9d588bca183f284f6bc0a2fc98228866911422aae72092774eba7ad96b0bf65",
    ("gradients", 17, 33, 0): "4c73323e43d54f407e0b158958b08e74afd7ab08a3970a46e4e6008be82d5f59",
    ("gradients", 17, 33, 5): "07cfe0ac55d4648cbd41cb079d7e34a3447282079ae7e25c97f13ba569df979d",
    ("stripes", 48, 48, 0): "4b1750202b802dfee57c8d8296c553d89d077876fcdf313f893eb85c6c35ee02",
    ("stripes", 48, 48, 5): "6b93dacad89c22c7946373305dde737f3c2b63c6bbe73b248a9cf98ea8fb58de",
    ("stripes", 17, 33, 0): "17eb0b8efe3305d99c88f6a86da07d96bbd5e85d4f0f6c9369b3ec5c4d29adaa",
    ("stripes", 17, 33, 5): "842a542676ea8422a8002049e64b1b29e4a1c5d0b4a162b1a89ce90ed9cc5650",
    ("speckle", 48, 48, 0): "f0f70002695a53a3ee919629889d3fe682c6486ae99e98251e84262d153e2f87",
    ("speckle", 48, 48, 5): "091ce78aaf8add0cba70e3363fcf457865768e5d5928d267ecc473227ed90757",
    ("speckle", 17, 33, 0): "3e36fabbb573801186becae8109eb845807a14bdc85a91a18829b92629efa05c",
    ("speckle", 17, 33, 5): "10b550eb9b6c5dcdde88edb81d904eea7a175e258ff96d7248a051376f45b63b",
}

GRAY_PINS = {
    ("blobs", 40, 24, 2): "61cea8f5a3fff6017b99f4640760b82df7f7cd2625ba1ab708637540a9803ebe",
    ("gradients", 40, 24, 2): "b1395c403a62f914aa0dda4bcf9886d40f16f1dc6e864e5276afc083985bdb71",
    ("stripes", 40, 24, 2): "78621f3b2410718609494cab973311e9524760fc8b2b3435f7c8cea225efb03c",
    ("speckle", 40, 24, 2): "fd90fb3751126647d96c3909fef9e1099689973bb74e9a6c9e285b646329fe4f",
}


def digest(img):
    return hashlib.sha256(img.to_array().tobytes()).hexdigest()


@pytest.mark.parametrize("key", sorted(RGB_PINS))
def test_rgb_image_is_pinned(key):
    kind, height, width, seed = key
    img = synth_image(kind, np.random.default_rng(seed), height, width)
    assert (img.height, img.width, img.channels) == (height, width, 3)
    assert digest(img) == RGB_PINS[key]


@pytest.mark.parametrize("key", sorted(GRAY_PINS))
def test_gray_image_is_pinned(key):
    kind, height, width, seed = key
    img = synth_image(kind, np.random.default_rng(seed), height, width, color=False)
    assert (img.height, img.width, img.channels) == (height, width, 1)
    assert digest(img) == GRAY_PINS[key]


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown image kind"):
        synth_image("plaid", np.random.default_rng(0), 8, 8)


@pytest.mark.parametrize("kind", DEFAULT_CLASSES)
def test_rgb_image_needs_few_float_planes(kind):
    # The luma plane, two planes to smooth one tint, and the uint8 image
    # (3/8 of a plane) make 3.4 float64 planes; 4.5 leaves room for small
    # temporaries but not for one more whole-image copy.
    synth_image(kind, np.random.default_rng(0), 16, 16)  # numpy's lazy imports
    plane = 256 * 256 * 8
    assert traced_peak(synth_image, kind, np.random.default_rng(1), 256, 256) <= 4.5 * plane
