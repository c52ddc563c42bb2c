"""Emitted bytes and decoded pixels stay identical across refactors.

The digests below were recorded from the encoder before its component
layouts were made table-driven.  Each case covers one layout the encoder
writes: grayscale (with and without a chroma table passed in), RGB with one
table, RGB with two tables, RGB with a drop set, and an odd size whose
edge blocks are padded.
"""

import hashlib

import numpy as np
import pytest

from statjpeg.jpeg import decode_image, encode_image
from statjpeg.synth import synth_image
from statjpeg.tables import rm_hf_table, standard_table

LUMA = standard_table(75, "luma")
CHROMA = standard_table(75, "chroma")
RM_LUMA, DROP = rm_hf_table(standard_table(90, "luma"), 10)
RM_CHROMA, _ = rm_hf_table(standard_table(90, "chroma"), 10)


def image(kind, height, width, color):
    return synth_image(kind, np.random.default_rng(7), height, width, color=color)


# name -> (image, encode arguments, encode keywords)
CASES = {
    "gray": (image("blobs", 40, 48, False), (LUMA,), {}),
    "gray-chroma-passed": (image("blobs", 40, 48, False), (LUMA, CHROMA), {}),
    "rgb-single-table": (image("stripes", 40, 48, True), (LUMA,), {}),
    "rgb-two-tables": (image("stripes", 40, 48, True), (LUMA, CHROMA), {}),
    "rgb-drop": (image("speckle", 40, 48, True), (RM_LUMA, RM_CHROMA), {"drop_zigzag": DROP}),
    "rgb-odd-17x9": (image("gradients", 9, 17, True), (LUMA, CHROMA), {}),
    "gray-odd-17x9": (image("gradients", 9, 17, False), (LUMA,), {}),
}

# name -> (SHA-256 of the file, SHA-256 of the decoded geometry and planes)
RECORDED = {
    "gray": (
        "5fe014ebf61a6ba30afa1a353656afc9224e59333a359887777dace888578e94",
        "648a05813375eca9dca64c78ea8d28a8f5cb37c2ca7c9c03ad383236b741521a",
    ),
    "gray-chroma-passed": (
        "5fe014ebf61a6ba30afa1a353656afc9224e59333a359887777dace888578e94",
        "648a05813375eca9dca64c78ea8d28a8f5cb37c2ca7c9c03ad383236b741521a",
    ),
    "gray-odd-17x9": (
        "c7d13b8ed8a3312b67c054520a878ae73800b81fd2df6ac6feb5df23de26223a",
        "61709bb8ab7f0f20b7de87f48c6ed8220063955e026ab833fe112bccc2f809ff",
    ),
    "rgb-drop": (
        "30858411d162658d7e8b5aee88fe97efc4587ca1c37718387fcf10ca58ee176b",
        "5114588e0906647446ecf55ff6a95c0090a4432e2786a2dd88578234c157305b",
    ),
    "rgb-odd-17x9": (
        "5a63e365b18c4abb63736ff16503d4633d9403ac1084e9842e698a6d4081340d",
        "b46652457854bdc3dca876f832c3105446a717cbc5e0a09671fb7469ce38545e",
    ),
    "rgb-single-table": (
        "b8f6aaafc77de528576ec32d56aba63349adf41a611b0de3ebe31d241a580b3c",
        "c789b7016857fcef65b63aaca2b705adf582874753516f04c3bc6f0fe106d7db",
    ),
    "rgb-two-tables": (
        "cedbc1bd38b76d6407391605ba0a75950a908ffab6997c01f698cecf988e295a",
        "5973d1422715f803257441da3f5bb64d4bb0ddd2dca803e66729593d364f79d7",
    ),
}


def pixel_digest(img):
    h = hashlib.sha256(f"{img.width}x{img.height}x{img.channels}".encode())
    for plane in img.planes:
        h.update(np.ascontiguousarray(plane, dtype=np.uint8).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_bytes_and_pixels_match_recorded(name):
    img, args, kwargs = CASES[name]
    data = encode_image(img, *args, **kwargs)
    assert (hashlib.sha256(data).hexdigest(), pixel_digest(decode_image(data))) == RECORDED[name]
