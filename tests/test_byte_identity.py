"""Emitted bytes and decoded pixels stay identical across refactors.

The digests below were recorded from the encoder before its component
layouts were made table-driven.  Each case covers one layout the encoder
writes: grayscale (with and without a chroma table passed in), RGB with one
table, RGB with two tables, RGB with a drop set, and an odd size whose
edge blocks are padded.

The statistics digests were recorded before the band statistics became
plain arrays.  They cover the ``analyze`` JSON and CSV in both channel
modes and the tables ``design-table`` derives from them.
"""

import hashlib

import numpy as np
import pytest

from statjpeg import cli
from statjpeg.jpeg import decode_image, encode_image
from statjpeg.synth import generate_corpus, synth_image
from statjpeg.tables import rm_hf_table, standard_table

LUMA = standard_table(75, "luma")
CHROMA = standard_table(75, "chroma")
RM_LUMA = rm_hf_table(standard_table(90, "luma"), 10)
RM_CHROMA = rm_hf_table(standard_table(90, "chroma"), 10)


def image(kind, height, width, color):
    return synth_image(kind, np.random.default_rng(7), height, width, color=color)


# name -> (image, encode arguments)
CASES = {
    "gray": (image("blobs", 40, 48, False), (LUMA,)),
    "gray-chroma-passed": (image("blobs", 40, 48, False), (LUMA, CHROMA)),
    "rgb-single-table": (image("stripes", 40, 48, True), (LUMA,)),
    "rgb-two-tables": (image("stripes", 40, 48, True), (LUMA, CHROMA)),
    "rgb-drop": (image("speckle", 40, 48, True), (RM_LUMA, RM_CHROMA)),
    "rgb-odd-17x9": (image("gradients", 9, 17, True), (LUMA, CHROMA)),
    "gray-odd-17x9": (image("gradients", 9, 17, False), (LUMA,)),
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
    img, args = CASES[name]
    data = encode_image(img, *args)
    assert (hashlib.sha256(data).hexdigest(), pixel_digest(decode_image(data))) == RECORDED[name]


# output -> SHA-256 of the files it writes
RECORDED_STATS = {
    "analyze-luma": "e2121b50dd4aaae0bc5c28487e9a3ffd16617e98d4f3b957b41611979fd0721c",
    "analyze-per-channel": "e007d664a764681f5bad702ee2c60072b0124e39d6c4f61d7539a6dc94fbb459",
    "design-table-y": "dbe4e4f1f278bcd5d38c5e53c9fae27227559f7bf85fbe744b80aa3e94e94958",
    "design-table-chroma": "b4159ca69fafc2eed5822f40519c03627be2932d8ec9a1c84157435463cdf4b9",
}


def test_statistics_outputs_match_recorded(tmp_path):
    corpus = generate_corpus(tmp_path / "corpus", images_per_class=3, size=(37, 53))
    digests = {}
    for mode in ("luma", "per-channel"):
        stats, csv = tmp_path / f"{mode}.json", tmp_path / f"{mode}.csv"
        argv = ["analyze", str(corpus), "--channel-mode", mode,
                "--out", str(stats), "--csv", str(csv)]
        assert cli.main(argv) == 0
        digests[f"analyze-{mode}"] = hashlib.sha256(
            stats.read_bytes() + csv.read_bytes()
        ).hexdigest()
    for channel, mode in (("y", "luma"), ("chroma", "per-channel")):
        table = tmp_path / f"{channel}-table.json"
        argv = ["design-table", str(tmp_path / f"{mode}.json"),
                "--channel", channel, "--out", str(table)]
        assert cli.main(argv) == 0
        digests[f"design-table-{channel}"] = hashlib.sha256(table.read_bytes()).hexdigest()
    assert digests == RECORDED_STATS
