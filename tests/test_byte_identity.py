"""Emitted bytes and decoded pixels stay identical across refactors.

The digests below were recorded from the encoder before its component
layouts were made table-driven.  Each case covers one layout the encoder
writes: grayscale (with and without a chroma table passed in), RGB with one
table, RGB with two tables, RGB with a drop set, and an odd size whose
edge blocks are padded.  Two more span several strips of the encoder's
pixel path: an RGB image with two tables and a drop set whose last strip
is partial and padded, and a gray image one block wide, the width at which
a batched DCT product changes bits.

The statistics digests were recorded before the band statistics became
plain arrays.  They cover the ``analyze`` JSON and CSV in both channel
modes and the tables ``design-table`` derives from them.

The benchmark digests were recorded before the table sources became one
registry.  They cover ``benchmark --csv``, its printed summary and its
``--json`` over every table-source kind, ``plm:`` on luma-only and on
per-channel stats included.

Every digest is checked again with the pixel path's strips 8 rows tall
and with one strip per image, so the strip height cannot change a bit.
"""

import hashlib
import json

import numpy as np
import pytest

from statjpeg import blocks, cli
from statjpeg.jpeg import decode_image, encode_image
from statjpeg.synth import generate_corpus, synth_image
from statjpeg.tables import rm_hf_table, same_q_table, save_table, standard_table

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
    "rgb-strips-530x139": (image("stripes", 139, 530, True), (RM_LUMA, CHROMA)),
    "gray-tall-7x1000": (image("gradients", 1000, 7, False), (LUMA,)),
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
    "gray-tall-7x1000": (
        "849f9e82f7a6691ac1ebc2d12fba90e4b50239b0fade6af5efeb038ddcba1caa",
        "1e185d0dd712228575dbed8776e7054211864e09888ad1379f2c9f5fe2fc6105",
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
    "rgb-strips-530x139": (
        "d748073eb32f5659d9faa6fc335a05ead3d71b924c591f996f848774a3bd199e",
        "e9b56f1b3dc8c5907198130ba111e848216cad07f3a1d4d6989e155d8bbe69c6",
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


# per-channel ``analyze`` JSON over one 530x139 image per class
RECORDED_MULTI_STRIP_STATS = "fea75240c5d675d2b257537c9fe3552a3634a23318897965e926940f760f5198"


def test_multi_strip_statistics_match_recorded(tmp_path):
    corpus = generate_corpus(tmp_path / "corpus", images_per_class=1, size=(139, 530))
    stats = tmp_path / "stats.json"
    argv = ["analyze", str(corpus), "--channel-mode", "per-channel", "--out", str(stats)]
    assert cli.main(argv) == 0
    assert hashlib.sha256(stats.read_bytes()).hexdigest() == RECORDED_MULTI_STRIP_STATS


# benchmark output -> SHA-256 of its bytes; the JSON without its "corpus"
# line, which holds the machine-specific corpus path
RECORDED_BENCHMARK = {
    "csv": "8bc58dd33f1fb3e6fc0b6f8136fb034e3261dd288befb5f1cf0bb43abe169fa2",
    "stdout": "966dfcd449bba77ca01cb1f516c78e2aab82efed617367851e074f36613f749d",
    "json": "c06a9e7f765ab57d7d51106d7dc6c37340108acd61f0edf4aa52f83fd14de995",
}


def test_benchmark_outputs_match_recorded(tmp_path, monkeypatch, capsys):
    # relative paths keep the source labels free of the temporary directory
    monkeypatch.chdir(tmp_path)
    corpus = generate_corpus(tmp_path / "corpus", images_per_class=2, size=(37, 53))
    for mode, stats in (("luma", "luma.json"), ("per-channel", "pc.json")):
        assert cli.main(["analyze", str(corpus), "--channel-mode", mode, "--out", stats]) == 0
    save_table(rm_hf_table(same_q_table(6), 5), "table.json")
    capsys.readouterr()
    sources = ["plm:luma.json", "plm:pc.json", "standard-qf:100", "standard-qf:50",
               "same-q:4", "rm-hf:3", "file:table.json"]
    argv = ["benchmark", str(corpus), "--csv", "rows.csv", "--json", "summary.json"]
    assert cli.main(argv + [arg for spec in sources for arg in ("--table", spec)]) == 0
    summary = (tmp_path / "summary.json").read_text()
    corpus_line = f'  "corpus": {json.dumps(str(corpus))},\n'
    assert corpus_line in summary
    digests = {
        "csv": (tmp_path / "rows.csv").read_bytes(),
        "stdout": capsys.readouterr().out.encode(),
        "json": summary.replace(corpus_line, "").encode(),
    }
    assert {k: hashlib.sha256(v).hexdigest() for k, v in digests.items()} == RECORDED_BENCHMARK


# the pixel path's strip size in samples, patched: one block row per
# strip, and one strip per image
STRIP_HEIGHTS = pytest.mark.parametrize(
    "strip_samples", [1, 1 << 40], ids=["8-rows", "one-strip"]
)


@STRIP_HEIGHTS
@pytest.mark.parametrize("name", sorted(CASES))
def test_bytes_and_pixels_hold_at_any_strip_height(monkeypatch, name, strip_samples):
    monkeypatch.setattr(blocks, "_STRIP_SAMPLES", strip_samples)
    test_bytes_and_pixels_match_recorded(name)


@STRIP_HEIGHTS
def test_statistics_and_benchmark_hold_at_any_strip_height(
    tmp_path, monkeypatch, capsys, strip_samples
):
    monkeypatch.setattr(blocks, "_STRIP_SAMPLES", strip_samples)
    test_statistics_outputs_match_recorded(tmp_path / "stats")
    test_multi_strip_statistics_match_recorded(tmp_path / "multi-strip")
    (tmp_path / "benchmark").mkdir()
    test_benchmark_outputs_match_recorded(tmp_path / "benchmark", monkeypatch, capsys)
