import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import settings

from statjpeg.corpus import scan_corpus
from statjpeg.synth import generate_corpus

# Derandomized, so every run draws the same examples; no deadline, because
# example times vary with machine load.
settings.register_profile("statjpeg", derandomize=True, deadline=None)
settings.load_profile("statjpeg")


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def mini_corpus(tmp_path_factory):
    """4 classes x 8 small images, the CLI-scale fixture."""
    root = tmp_path_factory.mktemp("mini") / "corpus"
    generate_corpus(root, images_per_class=8, size=(48, 48))
    return root


@pytest.fixture(scope="session")
def bundled_corpus(tmp_path_factory):
    """4 classes x 16 images (>= 50 total), the acceptance-scale corpus."""
    root = tmp_path_factory.mktemp("bundled") / "corpus"
    generate_corpus(root, images_per_class=16, size=(96, 96))
    return root


@pytest.fixture(scope="session")
def bundled_manifest(bundled_corpus):
    return scan_corpus(bundled_corpus)


def random_quantized_blocks(rng, n, density, max_mag=1023):
    """Valid quantized blocks with a controllable fraction of nonzeros."""
    blocks = np.zeros((n, 64), dtype=np.int64)
    mask = rng.random((n, 64)) < density
    values = rng.integers(-max_mag, max_mag + 1, size=(n, 64))
    blocks[mask] = values[mask]
    return blocks


def png_bytes(chunks):
    """A PNG file from (chunk type, payload) pairs, CRCs filled in."""
    out = bytearray(b"\x89PNG\r\n\x1a\n")
    for ctype, payload in chunks:
        out += struct.pack(">I", len(payload)) + ctype + payload
        out += struct.pack(">I", zlib.crc32(ctype + payload))
    return bytes(out)


def corrupt_png():
    """A 1x1 grayscale PNG whose IDAT is not a zlib stream."""
    ihdr = struct.pack(">IIBBBBB", 1, 1, 8, 0, 0, 0, 0)
    return png_bytes([(b"IHDR", ihdr), (b"IDAT", b"not zlib data"), (b"IEND", b"")])


def traced_peak(fn, *args):
    """Peak bytes numpy and Python allocate during ``fn(*args)``, its result too."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
