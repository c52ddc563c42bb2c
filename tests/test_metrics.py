import numpy as np
import pytest

from statjpeg.errors import InvalidInputError
from statjpeg.image import RasterImage
from statjpeg.jpeg import decode_coefficients, encode_image
from statjpeg.metrics import (
    band_coefficients,
    coefficient_sparsity,
    compression_rate,
    histogram,
    psnr,
)
from statjpeg.synth import synth_image
from statjpeg.tables import rm_hf_table, same_q_table, standard_table


def gray(arr):
    return RasterImage.from_array(np.asarray(arr, dtype=np.uint8))


class TestCompressionRate:
    def test_basic_ratios(self):
        assert compression_rate(1000, 250) == 4.0
        assert compression_rate(123, 123) == 1.0

    def test_zero_sizes_rejected(self):
        with pytest.raises(InvalidInputError):
            compression_rate(0, 10)
        with pytest.raises(InvalidInputError):
            compression_rate(10, 0)


class TestPsnr:
    def test_identical_images_are_lossless(self, rng):
        img = gray(rng.integers(0, 256, size=(16, 16)))
        report = psnr(img, img)
        assert report.lossless
        assert report.psnr is None

    def test_unit_offset_closed_form(self):
        a = gray(np.full((32, 32), 100))
        b = gray(np.full((32, 32), 101))
        report = psnr(a, b)
        assert abs(report.mse - 1.0) < 1e-12
        assert abs(report.psnr - 10 * np.log10(255**2)) < 1e-9  # ~48.13 dB

    def test_monotone_in_noise_amplitude(self, rng):
        base = rng.integers(64, 192, size=(32, 32))
        img = gray(base)
        values = []
        for amp in (1, 4, 16):
            noisy = gray(np.clip(base + rng.integers(-amp, amp + 1, base.shape), 0, 255))
            values.append(psnr(img, noisy).psnr)
        assert values[0] > values[1] > values[2]

    def test_symmetry(self, rng):
        a = gray(rng.integers(0, 256, size=(16, 16)))
        b = gray(rng.integers(0, 256, size=(16, 16)))
        assert psnr(a, b).mse == psnr(b, a).mse

    def test_geometry_mismatch_rejected(self, rng):
        a = gray(rng.integers(0, 256, size=(16, 16)))
        b = gray(rng.integers(0, 256, size=(16, 17)))
        with pytest.raises(InvalidInputError):
            psnr(a, b)

    def test_luma_mode_on_rgb(self, rng):
        arr = rng.integers(0, 256, size=(16, 16, 3)).astype(np.uint8)
        img = RasterImage.from_array(arr)
        assert psnr(img, img).lossless


class TestSparsity:
    def test_constant_image_all_ac_zero(self):
        img = gray(np.full((16, 16), 77))
        report = coefficient_sparsity(img, same_q_table(1))
        assert report.zero_fraction == 1.0
        assert all(f == 1.0 for f in report.per_band)

    def test_coarser_uniform_quantizer_never_less_sparse(self, rng):
        img = gray(rng.integers(0, 256, size=(40, 40)))
        fractions = [
            coefficient_sparsity(img, same_q_table(q)).zero_fraction
            for q in (1, 4, 16, 64, 255)
        ]
        assert all(a <= b for a, b in zip(fractions, fractions[1:]))

    def test_sparsity_band_indexing(self, rng):
        img = gray(rng.integers(0, 256, size=(24, 24)))
        report = coefficient_sparsity(img, standard_table(50))
        assert len(report.per_band) == 63
        assert report.zero_fraction == pytest.approx(np.mean(report.per_band), abs=1e-12)

    def test_drop_set_counts_what_the_file_stores(self):
        img = synth_image("blobs", np.random.default_rng(3), 64, 64)
        luma = rm_hf_table(standard_table(100, "luma"), 20)
        chroma = rm_hf_table(standard_table(100, "chroma"), 20)
        data = encode_image(img, luma, chroma)
        stored = decode_coefficients(data)[0][0]
        report = coefficient_sparsity(img, luma)
        assert report.zero_fraction == float((stored[:, 1:] == 0).mean())
        assert report.per_band == tuple((stored[:, 1:] == 0).mean(axis=0).tolist())


class TestHistogram:
    def test_all_zero_collapses_to_single_bin(self):
        rows = histogram(np.zeros(100), bin_width=2.0)
        assert rows == [(0.0, 100)]

    def test_symmetric_data_symmetric_histogram(self):
        values = np.concatenate([np.arange(1, 50), -np.arange(1, 50)])
        rows = dict(histogram(values, bin_width=5.0))
        for center, count in rows.items():
            assert rows[-center] == count

    def test_bin_assignment_boundaries(self):
        # half-away rounding: 2.5 with width 5 lands in bin 1, -2.5 in bin -1
        rows = dict(histogram(np.array([2.5, -2.5, 2.4]), bin_width=5.0))
        assert rows == {5.0: 1, -5.0: 1, 0.0: 1}

    def test_invalid_inputs(self):
        with pytest.raises(InvalidInputError):
            histogram(np.ones(4), bin_width=0)
        with pytest.raises(InvalidInputError):
            histogram(np.array([]), bin_width=1.0)


def test_band_coefficients_extraction(rng):
    img = gray(rng.integers(0, 256, size=(32, 32)))
    dc = band_coefficients(img, 0)
    assert dc.shape == (16,)
    # DC of a block is 8 * (block mean - 128) under the orthonormal scaling
    plane = img.planes[0].astype(float) - 128
    first_block_mean = plane[:8, :8].mean()
    assert abs(dc[0] - 8 * first_block_mean) < 1e-9
    with pytest.raises(InvalidInputError):
        band_coefficients(img, 64)
