import copy
import json
from pathlib import Path

import numpy as np
import pytest

from statjpeg.blocks import partition_blocks
from statjpeg.corpus import CorpusManifest
from statjpeg.dct import forward_dct
from statjpeg.errors import (
    EmptySampleWarning,
    InsufficientDataError,
    InvalidInputError,
    SchemaVersionError,
)
from statjpeg.image import RasterImage
from statjpeg.quant import ZIGZAG_INDEX
from statjpeg.stats import (
    FrequencyStats,
    load_stats,
    rank_bands,
    sample_images,
    save_stats,
)


def manifest_of(sizes):
    classes = tuple(
        (name, tuple(Path(f"{name}/img_{i:02d}.ppm") for i in range(count)))
        for name, count in sizes
    )
    return CorpusManifest(Path("fake"), classes, "digest")


def gray_image(arr):
    return RasterImage.from_array(np.asarray(arr, dtype=np.uint8))


def two_pass_deltas(images):
    """Oracle: hold all coefficients, compute population std per band."""
    per_band = [[] for _ in range(64)]
    for img in images:
        coeffs = forward_dct(partition_blocks(img.planes[0])).reshape(-1, 64)
        for band in range(64):
            per_band[band].extend(coeffs[:, band].tolist())
    return np.array([np.std(np.asarray(v)) for v in per_band])


class TestSampling:
    def test_k_one_selects_everything(self):
        manifest = manifest_of([("a", 4), ("b", 3)])
        assert sample_images(manifest, 1) == manifest.image_paths()

    def test_every_third_image(self):
        manifest = manifest_of([("a", 10)])
        selected = sample_images(manifest, 3)
        # m runs 1..10; kept where m % 3 == 0 -> positions 3, 6, 9
        assert [p.name for p in selected] == ["img_02.ppm", "img_05.ppm", "img_08.ppm"]

    def test_class_order_preserved(self):
        manifest = manifest_of([("b", 2), ("a", 2)])
        selected = sample_images(manifest, 2)
        assert [str(p.parent) for p in selected] == ["b", "a"]

    def test_oversized_interval_warns_empty(self):
        manifest = manifest_of([("a", 3), ("b", 2)])
        with pytest.warns(EmptySampleWarning):
            assert sample_images(manifest, 5) == []

    def test_empty_manifest_rejected(self):
        empty = CorpusManifest(Path("fake"), (), "d")
        with pytest.raises(InvalidInputError):
            sample_images(empty, 1)

    def test_spec_validation(self):
        manifest = manifest_of([("a", 3)])
        with pytest.raises(InvalidInputError):
            sample_images(manifest, 0)
        with pytest.raises(InvalidInputError):
            FrequencyStats("bogus")

    @pytest.mark.parametrize("k", [1.5, 3.0, True, "3"])
    def test_interval_must_be_an_integer(self, k):
        manifest = manifest_of([("a", 10)])
        with pytest.raises(InvalidInputError, match="interval k must be integers"):
            sample_images(manifest, k)


def block_coefficients(images):
    return np.concatenate(
        [forward_dct(partition_blocks(img.planes[0])).reshape(-1, 64) for img in images]
    )


class TestAccumulator:
    """The per-channel (count, sums[64], gram[64, 64]) moments of FrequencyStats."""

    def test_scalar_updates_match_numpy(self, rng):
        # one-block images: every fold adds a single sample per band
        images = [gray_image(rng.integers(0, 256, size=(8, 8))) for _ in range(300)]
        stats = FrequencyStats()
        for img in images:
            stats.accumulate_image(img)
        count, mean, stddev = stats.finalize().channels["y"]
        coeffs = block_coefficients(images)
        assert count == 300
        np.testing.assert_allclose(mean, coeffs.mean(axis=0), rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(stddev, coeffs.std(axis=0), rtol=1e-9)

    def test_batch_equals_scalar(self, rng):
        arr = rng.integers(0, 256, size=(8, 8 * 100))
        batched = FrequencyStats().accumulate_image(gray_image(arr))
        scalar = FrequencyStats()
        for j in range(100):
            scalar.accumulate_image(gray_image(arr[:, 8 * j:8 * j + 8]))
        assert batched.total_blocks == scalar.total_blocks == 100
        for got, want in zip(batched.moments["y"], scalar.moments["y"]):
            assert np.array_equal(got, want)
        assert batched.finalize() == scalar.finalize()

    def test_merge_is_order_insensitive(self, rng):
        # chunks whose spreads differ by two orders of magnitude
        def chunk(spread):
            arr = np.clip(rng.normal(128, spread, size=(16, 16)), 0, 255)
            return FrequencyStats().accumulate_image(gray_image(arr))

        chunks = [chunk(s) for s in (4.0, 40.0, 0.4)]
        left, right = FrequencyStats(), FrequencyStats()
        for c in chunks:
            left.merge(c)
        for c in reversed(chunks):
            right.merge(c)
        assert left.total_blocks == right.total_blocks == 12
        assert np.array_equal(left.finalize().deltas(), right.finalize().deltas())
        assert left.finalize() == right.finalize()

    def test_merging_into_itself_30_times_is_exact(self, rng):
        # scaling exact integer sums by a power of two is exact, so this
        # reaches 2**30 times the blocks without the data
        stats = FrequencyStats("per-channel").accumulate_image(
            RasterImage.from_array(rng.integers(0, 256, size=(24, 40, 3)).astype(np.uint8))
        )
        want = stats.finalize()
        for _ in range(30):
            stats.merge(copy.deepcopy(stats))
        got = stats.finalize()
        for channel, (count, mean, stddev) in want.channels.items():
            assert got.channels[channel][0] == count * 2**30
            assert np.array_equal(got.channels[channel][1], mean)
            assert np.array_equal(got.channels[channel][2], stddev)

    def test_strip_past_float32_exactness_sums_exactly(self, rng):
        # one strip of 2048 blocks of samples -128 and 127: a single float32
        # Gram product of it would pass 2**24 and round
        plane = rng.choice(np.array([0, 255], dtype=np.uint8), size=(8, 8 * 2048))
        stats = FrequencyStats().accumulate_image(gray_image(plane))
        x = partition_blocks(plane).reshape(-1, 64).astype(np.int64)
        count, sums, gram = stats.moments["y"]
        assert count == 2048
        assert np.array_equal(sums, x.sum(axis=0))
        assert np.array_equal(gram, x.T @ x)
        assert np.abs(x.T @ x).max() > 2**24

    def test_empty_accumulator_invariants(self):
        stats = FrequencyStats("per-channel")
        stats.merge(FrequencyStats("per-channel"))
        for count, sums, gram in stats.moments.values():
            assert count == 0
            assert sums.shape == (64,) and gram.shape == (64, 64)
            assert not sums.any() and not gram.any()
        assert stats.total_blocks == 0


class TestFrequencyStats:
    def test_constant_corpus_has_zero_spread(self):
        stats = FrequencyStats()
        img = gray_image(np.full((16, 16), 128))
        for _ in range(3):
            stats.accumulate_image(img)
        deltas = stats.finalize().deltas()
        assert np.all(deltas == 0)

    def test_two_block_image_matches_two_pass_oracle(self, rng):
        img = gray_image(rng.integers(0, 256, size=(8, 16)))
        stats = FrequencyStats().accumulate_image(img)
        deltas = stats.finalize().deltas()
        oracle = two_pass_deltas([img])
        np.testing.assert_allclose(deltas, oracle, rtol=1e-9, atol=1e-9)

    def test_corpus_matches_two_pass_oracle(self, rng):
        images = [gray_image(rng.integers(0, 256, size=(24, 24))) for _ in range(10)]
        stats = FrequencyStats()
        for img in images:
            stats.accumulate_image(img)
        oracle = two_pass_deltas(images)
        np.testing.assert_allclose(stats.finalize().deltas(), oracle, rtol=1e-9)

    def test_accumulation_order_does_not_matter(self, rng):
        images = [gray_image(rng.integers(0, 256, size=(16, 16))) for _ in range(6)]
        forward = FrequencyStats()
        for img in images:
            forward.accumulate_image(img)
        backward = FrequencyStats()
        for img in reversed(images):
            backward.accumulate_image(img)
        a, b = forward.finalize().deltas(), backward.finalize().deltas()
        assert np.array_equal(a, b)
        assert forward.finalize() == backward.finalize()

    def test_parallel_merge_equals_serial(self, rng):
        images = [gray_image(rng.integers(0, 256, size=(16, 16))) for _ in range(4)]
        serial = FrequencyStats()
        for img in images:
            serial.accumulate_image(img)
        part1 = FrequencyStats()
        part1.accumulate_image(images[0]).accumulate_image(images[1])
        part2 = FrequencyStats()
        part2.accumulate_image(images[2]).accumulate_image(images[3])
        merged = part1.merge(part2)
        assert np.array_equal(merged.finalize().deltas(), serial.finalize().deltas())
        assert merged.finalize() == serial.finalize()

    def test_band_counts_all_equal(self, rng):
        stats = FrequencyStats()
        for _ in range(3):
            stats.accumulate_image(gray_image(rng.integers(0, 256, size=(17, 9))))
        count, mean, stddev = stats.finalize().channels["y"]
        assert mean.shape == stddev.shape == (64,)
        assert stats.total_blocks == count

    def test_rgb_image_uses_luma_plane(self, rng):
        arr = rng.integers(0, 256, size=(16, 16, 3)).astype(np.uint8)
        stats = FrequencyStats().accumulate_image(RasterImage.from_array(arr))
        assert stats.finalize().channels["y"][0] == 4

    def test_per_channel_mode_pools_chroma(self, rng):
        arr = rng.integers(0, 256, size=(16, 16, 3)).astype(np.uint8)
        stats = FrequencyStats("per-channel")
        stats.accumulate_image(RasterImage.from_array(arr))
        channels = stats.finalize().channels
        assert channels["y"][0] == 4
        assert channels["chroma"][0] == 8  # Cb and Cr pooled

    def test_per_channel_mode_rejects_grayscale(self):
        stats = FrequencyStats("per-channel")
        with pytest.raises(InvalidInputError):
            stats.accumulate_image(gray_image(np.zeros((8, 8))))

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            FrequencyStats().finalize()
        one_block = FrequencyStats().accumulate_image(gray_image(np.zeros((8, 8))))
        with pytest.raises(InsufficientDataError):
            one_block.finalize()


class TestRanking:
    def test_all_equal_deltas_rank_in_zigzag_order(self):
        ranked = rank_bands(np.ones(64))
        np.testing.assert_array_equal(ranked, ZIGZAG_INDEX)

    def test_dominant_dc_ranks_first(self):
        deltas = np.ones(64)
        deltas[0] = 100.0
        assert rank_bands(deltas)[0] == 0

    def test_ranking_matches_full_sort_oracle(self, rng):
        deltas = rng.uniform(0, 50, size=64)
        ranked = rank_bands(deltas)
        # independent oracle: stable sort over explicit (delta, position) keys
        from statjpeg.quant import ZIGZAG_POSITION

        oracle = sorted(range(64), key=lambda b: (-deltas[b], ZIGZAG_POSITION[b]))
        np.testing.assert_array_equal(ranked, np.array(oracle))


def test_bundled_corpus_ac_means_near_zero(bundled_manifest):
    # soft corpus check: symmetric coefficient distributions on
    # natural-image-like content keep every AC band mean within 5% of its
    # spread
    from statjpeg.imgfile import load_image

    stats = FrequencyStats()
    for path in bundled_manifest.image_paths():
        stats.accumulate_image(load_image(path))
    summary = stats.finalize()
    deltas = summary.deltas()
    _, means, _ = summary.channels["y"]
    assert np.all(np.abs(means[1:]) <= 0.05 * deltas[1:])


class TestPersistence:
    def test_round_trip_exact(self, rng, tmp_path):
        stats = FrequencyStats(source_digest="abc123")
        for _ in range(2):
            stats.accumulate_image(
                gray_image(rng.integers(0, 256, size=(16, 16)))
            )
        summary = stats.finalize()
        path = tmp_path / "stats.json"
        save_stats(summary, path)
        assert load_stats(path) == summary

    def test_summary_holds_read_only_arrays(self, rng, tmp_path):
        stats = FrequencyStats("per-channel")
        stats.accumulate_image(
            RasterImage.from_array(rng.integers(0, 256, size=(16, 16, 3)).astype(np.uint8))
        )
        summary = stats.finalize()
        path = tmp_path / "stats.json"
        save_stats(summary, path)
        for loaded in (summary, load_stats(path)):
            for channel, (count, mean, stddev) in loaded.channels.items():
                assert isinstance(count, int)
                for arr in (mean, stddev):
                    assert arr.dtype == np.float64 and arr.shape == (64,)
                    assert not arr.flags.writeable
                assert loaded.deltas(channel) is stddev

    def test_disagreeing_band_counts_rejected(self, rng, tmp_path):
        stats = FrequencyStats().accumulate_image(
            gray_image(rng.integers(0, 256, size=(16, 16)))
        )
        path = tmp_path / "stats.json"
        save_stats(stats.finalize(), path)
        doc = json.loads(path.read_text())
        doc["channels"]["y"]["17"]["count"] += 1
        path.write_text(json.dumps(doc))
        with pytest.raises(InvalidInputError, match="disagree on count"):
            load_stats(path)

    def test_total_blocks_must_be_the_channel_count_sum(self, rng, tmp_path):
        stats = FrequencyStats("per-channel").accumulate_image(
            RasterImage.from_array(rng.integers(0, 256, size=(16, 16, 3)).astype(np.uint8))
        )
        summary = stats.finalize()
        assert summary.total_blocks == 4 + 8  # luma, then Cb and Cr pooled
        path = tmp_path / "stats.json"
        save_stats(summary, path)
        doc = json.loads(path.read_text())
        assert doc["total_blocks"] == 12
        for wrong in (999999, 4, "12"):
            doc["total_blocks"] = wrong
            path.write_text(json.dumps(doc))
            with pytest.raises(InvalidInputError, match="sum of the channel counts"):
                load_stats(path)

    def test_version_mismatch(self, tmp_path, rng):
        stats = FrequencyStats()
        stats.accumulate_image(gray_image(rng.integers(0, 256, size=(16, 16))))
        path = tmp_path / "stats.json"
        save_stats(stats.finalize(), path)
        doc = path.read_text().replace('"schema_version": 1', '"schema_version": 2')
        path.write_text(doc)
        with pytest.raises(SchemaVersionError):
            load_stats(path)

    @pytest.mark.parametrize(
        "text",
        [b'{"schema_version": 1,,}', b'{"schema_version": 1, "x": "\xff"}', b"[1, 2"],
        ids=["syntax", "not-utf-8", "cut-short"],
    )
    def test_file_that_is_not_json_is_malformed(self, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_bytes(text)
        with pytest.raises(InvalidInputError, match="^malformed stats file .*bad.json: "):
            load_stats(path)

    def test_corrupt_json_reports_location(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema_version": 1,,}')
        with pytest.raises(Exception) as err:
            load_stats(path)
        assert "line" in str(err.value) or "char" in str(err.value)
