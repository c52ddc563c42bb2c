"""Dataset frequency statistics: interval sampling of a class-per-directory
corpus, block-wise DCT, and per-band streaming mean/deviation statistics.

The per-band spread (population standard deviation of the un-quantized DCT
coefficients) is the signal the table designer maps to quantization steps.
"""

import csv
import json
import warnings
from dataclasses import dataclass

import numpy as np

from .blocks import block_grid, sample_strips
from .dct import forward_dct_rows
from .errors import (
    EmptySampleWarning,
    InsufficientDataError,
    InvalidInputError,
    SchemaVersionError,
)
from .quant import ZIGZAG_POSITION, integers

# perfbench/spans.py wraps these layer functions in this module by name, so
# they stay imported here although the strip pipeline no longer calls them.
from .blocks import partition_blocks  # noqa: F401
from .color import color_convert_forward  # noqa: F401
from .dct import forward_dct  # noqa: F401

LUMA_ONLY = "luma"
PER_CHANNEL = "per-channel"

N_BANDS = 64
STATS_SCHEMA_VERSION = 1


def sample_images(manifest, k):
    """Select every k-th image per class, visiting classes in manifest order.

    The running counter m starts at 1 within each class; an image is kept
    when m % k == 0.  Warns (EmptySampleWarning) when nothing is selected.
    """
    if k < 1:
        raise InvalidInputError(f"interval k must be >= 1, got {k}")
    if not manifest.classes:
        raise InvalidInputError("corpus manifest has no classes")
    selected = []
    for _, paths in manifest.classes:
        for m, path in enumerate(paths, start=1):
            if m % k == 0:
                selected.append(path)
    if not selected:
        warnings.warn(
            f"interval k={k} selected no images from any class",
            EmptySampleWarning,
            stacklevel=2,
        )
    return selected


def rank_bands(deltas):
    """Band indices sorted by descending spread, ties by zig-zag position."""
    deltas = np.asarray(deltas, dtype=np.float64)
    if deltas.shape != (N_BANDS,):
        raise InvalidInputError(f"expected 64 values, got shape {deltas.shape}")
    return np.lexsort((ZIGZAG_POSITION, -deltas))


class FrequencyStats:
    """Per-channel, per-band coefficient statistics over a sampled corpus.

    Channels are 'y' (always) and, in per-channel mode, 'chroma' (Cb and Cr
    pooled).  Single instances are not thread-safe; accumulate per image in
    parallel and combine with :meth:`merge`.
    """

    def __init__(self, channel_mode=LUMA_ONLY, source_digest=None):
        if channel_mode not in (LUMA_ONLY, PER_CHANNEL):
            raise InvalidInputError(f"unknown channel mode {channel_mode!r}")
        self.channel_mode = channel_mode
        self.source_digest = source_digest
        channels = ["y"] if channel_mode == LUMA_ONLY else ["y", "chroma"]
        # per channel: block count, per-band mean, per-band sum of squared
        # deviations from the mean
        self.moments = {
            name: (0, np.zeros(N_BANDS), np.zeros(N_BANDS)) for name in channels
        }

    def _channel_planes(self, img):
        """Channel -> indices of its Y, Cb, Cr (or gray) components."""
        if self.channel_mode == LUMA_ONLY:
            return {"y": [0]}
        if img.channels != 3:
            raise InvalidInputError(
                "per-channel statistics need 3-channel images"
            )
        return {"y": [0], "chroma": [1, 2]}

    def _merge_moments(self, channel, count, mean, m2):
        """Fold (count, mean[64], m2[64]) into a channel (Chan et al.'s
        parallel combination, so merge order only perturbs the last bits)."""
        if count == 0:
            return
        own_count, own_mean, own_m2 = self.moments[channel]
        total = own_count + count
        delta = mean - own_mean
        # the grouping of the m2 sum decides the last bits of every stddev
        self.moments[channel] = (
            total,
            own_mean + delta * count / total,
            own_m2 + (m2 + delta * delta * own_count * count / total),
        )

    def accumulate_image(self, img):
        """Fold every 8x8 block's un-quantized DCT coefficients in.

        Strips fill one (n_blocks, 64) array per component; each is folded whole.
        """
        channels = self._channel_planes(img)
        rows, cols = block_grid(img.width, img.height)
        blocks = {i: np.empty((rows * cols, N_BANDS)) for planes in channels.values()
                  for i in planes}
        for first, strips in sample_strips(img, len(blocks)):
            for i, coeffs in blocks.items():
                strip = forward_dct_rows(strips[i])
                k = strip.shape[0] // 8
                coeffs[first:first + k * cols].reshape(k, cols, 8, 8)[...] = (
                    strip.reshape(k, 8, cols, 8).transpose(0, 2, 1, 3)
                )
        for channel, planes in channels.items():
            for i in planes:
                coeffs = blocks[i]
                mean = coeffs.mean(axis=0)
                coeffs -= mean
                m2 = np.square(coeffs, out=coeffs).sum(axis=0)
                self._merge_moments(channel, coeffs.shape[0], mean, m2)
        return self

    def merge(self, other):
        if other.channel_mode != self.channel_mode:
            raise InvalidInputError("cannot merge stats with different channel modes")
        for channel, moments in other.moments.items():
            self._merge_moments(channel, *moments)
        return self

    @property
    def total_blocks(self):
        return sum(count for count, _, _ in self.moments.values())

    def finalize(self):
        """Freeze into a :class:`FrequencySummary`; needs >= 2 blocks per band."""
        channels = {}
        for channel, (count, mean, m2) in self.moments.items():
            if count < 2:
                raise InsufficientDataError(
                    f"channel {channel!r} has only {count} blocks; need at least 2"
                )
            stddev = np.sqrt(np.maximum(m2, 0.0) / count)
            channels[channel] = (count, _frozen(mean), _frozen(stddev))
        return FrequencySummary(channels, self.source_digest)


def _frozen(values):
    arr = np.array(values, dtype=np.float64)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class FrequencySummary:
    """Finalized view: per channel, (count, mean[64], stddev[64]) with
    read-only natural-order arrays, plus provenance."""

    channels: dict
    source_digest: str = None

    @property
    def total_blocks(self):
        return sum(count for count, _, _ in self.channels.values())

    def deltas(self, channel="y"):
        """The 64 per-band standard deviations in natural order."""
        if channel not in self.channels:
            raise InvalidInputError(
                f"stats have no channel {channel!r} (channels: {', '.join(self.channels)})"
            )
        return self.channels[channel][2]

    def __eq__(self, other):
        if not isinstance(other, FrequencySummary):
            return NotImplemented
        return (
            self.source_digest == other.source_digest
            and self.channels.keys() == other.channels.keys()
            and all(
                np.array_equal(mine, theirs)
                for channel, moments in self.channels.items()
                for mine, theirs in zip(moments, other.channels[channel])
            )
        )


def save_stats(summary, path):
    """Persist a summary as JSON (floats keep full 17-significant-digit
    fidelity, so load(save(x)) == x field for field)."""
    doc = {
        "schema_version": STATS_SCHEMA_VERSION,
        "channels": {
            channel: {
                str(band): {"count": count, "mean": m, "stddev": s}
                for band, (m, s) in enumerate(zip(mean.tolist(), stddev.tolist()))
            }
            for channel, (count, mean, stddev) in summary.channels.items()
        },
        "total_blocks": summary.total_blocks,
        "source_manifest_digest": summary.source_digest,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _numbers(bands, field, channel):
    values = [band[field] for band in bands]
    if not all(type(v) in (int, float) for v in values):  # JSON numbers, not bools
        raise InvalidInputError(f"channel {channel!r} band {field} values must be numbers")
    return _frozen(values)


def load_stats(path):
    with open(path) as fh:
        doc = json.load(fh)
    try:
        version = doc.get("schema_version")
        if version != STATS_SCHEMA_VERSION:
            raise SchemaVersionError(
                f"stats schema version {version!r} is not {STATS_SCHEMA_VERSION}"
            )
        if type(version) is not int:  # true and 1.0 compare equal to 1
            raise InvalidInputError(f"stats schema_version {version!r} is not an integer")
        channels = {}
        for channel, bands in doc["channels"].items():
            if bands.keys() != {str(band) for band in range(N_BANDS)}:
                raise InvalidInputError(f"channel {channel!r} does not cover bands 0..63")
            ordered = [bands[str(i)] for i in range(N_BANDS)]
            counts = set(integers([b["count"] for b in ordered], "stats block counts"))
            if len(counts) != 1:
                raise InvalidInputError(f"channel {channel!r} bands disagree on count")
            count = counts.pop()
            if count < 2:  # finalize never writes fewer
                raise InvalidInputError(
                    f"channel {channel!r} has only {count} blocks; need at least 2"
                )
            channels[channel] = (
                count,
                _numbers(ordered, "mean", channel),
                _numbers(ordered, "stddev", channel),
            )
        summary = FrequencySummary(channels, doc.get("source_manifest_digest"))
        if doc["total_blocks"] != summary.total_blocks:
            raise InvalidInputError(
                f"total_blocks {doc['total_blocks']!r} is not the sum of the channel "
                f"counts ({summary.total_blocks})"
            )
        integers([doc["total_blocks"]], "stats block counts")  # 4.0 equals 4
        return summary
    except (AttributeError, KeyError, TypeError) as exc:
        # a missing field, or a field of the wrong type
        raise InvalidInputError(
            f"malformed stats file {path}: {type(exc).__name__} {exc}"
        ) from exc


def save_delta_csv(summary, path):
    """Write the 64 luma per-band deviations (natural order) as band,stddev rows."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["band", "stddev"])
        for band, stddev in enumerate(summary.deltas().tolist()):
            writer.writerow([band, repr(stddev)])
