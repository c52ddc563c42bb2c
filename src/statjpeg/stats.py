"""Dataset frequency statistics: interval sampling of a class-per-directory
corpus, and the per-band mean and deviation of the 8x8 block DCT over it.

The DCT is linear, so the band statistics follow from the count, sums and
products of the integer sample blocks, which add exactly: no coefficient is
formed, and any strip height, merge order or image order gives the same bits.

The per-band spread (population standard deviation of the un-quantized DCT
coefficients) is the signal the table designer maps to quantization steps.
"""

import csv
import json
import warnings
from dataclasses import dataclass

import numpy as np

from .blocks import sample_strips
from .dct import _BASIS
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

# the 2-D DCT of a row-major 8x8 block as one 64x64 matrix: band 8u+v
_DCT_MATRIX = np.kron(_BASIS, _BASIS)

# Blocks per float32 Gram product.  A product of two samples is at most 2**14
# in magnitude, so the sums over 1024 blocks stay exact float32 integers (at
# most 2**24), and the float64 accumulators take them exactly.
_GRAM_BLOCKS = 1 << 10


def write_json(doc, path):
    """Write ``doc`` as JSON indented by 2, plus a newline.  NaN and the
    infinities are not JSON numbers: they raise ValueError, and no file is written."""
    text = json.dumps(doc, indent=2, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def read_versioned(path, kind, version, parse):
    """``parse(doc)`` of the JSON file at ``path`` if its ``schema_version`` is
    the integer ``version``.  Text that is not JSON, NaN or an infinity
    (Python's json reads them; JSON has no such numbers), or a missing or
    wrong-typed field raises InvalidInputError "malformed <kind> file"."""
    def not_a_number(token):
        raise ValueError(f"{token} is not a JSON number")

    with open(path) as fh:
        try:
            doc = json.load(fh, parse_constant=not_a_number)
        except ValueError as exc:  # not UTF-8, not JSON, or NaN or an infinity
            raise InvalidInputError(f"malformed {kind} file {path}: {exc}") from exc
    try:
        found = doc.get("schema_version")
        if found != version:
            raise SchemaVersionError(f"{kind} schema version {found!r} is not {version}")
        if type(found) is not int:  # true and 1.0 compare equal to 1
            raise InvalidInputError(f"{kind} schema_version {found!r} is not an integer")
        return parse(doc)
    except (AttributeError, KeyError, TypeError) as exc:
        # a missing field, or a field of the wrong type
        raise InvalidInputError(
            f"malformed {kind} file {path}: {type(exc).__name__} {exc}"
        ) from exc


def sample_images(manifest, k):
    """Select every k-th image per class, visiting classes in manifest order.

    The running counter m starts at 1 within each class; an image is kept
    when m % k == 0.  Warns (EmptySampleWarning) when nothing is selected.
    """
    (k,) = integers([k], "interval k")
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


def spread_profile(deltas):
    """The spread-profile rule: ``deltas`` as 64 float64 values, each finite
    and >= 0.  Bools, strings and other non-numeric dtypes raise
    InvalidInputError."""
    d = np.asarray(deltas)
    if d.dtype.kind not in "iuf":
        raise InvalidInputError(f"deltas must be real numbers, got dtype {d.dtype}")
    if d.shape != (N_BANDS,):
        raise InvalidInputError(f"expected 64 deltas, got shape {d.shape}")
    d = d.astype(np.float64)
    if not (np.isfinite(d).all() and d.min() >= 0):
        raise InvalidInputError("deltas must be finite and >= 0")
    return d


def rank_bands(deltas):
    """Band indices sorted by descending spread, ties by zig-zag position."""
    return np.lexsort((ZIGZAG_POSITION, -spread_profile(deltas)))


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
        # per channel: block count n, the 64 sums s and the 64x64 Gram matrix
        # G of the level-shifted sample blocks.  Samples are integers in
        # [-128, 127], so each product is at most 2**14, and every float64 sum
        # is an exact integer while n < 2**53 / 2**14 = 2**39, about 5e11
        # blocks: any strip height, merge order or BLAS grouping gives the
        # same bits.
        self.moments = {
            name: (0, np.zeros(N_BANDS), np.zeros((N_BANDS, N_BANDS))) for name in channels
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

    def _add(self, channel, count, sums, gram):
        own_count, own_sums, own_gram = self.moments[channel]
        self.moments[channel] = (own_count + count, own_sums + sums, own_gram + gram)

    def accumulate_image(self, img):
        """Fold every 8x8 sample block in, one strip at a time."""
        channels = self._channel_planes(img)
        for _, strips in sample_strips(img, sum(map(len, channels.values()))):
            for channel, planes in channels.items():
                for i in planes:
                    height, width = strips[i].shape
                    blocks = np.ascontiguousarray(
                        strips[i].reshape(height // 8, 8, width // 8, 8).transpose(0, 2, 1, 3),
                        dtype=np.float32,
                    ).reshape(-1, N_BANDS)
                    for first in range(0, len(blocks), _GRAM_BLOCKS):
                        x = blocks[first:first + _GRAM_BLOCKS]
                        self._add(channel, len(x), x.sum(axis=0), x.T @ x)
            del strips, blocks, x  # none is held while the next strip's are made
        return self

    def merge(self, other):
        if other.channel_mode != self.channel_mode:
            raise InvalidInputError("cannot merge stats with different channel modes")
        for channel, moments in other.moments.items():
            self._add(channel, *moments)
        return self

    @property
    def total_blocks(self):
        return sum(count for count, _, _ in self.moments.values())

    def finalize(self):
        """Freeze into a :class:`FrequencySummary`; needs >= 2 blocks per band.

        With ``K`` the 2-D DCT as a 64x64 matrix, the band means are
        ``K s / n`` and the band variances ``diag(K C K^T) / n**2`` for the
        scatter ``C = n G - s s^T``, formed exactly in Python ints.
        """
        channels = {}
        for channel, (count, sums, gram) in self.moments.items():
            if count < 2:
                raise InsufficientDataError(
                    f"channel {channel!r} has only {count} blocks; need at least 2"
                )
            # row by row, so that few Python ints are alive at once
            s = sums.astype(np.int64).astype(object)
            scatter = np.empty((N_BANDS, N_BANDS))
            for i, row in enumerate(gram.astype(np.int64)):
                scatter[i] = count * row.astype(object) - s[i] * s
            spread = ((_DCT_MATRIX @ scatter) * _DCT_MATRIX).sum(axis=1)
            mean = _DCT_MATRIX @ sums / count
            stddev = np.sqrt(np.maximum(spread, 0.0)) / count
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
    write_json(doc, path)


def _numbers(bands, field, channel):
    values = [band[field] for band in bands]
    if not all(type(v) in (int, float) for v in values):  # JSON numbers, not bools
        raise InvalidInputError(f"channel {channel!r} band {field} values must be numbers")
    return _frozen(values)


def _parse_stats(doc):
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


def load_stats(path):
    return read_versioned(path, "stats", STATS_SCHEMA_VERSION, _parse_stats)


def save_delta_csv(summary, path):
    """Write the 64 luma per-band deviations (natural order) as band,stddev rows."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["band", "stddev"])
        for band, stddev in enumerate(summary.deltas().tolist()):
            writer.writerow([band, repr(stddev)])
