"""Quantization table design: the piece-wise linear mapping from per-band
coefficient spread to quantization steps, band segmentation, the scaled
standard tables, and the comparison baselines (uniform step, removal of the
top high-frequency components)."""

from dataclasses import asdict, dataclass

import numpy as np

from .errors import InvalidInputError, InvalidParamsError
from .quant import ZIGZAG_INDEX, QuantTable, finite_real, integers
from .stats import N_BANDS, rank_bands, read_versioned, spread_profile, write_json

TABLE_SCHEMA_VERSION = 1

# ITU T.81 Annex K base tables (natural order).
STANDARD_LUMA = np.array([
    16, 11, 10, 16, 24, 40, 51, 61,
    12, 12, 14, 19, 26, 58, 60, 55,
    14, 13, 16, 24, 40, 57, 69, 56,
    14, 17, 22, 29, 51, 87, 80, 62,
    18, 22, 37, 56, 68, 109, 103, 77,
    24, 35, 55, 64, 81, 104, 113, 92,
    49, 64, 78, 87, 103, 121, 120, 101,
    72, 92, 95, 98, 112, 100, 103, 99,
])

STANDARD_CHROMA = np.array([
    17, 18, 24, 47, 99, 99, 99, 99,
    18, 21, 26, 66, 99, 99, 99, 99,
    24, 26, 56, 99, 99, 99, 99, 99,
    47, 66, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
])

# Band-count split of the 64 frequency components: 6 low, 22 middle, 36 high.
LF_COUNT = 6
MF_COUNT = 22


@dataclass(frozen=True)
class PlmParams:
    """Constants of the three-branch spread-to-step mapping.

    Small spread (<= t1) uses intercept ``a`` and slope ``k1``; the middle
    range uses ``b``/``k2``; large spread (> t2) uses ``c``/``k3``.  Every
    step is floored at ``q_min``.  Defaults are the stock operating point
    for large natural-image corpora.  The eight mapping constants must be
    finite real numbers and ``q_min`` an integer.
    """

    a: float = 255.0
    b: float = 80.0
    c: float = 240.0
    k1: float = 9.75
    k2: float = 1.0
    k3: float = 3.0
    t1: float = 20.0
    t2: float = 60.0
    q_min: int = 5

    def __post_init__(self):
        for name in ("a", "b", "c", "k1", "k2", "k3", "t1", "t2"):
            try:
                finite_real(getattr(self, name), name)
            except InvalidInputError as exc:
                raise InvalidParamsError(str(exc)) from None
        try:
            integers([self.q_min], "q_min")
        except InvalidInputError:
            raise InvalidParamsError(f"q_min must be an integer, got {self.q_min!r}") from None
        if not self.t1 < self.t2:
            raise InvalidParamsError(f"t1 must be < t2, got {self.t1} >= {self.t2}")
        if not 1 <= self.q_min <= 255:
            raise InvalidParamsError(f"q_min must be in [1, 255], got {self.q_min}")
        for name in ("k1", "k2", "k3"):
            if getattr(self, name) < 0:
                raise InvalidParamsError(f"{name} must be >= 0")


def derive_plm_table(deltas, params=None):
    """Map 64 per-band standard deviations to a quantization table.

    Q_raw = a - k1*d (d <= t1), b - k2*d (t1 < d <= t2), c - k3*d (d > t2);
    each entry is rounded half-up and clamped to [q_min, 255].
    """
    p = params or PlmParams()
    d = spread_profile(deltas)
    q_raw = np.where(
        d <= p.t1, p.a - p.k1 * d, np.where(d <= p.t2, p.b - p.k2 * d, p.c - p.k3 * d)
    )
    q = np.clip(np.floor(q_raw + 0.5), p.q_min, 255).astype(np.int64)
    return QuantTable(q, provenance={"kind": "plm", "params": asdict(p)})


def auto_thresholds(deltas):
    """Optional data-driven thresholds: t1 at the MF/HF rank boundary, t2 at
    the LF/MF boundary."""
    d = spread_profile(deltas)
    d = d[rank_bands(d)]
    t1, t2 = float(d[LF_COUNT + MF_COUNT]), float(d[LF_COUNT])
    if not t1 < t2:
        raise InvalidParamsError(
            f"spread profile too flat for auto thresholds (t1={t1}, t2={t2})"
        )
    return t1, t2


@dataclass(frozen=True)
class BandSegmentation:
    """LF/MF/HF partition of the 64 bands (natural indices)."""

    mode: str
    lf: frozenset
    mf: frozenset
    hf: frozenset


def segment_bands(deltas, mode="magnitude"):
    """Partition bands into 6 LF / 22 MF / 36 HF.

    'magnitude' takes the top spread-ranked bands; 'position' takes zig-zag
    positions 0-5 / 6-27 / 28-63.
    """
    if mode == "magnitude":
        ranked = rank_bands(deltas)
    elif mode == "position":
        ranked = ZIGZAG_INDEX
    else:
        raise InvalidInputError(f"unknown segmentation mode {mode!r}")
    return BandSegmentation(
        mode,
        frozenset(int(b) for b in ranked[:LF_COUNT]),
        frozenset(int(b) for b in ranked[LF_COUNT:LF_COUNT + MF_COUNT]),
        frozenset(int(b) for b in ranked[LF_COUNT + MF_COUNT:]),
    )


def standard_table(qf, which="luma"):
    """Annex-K table scaled by the conventional quality-factor rule."""
    (qf,) = integers([qf], "quality factor")
    if not 1 <= qf <= 100:
        raise InvalidInputError(f"quality factor must be in [1, 100], got {qf}")
    if which == "luma":
        base = STANDARD_LUMA
    elif which == "chroma":
        base = STANDARD_CHROMA
    else:
        raise InvalidInputError(f"table selector must be luma or chroma, got {which!r}")
    scale = 5000.0 / qf if qf < 50 else 200.0 - 2.0 * qf
    scaled = np.clip(np.floor((base * scale + 50.0) / 100.0), 1, 255).astype(np.int64)
    return QuantTable(scaled, provenance={"kind": "standard", "qf": qf, "which": which})


def same_q_table(q):
    """The uniform-step baseline: one step for all 64 bands."""
    (q,) = integers([q], "uniform step")
    if not 1 <= q <= 255:
        raise InvalidInputError(f"uniform step must be in [1, 255], got {q}")
    return QuantTable(np.full(N_BANDS, q), provenance={"kind": "same-q", "q": q})


def rm_hf_table(base, n):
    """The high-frequency removal baseline over ``base``.

    Table entries copy ``base`` (a table cannot literally delete a
    component); the n highest zig-zag positions become the table's drop set,
    whose quantized coefficients :func:`quant.quantize` stores as zero.
    """
    (n,) = integers([n], "component count")
    if not 0 <= n <= 63:
        raise InvalidInputError(f"component count must be in [0, 63], got {n}")
    provenance = {
        "kind": "rm-hf",
        "n": n,
        "drop_zigzag": list(range(N_BANDS - n, N_BANDS)),
        "base": base.provenance or {"kind": "custom"},
    }
    return QuantTable(base.values, provenance=provenance)


def format_grid(table):
    """8x8 whitespace-separated text grid for human inspection."""
    return "\n".join(
        " ".join(f"{v:3d}" for v in row) for row in table.grid()
    )


def save_table(table, path):
    doc = {
        "schema_version": TABLE_SCHEMA_VERSION,
        "order": "natural",
        "entries": [int(v) for v in table.values],
        "provenance": table.provenance,
    }
    write_json(doc, path)


def _parse_table(doc):
    if doc.get("order") != "natural":
        raise InvalidInputError(f"unknown table order {doc.get('order')!r}")
    return QuantTable(doc["entries"], provenance=doc.get("provenance"))


def load_table(path):
    return read_versioned(path, "table", TABLE_SCHEMA_VERSION, _parse_table)
