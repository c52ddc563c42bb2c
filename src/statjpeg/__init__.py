"""Image-compression toolkit: baseline JPEG codec with pluggable quantization
tables, dataset frequency statistics, statistics-driven table design, and a
rate/quality benchmark harness."""

from .corpus import CorpusManifest, scan_corpus
from .image import RasterImage
from .imgfile import load_image, save_ppm
from .jpeg import decode_coefficients, decode_image, encode_image
from .metrics import coefficient_sparsity, compression_rate, psnr
from .quant import QuantTable
from .stats import FrequencyStats, load_stats, sample_images, save_stats
from .tables import (
    PlmParams,
    derive_plm_table,
    load_table,
    rm_hf_table,
    same_q_table,
    save_table,
    segment_bands,
    standard_table,
)

__all__ = [
    "CorpusManifest",
    "FrequencyStats",
    "PlmParams",
    "QuantTable",
    "RasterImage",
    "coefficient_sparsity",
    "compression_rate",
    "decode_coefficients",
    "decode_image",
    "derive_plm_table",
    "encode_image",
    "load_image",
    "load_stats",
    "load_table",
    "psnr",
    "rm_hf_table",
    "same_q_table",
    "sample_images",
    "save_ppm",
    "save_stats",
    "save_table",
    "scan_corpus",
    "segment_bands",
    "standard_table",
]

__version__ = "0.1.0"
