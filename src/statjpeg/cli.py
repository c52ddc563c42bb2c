"""Command-line front end: analyze -> design-table -> compress / decompress
-> benchmark.

Exit codes: 0 success, 1 benchmark ordering assertion failed, 2 usage or
input error.
"""

import argparse
import csv
import json
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .corpus import scan_corpus
from .errors import InvalidInputError, StatJpegError
from .imgfile import load_image, save_ppm
from .jpeg import decode_image, encode_image
from .metrics import coefficient_sparsity, compression_rate, psnr
from .quant import QuantTable
from .stats import (
    LUMA_ONLY,
    PER_CHANNEL,
    FrequencyStats,
    load_stats,
    sample_images,
    save_delta_csv,
    save_stats,
)
from .tables import (
    PlmParams,
    auto_thresholds,
    derive_plm_table,
    format_grid,
    load_table,
    rm_hf_table,
    same_q_table,
    save_table,
    standard_table,
)

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_USAGE = 2


@dataclass(frozen=True)
class TableSource:
    """Resolved quantization setup for one encode."""

    label: str
    luma: QuantTable
    chroma: QuantTable = None


def resolve_table_source(spec):
    """Parse a --table source spec into tables.

    Grammar: plm:<stats.json> | standard-qf:<1..100> | same-q:<1..255> |
    rm-hf:<n> | file:<table.json>.  ``plm:`` uses the default mapping
    constants; a table designed with other constants goes through
    ``design-table`` and ``file:``.
    """
    kind, _, rest = spec.partition(":")
    try:
        if kind == "plm":
            if not rest:
                raise InvalidInputError("plm source needs a stats file: plm:<stats.json>")
            summary = load_stats(rest)
            luma = derive_plm_table(summary.deltas("y"))
            chroma = (
                derive_plm_table(summary.deltas("chroma"))
                if "chroma" in summary.channels
                else None
            )
            return TableSource(spec, luma, chroma)
        if kind == "standard-qf":
            qf = int(rest)
            return TableSource(
                spec, standard_table(qf, "luma"), standard_table(qf, "chroma")
            )
        if kind == "same-q":
            return TableSource(spec, same_q_table(int(rest)))
        if kind == "rm-hf":
            n = int(rest)
            return TableSource(
                spec,
                rm_hf_table(standard_table(100, "luma"), n),
                rm_hf_table(standard_table(100, "chroma"), n),
            )
        if kind == "file":
            return TableSource(spec, load_table(rest))
    except ValueError as exc:
        raise InvalidInputError(f"bad table source {spec!r}: {exc}") from exc
    raise InvalidInputError(
        f"unknown table source {spec!r} "
        "(expected plm:/standard-qf:/same-q:/rm-hf:/file:)"
    )


def cmd_analyze(args):
    manifest = scan_corpus(args.corpus_dir)
    stats = FrequencyStats(args.channel_mode, source_digest=manifest.digest)
    selected = sample_images(manifest, args.k)
    for path in selected:
        stats.accumulate_image(load_image(path))
    summary = stats.finalize()
    save_stats(summary, args.out)
    if args.csv:
        save_delta_csv(summary, args.csv)
    print(
        f"classes: {len(manifest.classes)}  sampled: {len(selected)}"
        f"  blocks: {summary.total_blocks}"
    )
    print(f"stats written to {args.out}")
    return EXIT_OK


def cmd_design_table(args):
    summary = load_stats(args.stats)
    deltas = summary.deltas(args.channel)
    params = PlmParams(
        a=args.a, b=args.b, c=args.c,
        k1=args.k1, k2=args.k2, k3=args.k3,
        t1=args.t1, t2=args.t2, q_min=args.qmin,
    )
    if args.auto_thresholds:
        t1, t2 = auto_thresholds(deltas)
        params = replace(params, t1=t1, t2=t2)
    table = derive_plm_table(deltas, params)
    save_table(table, args.out)
    print(format_grid(table))
    print(f"table written to {args.out}")
    return EXIT_OK


def cmd_compress(args):
    img = load_image(args.input)
    source = resolve_table_source(args.table)
    data = encode_image(img, source.luma, source.chroma)
    Path(args.out).write_bytes(data)
    print(f"{args.out}: {len(data)} bytes ({source.label})")
    return EXIT_OK


def cmd_decompress(args):
    img = decode_image(Path(args.input).read_bytes())
    save_ppm(img, args.out)
    kind = "grayscale" if img.channels == 1 else "rgb"
    print(f"{args.out}: {img.width}x{img.height} {kind}")
    return EXIT_OK


def _aggregate(rows_for_source):
    ref = sum(r["bytes_ref"] for r in rows_for_source)
    cand = sum(r["bytes_candidate"] for r in rows_for_source)
    psnrs = [r["psnr"] for r in rows_for_source if r["psnr"] is not None]
    return {
        "bytes_ref": ref,
        "bytes_candidate": cand,
        "compression_rate": compression_rate(ref, cand),
        "mean_psnr_db": float(np.mean(psnrs)) if psnrs else None,
        "lossless_images": sum(1 for r in rows_for_source if r["psnr"] is None),
        "mean_zero_fraction": float(
            np.mean([r["zero_fraction"] for r in rows_for_source])
        ),
    }


def run_benchmark(manifest, sources):
    """Encode every corpus image with each TableSource and measure it.

    Per image the QF-100 reference is encoded first, then each source is
    encoded and its file decoded for PSNR.  Returns (rows, aggregates): one
    row per image and source, and per source label the corpus totals.
    """
    ref_luma = standard_table(100, "luma")
    ref_chroma = standard_table(100, "chroma")
    rows = []
    for path in manifest.image_paths():
        img = load_image(path)
        ref_bytes = len(encode_image(img, ref_luma, ref_chroma))
        for source in sources:
            data = encode_image(img, source.luma, source.chroma)
            quality = psnr(img, decode_image(data))
            sparsity = coefficient_sparsity(img, source.luma)
            rows.append({
                "path": str(path.relative_to(manifest.root)),
                "source": source.label,
                "bytes_ref": ref_bytes,
                "bytes_candidate": len(data),
                "cr": compression_rate(ref_bytes, len(data)),
                "psnr": quality.psnr,
                "zero_fraction": sparsity.zero_fraction,
            })
    aggregates = {
        source.label: _aggregate([r for r in rows if r["source"] == source.label])
        for source in sources
    }
    return rows, aggregates


def cmd_benchmark(args):
    manifest = scan_corpus(args.corpus_dir)
    sources = [resolve_table_source(s) for s in args.table]
    rows, aggregates = run_benchmark(manifest, sources)

    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["path", "source", "bytes_ref", "bytes_candidate",
                 "cr", "psnr", "zero_fraction"]
            )
            for r in rows:
                writer.writerow([
                    r["path"], r["source"], r["bytes_ref"], r["bytes_candidate"],
                    f"{r['cr']:.6f}",
                    "lossless" if r["psnr"] is None else f"{r['psnr']:.4f}",
                    f"{r['zero_fraction']:.6f}",
                ])

    if args.json:
        summary = {
            "corpus": str(manifest.root),
            "manifest_digest": manifest.digest,
            "images": manifest.image_count,
            "sources": aggregates,
        }
        with open(args.json, "w") as fh:
            json.dump(summary, fh, indent=2)
            fh.write("\n")

    for label, agg in aggregates.items():
        mean_psnr = agg["mean_psnr_db"]
        psnr_text = "lossless" if mean_psnr is None else f"{mean_psnr:.2f} dB"
        print(
            f"{label}: CR {agg['compression_rate']:.3f}  psnr {psnr_text}"
            f"  zero fraction {agg['mean_zero_fraction']:.4f}"
        )

    if args.assert_cr_order:
        order = [s.strip() for s in args.assert_cr_order.split(",") if s.strip()]
        unknown = [label for label in order if label not in aggregates]
        if unknown:
            raise InvalidInputError(
                f"--assert-cr-order names unknown sources: {', '.join(unknown)}"
            )
        crs = [aggregates[label]["compression_rate"] for label in order]
        for (label_a, cr_a), (label_b, cr_b) in zip(
            zip(order, crs), zip(order[1:], crs[1:])
        ):
            if not cr_a > cr_b:
                print(
                    f"assertion failed: CR({label_a})={cr_a:.4f} "
                    f"is not > CR({label_b})={cr_b:.4f}",
                    file=sys.stderr,
                )
                return EXIT_ASSERTION
        print(f"CR ordering holds: {' > '.join(order)}")
    return EXIT_OK


def _add_plm_flags(parser):
    group = parser.add_argument_group("piece-wise linear mapping parameters")
    defaults = PlmParams()
    group.add_argument("--a", type=float, default=defaults.a)
    group.add_argument("--b", type=float, default=defaults.b)
    group.add_argument("--c", type=float, default=defaults.c)
    group.add_argument("--k1", type=float, default=defaults.k1)
    group.add_argument("--k2", type=float, default=defaults.k2)
    group.add_argument("--k3", type=float, default=defaults.k3)
    group.add_argument("--t1", type=float, default=defaults.t1)
    group.add_argument("--t2", type=float, default=defaults.t2)
    group.add_argument("--qmin", type=int, default=defaults.q_min)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="statjpeg",
        description=(
            "JPEG toolkit with statistics-driven quantization table design: "
            "analyze a corpus, design a table, compress/decompress, benchmark."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="collect per-band coefficient statistics")
    p.add_argument("corpus_dir", help="root of a class-per-directory corpus")
    p.add_argument("--k", type=int, default=1, help="keep every k-th image per class")
    p.add_argument(
        "--channel-mode", choices=[LUMA_ONLY, PER_CHANNEL], default=LUMA_ONLY
    )
    p.add_argument("--out", required=True, help="stats JSON output path")
    p.add_argument("--csv", help="optional 64-value stddev CSV output path")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("design-table", help="derive a quantization table from stats")
    p.add_argument("stats", help="stats JSON from analyze")
    p.add_argument("--channel", default="y", help="stats channel to map (default y)")
    p.add_argument(
        "--auto-thresholds",
        action="store_true",
        help="set t1/t2 from the spread ranking instead of fixed values",
    )
    p.add_argument("--out", required=True, help="table JSON output path")
    _add_plm_flags(p)
    p.set_defaults(func=cmd_design_table)

    p = sub.add_parser("compress", help="encode an image to baseline JPEG")
    p.add_argument("input", help="PPM/PGM/PNG/JPEG input image")
    p.add_argument("--table", required=True, help="table source spec")
    p.add_argument("--out", required=True, help="output JPEG path")
    p.set_defaults(func=cmd_compress)

    p = sub.add_parser("decompress", help="decode a baseline JPEG to PPM")
    p.add_argument("input", help="JPEG input path")
    p.add_argument("--out", required=True, help="output PPM path")
    p.set_defaults(func=cmd_decompress)

    p = sub.add_parser("benchmark", help="rate/quality comparison over a corpus")
    p.add_argument("corpus_dir", help="root of a class-per-directory corpus")
    p.add_argument(
        "--table",
        action="append",
        required=True,
        help="table source spec (repeatable)",
    )
    p.add_argument("--csv", help="per-image rows output path")
    p.add_argument("--json", help="aggregate summary output path")
    p.add_argument(
        "--assert-cr-order",
        help="comma list of sources whose aggregate CR must strictly decrease",
    )
    p.set_defaults(func=cmd_benchmark)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (StatJpegError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
