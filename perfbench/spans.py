"""Span recording around statjpeg's public functions, installed from outside.

The library has no instrumentation of its own, so the benchmark replaces
each traced function with a recording wrapper.  Modules such as
``statjpeg.jpeg`` and ``statjpeg.cli`` bind those functions by name
(``from .dct import forward_dct``), so every wrapper is installed in the
function's home module and in each module that imported it.

A span is ``[name, start, end, parent, op]``.  Spans stay in memory until
the run ends.  A span's self time is its duration minus the durations of
its direct children.  Work the tracer adds after a call returns (counting
Huffman symbols, say) is recorded as a ``trace`` child of the caller, so it
is kept out of every layer's self time.
"""

import functools
import importlib
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from statjpeg.blocks import block_grid
from statjpeg.errors import StatJpegError
from statjpeg.stats import PER_CHANNEL

TRACE = "trace"
ROOT = "bench.op"


def symbol_counts(zigzag_arrays):
    """(blocks, symbols, nonzero AC) coded for (n, 64) zig-zag block arrays.

    Symbols are what baseline entropy coding emits per block: one DC
    category, one symbol per nonzero AC coefficient, a ZRL for each full run
    of 16 zeros before a nonzero, and an EOB unless the last AC is nonzero.
    """
    blocks = symbols = nonzero = 0
    for arr in zigzag_arrays:
        ac = np.asarray(arr)[:, 1:] != 0
        n = ac.shape[0]
        rows, cols = np.nonzero(ac)  # row-major, so each block's columns ascend
        first = np.ones(cols.size, dtype=bool)
        first[1:] = rows[1:] != rows[:-1]
        prev = np.where(first, -1, np.roll(cols, 1))
        zrl = int(((cols - prev - 1) // 16).sum())
        last = np.ones(cols.size, dtype=bool)
        last[:-1] = first[1:]
        no_eob = int((cols[last] == 62).sum())  # AC index 62 is zig-zag 63
        blocks += n
        nonzero += int(cols.size)
        symbols += n + int(cols.size) + zrl + (n - no_eob)
    return blocks, symbols, nonzero


def _count_encode(counts, args, result):
    blocks, symbols, nonzero = symbol_counts(args[0])
    counts["huffman.encode_blocks"] += blocks
    counts["huffman.encode_symbols"] += symbols
    counts["huffman.encode_nonzero_ac"] += nonzero
    counts["huffman.encode_scan_bytes"] += len(result)


def _count_decode(counts, args, result):
    blocks, symbols, _ = symbol_counts(result)
    counts["huffman.decode_blocks"] += blocks
    counts["huffman.decode_symbols"] += symbols
    counts["huffman.decode_scan_bytes"] += len(args[0])


def _count_blocks(key):
    def count(counts, args, result):
        counts[key] += result.size // 64
    return count


def _count_encoded_pixels(counts, args, result):
    counts["jpeg.encode_pixels"] += args[0].width * args[0].height


def _count_decoded_pixels(counts, args, result):
    counts["jpeg.decode_pixels"] += result.width * result.height


def _count_stats_blocks(counts, args, result):
    stats, img = args[0], args[1]
    rows, cols = block_grid(img.width, img.height)
    counts["stats.blocks"] += rows * cols * (3 if stats.channel_mode == PER_CHANNEL else 1)


_JPEG = ("statjpeg.jpeg",)
_TRANSFORM_USERS = ("statjpeg.jpeg", "statjpeg.stats", "statjpeg.metrics")
_CLI = ("statjpeg.cli",)

# (span name, home module, attribute, modules that import it by name, counter)
TARGETS = (
    ("color.forward", "statjpeg.color", "color_convert_forward", _TRANSFORM_USERS, None),
    ("color.inverse", "statjpeg.color", "color_convert_inverse", _JPEG, None),
    ("blocks.partition", "statjpeg.blocks", "partition_blocks", _TRANSFORM_USERS, None),
    ("blocks.assemble", "statjpeg.blocks", "assemble_plane", _JPEG, None),
    ("dct.forward", "statjpeg.dct", "forward_dct", _TRANSFORM_USERS,
     _count_blocks("dct.forward_blocks")),
    ("dct.inverse", "statjpeg.dct", "inverse_dct", _JPEG, _count_blocks("dct.inverse_blocks")),
    ("quant.quantize", "statjpeg.quant", "quantize", ("statjpeg.jpeg", "statjpeg.metrics"), None),
    ("quant.zigzag", "statjpeg.quant", "zigzag", _JPEG, None),
    ("quant.inverse_zigzag", "statjpeg.quant", "inverse_zigzag", _JPEG, None),
    ("quant.dequantize", "statjpeg.quant", "dequantize", _JPEG, None),
    ("huffman.encode", "statjpeg.huffman", "entropy_encode", (), _count_encode),
    ("huffman.decode", "statjpeg.huffman", "entropy_decode", (), _count_decode),
    ("jfif.write", "statjpeg.jfif", "app0_segment", (), None),
    ("jfif.write", "statjpeg.jfif", "dqt_segment", (), None),
    ("jfif.write", "statjpeg.jfif", "sof0_segment", (), None),
    ("jfif.write", "statjpeg.jfif", "dht_segment", (), None),
    ("jfif.write", "statjpeg.jfif", "sos_segment", (), None),
    ("jfif.parse", "statjpeg.jfif", "parse_jpeg", (), None),
    ("jpeg.encode", "statjpeg.jpeg", "encode_image", _CLI, _count_encoded_pixels),
    ("jpeg.decode", "statjpeg.jpeg", "decode_image", _CLI, _count_decoded_pixels),
    ("stats.accumulate", "statjpeg.stats", "FrequencyStats.accumulate_image", (),
     _count_stats_blocks),
    ("stats.finalize", "statjpeg.stats", "FrequencyStats.finalize", (), None),
    ("metrics.psnr", "statjpeg.metrics", "psnr", _CLI, None),
    ("metrics.sparsity", "statjpeg.metrics", "coefficient_sparsity", _CLI, None),
    ("imgfile.load", "statjpeg.imgfile", "load_image", _CLI, None),
    ("corpus.scan", "statjpeg.corpus", "scan_corpus", _CLI, None),
    ("tables.design", "statjpeg.tables", "derive_plm_table", _CLI, None),
    ("tables.design", "statjpeg.tables", "standard_table", _CLI, None),
    ("tables.design", "statjpeg.tables", "same_q_table", _CLI, None),
    ("tables.design", "statjpeg.tables", "rm_hf_table", _CLI, None),
    ("tables.design", "statjpeg.tables", "save_table", _CLI, None),
    ("cli.main", "statjpeg.cli", "main", (), None),
    ("cli.analyze", "statjpeg.cli", "cmd_analyze", (), None),
    ("cli.design", "statjpeg.cli", "cmd_design_table", (), None),
    ("cli.benchmark", "statjpeg.cli", "cmd_benchmark", (), None),
)


def _owner(module_name, attr):
    owner = importlib.import_module(module_name)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


@contextmanager
def patched(replacements):
    """Temporarily set ``(module name, dotted attribute) -> value`` pairs."""
    saved = []
    try:
        for (module_name, attr), value in replacements.items():
            owner, name = _owner(module_name, attr)
            saved.append((owner, name, owner.__dict__[name]))
            setattr(owner, name, value)
        yield
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)


class Recorder:
    """In-memory span store; ``op`` tags spans with the current operation."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None
        self.counts = Counter()

    def wrap(self, name, fn, counter=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except StatJpegError:
                self.counts[name.split(".")[0] + ".errors"] += 1
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
            if counter is not None:
                start = perf_counter()
                counter(self.counts, args, result)
                spans.append([TRACE, start, perf_counter(), parent, self.op])
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Install a wrapper for every target in every module that binds it."""
        replacements = {}
        for name, home, attr, importers, counter in TARGETS:
            owner, leaf = _owner(home, attr)
            wrapper = self.wrap(name, getattr(owner, leaf), counter)
            for module_name in (home, *importers):
                replacements[(module_name, attr)] = wrapper
        with patched(replacements):
            yield self

    def self_times(self):
        """Per span name: (self seconds, inclusive seconds, calls)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals = defaultdict(lambda: [0.0, 0.0, 0])
        for i, (name, start, end, _, _) in enumerate(self.spans):
            entry = totals[name]
            entry[0] += end - start - child_time[i]
            entry[1] += end - start
            entry[2] += 1
        return totals

    def children_of(self, parent_name, child_name):
        """Number of ``child_name`` spans whose direct parent is ``parent_name``."""
        return sum(
            1 for name, _, _, parent, _ in self.spans
            if name == child_name and parent >= 0 and self.spans[parent][0] == parent_name
        )


def layer_metrics(recorder, n_ops, overhead):
    """Per-operation layer figures from the traced cycles.

    ``overhead`` is the traced cycles' time over the untraced cycles' time,
    minus 1, as the caller measured it.
    """
    totals = recorder.self_times()
    counts = recorder.counts

    def total(*names):
        return sum(totals[n][0] for n in names if n in totals)

    def self_s(*names):
        return total(*names) / n_ops

    def inclusive_s(name):
        return totals[name][1] / n_ops if name in totals else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    layer_self = sum(v[0] for name, v in totals.items() if name != TRACE) / n_ops
    calls = {name: v[2] for name, v in totals.items()}
    # cmd_benchmark encodes each loaded image once as its QF-100 reference
    references = recorder.children_of("cli.benchmark", "imgfile.load")
    candidates = calls.get("jpeg.encode", 0) - references
    coded_blocks = counts["huffman.encode_blocks"]
    return {
        "huffman.encode_s": self_s("huffman.encode"),
        "huffman.decode_s": self_s("huffman.decode"),
        "huffman.encode_ns_per_symbol": ratio(
            1e9 * total("huffman.encode"), counts["huffman.encode_symbols"]),
        "huffman.decode_ns_per_symbol": ratio(
            1e9 * total("huffman.decode"), counts["huffman.decode_symbols"]),
        "huffman.blocks": (coded_blocks + counts["huffman.decode_blocks"]) / n_ops,
        "huffman.symbols": (counts["huffman.encode_symbols"]
                            + counts["huffman.decode_symbols"]) / n_ops,
        "huffman.scan_bytes": (counts["huffman.encode_scan_bytes"]
                               + counts["huffman.decode_scan_bytes"]) / n_ops,
        "huffman.share": ratio(self_s("huffman.encode", "huffman.decode"), layer_self),
        "huffman.errors": counts["huffman.errors"],
        "color.forward_s": self_s("color.forward"),
        "color.inverse_s": self_s("color.inverse"),
        "blocks.partition_s": self_s("blocks.partition"),
        "blocks.assemble_s": self_s("blocks.assemble"),
        "dct.forward_s": self_s("dct.forward"),
        "dct.inverse_s": self_s("dct.inverse"),
        "dct.blocks": (counts["dct.forward_blocks"] + counts["dct.inverse_blocks"]) / n_ops,
        "dct.forward_blocks_per_coded_block": ratio(counts["dct.forward_blocks"], coded_blocks),
        "quant.quantize_s": self_s("quant.quantize"),
        "quant.zigzag_s": self_s("quant.zigzag"),
        "quant.inverse_zigzag_s": self_s("quant.inverse_zigzag"),
        "quant.dequantize_s": self_s("quant.dequantize"),
        "quant.nonzero_ac_per_block": ratio(counts["huffman.encode_nonzero_ac"], coded_blocks),
        "jfif.write_s": self_s("jfif.write"),
        "jfif.parse_s": self_s("jfif.parse"),
        "jfif.errors": counts["jfif.errors"],
        "jpeg.encode_self_s": self_s("jpeg.encode"),
        "jpeg.decode_self_s": self_s("jpeg.decode"),
        "jpeg.encode_mpix_s": ratio(counts["jpeg.encode_pixels"] / 1e6,
                                    n_ops * inclusive_s("jpeg.encode")),
        "jpeg.decode_mpix_s": ratio(counts["jpeg.decode_pixels"] / 1e6,
                                    n_ops * inclusive_s("jpeg.decode")),
        "jpeg.decodes_per_candidate": ratio(calls.get("jpeg.decode", 0), candidates),
        "stats.accumulate_s": self_s("stats.accumulate"),
        "stats.finalize_s": self_s("stats.finalize"),
        "stats.blocks": counts["stats.blocks"] / n_ops,
        "metrics.psnr_s": self_s("metrics.psnr"),
        "metrics.sparsity_s": self_s("metrics.sparsity"),
        "imgfile.load_s": self_s("imgfile.load"),
        "corpus.scan_s": self_s("corpus.scan"),
        "tables.design_s": self_s("tables.design"),
        "cli.analyze_s": inclusive_s("cli.analyze"),
        "cli.design_s": inclusive_s("cli.design"),
        "cli.benchmark_s": inclusive_s("cli.benchmark"),
        "cli.self_s": self_s("cli.main", "cli.analyze", "cli.design", "cli.benchmark"),
        "bench.self_s": self_s(ROOT),
        "trace.overhead_frac": overhead,
        # layer self time over untraced wall time, minus 1
        "trace.gap_frac": (1.0 + overhead) * layer_self * n_ops / totals[ROOT][1] - 1.0,
    }
