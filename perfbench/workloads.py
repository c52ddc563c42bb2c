"""The benchmark's four workloads.

Each workload is a closed loop with one caller: the next operation starts
when the previous one returns.  Inputs come from ``statjpeg.synth`` and are
a function of the seed alone; seed 0 is ``generate_corpus``'s default seed,
so the ``corpus`` workload at seed 0 is the bundled acceptance corpus.
Outputs are checked between operations, outside the timed calls.
"""

import contextlib
import hashlib
import importlib
import io
import json
from time import perf_counter

import numpy as np

from spans import ROOT, patched
from statjpeg import cli, jfif, jpeg
from statjpeg.blocks import partition_blocks
from statjpeg.color import color_convert_forward
from statjpeg.dct import forward_dct
from statjpeg.imgfile import load_image
from statjpeg.stats import load_stats
from statjpeg.synth import DEFAULT_CLASSES, generate_corpus, synth_image

SEED_BASE = 20240801  # generate_corpus's default seed
SEED_STRIDE = 100_000  # > 1000 * classes + images per class, so seeds share no image

IMAGES_PER_CLASS = 2  # codec workloads
PLM_SPEC = "plm:{stats}"
CORPUS_SOURCES = (PLM_SPEC, "standard-qf:100", "same-q:4", "rm-hf:3")
# criterion 7: designed table > uniform step 4 > top-3 HF removal > QF-100 reference
CR_ORDER = (PLM_SPEC, "same-q:4", "rm-hf:3", "standard-qf:100")


def synth_seed(seed):
    return SEED_BASE + SEED_STRIDE * seed


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def image_digest(img):
    h = hashlib.sha256(f"{img.width}x{img.height}x{img.channels}".encode())
    for plane in img.planes:
        h.update(np.ascontiguousarray(plane, dtype=np.uint8).tobytes())
    return h.hexdigest()


def coeff_digest(arrays):
    h = hashlib.sha256()
    for arr in arrays:
        arr = np.ascontiguousarray(arr, dtype=np.int32)
        h.update(str(arr.shape).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def digest_list(digests):
    return sha256("\n".join(digests).encode())


def quiet(fn, *args):
    """Call ``fn`` with its standard output discarded (the CLI prints)."""
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args)


def tap(module_name, attr, on_return):
    """Replacement for ``module.attr`` that hands (args, result) to ``on_return``.

    It wraps whatever is installed when it is built, so taps made after the
    span wrappers stay outside every span.
    """
    fn = getattr(importlib.import_module(module_name), attr)

    def tapped(*args, **kwargs):
        result = fn(*args, **kwargs)
        on_return(args, result)
        return result

    return tapped


class Clock:
    """Sums the time spent in timed calls; in a traced run each timed call
    is also a root span of the current operation."""

    def __init__(self, recorder=None):
        self.recorder = recorder
        self.seconds = 0.0
        self.ops = 0
        self.op_seconds = []

    def next_op(self):
        self.ops += 1
        self.op_seconds.append(0.0)
        if self.recorder is not None:
            self.recorder.op = self.ops

    def call(self, fn, *args):
        if self.recorder is not None:
            fn = self.recorder.wrap(ROOT, fn)
        start = perf_counter()
        result = fn(*args)
        elapsed = perf_counter() - start
        self.seconds += elapsed
        self.op_seconds[-1] += elapsed
        return result


def run_op(op, *args):
    """Run ``op(*args, problems)``; returns its problems, a raise being one."""
    problems = []
    try:
        op(*args, problems)
    except Exception as exc:  # the loop keeps going and counts the failure
        problems.append(f"{type(exc).__name__}: {exc}")
    return problems


class Codec:
    """Encode then decode 512x512 RGB images, two per synth class.

    Two per class rather than one: the seed draws each image's parameters,
    and at QF 100 one image's symbol count varies by up to 2x between seeds.
    """

    def __init__(self, table, seed, work, smoke, golden):
        self.table = table
        self.seed = seed
        self.work = work
        self.size = 32 if smoke else 512
        self.corpus_kwargs = (
            {"images_per_class": 2, "size": (32, 32)} if smoke else {}
        )
        self.golden = golden
        self.encoded = self.decoded = None
        self.file_bytes = []

    def prepare(self):
        self.images = [
            synth_image(kind, np.random.default_rng(synth_seed(self.seed) + 1000 * k + i),
                        self.size, self.size)
            for k, kind in enumerate(DEFAULT_CLASSES)
            for i in range(IMAGES_PER_CLASS)
        ]
        if self.table == "plm":
            corpus = generate_corpus(
                self.work / "corpus", seed=synth_seed(self.seed), **self.corpus_kwargs
            )
            stats = self.work / "stats.json"
            spec = PLM_SPEC.format(stats=stats)
            self.setup_args = ["--analyze", str(corpus), str(stats), spec]
            if quiet(cli.main, ["analyze", str(corpus), "--out", str(stats)]):
                raise RuntimeError("analyze of the table-design corpus failed")
            source = cli.resolve_table_source(spec)
            if source.chroma is not None:
                raise RuntimeError("luma-only stats must give a single-table source")
        else:
            self.setup_args = [self.table]
            source = cli.resolve_table_source(self.table)
        self.tables = (source.luma, source.chroma)
        self.pixels_per_cycle = sum(img.width * img.height for img in self.images)

    def inputs(self):
        return {
            "images": len(self.images),
            "width": self.size,
            "height": self.size,
            "raster_bytes": sum(3 * img.width * img.height for img in self.images),
            "table": self.table,
            "jpeg_bytes_per_cycle": sum(self.file_bytes),
        }

    def quality(self):
        return {"bits_per_pixel": 8.0 * sum(self.file_bytes) / self.pixels_per_cycle}

    def hooks(self):
        def on_encode(args, result):
            self.encoded = args[0]

        def on_decode(args, result):
            self.decoded = result

        return patched({
            ("statjpeg.huffman", "entropy_encode"):
                tap("statjpeg.huffman", "entropy_encode", on_encode),
            ("statjpeg.huffman", "entropy_decode"):
                tap("statjpeg.huffman", "entropy_decode", on_decode),
        })

    def cycle(self, clock):
        self.file_bytes = []
        return [run_op(self._round_trip, clock, i) for i in range(len(self.images))]

    def _round_trip(self, clock, i, problems):
        img = self.images[i]
        clock.next_op()
        data = clock.call(jpeg.encode_image, img, *self.tables)
        encoded, self.encoded = coeff_digest(self.encoded), None
        decoded_img = clock.call(jpeg.decode_image, data)
        decoded, self.decoded = coeff_digest(self.decoded), None

        self.file_bytes.append(len(data))
        problems.extend(jfif.validate_structure(data))
        if decoded != encoded:
            problems.append("decoded coefficients differ from the encoded ones")
        if (decoded_img.width, decoded_img.height, decoded_img.channels) != (
            img.width, img.height, img.channels
        ):
            problems.append("decoded geometry differs from the input")
        if self.golden:
            if sha256(data) != self.golden["files"][i]:
                problems.append(f"image {i}: file bytes differ from the recorded digest")
            if image_digest(decoded_img) != self.golden["images"][i]:
                problems.append(f"image {i}: decoded pixels differ from the recorded digest")

    def record(self):
        """Digests of one cycle, for the golden file."""
        files, images = [], []
        for img in self.images:
            data = jpeg.encode_image(img, *self.tables)
            files.append(sha256(data))
            images.append(image_digest(jpeg.decode_image(data)))
        return {"files": files, "images": images}


class Corpus:
    """analyze -> design-table -> benchmark over a generate_corpus corpus."""

    def __init__(self, seed, work, smoke, golden):
        self.seed = seed
        self.work = work
        self.corpus_kwargs = {"images_per_class": 2, "size": (48, 48)} if smoke else {}
        self.golden = golden

    def prepare(self):
        self.corpus = generate_corpus(
            self.work / "corpus", seed=synth_seed(self.seed), **self.corpus_kwargs
        )
        self.paths = sorted(self.corpus.glob("*/*.ppm"))
        first = load_image(self.paths[0])
        self.pixels_per_cycle = len(self.paths) * first.width * first.height
        self.width, self.height = first.width, first.height
        stats = self.work / "stats.json"
        self.summary = self.work / "summary.json"
        self.sources = [s.format(stats=stats) for s in CORPUS_SOURCES]
        self.cr_order = [s.format(stats=stats) for s in CR_ORDER]
        self.commands = (
            ["analyze", str(self.corpus), "--out", str(stats)],
            ["design-table", str(stats), "--out", str(self.work / "table.json")],
            ["benchmark", str(self.corpus)]
            + [arg for s in self.sources for arg in ("--table", s)]
            + ["--json", str(self.summary), "--assert-cr-order", ",".join(self.cr_order)],
        )
        self.setup_args = self.sources[1:]
        self.plm = self.sources[0]
        self.last = {}
        self._reset_capture()

    def _reset_capture(self):
        self.files, self.images = [], []
        self.coeff_checked = self.coeff_mismatches = 0
        self.encoded = None

    def inputs(self):
        return {
            "images": len(self.paths),
            "width": self.width,
            "height": self.height,
            "raster_bytes": sum(p.stat().st_size for p in self.paths),
            "sources": self.sources,
            "jpeg_bytes_per_cycle": self.last.get("jpeg_bytes", 0),
        }

    def quality(self):
        return {k: self.last.get(k) for k in ("cr_plm", "psnr_plm_db", "sources")}

    def hooks(self):
        def on_file(args, result):
            self.files.append(result)

        def on_image(args, result):
            self.images.append(image_digest(result))

        def on_encode(args, result):
            self.encoded = args[0]

        def on_decode(args, result):
            # the benchmark command decodes each candidate right after encoding it
            self.coeff_checked += 1
            if self.encoded is None or not all(
                np.array_equal(a, b) for a, b in zip(self.encoded, result)
            ):
                self.coeff_mismatches += 1

        return patched({
            ("statjpeg.cli", "encode_image"): tap("statjpeg.cli", "encode_image", on_file),
            ("statjpeg.cli", "decode_image"): tap("statjpeg.cli", "decode_image", on_image),
            ("statjpeg.huffman", "entropy_encode"):
                tap("statjpeg.huffman", "entropy_encode", on_encode),
            ("statjpeg.huffman", "entropy_decode"):
                tap("statjpeg.huffman", "entropy_decode", on_decode),
        })

    def cycle(self, clock):
        return [run_op(self._pipeline, clock)]

    def _pipeline(self, clock, problems):
        self._reset_capture()
        clock.next_op()
        for argv in self.commands:
            code = quiet(clock.call, cli.main, argv)
            if code != 0:
                problems.append(f"statjpeg {argv[0]} exited {code}")
                return
        self._check(problems)

    def _check(self, problems):
        with open(self.summary) as fh:
            sources = json.load(fh)["sources"]
        crs = [sources[label]["compression_rate"] for label in self.cr_order]
        if not all(a > b for a, b in zip(crs, crs[1:])):
            problems.append(f"compression-rate order broken: {crs}")
        n_images = len(self.paths)
        if len(self.files) != n_images * (1 + len(self.sources)):
            problems.append(f"{len(self.files)} files emitted")
        if self.coeff_checked != n_images * len(self.sources) or self.coeff_mismatches:
            problems.append(
                f"{self.coeff_mismatches} of {self.coeff_checked} decodes returned "
                "coefficients other than the encoded ones"
            )
        bad = sum(1 for data in self.files if jfif.validate_structure(data))
        if bad:
            problems.append(f"{bad} emitted files fail validate_structure")
        plm = sources[self.plm]
        self.last = {
            "cr_plm": plm["compression_rate"],
            "psnr_plm_db": plm["mean_psnr_db"],
            "jpeg_bytes": sum(len(d) for d in self.files),
            "sources": {
                ("plm" if label == self.plm else label):
                    {k: agg[k] for k in ("compression_rate", "mean_psnr_db")}
                for label, agg in sources.items()
            },
        }
        if self.golden:
            for key, actual in self._digests().items():
                if actual != self.golden[key]:
                    problems.append(f"{key} differ from the recorded digest")
            for key in ("cr_plm", "psnr_plm_db"):
                if abs(self.last[key] - self.golden[key]) > 1e-9 * abs(self.golden[key]):
                    problems.append(f"{key} {self.last[key]!r} != recorded {self.golden[key]!r}")

    def _digests(self):
        return {
            "files": digest_list(sha256(d) for d in self.files),
            "images": digest_list(self.images),
        }

    def record(self):
        with self.hooks():
            problems = self.cycle(Clock())[0]
        if problems:
            raise RuntimeError(f"cannot record a failing pipeline: {problems}")
        return {**self._digests(), "cr_plm": self.last["cr_plm"],
                "psnr_plm_db": self.last["psnr_plm_db"]}


class Stats:
    """analyze --channel-mode per-channel over 512x512 RGB images."""

    def __init__(self, seed, work, smoke, golden):
        self.seed = seed
        self.work = work
        self.corpus_kwargs = (
            {"images_per_class": 1, "size": (32, 32)} if smoke
            else {"images_per_class": 4, "size": (512, 512)}
        )

    def prepare(self):
        corpus = generate_corpus(
            self.work / "corpus", seed=synth_seed(self.seed), **self.corpus_kwargs
        )
        self.paths = sorted(corpus.glob("*/*.ppm"))
        self.out = self.work / "stats.json"
        self.argv = ["analyze", str(corpus), "--channel-mode", "per-channel",
                     "--out", str(self.out)]
        self.setup_args = []
        self.oracle, self.oracle_blocks = two_pass_deltas(self.paths)
        height, width = self.corpus_kwargs["size"]
        self.pixels_per_cycle = len(self.paths) * width * height
        self.max_rel_err = None

    def inputs(self):
        height, width = self.corpus_kwargs["size"]
        return {
            "images": len(self.paths),
            "width": width,
            "height": height,
            "raster_bytes": sum(p.stat().st_size for p in self.paths),
            "blocks_per_cycle": self.oracle_blocks,
        }

    def quality(self):
        return {"max_rel_err_vs_two_pass": self.max_rel_err}

    def hooks(self):
        return contextlib.nullcontext()

    def cycle(self, clock):
        return [run_op(self._analyze, clock)]

    def _analyze(self, clock, problems):
        clock.next_op()
        code = quiet(clock.call, cli.main, self.argv)
        if code != 0:
            problems.append(f"statjpeg analyze exited {code}")
            return
        summary = load_stats(self.out)
        if summary.total_blocks != self.oracle_blocks:
            problems.append(f"{summary.total_blocks} blocks, expected {self.oracle_blocks}")
        errors = []
        for channel, oracle in self.oracle.items():
            errors.append(float(np.abs(summary.deltas(channel) - oracle).max() / oracle.max()))
        self.max_rel_err = max(errors)
        if self.max_rel_err > 1e-9:  # acceptance criterion 5
            problems.append(f"deltas differ from the two-pass oracle by {self.max_rel_err:.2e}")

    def record(self):
        return {}


def two_pass_deltas(paths):
    """Per-band population deviations by an explicit two-pass computation.

    Channel ``y`` holds the luma blocks and ``chroma`` the Cb and Cr blocks
    pooled.  Pass one sums the coefficients; pass two sums squared
    deviations from the resulting mean.
    """
    def coefficients():
        for path in paths:
            y, cb, cr = color_convert_forward(load_image(path))
            for channel, plane in (("y", y), ("chroma", cb), ("chroma", cr)):
                yield channel, forward_dct(partition_blocks(plane)).reshape(-1, 64)

    sums = {"y": np.zeros(64), "chroma": np.zeros(64)}
    counts = {"y": 0, "chroma": 0}
    for channel, coeffs in coefficients():
        sums[channel] += coeffs.sum(axis=0)
        counts[channel] += coeffs.shape[0]
    means = {c: sums[c] / counts[c] for c in sums}
    m2 = {"y": np.zeros(64), "chroma": np.zeros(64)}
    for channel, coeffs in coefficients():
        m2[channel] += ((coeffs - means[channel]) ** 2).sum(axis=0)
    deltas = {c: np.sqrt(m2[c] / counts[c]) for c in m2}
    return deltas, counts["y"] + counts["chroma"]


def make(name, seed, work, smoke, golden):
    """The named workload; ``golden`` is its recorded digests or None."""
    if name == "codec-hq":
        return Codec("standard-qf:100", seed, work, smoke, golden)
    if name == "codec-plm":
        return Codec("plm", seed, work, smoke, golden)
    if name == "corpus":
        return Corpus(seed, work, smoke, golden)
    if name == "stats":
        return Stats(seed, work, smoke, golden)
    raise ValueError(f"unknown workload {name!r}")

