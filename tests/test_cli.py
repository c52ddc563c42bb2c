import json
from dataclasses import replace

import numpy as np
import pytest

from conftest import corrupt_png
from statjpeg.cli import main
from statjpeg.errors import InvalidInputError
from statjpeg.imgfile import load_image, save_ppm
from statjpeg.jpeg import decode_coefficients, encode_image
from statjpeg.quant import zigzag
from statjpeg.stats import load_stats
from statjpeg.synth import generate_corpus, synth_image
from statjpeg.tables import (
    PlmParams,
    auto_thresholds,
    derive_plm_table,
    load_table,
    rm_hf_table,
    same_q_table,
    save_table,
)


@pytest.fixture
def sample_ppm(tmp_path, rng):
    img = synth_image("speckle", rng, 32, 32)
    path = tmp_path / "input.ppm"
    save_ppm(img, path)
    return path


class TestAnalyze:
    def test_interval_two_samples_half(self, mini_corpus, tmp_path, capsys):
        out = tmp_path / "stats.json"
        code = main(["analyze", str(mini_corpus), "--k", "2", "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "classes: 4" in printed
        assert "sampled: 16" in printed
        assert load_stats(out).total_blocks > 0

    def test_interval_one_samples_all(self, mini_corpus, tmp_path, capsys):
        out = tmp_path / "stats.json"
        assert main(["analyze", str(mini_corpus), "--out", str(out)]) == 0
        assert "sampled: 32" in capsys.readouterr().out

    def test_csv_export(self, mini_corpus, tmp_path):
        out = tmp_path / "stats.json"
        csv_path = tmp_path / "deltas.csv"
        main(["analyze", str(mini_corpus), "--out", str(out), "--csv", str(csv_path)])
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "band,stddev"
        assert len(lines) == 65

    def test_corrupt_png_in_corpus_exits_two(self, tmp_path, capsys):
        (tmp_path / "corpus" / "cls").mkdir(parents=True)
        (tmp_path / "corpus" / "cls" / "bad.png").write_bytes(corrupt_png())
        code = main(["analyze", str(tmp_path / "corpus"), "--out", str(tmp_path / "s.json")])
        assert code == 2
        assert "error: corrupt PNG" in capsys.readouterr().err

    def test_bad_directory_exits_two(self, tmp_path, capsys):
        code = main(["analyze", str(tmp_path / "missing"), "--out", "x.json"])
        assert code == 2
        assert "error:" in capsys.readouterr().err


@pytest.fixture
def stats_file(mini_corpus, tmp_path_factory):
    out = tmp_path_factory.mktemp("stats") / "stats.json"
    assert main(["analyze", str(mini_corpus), "--out", str(out)]) == 0
    return out


def stats_doc(stddevs):
    """A luma-only stats document of 10 blocks with the given band spreads."""
    return {
        "schema_version": 1,
        "channels": {"y": {
            str(i): {"count": 10, "mean": 0.0, "stddev": stddev}
            for i, stddev in enumerate(stddevs)
        }},
        "total_blocks": 10,
        "source_manifest_digest": None,
    }


def set_every_count(doc, count, total_blocks):
    for band in doc["channels"]["y"].values():
        band["count"] = count
    doc["total_blocks"] = total_blocks


class TestDesignTable:
    def test_default_parameters_grid(self, stats_file, tmp_path, capsys):
        out = tmp_path / "table.json"
        assert main(["design-table", str(stats_file), "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert len([r for r in printed.splitlines() if len(r.split()) == 8]) == 8
        table = load_table(out)
        assert table.provenance["kind"] == "plm"
        assert table.values.min() >= 5

    def test_worked_values_via_synthetic_stats(self, tmp_path):
        # stats whose deltas hit the four documented operating points
        deltas = np.zeros(64)
        deltas[1], deltas[2], deltas[3] = 20.0, 40.0, 100.0
        doc = {
            "schema_version": 1,
            "channels": {"y": {
                str(i): {"count": 10, "mean": 0.0, "stddev": float(deltas[i])}
                for i in range(64)
            }},
            "total_blocks": 10,
            "source_manifest_digest": None,
        }
        stats_path = tmp_path / "stats.json"
        stats_path.write_text(json.dumps(doc))
        out = tmp_path / "table.json"
        assert main(["design-table", str(stats_path), "--out", str(out)]) == 0
        table = load_table(out)
        assert table.values[0] == 255
        assert table.values[1] == 60
        assert table.values[2] == 40
        assert table.values[3] == 5

    def test_stats_band_without_mean_exits_two(self, stats_file, tmp_path, capsys):
        doc = json.loads(stats_file.read_text())
        del doc["channels"]["y"]["3"]["mean"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["design-table", str(bad), "--out", str(tmp_path / "t.json")]) == 2
        assert "error: malformed stats file" in capsys.readouterr().err

    def test_channel_not_in_stats_exits_two(self, stats_file, tmp_path, capsys):
        # luma-only stats hold no chroma channel
        code = main(["design-table", str(stats_file), "--channel", "chroma",
                     "--out", str(tmp_path / "t.json")])
        assert code == 2
        assert "error: stats have no channel 'chroma' (channels: y)" in capsys.readouterr().err

    def test_stats_with_wrong_total_blocks_exits_two(self, stats_file, tmp_path, capsys):
        doc = json.loads(stats_file.read_text())
        doc["total_blocks"] += 1
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["design-table", str(bad), "--out", str(tmp_path / "t.json")]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", [
        lambda doc: set_every_count(doc, 10.7, 10),
        lambda doc: set_every_count(doc, "10", 10),
        lambda doc: set_every_count(doc, True, 1),
        lambda doc: doc["channels"]["y"]["5"].update(mean="1.5"),
        lambda doc: doc["channels"]["y"]["5"].update(stddev=True),
        lambda doc: doc.update(total_blocks=10.0),
        lambda doc: doc.update(schema_version=True),
        lambda doc: doc.update(schema_version=1.0),
        lambda doc: doc["channels"]["y"].update(x=doc["channels"]["y"].pop("5")),
    ], ids=["count-fraction", "count-string", "count-bool", "mean-string", "stddev-bool",
            "total-float", "version-bool", "version-float", "band-key-word"])
    def test_stats_field_of_the_wrong_type_exits_two(self, tmp_path, capsys, edit):
        doc = stats_doc([64.0 - i for i in range(64)])
        stats_path = tmp_path / "stats.json"
        stats_path.write_text(json.dumps(doc))
        load_stats(stats_path)  # the unedited document is valid
        edit(doc)
        stats_path.write_text(json.dumps(doc))
        with pytest.raises(InvalidInputError):
            load_stats(stats_path)
        code = main(["design-table", str(stats_path), "--out", str(tmp_path / "t.json")])
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "t.json").exists()

    @pytest.mark.parametrize("count", [1, 0, -4])
    def test_stats_channel_below_two_blocks_exits_two(self, tmp_path, capsys, count):
        # finalize refuses such a channel, so a file that holds one was not written by it
        doc = stats_doc([64.0 - i for i in range(64)])
        set_every_count(doc, count, count)
        stats_path = tmp_path / "stats.json"
        stats_path.write_text(json.dumps(doc))
        with pytest.raises(InvalidInputError, match=f"has only {count} blocks; need at least 2"):
            load_stats(stats_path)
        code = main(["design-table", str(stats_path), "--out", str(tmp_path / "t.json")])
        assert code == 2
        assert "need at least 2" in capsys.readouterr().err
        assert not (tmp_path / "t.json").exists()

    def test_auto_thresholds_come_from_the_spread_ranking(self, stats_file, tmp_path):
        out = tmp_path / "table.json"
        code = main(["design-table", str(stats_file), "--auto-thresholds", "--out", str(out)])
        assert code == 0
        deltas = load_stats(stats_file).deltas("y")
        t1, t2 = auto_thresholds(deltas)
        assert (t1, t2) != (PlmParams().t1, PlmParams().t2)
        want = derive_plm_table(deltas, replace(PlmParams(), t1=t1, t2=t2))
        table = load_table(out)
        assert table == want
        assert table.provenance == want.provenance

    def test_auto_thresholds_on_a_flat_profile_exit_two(self, tmp_path, capsys):
        stats_path = tmp_path / "stats.json"
        stats_path.write_text(json.dumps(stats_doc([5.0] * 64)))
        out = tmp_path / "table.json"
        code = main(["design-table", str(stats_path), "--auto-thresholds", "--out", str(out)])
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_stats_file_exits_two(self, tmp_path):
        assert main(["design-table", str(tmp_path / "no.json"), "--out", "t.json"]) == 2

    def test_parameter_overrides(self, stats_file, tmp_path):
        out = tmp_path / "table.json"
        assert main([
            "design-table", str(stats_file), "--out", str(out),
            "--qmin", "1", "--k1", "0", "--a", "99",
        ]) == 0
        table = load_table(out)
        # HF bands (all small deltas in this corpus) now map to a flat 99
        assert (table.values == 99).sum() > 0


class TestCompressDecompress:
    def test_round_trip_geometry(self, sample_ppm, tmp_path, capsys):
        jpg = tmp_path / "out.jpg"
        ppm = tmp_path / "back.ppm"
        assert main(["compress", str(sample_ppm), "--table", "standard-qf:90",
                     "--out", str(jpg)]) == 0
        assert main(["decompress", str(jpg), "--out", str(ppm)]) == 0
        original = load_image(sample_ppm)
        restored = load_image(ppm)
        assert (restored.width, restored.height, restored.channels) == (
            original.width, original.height, original.channels,
        )

    def test_same_q_spec_equals_table_file(self, sample_ppm, tmp_path):
        table_path = tmp_path / "fours.json"
        save_table(same_q_table(4), table_path)
        a = tmp_path / "a.jpg"
        b = tmp_path / "b.jpg"
        main(["compress", str(sample_ppm), "--table", "same-q:4", "--out", str(a)])
        main(["compress", str(sample_ppm), "--table", f"file:{table_path}", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_rm_hf_spec_zeroes_top_zigzag(self, sample_ppm, tmp_path):
        jpg = tmp_path / "rm.jpg"
        assert main(["compress", str(sample_ppm), "--table", "rm-hf:3",
                     "--out", str(jpg)]) == 0
        blocks, _ = decode_coefficients(jpg.read_bytes())
        for comp in blocks:
            assert np.all(zigzag(comp)[:, 61:] == 0)

    def test_rm_hf_takes_no_options(self, sample_ppm, tmp_path, capsys):
        code = main(["compress", str(sample_ppm), "--table", "rm-hf:3,qf:80",
                     "--out", str(tmp_path / "x.jpg")])
        assert code == 2
        assert "bad table source" in capsys.readouterr().err

    def test_table_file_with_drop_set(self, sample_ppm, tmp_path):
        table = rm_hf_table(same_q_table(4), 3)
        table_path = tmp_path / "rm.json"
        save_table(table, table_path)
        jpg = tmp_path / "rm.jpg"
        assert main(["compress", str(sample_ppm), "--table", f"file:{table_path}",
                     "--out", str(jpg)]) == 0
        assert jpg.read_bytes() == encode_image(load_image(sample_ppm), table)
        blocks, _ = decode_coefficients(jpg.read_bytes())
        for comp in blocks:
            assert np.all(zigzag(comp)[:, 61:] == 0)

    @pytest.mark.parametrize("edit", [
        lambda doc: doc.pop("entries"),
        lambda doc: doc["provenance"].update(drop_zigzag=5),
    ], ids=["no-entries", "drop-not-a-list"])
    def test_malformed_table_file_exits_two(self, sample_ppm, tmp_path, capsys, edit):
        table_path = tmp_path / "table.json"
        save_table(rm_hf_table(same_q_table(4), 3), table_path)
        doc = json.loads(table_path.read_text())
        edit(doc)
        table_path.write_text(json.dumps(doc))
        code = main(["compress", str(sample_ppm), "--table", f"file:{table_path}",
                     "--out", str(tmp_path / "x.jpg")])
        assert code == 2
        assert "error: bad table source" in capsys.readouterr().err

    def test_fractional_table_step_exits_two(self, sample_ppm, tmp_path, capsys):
        table_path = tmp_path / "table.json"
        save_table(same_q_table(4), table_path)
        doc = json.loads(table_path.read_text())
        doc["entries"][0] = 3.7
        table_path.write_text(json.dumps(doc))
        with pytest.raises(InvalidInputError, match="steps must be integers"):
            load_table(table_path)
        code = main(["compress", str(sample_ppm), "--table", f"file:{table_path}",
                     "--out", str(tmp_path / "x.jpg")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_plm_source(self, sample_ppm, stats_file, tmp_path):
        jpg = tmp_path / "plm.jpg"
        assert main(["compress", str(sample_ppm),
                     "--table", f"plm:{stats_file}", "--out", str(jpg)]) == 0
        assert jpg.read_bytes()[:2] == b"\xff\xd8"

    def test_plm_source_without_luma_stats_exits_two(
        self, sample_ppm, stats_file, tmp_path, capsys
    ):
        doc = json.loads(stats_file.read_text())
        doc["channels"] = {"chroma": doc["channels"]["y"]}
        chroma_only = tmp_path / "chroma.json"
        chroma_only.write_text(json.dumps(doc))
        code = main(["compress", str(sample_ppm), "--table", f"plm:{chroma_only}",
                     "--out", str(tmp_path / "x.jpg")])
        assert code == 2
        assert "error: bad table source" in capsys.readouterr().err

    def test_unknown_source_exits_two(self, sample_ppm, tmp_path, capsys):
        code = main(["compress", str(sample_ppm), "--table", "wavelet:3",
                     "--out", str(tmp_path / "x.jpg")])
        assert code == 2
        assert "table source" in capsys.readouterr().err


@pytest.fixture(scope="session")
def tiny_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("tiny") / "corpus"
    generate_corpus(root, classes=("stripes", "speckle"), images_per_class=3,
                    size=(40, 40))
    return root


class TestBenchmark:
    def test_row_counts_and_reference_cr(self, tiny_corpus, stats_file, tmp_path, capsys):
        csv_path = tmp_path / "rows.csv"
        json_path = tmp_path / "agg.json"
        code = main([
            "benchmark", str(tiny_corpus),
            "--table", f"plm:{stats_file}",
            "--table", "standard-qf:100",
            "--table", "same-q:4",
            "--table", "rm-hf:3",
            "--csv", str(csv_path), "--json", str(json_path),
        ])
        assert code == 0
        lines = csv_path.read_text().strip().splitlines()
        assert len(lines) == 1 + 6 * 4  # header + images x sources
        summary = json.loads(json_path.read_text())
        assert summary["images"] == 6
        assert summary["sources"]["standard-qf:100"]["compression_rate"] == 1.0
        for agg in summary["sources"].values():
            assert "mean_psnr_db" in agg and "mean_zero_fraction" in agg

    def test_assert_cr_order_pass_and_fail(self, tiny_corpus, stats_file, tmp_path, capsys):
        args = [
            "benchmark", str(tiny_corpus),
            "--table", f"plm:{stats_file}",
            "--table", "same-q:4",
            "--table", "standard-qf:100",
        ]
        good = main(args + ["--assert-cr-order",
                            f"plm:{stats_file},same-q:4,standard-qf:100"])
        assert good == 0
        capsys.readouterr()
        bad = main(args + ["--assert-cr-order",
                           f"standard-qf:100,plm:{stats_file}"])
        assert bad == 1
        assert "assertion failed" in capsys.readouterr().err

    def test_unknown_assert_label_exits_two(self, tiny_corpus, tmp_path):
        code = main([
            "benchmark", str(tiny_corpus),
            "--table", "same-q:4",
            "--assert-cr-order", "same-q:4,same-q:9",
        ])
        assert code == 2

