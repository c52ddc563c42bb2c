"""What each ``--table`` source resolves to, and the design-table flags.

``resolve_table_source`` is the one path from a spec to tables: ``compress``,
``benchmark``, the demos and the benchmark harness all go through it.  Each
kind is checked against the tables its documentation names, drop sets and
provenance included, and ``plm:`` on both luma-only and per-channel stats.
"""

import argparse
import json
import re
from dataclasses import fields

import pytest

from statjpeg import cli
from statjpeg.errors import InvalidInputError
from statjpeg.stats import load_stats
from statjpeg.synth import generate_corpus
from statjpeg.tables import (
    PlmParams,
    derive_plm_table,
    rm_hf_table,
    same_q_table,
    save_table,
    standard_table,
)


@pytest.fixture(scope="module")
def stats_files(tmp_path_factory):
    """Luma-only and per-channel stats of one small corpus."""
    root = tmp_path_factory.mktemp("sources")
    corpus = generate_corpus(root / "corpus", images_per_class=2, size=(24, 24))
    files = {}
    for mode in ("luma", "per-channel"):
        files[mode] = root / f"{mode}.json"
        argv = ["analyze", str(corpus), "--channel-mode", mode, "--out", str(files[mode])]
        assert cli.main(argv) == 0
    return files


def assert_resolves(spec, luma, chroma):
    source = cli.resolve_table_source(spec)
    assert source.label == spec
    for got, want in ((source.luma, luma), (source.chroma, chroma)):
        if want is None:
            assert got is None
        else:
            # == compares the steps and the drop set
            assert got == want
            assert got.provenance == want.provenance


@pytest.mark.parametrize("qf", [1, 50, 100])
def test_standard_qf_is_the_scaled_annex_k_pair(qf):
    assert_resolves(
        f"standard-qf:{qf}", standard_table(qf, "luma"), standard_table(qf, "chroma")
    )


@pytest.mark.parametrize("q", [1, 4, 255])
def test_same_q_is_one_uniform_table(q):
    assert_resolves(f"same-q:{q}", same_q_table(q), None)


@pytest.mark.parametrize("n", [0, 3, 63])
def test_rm_hf_drops_over_the_qf_100_pair(n):
    assert_resolves(
        f"rm-hf:{n}",
        rm_hf_table(standard_table(100, "luma"), n),
        rm_hf_table(standard_table(100, "chroma"), n),
    )


def test_file_is_the_saved_table_with_its_drop_set(tmp_path):
    table = rm_hf_table(same_q_table(4), 3)
    save_table(table, tmp_path / "t.json")
    assert_resolves(f"file:{tmp_path / 't.json'}", table, None)


def test_plm_on_luma_only_stats_gives_one_table(stats_files):
    summary = load_stats(stats_files["luma"])
    assert_resolves(f"plm:{stats_files['luma']}", derive_plm_table(summary.deltas("y")), None)


def test_plm_on_per_channel_stats_gives_two_tables(stats_files):
    summary = load_stats(stats_files["per-channel"])
    assert_resolves(
        f"plm:{stats_files['per-channel']}",
        derive_plm_table(summary.deltas("y")),
        derive_plm_table(summary.deltas("chroma")),
    )


@pytest.mark.parametrize("spec, message", [
    ("wavelet:3",
     "unknown table source 'wavelet:3' (expected plm:/standard-qf:/same-q:/rm-hf:/file:)"),
    ("",
     "unknown table source '' (expected plm:/standard-qf:/same-q:/rm-hf:/file:)"),
    ("plm:", "bad table source 'plm:': plm source needs a stats file: plm:<stats.json>"),
    ("standard-qf:0",
     "bad table source 'standard-qf:0': quality factor must be in [1, 100], got 0"),
    ("same-q:4.0",
     "bad table source 'same-q:4.0': invalid literal for int() with base 10: '4.0'"),
    ("rm-hf:64", "bad table source 'rm-hf:64': component count must be in [0, 63], got 64"),
], ids=["unknown", "empty", "plm-without-file", "qf-0", "fractional-step", "rm-hf-64"])
def test_bad_spec_message(spec, message):
    with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
        cli.resolve_table_source(spec)


@pytest.mark.parametrize("spec", [
    "same-q:4_0", "standard-qf: 9_0 ", "standard-qf:90 ", "rm-hf:+3", "same-q:\u0664",
    "same-q:04", "rm-hf:-0",
], ids=["underscore", "spaces-underscore", "trailing-space", "plus", "arabic-digit",
        "leading-zero", "minus-zero"])
def test_table_numbers_are_plain_decimals(spec):
    # int() reads every one of these, so one table had several spellings
    _, _, number = spec.partition(":")
    with pytest.raises(InvalidInputError, match=re.escape(f"{number!r} is not a plain decimal")):
        cli.resolve_table_source(spec)


def design_table_parser():
    (sub,) = (a for a in cli.build_parser()._actions
              if isinstance(a, argparse._SubParsersAction))
    return sub.choices["design-table"]


def test_mapping_flags_are_the_plm_params_fields():
    parser = design_table_parser()
    (group,) = (g for g in parser._action_groups
                if g.title == "piece-wise linear mapping parameters")
    flags = [action.option_strings for action in group._group_actions]
    assert flags == [["--a"], ["--b"], ["--c"], ["--k1"], ["--k2"], ["--k3"],
                     ["--t1"], ["--t2"], ["--qmin"]]
    for action, field in zip(group._group_actions, fields(PlmParams)):
        assert action.type is field.type
        assert action.default == field.default
        assert type(action.default) is field.type
    assert "[--qmin QMIN]" in parser.format_usage()


def test_benchmark_rejects_a_repeated_table(tmp_path, capsys):
    corpus = generate_corpus(tmp_path / "corpus", images_per_class=1, size=(16, 16))
    csv_path = tmp_path / "rows.csv"
    code = cli.main(["benchmark", str(corpus), "--table", "same-q:4",
                     "--table", "standard-qf:90", "--table", "same-q:4",
                     "--csv", str(csv_path)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err == "error: --table same-q:4 is given more than once\n"
    assert captured.out == ""
    assert not csv_path.exists()


def test_benchmark_rejects_a_second_spelling_of_a_table(tmp_path, capsys):
    corpus = generate_corpus(tmp_path / "corpus", images_per_class=1, size=(16, 16))
    code = cli.main(["benchmark", str(corpus), "--table", "same-q:4", "--table", "same-q:04"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err == (
        "error: bad table source 'same-q:04': '04' is not a plain decimal integer\n"
    )
    assert captured.out == ""


def test_file_with_provenance_that_is_not_an_object(tmp_path):
    path = tmp_path / "t.json"
    save_table(same_q_table(4), path)
    doc = json.loads(path.read_text())
    doc["provenance"] = "x"
    path.write_text(json.dumps(doc))
    message = f"bad table source 'file:{path}': table provenance must be a mapping"
    with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
        cli.resolve_table_source(f"file:{path}")
