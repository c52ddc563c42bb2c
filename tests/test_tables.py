import numpy as np
import pytest

from statjpeg.errors import InvalidInputError, InvalidParamsError, SchemaVersionError
from statjpeg.quant import ZIGZAG_INDEX, ZIGZAG_POSITION, QuantTable
from statjpeg.stats import rank_bands
from statjpeg.tables import (
    STANDARD_LUMA,
    BandSegmentation,
    PlmParams,
    auto_thresholds,
    derive_plm_table,
    format_grid,
    load_table,
    rm_hf_table,
    same_q_table,
    save_table,
    segment_bands,
    standard_table,
)


def deltas_with(values_at):
    deltas = np.zeros(64)
    for band, value in values_at.items():
        deltas[band] = value
    return deltas


class TestPlm:
    def test_worked_values(self):
        # direct evaluation of the three branches with the stock defaults
        deltas = deltas_with({1: 20.0, 2: 40.0, 3: 60.0, 4: 100.0})
        table = derive_plm_table(deltas)
        assert table.values[0] == 255   # delta 0 -> a - 0
        assert table.values[1] == 60    # 255 - 9.75*20
        assert table.values[2] == 40    # 80 - 40
        assert table.values[3] == 20    # 80 - 60
        assert table.values[4] == 5     # 240 - 300 clamped to q_min

    def test_continuity_at_first_threshold(self):
        eps = 1e-9
        at = derive_plm_table(deltas_with({1: 20.0})).values[1]
        above = derive_plm_table(deltas_with({1: 20.0 + eps})).values[1]
        assert at == above == 60

    def test_documented_discontinuity_at_second_threshold(self):
        at = derive_plm_table(deltas_with({1: 60.0})).values[1]
        above = derive_plm_table(deltas_with({1: 60.0 + 1e-9})).values[1]
        assert at == 20
        assert above == 60  # 240 - 3*60; the mapping jumps as specified

    def test_clamp_region_boundary(self):
        # (240 - 5) / 3: any larger spread pins the step at q_min
        boundary = 235.0 / 3.0
        table = derive_plm_table(deltas_with({1: boundary + 0.2, 2: 200.0}))
        assert table.values[1] == 5
        assert table.values[2] == 5

    def test_output_range_and_integrality(self, rng):
        deltas = rng.uniform(0, 300, size=64)
        table = derive_plm_table(deltas)
        assert table.values.min() >= 5
        assert table.values.max() <= 255
        assert table.values.dtype.kind == "i"

    def test_non_increasing_within_each_piece(self, rng):
        params = PlmParams()
        for low, high in ((0.0, 20.0), (20.0 + 1e-6, 60.0), (60.0 + 1e-6, 300.0)):
            d = np.sort(rng.uniform(low, high, size=64))
            q = derive_plm_table(d, params).values
            assert np.all(np.diff(q) <= 0)

    def test_rounding_half_up(self):
        # delta 2 in the small-spread branch: 255 - 19.5 = 235.5 -> 236
        assert derive_plm_table(deltas_with({1: 2.0})).values[1] == 236

    def test_param_validation(self):
        with pytest.raises(InvalidParamsError):
            PlmParams(t1=60.0, t2=20.0)
        with pytest.raises(InvalidParamsError):
            PlmParams(q_min=0)
        with pytest.raises(InvalidParamsError):
            PlmParams(k1=-1.0)

    @pytest.mark.parametrize("name", ["a", "b", "c", "k1", "k2", "k3", "t1", "t2"])
    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_constants_are_rejected(self, name, value):
        with pytest.raises(InvalidParamsError, match=f"^{name} must be finite"):
            PlmParams(**{name: value})

    @pytest.mark.parametrize("name", ["a", "b", "c", "k1", "k2", "k3", "t1", "t2"])
    @pytest.mark.parametrize(
        "value", [10**400, -(10**400), "255", True, None], ids=["big", "-big", "str", "bool", "none"]
    )
    def test_constants_that_are_not_real_numbers_are_rejected(self, name, value):
        with pytest.raises(InvalidParamsError, match=f"^{name} must be finite"):
            PlmParams(**{name: value})

    @pytest.mark.parametrize("q_min", [2.5, 5.0, True, "5", None])
    def test_q_min_must_be_an_integer(self, q_min):
        with pytest.raises(InvalidParamsError, match="^q_min must be an integer"):
            PlmParams(q_min=q_min)

    def test_delta_validation(self):
        with pytest.raises(InvalidInputError):
            derive_plm_table(np.full(64, np.nan))
        with pytest.raises(InvalidInputError):
            derive_plm_table(np.full(64, -1.0))
        with pytest.raises(InvalidInputError):
            derive_plm_table(np.zeros(63))

    def test_auto_thresholds_track_rank_boundaries(self, rng):
        deltas = np.sort(rng.uniform(1, 200, size=64))[::-1].copy()
        ranked_deltas = np.sort(deltas)[::-1]
        t1, t2 = auto_thresholds(deltas)
        assert t2 == ranked_deltas[6]
        assert t1 == ranked_deltas[28]
        with pytest.raises(InvalidParamsError):
            auto_thresholds(np.ones(64))


BAD_PROFILES = {
    "nan": [np.nan] * 64,
    "nan-last": [*np.linspace(100.0, 1.0, 63), np.nan],
    "inf": [np.inf] * 64,
    "negative": [-1.0] * 64,
    "strings": ["x"] * 64,
    "numeric-strings": ["1.5"] * 64,
    "bools": [True] * 64,
    "objects": [None] * 64,
    "short": [1.0] * 63,
}
SPREAD_CONSUMERS = {
    "rank_bands": rank_bands,
    "derive_plm_table": derive_plm_table,
    "auto_thresholds": auto_thresholds,
    "segment_bands": lambda deltas: segment_bands(deltas, "magnitude"),
}


@pytest.mark.parametrize("profile", BAD_PROFILES.values(), ids=BAD_PROFILES.keys())
@pytest.mark.parametrize("consumer", SPREAD_CONSUMERS.values(), ids=SPREAD_CONSUMERS.keys())
def test_every_spread_consumer_applies_one_profile_rule(consumer, profile):
    with pytest.raises(InvalidInputError, match="deltas"):
        consumer(profile)


class TestSegmentation:
    def test_partition_sizes(self, rng):
        for mode in ("magnitude", "position"):
            seg = segment_bands(rng.uniform(0, 100, size=64), mode)
            assert (len(seg.lf), len(seg.mf), len(seg.hf)) == (6, 22, 36)
            assert seg.lf | seg.mf | seg.hf == set(range(64))
            assert not (seg.lf & seg.mf or seg.mf & seg.hf or seg.lf & seg.hf)

    def test_equal_deltas_degenerate_to_position_mode(self):
        by_magnitude = segment_bands(np.ones(64), "magnitude")
        by_position = segment_bands(np.ones(64), "position")
        assert by_magnitude.lf == by_position.lf
        assert by_magnitude.mf == by_position.mf

    def test_position_mode_puts_dc_in_lf(self, rng):
        seg = segment_bands(rng.uniform(0, 10, size=64), "position")
        assert 0 in seg.lf
        assert seg.lf == set(int(b) for b in ZIGZAG_INDEX[:6])

    def test_magnitude_mode_follows_spread_not_position(self):
        # six large spreads planted at the highest-frequency natural bands
        deltas = np.linspace(1.0, 2.0, 64)
        hot = [63, 62, 61, 55, 47, 39]
        deltas[hot] = 100.0
        seg = segment_bands(deltas, "magnitude")
        assert seg.lf == set(hot)
        assert segment_bands(deltas, "position").lf != seg.lf

    def test_magnitude_respects_delta_ordering(self, rng):
        deltas = rng.uniform(0, 50, size=64)
        seg = segment_bands(deltas, "magnitude")
        assert min(deltas[b] for b in seg.lf) >= max(deltas[b] for b in seg.mf)
        assert min(deltas[b] for b in seg.mf) >= max(deltas[b] for b in seg.hf)

    def test_unknown_mode_rejected(self):
        with pytest.raises(InvalidInputError):
            segment_bands(np.ones(64), "frequency")


class TestStandardTable:
    def test_identity_at_fifty(self):
        np.testing.assert_array_equal(standard_table(50).values, STANDARD_LUMA)

    def test_all_ones_at_hundred(self):
        assert np.all(standard_table(100).values == 1)
        assert np.all(standard_table(100, "chroma").values == 1)

    def test_doubling_at_twenty_five(self):
        scaled = standard_table(25).values
        np.testing.assert_array_equal(scaled, np.minimum(STANDARD_LUMA * 2, 255))

    def test_range_validation(self):
        with pytest.raises(InvalidInputError):
            standard_table(0)
        with pytest.raises(InvalidInputError):
            standard_table(101)
        with pytest.raises(InvalidInputError):
            standard_table(50, "luminance")

    @pytest.mark.parametrize("qf", [50.5, 50.0, True, "50", None])
    def test_quality_factor_must_be_an_integer(self, qf):
        with pytest.raises(InvalidInputError, match="quality factor must be integers"):
            standard_table(qf)

    def test_provenance_records_a_plain_int(self):
        provenance = standard_table(np.int64(50)).provenance
        assert provenance["qf"] == 50 and type(provenance["qf"]) is int

    def test_monotone_in_quality(self):
        sizes = [standard_table(qf).values.sum() for qf in (10, 30, 50, 80, 100)]
        assert sizes == sorted(sizes, reverse=True)


class TestBaselines:
    def test_same_q_values(self):
        assert np.all(same_q_table(1).values == 1)
        assert np.all(same_q_table(4).values == 4)
        assert np.all(same_q_table(255).values == 255)
        with pytest.raises(InvalidInputError):
            same_q_table(0)
        with pytest.raises(InvalidInputError):
            same_q_table(256)

    @pytest.mark.parametrize("q", [4.5, 4.0, True, "4"])
    def test_same_q_step_must_be_an_integer(self, q):
        with pytest.raises(InvalidInputError, match="uniform step must be integers"):
            same_q_table(q)

    @pytest.mark.parametrize("n", [3.0, 2.5, True, "3"])
    def test_rm_hf_count_must_be_an_integer(self, n):
        with pytest.raises(InvalidInputError, match="component count must be integers"):
            rm_hf_table(standard_table(100), n)

    def test_rm_hf_drop_set(self):
        base = standard_table(100)
        table = rm_hf_table(base, 3)
        assert table.provenance["drop_zigzag"] == [61, 62, 63]
        np.testing.assert_array_equal(table.values, base.values)
        assert rm_hf_table(base, 0).provenance["drop_zigzag"] == []
        assert rm_hf_table(base, 63).provenance["drop_zigzag"] == list(range(1, 64))
        with pytest.raises(InvalidInputError):
            rm_hf_table(base, 64)

    def test_rm_hf_drop_set_is_highest_zigzag(self):
        drop = rm_hf_table(standard_table(100), 5).provenance["drop_zigzag"]
        assert len(drop) == 5
        natural = [int(ZIGZAG_INDEX[p]) for p in drop]
        # the dropped natural bands sit in the bottom-right corner
        assert all(ZIGZAG_POSITION[b] >= 59 for b in natural)

    def test_rm_hf_table_differs_from_its_base(self):
        base = standard_table(100)
        assert rm_hf_table(base, 3) != base
        assert rm_hf_table(base, 3) != rm_hf_table(base, 4)
        assert rm_hf_table(base, 3) == rm_hf_table(base, 3)
        assert rm_hf_table(base, 0) == base


class TestPersistence:
    def test_json_round_trip(self, tmp_path):
        table = derive_plm_table(np.linspace(0, 120, 64))
        path = tmp_path / "table.json"
        save_table(table, path)
        loaded = load_table(path)
        assert loaded == table
        assert loaded.provenance["kind"] == "plm"

    def test_json_round_trip_keeps_the_drop_set(self, tmp_path):
        table = rm_hf_table(same_q_table(4), 3)
        path = tmp_path / "table.json"
        save_table(table, path)
        loaded = load_table(path)
        assert loaded == table
        assert loaded != same_q_table(4)
        assert loaded.provenance["drop_zigzag"] == [61, 62, 63]

    def test_grid_format(self):
        table = same_q_table(7)
        grid = format_grid(table)
        rows = grid.splitlines()
        assert len(rows) == 8
        assert all(len(row.split()) == 8 for row in rows)
        assert all(v == "7" for row in rows for v in row.split())

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "table.json"
        save_table(same_q_table(4), path)
        path.write_text(path.read_text().replace('"schema_version": 1', '"schema_version": 9'))
        with pytest.raises(SchemaVersionError):
            load_table(path)

    def test_non_finite_numbers_are_neither_written_nor_read(self, tmp_path):
        # Python's json writes and reads NaN and the infinities; JSON has no such numbers
        path = tmp_path / "table.json"
        table = QuantTable(np.full(64, 4), provenance={"kind": "custom", "spread": float("nan")})
        with pytest.raises(ValueError, match="JSON"):
            save_table(table, path)
        assert not path.exists()
        save_table(same_q_table(4), path)
        path.write_text(path.read_text().replace('"q": 4', '"q": -Infinity'))
        with pytest.raises(InvalidInputError, match="-Infinity is not a JSON number"):
            load_table(path)

    @pytest.mark.parametrize("version", ["true", "1.0"])
    def test_schema_version_must_be_the_integer(self, tmp_path, version):
        # true and 1.0 both compare equal to 1
        path = tmp_path / "table.json"
        save_table(same_q_table(4), path)
        path.write_text(
            path.read_text().replace('"schema_version": 1', f'"schema_version": {version}')
        )
        with pytest.raises(InvalidInputError, match="schema_version"):
            load_table(path)

    def test_segmentation_type_shape(self):
        seg = segment_bands(np.ones(64), "position")
        assert isinstance(seg, BandSegmentation)
        assert isinstance(seg.lf, frozenset)
