"""Tests for the lab caching layer, config tiers, and reporting."""

import pytest

from repro.config import (
    EXEC_SCALE,
    FULL_TIER,
    H2P_MIN_EXECUTIONS,
    H2P_MIN_MISPREDICTIONS,
    QUICK_TIER,
    SLICE_INSTRUCTIONS,
    SLICE_SCALE,
)
from repro.experiments.lab import PREDICTOR_FACTORIES, Lab
from repro.experiments.reporting import (
    format_cell,
    format_histogram,
    format_series,
    format_table,
)


class TestConfigScaling:
    def test_slice_length_scaled(self):
        assert SLICE_INSTRUCTIONS == 30_000_000 // SLICE_SCALE

    def test_h2p_thresholds_scaled_consistently(self):
        assert H2P_MIN_EXECUTIONS == 15_000 // SLICE_SCALE
        assert H2P_MIN_MISPREDICTIONS == 1_000 // SLICE_SCALE

    def test_tiers(self):
        assert QUICK_TIER.spec_instructions == QUICK_TIER.spec_slices * SLICE_INSTRUCTIONS
        assert FULL_TIER.spec_slices > QUICK_TIER.spec_slices
        assert EXEC_SCALE * 10 == SLICE_SCALE


class TestLab:
    def test_predictor_registry_covers_presets(self):
        for kib in (8, 64, 128, 256, 512, 1024):
            assert f"tage-sc-l-{kib}kb" in PREDICTOR_FACTORIES

    def test_trace_cached(self, lab):
        t1 = lab.trace("605.mcf_s", 0, instructions=50_000)
        t2 = lab.trace("605.mcf_s", 0, instructions=50_000)
        assert t1 is t2

    def test_simulation_cached(self, lab):
        r1 = lab.simulate("605.mcf_s", 0, "tage-sc-l-8kb", instructions=50_000)
        r2 = lab.simulate("605.mcf_s", 0, "tage-sc-l-8kb", instructions=50_000)
        assert r1 is r2

    def test_unknown_workload(self, lab):
        with pytest.raises(KeyError):
            lab.trace("nope", 0)

    def test_unknown_predictor(self, lab):
        with pytest.raises(KeyError):
            lab.simulate("605.mcf_s", 0, "nope")

    def test_disk_cache_round_trip(self, tmp_path):
        lab1 = Lab(cache_dir=str(tmp_path))
        r1 = lab1.simulate("605.mcf_s", 0, "tage-sc-l-8kb", instructions=30_000)
        lab2 = Lab(cache_dir=str(tmp_path))
        r2 = lab2.simulate("605.mcf_s", 0, "tage-sc-l-8kb", instructions=30_000)
        assert r2.mispredictions == r1.mispredictions
        assert len(list(tmp_path.iterdir())) >= 1


class TestReporting:
    def test_format_cell(self):
        assert format_cell(None) == "-"
        assert format_cell(True) == "yes"
        assert format_cell(1.23456, precision=2) == "1.23"
        assert format_cell("x") == "x"

    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 2.5], [30, 4.0]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert len({len(line) for line in lines[1:]}) == 1  # aligned widths

    def test_format_table_row_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a"], [[1, 2]])

    def test_format_series(self):
        out = format_series("lbl", [1, 2], [0.5, 0.25])
        assert out.startswith("lbl:")
        assert "1=0.500" in out

    def test_format_histogram(self):
        out = format_histogram([0.0, 1.0, 2.0], [0.25, 0.75])
        assert "[0.0, 1.0): 0.2500" in out
