"""Bench-harness tests: the table/figure drivers produce well-formed
artifacts at small scale (full-scale numbers live in benchmarks/)."""

import pytest

from repro.bench import (fig6_data, gzip_profile_listing, render_fig6,
                         render_table3, render_table4, render_table5,
                         table3_rows, table4_rows, table5_rows)

SCALE = 0.5


@pytest.fixture(scope="module")
def t3_rows():
    return table3_rows(SCALE, names=["gzip", "aes"])


class TestTable3:
    def test_columns_populated(self, t3_rows):
        for row in t3_rows:
            assert row.loc > 30
            assert row.static > 5
            assert row.dynamic > 100
            assert row.prof_seconds > row.orig_seconds > 0
            assert row.slowdown > 1

    def test_render(self, t3_rows):
        text = render_table3(t3_rows)
        assert "Table III" in text
        assert "gzip" in text and "aes" in text
        assert "Slowdown" in text


class TestTable4:
    @pytest.fixture(scope="class")
    def rows(self):
        return table4_rows(SCALE)

    def test_all_locations_present(self, rows):
        names = [r.name for r in rows]
        assert names.count("bzip2") == 2
        assert names.count("par2") == 2
        assert "ogg" in names and "aes" in names

    def test_render(self, rows):
        text = render_table4(rows)
        assert "Table IV" in text
        assert "paper RAW" in text


class TestTable5:
    @pytest.fixture(scope="class")
    def rows(self):
        return table5_rows(scale=1.0, workers=4)

    def test_speedups_positive(self, rows):
        for row in rows:
            assert row.speedup >= 1.0
            assert row.t_par <= row.t_seq

    def test_render(self, rows):
        text = render_table5(rows)
        assert "Table V" in text
        assert "Speedup" in text


class TestFigures:
    def test_gzip_listing(self):
        report, text = gzip_profile_listing(SCALE)
        assert "Fig 2 style profile" in text
        assert "flush_block" in text
        assert "Fig 3 style profile" in text

    def test_fig6_panels(self):
        panels = fig6_data(SCALE, top=6)
        assert set(panels) == {"a", "b", "c", "d", "delaunay"}
        text = render_fig6(panels)
        assert "Fig 6(a) gzip" in text
        assert "197.parser" in text
        for panel in panels.values():
            for row in panel.rows:
                assert 0.0 <= row.norm_size <= 1.0
                assert 0.0 <= row.norm_violations <= 1.0
