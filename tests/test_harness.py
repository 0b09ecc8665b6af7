"""Tests for the experiment harnesses (structure, not performance)."""

import pytest

from repro.api.backends import ABLATION_ORDER
from repro.baselines.ablated import (
    alpha_hash_all_always_left,
    alpha_hash_all_recompute_vm,
)
from repro.evalharness.ablations import run_ablations, sweep_label
from repro.evalharness.config import PROFILES, current_profile
from repro.evalharness.fig2 import run_fig2
from repro.evalharness.fig3 import run_fig3
from repro.evalharness.fig4 import run_fig4
from repro.evalharness.format import format_ms, format_seconds, format_table
from repro.evalharness.incremental_exp import format_rows as format_incremental
from repro.evalharness.incremental_exp import run_incremental
from repro.evalharness.opcounts import format_rows as format_opcounts
from repro.evalharness.opcounts import run_opcounts
from repro.evalharness.table1 import format_rows as format_table1
from repro.evalharness.table1 import run_table1
from repro.evalharness.table2 import run_table2
from repro.gen.random_exprs import alpha_rename, random_expr
from repro.core.hashed import alpha_hash_all


class TestConfig:
    def test_profiles_exist(self):
        assert set(PROFILES) == {"ci", "small", "paper"}

    def test_default_profile(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_SCALE", raising=False)
        assert current_profile().name == "ci"

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "small")
        assert current_profile().name == "small"

    def test_explicit_override_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "small")
        assert current_profile("paper").name == "paper"

    def test_unknown_profile(self):
        with pytest.raises(KeyError):
            current_profile("huge")

    def test_paper_profile_matches_appendix(self):
        paper = PROFILES["paper"]
        assert paper.fig4_trials == 10 * 2**16
        assert paper.fig4_bits == 16
        assert max(paper.fig2_sizes) == 2**20


class TestFormatting:
    def test_format_table_alignment(self):
        text = format_table(["name", "value"], [["a", 1], ["bb", 22]])
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert "--" in lines[1]

    def test_format_table_title(self):
        text = format_table(["x"], [[1]], title="T")
        assert text.splitlines()[0] == "T"

    def test_format_seconds_scales(self):
        assert format_seconds(5e-7) == "0.5 us"
        assert format_seconds(2e-3) == "2.00 ms"
        assert format_seconds(2.5) == "2.50 s"

    def test_format_ms(self):
        assert format_ms(0.000002) == "0.002"
        assert format_ms(0.0042) == "4.20"
        assert format_ms(0.82) == "820.0"


class TestTable1:
    def test_all_rows_consistent(self):
        rows = run_table1(random_trials=4, seed=1)
        assert len(rows) == 4
        assert all(row.consistent for row in rows)

    def test_formatting_mentions_observations(self):
        rows = run_table1(random_trials=2)
        text = format_table1(rows)
        assert "Ours" in text and "ok" in text and "MISMATCH" not in text


class TestFig2:
    def test_structure(self):
        result = run_fig2(
            "balanced",
            sizes=(64, 256, 1024),
            algorithms=("structural", "ours"),
            repeats=1,
        )
        assert result.sizes == [64, 256, 1024]
        assert set(result.seconds) == {"structural", "ours"}
        assert all(t is not None for t in result.seconds["ours"])
        assert result.slope("ours") is not None

    def test_ln_cap_produces_none(self):
        result = run_fig2(
            "unbalanced",
            sizes=(256, 4096),
            algorithms=("locally_nameless",),
            scale="ci",
            repeats=1,
        )
        assert result.seconds["locally_nameless"][-1] is None

    def test_format(self):
        result = run_fig2(
            "balanced", sizes=(64, 256), algorithms=("ours",), repeats=1
        )
        text = result.format()
        assert "Figure 2" in text and "slope" in text


class TestFig3:
    def test_structure(self):
        result = run_fig3(
            layer_counts=(1, 2), algorithms=("structural", "ours"), repeats=1
        )
        assert result.layers == [1, 2]
        assert result.sizes[0] < result.sizes[1]
        assert "Figure 3" in result.format()


class TestTable2:
    def test_structure_without_quadratic_baseline(self):
        result = run_table2(algorithms=("structural", "debruijn", "ours"), repeats=1)
        assert [name for name, _ in result.workloads] == [
            "MNIST CNN",
            "GMM",
            "BERT 12",
        ]
        assert result.workloads[2][1] == 12975
        assert result.ratio("ours", "structural", "BERT 12") > 0.5
        text = result.format()
        assert "Table 2" in text and "(paper)" in text
        assert "Table 2" in result.format(show_paper=False)


class TestFig4:
    def test_structure(self):
        result = run_fig4(sizes=(32, 64), trials=10, bits=12, seed=5)
        assert result.sizes == [32, 64]
        assert len(result.random_results) == 2
        text = result.format()
        assert "Figure 4" in text and "Thm 6.7" in text


class TestIncrementalExperiment:
    def test_rows(self):
        rows = run_incremental(sizes=(512, 2048), scale="ci", seed=1)
        assert [r.size for r in rows] == [512, 2048]
        for row in rows:
            assert row.touched_nodes < row.size
            assert 0 < row.touched_fraction < 1
        text = format_incremental(rows, "balanced")
        assert "6.3" in text


class TestOpCounts:
    def test_rows_and_blowup(self):
        rows = run_opcounts(sizes=(512, 4096), shape="unbalanced", seed=0)
        for row in rows:
            assert row.smaller_subtree_ops <= row.lemma_bound
            assert row.always_left_ops >= row.smaller_subtree_ops
        # disabling the optimisation must hurt noticeably by n=4096
        assert rows[-1].always_left_ops > 3 * rows[-1].smaller_subtree_ops
        assert "Lemma 6.1" in format_opcounts(rows)


class TestAblationVariants:
    def test_variants_registered(self):
        assert set(ABLATION_ORDER) == {"ours", "always_left", "recompute_vm", "lazy"}
        # the historical display labels survive the registry unification
        assert sweep_label("ours") == "Ours (full)"
        assert sweep_label("lazy") == "Appendix C variant"
        assert sweep_label("always_left") == "no smaller-subtree merge"
        assert sweep_label("recompute_vm") == "no XOR maintenance"

    def test_always_left_is_still_correct(self):
        e = random_expr(300, seed=4, p_let=0.2)
        renamed = alpha_rename(e)
        assert (
            alpha_hash_all_always_left(e).root_hash
            == alpha_hash_all_always_left(renamed).root_hash
        )

    def test_recompute_vm_bit_identical_to_production(self):
        e = random_expr(300, seed=5, p_let=0.2)
        fast = alpha_hash_all(e)
        slow = alpha_hash_all_recompute_vm(e)
        from repro.lang.traversal import preorder

        for node in preorder(e):
            assert fast.hash_of(node) == slow.hash_of(node)

    def test_run_ablations_structure(self):
        result = run_ablations(
            sizes=(128, 512), variants=("ours", "lazy"), scale="ci", seed=0
        )
        assert set(result.seconds) == {"ours", "lazy"}
        assert "Ablations" in result.format()
