"""Benchmarks that regenerate every table and figure of the evaluation.

Each benchmark times the regeneration of one exhibit and asserts the
paper's qualitative shape on the produced rows, so a run of
``pytest benchmarks/ --benchmark-only`` doubles as the reproduction check.
"""

from conftest import BENCH_SCALE

from repro.experiments import (
    figure2,
    figure8,
    figure9,
    figure10,
    hand_vs_auto,
    table1,
    table2,
)
from repro.workloads import PAPER_ORDER


class TestTable1:
    def test_table1(self, benchmark, context):
        result = benchmark(table1.run)
        rows = dict(result.rows)
        assert "SMT" in rows["Threading"]
        assert "230-cycle" in rows["Memory"]
        assert "16 entries" in rows["Fill buffer"]


class TestFigure2:
    def test_figure2(self, benchmark, context):
        result = benchmark.pedantic(
            figure2.run, kwargs=dict(context=context, scale=BENCH_SCALE),
            rounds=1, iterations=1)
        rows = result.row_map()
        for name in PAPER_ORDER:
            bench = rows[name]
            io_pm, io_pd = bench[1], bench[2]
            # Memory-bound kernels: perfect memory is a large win on the
            # in-order model ...
            assert io_pm > 3.0, f"{name}: perfect-mem speedup too small"
            # ... and the delinquent loads capture a large share of it
            # (the share grows with scale; tiny inputs select fewer
            # delinquent loads under the min-miss noise filter).
            assert io_pd > 0.25 * io_pm and io_pd > 2.0, \
                f"{name}: delinquent loads should capture much headroom"


class TestTable2:
    def test_table2(self, benchmark, context):
        result = benchmark.pedantic(
            table2.run, kwargs=dict(context=context, scale=BENCH_SCALE),
            rounds=1, iterations=1)
        rows = result.row_map()
        for name in PAPER_ORDER:
            assert rows[name][1] >= 1, f"{name}: no slices generated"
        # Table 2 structure: health and mst have interprocedural slices.
        assert rows["mst"][2] >= 1
        assert rows["health"][2] >= 1
        # Section 4.2: treeadd.df uses basic SP; mcf's loop uses chaining.
        assert "basic" in rows["treeadd.df"][5]
        assert "chaining" in rows["mcf"][5]
        # Live-in counts are small (the paper: 2.8-4.8 on average).
        for name in PAPER_ORDER:
            assert rows[name][4] <= 8


class TestFigure8:
    def test_figure8(self, benchmark, context):
        result = benchmark.pedantic(
            figure8.run, kwargs=dict(context=context, scale=BENCH_SCALE),
            rounds=1, iterations=1)
        rows = result.row_map()
        speedups = [rows[n][1] for n in PAPER_ORDER]
        # Headline: SSP provides a substantial average speedup on the
        # in-order model (87% in the paper).
        assert sum(speedups) / len(speedups) > 1.5
        for name in PAPER_ORDER:
            io_gain, ooo_gain = rows[name][1], rows[name][4]
            assert io_gain > 0.95, f"{name}: SSP must not slow in-order"
            # "SSP provides a greater benefit for the former [in-order]".
            assert io_gain > ooo_gain, \
                f"{name}: SSP gain on in-order {io_gain} should exceed " \
                f"its gain on OOO {ooo_gain}"


class TestFigure9:
    def test_figure9(self, benchmark, context):
        result = benchmark.pedantic(
            figure9.run, kwargs=dict(context=context, scale=BENCH_SCALE),
            rounds=1, iterations=1)
        by_key = {(r[0], r[1]): r for r in result.rows}
        for name in PAPER_ORDER:
            base = by_key[(name, "io")]
            ssp = by_key[(name, "io+SSP")]
            # SSP converts full-latency memory hits into partial hits and
            # nearer levels.
            assert ssp[6] < base[6] + 1e-9, \
                f"{name}: Mem Hit share should shrink with SSP"
        # Categories plus nothing else sum to the miss rate.
        for row in result.rows:
            assert abs(sum(row[2:8]) - row[8]) < 0.5


class TestFigure10:
    def test_figure10(self, benchmark, context):
        result = benchmark.pedantic(
            figure10.run, kwargs=dict(context=context, scale=BENCH_SCALE),
            rounds=1, iterations=1)
        by_key = {(r[0], r[1]): r for r in result.rows}
        for name in ("em3d", "treeadd.df", "vpr"):
            base = by_key[(name, "io")]
            ssp = by_key[(name, "io+SSP")]
            # Baselines are normalised to 100%.
            assert abs(base[-1] - 100.0) < 1e-6
            # "SSP effectively reduces the L3 cycles, which is the main
            # reason for the 87% speedup on the in-order processor."
            assert ssp[2] < base[2], f"{name}: L3 stall cycles must drop"
            assert ssp[-1] < base[-1], f"{name}: total cycles must drop"


class TestHandVsAuto:
    def test_hand_vs_auto(self, benchmark, context):
        result = benchmark.pedantic(
            hand_vs_auto.run,
            kwargs=dict(context=context, scale=BENCH_SCALE),
            rounds=1, iterations=1)
        by_key = {(r[0], r[1]): r for r in result.rows}
        # Both adaptations beat the baseline on the in-order model.
        for bench in ("mcf", "health"):
            assert by_key[(bench, "inorder")][2] > 1.0  # auto
            assert by_key[(bench, "inorder")][3] > 1.0  # hand
        # mcf: hand adaptation stays ahead of the tool (Section 4.5).
        assert by_key[("mcf", "inorder")][3] > \
            by_key[("mcf", "inorder")][2]
