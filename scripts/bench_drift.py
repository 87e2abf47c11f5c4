#!/usr/bin/env python3
"""Bench drift check: compare `experiments --json` tables against a baseline.

The nightly workflow runs the experiment driver (`--profile fast`, the same
profile the checked-in baseline under ``scripts/bench_baseline/`` was made
with) and feeds the fresh JSON tables to this script. Every *timing* cell
(header ending in ``(s)``) and every *memory* cell (header ending in
``(B)``, heap bytes) is compared row-by-row against the baseline; a timing
cell that regressed by more than ``--threshold`` percent or a memory cell
that grew by more than ``--mem-threshold`` percent counts as drift, and
any drift fails the run (exit 2). Timing cells whose baseline is under
1 ms are reported but never gated: identical code measures 77-110 us on
such cells, so they would fail the gate on their own baseline. Rows or
whole tables missing from
either side are reported but never fatal — profiles evolve; the gate is
about the numbers both sides have.

Usage:
    bench_drift.py --current DIR [--baseline DIR] [--threshold PCT]
                   [--mem-threshold PCT]
    bench_drift.py --self-test

Table JSON shape (written by `rpq_bench::Table::write_json`):
    {"title": "...", "header": ["col", ...], "rows": [{"col": "cell", ...}]}

All cells are strings; timings are seconds in engineering notation
("13.001e-3", "15.034"). The first column of each row is its key.
"""

import argparse
import json
import os
import sys

TIME_SUFFIX = "(s)"
MEM_SUFFIX = "(B)"
# Timing baselines below this are scheduler noise at the fast profile:
# drift on them is printed as a note, not counted as a regression.
MIN_GATED_SECONDS = 1e-3
# Ratio columns ("2.42x") are measured values too: they must not be part
# of row keys, or a drifting speedup silently de-pairs the row and skips
# the timing/memory comparison entirely. "/RTC" names the per-strategy
# ratios of figs 10, 12 and 14 ("Full/RTC", "No/RTC").
RATIO_MARKERS = ("speedup", "ratio", "vs ", "/RTC")


def is_measured_col(name):
    """True for columns holding run-dependent measurements."""
    return (
        name.endswith(TIME_SUFFIX)
        or name.endswith(MEM_SUFFIX)
        or any(m in name for m in RATIO_MARKERS)
    )


def parse_number(cell):
    """A timing/memory cell as float, or None when it is not a number."""
    try:
        return float(cell)
    except (TypeError, ValueError):
        return None


def row_key(header, row):
    """Rows are identified by their non-measured columns (dataset, method,
    strategy, ...), so reordered tables still line up."""
    return tuple(row.get(col, "") for col in header if not is_measured_col(col))


def compare_tables(baseline, current, threshold_pct, mem_threshold_pct):
    """Yields (severity, message) for one table pair.

    severity: "regression" (gate-failing), "note" (informational).
    """
    header = baseline.get("header", [])
    gated_cols = [
        (c, threshold_pct, "s") for c in header if c.endswith(TIME_SUFFIX)
    ] + [(c, mem_threshold_pct, "B") for c in header if c.endswith(MEM_SUFFIX)]
    base_rows = {row_key(header, r): r for r in baseline.get("rows", [])}
    cur_rows = {row_key(header, r): r for r in current.get("rows", [])}

    for key in base_rows.keys() - cur_rows.keys():
        yield "note", f"row {key} missing from current run"
    for key in cur_rows.keys() - base_rows.keys():
        yield "note", f"row {key} new in current run (no baseline)"

    for key in sorted(base_rows.keys() & cur_rows.keys()):
        for col, gate_pct, unit in gated_cols:
            base = parse_number(base_rows[key].get(col))
            cur = parse_number(cur_rows[key].get(col))
            if base is None or cur is None or base <= 0.0:
                continue
            pct = (cur / base - 1.0) * 100.0
            if pct > gate_pct:
                ungated = unit == "s" and base < MIN_GATED_SECONDS
                yield (
                    "note" if ungated else "regression",
                    f"{'/'.join(key)} · {col}: {base:.6g}{unit} -> {cur:.6g}{unit} "
                    f"(+{pct:.1f}% > {gate_pct:.0f}%)"
                    + (" [baseline under 1 ms: not gated]" if ungated else ""),
                )


def load_tables(directory):
    tables = {}
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json"):
            continue
        with open(os.path.join(directory, name), encoding="utf-8") as f:
            tables[name] = json.load(f)
    return tables


def run(baseline_dir, current_dir, threshold_pct, mem_threshold_pct):
    baseline = load_tables(baseline_dir)
    current = load_tables(current_dir)
    if not baseline:
        print(f"error: no baseline tables in {baseline_dir}", file=sys.stderr)
        return 1
    if not current:
        print(f"error: no current tables in {current_dir}", file=sys.stderr)
        return 1

    regressions = 0
    for name in sorted(baseline.keys() | current.keys()):
        if name not in current:
            print(f"[note] table {name}: missing from current run")
            continue
        if name not in baseline:
            print(f"[note] table {name}: no baseline yet")
            continue
        for severity, message in compare_tables(
            baseline[name], current[name], threshold_pct, mem_threshold_pct
        ):
            print(f"[{severity}] {name}: {message}")
            if severity == "regression":
                regressions += 1

    if regressions:
        print(f"\nFAIL: {regressions} timing/memory cell(s) regressed")
        return 2
    print(
        f"\nOK: no timing cell regressed more than {threshold_pct:.0f}% "
        f"and no memory cell grew more than {mem_threshold_pct:.0f}%"
    )
    return 0


def self_test():
    """Unit-checks of the comparison logic (run by CI, needs no bench run)."""
    header = ["dataset", "No(s)", "pairs", "mem(B)", "speedup"]
    base = {
        "title": "t",
        "header": header,
        "rows": [
            {
                "dataset": "A",
                "No(s)": "1.000e-3",
                "pairs": "10",
                "mem(B)": "1000",
                "speedup": "2.42x",
            },
            {
                "dataset": "B",
                "No(s)": "2.000",
                "pairs": "20",
                "mem(B)": "4000",
                "speedup": "1.10x",
            },
            {
                "dataset": "gone",
                "No(s)": "1.0",
                "pairs": "1",
                "mem(B)": "8",
                "speedup": "1.00x",
            },
            {
                "dataset": "tiny",
                "No(s)": "90.000e-6",
                "pairs": "3",
                "mem(B)": "8",
                "speedup": "1.00x",
            },
        ],
    }
    cur = {
        "title": "t",
        "header": header,
        # Every speedup cell differs from the baseline: ratio columns must
        # not be part of row keys, or these rows would all de-pair.
        "rows": [
            # Timing +10% (under the 25% gate), memory +50% (over it).
            {
                "dataset": "A",
                "No(s)": "1.100e-3",
                "pairs": "10",
                "mem(B)": "1500",
                "speedup": "2.61x",
            },
            # Timing +50% (over the gate), memory shrank (fine).
            {
                "dataset": "B",
                "No(s)": "3.000",
                "pairs": "20",
                "mem(B)": "2000",
                "speedup": "0.95x",
            },
            {
                "dataset": "new",
                "No(s)": "5.0",
                "pairs": "2",
                "mem(B)": "8",
                "speedup": "1.00x",
            },
            # Timing +122% on a 90 us baseline: reported, not gated.
            {
                "dataset": "tiny",
                "No(s)": "200.000e-6",
                "pairs": "3",
                "mem(B)": "8",
                "speedup": "1.00x",
            },
        ],
    }
    results = list(compare_tables(base, cur, 25.0, 25.0))
    regressions = [m for s, m in results if s == "regression"]
    notes = [m for s, m in results if s == "note"]
    assert len(regressions) == 2, regressions
    assert any("B" in m and "No(s)" in m and "+50.0%" in m for m in regressions), (
        regressions
    )
    assert any("A" in m and "mem(B)" in m and "+50.0%" in m for m in regressions), (
        regressions
    )
    assert any("gone" in n for n in notes), notes
    assert any("new" in n for n in notes), notes
    assert any("tiny" in n and "not gated" in n for n in notes), notes
    assert not any("tiny" in m for m in regressions), regressions
    # A tighter timing threshold catches A's timing as well.
    assert (
        len([1 for s, _ in compare_tables(base, cur, 5.0, 25.0) if s == "regression"])
        == 3
    )
    # A looser memory threshold lets A's memory growth through.
    assert (
        len([1 for s, _ in compare_tables(base, cur, 25.0, 60.0) if s == "regression"])
        == 1
    )
    # Non-numeric and non-metric cells never trip the gate.
    assert parse_number("n/a") is None
    assert parse_number("13.001e-3") == 13.001e-3
    # Row keys ignore timing, memory and ratio columns, so a measurement
    # change alone still matches.
    assert row_key(header, base["rows"][0]) == ("A", "10")
    assert is_measured_col("vs sparse") and is_measured_col("time ratio")
    assert not is_measured_col("dense rows")
    # Fig 10/14 rows pair on (dataset, #RPQs) even when their Full/RTC and
    # No/RTC ratios move many-fold, and their timings are then compared.
    fig14 = ["dataset", "#RPQs", "No(s)", "Full(s)", "RTC(s)", "Full/RTC", "No/RTC"]

    def fig14_table(rtc, full_ratio, no_ratio):
        row = dict(zip(fig14, ["RMAT_3", "4", "0.500", "0.100", rtc, full_ratio, no_ratio]))
        return {"title": "Fig 14", "header": fig14, "rows": [row]}

    results = list(
        compare_tables(
            fig14_table("0.050", "2.00x", "10.00x"),
            fig14_table("0.100", "1.00x", "5.00x"),
            25.0,
            25.0,
        )
    )
    assert [s for s, _ in results] == ["regression"], results
    assert "RMAT_3/4 · RTC(s)" in results[0][1], results
    print("bench_drift.py self-test: OK")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", default="scripts/bench_baseline")
    parser.add_argument("--current", help="directory with fresh table JSONs")
    parser.add_argument(
        "--threshold",
        type=float,
        default=25.0,
        help="max tolerated per-cell slowdown, percent (default 25)",
    )
    parser.add_argument(
        "--mem-threshold",
        type=float,
        default=25.0,
        help="max tolerated per-cell heap-bytes growth, percent (default 25)",
    )
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        sys.exit(self_test())
    if not args.current:
        parser.error("--current is required (or use --self-test)")
    sys.exit(run(args.baseline, args.current, args.threshold, args.mem_threshold))


if __name__ == "__main__":
    main()
