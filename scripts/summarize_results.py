#!/usr/bin/env python3
"""Summarize results/*.log into the markdown tables EXPERIMENTS.md embeds."""
import re, sys, pathlib

results = pathlib.Path(__file__).resolve().parent.parent / "results"

# One fig5_fig6_combined run feeds both figures. Per dataset it logs
#   == <dataset> (basis loss <b>) ==
# then one line per algorithm:
#   <algorithm>  final <x>x | reach 1.5x at <t>s | <e> epochs | loss@1ep <y>x
HEADER = re.compile(r"== (\S+) \(basis loss ([\d.]+)\) ==")
ROW = re.compile(
    r"\s+(.+?)\s+final\s+([\d.]+)x \| reach 1\.5x at\s+(\S+) \|"
    r"\s+([\d.]+) epochs \| loss@1ep ([\d.]+x)"
)

def combined_rows():
    """(algorithm, dataset, final, reach, epochs, loss@1ep) per logged cell."""
    log = (results / "fig5_fig6_combined.log").read_text()
    rows, ds = [], None
    for line in log.splitlines():
        m = HEADER.match(line)
        if m:
            ds = m.group(1)
            continue
        m = ROW.match(line)
        if m and ds:
            rows.append((m.group(1).strip(), ds) + m.groups()[1:])
    return rows

def table(header, cell):
    rows = combined_rows()
    datasets, algos = [], []
    for r in rows:
        if r[1] not in datasets: datasets.append(r[1])
        if r[0] not in algos: algos.append(r[0])
    print("| algorithm | " + " | ".join(f"{d} {header}" for d in datasets) + " |")
    print("|---|" + "---|" * len(datasets))
    for a in algos:
        cells = []
        for d in datasets:
            hit = [r for r in rows if r[0] == a and r[1] == d]
            cells.append(cell(hit[0]) if hit else "—")
        print(f"| {a} | " + " | ".join(cells) + " |")

def fig5_table():
    table("final / reach", lambda r: f"{r[2]}× / {r[3]}")

def fig6_table():
    table("epochs run / loss@1ep", lambda r: f"{r[4]} / {r[5]}")

def passthrough(name):
    print((results / name).read_text())

if __name__ == "__main__":
    which = sys.argv[1] if len(sys.argv) > 1 else "all"
    if which in ("fig5", "all"):
        print("### fig5\n"); fig5_table(); print()
    if which in ("fig6", "all"):
        print("### fig6\n"); fig6_table(); print()
    if which in ("ablations", "all"):
        print("### ablations\n"); passthrough("ablations.log")
    if which in ("extensions", "all"):
        print("### extensions\n"); passthrough("extensions.log")
